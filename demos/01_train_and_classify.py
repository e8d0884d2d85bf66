"""
Train the latent-representation classifier on partially observed views
=======================================================================

Generates a three-view synthetic problem, hides 40% of the view slots,
trains, re-tunes the reconstruction nets, and scores held-out samples.
"""

import numpy as np

from pmvl.data import MissingSpec, apply_missing_pattern, split, synth_dataset
from pmvl.supervised import TrainConfig, evaluate, retune, train

# three views of different widths, sharing an 8-d latent cause
data = synth_dataset(300, 3, 8, [20, 16, 12], seed=0,
                     noise_scale=0.05, nuisance_scale=3.5)

# hide 40% of the (sample, view) slots; every row keeps at least one view
masked = apply_missing_pattern(data, MissingSpec(0.4, seed=0))
print(f"masked {int((masked.mask == 0).sum())} of "
      f"{masked.mask.size} view slots")

train_d, test_d = split(masked, 0.7, seed=0)

config = TrainConfig(latent_dim=32, lam=10.0, lr_nets=0.05, lr_latent=0.02,
                     epochs=200, infer_iters=300, infer_lr=0.05, seed=0)
model = train(train_d, config)
print(f"trained for {len(model.objective_trace)} epochs, "
      f"final objective {model.objective_trace[-1]:.4f}")

# re-tuning refits the nets against the frozen latent table; the latents
# and centroids stay put, so only reconstruction quality can change
before = evaluate(model, test_d).accuracy
model = retune(model, train_d)
after = evaluate(model, test_d).accuracy
print(f"test accuracy {before:.3f} before re-tuning, {after:.3f} after")

report = evaluate(model, test_d)
print("per-class accuracy:", np.round(report.per_class, 3))
print("confusion matrix:")
print(report.confusion)
