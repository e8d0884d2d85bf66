"""
What the latent table looks like after training
===============================================

The margin term pulls same-class latents toward their centroid, so the
learned table should cluster by class even though the nets only ever see
reconstruction targets. Measured two ways: cosine similarity within vs
across classes, and unsupervised k-means against the true labels.
"""

import numpy as np

from pmvl.adversarial import GanConfig, train_unsupervised
from pmvl.data import MissingSpec, apply_missing_pattern, synth_dataset
from pmvl.metrics import evaluate_clustering
from pmvl.supervised import TrainConfig, train

data = synth_dataset(300, 3, 8, [20, 16, 12], seed=2,
                     noise_scale=0.05, nuisance_scale=3.5)
masked = apply_missing_pattern(data, MissingSpec(0.3, seed=2))

model = train(masked, TrainConfig(latent_dim=32, lam=10.0, lr_nets=0.05,
                                  lr_latent=0.02, epochs=200, seed=2))

h = model.latent.H
h = h / np.linalg.norm(h, axis=1, keepdims=True)
sims = h @ h.T
same = masked.labels[:, None] == masked.labels[None, :]
off = ~np.eye(len(h), dtype=bool)
print(f"cosine similarity within classes : {sims[same & off].mean():.3f}")
print(f"cosine similarity across classes : {sims[~same].mean():.3f}")

clu = evaluate_clustering(model.latent.H, masked.labels, seed=2)
print(f"k-means on supervised latents    : acc {clu.acc:.3f}, nmi {clu.nmi:.3f}")

# the unsupervised trainer also yields a latent table, with no labels at all
gan = train_unsupervised(masked, GanConfig(latent_dim=16, lr=0.05,
                                           epochs=200, hidden_dims=(64,), seed=2))
clu = evaluate_clustering(gan.latent.H, masked.labels, seed=2)
print(f"k-means on unsupervised latents  : acc {clu.acc:.3f}, nmi {clu.nmi:.3f}")
