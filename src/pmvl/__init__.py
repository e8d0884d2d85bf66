"""Partial multi-view learning: classification and imputation when samples
arrive with arbitrary subsets of their views.

The supervised path learns one latent vector per sample plus per-view
reconstruction nets, classifies by nearest class centroid in latent space,
and infers latents for new partial samples at test time. The adversarial
path trains per-view generators against discriminators to fill missing
views without labels. Baseline imputers and clustering/imputation metrics
round out the toolkit; the `pmvl` command drives it all from the shell.
"""

from . import _blas  # first: BLAS threads are fixed when numpy loads
from .adversarial import (
    AdversarialModel,
    GanConfig,
    impute,
    load_gan,
    save_gan,
    train_unsupervised,
)
from .baselines import (
    CLASS_MEAN,
    GLOBAL_MEAN,
    SVD,
    SvdParams,
    concat_classify,
    impute_baseline,
)
from .data import (
    MissingSpec,
    MultiViewDataset,
    apply_missing_pattern,
    load_dataset,
    measured_rate,
    save_dataset,
    split,
    synth_dataset,
)
from .errors import ConfigurationError, InputError, PmvlError, TrainingError
from .metrics import (
    classification_report,
    clustering_acc,
    evaluate_clustering,
    kmeans,
    nmi,
    nrmse,
)
from .supervised import (
    SupervisedModel,
    TrainConfig,
    evaluate,
    infer_latents,
    load_model,
    retune,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarialModel", "GanConfig", "impute",
    "load_gan", "save_gan", "train_unsupervised",
    "CLASS_MEAN", "GLOBAL_MEAN", "SVD", "SvdParams",
    "concat_classify", "impute_baseline",
    "MissingSpec", "MultiViewDataset", "apply_missing_pattern",
    "load_dataset", "measured_rate", "save_dataset",
    "split", "synth_dataset",
    "ConfigurationError", "InputError", "PmvlError", "TrainingError",
    "classification_report", "clustering_acc", "evaluate_clustering",
    "kmeans", "nmi", "nrmse",
    "SupervisedModel", "TrainConfig", "evaluate", "infer_latents",
    "load_model", "retune", "save_model", "train",
    "__version__",
]
