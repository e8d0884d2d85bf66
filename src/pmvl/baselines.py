"""Reference imputers and a concatenation classifier.

Three fill strategies for masked view slots: the observed per-feature mean,
the class-conditional mean (falling back to the global mean where a class
never observed a feature), and iterative soft-thresholded SVD completion
run independently per view. A simple classifier over concatenated, fully
filled views (nearest centroid or kNN) closes the loop for comparisons.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .data import MultiViewDataset
from .errors import ConfigurationError, InputError, check_number
from .metrics import classification_report, squared_distances

GLOBAL_MEAN = "global_mean"
CLASS_MEAN = "class_mean"
SVD = "svd"


@dataclass
class SvdParams:
    """Soft-impute settings: target rank, shrinkage, iteration cap.

    rank=None uses full rank; shrinkage=None picks from a small grid by
    held-out reconstruction error on observed entries.
    """

    rank: int | None = None
    shrinkage: float | None = None
    iters: int = 100

    def __post_init__(self):
        if self.rank is not None:
            check_number("rank", self.rank, numbers.Integral)
            if self.rank < 1:
                raise ConfigurationError(f"rank must be >= 1, got {self.rank}")
        if self.shrinkage is not None:
            check_number("shrinkage", self.shrinkage, numbers.Real)
            if self.shrinkage < 0:
                raise ConfigurationError(f"shrinkage must be >= 0, got {self.shrinkage}")
        check_number("iters", self.iters, numbers.Integral)
        if self.iters < 1:
            raise ConfigurationError(f"iters must be >= 1, got {self.iters}")


def _column_means(x, observed):
    """Mean of each column over observed rows; zero where nothing observed."""
    if not observed.any():
        return np.zeros(x.shape[1])
    return x[observed].mean(axis=0)


def impute_global_mean(data):
    out = data.copy()
    for v in range(out.n_views):
        obs = out.mask[:, v].astype(bool)
        fill = _column_means(out.views[v], obs)
        out.views[v][~obs] = fill
    out.mask[:] = 1
    return out


def impute_class_mean(data):
    if data.labels is None:
        raise InputError("class-mean imputation needs labels")
    out = data.copy()
    fallbacks = 0
    for v in range(out.n_views):
        obs = out.mask[:, v].astype(bool)
        global_fill = _column_means(out.views[v], obs)
        for c in range(out.n_classes):
            members = out.labels == c
            seen = obs & members
            gone = ~obs & members
            if not gone.any():
                continue
            if seen.any():
                out.views[v][gone] = out.views[v][seen].mean(axis=0)
            else:
                out.views[v][gone] = global_fill
                fallbacks += 1
    if fallbacks:
        warnings.warn(
            f"class-mean imputation fell back to the global mean for {fallbacks} "
            "class/view cells with no observation",
            stacklevel=2,
        )
    out.mask[:] = 1
    return out


def _masked_column_means(x, observed):
    counts = observed.sum(axis=0)
    sums = np.where(observed, x, 0.0).sum(axis=0)
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


def soft_impute_matrix(x, observed, params, tol=1e-6):
    """Complete a matrix with an entry-level observation mask.

    Missing entries start at their column means and are repeatedly replaced
    by the rank-truncated, soft-thresholded SVD reconstruction of the
    current fill. Stops after params.iters rounds or when the fill moves
    less than tol in Frobenius norm. Returns (completed, trace) where the
    trace holds the per-iteration surrogate objective: half the squared
    error on observed entries plus shrinkage times the nuclear norm of
    the reconstruction. Each iteration minimizes that surrogate over the
    rank-capped set given the previous fill, so the trace never rises.
    """
    x = np.asarray(x, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    if observed.shape != x.shape:
        raise InputError(f"mask shape {observed.shape} vs matrix {x.shape}")
    tau = params.shrinkage
    if tau is None:
        tau = _pick_shrinkage(x, observed, params)
    filled = np.where(observed, x, _masked_column_means(x, observed))
    trace = []
    for _ in range(params.iters):
        u, s, vt = np.linalg.svd(filled, full_matrices=False)
        s_shrunk = np.maximum(s - tau, 0.0)
        if params.rank is not None:
            s_shrunk[params.rank:] = 0.0
        recon = (u * s_shrunk) @ vt
        err = float(((recon - x)[observed] ** 2).sum())
        trace.append(0.5 * err + tau * float(s_shrunk.sum()))
        new_fill = np.where(observed, x, recon)
        delta = float(np.linalg.norm(new_fill - filled))
        filled = new_fill
        if delta < tol:
            break
    return filled, trace


def _pick_shrinkage(x, observed, params):
    """3-point grid over shrinkage, scored on held-out observed entries."""
    obs_idx = np.flatnonzero(observed.ravel())
    if obs_idx.size < 10:
        return 0.0
    rng = np.random.default_rng(0)
    held = rng.choice(obs_idx, size=max(1, obs_idx.size // 5), replace=False)
    trial_obs = observed.copy().ravel()
    trial_obs[held] = False
    trial_obs = trial_obs.reshape(observed.shape)
    held_mask = observed & ~trial_obs
    top = float(np.linalg.svd(np.where(trial_obs, x, 0.0), compute_uv=False)[0])
    best = (np.inf, 0.0)
    for tau in (0.0, 0.01 * top, 0.1 * top):
        trial = SvdParams(rank=params.rank, shrinkage=tau, iters=params.iters)
        completed, _ = soft_impute_matrix(x, trial_obs, trial)
        score = float(((completed - x)[held_mask] ** 2).sum())
        if score < best[0]:
            best = (score, tau)
    return best[1]


def impute_svd(data, params=None):
    """Soft-impute each view; a view's row mask expands to all its entries."""
    params = params or SvdParams()
    out = data.copy()
    for v in range(out.n_views):
        obs_rows = out.mask[:, v].astype(bool)
        if obs_rows.all():
            continue
        entry_mask = np.repeat(obs_rows[:, None], data.views[v].shape[1], axis=1)
        if params.rank is None:
            # full-rank zero-shrinkage refill would stall at the column
            # means; cap rank below the observed row count so the SVD
            # structure actually propagates into missing rows
            capped = SvdParams(
                rank=max(1, min(int(obs_rows.sum()) - 1, data.views[v].shape[1] - 1)),
                shrinkage=params.shrinkage,
                iters=params.iters,
            )
        else:
            capped = params
        out.views[v], _ = soft_impute_matrix(data.views[v], entry_mask, capped)
        out.views[v][obs_rows] = data.views[v][obs_rows]
    out.mask[:] = 1
    return out


def impute_baseline(data, kind, svd_params=None):
    """Fill every masked slot by the named strategy; observed slots unchanged."""
    if kind == GLOBAL_MEAN:
        return impute_global_mean(data)
    if kind == CLASS_MEAN:
        return impute_class_mean(data)
    if kind == SVD:
        return impute_svd(data, svd_params)
    raise ConfigurationError(f"unknown imputer {kind!r}")


def concat_classify(train_data, test_data, rule="nearest_centroid", k=1):
    """Fit a simple rule on concatenated views; both datasets must be complete."""
    for name, d in (("train", train_data), ("test", test_data)):
        if not (d.mask == 1).all():
            raise InputError(f"{name} data still has masked slots; impute first")
    if train_data.labels is None or test_data.labels is None:
        raise InputError("classification needs labels on both splits")
    x_train = np.hstack(train_data.views)
    x_test = np.hstack(test_data.views)
    y_train = train_data.labels
    if rule == "nearest_centroid":
        centroids = np.stack(
            [x_train[y_train == c].mean(axis=0) for c in range(train_data.n_classes)]
        )
        d2 = squared_distances(x_test, centroids)
        preds = d2.argmin(axis=1)
    elif rule == "knn":
        if k > x_train.shape[0]:
            raise ConfigurationError(f"k={k} exceeds train size {x_train.shape[0]}")
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        d2 = squared_distances(x_test, x_train)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = y_train[nearest]
        preds = np.empty(x_test.shape[0], dtype=np.int64)
        for i in range(x_test.shape[0]):
            counts = np.bincount(votes[i], minlength=train_data.n_classes)
            preds[i] = counts.argmax()  # ties go to the smaller class id
    else:
        raise ConfigurationError(f"unknown rule {rule!r}")
    return classification_report(preds, test_data.labels)
