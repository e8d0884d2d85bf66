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

from . import _blas
from ._stripes import map_striped
from .errors import ConfigurationError, InputError, check_fields, check_number
from .metrics import class_centroids, classification_report, squared_distances

GLOBAL_MEAN = "global_mean"
CLASS_MEAN = "class_mean"
SVD = "svd"

# At least two views this wide are fitted in forked stripes (see impute_svd).
WIDE_VIEW_COLUMNS = 32


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
        check_fields(self, positive=("rank", "iters"))


def _column_means(x, observed):
    """Mean of each column over observed rows; zero where nothing observed."""
    if not observed.any():
        return np.zeros(x.shape[1])
    return x[observed].mean(axis=0)


def impute_global_mean(data):
    return data.filled([_column_means(x, data.mask[:, v] == 1) for v, x in enumerate(data.views)])


def impute_class_mean(data):
    if data.labels is None:
        raise InputError("class-mean imputation needs labels")
    fills, fallbacks = [], 0
    for v, x in enumerate(data.views):
        obs = data.mask[:, v] == 1
        rows = np.empty((int((~obs).sum()), x.shape[1]))
        gone = data.labels[~obs]
        for c in np.unique(gone):
            seen = obs & (data.labels == c)
            fallbacks += not seen.any()
            rows[gone == c] = _column_means(x, seen if seen.any() else obs)
        fills.append(rows)
    if fallbacks:
        warnings.warn(
            f"class-mean imputation fell back to the global mean for {fallbacks} "
            "class/view cells with no observation",
            stacklevel=2,
        )
    return data.filled(fills)


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
    bad = observed & ~np.isfinite(x)
    if bad.any():
        # an inf would reach LAPACK's SVD, which then never returns
        row, col = np.argwhere(bad)[0]
        raise InputError(f"observed entry ({row}, {col}) is {x[row, col]}; "
                         "soft-impute needs finite observed values")
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
        u *= s_shrunk
        recon = u @ vt
        resid = (recon - x)[observed]
        resid *= resid
        trace.append(0.5 * float(resid.sum()) + tau * float(s_shrunk.sum()))
        np.copyto(recon, x, where=observed)
        np.subtract(recon, filled, out=filled)
        delta = float(np.linalg.norm(filled))
        filled = recon
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


def _fit_view(x, obs_rows, params):
    """Soft-impute one view whose rows are observed or missing whole; returns the missing rows."""
    entry_mask = np.repeat(obs_rows[:, None], x.shape[1], axis=1)
    if params.rank is None:
        # full-rank zero-shrinkage refill would stall at the column
        # means; cap rank below the observed row count so the SVD
        # structure actually propagates into missing rows
        params = SvdParams(
            rank=max(1, min(int(obs_rows.sum()) - 1, x.shape[1] - 1)),
            shrinkage=params.shrinkage,
            iters=params.iters,
        )
    filled, _ = soft_impute_matrix(x, entry_mask, params)
    return filled[~obs_rows]


def impute_svd(data, params=None):
    """Soft-impute each view; a view's row mask expands to all its entries.

    Each view with a masked row is fitted alone; `MultiViewDataset.filled`
    writes the fitted missing rows into a new dataset.

    When at least two views that need a fill are WIDE_VIEW_COLUMNS (32) or
    more columns wide, `map_striped` fits the views in groups, in view order,
    with the widest of them (the first, on a tie) alone in its group: on 2
    CPUs one process fits the widest view and a second the rest, and the
    result is byte-equal to the serial loop. Single views dealt round-robin
    balance worse: four masks of 400x[100,80,60] took 14.8-16.5 s so,
    against 11.3-12.2 s split this way.

    Otherwise all views form one group, fitted here. That holds for a BLAS
    that started with more than one thread per call (pmvl._blas.ONE_THREAD
    false, as when numpy loads before pmvl): with 2 OpenBLAS threads per
    call on 2 vCPUs, two masks of 400x[100,80,60] took 73-134 s in two
    processes against 19-20 s serial. It holds for narrower views too,
    although at 300x[12,12,12] two processes took 160-209 ms (median 185)
    against 154-265 ms (median 236) serial: views as narrow as `sweep`'s
    [20,16,12] would then fork again inside sweep's own stripe processes,
    which is unmeasured.

    On failure the error of the lowest-numbered failing view surfaces, as
    in the serial loop.
    """
    params = params or SvdParams()
    observed = data.mask.astype(bool)
    todo = [v for v in range(data.n_views) if not observed[:, v].all()]

    def fit_group(group):
        # stops at the group's first failing view, so map_striped's first
        # error in item order is the serial loop's
        return [_fit_view(data.views[v], observed[:, v], params) for v in group]

    wide = [v for v in todo if data.views[v].shape[1] >= WIDE_VIEW_COLUMNS]
    if len(wide) < 2 or not _blas.ONE_THREAD:
        groups = [todo]
    else:
        side = max(wide, key=lambda v: data.views[v].shape[1])
        groups = [g for g in ([v for v in todo if v < side], [side],
                              [v for v in todo if v > side]) if g]
    fills = [None] * data.n_views
    for group, rows in zip(groups, map_striped(fit_group, groups)):
        for v, fill in zip(group, rows):
            fills[v] = fill
    return data.filled(fills)


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
    check_number("k", k, numbers.Integral, positive=True)
    for name, d in (("train", train_data), ("test", test_data)):
        if not (d.mask == 1).all():
            raise InputError(f"{name} data still has masked slots; impute first")
    if train_data.labels is None or test_data.labels is None:
        raise InputError("classification needs labels on both splits")
    x_train = np.hstack(train_data.views)
    x_test = np.hstack(test_data.views)
    y_train = train_data.labels
    if rule == "nearest_centroid":
        centroids = class_centroids(x_train, y_train, train_data.n_classes)
        d2 = squared_distances(x_test, centroids)
        preds = d2.argmin(axis=1)
    elif rule == "knn":
        if k > x_train.shape[0]:
            raise ConfigurationError(f"k={k} exceeds train size {x_train.shape[0]}")
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
