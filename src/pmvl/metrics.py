"""Evaluation metrics: classification reports, clustering quality, imputation error.

Clustering quality follows the usual protocol for learned representations:
run k-means, then score the partition against ground-truth labels with
accuracy under the best one-to-one cluster/class matching (solved exactly,
in integers, by the Hungarian method on the contingency table) and
normalized mutual information (geometric-mean normalization, natural log).

Imputation error is a per-view normalized RMSE: root mean squared error
over the evaluated slots divided by the spread (max - min) of the true
values on those slots, averaged across views that have anything to score.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, TrainingError, check_number


@dataclass
class ClassificationReport:
    accuracy: float
    per_class: np.ndarray
    confusion: np.ndarray  # confusion[i, j] = count of true class i predicted j
    n: int

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "per_class": [float(a) for a in self.per_class],
            "confusion": self.confusion.tolist(),
            "n": self.n,
        }


def classification_report(predictions, labels):
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise InputError("predictions and labels must be equal-length vectors")
    c = int(max(labels.max(), predictions.max())) + 1
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)
    totals = confusion.sum(axis=1)
    per_class = np.divide(
        np.diag(confusion), totals, out=np.zeros(c, dtype=np.float64), where=totals > 0
    )
    return ClassificationReport(
        accuracy=float((predictions == labels).mean()),
        per_class=per_class,
        confusion=confusion,
        n=labels.shape[0],
    )


@dataclass
class ClusteringReport:
    assignments: np.ndarray
    inertia: float
    acc: float | None = None
    nmi: float | None = None


def squared_distances(points, centers):
    """(n_points, n_centers) squared distances, one centre at a time: each entry sums
    its D terms as ((points[:, None] - centers[None]) ** 2).sum(axis=2) does, byte
    for byte, without that broadcast's n_points x n_centers x D temporary."""
    return np.stack([((points - c) ** 2).sum(axis=1) for c in centers], axis=1)


def class_centroids(h, labels, n_classes):
    centroids = np.empty((n_classes, h.shape[1]))
    for c in range(n_classes):
        members = labels == c
        if not members.any():
            raise TrainingError(f"class {c} has no samples to form a centroid")
        centroids[c] = h[members].mean(axis=0)
    return centroids


def _plus_plus_seeds(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = squared_distances(points, centers[:1])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = points[rng.integers(n)]
            continue
        centers[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, squared_distances(points, centers[i:i + 1])[:, 0])
    return centers


def _lloyd(points, centers):
    assign = None
    for _ in range(300):
        d2 = squared_distances(points, centers)
        new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break  # the centres did not move since d2 was computed
        assign = new_assign
        for c in range(len(centers)):
            members = assign == c
            if members.any():
                centers[c] = points[members].mean(axis=0)
            else:
                # re-seed a starved centroid from the point farthest from its own
                far = int(d2[np.arange(len(assign)), assign].argmax())
                centers[c] = points[far]
    else:  # the cap ended the loop: score the centres the last step moved
        d2 = squared_distances(points, centers)
        new_assign = d2.argmin(axis=1)
    return new_assign, float(d2[np.arange(points.shape[0]), new_assign].sum())


def kmeans(points, k, seed=0):
    """Best of 10 Lloyd runs, each from its own k-means++ seeding."""
    points = np.asarray(points, dtype=np.float64)
    check_number("k", k, numbers.Integral, positive=True)
    check_number("seed", seed, numbers.Integral)
    if points.ndim != 2 or k > points.shape[0]:
        raise InputError(f"need a 2-D matrix with at least k={k} rows")
    if not np.isfinite(points).all():
        raise InputError("points must be finite (no NaN or inf)")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(10):
        centers = _plus_plus_seeds(points, k, rng)
        assign, inertia = _lloyd(points, centers)
        if best is None or inertia < best[1]:
            best = (assign, inertia)
    return ClusteringReport(assignments=best[0], inertia=best[1])


def _contingency(a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError("partitions must be equal-length vectors")
    if a.size == 0:
        raise InputError("partitions must not be empty")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def max_matching_total(table):
    """Largest sum of non-negative integer `table` entries with at most one taken per
    row and per column. Kuhn-Munkres with row/column potentials on the zero-padded
    square table, minimising -table, O(k^3); all in int64, so the total is exact."""
    n = max(table.shape)
    cost = np.zeros((n + 1, n + 1), dtype=np.int64)  # row and column 0 are sentinels
    cost[1:table.shape[0] + 1, 1:table.shape[1] + 1] = -table
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(n + 1, dtype=np.int64)
    row_of = np.zeros(n + 1, dtype=np.int64)  # row matched to each column, 0 = none
    for i in range(1, n + 1):
        # grow a tree of tight edges from row i until it reaches a free column
        row_of[0] = i
        j0 = 0
        slack = np.full(n + 1, np.iinfo(np.int64).max)
        via = np.zeros(n + 1, dtype=np.int64)  # column preceding each one on its path
        used = np.zeros(n + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            free = ~used
            i0 = row_of[j0]
            reduced = cost[i0] - u[i0] - v
            better = free & (reduced < slack)
            slack[better] = reduced[better]
            via[better] = j0
            j1 = int(np.flatnonzero(free)[slack[free].argmin()])
            delta = slack[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[free] -= delta
            j0 = j1
        while j0:  # flip the augmenting path
            row_of[j0] = row_of[via[j0]]
            j0 = via[j0]
    return -int(cost[row_of[1:], np.arange(1, n + 1)].sum())


def clustering_acc(assignments, labels):
    """Accuracy under the best one-to-one cluster-to-class matching."""
    table = _contingency(assignments, labels)
    return float(max_matching_total(table)) / table.sum()


def nmi(assignments, labels):
    """Mutual information over the geometric mean of the two entropies.

    Conventions: identical-up-to-relabeling partitions score 1 (including
    the degenerate case where both are single-cluster); if exactly one
    side is a single cluster the score is 0.
    """
    table = _contingency(assignments, labels).astype(np.float64)
    n = table.sum()
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    ha = float(-(pa * np.log(pa)).sum())
    hb = float(-(pb * np.log(pb)).sum())
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    # a permutation-matrix contingency is the same partition relabeled
    if (table.shape[0] == table.shape[1]
            and ((table > 0).sum(axis=0) == 1).all()
            and ((table > 0).sum(axis=1) == 1).all()):
        return 1.0
    p = table / n
    nz = p > 0
    info = float((p[nz] * np.log(p[nz] / np.outer(pa, pb)[nz])).sum())
    return float(np.clip(info / np.sqrt(ha * hb), 0.0, 1.0))


def evaluate_clustering(points, labels, seed=0):
    """k-means with one cluster per class present, plus ACC and NMI against the labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise InputError("labels must not be empty")
    report = kmeans(points, np.unique(labels).size, seed=seed)
    report.acc = clustering_acc(report.assignments, labels)
    report.nmi = nmi(report.assignments, labels)
    return report


@dataclass
class NrmseReport:
    """Per-view normalized RMSE over the evaluated slots.

    per_view holds one entry per view, None where the view had no slot to
    score; overall is the mean over the scored views (None when no view
    was scored). degenerate_views flags views whose true values had zero
    spread, where the range floor makes the number scale-dependent.
    """

    per_view: list
    overall: float | None
    degenerate_views: list = field(default_factory=list)

    def to_dict(self):
        return {
            "per_view": self.per_view,
            "overall": self.overall,
            "degenerate_views": self.degenerate_views,
        }


def nrmse(filled_views, truth_views, eval_mask):
    """Imputation error on the slots flagged by eval_mask (1 = score this slot).

    eval_mask is N x V over (sample, view) slots; a flagged slot scores the
    whole feature row of that view. RMSE per view is taken over all scored
    entries and divided by max - min of the truth on those entries.
    """
    eval_mask = np.asarray(eval_mask)
    if len(filled_views) != len(truth_views) or eval_mask.shape[1] != len(filled_views):
        raise InputError("views and eval_mask disagree on view count")
    per_view = []
    degenerate = []
    scored = []
    for v, (filled, truth) in enumerate(zip(filled_views, truth_views)):
        if filled.shape != truth.shape:
            raise InputError(f"view {v}: filled {filled.shape} vs truth {truth.shape}")
        rows = eval_mask[:, v].astype(bool)
        if not rows.any():
            per_view.append(None)
            continue
        diff = filled[rows] - truth[rows]
        rmse = float(np.sqrt((diff ** 2).mean()))
        spread = float(truth[rows].max() - truth[rows].min())
        if spread < 1e-12:
            spread = 1e-12
            degenerate.append(v)
        value = rmse / spread
        per_view.append(value)
        scored.append(value)
    overall = float(np.mean(scored)) if scored else None
    return NrmseReport(per_view=per_view, overall=overall, degenerate_views=degenerate)
