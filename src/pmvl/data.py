"""Multi-view datasets with availability masks.

A dataset is V per-view feature matrices sharing N rows, an N x V binary
mask (1 = the sample has that view), optional labels, and view names.
Every dataset is built by the checked constructor, and `filled` is the one
completion step.
Labels are nonnegative integers and n_classes is their max + 1, so a subset
may lack classes: training needs every class it counts, and evaluation needs
labels below the model's class count. Views are float64 and finite: a NaN or
inf anywhere, under a mask zero too, raises an InputError naming the view,
row and column. Entries under mask zeros are stored as zeros (`load_csv_views`
writes them, so a CSV may hold NaN for "missing" there); no loss or gradient
in this package ever reads them.

The missing-pattern generator removes a targeted fraction of (sample, view)
slots uniformly at random while guaranteeing every sample keeps at least
one view. The measured rate is (number of mask zeros) / (V * N).
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, IngestionError, InputError, SplitError, check_fields,
                     check_number, read_json_object)
from .nets import sigmoid


@dataclass
class MultiViewDataset:
    views: list
    mask: np.ndarray
    labels: np.ndarray | None = None
    view_names: list | None = None

    def __post_init__(self):
        if not self.views:
            raise InputError("dataset needs at least one view")
        views = []
        for i, v in enumerate(self.views):
            try:
                views.append(np.asarray(v, dtype=np.float64))  # no copy of a float64 array
            except (TypeError, ValueError) as exc:
                raise InputError(f"view {i} is not an array of numbers ({exc})") from None
        self.views = views
        n = views[0].shape[0] if views[0].ndim else 0
        for i, v in enumerate(views):
            if v.ndim != 2 or v.shape[0] != n:
                raise InputError(f"view {i} has shape {v.shape}, expected ({n}, D)")
            # a masked slot is multiplied by zero, which leaves NaN and inf as they are
            bad = ~np.isfinite(v)
            if bad.any():
                row, col = np.argwhere(bad)[0]
                raise InputError(f"view {i} row {row} column {col} holds {v[row, col]}; "
                                 "views hold finite numbers, 0 under a masked slot")
        if n == 0:
            raise InputError("dataset has no rows")
        self.mask = np.asarray(self.mask)
        if self.mask.shape != (n, len(self.views)):
            raise InputError(f"mask shape {self.mask.shape} vs ({n}, {len(self.views)})")
        if not np.isin(self.mask, (0, 1)).all():
            raise InputError("mask entries must be 0 or 1")
        self.mask = self.mask.astype(np.uint8)
        if (self.mask.sum(axis=1) == 0).any():
            bad = int(np.argmin(self.mask.sum(axis=1)))
            raise InputError(f"sample {bad} has no available view")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (n,):
                raise InputError(f"labels shape {labels.shape}, expected ({n},)")
            if labels.dtype.kind == "f":
                bad = np.flatnonzero(~np.isfinite(labels) | (labels != np.trunc(labels)))
                if bad.size:
                    raise InputError(
                        f"labels must be integers; row {bad[0]} holds {labels[bad[0]]}")
            self.labels = labels.astype(np.int64)
            if self.labels.min() < 0:
                raise InputError("labels must be nonnegative")
        if self.view_names is None:
            self.view_names = [f"view_{i}" for i in range(len(self.views))]

    @property
    def n_samples(self):
        return self.views[0].shape[0]

    @property
    def n_views(self):
        return len(self.views)

    @property
    def n_classes(self):
        return 0 if self.labels is None else int(self.labels.max()) + 1

    @property
    def view_dims(self):
        return [v.shape[1] for v in self.views]

    def filled(self, fills):
        """A new dataset with fills[v] under view v's masked slots and an all-ones mask.

        fills[v] is one row per masked row in row order, one row for all, or None if none is.
        """
        views = [x.copy() for x in self.views]
        for v, fill in enumerate(fills):
            if fill is not None:
                views[v][self.mask[:, v] == 0] = fill
        return MultiViewDataset(views, np.ones_like(self.mask), self.labels, list(self.view_names))

    def take(self, idx):
        """Row subset, in the given order."""
        return MultiViewDataset(
            [v[idx] for v in self.views],
            self.mask[idx],
            None if self.labels is None else self.labels[idx],
            list(self.view_names),
        )


@dataclass
class MissingSpec:
    """Target fraction of absent (sample, view) slots plus a seed."""

    target_rate: float
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.target_rate >= 1.0:
            raise ConfigurationError(f"target_rate {self.target_rate} outside [0, 1)")


def measured_rate(data):
    """Fraction of mask zeros: sum of per-view missing counts over V*N."""
    return float((data.mask == 0).sum()) / (data.n_views * data.n_samples)


def apply_missing_pattern(data, spec):
    """Remove round(rate * V * N) view slots uniformly, keeping rows nonempty.

    The input must be complete (all-ones mask). Slots are drawn by walking a
    random permutation of all (sample, view) pairs and dropping each visited
    slot unless that would empty its row, until the target count is reached.
    Entries of newly masked slots are zeroed in the new dataset.
    """
    n, v = data.n_samples, data.n_views
    if not (data.mask == 1).all():
        raise InputError("missing pattern applies to complete data (all-ones mask)")
    total = int(np.rint(spec.target_rate * n * v))
    if total > n * (v - 1):
        raise ConfigurationError(
            f"rate {spec.target_rate} infeasible with {v} views: every sample keeps one view"
        )
    rng = np.random.default_rng(spec.seed)
    slots = rng.permutation(n * v)
    mask = np.ones((n, v), dtype=np.uint8)
    kept = np.full(n, v)
    removed = 0
    for slot in slots:
        if removed == total:
            break
        row, col = divmod(int(slot), v)
        if kept[row] <= 1:
            continue
        kept[row] -= 1
        mask[row, col] = 0
        removed += 1
    views = [np.where(mask[:, [c]] == 1, x, 0.0) for c, x in enumerate(data.views)]
    return MultiViewDataset(views, mask, data.labels, list(data.view_names))


def _read_csv(path, kind=float):
    """Parse a rectangular CSV of `kind` (int or float) cells; errors carry file and line."""
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"{path}: file not found")
    rows = []
    width = None
    try:
        with open(path, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise IngestionError(
                        f"{path}:{lineno}: ragged row ({len(row)} cells, expected {width})"
                    )
                try:
                    rows.append([kind(c) for c in row])
                except ValueError:
                    raise IngestionError(f"{path}:{lineno}: non-numeric cell") from None
    except (UnicodeDecodeError, csv.Error) as exc:  # bytes that are not CSV text
        raise IngestionError(f"{path}: not readable as CSV text ({exc})") from None
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    dtype = np.int64 if kind is int else np.float64
    return np.asarray(rows, dtype=dtype)


def load_csv_views(paths, label_path=None, mask_path=None, view_names=None):
    """Assemble a dataset from one CSV per view plus optional labels/mask files."""
    views = [_read_csv(p) for p in paths]
    n = views[0].shape[0]
    for p, v in zip(paths, views):
        if v.shape[0] != n:
            raise IngestionError(f"{p}: {v.shape[0]} rows, expected {n} (row-count mismatch)")
    if mask_path is not None:
        mask = _read_csv(mask_path, int)
        if mask.shape != (n, len(views)):
            raise IngestionError(f"{mask_path}: mask shape {mask.shape}, expected ({n}, {len(views)})")
        if not np.isin(mask, (0, 1)).all():
            raise IngestionError(f"{mask_path}: mask cells must be 0 or 1")
        empty = np.flatnonzero(mask.sum(axis=1) == 0)
        if empty.size:
            raise IngestionError(f"{mask_path}: row {empty[0] + 1} leaves no view available")
    else:
        mask = np.ones((n, len(views)), dtype=np.uint8)
    for v, (p, x) in enumerate(zip(paths, views)):
        hidden = mask[:, v] == 0
        x[hidden] = 0.0  # whatever stood under a hidden slot, NaN included, is never read
        bad = np.flatnonzero(~hidden & ~np.isfinite(x).all(axis=1))
        if bad.size:
            raise IngestionError(f"{p}: row {bad[0] + 1} has a non-finite cell in an observed slot")
    labels = None
    if label_path is not None:
        labels = _read_csv(label_path, int).reshape(-1)
        if labels.shape[0] != n:
            raise IngestionError(f"{label_path}: {labels.shape[0]} labels for {n} rows")
    return MultiViewDataset(views, mask, labels, view_names)


def save_dataset(data, out_dir, name="dataset"):
    """Write a manifest JSON plus per-view/mask/label CSVs; returns the manifest path.

    Floats are written with 17 significant digits so a reload is bit-exact.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    view_files = []
    for i, view in enumerate(data.views):
        fname = f"{name}_view{i}.csv"
        np.savetxt(out_dir / fname, view, fmt="%.17g", delimiter=",")
        view_files.append(fname)
    mask_file = f"{name}_mask.csv"
    np.savetxt(out_dir / mask_file, data.mask, fmt="%d", delimiter=",")
    label_file = None
    if data.labels is not None:
        label_file = f"{name}_labels.csv"
        np.savetxt(out_dir / label_file, data.labels[:, None], fmt="%d", delimiter=",")
    manifest = {
        "views": view_files,
        "view_names": list(data.view_names),
        "mask": mask_file,
        "labels": label_file,
    }
    manifest_path = out_dir / f"{name}.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return manifest_path


def _strings(value):
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def load_dataset(manifest_path):
    manifest_path = Path(manifest_path)
    m = read_json_object(manifest_path, IngestionError)
    if not _strings(m.get("views")) or not m["views"]:
        raise IngestionError(f"{manifest_path}: 'views' must be a non-empty list of file names")
    for key in ("mask", "labels"):
        if not isinstance(m.get(key), (str, type(None))):
            raise IngestionError(f"{manifest_path}: '{key}' must be null or a file name")
    names = m.get("view_names")
    if names is not None and not (_strings(names) and len(names) == len(m["views"])):
        raise IngestionError(f"{manifest_path}: 'view_names' must be null or one string per view")
    base = manifest_path.parent
    return load_csv_views(
        [base / f for f in m["views"]],
        label_path=None if m.get("labels") is None else base / m["labels"],
        mask_path=None if m.get("mask") is None else base / m["mask"],
        view_names=m.get("view_names"),
    )


def synth_dataset(
    n,
    classes,
    latent_dim,
    view_dims,
    seed=0,
    noise_scale=0.01,
    center_scale=4.0,
    nuisance_scale=0.0,
):
    """Class-conditional synthetic multi-view data, complete mask, labels included.

    Latents are unit-variance Gaussian clusters around `classes` centers of
    norm `center_scale`; view v is sigmoid(z A_v^T + b_v) plus small noise
    with fixed random projections. nuisance_scale > 0 adds a shared
    class-independent variance component along one random direction, which
    makes plain Euclidean classifiers struggle while leaving the class
    structure intact. Balanced labels, deterministic per seed. The sizes are
    integers >= 1 with classes <= n and at least one view, seed an integer
    >= 0 and the scales finite numbers >= 0.
    """
    for name, size in (("n", n), ("classes", classes), ("latent_dim", latent_dim),
                       *((f"view_dims[{v}]", d) for v, d in enumerate(view_dims))):
        check_number(name, size, numbers.Integral, positive=True)
    if len(view_dims) == 0:
        raise ConfigurationError("view_dims must list at least one view width, got none")
    check_number("seed", seed, numbers.Integral)
    for name, scale in (("noise_scale", noise_scale), ("center_scale", center_scale),
                        ("nuisance_scale", nuisance_scale)):
        check_number(name, scale, numbers.Real)
    if classes > n:
        raise ConfigurationError(f"classes must be <= n, got classes={classes}, n={n}")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(classes, latent_dim))
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers = centers / norms * center_scale
    labels = rng.permutation(np.arange(n) % classes)
    z = centers[labels] + rng.normal(size=(n, latent_dim))
    if nuisance_scale > 0:
        direction = rng.normal(size=latent_dim)
        direction /= np.linalg.norm(direction)
        z += np.outer(rng.normal(scale=nuisance_scale, size=n), direction)
    views = []
    for d in view_dims:
        a = rng.normal(size=(d, latent_dim)) / np.sqrt(latent_dim)
        b = rng.normal(size=d) * 0.1
        x = sigmoid(z @ a.T + b) + noise_scale * rng.normal(size=(n, d))
        views.append(x)
    mask = np.ones((n, len(view_dims)), dtype=np.uint8)
    return MultiViewDataset(views, mask, labels)


def check_train_fraction(train_fraction):
    check_number("train_fraction", train_fraction, numbers.Real, positive=True)
    if train_fraction >= 1.0:
        raise ConfigurationError(f"train_fraction {train_fraction} outside (0, 1)")


def split(data, train_fraction, seed=0):
    """Shuffle split into (train, test); stratified by label when labels exist.

    train_fraction lies in (0, 1) and seed is an integer >= 0."""
    check_train_fraction(train_fraction)
    check_number("seed", seed, numbers.Integral)
    rng = np.random.default_rng(seed)
    n = data.n_samples
    if data.labels is None:
        order = rng.permutation(n)
        cut = int(np.floor(train_fraction * n + 0.5))
        cut = min(max(cut, 1), n - 1)
        train_idx, test_idx = order[:cut], order[cut:]
    else:
        train_parts, test_parts = [], []
        for c in np.unique(data.labels):
            members = np.flatnonzero(data.labels == c)
            if members.size < 2:
                raise SplitError(f"class {c} has {members.size} sample(s); need at least 2")
            members = rng.permutation(members)
            cut = int(np.floor(train_fraction * members.size + 0.5))
            cut = min(max(cut, 1), members.size - 1)
            train_parts.append(members[:cut])
            test_parts.append(members[cut:])
        train_idx = rng.permutation(np.concatenate(train_parts))
        test_idx = rng.permutation(np.concatenate(test_parts))
    return data.take(train_idx), data.take(test_idx)
