"""The benchmark's four workloads, each a closed loop of identical ops.

Every workload builds its inputs from the run seed in `setup`, runs one
op per call of `op(i)` and judges that op's outputs in `check`, which
returns whether they are correct plus the op's accuracy and NRMSE.
Checks are not part of an op's time. Workloads reach pmvl only through
attribute lookups on the package (`pmvl.train`, `pmvl.cli.main`, ...), so
a tracer that rewrites those attributes sees every call.

`small=True` shrinks every size so the benchmark's own tests run in
seconds; the benchmark itself always runs the full sizes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics

import numpy as np

import pmvl
import pmvl.cli
import pmvl.nets

POOL = 16  # distinct op inputs per run; op i uses input i % POOL
VIEW_DIMS = [20, 16, 12]
SWEEP_METHODS = ("sup", "unsup-nogan", "svd-fill", "mean-knn")
# Criteria 03 and 06 order the model against its mean-fill baseline by
# means over ten seeds; single splits do not keep that order (the baseline
# won 3 of ~70 splits probed, by at most one test row for accuracy and 7%
# for NRMSE). Per op the model may trail by these margins; a broken
# trainer falls far outside them.
ACCURACY_SLACK = 0.1  # 9 of a 90-row test split
NRMSE_SLACK = 1.2


def op_seed(seed, j):
    return seed * 1000 + j


def observed_bit_equal(filled, masked):
    """Observed rows of every view are unchanged, bit for bit."""
    for v in range(masked.n_views):
        rows = masked.mask[:, v] == 1
        if filled.views[v][rows].tobytes() != masked.views[v][rows].tobytes():
            return False
    return True


class Workload:
    """Default: an op is one pipeline run."""

    cells_per_op = 1


def mean_fill_nrmse(masked, truth):
    filled = pmvl.impute_baseline(masked, pmvl.GLOBAL_MEAN)
    return pmvl.nrmse(filled.views, truth.views, masked.mask == 0).overall


class SupDesk(Workload):
    """Desk-scale supervised pipeline: train (200 epochs) -> retune -> evaluate."""

    name = "sup-desk"

    def __init__(self, seed, workdir, small=False):
        self.seed = seed
        self.n, self.epochs, self.infer_iters, self.pool = (
            (120, 100, 100, 2) if small else (300, 200, 300, POOL))

    def setup(self):
        self.inputs = []
        for j in range(self.pool):
            s = op_seed(self.seed, j)
            data = pmvl.synth_dataset(self.n, 3, 8, VIEW_DIMS, seed=s, noise_scale=0.05,
                                      nuisance_scale=3.5)
            masked = pmvl.apply_missing_pattern(data, pmvl.MissingSpec(0.5, seed=s))
            train_d, test_d = pmvl.split(masked, 0.7, seed=s)
            self.inputs.append((s, data, masked, train_d, test_d))

    def op(self, i):
        s, _, _, train_d, test_d = self.inputs[i % self.pool]
        # criterion-03 settings; a tiny tol keeps early stop from shortening the op
        cfg = pmvl.TrainConfig(latent_dim=32, lam=10.0, lr_nets=0.05, lr_latent=0.02,
                               epochs=self.epochs, infer_iters=self.infer_iters,
                               infer_lr=0.05, tol=1e-300, seed=s)
        model = pmvl.retune(pmvl.train(train_d, cfg), train_d)
        return model, pmvl.evaluate(model, test_d)

    def check(self, i, out):
        model, report = out
        s, data, masked, train_d, _ = self.inputs[i % self.pool]
        filled = pmvl.impute_baseline(masked, pmvl.GLOBAL_MEAN)
        base_train, base_test = pmvl.split(filled, 0.7, seed=s)
        base = pmvl.concat_classify(base_train, base_test, rule="nearest_centroid").accuracy
        # the re-tuned decoders' fill of the masked training slots
        truth_train, _ = pmvl.split(data, 0.7, seed=s)
        fills = [pmvl.nets.forward(net, model.latent.H) for net in model.retuned_nets]
        err = pmvl.nrmse(fills, truth_train.views, train_d.mask == 0).overall
        ok = report.accuracy >= base - ACCURACY_SLACK and math.isfinite(err)
        return ok, {"accuracy": report.accuracy, "nrmse": err}


class GanImpute(Workload):
    """Criterion-06 adversarial imputation: train_unsupervised -> impute."""

    name = "gan-impute"

    def __init__(self, seed, workdir, small=False):
        self.seed = seed
        self.n, self.epochs, self.pool = (90, 80, 2) if small else (200, 100, POOL)

    def setup(self):
        self.inputs = []
        for j in range(self.pool):
            s = op_seed(self.seed, j)
            truth = pmvl.synth_dataset(self.n, 3, 8, VIEW_DIMS, seed=s, noise_scale=0.05)
            masked = pmvl.apply_missing_pattern(truth, pmvl.MissingSpec(0.5, seed=s))
            self.inputs.append((s, truth, masked))

    def op(self, i):
        s, truth, masked = self.inputs[i % self.pool]
        cfg = pmvl.GanConfig(latent_dim=16, lr=0.05, epochs=self.epochs, adv_weight=0.1,
                             d_steps=8, hidden_dims=(64,), seed=s)
        model = pmvl.train_unsupervised(masked, cfg)
        return model, pmvl.impute(model, masked, truth=truth)

    def check(self, i, out):
        model, result = out
        s, truth, masked = self.inputs[i % self.pool]
        err = result.overall_nrmse
        ok = (err is not None and err <= NRMSE_SLACK * mean_fill_nrmse(masked, truth)
              and observed_bit_equal(result.completed, masked))
        clusters = pmvl.evaluate_clustering(model.latent.H, truth.labels, seed=s)
        return ok, {"accuracy": clusters.acc, "nrmse": err}


class SvdImpute(Workload):
    """Wide CSV dataset: mask -> soft-impute SVD -> NRMSE, knn, clustering."""

    name = "svd-impute"

    def __init__(self, seed, workdir, small=False):
        self.seed = seed
        self.workdir = workdir
        self.n, self.dims = (60, [12, 10, 8]) if small else (400, [100, 80, 60])

    def setup(self):
        data = pmvl.synth_dataset(self.n, 5, 10, self.dims, seed=self.seed, noise_scale=0.05)
        manifest = pmvl.save_dataset(data, os.path.join(self.workdir, "svd-data"))
        self.data = pmvl.load_dataset(manifest)

    def op(self, i):
        s = op_seed(self.seed, i)
        masked = pmvl.apply_missing_pattern(self.data, pmvl.MissingSpec(0.5, seed=s))
        filled = pmvl.impute_baseline(masked, pmvl.SVD)
        err = pmvl.nrmse(filled.views, self.data.views, masked.mask == 0)
        train_d, test_d = pmvl.split(filled, 0.7, seed=s)
        knn = pmvl.concat_classify(train_d, test_d, rule="knn", k=5)
        clusters = pmvl.evaluate_clustering(np.hstack(filled.views), filled.labels, seed=s)
        return masked, filled, err, knn, clusters

    def check(self, i, out):
        # pmvl promises no NRMSE ordering against mean fill here: a view row
        # that is hidden whole leaves the per-view SVD nothing to anchor on
        masked, filled, err, knn, clusters = out
        ok = ((filled.mask == 1).all() and all(np.isfinite(v).all() for v in filled.views)
              and observed_bit_equal(filled, masked) and err.overall is not None
              and math.isfinite(err.overall) and math.isfinite(clusters.acc))
        return ok, {"accuracy": knn.accuracy, "nrmse": err.overall}


class Sweep(Workload):
    """`pmvl sweep` over a 300-row CSV dataset: 4 methods x 2 rates, 50 epochs."""

    name = "sweep"
    cells_per_op = 8

    def __init__(self, seed, workdir, small=False):
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.threads = 2
        self.reference = None

    def setup(self):
        n = 60 if self.small else 300
        data = pmvl.synth_dataset(n, 3, 8, VIEW_DIMS, seed=self.seed, noise_scale=0.05,
                                  nuisance_scale=3.5)
        self.manifest = pmvl.save_dataset(data, os.path.join(self.workdir, "sweep-data"))

    def argv(self, out):
        return ["sweep", "--data", str(self.manifest), "--rates", "0.3,0.5",
                "--methods", ",".join(SWEEP_METHODS), "--repeats", "1",
                "--epochs", "5" if self.small else "50",
                "--seed", str(op_seed(self.seed, 0)), "--out", out]

    def op(self, i):
        out = os.path.join(self.workdir, f"sweep-{i}")
        previous = os.environ.get("PMVL_THREADS")
        os.environ["PMVL_THREADS"] = str(self.threads)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = pmvl.cli.main(self.argv(out))
        finally:
            if previous is None:
                del os.environ["PMVL_THREADS"]
            else:
                os.environ["PMVL_THREADS"] = previous
        return code, out

    def check(self, i, out):
        code, out_dir = out
        with open(os.path.join(out_dir, "sweep.csv"), "rb") as fh:
            raw = fh.read()
        with open(os.path.join(out_dir, "failures.csv")) as fh:
            failures = list(csv.reader(fh))[1:]
        rows = list(csv.reader(io.StringIO(raw.decode())))[1:]
        if self.reference is None:
            self.reference = raw
        # per cell: one accuracy row, except unsup-nogan's nrmse, acc and nmi
        expected = 2 * (len(SWEEP_METHODS) + 2)
        values = [float(r[4]) for r in rows]
        ok = (code == 0 and not failures and len(rows) == expected
              and all(math.isfinite(v) for v in values) and raw == self.reference)
        accuracy = [float(r[4]) for r in rows if r[0] == "sup" and r[3] == "accuracy"]
        errors = [float(r[4]) for r in rows if r[0] == "unsup-nogan" and r[3] == "nrmse"]
        quality = {"accuracy": statistics.fmean(accuracy) if accuracy else math.nan,
                   "nrmse": statistics.fmean(errors) if errors else math.nan}
        return ok, quality


WORKLOADS = {w.name: w for w in (SupDesk, GanImpute, SvdImpute, Sweep)}

