import math
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvl import _blas, baselines
from pmvl.adversarial import GanConfig, impute, train_unsupervised
from pmvl.baselines import (
    CLASS_MEAN,
    GLOBAL_MEAN,
    SVD,
    SvdParams,
    concat_classify,
    impute_baseline,
    soft_impute_matrix,
)
from pmvl.data import MissingSpec, MultiViewDataset, apply_missing_pattern, synth_dataset
from pmvl.errors import ConfigurationError, InputError


def masked_synth(n=40, eta=0.3, seed=0):
    data = synth_dataset(n, classes=3, latent_dim=4, view_dims=[5, 4], seed=seed)
    return data, apply_missing_pattern(data, MissingSpec(eta, seed=seed))


def test_global_mean_fills_column_average():
    views = [np.array([[1.0, 10.0], [3.0, 20.0], [0.0, 0.0]])]
    mask = np.array([[1], [1], [0]])
    # a second always-present view keeps row 2 legal
    views.append(np.ones((3, 1)))
    mask = np.hstack([mask, np.ones((3, 1), dtype=int)])
    data = MultiViewDataset(views, mask)
    out = impute_baseline(data, GLOBAL_MEAN)
    assert np.allclose(out.views[0][2], [2.0, 15.0])
    assert (out.mask == 1).all()


def test_imputers_preserve_observed_bit_exact():
    truth, masked = masked_synth()
    for kind in (GLOBAL_MEAN, CLASS_MEAN, SVD):
        out = impute_baseline(masked, kind)
        for v in range(masked.n_views):
            obs = masked.mask[:, v].astype(bool)
            assert np.array_equal(out.views[v][obs], masked.views[v][obs]), kind


def test_class_mean_uses_class_statistics():
    rng = np.random.default_rng(4)
    x0 = np.vstack([rng.normal(0, 0.1, size=(10, 3)), rng.normal(5, 0.1, size=(10, 3))])
    x1 = rng.normal(size=(20, 2))
    labels = np.repeat([0, 1], 10)
    mask = np.ones((20, 2), dtype=int)
    mask[0, 0] = 0
    mask[15, 0] = 0
    views = [x0.copy(), x1]
    views[0][0] = 0
    views[0][15] = 0
    data = MultiViewDataset(views, mask, labels=labels)
    out = impute_baseline(data, CLASS_MEAN)
    assert np.allclose(out.views[0][0], x0[1:10].mean(axis=0))
    assert np.allclose(out.views[0][15], np.delete(x0[10:], 5, axis=0).mean(axis=0))


def test_class_mean_equals_global_mean_single_class():
    data = synth_dataset(20, classes=1, latent_dim=3, view_dims=[4, 3], seed=2)
    masked = apply_missing_pattern(data, MissingSpec(0.3, seed=1))
    a = impute_baseline(masked, GLOBAL_MEAN)
    b = impute_baseline(masked, CLASS_MEAN)
    for va, vb in zip(a.views, b.views):
        assert np.allclose(va, vb)


def test_class_mean_fallback_warns():
    # class 1 never observes view 0
    views = [np.arange(8.0).reshape(4, 2), np.ones((4, 1))]
    mask = np.array([[1, 1], [1, 1], [0, 1], [0, 1]])
    views[0][2:] = 0
    labels = np.array([0, 0, 1, 1])
    data = MultiViewDataset(views, mask, labels=labels)
    with pytest.warns(UserWarning, match="fell back"):
        out = impute_baseline(data, CLASS_MEAN)
    assert np.allclose(out.views[0][2], views[0][:2].mean(axis=0))


def test_class_mean_requires_labels():
    data = synth_dataset(10, classes=2, latent_dim=2, view_dims=[3, 2], seed=0)
    unlabeled = MultiViewDataset([v.copy() for v in data.views], data.mask.copy())
    with pytest.raises(InputError):
        impute_baseline(unlabeled, CLASS_MEAN)


def test_soft_impute_recovers_rank1():
    rng = np.random.default_rng(8)
    u = rng.normal(size=50)
    v = rng.normal(size=12)
    x = np.outer(u, v)
    observed = rng.random(x.shape) >= 0.2  # 20% missing entries
    completed, trace = soft_impute_matrix(
        x, observed, SvdParams(rank=1, shrinkage=0.0, iters=500), tol=1e-12
    )
    assert np.abs(completed - x).max() < 1e-3
    assert len(trace) >= 1


def test_soft_impute_objective_never_rises():
    rng = np.random.default_rng(15)
    for rank, tau in [(2, 0.0), (3, 0.5), (None, 1.0)]:
        x = rng.normal(size=(25, 8))
        observed = rng.random(x.shape) >= 0.3
        _, trace = soft_impute_matrix(
            x, observed, SvdParams(rank=rank, shrinkage=tau, iters=60), tol=0.0
        )
        diffs = np.diff(trace)
        assert (diffs <= 1e-9).all(), (rank, tau, diffs.max())


def reference_soft_impute(x, observed, tau, rank, iters, tol=1e-6):
    """The soft-impute iteration written with whole-array temporaries."""
    col_means = np.where(observed, x, 0.0).sum(axis=0) / np.maximum(observed.sum(axis=0), 1)
    filled = np.where(observed, x, col_means)
    trace = []
    for _ in range(iters):
        u, s, vt = np.linalg.svd(filled, full_matrices=False)
        s_shrunk = np.maximum(s - tau, 0.0)
        if rank is not None:
            s_shrunk[rank:] = 0.0
        recon = (u * s_shrunk) @ vt
        err = float(((recon - x)[observed] ** 2).sum())
        trace.append(0.5 * err + tau * float(s_shrunk.sum()))
        new_fill = np.where(observed, x, recon)
        delta = float(np.linalg.norm(new_fill - filled))
        filled = new_fill
        if delta < tol:
            break
    return filled, trace


@pytest.mark.parametrize("rank, tau, rows_only", [
    (None, 0.0, False), (2, 0.0, True), (3, 0.5, False), (None, 1.0, True),
])
def test_soft_impute_equals_reference_bytes(rank, tau, rows_only):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(40, 9)) @ np.diag(rng.uniform(0.2, 3.0, size=9))
    observed = rng.random(x.shape) >= 0.3
    if rows_only:
        observed = np.repeat(observed[:, :1], x.shape[1], axis=1)
    got, got_trace = soft_impute_matrix(x, observed, SvdParams(rank=rank, shrinkage=tau, iters=80))
    want, want_trace = reference_soft_impute(x, observed, tau, rank, 80)
    assert got.tobytes() == want.tobytes()
    assert np.array(got_trace).tobytes() == np.array(want_trace).tobytes()


def test_soft_impute_grid_pick_runs():
    rng = np.random.default_rng(5)
    x = np.outer(rng.normal(size=30), rng.normal(size=6)) + 0.01 * rng.normal(size=(30, 6))
    observed = rng.random(x.shape) >= 0.25
    completed, _ = soft_impute_matrix(x, observed, SvdParams(rank=2, iters=50))
    assert np.isfinite(completed).all()
    # picked shrinkage should beat leaving entries at the column mean
    col_fill = np.where(observed, x, 0)
    assert np.abs((completed - x)[~observed]).mean() < np.abs((col_fill - x)[~observed]).mean()


def test_svd_imputer_completes_and_is_deterministic():
    # a fully hidden view row gives the per-view SVD nothing to anchor on,
    # so only completion, determinism, and finiteness are promised here;
    # entry-level recovery is exercised through soft_impute_matrix above
    _, masked = masked_synth(n=50, eta=0.3, seed=7)
    a = impute_baseline(masked, SVD, svd_params=SvdParams(rank=2, shrinkage=0.0))
    b = impute_baseline(masked, SVD, svd_params=SvdParams(rank=2, shrinkage=0.0))
    assert (a.mask == 1).all()
    for va, vb in zip(a.views, b.views):
        assert np.isfinite(va).all()
        assert np.array_equal(va, vb)


def dataset_bytes(data):
    return ([x.tobytes() for x in data.views], data.mask.tobytes(), data.labels.tobytes(),
            list(data.view_names))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 30), dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       share=st.floats(0.0, 1.0), hide_class_0=st.booleans(), seed=st.integers(0, 999))
def test_every_imputer_fills_only_masked_slots(n, dims, share, hide_class_0, seed):
    # share scales the rate up to the feasible most; hide_class_0 leaves class 0
    # without a single observation of view 0, so class-mean falls back there
    data = synth_dataset(n, 3, 2, dims, seed=seed)
    rate = share * (len(dims) - 1) / len(dims)
    mask = apply_missing_pattern(data, MissingSpec(rate, seed=seed)).mask.copy()
    hide_class_0 &= len(dims) > 1
    if hide_class_0:
        mask[data.labels == 0, :2] = (0, 1)
    masked = MultiViewDataset([np.where(mask[:, [v]] == 1, x, 0.0)
                               for v, x in enumerate(data.views)], mask, data.labels)
    before = dataset_bytes(masked)
    model = train_unsupervised(masked, GanConfig(latent_dim=2, epochs=2, hidden_dims=(3,),
                                                 seed=seed))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outs = {kind: impute_baseline(masked, kind, svd_params=SvdParams(iters=5))
                for kind in (GLOBAL_MEAN, CLASS_MEAN, SVD)}
    assert any("fell back" in str(w.message) for w in caught) or not hide_class_0
    outs["adversarial"] = impute(model, masked).completed
    for kind, out in outs.items():
        assert dataset_bytes(masked) == before, kind
        assert out.mask.dtype == np.uint8 and (out.mask == 1).all(), kind
        assert np.array_equal(out.labels, masked.labels) and out.view_names == masked.view_names
        for v, (got, x) in enumerate(zip(out.views, masked.views)):
            seen = mask[:, v] == 1
            assert got[seen].tobytes() == x[seen].tobytes(), (kind, v)
            assert np.isfinite(got).all(), (kind, v)


def serial_impute_svd(data, params=None):
    """Reference: every view fitted in order in this process."""
    params = params or SvdParams()
    views = [x.copy() for x in data.views]
    for v in range(data.n_views):
        obs_rows = data.mask[:, v].astype(bool)
        if obs_rows.all():
            continue
        entry_mask = np.repeat(obs_rows[:, None], data.views[v].shape[1], axis=1)
        if params.rank is None:
            capped = SvdParams(
                rank=max(1, min(int(obs_rows.sum()) - 1, data.views[v].shape[1] - 1)),
                shrinkage=params.shrinkage,
                iters=params.iters,
            )
        else:
            capped = params
        views[v], _ = baselines.soft_impute_matrix(data.views[v], entry_mask, capped)
        views[v][obs_rows] = data.views[v][obs_rows]
    return MultiViewDataset(views, np.ones_like(data.mask), data.labels, list(data.view_names))


def recording_soft_impute(log):
    """soft_impute_matrix that appends a line per call to the file `log`.

    A forked stripe shares files with this process, not lists.
    """
    real = baselines.soft_impute_matrix

    def run(x, observed, params, tol=1e-6):
        live = threading.active_count()
        completed, trace = real(x, observed, params, tol)
        with open(log, "a") as f:
            f.write(f"{x.shape[1]} {os.getpid()} {live} {np.array(trace).tobytes().hex()}\n")
        return completed, trace

    return run


def recorded_fits(log):
    """(width, pid, live threads, trace bytes) per call that recording_soft_impute logged."""
    return [(int(w), int(pid), int(live), bytes.fromhex(trace))
            for w, pid, live, trace in (line.split(" ") for line in log.read_text().splitlines())]


def test_impute_svd_threaded_equals_serial_loop_bytes(tmp_path, monkeypatch):
    # with BLAS on one thread the two wide views split the fits on 2 CPUs: the
    # widest view (48, view 0) is the first group, fitted here, and views 1
    # and 2 the second, fitted in a forked process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    data = synth_dataset(120, classes=3, latent_dim=4, view_dims=[48, 40, 8], seed=3)
    masked = apply_missing_pattern(data, MissingSpec(0.5, seed=3))
    logs = {"threaded": tmp_path / "threaded.log", "serial": tmp_path / "serial.log"}
    with mock.patch.object(_blas, "ONE_THREAD", True), \
            mock.patch.object(baselines, "soft_impute_matrix", recording_soft_impute(logs["threaded"])):
        got = impute_baseline(masked, SVD)
    assert multiprocessing.active_children() == []
    with mock.patch.object(baselines, "soft_impute_matrix", recording_soft_impute(logs["serial"])):
        want = serial_impute_svd(masked)
    assert (got.mask == 1).all() and got.view_names == want.view_names
    assert np.array_equal(got.labels, want.labels)
    for a, b in zip(got.views, want.views):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    fits = {k: recorded_fits(log) for k, log in logs.items()}
    parent = os.getpid()
    assert {w for w, pid, _, _ in fits["threaded"] if pid != parent} == {40, 8}
    assert len({pid for _, pid, _, _ in fits["threaded"]}) == 2
    assert all(pid == parent for _, pid, _, _ in fits["serial"])
    # grid trials then the final fit, per view, in the same order either way
    for width in (48, 40, 8):
        traces = {k: [tr for w, _, _, tr in calls if w == width] for k, calls in fits.items()}
        assert len(traces["serial"]) == 4 and traces["threaded"] == traces["serial"]


@pytest.mark.parametrize("n, dims, one_blas_thread", [
    (300, [20, 16, 12], True), (120, [48, 20, 8], True), (120, [48, 40, 8], False),
])
def test_impute_svd_serial_paths_start_no_thread(n, dims, one_blas_thread, tmp_path):
    # fewer than two views WIDE_VIEW_COLUMNS wide, or a BLAS that runs more
    # threads per call, keep the loop in this process
    masked = apply_missing_pattern(
        synth_dataset(n, classes=3, latent_dim=4, view_dims=dims, seed=1), MissingSpec(0.3, seed=1))
    before = threading.active_count()
    log = tmp_path / "fits.log"
    with mock.patch.object(_blas, "ONE_THREAD", one_blas_thread), \
            mock.patch.object(baselines, "soft_impute_matrix", recording_soft_impute(log)):
        impute_baseline(masked, SVD, svd_params=SvdParams(iters=5))
    calls = recorded_fits(log)
    assert len(calls) == 12
    assert all(pid == os.getpid() and live == before for _, pid, live, _ in calls)
    assert threading.active_count() == before and multiprocessing.active_children() == []


@pytest.mark.parametrize("preset, numpy_first, want", [
    (None, False, "1 1 True"), ("3", False, "3 3 False"),
    (None, True, "None None False"), ("1", True, "1 1 True"),
])
def test_import_sets_one_blas_thread_before_numpy_loads(preset, numpy_first, want):
    # prints the BLAS settings as numpy starts to load, then pmvl's reading of them
    probe = ("import os, sys\n"
             "class Spy:\n"
             "    def find_spec(self, name, path=None, target=None):\n"
             "        if name == 'numpy':\n"
             "            self.seen = [os.environ.get(k) for k in ('OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')]\n"
             "spy = Spy()\n"
             "sys.meta_path.insert(0, spy)\n"
             + ("import numpy\n" if numpy_first else "") +
             "import pmvl._blas\n"
             "print(*spy.seen, pmvl._blas.ONE_THREAD)\n")
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(baselines.__file__))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = env["MKL_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, check=True, env=env)
    assert done.stdout.strip() == want


@pytest.mark.parametrize("dims, failing", [
    ([48, 40, 36], (0, 2)), ([48, 40, 36], (1, 2)), ([48, 40, 36], (2,)),
    ([40, 48, 36], (0, 1)), ([40, 48, 36], (1, 2)), ([40, 48, 36], (0, 2)),
])
def test_impute_svd_raises_the_serial_loops_first_error(dims, failing, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    data = synth_dataset(60, classes=3, latent_dim=4, view_dims=dims, seed=2)
    masked = apply_missing_pattern(data, MissingSpec(0.3, seed=2))
    for v in failing:
        row = int(np.flatnonzero(masked.mask[:, v])[0])
        masked.views[v][row, v + 1] = np.inf
    with pytest.raises(InputError) as serial:
        serial_impute_svd(masked, SvdParams(iters=5))
    first = failing[0]
    assert f", {first + 1}) is inf" in str(serial.value)
    with mock.patch.object(_blas, "ONE_THREAD", True), pytest.raises(InputError) as threaded:
        impute_baseline(masked, SVD, svd_params=SvdParams(iters=5))
    assert str(threaded.value) == str(serial.value)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_soft_impute_rejects_non_finite_observed_entry(bad):
    data = synth_dataset(60, classes=3, latent_dim=4, view_dims=[12, 10, 8], seed=4)
    masked = apply_missing_pattern(data, MissingSpec(0.3, seed=4))
    row = int(np.flatnonzero(masked.mask[:, 0])[0])
    masked.views[0][row, 3] = bad
    with mock.patch("numpy.linalg.svd", side_effect=AssertionError("SVD ran")):
        with pytest.raises(InputError, match=rf"observed entry \({row}, 3\) is {bad}"):
            impute_baseline(masked, SVD)
        with pytest.raises(InputError, match="finite observed values"):
            soft_impute_matrix(masked.views[0], np.ones((60, 12), dtype=bool), SvdParams())
    # a non-finite value under a masked slot is never read
    gone = int(np.flatnonzero(masked.mask[:, 0] == 0)[0])
    masked.views[0][row, 3] = data.views[0][row, 3]
    masked.views[0][gone] = bad
    out = impute_baseline(masked, SVD, svd_params=SvdParams(iters=5))
    assert np.isfinite(out.views[0]).all()


def test_impute_baseline_rejects_unknown_kind():
    _, masked = masked_synth()
    with pytest.raises(ConfigurationError):
        impute_baseline(masked, "magic")


def test_concat_classify_train_equals_test_k1():
    data = synth_dataset(30, classes=3, latent_dim=4, view_dims=[5, 4], seed=1)
    rep = concat_classify(data, data, rule="knn", k=1)
    assert rep.accuracy == 1.0


def test_concat_classify_single_class():
    data = synth_dataset(10, classes=1, latent_dim=3, view_dims=[4], seed=2)
    rep = concat_classify(data, data, rule="nearest_centroid")
    assert rep.accuracy == 1.0


def test_concat_classify_knn_matches_brute_force():
    train = synth_dataset(40, classes=3, latent_dim=4, view_dims=[5, 3], seed=3)
    test = synth_dataset(20, classes=3, latent_dim=4, view_dims=[5, 3], seed=4)
    k = 5
    rep = concat_classify(train, test, rule="knn", k=k)
    xt = np.hstack(train.views)
    xs = np.hstack(test.views)
    correct = 0
    for i in range(xs.shape[0]):
        d = np.sqrt(((xt - xs[i]) ** 2).sum(axis=1))
        order = np.argsort(d, kind="stable")[:k]
        votes = np.bincount(train.labels[order], minlength=3)
        if votes.argmax() == test.labels[i]:
            correct += 1
    assert rep.accuracy == pytest.approx(correct / xs.shape[0])


def test_concat_classify_validates():
    data = synth_dataset(10, classes=2, latent_dim=3, view_dims=[4], seed=5)
    masked = apply_missing_pattern(
        synth_dataset(10, classes=2, latent_dim=3, view_dims=[4, 2], seed=5),
        MissingSpec(0.2, seed=0),
    )
    with pytest.raises(InputError):
        concat_classify(masked, masked)
    with pytest.raises(ConfigurationError):
        concat_classify(data, data, rule="knn", k=99)
    with pytest.raises(ConfigurationError):
        concat_classify(data, data, rule="mystery")


@pytest.mark.parametrize("field, value, words", [
    ("rank", 2.5, "an integer"), ("rank", True, "an integer"), ("rank", "2", "an integer"),
    ("iters", 2.5, "an integer"), ("iters", True, "an integer"), ("iters", None, "an integer"),
    ("shrinkage", math.nan, "finite"), ("shrinkage", math.inf, "finite"),
    ("shrinkage", -math.inf, "finite"), ("shrinkage", True, "a number"),
    ("shrinkage", "0.1", "a number"),
])
def test_svd_params_reject_wrong_types(field, value, words):
    with pytest.raises(ConfigurationError, match=f"{field} must be {words}"):
        SvdParams(**{field: value})


def test_svd_params_accept_numpy_scalars():
    params = SvdParams(rank=np.int64(2), shrinkage=np.float64(0.5), iters=np.int32(10))
    assert (params.rank, params.shrinkage, params.iters) == (2, 0.5, 10)
