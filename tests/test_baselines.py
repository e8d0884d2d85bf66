import math

import numpy as np
import pytest

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
