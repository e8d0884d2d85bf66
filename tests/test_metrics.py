import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import pmvl
from pmvl import baselines
from pmvl.baselines import concat_classify
from pmvl.data import MultiViewDataset
from pmvl.errors import ConfigurationError, InputError
from pmvl.metrics import (
    classification_report,
    clustering_acc,
    evaluate_clustering,
    kmeans,
    max_matching_total,
    nmi,
    nrmse,
    squared_distances,
)


def broadcast_d2(points, centers):
    """The n x k x D broadcast form the distance kernels must reproduce byte for byte."""
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def draw_matrix(rng, rows, d, kind):
    """Gaussian entries at a random scale, or small integers that force exact ties."""
    if kind == "integers":
        return rng.integers(-2, 3, size=(rows, d)).astype(np.float64)
    return rng.normal(size=(rows, d)) * 10.0 ** rng.uniform(-3, 3)


# D < 8 sums without unrolling, 8..128 in one pairwise block, > 128 across blocks
DIMS = st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300))
KINDS = st.sampled_from(["normal", "integers"])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 40), d=DIMS, kind=KINDS,
       seed=st.integers(0, 2**32 - 1))
@example(n=1, k=1, d=1, kind="normal", seed=0)
@example(n=1, k=30, d=5, kind="normal", seed=1)
@example(n=30, k=1, d=64, kind="normal", seed=2)
@example(n=12, k=28, d=240, kind="normal", seed=3)
@example(n=40, k=3, d=48, kind="integers", seed=4)
def test_squared_distances_byte_equal_to_broadcast(n, k, d, kind, seed):
    rng = np.random.default_rng(seed)
    points, centers = draw_matrix(rng, n, d, kind), draw_matrix(rng, k, d, kind)
    got = squared_distances(points, centers)
    assert got.shape == (n, k)
    assert got.tobytes() == broadcast_d2(points, centers).tobytes()


def reference_plus_plus_seeds(points, k, rng):
    """k-means++ seeding as written with the broadcast distance tensor."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = broadcast_d2(points, centers[:1])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = points[rng.integers(n)]
            continue
        centers[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, broadcast_d2(points, centers[i:i + 1])[:, 0])
    return centers


def reference_kmeans(points, k, seed):
    """kmeans as written with the broadcast distance tensor: best of 10 seeded Lloyd
    runs, each scored by distances computed again after its last step."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(10):
        centers = reference_plus_plus_seeds(points, k, rng)
        assign = None
        for _ in range(300):
            d2 = broadcast_d2(points, centers)
            new_assign = d2.argmin(axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for c in range(k):
                members = assign == c
                if members.any():
                    centers[c] = points[members].mean(axis=0)
                else:
                    far = int(d2[np.arange(len(assign)), assign].argmax())
                    centers[c] = points[far]
        d2 = broadcast_d2(points, centers)
        assign = d2.argmin(axis=1)
        inertia = float(d2[np.arange(points.shape[0]), assign].sum())
        if best is None or inertia < best[1]:
            best = (assign, inertia)
    return best


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 60), k=st.integers(1, 6), d=DIMS, kind=KINDS,
       seed=st.integers(0, 2**32 - 1))
@example(n=1, k=1, d=3, kind="normal", seed=0)
@example(n=50, k=4, d=240, kind="normal", seed=1)
@example(n=30, k=6, d=2, kind="integers", seed=2)
def test_kmeans_equals_broadcast_reference(n, k, d, kind, seed):
    k = min(k, n)
    points = draw_matrix(np.random.default_rng(seed), n, d, kind)
    rep = kmeans(points, k, seed=seed % 1000)
    assign, inertia = reference_kmeans(points, k, seed % 1000)
    assert np.array_equal(rep.assignments, assign)
    assert np.float64(rep.inertia).tobytes() == np.float64(inertia).tobytes()


def reference_predictions(x_train, y_train, x_test, n_classes, rule, k):
    """concat_classify's predictions as written with the broadcast distance tensor."""
    if rule == "nearest_centroid":
        centroids = np.stack([x_train[y_train == c].mean(axis=0) for c in range(n_classes)])
        return broadcast_d2(x_test, centroids).argmin(axis=1)
    nearest = np.argsort(broadcast_d2(x_test, x_train), axis=1, kind="stable")[:, :k]
    return np.array([np.bincount(v, minlength=n_classes).argmax() for v in y_train[nearest]])


def complete_dataset(x, classes):
    labels = np.arange(x.shape[0]) % classes
    views = np.array_split(x, min(2, x.shape[1]), axis=1)
    return MultiViewDataset(views, np.ones((x.shape[0], len(views))), labels)


@settings(max_examples=40, deadline=None)
@given(n_train=st.integers(1, 40), n_test=st.integers(1, 40), classes=st.integers(1, 4),
       d=DIMS, kind=KINDS, rule=st.sampled_from(["nearest_centroid", "knn"]),
       k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@example(n_train=1, n_test=1, classes=1, d=1, kind="normal", rule="knn", k=1, seed=0)
@example(n_train=28, n_test=12, classes=3, d=240, kind="normal", rule="knn", k=5, seed=1)
@example(n_train=30, n_test=9, classes=3, d=20, kind="integers", rule="knn", k=5, seed=2)
@example(n_train=21, n_test=1, classes=3, d=64, kind="normal", rule="nearest_centroid", k=1,
         seed=3)
def test_concat_classify_equals_broadcast_reference(n_train, n_test, classes, d, kind, rule,
                                                    k, seed):
    classes, k = min(classes, n_train), min(k, n_train)
    rng = np.random.default_rng(seed)
    train = complete_dataset(draw_matrix(rng, n_train, d, kind), classes)
    test = complete_dataset(draw_matrix(rng, n_test, d, kind), min(classes, n_test))
    # the report hides the predictions; capture them where they are scored
    with mock.patch.object(baselines, "classification_report", lambda preds, labels: preds):
        got = concat_classify(train, test, rule=rule, k=k)
    want = reference_predictions(np.hstack(train.views), train.labels, np.hstack(test.views),
                                 classes, rule, k)
    assert np.array_equal(got, want)


def test_import_leaves_scipy_optimize_unloaded():
    probe = (
        "import sys\n"
        "import pmvl, pmvl.cli\n"
        "scipy = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print('scipy.optimize' in sys.modules, scipy())\n"
        "print(pmvl.clustering_acc([0, 0, 1, 1, 2], [1, 1, 0, 0, 0]))\n"
        "pmvl.evaluate_clustering([[0.0], [0.1], [5.0], [5.1]], [0, 0, 1, 1])\n"
        "print(scipy())\n"
    )
    src = Path(pmvl.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout.split() == ["False", "[]", str(4 / 5), "[]"]


def test_evaluate_clustering_makes_one_cluster_per_class_present():
    report = evaluate_clustering([[0.0], [0.1], [5.0], [5.1]], [0, 0, 3, 3])
    assert sorted(set(report.assignments)) == [0, 1]
    assert report.acc == 1.0 and report.nmi == 1.0


def test_classification_report_counts():
    labels = np.array([0, 0, 1, 1, 2, 2])
    preds = np.array([0, 1, 1, 1, 2, 0])
    rep = classification_report(preds, labels)
    assert rep.accuracy == pytest.approx(4 / 6)
    assert rep.confusion[0, 1] == 1 and rep.confusion[2, 0] == 1
    assert rep.per_class[1] == 1.0
    assert rep.n == 6


def test_kmeans_k1_total_inertia():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    rep = kmeans(pts, 1, seed=0)
    centered = pts - pts.mean(axis=0)
    assert rep.inertia == pytest.approx((centered ** 2).sum())


def test_kmeans_kn_zero_inertia():
    pts = np.random.default_rng(1).normal(size=(6, 2))
    rep = kmeans(pts, 6, seed=0)
    assert rep.inertia == pytest.approx(0.0, abs=1e-20)


def test_kmeans_two_pairs_hand_oracle():
    # two tight pairs far apart; within-pair squared distances are known
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0], [101.0, 0.0]])
    rep = kmeans(pts, 2, seed=3)
    assert rep.assignments[0] == rep.assignments[1]
    assert rep.assignments[2] == rep.assignments[3]
    assert rep.assignments[0] != rep.assignments[2]
    # each pair contributes 2 * (0.5)^2
    assert rep.inertia == pytest.approx(1.0)


def test_kmeans_deterministic_and_validates():
    pts = np.random.default_rng(2).normal(size=(30, 4))
    a = kmeans(pts, 3, seed=7)
    b = kmeans(pts, 3, seed=7)
    assert np.array_equal(a.assignments, b.assignments)
    with pytest.raises(ConfigurationError):
        kmeans(pts, 0)
    with pytest.raises(InputError):
        kmeans(pts, 31)


@pytest.mark.parametrize("run, kwargs, message", [
    pytest.param(kmeans, {"k": 2.5}, "k must be an integer", id="kmeans-k=2.5"),
    pytest.param(kmeans, {"k": True}, "k must be an integer", id="kmeans-k=True"),
    pytest.param(kmeans, {"k": 2, "seed": 2.5}, "seed must be an integer", id="kmeans-seed=2.5"),
    pytest.param(kmeans, {"k": 2, "seed": None}, "seed must be an integer", id="kmeans-seed=None"),
    pytest.param(kmeans, {"k": 2, "seed": -1}, "seed must be >= 0", id="kmeans-seed=-1"),
    pytest.param(evaluate_clustering, {"seed": 2.5}, "seed must be an integer",
                 id="evaluate_clustering-seed=2.5"),
    pytest.param(evaluate_clustering, {"seed": None}, "seed must be an integer",
                 id="evaluate_clustering-seed=None"),
    pytest.param(evaluate_clustering, {"seed": -1}, "seed must be >= 0",
                 id="evaluate_clustering-seed=-1"),
])
def test_clustering_rejects_bad_k_and_seed(run, kwargs, message):
    pts = np.random.default_rng(3).normal(size=(10, 2))
    args = (pts, np.arange(10) % 2) if run is evaluate_clustering else (pts,)
    with pytest.raises(ConfigurationError, match=message):
        run(*args, **kwargs)


@pytest.mark.parametrize("run", [kmeans, evaluate_clustering])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clustering_rejects_non_finite_points(run, bad):
    pts = np.random.default_rng(4).normal(size=(10, 2))
    pts[3, 1] = bad
    args = (pts, np.arange(10) % 2) if run is evaluate_clustering else (pts, 2)
    with pytest.raises(InputError, match="finite"):
        run(*args)


def test_kmeans_accepts_numpy_integers():
    pts = np.random.default_rng(5).normal(size=(10, 2))
    a = kmeans(pts, np.int64(3), seed=np.int32(1))
    b = kmeans(pts, 3, seed=1)
    assert np.array_equal(a.assignments, b.assignments) and a.inertia == b.inertia


def test_kmeans_separated_blobs_recovered():
    rng = np.random.default_rng(5)
    blobs = [rng.normal(loc=c, scale=0.1, size=(20, 2)) for c in [(0, 0), (10, 0), (0, 10)]]
    pts = np.vstack(blobs)
    labels = np.repeat([0, 1, 2], 20)
    rep = kmeans(pts, 3, seed=0)
    assert clustering_acc(rep.assignments, labels) == 1.0


def brute_force_acc(assignments, labels):
    ks = np.unique(assignments)
    cs = np.unique(labels)
    best = 0
    # try every injective map from the smaller side into the larger
    if len(ks) <= len(cs):
        for perm in itertools.permutations(cs, len(ks)):
            m = dict(zip(ks, perm))
            best = max(best, sum(m[a] == l for a, l in zip(assignments, labels)))
    else:
        for perm in itertools.permutations(ks, len(cs)):
            m = dict(zip(perm, cs))
            best = max(best, sum(m.get(a, -1) == l for a, l in zip(assignments, labels)))
    return best / len(labels)


def test_clustering_acc_identity_and_relabel():
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert clustering_acc(labels, labels) == 1.0
    relabeled = np.array([2, 0, 1, 2, 0, 1])
    assert clustering_acc(relabeled, labels) == 1.0


def test_clustering_acc_contingency_example():
    # contingency [[2,1],[1,2]]: best matching scores 4 of 6
    assignments = np.array([0, 0, 0, 1, 1, 1])
    labels = np.array([0, 0, 1, 0, 1, 1])
    assert clustering_acc(assignments, labels) == pytest.approx(4 / 6)
    assert brute_force_acc(assignments, labels) == pytest.approx(4 / 6)


def test_clustering_acc_matches_brute_force_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(4, 30))
        c = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))
        labels = rng.integers(0, c, size=n)
        assignments = rng.integers(0, k, size=n)
        fast = clustering_acc(assignments, labels)
        slow = brute_force_acc(assignments, labels)
        assert fast == pytest.approx(slow), (assignments, labels)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12),
       top=st.sampled_from([0, 1, 3, 50, 10**6]), tie=st.sampled_from([None, "rows", "cols"]),
       seed=st.integers(0, 2**32 - 1))
@example(rows=1, cols=1, top=0, tie=None, seed=0)
@example(rows=1, cols=12, top=10**6, tie=None, seed=1)
@example(rows=12, cols=12, top=0, tie=None, seed=2)
@example(rows=12, cols=12, top=10**6, tie="rows", seed=3)
@example(rows=9, cols=4, top=3, tie="cols", seed=4)
def test_max_matching_total_equals_scipy(rows, cols, top, tie, seed):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, top + 1, size=(rows, cols))
    if tie == "rows":  # repeated rows make many matchings tie for the best total
        table = table[rng.integers(0, rows, size=rows)]
    elif tie == "cols":
        table = table[:, rng.integers(0, cols, size=cols)]
    r, c = linear_sum_assignment(table, maximize=True)
    assert max_matching_total(table) == table[r, c].sum()
    if 0 < table.sum() <= 10**5:
        # partitions whose contingency is the table, minus its empty rows and columns
        cells = np.repeat(np.arange(rows * cols), table.ravel())
        got = clustering_acc(cells // cols, cells % cols)
        want = float(table[r, c].sum()) / table.sum()
        assert type(got) is type(want) and got.tobytes() == want.tobytes()


def test_empty_partitions_rejected():
    with pytest.raises(InputError, match="empty"):
        clustering_acc([], [])
    with pytest.raises(InputError, match="empty"):
        nmi([], [])
    with pytest.raises(InputError, match="labels must not be empty"):
        evaluate_clustering([], [])
    with pytest.raises(InputError, match="labels must not be empty"):
        evaluate_clustering(np.zeros((0, 2)), [])


def test_nmi_identical_and_relabeled():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert nmi(labels, labels) == 1.0
    assert nmi(np.array([5, 5, 9, 9, 0, 0]), labels) == 1.0


def test_nmi_single_cluster_conventions():
    flat = np.zeros(6, dtype=int)
    varied = np.array([0, 0, 1, 1, 2, 2])
    assert nmi(flat, varied) == 0.0
    assert nmi(varied, flat) == 0.0
    assert nmi(flat, flat) == 1.0


def test_nmi_independent_partitions_zero():
    # product design: every (row, col) cell equally filled -> independence
    a = np.repeat([0, 1], 8)
    b = np.tile(np.repeat([0, 1], 4), 2)
    table_check = np.zeros((2, 2))
    for x, y in zip(a, b):
        table_check[x, y] += 1
    assert (table_check == 4).all()
    assert nmi(a, b) == pytest.approx(0.0, abs=1e-15)


def test_nmi_symmetric_and_bounded_fuzz():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        a = rng.integers(0, int(rng.integers(1, 6)), size=n)
        b = rng.integers(0, int(rng.integers(1, 6)), size=n)
        v1 = nmi(a, b)
        v2 = nmi(b, a)
        assert v1 == pytest.approx(v2, abs=1e-12)
        assert 0.0 <= v1 <= 1.0


def test_nmi_hand_value():
    # contingency [[3,1],[1,3]]: compare against a direct formula evaluation
    a = np.array([0] * 4 + [1] * 4)
    b = np.array([0, 0, 0, 1, 0, 1, 1, 1])
    p = np.array([[3, 1], [1, 3]]) / 8.0
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    info = sum(
        p[i, j] * np.log(p[i, j] / (pa[i] * pb[j]))
        for i in range(2)
        for j in range(2)
    )
    expected = info / np.sqrt(
        -(pa * np.log(pa)).sum() * -(pb * np.log(pb)).sum()
    )
    assert nmi(a, b) == pytest.approx(expected, abs=1e-12)


def test_nrmse_zero_when_exact():
    truth = [np.arange(12.0).reshape(6, 2)]
    mask = np.zeros((6, 1), dtype=int)
    mask[2, 0] = mask[4, 0] = 1
    rep = nrmse([truth[0].copy()], truth, mask)
    assert rep.overall == 0.0
    assert rep.per_view == [0.0]


def test_nrmse_single_slot_hand_value():
    truth = [np.array([[0.0], [1.0], [0.5]])]
    filled = [np.array([[0.0], [1.0], [0.5]])]
    mask = np.zeros((3, 1), dtype=int)
    mask[0, 0] = mask[1, 0] = 1
    filled[0][0, 0] = 0.5  # off by 0.5 on one of two slots, range 1
    expected = np.sqrt((0.25 + 0.0) / 2) / 1.0
    rep = nrmse(filled, truth, mask)
    assert rep.per_view[0] == pytest.approx(expected)


def test_nrmse_excludes_fully_observed_view():
    rng = np.random.default_rng(3)
    truth = [rng.normal(size=(8, 3)), rng.normal(size=(8, 2))]
    filled = [truth[0] + 0.1, truth[1].copy()]
    mask = np.zeros((8, 2), dtype=int)
    mask[[1, 5], 0] = 1  # nothing to score in view 1
    rep = nrmse(filled, truth, mask)
    assert rep.per_view[1] is None
    assert rep.overall == pytest.approx(rep.per_view[0])


def test_nrmse_matches_independent_recomputation():
    rng = np.random.default_rng(9)
    truth = [rng.normal(size=(20, 4)), rng.normal(size=(20, 3))]
    filled = [t + rng.normal(size=t.shape) * 0.2 for t in truth]
    mask = (rng.random((20, 2)) < 0.4).astype(int)
    mask[0] = 1  # both views participate
    rep = nrmse(filled, truth, mask)
    vals = []
    for v in range(2):
        rows = mask[:, v] == 1
        err = filled[v][rows] - truth[v][rows]
        rmse = np.sqrt(np.mean(err ** 2))
        rng_span = truth[v][rows].max() - truth[v][rows].min()
        vals.append(rmse / rng_span)
        assert rep.per_view[v] == pytest.approx(vals[-1], abs=1e-12)
    assert rep.overall == pytest.approx(np.mean(vals), abs=1e-12)


def test_nrmse_affine_invariance():
    rng = np.random.default_rng(21)
    truth = [rng.normal(size=(15, 3))]
    filled = [truth[0] + rng.normal(size=(15, 3)) * 0.3]
    mask = np.zeros((15, 1), dtype=int)
    mask[rng.choice(15, size=6, replace=False), 0] = 1
    base = nrmse(filled, truth, mask).overall
    scaled = nrmse([filled[0] * 7.0 - 2.0], [truth[0] * 7.0 - 2.0], mask).overall
    assert scaled == pytest.approx(base, rel=1e-12)


def test_nrmse_degenerate_range_flagged():
    truth = [np.ones((4, 2))]
    filled = [np.ones((4, 2)) + 0.5]
    mask = np.ones((4, 1), dtype=int)
    rep = nrmse(filled, truth, mask)
    assert rep.degenerate_views == [0]
    assert rep.per_view[0] > 0


def test_evaluate_clustering_full_report():
    rng = np.random.default_rng(17)
    pts = np.vstack([rng.normal(loc=c * 8, size=(15, 3)) for c in range(3)])
    labels = np.repeat([0, 1, 2], 15)
    rep = evaluate_clustering(pts, labels, seed=1)
    assert rep.acc == 1.0
    assert rep.nmi == 1.0
