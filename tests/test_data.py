import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvl.data import (
    MissingSpec,
    MultiViewDataset,
    apply_missing_pattern,
    load_csv_views,
    load_dataset,
    measured_rate,
    save_dataset,
    split,
    synth_dataset,
)
from pmvl.errors import ConfigurationError, IngestionError, InputError, SplitError


def small_complete(n=12, seed=0):
    return synth_dataset(n, classes=3, latent_dim=4, view_dims=[5, 3], seed=seed)


def test_dataset_validation_rejects_row_mismatch():
    with pytest.raises(InputError):
        MultiViewDataset([np.zeros((4, 2)), np.zeros((5, 2))], np.ones((4, 2)))


def test_dataset_validation_rejects_empty_row():
    mask = np.ones((4, 2), dtype=int)
    mask[2] = 0
    with pytest.raises(InputError):
        MultiViewDataset([np.zeros((4, 2)), np.zeros((4, 3))], mask)


LABELLED = synth_dataset(12, 3, 2, [3], seed=0)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.integers(0, LABELLED.n_samples - 1), min_size=1, unique=True))
def test_take_of_any_row_subset_builds(rows):
    # labels need only be nonnegative: a subset may lack any class, a middle one too
    part = LABELLED.take(rows)
    assert np.array_equal(part.labels, LABELLED.labels[rows])
    assert part.n_classes == part.labels.max() + 1
    for got, view in zip(part.views, LABELLED.views):
        assert np.array_equal(got, view[rows])


@pytest.mark.parametrize("data", [LABELLED, MultiViewDataset(LABELLED.views, LABELLED.mask)],
                         ids=["labelled", "unlabelled"])
def test_dataset_validation_rejects_zero_rows(data):
    # a labelled one has no label minimum, an unlabelled one no class count
    with pytest.raises(InputError, match="no rows"):
        data.take([])


@pytest.mark.parametrize("labels, bad", [([0, 1.5, 1, 0], "row 1 holds 1.5"),
                                         ([0.0, 1.0, 0.0, np.nan], "row 3 holds nan")])
def test_dataset_validation_rejects_non_integral_labels(labels, bad):
    with pytest.raises(InputError, match=bad):
        MultiViewDataset([np.zeros((4, 2))], np.ones((4, 1)), labels=labels)


@pytest.mark.parametrize("bad, observed", [(np.nan, False), (np.inf, True), (-np.inf, False)])
def test_dataset_validation_rejects_non_finite_entries(bad, observed):
    # a masked slot is multiplied by zero, which is inert for finite values only
    mask = np.ones((4, 2))
    mask[2, 1] = observed
    second = np.zeros((4, 3))
    second[2, 1] = bad
    with pytest.raises(InputError, match=f"view 1 row 2 column 1 holds {bad}"):
        MultiViewDataset([np.zeros((4, 2)), second], mask)


def test_dataset_takes_plain_list_views():
    data = MultiViewDataset([[[1, 2], [3, 4]], [[0.5], [1.5]]], [[1, 1], [1, 0]])
    assert [v.dtype for v in data.views] == [np.float64, np.float64]
    assert data.views[0].tolist() == [[1.0, 2.0], [3.0, 4.0]] and data.view_dims == [2, 1]
    view = np.zeros((2, 3))
    assert MultiViewDataset([view], np.ones((2, 1))).views[0] is view


@pytest.mark.parametrize("view", [[[1.0, 2.0], [3.0]], [["a", "b"], ["c", "d"]],
                                  [[1.0, {}], [1.0, 1.0]]])
def test_dataset_validation_rejects_views_that_are_not_numbers(view):
    with pytest.raises(InputError, match="view 1 is not an array of numbers"):
        MultiViewDataset([np.zeros((2, 2)), view], np.ones((2, 2)))


def test_dataset_validation_accepts_integral_float_labels():
    data = MultiViewDataset([np.zeros((4, 2))], np.ones((4, 1)), labels=[0.0, 1.0, 1.0, 0.0])
    assert data.labels.dtype == np.int64 and data.labels.tolist() == [0, 1, 1, 0]


def test_missing_pattern_exact_count_and_rate():
    data = small_complete(n=40)
    for eta in [0.1, 0.25, 0.5]:
        masked = apply_missing_pattern(data, MissingSpec(eta, seed=3))
        expected = int(np.rint(eta * 40 * 2))
        assert (masked.mask == 0).sum() == expected
        assert measured_rate(masked) == pytest.approx(expected / (40 * 2))
        assert (masked.mask.sum(axis=1) >= 1).all()


def test_missing_pattern_zeroes_hidden_entries():
    data = small_complete(n=30)
    masked = apply_missing_pattern(data, MissingSpec(0.4, seed=1))
    for v in range(masked.n_views):
        gone = masked.mask[:, v] == 0
        assert np.all(masked.views[v][gone] == 0.0)
        kept = ~gone
        assert np.array_equal(masked.views[v][kept], data.views[v][kept])


def snapshot(data):
    """Every byte a dataset holds, to check that a call left it as it was."""
    return ([x.tobytes() for x in data.views], data.mask.tobytes(),
            None if data.labels is None else data.labels.tobytes(), list(data.view_names))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 30), dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       rate=st.floats(0.0, 0.99), seed=st.integers(0, 2**32 - 1))
def test_missing_pattern_properties(n, dims, rate, seed):
    data = synth_dataset(n, 3, 2, dims, seed=seed % 1000)
    before = snapshot(data)
    v = len(dims)
    total = int(np.rint(rate * n * v))
    if total > n * (v - 1):
        with pytest.raises(ConfigurationError, match="infeasible"):
            apply_missing_pattern(data, MissingSpec(rate, seed=seed))
        assert snapshot(data) == before
        return
    masked = apply_missing_pattern(data, MissingSpec(rate, seed=seed))
    assert snapshot(data) == before
    assert masked.mask.dtype == np.uint8 and np.isin(masked.mask, (0, 1)).all()
    assert (masked.mask.sum(axis=1) >= 1).all() and (masked.mask == 0).sum() == total
    for c, (got, x) in enumerate(zip(masked.views, data.views)):
        hidden = masked.mask[:, c] == 0
        assert (got == 0).all(axis=1)[hidden].all()
        assert got[~hidden].tobytes() == x[~hidden].tobytes()
    assert np.array_equal(masked.labels, data.labels) and masked.view_names == data.view_names


@settings(max_examples=80, deadline=None)
@given(counts=st.lists(st.sampled_from([0, 2, 3, 4, 5, 9]), min_size=1, max_size=4),
       labelled=st.booleans(), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_split_properties(counts, labelled, fraction, seed):
    labels = np.repeat(np.arange(len(counts)), counts)
    if labels.size < 2:
        labels = np.array([0, 0])
    rows = np.arange(labels.size, dtype=np.float64)[:, None]  # each row holds its own index
    data = MultiViewDataset([rows], np.ones((labels.size, 1)), labels if labelled else None)
    before = snapshot(data)
    train, test = split(data, fraction, seed=seed)
    assert snapshot(data) == before
    ids = [part.views[0][:, 0].astype(int) for part in (train, test)]
    assert min(map(len, ids)) >= 1 and sorted(np.concatenate(ids)) == list(range(labels.size))
    if labelled:
        for part, taken in zip((train, test), ids):
            assert np.array_equal(part.labels, labels[taken])
        assert set(train.labels) == set(test.labels) == set(labels)


def test_missing_pattern_deterministic_per_seed():
    data = small_complete(n=25)
    a = apply_missing_pattern(data, MissingSpec(0.3, seed=9))
    b = apply_missing_pattern(data, MissingSpec(0.3, seed=9))
    c = apply_missing_pattern(data, MissingSpec(0.3, seed=10))
    assert np.array_equal(a.mask, b.mask)
    assert not np.array_equal(a.mask, c.mask)


def test_missing_pattern_max_feasible_rate():
    # with 2 views, rate 0.5 means every sample keeps exactly one view
    data = small_complete(n=20)
    masked = apply_missing_pattern(data, MissingSpec(0.5, seed=4))
    assert (masked.mask.sum(axis=1) == 1).all()


def test_missing_pattern_rejects_infeasible_rate():
    data = small_complete(n=20)
    with pytest.raises(ConfigurationError):
        apply_missing_pattern(data, MissingSpec(0.6, seed=0))


@pytest.mark.parametrize("kwargs, message", [
    ({"target_rate": "0.3"}, "target_rate must be a number"),
    ({"target_rate": True}, "target_rate must be a number"),
    ({"target_rate": float("nan")}, "target_rate must be finite"),
    ({"target_rate": 0.3, "seed": 1.5}, "seed must be an integer"),
    ({"target_rate": 0.3, "seed": None}, "seed must be an integer"),
    ({"target_rate": 0.3, "seed": -1}, "seed must be >= 0"),
])
def test_missing_spec_rejects_bad_rate_and_seed(kwargs, message):
    with pytest.raises(ConfigurationError, match=message):
        MissingSpec(**kwargs)


def test_missing_spec_accepts_numpy_numbers():
    data = small_complete(n=20)
    a = apply_missing_pattern(data, MissingSpec(np.float64(0.3), seed=np.int64(5)))
    b = apply_missing_pattern(data, MissingSpec(0.3, seed=5))
    assert np.array_equal(a.mask, b.mask)


def test_missing_pattern_requires_complete_input():
    data = small_complete(n=20)
    once = apply_missing_pattern(data, MissingSpec(0.2, seed=0))
    with pytest.raises(InputError):
        apply_missing_pattern(once, MissingSpec(0.1, seed=0))


def test_load_csv_views_happy_path(tmp_path):
    (tmp_path / "v0.csv").write_text("1.0,2.0\n3.0,4.0\n")
    (tmp_path / "v1.csv").write_text("5.0\n6.0\n")
    (tmp_path / "y.csv").write_text("0\n1\n")
    data = load_csv_views(
        [tmp_path / "v0.csv", tmp_path / "v1.csv"], label_path=tmp_path / "y.csv"
    )
    assert data.n_samples == 2 and data.n_views == 2
    assert data.view_dims == [2, 1]
    assert np.array_equal(data.labels, [0, 1])
    assert (data.mask == 1).all()


def test_load_csv_views_ragged_row_names_line(tmp_path):
    (tmp_path / "v0.csv").write_text("1.0,2.0\n3.0\n")
    with pytest.raises(IngestionError, match=r"v0\.csv:2"):
        load_csv_views([tmp_path / "v0.csv"])


def test_load_csv_views_non_numeric_names_line(tmp_path):
    (tmp_path / "v0.csv").write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(IngestionError, match=r"v0\.csv:2"):
        load_csv_views([tmp_path / "v0.csv"])


@pytest.mark.parametrize("raw", [b"1.0,2.0\n3.\xff,4.0\n",
                                 b'"' + b"1.0,2.0\n" * 20000],  # a quote never closed
                         ids=["not-utf8", "cell-over-csv-limit"])
def test_load_csv_views_unreadable_text_names_file(tmp_path, raw):
    (tmp_path / "v0.csv").write_bytes(raw)
    with pytest.raises(IngestionError, match=r"v0\.csv: not readable as CSV text"):
        load_csv_views([tmp_path / "v0.csv"])


def test_load_csv_views_missing_file(tmp_path):
    with pytest.raises(IngestionError, match="not found"):
        load_csv_views([tmp_path / "absent.csv"])


def test_load_csv_views_row_count_mismatch(tmp_path):
    (tmp_path / "v0.csv").write_text("1.0\n2.0\n")
    (tmp_path / "v1.csv").write_text("1.0\n")
    with pytest.raises(IngestionError, match="mismatch"):
        load_csv_views([tmp_path / "v0.csv", tmp_path / "v1.csv"])


def test_load_csv_views_bad_mask(tmp_path):
    (tmp_path / "v0.csv").write_text("1.0\n2.0\n")
    (tmp_path / "m.csv").write_text("0\n1\n")
    with pytest.raises(IngestionError, match="no view"):
        load_csv_views([tmp_path / "v0.csv"], mask_path=tmp_path / "m.csv")


def test_load_csv_views_zeroes_cells_under_hidden_slots(tmp_path):
    (tmp_path / "v0.csv").write_text("1.0,2.0\nnan,7.5\n3.0,4.0\n")
    (tmp_path / "v1.csv").write_text("5.0\n6.0\ninf\n")
    (tmp_path / "m.csv").write_text("1,1\n0,1\n1,0\n")
    data = load_csv_views([tmp_path / "v0.csv", tmp_path / "v1.csv"],
                          mask_path=tmp_path / "m.csv")
    assert np.array_equal(data.views[0], [[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
    assert np.array_equal(data.views[1], [[5.0], [6.0], [0.0]])


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_views_rejects_non_finite_observed_cell(tmp_path, cell):
    (tmp_path / "v0.csv").write_text("1.0,2.0\n3.0,4.0\n")
    (tmp_path / "v1.csv").write_text(f"5.0\n{cell}\n")
    (tmp_path / "m.csv").write_text("1,1\n1,1\n")
    with pytest.raises(IngestionError, match=r"v1\.csv: row 2 .*non-finite"):
        load_csv_views([tmp_path / "v0.csv", tmp_path / "v1.csv"],
                       mask_path=tmp_path / "m.csv")


def test_save_load_roundtrip_bit_exact(tmp_path):
    data = apply_missing_pattern(small_complete(n=17), MissingSpec(0.25, seed=6))
    manifest = save_dataset(data, tmp_path, name="rt")
    back = load_dataset(manifest)
    assert back.n_views == data.n_views
    assert np.array_equal(back.mask, data.mask)
    assert np.array_equal(back.labels, data.labels)
    for a, b in zip(data.views, back.views):
        assert np.array_equal(a, b)
    assert back.view_names == data.view_names


def test_save_load_roundtrip_unlabeled(tmp_path):
    data = small_complete(n=8)
    data = MultiViewDataset([v.copy() for v in data.views], data.mask.copy())
    manifest = save_dataset(data, tmp_path, name="u")
    back = load_dataset(manifest)
    assert back.labels is None


@pytest.mark.parametrize("key, value", [
    ("views", None),  # None drops the key
    ("views", "dataset_view0.csv"),
    ("views", []),
    ("views", ["dataset_view0.csv", 1]),
    ("mask", 0),
    ("labels", ["dataset_labels.csv"]),
    ("view_names", ["only_one"]),
    ("view_names", "ab"),
])
def test_load_dataset_rejects_malformed_manifest(tmp_path, key, value):
    manifest = save_dataset(small_complete(), tmp_path)
    m = json.loads(manifest.read_text())
    if value is None:
        del m[key]
    else:
        m[key] = value
    manifest.write_text(json.dumps(m))
    with pytest.raises(IngestionError, match=rf"dataset\.json: '{key}'"):
        load_dataset(manifest)


def test_load_dataset_accepts_null_optional_keys(tmp_path):
    data = MultiViewDataset([v.copy() for v in small_complete().views], np.ones((12, 2)))
    manifest = save_dataset(data, tmp_path)
    m = json.loads(manifest.read_text())
    m.update(mask=None, labels=None, view_names=None)
    manifest.write_text(json.dumps(m))
    back = load_dataset(manifest)
    assert (back.mask == 1).all() and back.labels is None
    assert back.view_names == ["view_0", "view_1"]


def test_synth_dataset_shapes_and_balance():
    data = synth_dataset(60, classes=4, latent_dim=6, view_dims=[7, 5, 3], seed=1)
    assert data.n_samples == 60 and data.n_views == 3 and data.n_classes == 4
    assert data.view_dims == [7, 5, 3]
    counts = np.bincount(data.labels)
    assert counts.min() == counts.max() == 15
    again = synth_dataset(60, classes=4, latent_dim=6, view_dims=[7, 5, 3], seed=1)
    for a, b in zip(data.views, again.views):
        assert np.array_equal(a, b)


def test_synth_dataset_classes_are_separable():
    # nearest class-mean in concatenated feature space must beat 95%:
    # the generator exists to make cleanly separable sanity-check data
    data = synth_dataset(200, classes=4, latent_dim=8, view_dims=[10, 10], seed=5)
    x = np.hstack(data.views)
    means = np.stack([x[data.labels == c].mean(axis=0) for c in range(4)])
    d2 = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    assert (pred == data.labels).mean() >= 0.95


def test_split_stratified_and_disjoint():
    data = small_complete(n=30)
    train, test = split(data, 0.8, seed=3)
    assert train.n_samples + test.n_samples == 30
    for c in range(data.n_classes):
        assert (train.labels == c).sum() >= 1
        assert (test.labels == c).sum() >= 1
    # same seed reproduces, different seed does not
    train2, _ = split(data, 0.8, seed=3)
    assert np.array_equal(train.labels, train2.labels)
    assert np.array_equal(train.views[0], train2.views[0])


@pytest.mark.parametrize("absent", [0, 1, 2])
def test_split_of_a_subset_lacking_a_class_stratifies_over_the_classes_present(absent):
    data = small_complete(n=30)  # 10 rows per class
    part = data.take(np.flatnonzero(data.labels != absent))
    train, test = split(part, 0.8, seed=3)
    for c in {0, 1, 2} - {absent}:
        assert ((train.labels == c).sum(), (test.labels == c).sum()) == (8, 2)
    assert absent not in train.labels and absent not in test.labels
    # the same rows as a split of the same subset with its labels renumbered 0..C-1
    _, compact = np.unique(part.labels, return_inverse=True)
    renumbered = MultiViewDataset(part.views, part.mask, compact)
    train_c, test_c = split(renumbered, 0.8, seed=3)
    assert np.array_equal(train.views[0], train_c.views[0])
    assert np.array_equal(test.views[0], test_c.views[0])


def test_split_rejects_bad_fraction_and_tiny_class():
    data = small_complete(n=30)
    with pytest.raises(ConfigurationError):
        split(data, 1.0)
    lone = MultiViewDataset(
        [np.random.default_rng(0).normal(size=(3, 2))],
        np.ones((3, 1)),
        labels=np.array([0, 0, 1]),
    )
    with pytest.raises(SplitError):
        split(lone, 0.5)
