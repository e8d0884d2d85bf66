import json

import numpy as np
import pytest

from pmvl.data import (
    MissingSpec,
    MultiViewDataset,
    apply_missing_pattern,
    load_csv_views,
    load_dataset,
    measured_rate,
    normalize,
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


def test_dataset_validation_rejects_label_gap():
    views = [np.zeros((4, 2))]
    with pytest.raises(InputError):
        MultiViewDataset(views, np.ones((4, 1)), labels=np.array([0, 0, 2, 2]))


@pytest.mark.parametrize("labels, bad", [([0, 1.5, 1, 0], "row 1 holds 1.5"),
                                         ([0.0, 1.0, 0.0, np.nan], "row 3 holds nan")])
def test_dataset_validation_rejects_non_integral_labels(labels, bad):
    with pytest.raises(InputError, match=bad):
        MultiViewDataset([np.zeros((4, 2))], np.ones((4, 1)), labels=labels)


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


def test_normalize_unit_range_on_observed():
    data = apply_missing_pattern(small_complete(n=30), MissingSpec(0.3, seed=2))
    scaled = normalize(data)
    for v in range(scaled.n_views):
        obs = scaled.mask[:, v].astype(bool)
        x = scaled.views[v][obs]
        assert x.min() >= 0.0 and x.max() <= 1.0
        # each feature spans the full range after scaling
        assert np.allclose(x.min(axis=0), 0.0)
        assert np.allclose(x.max(axis=0), 1.0)
        assert np.all(scaled.views[v][~obs] == 0.0)


def test_normalize_constant_feature_maps_to_zero():
    views = [np.column_stack([np.full(5, 3.0), np.arange(5.0)])]
    data = MultiViewDataset(views, np.ones((5, 1)))
    scaled = normalize(data)
    assert np.all(scaled.views[0][:, 0] == 0.0)
    assert scaled.views[0][:, 1].max() == 1.0


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
