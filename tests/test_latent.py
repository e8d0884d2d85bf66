"""The shared latent-model core: checkpoint layout and corrupt-checkpoint errors."""

import json
import math
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pmvl import cli
from pmvl.adversarial import AdversarialModel, GanConfig, load_gan, save_gan, train_unsupervised
from pmvl.data import MissingSpec, apply_missing_pattern, save_dataset, synth_dataset
from pmvl.errors import PmvlError
from pmvl.latent import LatentTable
from pmvl.nets import SIGMOID_ALL, init_net
from pmvl.supervised import SupervisedModel, TrainConfig, load_model, retune, save_model, train

KINDS = {
    # kind: (manifest, decoder role, the other net role, loader)
    "model": ("model.json", "recon", "retuned", load_model),
    "gan": ("gan.json", "gen", "disc", load_gan),
}
# config keys older checkpoints carry, at the one value they ever held
RETIRED = {
    "model": {"net_iters": 1, "latent_iters": 1, "centroid_excludes_self": False},
    "gan": {"g_steps": 1, "h_steps": 1},
}


def rewrite(edit):
    """A corruption of the named file alone, by bytes -> corrupted bytes."""
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def rewrite_json(change):
    """A corruption of the named JSON file, by a change made to its object in place."""
    def edit(raw):
        obj = json.loads(raw)
        change(obj)
        return json.dumps(obj).encode()
    return rewrite(edit)


def set_traces(value):
    """Every `*_trace` key of a manifest set to `value`."""
    return rewrite_json(lambda m: m.update((k, value) for k in list(m) if k.endswith("_trace")))


def copy_of_view_1(path):
    """View 0's net files made a copy of view 1's, of another width."""
    for ext in (".json", ".bin"):
        path.with_suffix(ext).write_bytes(
            path.with_name(path.stem.replace("_v0", "_v1") + ext).read_bytes())


def widen_latent_dim(path):
    """One more latent column in the manifest and its arrays, none in the nets."""
    ckpt = path.parent
    manifest = next(ckpt / m for m, *_ in KINDS.values() if (ckpt / m).exists())
    m = json.loads(manifest.read_text())
    k = m["latent_dim"]
    m["latent_dim"] = k + 1
    manifest.write_text(json.dumps(m))
    for array in (ckpt / "latent.bin", ckpt / "centroids.bin"):
        if array.exists():
            rows = np.fromfile(array, dtype="<f8").reshape(-1, k)
            np.hstack([rows, np.ones((len(rows), 1))]).astype("<f8").tofile(array)


# corruption: (file the error names, path of that file -> None, corrupting the checkpoint)
CORRUPTIONS = {
    "truncated_latents": ("latent.bin", rewrite(lambda raw: raw[:-8])),
    "half_net_file": ("{role}_v0.bin", rewrite(lambda raw: raw[:len(raw) // 2])),
    "odd_length_net_file": ("{role}_v0.bin", rewrite(lambda raw: raw[:-1])),
    "nan_in_latents": ("latent.bin", rewrite(lambda raw: struct.pack("<d", math.nan) + raw[8:])),
    "inf_in_net_file": ("{role}_v0.bin",
                        rewrite(lambda raw: raw[:-8] + struct.pack("<d", -math.inf))),
    "dropped_key": ("{manifest}", rewrite_json(lambda m: m.pop("n_views"))),
    "non_json_manifest": ("{manifest}", rewrite(lambda raw: b"{not json")),
    "decoder_of_another_view": ("{role}_v0.json", copy_of_view_1),
    "other_net_of_another_view": ("{other}_v0.json", copy_of_view_1),
    "latent_dim_off_the_nets": ("{role}_v0.json", widen_latent_dim),
    "trace_not_a_list": ("{manifest}", set_traces(5)),
    "trace_of_characters": ("{manifest}", set_traces("abc")),
    "nan_in_trace": ("{manifest}", set_traces([0.5, math.nan])),
    "non_finite_l2_coefficient": ("{role}_v0.json",
                                  rewrite_json(lambda net: net.update(l2_coefficient=math.inf))),
    "binary_named_elsewhere": ("{role}_v0.json",
                               rewrite_json(lambda net: net.update(data_file="gone.bin"))),
}


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    data = apply_missing_pattern(synth_dataset(24, 2, 3, [5, 4], seed=3, noise_scale=0.05),
                                 MissingSpec(0.3, seed=3))
    sup = retune(train(data, TrainConfig(latent_dim=3, epochs=5, retune_epochs=3,
                                         infer_iters=5, hidden_dims=(6,))), data)
    save_model(sup, root / "model")
    save_gan(train_unsupervised(data, GanConfig(latent_dim=3, epochs=3, hidden_dims=(6,))),
             root / "gan")
    return root, save_dataset(data, root / "data")


def test_checkpoint_layout(checkpoints):
    root, _ = checkpoints
    names = {p.name for p in (root / "model").iterdir()}
    nets = {f"{role}_v{i}.{ext}" for role in ("recon", "retuned") for i in (0, 1)
            for ext in ("json", "bin")}
    assert names == nets | {"model.json", "latent.bin", "centroids.bin"}
    manifest = json.loads((root / "model" / "model.json").read_text())
    assert set(manifest) == {"config", "n_classes", "n_views", "view_dims", "n_samples",
                             "latent_dim", "has_retuned", "objective_trace", "dtype"}
    assert (manifest["n_views"], manifest["view_dims"], manifest["n_samples"]) == (2, [5, 4], 24)
    manifest = json.loads((root / "gan" / "gan.json").read_text())
    assert set(manifest) == {"config", "n_views", "view_dims", "n_samples", "latent_dim",
                             "d_trace", "g_trace", "rec_trace", "dtype"}
    assert (root / "gan" / "latent.bin").stat().st_size == 8 * 24 * 3


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_corrupt_checkpoint_is_pmvl_error(checkpoints, tmp_path, kind, corruption, capsys):
    root, data_manifest = checkpoints
    manifest, role, other, load = KINDS[kind]
    pattern, corrupt = CORRUPTIONS[corruption]
    target = pattern.format(manifest=manifest, role=role, other=other)
    ckpt = tmp_path / kind
    shutil.copytree(root / kind, ckpt)
    corrupt(ckpt / target)
    with pytest.raises(PmvlError, match=target.replace(".", r"\.")):
        load(ckpt)
    if kind == "model":
        rc = cli.main(["eval", "--model", str(ckpt), "--data", str(data_manifest),
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert target in capsys.readouterr().err


def net_arrays(nets):
    return [a for net in nets for a in (*net.weights, *net.biases)]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_checkpoint_with_retired_keys_loads_same_model(checkpoints, tmp_path, kind, capsys):
    root, data_manifest = checkpoints
    manifest, _, _, load = KINDS[kind]
    ckpt = tmp_path / kind
    shutil.copytree(root / kind, ckpt)
    m = json.loads((ckpt / manifest).read_text())
    m["config"].update(RETIRED[kind])
    (ckpt / manifest).write_text(json.dumps(m))
    fresh, old = load(root / kind), load(ckpt)
    assert old.config == fresh.config
    assert np.array_equal(old.latent.H, fresh.latent.H)
    nets = "recon_nets" if kind == "model" else "generators"
    for a, b in zip(net_arrays(getattr(old, nets)), net_arrays(getattr(fresh, nets))):
        assert np.array_equal(a, b)
    key = next(iter(RETIRED[kind]))
    m["config"][key] = 2
    (ckpt / manifest).write_text(json.dumps(m))
    with pytest.raises(PmvlError, match=key):
        load(ckpt)
    if kind == "model":
        rc = cli.main(["eval", "--model", str(ckpt), "--data", str(data_manifest),
                       "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert key in capsys.readouterr().err


# what a retyped JSON key is set to: each is the wrong type for some key
RETYPED = [None, True, -1, 2.5, "x", [], {}, [1, "a"]]


def key_paths(obj, path=()):
    """The path of every key of a JSON object, nested objects included."""
    for key, value in obj.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, path + (key,))


def fuzzed(draw, raw, is_json):
    """`raw` with one drawn bit flipped, cut short, or (JSON) one key dropped or retyped."""
    kind = draw(st.sampled_from(["flip", "truncate"] + (["drop", "retype"] if is_json else [])))
    if kind == "flip":
        at, bit = draw(st.integers(0, len(raw) - 1)), draw(st.integers(0, 7))
        return raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1:]
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    obj = json.loads(raw)
    *parents, key = draw(st.sampled_from(list(key_paths(obj))))
    holder = obj
    for name in parents:
        holder = holder[name]
    if kind == "drop":
        del holder[key]
    else:
        holder[key] = draw(st.sampled_from(RETYPED))
    return json.dumps(obj).encode()


def fuzz_one_file(draw, root, dirs, into):
    """Copies of `dirs` under `into` with one drawn file of them fuzzed."""
    for d in dirs:
        shutil.copytree(root / d, into / d)
    names = sorted(str(f.relative_to(root)) for d in dirs for f in (root / d).iterdir())
    target = into / draw(st.sampled_from(names))
    target.write_bytes(fuzzed(draw, target.read_bytes(), target.suffix == ".json"))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuzzed_checkpoint_or_dataset_ends_eval_with_an_exit_code(checkpoints, data):
    root, _ = checkpoints
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fuzz_one_file(data.draw, root, ("model", "data"), tmp)
        rc = cli.main(["eval", "--model", str(tmp / "model"),
                       "--data", str(tmp / "data" / "dataset.json"), "--out", str(tmp / "eval")])
    assert rc in (0, 2, 3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuzzed_gan_checkpoint_loads_or_raises_pmvl_error(checkpoints, data):
    root, _ = checkpoints
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fuzz_one_file(data.draw, root, ("gan",), tmp)
        try:
            load_gan(tmp / "gan")
        except PmvlError:
            pass


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def latent_models(draw, kind):
    """A small supervised model or GAN with drawn shapes, arrays, config and traces."""
    k = draw(st.integers(1, 4))
    hidden = tuple(draw(st.lists(st.integers(1, 5), max_size=2)))
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    n = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    latent = LatentTable(draw(hnp.arrays(np.float64, (n, k), elements=FINITE)))
    trace = st.lists(FINITE, max_size=4)
    if kind == "model":
        l2 = draw(st.floats(0.0, 1e3))
        config = TrainConfig(latent_dim=k, hidden_dims=hidden, seed=seed, l2_coefficient=l2,
                             lam=draw(st.floats(1e-3, 1e3)))
        recon, retuned = ([init_net([k, *hidden, d], l2_coefficient=l2, rng=rng) for d in widths]
                          for _ in range(2))
        centroids = draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)), k), elements=FINITE))
        return SupervisedModel(latent, recon, centroids, config,
                               retuned if draw(st.booleans()) else None, draw(trace))
    config = GanConfig(latent_dim=k, hidden_dims=hidden, seed=seed,
                       adv_weight=draw(st.floats(0.0, 1e3)), d_steps=draw(st.integers(1, 9)))
    gens = [init_net([k, *hidden, d], rng=rng) for d in widths]
    discs = [init_net([d, *reversed(hidden), 1], SIGMOID_ALL, rng=rng) for d in widths]
    return AdversarialModel(latent, gens, discs, config, draw(trace), draw(trace), draw(trace))


def same_bytes(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def assert_same_nets(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.layer_dims, a.activation, a.l2_coefficient) == (
            b.layer_dims, b.activation, b.l2_coefficient)
    for x, y in zip(net_arrays(got), net_arrays(want), strict=True):
        assert same_bytes(x, y)


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in root.iterdir()}


ROUND_TRIPS = {
    # kind: (save, load, net roles, arrays, traces)
    "model": (save_model, load_model, ("recon_nets", "retuned_nets"), ("centroids",),
              ("objective_trace",)),
    "gan": (save_gan, load_gan, ("generators", "discriminators"), (),
            ("d_trace", "g_trace", "rec_trace")),
}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_checkpoint_round_trip_is_exact(kind, data):
    save, load, roles, arrays, traces = ROUND_TRIPS[kind]
    model = data.draw(latent_models(kind))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        back = load(save(model, tmp / "first"))
        save(back, tmp / "second")
        assert tree_bytes(tmp / "first") == tree_bytes(tmp / "second")
    assert back.config == model.config
    assert same_bytes(back.latent.H, model.latent.H)
    for role in roles:
        if getattr(model, role) is None:
            assert getattr(back, role) is None
        else:
            assert_same_nets(getattr(back, role), getattr(model, role))
    for key in arrays:
        assert same_bytes(getattr(back, key), getattr(model, key))
    for key in traces:
        assert len(getattr(back, key)) == len(getattr(model, key))
        assert same_bytes(getattr(back, key), getattr(model, key))
