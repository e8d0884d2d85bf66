"""The latent-model core under both the supervised and adversarial paths.

Every sample owns a trainable latent row; per-view decoder nets f_v map it
back to the views, scored on observed slots by the masked residual
(f_v(H) - x_v) * s_v, so hidden slots add exact zeros to every loss and
gradient. A checkpoint is a JSON manifest, `{role}_v{i}` net files and raw
little-endian float64 arrays.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError, DimensionError, InputError, PmvlError, TrainingError, check_fields,
    read_json_object,
)
from .nets import SIGMOID_HIDDEN, backward, forward, init_net, load_net, save_net


@dataclass
class LatentTable:
    """One trainable latent row per sample."""

    H: np.ndarray

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=np.float64)
        if self.H.ndim != 2:
            raise InputError(f"latent table must be 2-D, got shape {self.H.shape}")
        if not np.isfinite(self.H).all():
            raise InputError("latent table contains non-finite entries")

    @property
    def n_rows(self):
        return self.H.shape[0]

    @property
    def dim(self):
        return self.H.shape[1]


# settings that were once config fields, each with the only value any run used
RETIRED_SETTINGS = {"net_iters": 1, "latent_iters": 1, "centroid_excludes_self": False,
                    "g_steps": 1, "h_steps": 1}


def drop_retired(settings):
    """A copy of `settings` without retired keys; one set to another value is an error."""
    settings = dict(settings)
    for key, old in RETIRED_SETTINGS.items():
        got = settings.pop(key, old)
        if type(got) is not type(old) or got != old:
            raise ConfigurationError(f"{key} is retired (fixed at {json.dumps(old)}), got {got!r}")
    return settings


class LatentConfig:
    """Validation and dict round-trip shared by both trainers' config dataclasses."""

    def _validate(self, positive):
        check_fields(self, positive)
        dims = self.hidden_dims
        if not isinstance(dims, (list, tuple)) or any(
                isinstance(d, bool) or not isinstance(d, numbers.Integral) or d <= 0 for d in dims):
            raise ConfigurationError(f"hidden_dims must be a list of positive integers, got {dims!r}")
        self.hidden_dims = tuple(int(d) for d in dims)

    def to_dict(self):
        d = dict(self.__dict__)
        d["hidden_dims"] = list(self.hidden_dims)
        return d

    @classmethod
    def from_dict(cls, d):
        d = drop_retired(d)
        d.setdefault("hidden_dims", ())
        return cls(**d)


def init_latent_model(data, config, l2_coefficient=0.0):
    """Latent table, then one decoder per view, drawn from one seeded stream.

    Returns (latent, decoders, rng); further nets keep drawing from rng.
    """
    rng = np.random.default_rng(config.seed)
    k = config.latent_dim
    latent = LatentTable(rng.uniform(-0.01, 0.01, size=(data.n_samples, k)))
    decoders = [init_net([k, *config.hidden_dims, d], SIGMOID_HIDDEN, l2_coefficient, rng)
                for d in data.view_dims]
    return latent, decoders, rng


def check_views(nets, views):
    """Raise DimensionError unless the views match the decoders in count and width."""
    if len(views) != len(nets):
        raise DimensionError(f"model has {len(nets)} views, data has {len(views)}")
    for v, (net, x) in enumerate(zip(nets, views)):
        if x.shape[1] != net.output_dim:
            raise DimensionError(
                f"view {v} is {net.output_dim} wide in the model, {x.shape[1]} in the data")


def residual(out, x, mask_col):
    """Masked residual (f_v(h) - x_v) * s_v, given a decoder output f_v(h)."""
    return (out - x) * mask_col


def residuals(nets, h, views, mask, acts=None):
    """Per-view masked residuals; `acts` holds each net's activations on h when known."""
    outs = [forward(net, h) for net in nets] if acts is None else [a[-1] for a in acts]
    return [residual(out, views[v], mask[:, v:v + 1]) for v, out in enumerate(outs)]


def squared_error(res):
    total = 0.0
    for r in res:
        total += float((r ** 2).sum())
    return total


def reconstruction_loss(nets, latent, data, acts=None):
    """Masked squared reconstruction error averaged over samples."""
    return squared_error(residuals(nets, latent.H, data.views, data.mask, acts)) / data.n_samples


def latent_pullback(nets, h, upstreams, acts=None):
    """Sum over views of dL/dh through fixed nets, so backward forms d_input only
    (params=False); given each view's dL/d(f_v(h)) and optionally its activations."""
    g = np.zeros_like(h)
    for v, (net, u) in enumerate(zip(nets, upstreams)):
        g += backward(net, h, u, None if acts is None else acts[v], params=False).d_input
    return g


def check_finite(value, what, epoch):
    if not np.isfinite(value):
        raise TrainingError(f"{what} diverged at epoch {epoch}")


def save_checkpoint(out_dir, name, nets, latent, config, arrays=None, **fields):
    """Write `{name}.json`, `{role}_v{i}.json` nets and `{key}.bin` arrays, latent included.

    `nets` maps each role to its per-view nets; the first role is the decoders.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for role, group in nets.items():
        for i, net in enumerate(group):
            save_net(net, out_dir / f"{role}_v{i}.json")
    for key, array in {"latent": latent.H, **(arrays or {})}.items():
        array.astype("<f8").tofile(out_dir / f"{key}.bin")
    decoders = next(iter(nets.values()))
    manifest = {
        "config": config.to_dict(),
        "n_views": len(decoders),
        "view_dims": [net.output_dim for net in decoders],
        "n_samples": latent.n_rows,
        "latent_dim": latent.dim,
        "dtype": "<f8",
        **fields,
    }
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return path


class Checkpoint:
    """Reads what save_checkpoint wrote; an inconsistent file raises a PmvlError.

    `fields` gives the JSON type of each manifest key needed beyond the
    common ones; counts must be nonnegative, and a `*_trace` key must hold
    a list of finite numbers.
    """

    def __init__(self, path, name, config_cls, fields=None):
        path = Path(path)
        self.path = path / f"{name}.json" if path.is_dir() else path
        self.manifest = m = read_json_object(self.path, InputError)
        common = {"config": dict, "n_views": int, "n_samples": int, "latent_dim": int,
                  "view_dims": list}
        for key, kind in {**common, **(fields or {})}.items():
            if not isinstance(m.get(key), kind) or (kind is int and m[key] < 0):
                raise InputError(f"{self.path}: manifest needs a valid '{key}' ({kind.__name__})")
        if len(m["view_dims"]) != m["n_views"]:
            raise InputError(f"{self.path}: 'view_dims' needs one width per view")
        for key in [k for k in m if k.endswith("_trace")]:
            if not isinstance(m[key], list) or not all(
                    isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
                    for x in m[key]):
                raise InputError(f"{self.path}: '{key}' must be a list of finite numbers")
        try:
            self.config = config_cls.from_dict(m["config"])
        except (PmvlError, TypeError, ValueError) as exc:
            raise InputError(f"{self.path}: bad config: {exc}") from None

    def nets(self, role):
        """The role's per-view nets: view v's maps latent_dim to view_dims[v] wide,
        or for discriminators ("disc") view_dims[v] to 1."""
        nets = []
        for v, width in enumerate(self.manifest["view_dims"]):
            path = self.path.parent / f"{role}_v{v}.json"
            net = load_net(path)
            want = (width, 1) if role == "disc" else (self.manifest["latent_dim"], width)
            if (net.input_dim, net.output_dim) != want:
                raise InputError(f"{path}: maps {net.input_dim} to {net.output_dim} wide, "
                                 f"expected {want[0]} to {want[1]}")
            nets.append(net)
        return nets

    def array(self, key, rows):
        """`{key}.bin` as a (manifest[rows], latent_dim) float64 array."""
        shape = (self.manifest[rows], self.manifest["latent_dim"])
        path = self.path.parent / f"{key}.bin"
        raw = path.read_bytes()
        if len(raw) != 8 * shape[0] * shape[1]:
            raise InputError(f"{path}: holds {len(raw)} bytes, expected {shape} float64s")
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.isfinite(values).all():
            raise InputError(f"{path}: holds a non-finite number")
        return values

    def latent(self):
        return LatentTable(self.array("latent", "n_samples"))
