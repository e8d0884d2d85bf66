"""Dense feed-forward networks with analytic gradients.

Plain numpy kernels: forward evaluation, exact backpropagation with respect
to both the parameters and the input batch, and a bare gradient-descent
step. Everything runs in float64. Weights are (out, in) matrices, biases
are (out,) vectors, and input batches are (B, d_in) with one sample per row.

Two activation modes exist. Reconstruction and generator nets use sigmoid
hidden layers with a linear output (their targets are not confined to
(0, 1)); discriminators use sigmoid on every layer, output included.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DimensionError, InputError, check_number, read_json_object

SIGMOID_HIDDEN = "sigmoid_hidden"  # sigmoid on hidden layers, linear output
SIGMOID_ALL = "sigmoid_all"        # sigmoid on every layer, output included

_ACTIVATIONS = (SIGMOID_HIDDEN, SIGMOID_ALL)


# float64 rounds the logistic to exactly 0 or 1 once |x| is large; sigmoid
# nudges it back inside the open interval so downstream logs stay finite
_TINY = np.finfo(np.float64).tiny
_ONE_BELOW = 1.0 - np.finfo(np.float64).epsneg


def sigmoid(x):
    """Numerically stable logistic function, strictly inside (0, 1).

    One branch-free pass with e = exp(-|x|): 1/(1+e) where x >= 0 and
    e/(1+e) elsewhere. Since -|x| is exactly -x or x, every element takes
    the same IEEE operations as 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) for x < 0, so the result is bit-for-bit that
    two-branch formula's.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x, out=np.empty_like(x))  # out= keeps a 0-d input an array
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.maximum(e, x >= 0)
    e += 1.0
    np.divide(numerator, e, out=e)
    np.maximum(e, _TINY, out=e)
    np.minimum(e, _ONE_BELOW, out=e)
    return e


def _check_layer_dims(layer_dims):
    if len(layer_dims) < 2:
        raise ConfigurationError("layer_dims needs at least an input/output pair")
    for i, d in enumerate(layer_dims):
        check_number(f"layer_dims[{i}]", d, numbers.Integral, positive=True)


@dataclass
class DenseNet:
    """A fully connected network: affine layers plus sigmoid activations.

    The l2_coefficient is a weight-decay strength on the weight matrices
    only (biases are not penalized); the penalty it refers to is
    0.5 * c * sum of squared weight entries, so its gradient is c * W.
    """

    layer_dims: list
    weights: list
    biases: list
    activation: str = SIGMOID_HIDDEN
    l2_coefficient: float = 0.0

    def __post_init__(self):
        _check_layer_dims(self.layer_dims)
        if self.activation not in _ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        check_number("l2_coefficient", self.l2_coefficient, numbers.Real)
        if len(self.weights) != len(self.layer_dims) - 1 or len(self.biases) != len(self.weights):
            raise DimensionError(
                f"{len(self.layer_dims)} dims require {len(self.layer_dims) - 1} weight/bias pairs"
            )
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_dims[i + 1], self.layer_dims[i])
            if w.shape != want:
                raise DimensionError(f"layer {i}: weight shape {w.shape}, expected {want}")
            if b.shape != (want[0],):
                raise DimensionError(f"layer {i}: bias shape {b.shape}, expected {(want[0],)}")

    @property
    def n_layers(self):
        return len(self.weights)

    @property
    def input_dim(self):
        return int(self.layer_dims[0])

    @property
    def output_dim(self):
        return int(self.layer_dims[-1])

    def copy(self):
        return DenseNet(
            layer_dims=list(self.layer_dims),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            activation=self.activation,
            l2_coefficient=self.l2_coefficient,
        )


@dataclass
class GradientBundle:
    """Gradients of a scalar loss: per-layer parameter grads plus d_input."""

    d_weights: list | None  # None from backward(params=False)
    d_biases: list | None
    d_input: np.ndarray

    def accumulate(self, other):
        """In-place sum of another bundle's parameter gradients for the same net.

        d_input is left alone: the two batches may have different row counts.
        """
        for dw, ow in zip(self.d_weights, other.d_weights):
            dw += ow
        for db, ob in zip(self.d_biases, other.d_biases):
            db += ob
        return self

    def scale(self, factor):
        for dw in self.d_weights:
            dw *= factor
        for db in self.d_biases:
            db *= factor
        self.d_input *= factor
        return self


def init_net(layer_dims, activation=SIGMOID_HIDDEN, l2_coefficient=0.0, rng=0):
    """Build a net with uniform [-r, r] weights, r = sqrt(6/(fan_in+fan_out)).

    Biases start at zero. `rng` is an integer seed >= 0 or a numpy Generator.
    """
    _check_layer_dims(layer_dims)
    if not isinstance(rng, np.random.Generator):
        check_number("rng", rng, numbers.Integral)
        rng = np.random.default_rng(rng)
    weights, biases = [], []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        r = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-r, r, size=(d_out, d_in)))
        biases.append(np.zeros(d_out))
    return DenseNet(list(layer_dims), weights, biases, activation, l2_coefficient)


def _check_input(net, x, where="input"):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionError(
            f"layer 0 ({where}): batch has {x.shape[-1] if x.ndim else 0} columns, "
            f"net expects {net.input_dim}"
        )
    return x


def _sigmoid_layers(net):
    """How many leading layers pass their output through the sigmoid: all, or all but the last."""
    return net.n_layers - (net.activation != SIGMOID_ALL)


def _layer_outputs(net, a):
    """The layer loop of activations, on a batch _check_input has already checked."""
    acts, k = [a], _sigmoid_layers(net)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T
        z += b
        a = sigmoid(z) if i < k else z
        acts.append(a)
    return acts


def activations(net, input_batch):
    """Every layer's output on a (B, d_in) batch: the batch first, forward's result last."""
    return _layer_outputs(net, _check_input(net, input_batch))


def forward(net, input_batch):
    """Evaluate the net on a (B, d_in) batch; returns (B, d_out)."""
    return activations(net, input_batch)[-1]


def backward(net, input_batch, upstream_grad, acts=None, params=True):
    """Backpropagate an upstream gradient through the net.

    `upstream_grad` is dL/d(output), shaped like forward's result. Returns a
    GradientBundle whose d_weights include the l2 term c * W (biases carry no
    decay) and whose d_input is dL/d(input_batch). Parameter gradients are
    summed over the batch, i.e. they are exact gradients of the scalar L;
    `params=False` skips them (None, which sgd_step refuses) for pullbacks
    through a fixed net. d_input is formed either way, with the same bytes,
    so every bundle carries the batch's rows.
    `acts`, when given, must be activations(net, input_batch) for the net's
    current parameters; without it they are evaluated here.
    """
    if acts is None:
        acts = _layer_outputs(net, _check_input(net, input_batch))

    g = np.asarray(upstream_grad, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != acts[-1].shape:
        raise DimensionError(
            f"upstream gradient shape {g.shape} does not match output {acts[-1].shape}"
        )

    n, k, c = net.n_layers, _sigmoid_layers(net), net.l2_coefficient
    d_weights, d_biases = ([None] * n, [None] * n) if params else (None, None)
    for i in reversed(range(n)):
        if i < k:
            s = acts[i + 1]
            g = g * s  # a new array: the caller's upstream is never written
            g *= 1.0 - s
        if params:
            d_weights[i] = g.T @ acts[i]
            if c != 0:  # adding 0 * W could only flip the sign of a zero entry
                d_weights[i] += c * net.weights[i]
            d_biases[i] = g.sum(axis=0)
        g = g @ net.weights[i]
    return GradientBundle(d_weights, d_biases, g)


def sgd_step(net, bundle, lr):
    """Plain gradient-descent update, in place: param -= lr * grad."""
    if lr <= 0:
        raise ConfigurationError(f"learning rate must be positive, got {lr}")
    for i, (w, dw) in enumerate(zip(net.weights, bundle.d_weights)):
        if w.shape != dw.shape:
            raise DimensionError(f"layer {i}: gradient shape {dw.shape} vs weight {w.shape}")
        w -= lr * dw
    for b, db in zip(net.biases, bundle.d_biases):
        b -= lr * db
    return net


def l2_penalty(net):
    """0.5 * c * sum of squared weight entries; the term backward's grads include."""
    if net.l2_coefficient == 0.0:
        return 0.0
    return 0.5 * net.l2_coefficient * sum(float(np.sum(w * w)) for w in net.weights)


def save_net(net, path):
    """Write a net checkpoint.

    `path` gets a JSON header ({layer_dims, activation, l2_coefficient,
    data_file}) and a sidecar binary named by data_file holding, per layer,
    the row-major weight matrix followed by the bias vector, all as
    little-endian float64.
    """
    path = Path(path)
    bin_name = path.stem + ".bin"
    header = {
        "layer_dims": [int(d) for d in net.layer_dims],
        "activation": net.activation,
        "l2_coefficient": float(net.l2_coefficient),
        "dtype": "<f8",
        "data_file": bin_name,
    }
    blob = b"".join(
        arr.astype("<f8").tobytes(order="C")
        for w, b in zip(net.weights, net.biases)
        for arr in (w, b)
    )
    path.write_text(json.dumps(header, sort_keys=True, indent=1))
    (path.parent / bin_name).write_bytes(blob)


def load_net(path):
    """Read a save_net checkpoint; a malformed header, a wrong-sized binary or a
    non-finite number raises."""
    path = Path(path)
    header = read_json_object(path, InputError)
    try:
        dims = [int(d) for d in header["layer_dims"]]
        bin_path = path.parent / header["data_file"]
        if bin_path != path.with_suffix(".bin"):  # save_net's name for it
            raise ValueError(f"data_file {header['data_file']!r} is not {path.stem}.bin")
        activation, l2 = header["activation"], float(header["l2_coefficient"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed net header ({exc!r})") from None
    if not np.isfinite(l2):
        raise InputError(f"{path}: l2_coefficient {l2} is not finite")
    expected = sum(d_out * (d_in + 1) for d_in, d_out in zip(dims[:-1], dims[1:]))
    raw = bin_path.read_bytes()
    if len(raw) != 8 * expected:
        raise DimensionError(f"{bin_path}: holds {len(raw)} bytes, expected {8 * expected}")
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise InputError(f"{bin_path}: holds a non-finite number")
    weights, biases = [], []
    ofs = 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[ofs:ofs + d_out * d_in].reshape(d_out, d_in).copy())
        ofs += d_out * d_in
        biases.append(flat[ofs:ofs + d_out].copy())
        ofs += d_out
    return DenseNet(dims, weights, biases, activation, l2)
