import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvl.errors import ConfigurationError, DimensionError
from pmvl.nets import (
    SIGMOID_ALL,
    SIGMOID_HIDDEN,
    DenseNet,
    GradientBundle,
    activations,
    backward,
    forward,
    init_net,
    l2_penalty,
    load_net,
    save_net,
    sgd_step,
    sigmoid,
)


def zero_bundle(net, batch_rows):
    return GradientBundle(
        [np.zeros_like(w) for w in net.weights],
        [np.zeros_like(b) for b in net.biases],
        np.zeros((batch_rows, net.input_dim)),
    )


def naive_forward(net, x):
    # independent re-derivation: explicit loops, no shared code path
    out = np.array(x, dtype=np.float64)
    for i in range(net.n_layers):
        out = out @ net.weights[i].T + net.biases[i]
        if i < net.n_layers - 1 or net.activation == SIGMOID_ALL:
            out = 1.0 / (1.0 + np.exp(-out))
    return out


def test_sigmoid_midpoint_and_range():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    x = np.linspace(-500, 500, 4001)
    s = sigmoid(x)
    assert np.all(s > 0.0) and np.all(s < 1.0)
    assert np.all(np.diff(s) >= 0)


def test_sigmoid_extremes_finite():
    s = sigmoid(np.array([-1e9, 1e9]))
    assert np.isfinite(s).all()


def two_branch_sigmoid(x):
    # the reference formula: 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x)) below
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    np.clip(out, np.finfo(np.float64).tiny, 1.0 - np.finfo(np.float64).epsneg, out=out)
    return out


SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 36.7, -36.7,
                 710.0, -710.0, 746.0, -746.0, 1e308, -1e308, np.inf, -np.inf]


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_sigmoid_bit_equal_to_two_branch_formula():
    edges = np.array(SIGMOID_EDGES)
    assert_same_bytes(sigmoid(edges), two_branch_sigmoid(edges))
    assert_same_bytes(sigmoid(np.array(-0.3)), two_branch_sigmoid(np.array(-0.3)))
    rng = np.random.default_rng(11)
    for scale in (0.5, 5.0, 50.0, 900.0):
        for shape in ((1, 1), (7, 13), (100, 1), (210, 64)):
            x = scale * rng.normal(size=shape)
            assert_same_bytes(sigmoid(x), two_branch_sigmoid(x))
        wide = scale * rng.normal(size=(40, 30))
        for view in (wide.T, wide[::3, 1::2]):
            assert_same_bytes(sigmoid(view), two_branch_sigmoid(view))
    assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()


def test_forward_zero_weight_net_outputs_half():
    # all-zero weights and biases, sigmoid on the output: every unit is 0.5
    net = DenseNet(
        layer_dims=[3, 4, 2],
        weights=[np.zeros((4, 3)), np.zeros((2, 4))],
        biases=[np.zeros(4), np.zeros(2)],
        activation=SIGMOID_ALL,
    )
    out = forward(net, np.ones((5, 3)))
    assert np.allclose(out, 0.5)


def test_forward_identity_linear_layer():
    net = DenseNet(
        layer_dims=[3, 3],
        weights=[np.eye(3)],
        biases=[np.zeros(3)],
        activation=SIGMOID_HIDDEN,
    )
    x = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -0.25]])
    assert np.array_equal(forward(net, x), x)


@pytest.mark.parametrize("activation", [SIGMOID_HIDDEN, SIGMOID_ALL])
@pytest.mark.parametrize("dims", [[2, 3], [4, 5, 3], [3, 6, 4, 2]])
def test_forward_matches_naive(activation, dims):
    rng = np.random.default_rng(7)
    net = init_net(dims, activation=activation, rng=rng)
    x = rng.normal(size=(9, dims[0]))
    assert np.allclose(forward(net, x), naive_forward(net, x), atol=1e-12)


def test_forward_promotes_vector_to_row():
    net = init_net([3, 2], rng=0)
    x = np.array([0.1, 0.2, 0.3])
    out = forward(net, x)
    assert out.shape == (1, 2)


def test_forward_rejects_wrong_width():
    net = init_net([3, 2], rng=0)
    with pytest.raises(DimensionError):
        forward(net, np.zeros((4, 5)))


def objective(net, x, target):
    out = forward(net, x)
    return 0.5 * np.sum((out - target) ** 2) + l2_penalty(net)


@pytest.mark.parametrize("activation", [SIGMOID_HIDDEN, SIGMOID_ALL])
@pytest.mark.parametrize("l2", [0.0, 0.01])
def test_backward_matches_finite_differences(activation, l2):
    rng = np.random.default_rng(42)
    dims = [4, 6, 3]
    net = init_net(dims, activation=activation, l2_coefficient=l2, rng=rng)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))
    upstream = forward(net, x) - target
    bundle = backward(net, x, upstream)

    h = 1e-5
    for li in range(net.n_layers):
        w = net.weights[li]
        for (r, c) in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1), (w.shape[0] // 2, w.shape[1] // 2)]:
            orig = w[r, c]
            w[r, c] = orig + h
            f_plus = objective(net, x, target)
            w[r, c] = orig - h
            f_minus = objective(net, x, target)
            w[r, c] = orig
            fd = (f_plus - f_minus) / (2 * h)
            an = bundle.d_weights[li][r, c]
            assert abs(fd - an) < 1e-4 * max(1.0, abs(fd)), (li, r, c, fd, an)
        b = net.biases[li]
        for j in [0, b.shape[0] - 1]:
            orig = b[j]
            b[j] = orig + h
            f_plus = objective(net, x, target)
            b[j] = orig - h
            f_minus = objective(net, x, target)
            b[j] = orig
            fd = (f_plus - f_minus) / (2 * h)
            an = bundle.d_biases[li][j]
            assert abs(fd - an) < 1e-4 * max(1.0, abs(fd)), (li, j, fd, an)


def test_backward_d_input_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = init_net([4, 5, 2], activation=SIGMOID_HIDDEN, rng=rng)
    x = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 2))
    bundle = backward(net, x, forward(net, x) - target)
    h = 1e-5
    for (r, c) in [(0, 0), (2, 3), (1, 2)]:
        orig = x[r, c]
        x[r, c] = orig + h
        f_plus = 0.5 * np.sum((forward(net, x) - target) ** 2)
        x[r, c] = orig - h
        f_minus = 0.5 * np.sum((forward(net, x) - target) ** 2)
        x[r, c] = orig
        fd = (f_plus - f_minus) / (2 * h)
        an = bundle.d_input[r, c]
        assert abs(fd - an) < 1e-4 * max(1.0, abs(fd))


def test_backward_gradients_sum_over_batch():
    # the gradient of a summed loss over a 2-row batch equals the sum of
    # the two single-row gradients
    rng = np.random.default_rng(11)
    net = init_net([3, 4, 2], rng=rng)
    x = rng.normal(size=(2, 3))
    up = rng.normal(size=(2, 2))
    full = backward(net, x, up)
    row0 = backward(net, x[:1], up[:1])
    row1 = backward(net, x[1:], up[1:])
    for li in range(net.n_layers):
        expected = row0.d_weights[li] + row1.d_weights[li] - net.l2_coefficient * net.weights[li]
        assert np.allclose(full.d_weights[li], expected, atol=1e-12)
        assert np.allclose(full.d_biases[li], row0.d_biases[li] + row1.d_biases[li], atol=1e-12)


@pytest.mark.parametrize("activation", [SIGMOID_HIDDEN, SIGMOID_ALL])
@pytest.mark.parametrize("dims", [[3, 2], [3, 5, 2], [4, 6, 5, 3]])
@pytest.mark.parametrize("rows", [None, 1, 7])
def test_backward_through_given_activations_is_byte_equal(activation, dims, rows):
    # rows=None is a 1-D input row, which both paths promote to a 1-row batch
    rng = np.random.default_rng(13)
    net = init_net(dims, activation=activation, l2_coefficient=0.01, rng=rng)
    x = rng.normal(size=dims[0] if rows is None else (rows, dims[0]))
    up = rng.normal(size=(1 if rows is None else rows, dims[-1]))
    acts = activations(net, x)
    assert len(acts) == len(dims)
    assert_same_bytes(forward(net, x), acts[-1])
    want, got = backward(net, x, up), backward(net, x, up, acts)
    for a, b in zip(want.d_weights + want.d_biases, got.d_weights + got.d_biases):
        assert_same_bytes(b, a)
    assert_same_bytes(got.d_input, want.d_input)


def naive_backward(net, x, up):
    """The seed formula, out of place and layer by layer: (d_weights, d_biases, d_input).

    Activations come from the two-branch sigmoid, which sigmoid matches bit for bit.
    """
    acts = [np.atleast_2d(np.asarray(x, dtype=np.float64))]
    activated = [i < net.n_layers - 1 or net.activation == SIGMOID_ALL
                 for i in range(net.n_layers)]
    for i in range(net.n_layers):
        z = acts[i] @ net.weights[i].T + net.biases[i]
        acts.append(two_branch_sigmoid(z) if activated[i] else z)
    g = np.atleast_2d(up)
    d_weights, d_biases = [None] * net.n_layers, [None] * net.n_layers
    for i in reversed(range(net.n_layers)):
        if activated[i]:
            g = g * acts[i + 1] * (1.0 - acts[i + 1])
        d_weights[i] = g.T @ acts[i] + net.l2_coefficient * net.weights[i]
        d_biases[i] = g.sum(0)
        g = g @ net.weights[i]
    return d_weights, d_biases, g


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),
       rows=st.one_of(st.none(), st.integers(1, 6)),
       activation=st.sampled_from([SIGMOID_HIDDEN, SIGMOID_ALL]),
       l2=st.sampled_from([0.0, 0.001, 0.5]),
       given_acts=st.booleans(),
       zero_cols=st.lists(st.booleans(), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_backward_matches_the_naive_formula(dims, rows, activation, l2, given_acts, zero_cols,
                                            seed):
    # rows=None is a 1-D input row; zeroed upstream columns give zero gradient entries,
    # where skipping the l2 term when l2 == 0 could only change the sign of a zero
    rng = np.random.default_rng(seed)
    net = init_net(dims, activation=activation, l2_coefficient=l2, rng=rng)
    x = rng.normal(size=dims[0] if rows is None else (rows, dims[0]))
    up = rng.normal(size=(1 if rows is None else rows, dims[-1]))
    up[:, np.array(zero_cols[:dims[-1]])] = 0.0
    up_bytes = up.tobytes()
    acts = activations(net, x) if given_acts else None
    d_weights, d_biases, d_input = naive_backward(net, x, up)

    full = backward(net, x, up, acts)
    partial = backward(net, x, up, acts, params=False)
    assert up.tobytes() == up_bytes
    assert_same_bytes(full.d_input, d_input)
    assert_same_bytes(partial.d_input, d_input)
    assert partial.d_weights is None and partial.d_biases is None
    for got, want in zip(full.d_weights + full.d_biases, d_weights + d_biases):
        assert np.array_equal(got, want)

    stepped = sgd_step(net.copy(), full, 0.1)
    for got, w, dw in zip(stepped.weights + stepped.biases, net.weights + net.biases,
                          d_weights + d_biases):
        assert_same_bytes(got, w - 0.1 * dw)
    with pytest.raises(TypeError):
        sgd_step(net.copy(), partial, 0.1)


def test_init_net_bounds_and_determinism():
    net = init_net([10, 20, 5], rng=123)
    r0 = np.sqrt(6.0 / (10 + 20))
    r1 = np.sqrt(6.0 / (20 + 5))
    assert np.abs(net.weights[0]).max() <= r0
    assert np.abs(net.weights[1]).max() <= r1
    assert all(np.all(b == 0) for b in net.biases)
    again = init_net([10, 20, 5], rng=123)
    for a, b in zip(net.weights, again.weights):
        assert np.array_equal(a, b)


def test_init_net_validates_dims():
    with pytest.raises(ConfigurationError):
        init_net([5], rng=0)
    with pytest.raises(ConfigurationError):
        init_net([5, 0, 3], rng=0)


def test_sgd_step_arithmetic():
    net = init_net([2, 2], rng=5)
    w_before = net.weights[0].copy()
    b_before = net.biases[0].copy()
    bundle = zero_bundle(net, 1)
    bundle.d_weights[0][:] = 1.0
    bundle.d_biases[0][:] = 2.0
    sgd_step(net, bundle, lr=0.1)
    assert np.allclose(net.weights[0], w_before - 0.1)
    assert np.allclose(net.biases[0], b_before - 0.2)


def test_sgd_step_rejects_bad_lr():
    net = init_net([2, 2], rng=0)
    with pytest.raises(ConfigurationError):
        sgd_step(net, zero_bundle(net, 1), lr=0.0)


def test_bundle_accumulate_and_scale():
    net = init_net([3, 2], rng=1)
    x = np.random.default_rng(2).normal(size=(4, 3))
    up = np.ones((4, 2))
    b1 = backward(net, x, up)
    b2 = backward(net, x, up)
    b1.accumulate(b2)
    # parameter gradients only: d_input belongs to b1's own batch
    assert np.array_equal(b1.d_input, b2.d_input)
    b1.scale(0.5)
    b3 = backward(net, x, up)
    for li in range(net.n_layers):
        assert np.allclose(b1.d_weights[li], b3.d_weights[li], atol=1e-12)
        assert np.allclose(b1.d_biases[li], b3.d_biases[li], atol=1e-12)
    assert np.allclose(b1.d_input, 0.5 * b3.d_input, atol=1e-12)


def test_l2_penalty_value():
    net = DenseNet(
        layer_dims=[2, 2],
        weights=[np.array([[1.0, 2.0], [3.0, 4.0]])],
        biases=[np.array([10.0, 10.0])],
        l2_coefficient=0.1,
    )
    # biases excluded: 0.5 * 0.1 * (1 + 4 + 9 + 16)
    assert np.isclose(l2_penalty(net), 1.5)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    net = init_net([7, 13, 4], activation=SIGMOID_ALL, l2_coefficient=0.003, rng=99)
    path = tmp_path / "net.json"
    save_net(net, path)
    loaded = load_net(path)
    assert loaded.layer_dims == net.layer_dims
    assert loaded.activation == net.activation
    assert loaded.l2_coefficient == net.l2_coefficient
    for a, b in zip(net.weights, loaded.weights):
        assert np.array_equal(a, b)
    for a, b in zip(net.biases, loaded.biases):
        assert np.array_equal(a, b)
    header = json.loads(path.read_text())
    assert header["dtype"] == "<f8"


def test_checkpoint_detects_truncation(tmp_path):
    net = init_net([3, 2], rng=0)
    path = tmp_path / "net.json"
    save_net(net, path)
    bin_path = tmp_path / json.loads(path.read_text())["data_file"]
    raw = bin_path.read_bytes()
    bin_path.write_bytes(raw[:-8])
    with pytest.raises(DimensionError):
        load_net(path)


def test_densenet_shape_validation():
    with pytest.raises(DimensionError):
        DenseNet(
            layer_dims=[3, 2],
            weights=[np.zeros((2, 4))],
            biases=[np.zeros(2)],
        )
    with pytest.raises(DimensionError):
        DenseNet(
            layer_dims=[3, 2],
            weights=[np.zeros((2, 3))],
            biases=[np.zeros(3)],
        )
    for bad_l2 in (np.nan, np.inf, True, "0.1"):
        with pytest.raises(ConfigurationError, match="l2_coefficient"):
            DenseNet([2, 2], [np.eye(2)], [np.zeros(2)], l2_coefficient=bad_l2)
