import math

import numpy as np
import pytest

from pmvl.adversarial import (
    AdversarialModel,
    GanConfig,
    adversarial_loss,
    combined_upstreams,
    discriminator_gradients,
    generator_fills,
    impute,
    latent_gradient,
    load_gan,
    save_gan,
    train_unsupervised,
)
from pmvl.data import MissingSpec, MultiViewDataset, apply_missing_pattern, synth_dataset
from pmvl.errors import ConfigurationError, DimensionError, InputError, TrainingError
from pmvl.latent import LatentTable, init_latent_model, reconstruction_loss
from pmvl.metrics import evaluate_clustering, nrmse
from pmvl.nets import SIGMOID_ALL, SIGMOID_HIDDEN, DenseNet, backward, init_net, sgd_step


def linear_net(w, b):
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    return DenseNet(
        layer_dims=[w.shape[1], w.shape[0]],
        weights=[w],
        biases=[np.asarray(b, dtype=np.float64).reshape(-1)],
        activation=SIGMOID_HIDDEN,
    )


def sigmoid_net(w, b):
    net = linear_net(w, b)
    net.activation = SIGMOID_ALL
    return net


def tiny_model(h, gens, discs, **cfg):
    cfg.setdefault("latent_dim", np.atleast_2d(h).shape[1])
    return AdversarialModel(
        latent=LatentTable(np.atleast_2d(np.asarray(h, dtype=np.float64))),
        generators=gens,
        discriminators=discs,
        config=GanConfig(**cfg),
    )


def masked_dataset(rng, n=6, view_dims=(3, 2), missing=True):
    views = [rng.normal(size=(n, d)) for d in view_dims]
    mask = np.ones((n, len(view_dims)), dtype=np.uint8)
    if missing:
        for i in range(1, n):
            mask[i, i % len(view_dims)] = 0
    for v, col in enumerate(mask.T):
        views[v][col == 0] = 0.0
    return MultiViewDataset(views, mask)


# ------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ConfigurationError):
        GanConfig(latent_dim=0)
    with pytest.raises(ConfigurationError):
        GanConfig(lr=-0.1)
    with pytest.raises(ConfigurationError):
        GanConfig(adv_weight=-0.5)
    with pytest.raises(ConfigurationError):
        GanConfig(d_steps=0)
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        GanConfig(seed=-1)
    GanConfig(adv_weight=0.0)  # the no-adversary ablation is legal


def test_config_roundtrip():
    cfg = GanConfig(latent_dim=5, hidden_dims=(7, 3), adv_weight=0.25)
    assert GanConfig.from_dict(cfg.to_dict()) == cfg


# ------------------------------------------------------------ losses

def test_adversarial_loss_half_scoring_discriminator():
    # zero-weight sigmoid discriminators output exactly 0.5 everywhere, so
    # each view with missing rows contributes 2 log(1/2)
    rng = np.random.default_rng(0)
    data = masked_dataset(rng, view_dims=(3, 2))
    gens = [linear_net(rng.normal(size=(d, 2)), np.zeros(d)) for d in (3, 2)]
    discs = [sigmoid_net(np.zeros((1, d)), [0.0]) for d in (3, 2)]
    model = tiny_model(rng.normal(size=(data.n_samples, 2)), gens, discs)
    assert np.isclose(adversarial_loss(model, data), 2 * 2 * math.log(0.5))


def test_adversarial_loss_skips_complete_views():
    rng = np.random.default_rng(1)
    data = masked_dataset(rng, view_dims=(3, 2))
    data.mask[:, 1] = 1  # second view now complete
    gens = [linear_net(rng.normal(size=(d, 2)), np.zeros(d)) for d in (3, 2)]
    discs = [sigmoid_net(np.zeros((1, d)), [0.0]) for d in (3, 2)]
    model = tiny_model(rng.normal(size=(data.n_samples, 2)), gens, discs)
    assert np.isclose(adversarial_loss(model, data), 2 * math.log(0.5))


def test_adversarial_loss_inert_on_complete_data():
    rng = np.random.default_rng(2)
    data = masked_dataset(rng, missing=False)
    gens = [linear_net(rng.normal(size=(d, 2)), np.zeros(d)) for d in (3, 2)]
    discs = [sigmoid_net(rng.normal(size=(1, d)), [0.1]) for d in (3, 2)]
    model = tiny_model(rng.normal(size=(data.n_samples, 2)), gens, discs)
    assert adversarial_loss(model, data) == 0.0
    assert discriminator_gradients(model, data, generator_fills(model, data)) == [None, None]


def test_adversarial_loss_matches_hand_computation():
    # one scalar view with 2 observed rows and 1 missing; the complete
    # second view is skipped. G(h) = 2h + 0.5, D(x) = sigmoid(1.5x - 0.2)
    x0 = np.array([[0.3], [0.9], [0.0]])
    x1 = np.ones((3, 1))
    mask = np.array([[1, 1], [1, 1], [0, 1]])
    data = MultiViewDataset([x0, x1], mask)
    h = np.array([[0.1], [0.4], [-0.3]])
    model = tiny_model(
        h,
        [linear_net([[2.0]], [0.5]), linear_net([[1.0]], [0.0])],
        [sigmoid_net([[1.5]], [-0.2]), sigmoid_net([[1.0]], [0.0])],
    )

    def sig(t):
        return 1.0 / (1.0 + math.exp(-t))

    real = (math.log(sig(1.5 * 0.3 - 0.2)) + math.log(sig(1.5 * 0.9 - 0.2))) / 2
    fake = math.log(1.0 - sig(1.5 * (2 * -0.3 + 0.5) - 0.2))
    assert abs(adversarial_loss(model, data) - (real + fake)) < 1e-10


def test_adversarial_loss_finite_under_saturated_discriminator():
    x0 = np.array([[5.0], [9.0], [0.0]])
    data = MultiViewDataset([x0, np.ones((3, 1))], np.array([[1, 1], [1, 1], [0, 1]]))
    model = tiny_model(
        np.array([[100.0], [1.0], [-100.0]]),
        [linear_net([[1.0]], [0.0]), linear_net([[1.0]], [0.0])],
        [sigmoid_net([[1e4]], [0.0]), sigmoid_net([[1.0]], [0.0])],
    )
    assert np.isfinite(adversarial_loss(model, data))


def test_unsup_reconstruction_loss_zero_for_perfect_generators():
    h = np.array([[0.2, -0.4], [1.0, 0.5]])
    data = MultiViewDataset([h.copy()], np.ones((2, 1)))
    model = tiny_model(h, [linear_net(np.eye(2), np.zeros(2))],
                       [sigmoid_net(np.zeros((1, 2)), [0.0])])
    assert reconstruction_loss(model.generators, model.latent, data) == 0.0


def test_unsup_reconstruction_loss_matches_oracle():
    rng = np.random.default_rng(3)
    data = masked_dataset(rng)
    gens = [linear_net(rng.normal(size=(d, 2)), rng.normal(size=d)) for d in (3, 2)]
    discs = [sigmoid_net(np.zeros((1, d)), [0.0]) for d in (3, 2)]
    h = rng.normal(size=(data.n_samples, 2))
    model = tiny_model(h, gens, discs)
    total = 0.0
    for n in range(data.n_samples):
        for v in range(data.n_views):
            if data.mask[n, v]:
                pred = gens[v].weights[0] @ h[n] + gens[v].biases[0]
                total += ((pred - data.views[v][n]) ** 2).sum()
    loss = reconstruction_loss(model.generators, model.latent, data)
    assert np.isclose(loss, total / data.n_samples)


# ------------------------------------------------- gradient oracles

def combined_value(model, data):
    return (model.config.adv_weight * adversarial_loss(model, data)
            + reconstruction_loss(model.generators, model.latent, data))


def random_model_and_data(seed, adv_weight=0.8):
    rng = np.random.default_rng(seed)
    data = masked_dataset(rng, n=5, view_dims=(3, 2))
    cfg = GanConfig(latent_dim=2, adv_weight=adv_weight, seed=seed)
    gens = [init_net([2, 4, d], activation=SIGMOID_HIDDEN, rng=rng) for d in (3, 2)]
    discs = [init_net([d, 4, 1], activation=SIGMOID_ALL, rng=rng) for d in (3, 2)]
    model = AdversarialModel(
        latent=LatentTable(rng.normal(scale=0.5, size=(5, 2))),
        generators=gens,
        discriminators=discs,
        config=cfg,
    )
    return model, data


def test_discriminator_gradients_match_finite_differences():
    eps = 1e-5
    for seed in range(3):
        model, data = random_model_and_data(seed)
        grads = discriminator_gradients(model, data, generator_fills(model, data))
        for v, disc in enumerate(model.discriminators):
            for layer in range(disc.n_layers):
                w = disc.weights[layer]
                for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                    keep = w[idx]
                    w[idx] = keep + eps
                    up = adversarial_loss(model, data)
                    w[idx] = keep - eps
                    down = adversarial_loss(model, data)
                    w[idx] = keep
                    fd = (up - down) / (2 * eps)
                    got = grads[v].d_weights[layer][idx]
                    assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd))


def test_generator_gradients_match_finite_differences():
    eps = 1e-5
    for seed in range(3):
        model, data = random_model_and_data(seed)
        ups = combined_upstreams(model, data)
        for v, gen in enumerate(model.generators):
            bundle = backward(gen, model.latent.H, ups[v])
            for layer in range(gen.n_layers):
                w = gen.weights[layer]
                for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                    keep = w[idx]
                    w[idx] = keep + eps
                    up = combined_value(model, data)
                    w[idx] = keep - eps
                    down = combined_value(model, data)
                    w[idx] = keep
                    fd = (up - down) / (2 * eps)
                    got = bundle.d_weights[layer][idx]
                    assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd))


def test_latent_gradient_matches_finite_differences():
    eps = 1e-5
    for seed in range(3):
        model, data = random_model_and_data(seed)
        g = latent_gradient(model, data) / data.n_samples
        rng = np.random.default_rng(seed + 100)
        for _ in range(6):
            i = int(rng.integers(data.n_samples))
            j = int(rng.integers(model.latent.dim))
            keep = model.latent.H[i, j]
            model.latent.H[i, j] = keep + eps
            up = combined_value(model, data)
            model.latent.H[i, j] = keep - eps
            down = combined_value(model, data)
            model.latent.H[i, j] = keep
            fd = (up - down) / (2 * eps)
            assert abs(g[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_discriminator_ascent_step_increases_loss():
    model, data = random_model_and_data(7)
    before = adversarial_loss(model, data)
    fills = generator_fills(model, data)
    for disc, bundle in zip(model.discriminators, discriminator_gradients(model, data, fills)):
        if bundle is None:
            continue
        for i in range(len(bundle.d_weights)):
            bundle.d_weights[i] *= -1.0
            bundle.d_biases[i] *= -1.0
        sgd_step(disc, bundle, 1e-3)
    assert adversarial_loss(model, data) > before


# ------------------------------------------------------------ training

def small_gan(**kw):
    base = dict(latent_dim=4, lr=0.05, epochs=30, seed=0, hidden_dims=(8,))
    base.update(kw)
    return GanConfig(**base)


def test_train_unsupervised_is_deterministic():
    data = apply_missing_pattern(
        synth_dataset(40, 2, 4, [6, 5], seed=0, noise_scale=0.05),
        MissingSpec(0.3, seed=0))
    m1 = train_unsupervised(data, small_gan())
    m2 = train_unsupervised(data, small_gan())
    assert m1.rec_trace == m2.rec_trace
    assert m1.d_trace == m2.d_trace
    assert np.array_equal(m1.latent.H, m2.latent.H)


def test_train_records_all_three_traces():
    data = apply_missing_pattern(
        synth_dataset(30, 2, 4, [6, 5], seed=1, noise_scale=0.05),
        MissingSpec(0.3, seed=1))
    model = train_unsupervised(data, small_gan(epochs=12))
    assert len(model.d_trace) == len(model.g_trace) == len(model.rec_trace) == 12
    assert np.isfinite(model.rec_trace).all()


def test_train_reconstruction_descends():
    data = apply_missing_pattern(
        synth_dataset(40, 2, 4, [6, 5], seed=2, noise_scale=0.05),
        MissingSpec(0.3, seed=2))
    model = train_unsupervised(data, small_gan(epochs=60))
    assert model.rec_trace[-1] < model.rec_trace[0]


def test_complete_data_makes_adversary_inert():
    # no missing rows anywhere: both adv_weight settings must walk the
    # exact same path, and the adversarial trace must sit at zero
    data = synth_dataset(30, 2, 4, [6, 5], seed=3, noise_scale=0.05)
    with_adv = train_unsupervised(data, small_gan(adv_weight=1.0))
    without = train_unsupervised(data, small_gan(adv_weight=0.0))
    assert with_adv.rec_trace == without.rec_trace
    assert with_adv.d_trace == [0.0] * 30
    assert np.array_equal(with_adv.latent.H, without.latent.H)


def reference_training(data, config):
    """train_unsupervised's epochs out of public calls that evaluate every net afresh."""
    latent, gens, rng = init_latent_model(data, config)
    discs = [init_net([d, *reversed(config.hidden_dims), 1], activation=SIGMOID_ALL, rng=rng)
             for d in data.view_dims]
    model = AdversarialModel(latent, gens, discs, config)
    for _ in range(config.epochs):
        fills = generator_fills(model, data)
        for _ in range(config.d_steps):
            for disc, bundle in zip(discs, discriminator_gradients(model, data, fills)):
                if bundle is not None:
                    sgd_step(disc, bundle.scale(-1.0), config.lr)
        model.d_trace.append(adversarial_loss(model, data))
        for v, u in enumerate(combined_upstreams(model, data)):
            sgd_step(gens[v], backward(gens[v], latent.H, u), config.lr)
        model.g_trace.append(config.adv_weight * adversarial_loss(model, data)
                             + reconstruction_loss(gens, latent, data))
        g = np.zeros_like(latent.H)
        for gen, u in zip(gens, combined_upstreams(model, data)):
            g += backward(gen, latent.H, u).d_input
        latent.H -= config.lr * (data.n_samples * g)
        model.rec_trace.append(reconstruction_loss(gens, latent, data))
    return model


@pytest.mark.parametrize("eta,adv_weight,d_steps",
                         [(0.4, 0.1, 1), (0.4, 0.1, 3), (0.4, 0.0, 1), (0.4, 0.0, 3), (0.0, 1.0, 2)])
def test_training_is_byte_equal_to_the_reference_loop(eta, adv_weight, d_steps):
    data = synth_dataset(30, 2, 4, [6, 5], seed=9, noise_scale=0.05)
    if eta:
        data = apply_missing_pattern(data, MissingSpec(eta, seed=9))
    config = small_gan(epochs=8, adv_weight=adv_weight, d_steps=d_steps)
    got, want = train_unsupervised(data, config), reference_training(data, config)
    for trace in ("d_trace", "g_trace", "rec_trace"):
        assert np.array(getattr(got, trace)).tobytes() == np.array(getattr(want, trace)).tobytes()
    assert got.latent.H.tobytes() == want.latent.H.tobytes()
    for a, b in zip(got.generators + got.discriminators, want.generators + want.discriminators):
        for pa, pb in zip(a.weights + a.biases, b.weights + b.biases):
            assert pa.tobytes() == pb.tobytes()


def test_train_divergence_names_the_phase():
    data = apply_missing_pattern(
        synth_dataset(30, 2, 4, [6, 5], seed=4, noise_scale=0.05),
        MissingSpec(0.3, seed=4))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="phase diverged at epoch"):
            train_unsupervised(data, small_gan(lr=1e4, epochs=50))


# ------------------------------------------------------------ imputation

def trained_pair(seed=5, eta=0.4, n=40):
    truth = synth_dataset(n, 2, 4, [6, 5], seed=seed, noise_scale=0.05)
    masked = apply_missing_pattern(truth, MissingSpec(eta, seed=seed))
    model = train_unsupervised(masked, small_gan(epochs=40, seed=seed))
    return truth, masked, model


def test_impute_preserves_observed_entries_bit_exactly():
    truth, masked, model = trained_pair()
    result = impute(model, masked)
    for v in range(masked.n_views):
        obs = masked.mask[:, v] == 1
        assert np.array_equal(result.completed.views[v][obs], masked.views[v][obs])
    assert (result.completed.mask == 1).all()


def test_impute_fills_only_missing_rows():
    truth, masked, model = trained_pair()
    result = impute(model, masked)
    for v in range(masked.n_views):
        hole = masked.mask[:, v] == 0
        assert not np.array_equal(result.completed.views[v][hole], masked.views[v][hole])


def test_impute_nothing_missing_is_identity_with_no_report():
    data = synth_dataset(20, 2, 4, [6, 5], seed=6, noise_scale=0.05)
    model = train_unsupervised(data, small_gan(epochs=10))
    result = impute(model, data, truth=data)
    for v in range(data.n_views):
        assert np.array_equal(result.completed.views[v], data.views[v])
    assert result.per_view_nrmse is None
    assert result.overall_nrmse is None


def test_impute_nrmse_matches_independent_recomputation():
    truth, masked, model = trained_pair()
    result = impute(model, masked, truth=truth)
    report = nrmse(result.completed.views, truth.views, masked.mask == 0)
    assert result.per_view_nrmse == report.per_view
    assert result.overall_nrmse == report.overall


def test_impute_row_count_mismatch_rejected():
    truth, masked, model = trained_pair()
    with pytest.raises(InputError):
        impute(model, masked.take(np.arange(10)))


@pytest.mark.parametrize("dims,match", [([7, 5], "view 0 is 6 wide"), ([6, 5, 4], "2 views")])
def test_impute_rejects_data_with_other_views(dims, match):
    truth, masked, model = trained_pair()
    data = synth_dataset(masked.n_samples, 2, 4, dims, seed=5)
    with pytest.raises(DimensionError, match=match):
        impute(model, data)


def test_trained_latents_shape_and_clustering_signal():
    truth = synth_dataset(120, 3, 6, [10, 8], seed=7, noise_scale=0.05)
    masked = apply_missing_pattern(truth, MissingSpec(0.3, seed=7))
    model = train_unsupervised(masked, small_gan(latent_dim=8, epochs=150, seed=7))
    table = model.latent
    assert table.n_rows == truth.n_samples
    assert np.isfinite(table.H).all()
    report = evaluate_clustering(table.H, truth.labels, seed=0)
    assert report.acc > 1.0 / 3.0


# ------------------------------------------------------------ checkpoints

def test_gan_checkpoint_roundtrip(tmp_path):
    truth, masked, model = trained_pair(seed=8, n=25)
    path = save_gan(model, tmp_path / "gan")
    back = load_gan(path)
    assert back.config == model.config
    assert np.array_equal(back.latent.H, model.latent.H)
    assert back.rec_trace == model.rec_trace
    for a, b in zip(model.generators + model.discriminators,
                    back.generators + back.discriminators):
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
    ra = impute(model, masked, truth=truth)
    rb = impute(back, masked, truth=truth)
    assert ra.overall_nrmse == rb.overall_nrmse
