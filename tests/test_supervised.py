import warnings
from dataclasses import replace

import numpy as np
import pytest

import pmvl.nets
from pmvl.data import (
    MissingSpec,
    MultiViewDataset,
    apply_missing_pattern,
    split,
    synth_dataset,
)
from pmvl.errors import ConfigurationError, DimensionError, InputError, TrainingError
from pmvl.latent import (
    LatentTable,
    init_latent_model,
    reconstruction_loss,
    residual,
    residuals,
    squared_error,
)
from pmvl.nets import (
    SIGMOID_HIDDEN, DenseNet, activations, backward, forward, l2_penalty, sgd_step,
)
from pmvl.supervised import (
    SupervisedModel,
    TrainConfig,
    class_centroids,
    classification_loss,
    evaluate,
    infer_latents,
    latent_gradients,
    load_model,
    retune,
    save_model,
    train,
)


def identity_net(d):
    return DenseNet(
        layer_dims=[d, d],
        weights=[np.eye(d)],
        biases=[np.zeros(d)],
        activation=SIGMOID_HIDDEN,
    )


def random_dataset(rng, n=6, view_dims=(3, 4), classes=2, holes=True):
    views = [rng.normal(size=(n, d)) for d in view_dims]
    mask = np.ones((n, len(view_dims)), dtype=np.uint8)
    if holes:
        # poke holes but keep every row alive
        for i in range(1, n):
            mask[i, i % len(view_dims)] = 0
    for v, col in enumerate(mask.T):
        views[v][col == 0] = 0.0
    labels = rng.integers(0, classes, size=n)
    labels[:classes] = np.arange(classes)  # every class present
    return MultiViewDataset(views, mask, labels)


# ---------------------------------------------------------------- losses

def test_reconstruction_loss_zero_on_exact_nets():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(5, 3))
    data = MultiViewDataset([h.copy()], np.ones((5, 1)), labels=np.zeros(5, dtype=int))
    assert reconstruction_loss([identity_net(3)], LatentTable(h), data) == 0.0


def test_reconstruction_loss_single_sample_unit_error():
    # identity net, h=(1,0) against x=(0,0): squared distance is exactly 1
    data = MultiViewDataset([np.zeros((1, 2))], np.ones((1, 1)))
    loss = reconstruction_loss([identity_net(2)], LatentTable(np.array([[1.0, 0.0]])), data)
    assert loss == 1.0


def test_reconstruction_loss_masked_sample_contributes_zero():
    rng = np.random.default_rng(1)
    views = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]
    mask = np.array([[1, 1], [0, 1], [1, 1]])
    views[0][1] = 0.0
    data = MultiViewDataset([v.copy() for v in views], mask)
    nets = [identity_net(2), identity_net(2)]
    h = rng.normal(size=(3, 2))
    base = reconstruction_loss(nets, LatentTable(h), data)
    h2 = h.copy()
    h2[1] += 100.0  # only visible through the masked view of row 1
    data2 = data.take(np.arange(data.n_samples))
    data2.views[1][1] = forward(nets[1], h2[1:2])[0]  # keep the observed view exact
    data.views[1][1] = forward(nets[1], h[1:2])[0]
    a = reconstruction_loss(nets, LatentTable(h), data)
    b = reconstruction_loss(nets, LatentTable(h2), data2)
    assert a == b  # row 1's masked view never enters
    assert np.isclose(base, reconstruction_loss(nets, LatentTable(h), data) + (
        (forward(nets[1], h[1:2])[0] - views[1][1]) ** 2).sum() / 3)


def test_classification_loss_zero_when_argmax_correct():
    centroids = np.array([[2.0, 0.0], [0.0, 2.0]])
    h = centroids[np.array([0, 1, 0, 1])]
    loss = classification_loss(LatentTable(h), np.array([0, 1, 0, 1]), centroids)
    assert loss == 0.0


def test_classification_loss_two_class_scalar_case():
    # centroids -1 and +1 in 1-D, h=0.2 labeled 0: argmax is class 1,
    # term = 1 + 0.2 - (-0.2) = 1.4
    centroids = np.array([[-1.0], [1.0]])
    loss = classification_loss(LatentTable(np.array([[0.2]])), np.array([0]), centroids)
    assert np.isclose(loss, 1.4)


def test_classification_loss_misclassified_gap_term():
    # orthogonal centroids, h scores 0.5 for its own class and 0.8 for the
    # rival: one sample contributes 1 + 0.3
    centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
    h = np.array([[0.5, 0.8]])
    loss = classification_loss(LatentTable(h), np.array([0]), centroids)
    assert np.isclose(loss, 1.3)


def test_classification_loss_mean_over_samples():
    centroids = np.array([[-1.0], [1.0]])
    h = np.array([[0.2], [-3.0]])  # second sample is comfortably correct
    loss = classification_loss(LatentTable(h), np.array([0, 0]), centroids)
    assert np.isclose(loss, 1.4 / 2)


def test_class_centroids_empty_class_raises():
    with pytest.raises(TrainingError):
        class_centroids(np.zeros((2, 3)), np.array([0, 0]), 2)


# ------------------------------------------------- latent gradient oracle

def full_objective(nets, h, data, centroids, lam):
    rec = reconstruction_loss(nets, LatentTable(h), data)
    cls = classification_loss(LatentTable(h), data.labels, centroids)
    return rec + lam * cls


def test_latent_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    checked = 0
    attempts = 0
    while checked < 5 and attempts < 50:
        attempts += 1
        data = random_dataset(rng)
        from pmvl.nets import init_net
        nets = [init_net([3, 4, d], rng=rng) for d in data.view_dims]
        h = rng.normal(size=(data.n_samples, 3))
        centroids = rng.normal(size=(data.n_classes, 3))
        # keep away from argmax flips: the top-two score gap must clear the
        # FD step by a wide factor (correct rows are identically zero
        # nearby, misclassified terms sit at 1 + gap, far from the hinge)
        scores = h @ centroids.T
        part = np.sort(scores, axis=1)
        if np.min(part[:, -1] - part[:, -2]) < 1e-2:
            continue
        lam = 0.7
        g = latent_gradients(nets, LatentTable(h), data, data.labels, centroids, lam)
        g = g / data.n_samples  # dataset-level objective divides by N
        eps = 1e-5
        for _ in range(6):
            i = rng.integers(data.n_samples)
            j = rng.integers(3)
            hp, hm = h.copy(), h.copy()
            hp[i, j] += eps
            hm[i, j] -= eps
            fd = (full_objective(nets, hp, data, centroids, lam)
                  - full_objective(nets, hm, data, centroids, lam)) / (2 * eps)
            assert abs(g[i, j] - fd) <= 1e-4 * max(1.0, abs(fd))
        checked += 1
    assert checked == 5


def test_masked_slot_junk_is_bit_exactly_ignored():
    # masked entries are multiplied by a zero mask before anything else, so
    # overwriting them with garbage must not change loss or gradients
    rng = np.random.default_rng(4)
    data = random_dataset(rng)
    from pmvl.nets import init_net
    nets = [init_net([3, 4, d], rng=rng) for d in data.view_dims]
    h = rng.normal(size=(data.n_samples, 3))
    centroids = rng.normal(size=(data.n_classes, 3))
    junk = data.take(np.arange(data.n_samples))
    for v in range(junk.n_views):
        hole = junk.mask[:, v] == 0
        junk.views[v][hole] = 1e6
    a = reconstruction_loss(nets, LatentTable(h), data)
    b = reconstruction_loss(nets, LatentTable(h), junk)
    assert a == b
    ga = latent_gradients(nets, LatentTable(h), data, data.labels, centroids, 1.0)
    gb = latent_gradients(nets, LatentTable(h), junk, junk.labels, centroids, 1.0)
    assert np.array_equal(ga, gb)


# ------------------------------------------------------------- training

def test_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(latent_dim=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(lam=-1.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(infer_lr=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(hidden_dims=(8, 0))
    with pytest.raises(ConfigurationError):
        TrainConfig(retune_epochs=-1)
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        TrainConfig(seed=-1)


def test_config_roundtrip():
    cfg = TrainConfig(latent_dim=7, hidden_dims=(5, 3), infer_lr=0.2)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def small_config(**kw):
    base = dict(latent_dim=8, lam=1.0, lr_nets=0.05, lr_latent=0.02,
                epochs=60, infer_iters=100, seed=0, hidden_dims=(16,))
    base.update(kw)
    return TrainConfig(**base)


def test_train_objective_descends():
    data = synth_dataset(60, 2, 4, [6, 5], seed=0, noise_scale=0.05)
    model = train(data, small_config())
    assert model.objective_trace[-1] < model.objective_trace[0]


def test_train_is_deterministic():
    data = synth_dataset(40, 2, 4, [6, 5], seed=1, noise_scale=0.05)
    m1 = train(data, small_config(epochs=20))
    m2 = train(data, small_config(epochs=20))
    assert m1.objective_trace == m2.objective_trace
    assert np.array_equal(m1.latent.H, m2.latent.H)
    for a, b in zip(m1.recon_nets, m2.recon_nets):
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)


def test_train_requires_labels():
    data = synth_dataset(20, 2, 4, [6], seed=0)
    data = MultiViewDataset(data.views, data.mask)  # drop labels
    with pytest.raises(InputError):
        train(data, small_config())


def test_train_on_labels_lacking_a_class_names_it():
    data = synth_dataset(30, 3, 4, [6, 5], seed=0, noise_scale=0.05)
    data = data.take(np.flatnonzero(data.labels != 1))  # labels {0, 2}: 3 classes counted
    with pytest.raises(TrainingError, match="class 1 has no samples"):
        train(data, small_config(epochs=5))


def test_train_divergence_raises():
    data = synth_dataset(30, 2, 4, [6, 5], seed=2, noise_scale=0.05)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError):
        train(data, small_config(lr_nets=50.0, lr_latent=50.0, epochs=200))


def test_train_convex_subcase_trace_never_rises():
    # single linear layer and one class: the margin loss is identically
    # zero, so small steps on the smooth remainder can only descend
    data = synth_dataset(30, 2, 3, [4, 3], seed=3, noise_scale=0.05)
    data.labels[:] = 0
    cfg = small_config(latent_dim=3, hidden_dims=(), lr_nets=0.01,
                       lr_latent=0.01, epochs=80)
    model = train(data, cfg)
    diffs = np.diff(model.objective_trace)
    assert (diffs <= 1e-9).all()


def full_pullback(nets, h, upstreams):
    """Sum over views of dL/dh from full backward calls, parameter gradients and all."""
    g = np.zeros_like(h)
    for net, u in zip(nets, upstreams):
        g += backward(net, h, u).d_input
    return g


def reference_train(data, config):
    """train's loop with every net evaluated afresh: (latents, nets, centroids, trace)."""
    n, labels = data.n_samples, data.labels
    latent, nets, _ = init_latent_model(data, config, config.l2_coefficient)
    h = latent.H
    trace = []
    for _ in range(config.epochs):
        centroids = class_centroids(h, labels, data.n_classes)
        for net, r in zip(nets, residuals(nets, h, data.views, data.mask)):
            sgd_step(net, backward(net, h, (2.0 / n) * r), config.lr_nets)
        res = residuals(nets, h, data.views, data.mask)
        g = full_pullback(nets, h, [2.0 * r for r in res])
        predicted = (h @ centroids.T).argmax(axis=1)
        mis = predicted != labels
        g[mis] += config.lam * (centroids[predicted[mis]] - centroids[labels[mis]])
        h = h - config.lr_latent * g
        trace.append(reconstruction_loss(nets, LatentTable(h), data)
                     + config.lam * classification_loss(LatentTable(h), labels, centroids)
                     + sum(l2_penalty(net) for net in nets))
        prev = trace[-11] if len(trace) > 10 else None  # the objective 10 epochs back
        if prev is not None and abs(prev - trace[-1]) < config.tol * max(abs(prev), 1e-12):
            break
    return h, nets, class_centroids(h, labels, data.n_classes), trace


@pytest.mark.parametrize("epochs, tol, stops_early", [(25, 1e-300, False), (200, 1e-2, True)])
def test_train_is_byte_equal_to_the_reference_loop(epochs, tol, stops_early):
    data = apply_missing_pattern(synth_dataset(30, 3, 4, [6, 5], seed=14, noise_scale=0.05),
                                 MissingSpec(0.3, seed=14))
    cfg = small_config(epochs=epochs, tol=tol)
    model = train(data, cfg)
    h, nets, centroids, trace = reference_train(data, cfg)
    assert (len(trace) < epochs) == stops_early
    assert model.objective_trace == trace
    assert model.latent.H.tobytes() == h.tobytes()
    assert model.centroids.tobytes() == centroids.tobytes()
    for a, b in zip(model.recon_nets, nets):
        for pa, pb in zip(a.weights + a.biases, b.weights + b.biases):
            assert pa.tobytes() == pb.tobytes()


@pytest.mark.parametrize("epochs, tol, stops_early", [(25, 1e-300, False), (200, 1e-2, True)])
def test_train_evaluates_each_decoder_twice_per_epoch(monkeypatch, epochs, tol, stops_early):
    # one hidden layer, so each pass over a decoder calls sigmoid exactly once
    data = apply_missing_pattern(synth_dataset(30, 3, 4, [6, 5], seed=14, noise_scale=0.05),
                                 MissingSpec(0.3, seed=14))
    calls = 0
    real = pmvl.nets.sigmoid

    def counted(x):
        nonlocal calls
        calls += 1
        return real(x)

    monkeypatch.setattr(pmvl.nets, "sigmoid", counted)
    model = train(data, small_config(epochs=epochs, tol=tol, hidden_dims=(16,)))
    epochs_run = len(model.objective_trace)
    assert (epochs_run < epochs) == stops_early
    assert calls == data.n_views * (2 * epochs_run + 1)


def test_latent_gradients_with_activations_are_byte_equal():
    data = apply_missing_pattern(synth_dataset(30, 3, 4, [6, 5], seed=15, noise_scale=0.05),
                                 MissingSpec(0.3, seed=15))
    model = train(data, small_config(epochs=5))
    nets, latent = model.recon_nets, model.latent
    acts = [activations(net, latent.H) for net in nets]
    args = (nets, latent, data, data.labels, model.centroids, 1.0)
    assert latent_gradients(*args, acts).tobytes() == latent_gradients(*args).tobytes()


# -------------------------------------------------------------- retuning

def test_retune_zero_epochs_is_identity():
    data = synth_dataset(30, 2, 4, [6, 5], seed=5, noise_scale=0.05)
    model = train(data, small_config(epochs=10, retune_epochs=0))
    model = retune(model, data)
    for a, b in zip(model.recon_nets, model.retuned_nets):
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)


def test_retune_never_raises_reconstruction_loss():
    data = synth_dataset(40, 2, 4, [6, 5], seed=6, noise_scale=0.05)
    model = train(data, small_config(epochs=25))
    before = reconstruction_loss(model.recon_nets, model.latent, data)
    tuned = retune(model, data)
    after = reconstruction_loss(tuned.retuned_nets, tuned.latent, data)
    assert after <= before + 1e-9


def test_retune_leaves_latents_and_centroids_alone():
    data = synth_dataset(30, 2, 4, [6, 5], seed=7, noise_scale=0.05)
    model = train(data, small_config(epochs=10))
    h0, c0 = model.latent.H.copy(), model.centroids.copy()
    tuned = retune(model, data)
    assert np.array_equal(tuned.latent.H, h0)
    assert np.array_equal(tuned.centroids, c0)


def reference_retune(model, data):
    """retune's loop with every net evaluated afresh; also returns the rejected attempts."""
    h, n = model.latent.H, data.n_samples
    nets = [net.copy() for net in model.recon_nets]
    rates = [model.config.lr_nets] * len(nets)
    rejected = 0

    def loss(net, v):
        r = residual(forward(net, h), data.views[v], data.mask[:, v:v + 1])
        return r, squared_error([r]) / n + l2_penalty(net)

    for _ in range(model.config.retune_epochs):
        for v in range(len(nets)):
            if rates[v] < 1e-15:
                continue
            r, before = loss(nets[v], v)
            while rates[v] >= 1e-15:
                candidate = nets[v].copy()
                sgd_step(candidate, backward(candidate, h, (2.0 / n) * r), rates[v])
                if loss(candidate, v)[1] <= before + 1e-9:
                    nets[v] = candidate
                    break
                rates[v] /= 2.0
                rejected += 1
    return nets, rejected


@pytest.mark.parametrize("lr_nets", [0.05, 20.0])
def test_retune_is_byte_equal_to_the_reference_loop(lr_nets):
    data = apply_missing_pattern(synth_dataset(30, 2, 4, [6, 5], seed=11, noise_scale=0.05),
                                 MissingSpec(0.3, seed=11))
    model = train(data, small_config(epochs=10, retune_epochs=15))
    model = replace(model, config=replace(model.config, lr_nets=lr_nets))
    want, rejected = reference_retune(model, data)
    assert lr_nets < 1 or rejected > 0  # the large rate exercises rollback and halving
    for a, b in zip(retune(model, data).retuned_nets, want):
        for pa, pb in zip(a.weights + a.biases, b.weights + b.biases):
            assert pa.tobytes() == pb.tobytes()


# ------------------------------------------------------ latent inference

def make_identity_model(d, retuned=True):
    net = identity_net(d)
    cfg = TrainConfig(latent_dim=d, infer_iters=500, infer_lr=0.1)
    return SupervisedModel(
        latent=LatentTable(np.zeros((1, d))),
        recon_nets=[net],
        centroids=np.eye(d),
        config=cfg,
        retuned_nets=[net.copy()] if retuned else None,
    )


def with_infer_iters(model, iters):
    return replace(model, config=replace(model.config, infer_iters=iters))


def rows_dataset(rows, labels=None):
    """One fully observed view holding the given rows."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return MultiViewDataset([rows], np.ones((len(rows), 1)), labels)


TARGET = np.array([[0.4, -1.2, 2.0], [-0.3, 0.0, 1.1]])


def test_infer_latent_identity_net_recovers_input():
    # single identity view: inference is least squares on ||h - x||^2
    h = infer_latents(make_identity_model(3), rows_dataset(TARGET))
    assert ((h - TARGET) ** 2).sum(axis=1).max() < 1e-4


def test_infer_latent_uses_config_inference_rate():
    # the step is infer_lr, else lr_latent; a rate too small to move shows it is read
    model = make_identity_model(3)
    data = rows_dataset(TARGET)
    h = infer_latents(model, data)
    cfg = model.config
    fallback = replace(model, config=replace(cfg, infer_lr=None, lr_latent=cfg.infer_lr))
    assert infer_latents(fallback, data).tobytes() == h.tobytes()
    slow = replace(model, config=replace(cfg, infer_lr=1e-6))
    assert ((infer_latents(slow, data) - TARGET) ** 2).sum(axis=1).min() > 1.0


def test_infer_latent_without_retuned_nets_runs_through_training_nets():
    # CPM-Nets' own test-time path: a model that was never re-tuned infers
    # through its training nets, and nothing warns
    untuned = make_identity_model(3, retuned=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = infer_latents(untuned, rows_dataset(TARGET))
    through_recon = replace(untuned, retuned_nets=untuned.recon_nets)
    assert h.tobytes() == infer_latents(through_recon, rows_dataset(TARGET)).tobytes()
    assert ((h - TARGET) ** 2).sum(axis=1).max() < 1e-4


def test_infer_latents_checks_the_nets_it_infers_through():
    model = make_identity_model(2)
    model = replace(model, retuned_nets=[identity_net(3)])
    with pytest.raises(DimensionError, match="view 0"):
        infer_latents(model, rows_dataset(np.ones(2)))


def test_infer_latents_matches_per_sample_calls():
    data = synth_dataset(25, 2, 4, [6, 5], seed=8, noise_scale=0.05)
    masked = apply_missing_pattern(data, MissingSpec(0.3, seed=8))
    model = train(masked, small_config(epochs=20))
    model = with_infer_iters(retune(model, masked), 40)
    batch = infer_latents(model, masked)
    for i in range(masked.n_samples):
        one = infer_latents(model, masked.take([i]))
        assert np.allclose(one[0], batch[i], atol=1e-12)


def test_infer_latents_is_byte_equal_to_the_reference_loop():
    data = apply_missing_pattern(synth_dataset(25, 2, 4, [6, 5], seed=12, noise_scale=0.05),
                                 MissingSpec(0.4, seed=12))
    model = retune(train(data, small_config(epochs=15, retune_epochs=5)), data)
    nets, lr = model.retuned_nets, model.config.lr_latent
    h = np.zeros((data.n_samples, model.config.latent_dim))
    res = residuals(nets, h, data.views, data.mask)
    best_h, best_loss = h.copy(), sum((r ** 2).sum(axis=1) for r in res)
    for _ in range(30):
        h = h - lr * full_pullback(nets, h, [2.0 * r for r in res])
        res = residuals(nets, h, data.views, data.mask)
        loss = sum((r ** 2).sum(axis=1) for r in res)
        better = loss < best_loss
        best_h[better] = h[better]
        best_loss[better] = loss[better]
    assert infer_latents(with_infer_iters(model, 30), data).tobytes() == best_h.tobytes()


def test_infer_latents_rejects_empty_row():
    model = make_identity_model(2)
    data = MultiViewDataset([np.ones((2, 2))], np.ones((2, 1)))
    data.mask[0, 0] = 0  # bypass the constructor check on purpose
    with pytest.raises(InputError):
        infer_latents(model, data)


def test_partial_and_full_views_both_yield_finite_latents():
    data = synth_dataset(30, 2, 4, [6, 5], seed=9, noise_scale=0.05)
    model = train(data, small_config(epochs=20))
    model = with_infer_iters(retune(model, data), 50)
    views = [v[[0, 0]] for v in data.views]  # sample 0 with both views, then with view 0 only
    views[1][1] = 0.0
    h = infer_latents(model, MultiViewDataset(views, np.array([[1, 1], [1, 0]])))
    assert np.isfinite(h).all()
    assert h.shape == (2, model.config.latent_dim)


def test_reinferred_training_latents_stay_aligned():
    # re-presenting a training sample at test time should land close to its
    # training-time latent in direction
    data = synth_dataset(60, 2, 4, [6, 5], seed=10, noise_scale=0.05)
    cfg = small_config(epochs=120, infer_iters=300, infer_lr=0.05)
    model = train(data, cfg)
    model = retune(model, data)
    h = infer_latents(model, data)
    ht = model.latent.H
    cos = (h * ht).sum(axis=1) / (
        np.linalg.norm(h, axis=1) * np.linalg.norm(ht, axis=1))
    assert cos.mean() > 0.9


# ------------------------------------------------------------ classifying

def test_classify_picks_matching_orthogonal_centroid():
    report = evaluate(make_identity_model(3), rows_dataset(2.0 * np.eye(3), [0, 1, 2]))
    assert report.accuracy == 1.0


def test_classify_tie_goes_to_smaller_id():
    # equal centroids score every row the same for every class
    model = replace(make_identity_model(3), centroids=np.tile([1.0, 0.0, 0.0], (3, 1)))
    report = evaluate(model, rows_dataset(np.vstack([TARGET, np.eye(3)]), [0, 1, 2, 0, 1]))
    assert report.confusion[:, 0].sum() == 5


def test_classify_matches_brute_force():
    rng = np.random.default_rng(11)
    centroids = rng.normal(size=(3, 4))
    model = SupervisedModel(
        latent=LatentTable(np.zeros((1, 4))),
        recon_nets=[identity_net(4)],
        centroids=centroids,
        config=TrainConfig(latent_dim=4),
        retuned_nets=[identity_net(4)],
    )
    rows = rng.normal(size=(25, 4))
    h = infer_latents(model, rows_dataset(rows))
    want = [int(np.argmax([c @ row for c in centroids])) for row in h]
    assert set(want) == {0, 1, 2}
    assert evaluate(model, rows_dataset(rows, want)).accuracy == 1.0


def test_evaluate_reports_match_oracle_recount():
    data = synth_dataset(60, 3, 4, [6, 5], seed=12, noise_scale=0.05)
    tr, te = split(data, 0.7, seed=12)
    model = train(tr, small_config(epochs=60, lam=5.0))
    model = retune(model, tr)
    report = evaluate(model, te)
    h = infer_latents(model, te)
    preds = np.array([np.argmax([c @ row for c in model.centroids]) for row in h])
    assert report.accuracy == np.mean(preds == te.labels)
    assert report.confusion.sum() == te.n_samples


def test_evaluate_scores_a_test_set_lacking_a_class():
    data = synth_dataset(60, 3, 4, [6, 5], seed=12, noise_scale=0.05)
    tr, te = split(data, 0.7, seed=12)
    model = retune(train(tr, small_config(epochs=20)), tr)
    te = te.take(np.flatnonzero(te.labels != 1))
    report = evaluate(model, te)
    assert report.n == te.n_samples
    assert report.confusion[1].sum() == 0


def test_evaluate_refuses_a_label_beyond_the_models_classes():
    model = make_identity_model(2)  # 2 classes
    with pytest.raises(InputError, match="test label 2 is not one of the model's 2 classes"):
        evaluate(model, rows_dataset(TARGET, labels=[0, 2]))


def test_evaluate_requires_labels():
    model = make_identity_model(2)
    data = MultiViewDataset([np.ones((2, 2))], np.ones((2, 1)))
    with pytest.raises(InputError):
        evaluate(model, data)


# ------------------------------------------------------------ checkpoints

def test_model_checkpoint_roundtrip(tmp_path):
    data = synth_dataset(30, 2, 4, [6, 5], seed=13, noise_scale=0.05)
    model = train(data, small_config(epochs=15))
    model = retune(model, data)
    path = save_model(model, tmp_path / "ckpt")
    back = load_model(path)
    assert back.config == model.config
    assert np.array_equal(back.latent.H, model.latent.H)
    assert np.array_equal(back.centroids, model.centroids)
    assert back.objective_trace == model.objective_trace
    for a, b in zip(model.retuned_nets, back.retuned_nets):
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
    # inference through the restored model is bit-identical
    ha = infer_latents(with_infer_iters(model, 20), data)
    hb = infer_latents(with_infer_iters(back, 20), data)
    assert ha.tobytes() == hb.tobytes()


def test_model_checkpoint_without_retuned_nets(tmp_path):
    data = synth_dataset(20, 2, 4, [6], seed=14, noise_scale=0.05)
    model = train(data, small_config(epochs=8))
    back = load_model(save_model(model, tmp_path / "ckpt"))
    assert back.retuned_nets is None


# ---------------------------------------------------- end-to-end contract

def test_pipeline_beats_mean_fill_baseline_on_missing_synth():
    from pmvl.baselines import GLOBAL_MEAN, concat_classify, impute_baseline

    data = synth_dataset(
        300, 3, 8, [20, 16, 12], seed=0,
        noise_scale=0.05, center_scale=4.0, nuisance_scale=3.5)
    masked = apply_missing_pattern(data, MissingSpec(0.5, seed=0))
    tr, te = split(masked, 0.7, seed=0)
    cfg = TrainConfig(latent_dim=32, lam=10.0, lr_nets=0.05, lr_latent=0.02,
                      epochs=400, infer_iters=300, infer_lr=0.05, seed=0)
    model = retune(train(tr, cfg), tr)
    acc = evaluate(model, te).accuracy

    filled = impute_baseline(masked, GLOBAL_MEAN)
    btr, bte = split(filled, 0.7, seed=0)
    base = concat_classify(btr, bte, rule="nearest_centroid").accuracy
    assert acc >= base


def test_versatility_bound_holds_for_linear_probes():
    data = synth_dataset(40, 2, 4, [6, 5], seed=16, noise_scale=0.05)
    model = retune(train(data, small_config(epochs=30)), data)
    h = infer_latents(with_infer_iters(model, 50), data)
    rng = np.random.default_rng(17)
    for _ in range(20):
        e_y = e_r = 0.0
        kphi = 0.0
        for v, net in enumerate(model.retuned_nets):
            p = rng.normal(size=(3, data.view_dims[v]))
            kphi = max(kphi, np.linalg.norm(p, 2))
            dv = forward(net, h) - data.views[v]
            e_r += float((dv ** 2).sum())
            e_y += float(((dv @ p.T) ** 2).sum())
        assert e_y <= kphi ** 2 * e_r * (1 + 1e-12)
