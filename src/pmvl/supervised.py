"""Supervised latent-representation learning over partial multi-view data.

Every sample owns a trainable latent row h_n. Per-view decoder nets map
latents back to the observed features, and training alternates two phases
per epoch: net parameters descend the masked reconstruction loss

    (1/N) sum_n sum_v s_nv ||f_v(h_n) - x_n^(v)||^2

while latent rows descend that plus lam times a margin loss that pulls each
h_n toward its own class centroid and away from the best rival centroid.
Classification is nearest-centroid by dot product in latent space. At test
time a sample's latent is recovered by gradient descent on its own masked
reconstruction error through frozen (optionally re-tuned) nets, so any
subset of views yields a usable representation.

The latent table, decoder set-up, masked residual and checkpoint layout
live in `latent.py`, shared with the adversarial path, and class centroids in
`metrics.py`; this module adds the margin term, re-tuning and test-time inference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError
from .latent import (
    Checkpoint,
    LatentConfig,
    LatentTable,
    check_finite,
    check_views,
    init_latent_model,
    latent_pullback,
    reconstruction_loss,
    residual,
    residuals,
    save_checkpoint,
    squared_error,
)
from .metrics import class_centroids, classification_report
from .nets import activations, backward, l2_penalty, sgd_step

EARLY_STOP_WINDOW = 10


@dataclass
class TrainConfig(LatentConfig):
    """Knobs for the alternating training loop.

    lr_nets drives the decoder updates (full-batch averaged gradients);
    lr_latent drives the latent rows (per-sample gradients, so it transfers
    across dataset sizes). lam weighs the margin loss against
    reconstruction. tol stops training early when the relative objective
    change over a 10-epoch window falls below it.
    """

    latent_dim: int = 32
    lam: float = 1.0
    lr_nets: float = 0.1
    lr_latent: float = 0.1
    epochs: int = 100
    retune_epochs: int = 100
    infer_iters: int = 200
    infer_lr: float | None = None
    seed: int = 0
    tol: float = 1e-5
    hidden_dims: tuple = (64,)
    l2_coefficient: float = 0.001

    def __post_init__(self):
        self._validate(("latent_dim", "epochs", "infer_iters", "infer_lr", "lam", "lr_nets",
                        "lr_latent", "tol"))


@dataclass
class SupervisedModel:
    latent: LatentTable
    recon_nets: list
    centroids: np.ndarray
    config: TrainConfig
    retuned_nets: list | None = None
    objective_trace: list = field(default_factory=list)

    @property
    def n_classes(self):
        return self.centroids.shape[0]


def classification_loss(latent, labels, centroids):
    """Mean margin penalty; exactly zero when every argmax centroid is correct.

    Per sample: max(0, [wrong argmax] + score(best rival or self) - score(own
    class)). A misclassified sample therefore contributes 1 plus its score
    gap; a correctly classified one contributes 0 with no approximation.
    """
    scores = latent.H @ centroids.T
    n = scores.shape[0]
    predicted = scores.argmax(axis=1)
    margin = (predicted != labels).astype(np.float64)
    gap = scores[np.arange(n), predicted] - scores[np.arange(n), labels]
    return float(np.maximum(margin + gap, 0.0).mean())


def latent_gradients(nets, latent, data, labels, centroids, lam):
    """Per-row gradient of the per-sample objective.

    Row n of the result differentiates sum_v s_nv ||f_v(h_n) - x_n||^2
    plus lam times that sample's margin term, with centroids held constant.
    The dataset-level objective divides by N, so its gradient is this
    result over N; updates use the undivided rows to keep step sizes
    independent of dataset size.
    """
    h = latent.H
    res = residuals(nets, h, data.views, data.mask)
    g = latent_pullback(nets, h, [2.0 * r for r in res])
    predicted = (h @ centroids.T).argmax(axis=1)
    mis = predicted != labels
    if mis.any():
        g[mis] += lam * (centroids[predicted[mis]] - centroids[labels[mis]])
    return g


def train(data, config=None):
    """Per epoch, one decoder step then one latent step against the epoch's centroids."""
    config = config or TrainConfig()
    if data.labels is None:
        raise InputError("supervised training needs labels")
    n = data.n_samples
    latent, nets, _ = init_latent_model(data, config, config.l2_coefficient)
    trace = []
    for epoch in range(config.epochs):
        centroids = class_centroids(latent.H, data.labels, data.n_classes)
        for net, r in zip(nets, residuals(nets, latent.H, data.views, data.mask)):
            sgd_step(net, backward(net, latent.H, (2.0 / n) * r), config.lr_nets)
        latent.H -= config.lr_latent * latent_gradients(
            nets, latent, data, data.labels, centroids, config.lam)
        obj = reconstruction_loss(nets, latent, data)
        obj += config.lam * classification_loss(latent, data.labels, centroids)
        obj += sum(l2_penalty(net) for net in nets)
        check_finite(obj, "objective", epoch)
        trace.append(obj)
        if len(trace) > EARLY_STOP_WINDOW:
            prev = trace[-1 - EARLY_STOP_WINDOW]
            if abs(prev - trace[-1]) < config.tol * max(abs(prev), 1e-12):
                break
    centroids = class_centroids(latent.H, data.labels, data.n_classes)
    return SupervisedModel(
        latent=latent,
        recon_nets=nets,
        centroids=centroids,
        config=config,
        objective_trace=trace,
    )


def retune(model, data):
    """Refit decoder nets on the frozen latent table, reconstruction only.

    Latents and centroids stay untouched. Each view descends its own
    objective with step acceptance: a step that increases the objective is
    rolled back and that view's rate halved, so every accepted step is a
    descent step (within 1e-9).
    """
    h = model.latent.H
    n = data.n_samples
    nets = [net.copy() for net in model.recon_nets]
    rates = [model.config.lr_nets] * len(nets)
    acts = [activations(net, h) for net in nets]  # each net's activations on h
    res = residuals(nets, h, data.views, data.mask, acts)

    for _ in range(model.config.retune_epochs):
        for v, net in enumerate(nets):
            if rates[v] < 1e-15:
                continue
            before = squared_error([res[v]]) / n + l2_penalty(net)
            while rates[v] >= 1e-15:
                # every attempt starts from a copy of net, so acts[v] are its activations
                candidate = net.copy()
                sgd_step(candidate, backward(candidate, h, (2.0 / n) * res[v], acts[v]), rates[v])
                cand_acts = activations(candidate, h)
                r = residual(cand_acts[-1], data.views[v], data.mask[:, v:v + 1])
                if squared_error([r]) / n + l2_penalty(candidate) <= before + 1e-9:
                    nets[v], acts[v], res[v] = candidate, cand_acts, r
                    break
                rates[v] /= 2.0
    return replace(model, retuned_nets=nets)


def infer_latents(model, data):
    """Latent rows for a whole dataset, by gradient descent through frozen nets.

    Runs through the re-tuned nets when the model has them, for
    `config.infer_iters` steps at `config.infer_lr` (else `lr_latent`).
    Rows are independent (per-row loss, per-row gradient), so a row
    inferred alone gets the same latent up to rounding. Returns the best
    iterate per row by masked reconstruction loss, starting from zeros. Each
    iterate's residuals score it and then drive the step away from it.
    """
    nets = model.retuned_nets
    if nets is None:
        warnings.warn("model has no re-tuned nets; inferring through training nets", stacklevel=2)
        nets = model.recon_nets
    check_views(nets, data.views)
    if (data.mask.sum(axis=1) == 0).any():
        raise InputError("a sample has no observed view")
    cfg = model.config
    lr = cfg.lr_latent if cfg.infer_lr is None else cfg.infer_lr
    h = np.zeros((data.n_samples, nets[0].input_dim))
    acts = [activations(net, h) for net in nets]
    res = residuals(nets, h, data.views, data.mask, acts)
    best_h = h.copy()
    best_loss = sum((r ** 2).sum(axis=1) for r in res)
    for _ in range(cfg.infer_iters):
        h = h - lr * latent_pullback(nets, h, [2.0 * r for r in res], acts)
        acts = [activations(net, h) for net in nets]
        res = residuals(nets, h, data.views, data.mask, acts)
        loss = sum((r ** 2).sum(axis=1) for r in res)
        better = loss < best_loss
        best_h[better] = h[better]
        best_loss[better] = loss[better]
    return best_h


def evaluate(model, test_data):
    """Infer a latent per test row, take the centroid with the highest dot product
    (ties go to the smaller class id), and score against labels below the class count."""
    if test_data.labels is None:
        raise InputError("evaluation needs labeled test data")
    if test_data.n_classes > model.n_classes:
        raise InputError(f"test label {test_data.n_classes - 1} is not one of the model's "
                         f"{model.n_classes} classes")
    h = infer_latents(model, test_data)
    preds = np.argmax(h @ model.centroids.T, axis=1)
    return classification_report(preds, test_data.labels)


def save_model(model, out_dir):
    """Checkpoint: manifest JSON, per-view net files, latents and centroids."""
    nets = {"recon": model.recon_nets, "retuned": model.retuned_nets or []}
    return save_checkpoint(
        out_dir, "model", nets, model.latent, model.config, {"centroids": model.centroids},
        n_classes=model.n_classes,
        has_retuned=model.retuned_nets is not None,
        objective_trace=model.objective_trace,
    )


def load_model(manifest_path):
    ckpt = Checkpoint(manifest_path, "model", TrainConfig, {"n_classes": int, "has_retuned": bool})
    return SupervisedModel(
        latent=ckpt.latent(),
        recon_nets=ckpt.nets("recon"),
        centroids=ckpt.array("centroids", "n_classes"),
        config=ckpt.config,
        retuned_nets=ckpt.nets("retuned") if ckpt.manifest["has_retuned"] else None,
        objective_trace=list(ckpt.manifest.get("objective_trace", [])),
    )
