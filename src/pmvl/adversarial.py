"""Unsupervised adversarial imputation over partial multi-view data.

No labels here: each sample still owns a trainable latent row, per-view
generator nets map latents to feature space, and observed slots supervise
them through the usual masked squared error. Missing slots get no direct
supervision, so a per-view discriminator is trained to tell observed rows
from generated ones, and generators plus latents descend the combined
objective

    adv_weight * L_adv + L_rec

where L_adv sums, over views that actually have missing rows, the mean
log-score of real rows plus the mean log(1 - score) of generated fills.
Views with nothing missing contribute nothing, so on complete data the
whole adversarial apparatus is inert and training reduces to alternating
least-squares descent. Imputation fills only the masked slots with
generator outputs; observed entries are never overwritten.

The generators are the decoders of `latent.py`: latent table, set-up,
masked residual and checkpoint layout are shared with the supervised
path; this module adds the discriminators and their loss terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import MultiViewDataset
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
    save_checkpoint,
)
from .metrics import nrmse
from .nets import SIGMOID_ALL, activations, backward, forward, init_net, sgd_step

LOG_EPS = 1e-7  # scores are clamped to [eps, 1-eps] before any log


@dataclass
class GanConfig(LatentConfig):
    """Knobs for the adversarial training loop.

    One shared step size drives all three phases; latent updates use
    per-sample gradient scaling (the dataset-level 1/N cancelled out) so
    the rate transfers across dataset sizes. adv_weight=0 removes the
    adversarial term from the generator and latent updates, giving the plain
    unsupervised ablation; the discriminators still train for d_steps per
    epoch, and their loss still fills d_trace.
    """

    latent_dim: int = 16
    lr: float = 0.05
    epochs: int = 200
    d_steps: int = 1
    adv_weight: float = 1.0
    seed: int = 0
    hidden_dims: tuple = (64,)

    def __post_init__(self):
        self._validate(("latent_dim", "epochs", "d_steps", "lr"))


@dataclass
class AdversarialModel:
    latent: LatentTable
    generators: list
    discriminators: list
    config: GanConfig
    d_trace: list = field(default_factory=list)
    g_trace: list = field(default_factory=list)
    rec_trace: list = field(default_factory=list)


@dataclass
class ImputationResult:
    """Completed dataset plus imputation error when ground truth was given.

    The NRMSE fields stay None when no truth is supplied or nothing was
    missing in the first place.
    """

    completed: MultiViewDataset
    per_view_nrmse: list | None = None
    overall_nrmse: float | None = None


def adversarial_loss(model, data, fills=None, real=None):
    """Sum over views with missing rows of real and fake log terms.

    Real term: mean log score of that view's observed feature rows. Fake
    term: mean log(1 - score) of generator outputs for the rows missing
    that view. Scores are clamped away from 0 and 1 so both logs stay
    finite; views with no missing rows are skipped entirely. `fills` and
    `real`, when given, are generator_fills and real_terms for the model
    as it stands.
    """
    fills = generator_fills(model, data) if fills is None else fills
    real = real_terms(model, data) if real is None else real
    total = 0.0
    for disc, fake_rows, real_term in zip(model.discriminators, fills, real):
        if fake_rows is None:
            continue
        if real_term is not None:
            total += real_term
        fake = np.clip(forward(disc, fake_rows), LOG_EPS, 1 - LOG_EPS)
        total += float(np.log1p(-fake).mean())
    return total


def real_terms(model, data):
    """Per view, adversarial_loss's real term; None without both missing and observed rows."""
    terms = []
    for v, disc in enumerate(model.discriminators):
        obs = data.mask[:, v] != 0
        if obs.all() or not obs.any():
            terms.append(None)
            continue
        real = np.clip(forward(disc, data.views[v][obs]), LOG_EPS, 1 - LOG_EPS)
        terms.append(float(np.log(real).mean()))
    return terms


def _log_upstream(scores, sign, count):
    """d(mean log term)/d(score); zero where the clamp was active."""
    inside = (scores > LOG_EPS) & (scores < 1 - LOG_EPS)
    if sign > 0:
        return np.where(inside, 1.0 / scores, 0.0) / count
    return np.where(inside, -1.0 / (1.0 - scores), 0.0) / count


def generator_fills(model, data):
    """Per view, the generator's output on the rows missing that view; None when none are."""
    fills = []
    for v, gen in enumerate(model.generators):
        miss = data.mask[:, v] == 0
        fills.append(forward(gen, model.latent.H[miss]) if miss.any() else None)
    return fills


def discriminator_gradients(model, data, fills):
    """Exact adversarial-loss gradients per discriminator; None when inert.

    `fills` is generator_fills(model, data) for the current generators and latents.
    """
    out = []
    for v, (disc, fake_rows) in enumerate(zip(model.discriminators, fills)):
        if fake_rows is None:
            out.append(None)
            continue
        obs = data.mask[:, v] != 0
        acts = activations(disc, fake_rows)
        bundle = backward(disc, fake_rows, _log_upstream(acts[-1], -1, len(fake_rows)), acts)
        if obs.any():
            x = data.views[v][obs]
            acts = activations(disc, x)
            bundle.accumulate(backward(disc, x, _log_upstream(acts[-1], +1, int(obs.sum())), acts))
        out.append(bundle)
    return out


def combined_upstreams(model, data, acts=None):
    """dC/d(generator output) per view, C = adv_weight * L_adv + L_rec.

    Observed rows carry the (2/N)-scaled reconstruction residual; rows
    missing the view carry the adversarial fake-term path pulled back
    through the frozen discriminator. `acts`, when given, holds each
    generator's activations on the latent table.
    """
    n = data.n_samples
    ups = []
    for v, gen in enumerate(model.generators):
        out = forward(gen, model.latent.H) if acts is None else acts[v][-1]
        u = (2.0 / n) * residual(out, data.views[v], data.mask[:, v:v + 1])
        miss = data.mask[:, v] == 0
        if model.config.adv_weight > 0 and miss.any():
            disc, fake_rows = model.discriminators[v], out[miss]
            d_acts = activations(disc, fake_rows)
            ud = model.config.adv_weight * _log_upstream(d_acts[-1], -1, int(miss.sum()))
            u[miss] += backward(disc, fake_rows, ud, d_acts, params=False).d_input
        ups.append(u)
    return ups


def latent_gradient(model, data, acts=None):
    """Per-row gradient of the combined objective, scaled by N.

    The dataset-level objective carries 1/N and 1/n_missing factors; the
    N rescale keeps latent step sizes meaningful independent of dataset
    size, matching the supervised trainer's convention. `acts` is as in
    combined_upstreams.
    """
    ups = combined_upstreams(model, data, acts)
    return data.n_samples * latent_pullback(model.generators, model.latent.H, ups, acts)


def train_unsupervised(data, config=None):
    """Per epoch: d_steps discriminator ascents, one generator and one latent descent."""
    config = config or GanConfig()
    latent, gens, rng = init_latent_model(data, config)
    discs = [
        init_net([d, *reversed(config.hidden_dims), 1], activation=SIGMOID_ALL, rng=rng)
        for d in data.view_dims
    ]
    model = AdversarialModel(latent, gens, discs, config)
    # each generator's activations on H, evaluated again whenever either changes
    acts = [activations(gen, latent.H) for gen in gens]
    for epoch in range(config.epochs):
        fills = generator_fills(model, data)  # generators and latents are frozen until the g-phase
        for _ in range(config.d_steps):
            for disc, bundle in zip(discs, discriminator_gradients(model, data, fills)):
                if bundle is None:
                    continue
                sgd_step(disc, bundle.scale(-1.0), config.lr)  # ascent
        real = real_terms(model, data)  # the discriminators are frozen for the rest of the epoch
        adv = adversarial_loss(model, data, fills, real)
        check_finite(adv, "discriminator phase", epoch)
        model.d_trace.append(adv)

        for v, u in enumerate(combined_upstreams(model, data, acts)):
            sgd_step(gens[v], backward(gens[v], latent.H, u, acts[v]), config.lr)
        acts = [activations(gen, latent.H) for gen in gens]
        combined = config.adv_weight * adversarial_loss(model, data, real=real)
        combined += reconstruction_loss(gens, latent, data, acts)
        check_finite(combined, "generator phase", epoch)
        model.g_trace.append(combined)

        latent.H -= config.lr * latent_gradient(model, data, acts)
        acts = [activations(gen, latent.H) for gen in gens]
        rec = reconstruction_loss(gens, latent, data, acts)
        check_finite(rec, "latent phase", epoch)
        model.rec_trace.append(rec)
    return model


def impute(model, data, truth=None):
    """Fill masked slots with generator outputs; observed slots stay put.

    Passing the pre-masking dataset as truth scores the fill with NRMSE
    over the previously missing slots; with nothing missing the error is
    undefined and the report fields stay None.
    """
    check_views(model.generators, data.views)
    if data.n_samples != model.latent.n_rows:
        raise InputError(
            f"dataset has {data.n_samples} rows, model carries {model.latent.n_rows} latents"
        )
    result = ImputationResult(data.filled(generator_fills(model, data)))
    if truth is not None and (data.mask == 0).any():
        report = nrmse(result.completed.views, truth.views, data.mask == 0)
        result.per_view_nrmse = report.per_view
        result.overall_nrmse = report.overall
    return result


def save_gan(model, out_dir):
    """Checkpoint: manifest JSON plus per-view net files and the latents."""
    nets = {"gen": model.generators, "disc": model.discriminators}
    return save_checkpoint(
        out_dir, "gan", nets, model.latent, model.config,
        d_trace=model.d_trace, g_trace=model.g_trace, rec_trace=model.rec_trace,
    )


def load_gan(manifest_path):
    ckpt = Checkpoint(manifest_path, "gan", GanConfig)
    return AdversarialModel(
        latent=ckpt.latent(),
        generators=ckpt.nets("gen"),
        discriminators=ckpt.nets("disc"),
        config=ckpt.config,
        d_trace=list(ckpt.manifest.get("d_trace", [])),
        g_trace=list(ckpt.manifest.get("g_trace", [])),
        rec_trace=list(ckpt.manifest.get("rec_trace", [])),
    )
