"""Per-layer metrics derived from the spans of one traced op.

Every metric is per op: the traced run traces exactly one op. The `data.*`
metrics also include the traced set-up that precedes it, because input
generation, saving and loading happen there. Every metric is reported on
every workload, as 0 where its layer does not run.

Counts of forward passes treat a `backward` call as one more forward
pass when it re-evaluates the net's activations itself, which shows as
`nets.sigmoid` spans directly under it. FLOP figures are computed from
array shapes (2*B*d_in*d_out per matmul), not read from hardware counters.
"""

from __future__ import annotations

import json
import os
import statistics

from pmvl.nets import SIGMOID_ALL
from spans import children_of, self_time
from workloads import SWEEP_METHODS


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _matmul_flop(net, rows):
    return 2 * rows * sum(w.size for w in net.weights)


def _file_bytes(manifest):
    base = os.path.dirname(os.fspath(manifest))
    with open(manifest) as fh:
        m = json.load(fh)
    files = list(m["views"]) + [m[k] for k in ("mask", "labels") if m.get(k)]
    return sum(os.path.getsize(os.path.join(base, f)) for f in files)


def _infer_attrs(args, kwargs, result):
    model = args[0]
    iters = _arg(args, kwargs, 2, "iters") or model.config.infer_iters
    return {"iters": iters, "views": len(model.recon_nets)}


def _knn_attrs(args, kwargs, result):
    if _arg(args, kwargs, 2, "rule", "nearest_centroid") != "knn":
        return {}
    train_d, test_d = args[0], args[1]
    dims = sum(train_d.view_dims)
    return {"knn_bytes": 8 * test_d.n_samples * train_d.n_samples * dims}


# span name -> (args, kwargs, result) -> attributes kept on the span
ATTRS = {
    "nets.forward": lambda a, kw, r: {
        "mode": a[0].activation, "flop": _matmul_flop(a[0], r.shape[0])},
    "nets.backward": lambda a, kw, r: {
        "mode": a[0].activation, "flop": _matmul_flop(a[0], r.d_input.shape[0])},
    "nets.sigmoid": lambda a, kw, r: {"elems": r.size},
    "nets.sgd_step": lambda a, kw, r: {"mode": a[0].activation},
    "supervised.train": lambda a, kw, r: {
        "epochs": len(r.objective_trace), "views": len(r.recon_nets)},
    "supervised.infer_latents": _infer_attrs,
    "supervised.infer_latent": _infer_attrs,
    "adversarial.train_unsupervised": lambda a, kw, r: {"epochs": len(r.rec_trace)},
    "adversarial.discriminator_gradients": lambda a, kw, r: {"views": len(r)},
    "baselines.soft_impute_matrix": lambda a, kw, r: {"iters": len(r[1])},
    "baselines.concat_classify": _knn_attrs,
    "data.load_dataset": lambda a, kw, r: {"bytes": _file_bytes(a[0])},
    "cli._sweep_cell": lambda a, kw, r: {"method": a[1]},
}


def _ratio(num, den):
    return num / den if den else 0.0


def busy_tail(intervals):
    """Wall time during which exactly one of the intervals is running."""
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    alone, running, last = 0.0, 0, None
    for t, step in events:
        if running == 1:
            alone += t - last
        running += step
        last = t
    return alone


class _Index:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.kids = children_of(spans)

    def named(self, name, parent=None, mode=None):
        out = [s for s in self.spans if s.name == name]
        if parent is not None:
            out = [s for s in out if self.parent_name(s) == parent]
        if mode is not None:
            out = [s for s in out if s.attrs.get("mode") == mode]
        return out

    def parent_name(self, span):
        p = self.by_id.get(span.parent)
        return p.name if p else None

    def under(self, span, names):
        p = self.by_id.get(span.parent)
        while p is not None:
            if p.name in names:
                return True
            p = self.by_id.get(p.parent)
        return False

    def recomputes(self, backward):
        """Whether a backward span re-evaluated its net's activations."""
        return any(k.name == "nets.sigmoid" for k in self.kids.get(backward.id, ()))

    def forward_passes(self, within):
        passes = 0
        for s in self.spans:
            if s.name == "nets.forward" or (s.name == "nets.backward" and self.recomputes(s)):
                passes += self.under(s, within)
        return passes


def _total(spans):
    return sum(s.duration for s in spans)


def nets_metrics(ix):
    fwd, bwd = ix.named("nets.forward"), ix.named("nets.backward")
    sig = ix.named("nets.sigmoid")
    fwd_self = sum(self_time(s, ix.kids) for s in fwd)
    bwd_self = sum(self_time(s, ix.kids) for s in bwd)
    # backward does two matmuls per layer, plus the forward ones when it recomputes
    flop = sum(s.attrs["flop"] for s in fwd)
    flop += sum(s.attrs["flop"] * (3 if ix.recomputes(s) else 2) for s in bwd)
    gflop = flop / 1e9
    sig_s = _total(sig)
    return {
        "nets.forward_calls": len(fwd),
        "nets.backward_calls": len(bwd),
        "nets.sigmoid_calls": len(sig),
        "nets.forward_self_s": fwd_self,
        "nets.backward_self_s": bwd_self,
        "nets.sigmoid_s": sig_s,
        "nets.sgd_step_s": _total(ix.named("nets.sgd_step")),
        "nets.sigmoid_ns_per_elem": 1e9 * _ratio(sig_s, sum(s.attrs["elems"] for s in sig)),
        "nets.matmul_gflop": gflop,
        "nets.gflops_per_s": _ratio(gflop, fwd_self + bwd_self),
    }


def supervised_metrics(ix):
    train = "supervised.train"
    trains = ix.named(train)
    train_s = _total(trains)
    epochs = sum(s.attrs["epochs"] for s in trains)
    epoch_views = sum(s.attrs["epochs"] * s.attrs["views"] for s in trains)
    net_step = [s for s in ix.spans if s.name.startswith("nets.") and ix.parent_name(s) == train]
    objective = ix.named("supervised.reconstruction_loss", train)
    objective += ix.named("supervised.classification_loss", train)
    retunes = ix.named("supervised.retune")
    attempts = [s for s in ix.named("nets.sgd_step") if ix.under(s, {"supervised.retune"})]
    infers = ix.named("supervised.infer_latents") + ix.named("supervised.infer_latent")
    infer_s = _total(infers)
    iters = sum(s.attrs["iters"] for s in infers)
    iter_views = sum(s.attrs["iters"] * s.attrs["views"] for s in infers)
    infer_names = {"supervised.infer_latents", "supervised.infer_latent"}
    return {
        "supervised.train_s": train_s,
        "supervised.epochs": epochs,
        "supervised.epoch_ms": 1e3 * _ratio(train_s, epochs),
        "supervised.net_step_s": _total(net_step),
        "supervised.latent_step_s": _total(ix.named("supervised.latent_gradients", train)),
        "supervised.objective_s": _total(objective),
        "supervised.forward_calls_per_epoch": _ratio(ix.forward_passes({train}), epoch_views),
        "supervised.retune_s": _total(retunes),
        "supervised.retune_step_attempts": len(attempts),
        "supervised.infer_s": infer_s,
        "supervised.infer_iter_ms": 1e3 * _ratio(infer_s, iters),
        "supervised.infer_forward_calls_per_iter": _ratio(ix.forward_passes(infer_names),
                                                          iter_views),
    }


def adversarial_metrics(ix):
    train = "adversarial.train_unsupervised"
    trains = ix.named(train)
    train_s = _total(trains)
    epochs = sum(s.attrs["epochs"] for s in trains)
    d_grads = ix.named("adversarial.discriminator_gradients", train)
    d_views = sum(s.attrs["views"] for s in d_grads)
    gen_forwards = [s for s in ix.named("nets.forward", "adversarial.discriminator_gradients")
                    if s.attrs["mode"] != SIGMOID_ALL]
    g_phase = ix.named("adversarial.combined_upstreams", train)
    g_phase += [s for s in ix.named("nets.backward", train) + ix.named("nets.sgd_step", train)
                if s.attrs["mode"] != SIGMOID_ALL]
    adv_losses = ix.named("adversarial.adversarial_loss", train)
    return {
        "adversarial.train_s": train_s,
        "adversarial.epoch_ms": 1e3 * _ratio(train_s, epochs),
        "adversarial.d_phase_s": _total(d_grads + ix.named("nets.sgd_step", train, SIGMOID_ALL)),
        "adversarial.g_phase_s": _total(g_phase),
        "adversarial.h_phase_s": _total(ix.named("adversarial.latent_gradient", train)),
        "adversarial.loss_eval_s": _total(
            adv_losses + ix.named("adversarial.unsup_reconstruction_loss", train)),
        "adversarial.adv_loss_calls_per_epoch": _ratio(len(adv_losses), epochs),
        "adversarial.gen_forward_calls_per_dstep": _ratio(len(gen_forwards), d_views),
        "adversarial.impute_s": _total(ix.named("adversarial.impute")),
    }


def baselines_metrics(ix):
    fits = ix.named("baselines.soft_impute_matrix")
    iters = sum(s.attrs["iters"] for s in fits)
    final = sum(s.attrs["iters"] for s in fits
                if not ix.under(s, {"baselines.soft_impute_matrix"}))
    knn = [s for s in ix.named("baselines.concat_classify") if "knn_bytes" in s.attrs]
    return {
        "baselines.svd_s": _total(ix.named("baselines.impute_svd")),
        "baselines.soft_impute_calls": len(fits),
        "baselines.soft_impute_iters": iters,
        "baselines.svd_useful_frac": _ratio(final, iters),
        "baselines.knn_s": _total(knn),
        "baselines.knn_tensor_mb": max((s.attrs["knn_bytes"] for s in knn), default=0) / 1e6,
    }


def metrics_metrics(ix):
    return {
        "metrics.clustering_s": _total(ix.named("metrics.evaluate_clustering")),
        "metrics.nrmse_s": _total(ix.named("metrics.nrmse")),
    }


def data_metrics(ix):
    loads = ix.named("data.load_dataset")
    load_s = _total(loads)
    return {
        "data.load_s": load_s,
        "data.load_mb_per_s": _ratio(sum(s.attrs["bytes"] for s in loads) / 1e6, load_s),
        "data.save_s": _total(ix.named("data.save_dataset")),
        "data.mask_s": _total(ix.named("data.apply_missing_pattern")),
        "data.split_s": _total(ix.named("data.split")),
    }


def cli_metrics(ix, workers):
    sweeps = ix.named("cli.cmd_sweep")
    sweep_s = _total(sweeps)
    cells = ix.named("cli._sweep_cell")
    main_threads = {s.thread for s in sweeps}
    # top-level pmvl calls made by the sweep's pool threads
    pool = [(s.start, s.end) for s in ix.spans
            if s.parent is None and s.thread not in main_threads] if sweeps else []
    out = {"cli.sweep_s": sweep_s}
    for method in SWEEP_METHODS:
        times = [s.duration for s in cells if s.attrs["method"] == method]
        out[f"cli.cell_s.{method}"] = statistics.median(times) if times else 0.0
    out["cli.pool_busy_frac"] = _ratio(sum(e - s for s, e in pool), sweep_s * workers)
    out["cli.tail_s"] = busy_tail(pool)
    return out


def layer_metrics(spans, workers=1):
    """Every per-layer metric except those the runner measures itself."""
    op = _Index([s for s in spans if s.phase == "op"])
    out = {}
    out.update(nets_metrics(op))
    out.update(supervised_metrics(op))
    out.update(adversarial_metrics(op))
    out.update(baselines_metrics(op))
    out.update(metrics_metrics(op))
    out.update(data_metrics(_Index(spans)))
    out.update(cli_metrics(op, workers))
    return out
