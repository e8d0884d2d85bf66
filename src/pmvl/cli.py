"""Command-line front end: synth, mask, train-sup, train-unsup, impute, eval, sweep.

Every command writes a JSON report into --out; wall-clock time lives in the
report's single "timestamp" field so that everything else is byte-stable
under identical arguments and seeds. Option precedence is command line over
--config file over the named --preset.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from ._stripes import map_striped
from .adversarial import GanConfig, impute as gan_impute, save_gan, train_unsupervised
from .baselines import (
    CLASS_MEAN,
    GLOBAL_MEAN,
    SVD,
    SvdParams,
    concat_classify,
    impute_baseline,
)
from .data import (
    MissingSpec,
    apply_missing_pattern,
    check_train_fraction,
    load_dataset,
    measured_rate,
    save_dataset,
    split,
    synth_dataset,
)
from .errors import ConfigurationError, DimensionError, PmvlError, read_json_object
from .latent import drop_retired
from .metrics import evaluate_clustering, nrmse
from .supervised import TrainConfig, evaluate, load_model, retune, save_model, train

# per-dataset starting points; names follow the usual benchmark suites
SUP_PRESETS = {
    "synthetic": dict(latent_dim=32, lam=10.0, lr_nets=0.05, lr_latent=0.02,
                      epochs=400, infer_iters=300, infer_lr=0.05, hidden_dims=(64,)),
    "handwritten": dict(latent_dim=64, lam=1.0, lr_nets=0.001, lr_latent=0.001,
                        epochs=200, infer_iters=300, infer_lr=0.001, hidden_dims=(200,)),
    "cub": dict(latent_dim=128, lam=1.0, lr_nets=0.01, lr_latent=0.01,
                epochs=200, infer_iters=300, infer_lr=0.01, hidden_dims=()),
    "animal": dict(latent_dim=256, lam=1.0, lr_nets=0.001, lr_latent=0.001,
                   epochs=200, infer_iters=300, infer_lr=0.001, hidden_dims=(512, 1024)),
}
GAN_PRESETS = {
    "synthetic": dict(latent_dim=16, lr=0.05, epochs=200, hidden_dims=(64,)),
    "handwritten": dict(latent_dim=64, lr=0.001, epochs=200, hidden_dims=(200,)),
    "cub": dict(latent_dim=128, lr=0.01, epochs=200, hidden_dims=()),
    "animal": dict(latent_dim=256, lr=0.001, epochs=200, hidden_dims=(512, 1024)),
}

SWEEP_METHODS = (
    "sup", "sup-noretune", "mean-nc", "mean-knn",
    "unsup", "unsup-nogan", "mean-fill", "class-fill", "svd-fill",
)


def _parse_list(text, kind, name):
    """Comma-separated `kind` values; a bad entry is a ConfigurationError naming `name`."""
    try:
        return [kind(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ConfigurationError(
            f"{name} must be comma-separated {kind.__name__} values, got {text!r}") from None


@contextlib.contextmanager
def _naming(what, kind=ConfigurationError):
    """Prefix the message of a `kind` error raised in the block with `what`."""
    try:
        yield
    except kind as exc:
        raise type(exc)(f"{what}: {exc}") from None


def _check_repeats(repeats):
    if repeats < 1:
        raise ConfigurationError(f"--repeats must be >= 1, got {repeats}")


def _write_report(out_dir, payload):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = dict(payload)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    path = out_dir / "report.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def _settings(args, preset_table, config_cls):
    """Merge preset, config file, and explicit flags, in rising precedence.

    Flags apply by dest name. The config file may hold settings for several
    commands at once, so keys config_cls does not define (or seed) are dropped.
    """
    known = {f.name for f in dataclasses.fields(config_cls)} - {"seed"}
    merged = dict(preset_table[args.preset])
    if args.config:
        merged.update(read_json_object(args.config, ConfigurationError))
    merged.update((k, v) for k, v in vars(args).items() if k in known and v is not None)
    merged = {k: v for k, v in drop_retired(merged).items() if k in known}
    if isinstance(merged.get("hidden_dims"), str):
        merged["hidden_dims"] = _parse_list(merged["hidden_dims"], int, "hidden_dims")
    return merged


def cmd_synth(args):
    data = synth_dataset(
        args.n, args.classes, args.zdim, _parse_list(args.view_dims, int, "view_dims"),
        seed=args.seed, noise_scale=args.noise, center_scale=args.center_scale,
        nuisance_scale=args.nuisance,
    )
    manifest = save_dataset(data, args.out, name="dataset")
    _write_report(args.out, {
        "command": "synth",
        "manifest": str(manifest),
        "n": data.n_samples,
        "classes": data.n_classes,
        "view_dims": data.view_dims,
        "seed": args.seed,
    })
    print(manifest)
    return 0


def cmd_mask(args):
    data = load_dataset(args.data)
    masked = apply_missing_pattern(data, MissingSpec(args.eta, seed=args.seed))
    manifest = save_dataset(masked, args.out, name="dataset")
    _write_report(args.out, {
        "command": "mask",
        "manifest": str(manifest),
        "requested_rate": args.eta,
        "measured_rate": measured_rate(masked),
        "seed": args.seed,
    })
    print(manifest)
    return 0


def _sup_pipeline(tr, te, cfg, with_retune):
    """Train on tr, optionally retune, and evaluate on te without warnings."""
    model = train(tr, cfg)
    if with_retune:
        model = retune(model, tr)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = evaluate(model, te)
    return model, report


def _unsup_pipeline(masked, cfg, truth):
    """Train adversarially, fill the hidden slots, and cluster the latents if labelled."""
    model = train_unsupervised(masked, cfg)
    result = gan_impute(model, masked, truth=truth)
    clustering = None
    if masked.labels is not None:
        clustering = evaluate_clustering(model.latent.H, masked.labels, seed=cfg.seed)
    return model, result, clustering


def cmd_train_sup(args):
    _check_repeats(args.repeats)
    data = load_dataset(args.data)
    merged = _settings(args, SUP_PRESETS, TrainConfig)
    out = Path(args.out)
    seeds = [args.seed + r for r in range(args.repeats)]

    def repeat(s):
        tr, te = split(data, args.train_frac, seed=s)
        if args.eta > 0:
            tr = apply_missing_pattern(tr, MissingSpec(args.eta, seed=s))
            te = apply_missing_pattern(te, MissingSpec(args.eta, seed=s + 1))
        model, report = _sup_pipeline(tr, te, TrainConfig(seed=s, **merged), not args.no_retune)
        # the first repeat runs in this process, so no model crosses a pipe
        return (model if s == seeds[0] else None), report.accuracy

    outcomes = map_striped(repeat, seeds)
    first_model = outcomes[0][0]
    accs = [acc for _, acc in outcomes]
    ckpt = save_model(first_model, out / "model")
    _write_report(out, {
        "command": "train-sup",
        "checkpoint": str(ckpt),
        "config": first_model.config.to_dict(),
        "eta": args.eta,
        "retuned": not args.no_retune,
        "train_frac": args.train_frac,
        "seeds": seeds,
        "accuracy": {
            "values": accs,
            "mean": float(np.mean(accs)),
            "std": float(np.std(accs)),
        },
    })
    print(f"accuracy mean={np.mean(accs):.4f} std={np.std(accs):.4f} over {len(accs)} runs")
    return 0


def cmd_train_unsup(args):
    data = load_dataset(args.data)
    merged = _settings(args, GAN_PRESETS, GanConfig)
    if args.no_gan:
        merged["adv_weight"] = 0.0
    truth = None
    if args.eta > 0:
        truth = data
        masked = apply_missing_pattern(data, MissingSpec(args.eta, seed=args.seed))
    else:
        masked = data
        if args.truth:
            truth = load_dataset(args.truth)
    cfg = GanConfig(seed=args.seed, **merged)
    model, result, clustering = _unsup_pipeline(masked, cfg, truth)
    out = Path(args.out)
    ckpt = save_gan(model, out / "gan")
    imputed = save_dataset(result.completed, out / "imputed", name="dataset")
    payload = {
        "command": "train-unsup",
        "checkpoint": str(ckpt),
        "imputed": str(imputed),
        "config": cfg.to_dict(),
        "eta": args.eta,
        "final_reconstruction_loss": model.rec_trace[-1],
        "final_adversarial_loss": model.d_trace[-1],
    }
    if result.overall_nrmse is not None:
        payload["nrmse"] = {
            "per_view": result.per_view_nrmse,
            "overall": result.overall_nrmse,
        }
    if clustering is not None:
        payload["clustering"] = {"acc": clustering.acc, "nmi": clustering.nmi}
    _write_report(out, payload)
    print(f"reconstruction loss {model.rec_trace[-1]:.6f}"
          + (f", overall nrmse {result.overall_nrmse:.6f}"
             if result.overall_nrmse is not None else ""))
    return 0


def cmd_impute(args):
    data = load_dataset(args.data)
    params = SvdParams(rank=args.rank, shrinkage=args.shrinkage)
    filled = impute_baseline(data, args.method, svd_params=params)
    out = Path(args.out)
    manifest = save_dataset(filled, out / "imputed", name="dataset")
    payload = {
        "command": "impute",
        "method": args.method,
        "imputed": str(manifest),
    }
    if args.truth:
        truth = load_dataset(args.truth)
        if (data.mask == 0).any():
            report = nrmse(filled.views, truth.views, data.mask == 0)
            payload["nrmse"] = report.to_dict()
    _write_report(out, payload)
    print(manifest)
    return 0


def cmd_eval(args):
    model = load_model(args.model)
    data = load_dataset(args.data)
    with warnings.catch_warnings(), _naming(f"--model {args.model}", DimensionError):
        warnings.simplefilter("ignore")
        report = evaluate(model, data)
    _write_report(args.out, {"command": "eval", "model": str(args.model), **report.to_dict()})
    print(f"accuracy {report.accuracy:.4f} on {report.n} samples")
    return 0


def _sweep_cell(data, method, eta, seed, sup_settings, gan_settings, train_frac):
    """One (method, eta, seed) run; returns rows of (metric, value)."""
    masked = data
    if eta > 0:
        masked = apply_missing_pattern(data, MissingSpec(eta, seed=seed))
    if method in ("sup", "sup-noretune"):
        tr, te = split(masked, train_frac, seed=seed)
        _, report = _sup_pipeline(tr, te, TrainConfig(seed=seed, **sup_settings), method == "sup")
        return [("accuracy", report.accuracy)]
    if method in ("mean-nc", "mean-knn"):
        filled = impute_baseline(masked, GLOBAL_MEAN)
        tr, te = split(filled, train_frac, seed=seed)
        rule = "nearest_centroid" if method == "mean-nc" else "knn"
        report = concat_classify(tr, te, rule=rule, k=5)
        return [("accuracy", report.accuracy)]
    if method in ("unsup", "unsup-nogan"):
        settings = dict(gan_settings)
        if method == "unsup-nogan":
            settings["adv_weight"] = 0.0
        _, result, clustering = _unsup_pipeline(masked, GanConfig(seed=seed, **settings), data)
        rows = []
        if result.overall_nrmse is not None:
            rows.append(("nrmse", result.overall_nrmse))
        if clustering is not None:
            rows += [("acc", clustering.acc), ("nmi", clustering.nmi)]
        return rows
    if method in ("mean-fill", "class-fill", "svd-fill"):
        kind = {"mean-fill": GLOBAL_MEAN, "class-fill": CLASS_MEAN, "svd-fill": SVD}[method]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            filled = impute_baseline(masked, kind)
        if not (masked.mask == 0).any():
            return []
        report = nrmse(filled.views, data.views, masked.mask == 0)
        return [("nrmse", report.overall)]
    raise ConfigurationError(f"unknown sweep method '{method}'")


def _failure_text(exc):
    return f"{type(exc).__name__}: {exc}"


def cmd_sweep(args):
    rates = _parse_list(args.rates, float, "rates")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in SWEEP_METHODS:
            raise ConfigurationError(
                f"unknown sweep method '{m}'; pick from {', '.join(SWEEP_METHODS)}")
    sup_settings = _settings(args, SUP_PRESETS, TrainConfig)
    gan_settings = _settings(args, GAN_PRESETS, GanConfig)
    # settings that are wrong for every cell stop the run before any cell runs
    with _naming("--rates"):
        for eta in rates:
            MissingSpec(eta)
    with _naming("--train-frac"):
        check_train_fraction(args.train_frac)
    _check_repeats(args.repeats)
    if any(m.startswith("sup") for m in methods):
        TrainConfig(**sup_settings)
    if any(m.startswith("unsup") for m in methods):
        GanConfig(**gan_settings)
    data = load_dataset(args.data)
    cells = list(itertools.product(methods, rates, range(args.seed, args.seed + args.repeats)))

    def run_cell(cell):
        try:
            return _sweep_cell(data, *cell, sup_settings, gan_settings, args.train_frac)
        except Exception as exc:  # cell failures land in failures.csv, run continues
            return _failure_text(exc)

    rows = []
    failures = []
    for cell, outcome in zip(cells, map_striped(run_cell, cells, on_lost=_failure_text)):
        if isinstance(outcome, str):
            failures.append((*cell, outcome))
        else:
            rows += [(*cell, metric, value) for metric, value in outcome]
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    failures.sort(key=lambda r: (r[0], r[1], r[2]))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "eta", "seed", "metric", "value"])
        for method, eta, seed, metric, value in rows:
            writer.writerow([method, repr(float(eta)), seed, metric, f"{value:.17g}"])
    with (out / "failures.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "eta", "seed", "error"])
        writer.writerows(failures)
    _write_report(out, {
        "command": "sweep",
        "rates": rates,
        "methods": methods,
        "repeats": args.repeats,
        "rows": len(rows),
        "failures": len(failures),
        "csv": str(out / "sweep.csv"),
    })
    print(f"{len(rows)} rows, {len(failures)} failures -> {out / 'sweep.csv'}")
    return 0


def _add_common(p, preset=True):
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    if preset:
        p.add_argument("--preset", choices=sorted(SUP_PRESETS), default="synthetic")
        p.add_argument("--config", help="JSON file with config overrides")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pmvl",
        description="Partial multi-view learning: train, impute, evaluate, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multi-view dataset")
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--zdim", type=int, default=8)
    p.add_argument("--view-dims", default="20,16,12")
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--center-scale", type=float, default=4.0)
    p.add_argument("--nuisance", type=float, default=0.0)
    _add_common(p, preset=False)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("mask", help="hide view slots at a target missing rate")
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--eta", type=float, required=True)
    _add_common(p, preset=False)
    p.set_defaults(fn=cmd_mask)

    p = sub.add_parser("train-sup", help="train the supervised model and report accuracy")
    p.add_argument("--data", required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--latent-dim", dest="latent_dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr-nets", dest="lr_nets", type=float)
    p.add_argument("--lr-latent", dest="lr_latent", type=float)
    p.add_argument("--infer-iters", dest="infer_iters", type=int)
    p.add_argument("--infer-lr", dest="infer_lr", type=float)
    p.add_argument("--hidden-dims", dest="hidden_dims")
    p.add_argument("--train-frac", dest="train_frac", type=float, default=0.7)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--no-retune", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_train_sup)

    p = sub.add_parser("train-unsup", help="adversarial imputation training")
    p.add_argument("--data", required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--truth", help="pre-masking dataset manifest, for NRMSE")
    p.add_argument("--latent-dim", dest="latent_dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--d-steps", dest="d_steps", type=int)
    p.add_argument("--adv-weight", dest="adv_weight", type=float)
    p.add_argument("--hidden-dims", dest="hidden_dims")
    p.add_argument("--no-gan", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_train_unsup)

    p = sub.add_parser("impute", help="fill missing slots with a baseline imputer")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=[GLOBAL_MEAN, CLASS_MEAN, SVD], default=GLOBAL_MEAN)
    p.add_argument("--rank", type=int)
    p.add_argument("--shrinkage", type=float)
    p.add_argument("--truth")
    _add_common(p, preset=False)
    p.set_defaults(fn=cmd_impute)

    p = sub.add_parser("eval", help="evaluate a supervised checkpoint on a dataset")
    p.add_argument("--model", required=True, help="checkpoint directory or manifest")
    p.add_argument("--data", required=True)
    _add_common(p, preset=False)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="missing-rate grid over methods, long-format CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--rates", default="0,0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--methods", default="sup,mean-nc")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--epochs", type=int, help="override training epochs for every method")
    p.add_argument("--train-frac", dest="train_frac", type=float, default=0.7)
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PmvlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
