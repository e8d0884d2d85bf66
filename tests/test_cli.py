"""End-to-end checks of the command line: every command, tiny budgets."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pmvl import cli
from pmvl.adversarial import GanConfig
from pmvl.data import MultiViewDataset, load_dataset, save_dataset
from pmvl.supervised import TrainConfig, load_model


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def complete_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("complete")
    rc = run_cli("synth", "--n", 48, "--classes", 3, "--zdim", 4,
                 "--view-dims", "6,5", "--noise", 0.05, "--nuisance", 1.0,
                 "--seed", 11, "--out", out)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def masked_dir(tmp_path_factory, complete_dir):
    out = tmp_path_factory.mktemp("masked")
    rc = run_cli("mask", "--data", complete_dir / "dataset.json",
                 "--eta", 0.4, "--seed", 11, "--out", out)
    assert rc == 0
    return out


def report_of(out_dir):
    payload = json.loads((Path(out_dir) / "report.json").read_text())
    assert "timestamp" in payload
    return payload


def test_synth_writes_dataset_and_report(complete_dir):
    data = load_dataset(complete_dir / "dataset.json")
    assert data.n_samples == 48
    assert data.view_dims == [6, 5]
    assert (data.mask == 1).all()
    rep = report_of(complete_dir)
    assert rep["command"] == "synth"
    assert rep["classes"] == 3


def test_mask_hits_requested_rate(masked_dir):
    data = load_dataset(masked_dir / "dataset.json")
    rep = report_of(masked_dir)
    zeros = (data.mask == 0).sum()
    assert rep["requested_rate"] == 0.4
    assert abs(rep["measured_rate"] - 0.4) < 0.02
    assert zeros > 0
    assert data.mask.sum(axis=1).min() >= 1


def test_train_sup_reports_accuracy_and_checkpoint(complete_dir, tmp_path):
    out = tmp_path / "sup"
    rc = run_cli("train-sup", "--data", complete_dir / "dataset.json",
                 "--eta", 0.3, "--epochs", 40, "--repeats", 2,
                 "--latent-dim", 6, "--hidden-dims", "8",
                 "--lr-nets", 0.05, "--lr-latent", 0.02,
                 "--seed", 1, "--out", out)
    assert rc == 0
    rep = report_of(out)
    acc = rep["accuracy"]
    assert len(acc["values"]) == 2
    assert acc["mean"] == pytest.approx(np.mean(acc["values"]))
    assert rep["retuned"] is True
    assert rep["seeds"] == [1, 2]
    model = load_model(rep["checkpoint"])
    assert model.config.latent_dim == 6
    assert model.retuned_nets is not None


def test_train_sup_no_retune_flag(complete_dir, tmp_path):
    out = tmp_path / "nr"
    rc = run_cli("train-sup", "--data", complete_dir / "dataset.json",
                 "--epochs", 30, "--repeats", 1, "--latent-dim", 6,
                 "--hidden-dims", "8", "--no-retune", "--seed", 4, "--out", out)
    assert rc == 0
    rep = report_of(out)
    assert rep["retuned"] is False
    assert load_model(rep["checkpoint"]).retuned_nets is None


def test_eval_command_on_saved_model(complete_dir, masked_dir, tmp_path):
    sup = tmp_path / "sup"
    rc = run_cli("train-sup", "--data", complete_dir / "dataset.json",
                 "--epochs", 40, "--repeats", 1, "--latent-dim", 6,
                 "--hidden-dims", "8", "--seed", 2, "--out", sup)
    assert rc == 0
    out = tmp_path / "ev"
    rc = run_cli("eval", "--model", sup / "model",
                 "--data", masked_dir / "dataset.json", "--out", out)
    assert rc == 0
    rep = report_of(out)
    assert 0.0 <= rep["accuracy"] <= 1.0
    assert rep["n"] == 48
    assert len(rep["confusion"]) == 3


def test_train_unsup_imputes_and_reports(complete_dir, masked_dir, tmp_path):
    out = tmp_path / "gan"
    rc = run_cli("train-unsup", "--data", masked_dir / "dataset.json",
                 "--truth", complete_dir / "dataset.json",
                 "--epochs", 30, "--latent-dim", 5, "--hidden-dims", "8",
                 "--seed", 3, "--out", out)
    assert rc == 0
    rep = report_of(out)
    assert rep["nrmse"]["overall"] > 0
    assert len(rep["nrmse"]["per_view"]) == 2
    assert "acc" in rep["clustering"]
    filled = load_dataset(rep["imputed"])
    assert (filled.mask == 1).all()
    masked = load_dataset(masked_dir / "dataset.json")
    keep = masked.mask[:, 0].astype(bool)
    assert np.array_equal(filled.views[0][keep], masked.views[0][keep])


def test_train_unsup_no_gan_flag(masked_dir, tmp_path):
    out = tmp_path / "nogan"
    rc = run_cli("train-unsup", "--data", masked_dir / "dataset.json",
                 "--epochs", 20, "--latent-dim", 5, "--hidden-dims", "8",
                 "--adv-weight", 0, "--seed", 3, "--out", out)
    assert rc == 0
    rep = report_of(out)
    assert rep["config"]["adv_weight"] == 0.0


def test_train_unsup_refuses_truth_with_eta(complete_dir, tmp_path, capsys):
    # --eta masks --data and scores against it, so a --truth would go unread
    out = tmp_path / "both"
    rc = run_cli("train-unsup", "--data", complete_dir / "dataset.json", "--eta", 0.3,
                 "--truth", complete_dir / "dataset.json", "--epochs", 2, "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert "--truth" in err and "--eta" in err
    assert not out.exists()


def test_train_unsup_internal_masking(complete_dir, tmp_path):
    out = tmp_path / "selfmask"
    rc = run_cli("train-unsup", "--data", complete_dir / "dataset.json",
                 "--eta", 0.3, "--epochs", 20, "--latent-dim", 5,
                 "--hidden-dims", "8", "--seed", 5, "--out", out)
    assert rc == 0
    rep = report_of(out)
    # masked internally against the loaded data, so NRMSE is measurable
    assert rep["nrmse"]["overall"] > 0


def test_impute_command_with_truth(complete_dir, masked_dir, tmp_path):
    out = tmp_path / "imp"
    rc = run_cli("impute", "--data", masked_dir / "dataset.json",
                 "--method", "class_mean",
                 "--truth", complete_dir / "dataset.json", "--out", out)
    assert rc == 0
    rep = report_of(out)
    assert rep["method"] == "class_mean"
    assert rep["nrmse"]["overall"] > 0
    filled = load_dataset(rep["imputed"])
    assert (filled.mask == 1).all()


def test_sweep_csv_shape_and_order(complete_dir, tmp_path):
    out = tmp_path / "sw"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"latent_dim": 6, "hidden_dims": [8]}))
    rc = run_cli("sweep", "--data", complete_dir / "dataset.json",
                 "--rates", "0,0.4", "--methods", "sup-noretune,mean-fill",
                 "--repeats", 2, "--epochs", 30, "--config", cfg,
                 "--seed", 7, "--out", out)
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "method,eta,seed,metric,value"
    rows = [ln.split(",") for ln in lines[1:]]
    # mean-fill yields no rows at eta=0 (nothing missing): 4 acc + 2 nrmse
    assert len(rows) == 6
    assert rows == sorted(rows)
    assert (out / "failures.csv").read_text().strip() == "method,eta,seed,error"


def test_sweep_records_cell_failures_and_continues(tmp_path):
    rng = np.random.default_rng(0)
    unlabeled = MultiViewDataset(
        [rng.normal(size=(30, 4)), rng.normal(size=(30, 3))],
        np.ones((30, 2), dtype=np.int64))
    manifest = save_dataset(unlabeled, tmp_path / "data", name="dataset")
    out = tmp_path / "sw"
    rc = run_cli("sweep", "--data", manifest, "--rates", "0.4",
                 "--methods", "class-fill,mean-fill", "--repeats", 2,
                 "--seed", 0, "--out", out)
    assert rc == 0
    failures = (out / "failures.csv").read_text().strip().splitlines()
    assert len(failures) == 3  # header + one per class-fill cell
    assert all("class-fill" in ln for ln in failures[1:])
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # mean-fill cells still ran
    rep = report_of(out)
    assert rep["failures"] == 2 and rep["rows"] == 2


def test_sweep_collapses_repeated_grid_entries(complete_dir, tmp_path):
    def sweep(out, methods, rates):
        return run_cli("sweep", "--data", complete_dir / "dataset.json", "--methods", methods,
                       "--rates", rates, "--repeats", 1, "--out", out)

    assert sweep(tmp_path / "twice", "mean-fill,class-fill,mean-fill", "0.3,0.1,0.30") == 0
    assert sweep(tmp_path / "once", "mean-fill,class-fill", "0.3,0.1") == 0
    csv_bytes = (tmp_path / "twice" / "sweep.csv").read_bytes()
    assert csv_bytes == (tmp_path / "once" / "sweep.csv").read_bytes()
    assert len(csv_bytes.splitlines()) == 5  # header + 2 methods x 2 rates
    rep = report_of(tmp_path / "twice")
    assert rep["methods"] == ["mean-fill", "class-fill"] and rep["rates"] == [0.3, 0.1]


def test_sweep_refuses_masked_data_at_a_rate_above_0(masked_dir, tmp_path, capsys):
    manifest = masked_dir / "dataset.json"
    flags = ["--methods", "mean-fill,class-fill", "--repeats", 1]
    out = tmp_path / "x"
    assert run_cli("sweep", "--data", manifest, "--rates", "0,0.3", *flags, "--out", out) == 2
    assert str(manifest) in capsys.readouterr().err
    assert not out.exists()  # stopped before any cell ran
    # rate 0 masks nothing, so a masked dataset sweeps as it is: with no truth under
    # its masked slots, the fill cells score nothing
    assert run_cli("sweep", "--data", manifest, "--rates", "0", *flags, "--out", out) == 0
    assert (out / "sweep.csv").read_text().splitlines() == ["method,eta,seed,metric,value"]
    assert (out / "failures.csv").read_text().splitlines() == ["method,eta,seed,error"]


def test_sweep_at_rate_0_writes_no_nrmse(masked_dir, tmp_path):
    # zeros stand under a masked dataset's hidden slots, not the values a fill should match
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"latent_dim": 3, "hidden_dims": [4], "infer_iters": 5}))
    out = tmp_path / "sw"
    assert run_cli("sweep", "--data", masked_dir / "dataset.json", "--rates", "0",
                   "--methods", "sup,unsup-nogan,mean-fill,class-fill,svd-fill",
                   "--repeats", 1, "--epochs", 5, "--config", cfg, "--out", out) == 0
    rows = [ln.split(",") for ln in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[3]) for r in rows] == [
        ("sup", "accuracy"), ("unsup-nogan", "acc"), ("unsup-nogan", "nmi")]
    assert len((out / "failures.csv").read_text().splitlines()) == 1


def test_sweep_unknown_method_exits_2(complete_dir, tmp_path, capsys):
    rc = run_cli("sweep", "--data", complete_dir / "dataset.json",
                 "--methods", "sup,bogus", "--out", tmp_path / "x")
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_sweep_leaves_warning_filters_as_it_found_them(complete_dir, tmp_path):
    # the cells silence warnings only while they run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"latent_dim": 3, "hidden_dims": [4], "infer_iters": 5}))
    before = list(warnings.filters)
    rc = run_cli("sweep", "--data", complete_dir / "dataset.json",
                 "--rates", "0.4", "--methods", "sup-noretune,svd-fill,class-fill",
                 "--repeats", 2, "--epochs", 5, "--config", cfg, "--out", tmp_path / "sw")
    assert rc == 0
    assert warnings.filters == before


@pytest.mark.parametrize("command, flags, name", [
    ("sweep", ["--rates", "0.2,1.5"], "--rates"),
    ("sweep", ["--rates", "-0.1"], "--rates"),
    ("sweep", ["--train-frac", 1.5], "--train-frac"),
    ("sweep", ["--repeats", 0], "--repeats"),
    ("sweep", ["--methods", "sup", "--epochs", 0], "epochs"),
    ("sweep", ["--methods", "unsup", "--epochs", 0], "epochs"),
    ("train-sup", ["--repeats", 0], "--repeats"),
    ("impute", ["--method", "svd", "--shrinkage", "nan"], "shrinkage must be finite"),
    ("impute", ["--method", "svd", "--shrinkage", "inf"], "shrinkage must be finite"),
    ("impute", ["--method", "svd", "--shrinkage", -1], "shrinkage must be >= 0"),
    ("impute", ["--method", "svd", "--rank", 0], "rank must be >= 1"),
    ("sweep", ["--rates", ","], "--rates"),
    ("sweep", ["--methods", ","], "--methods"),
])
def test_bad_run_setting_exits_2_naming_it(complete_dir, tmp_path, capsys, command, flags, name):
    out = tmp_path / "x"
    rc = run_cli(command, "--data", complete_dir / "dataset.json", *flags, "--out", out)
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not out.exists()  # stopped before any cell, training or imputation run


@pytest.mark.parametrize("flags, name", [
    (["--rank", 3], "--rank"),
    (["--method", "global_mean", "--rank", 3, "--shrinkage", 0.5], "--rank"),
    (["--method", "class_mean", "--shrinkage", 0], "--shrinkage"),
])
def test_impute_refuses_svd_flags_without_svd(tmp_path, capsys, flags, name):
    out = tmp_path / "x"
    rc = run_cli("impute", "--data", tmp_path / "no-data.json", *flags, "--out", out)
    assert rc == 2  # a missing --data would exit 3: the flags are refused before any read
    assert f"error: {name} applies to --method svd only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("train-sup", ["--lr-nets", "1e308", "--repeats", "2"]),
    ("train-unsup", ["--lr", "1e200", "--eta", "0.3"]),
])
def test_diverging_run_prints_one_error_line(complete_dir, tmp_path, command, flags):
    # a fresh interpreter: numpy's warnings, forked stripes' included, reach its stderr
    done = subprocess.run(
        [sys.executable, "-m", "pmvl.cli", command, "--data", str(complete_dir / "dataset.json"),
         *flags, "--epochs", "3", "--out", str(tmp_path / "x")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "diverged" in lines[0], lines


@pytest.fixture(scope="module")
def model_6_5(complete_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    rc = run_cli("train-sup", "--data", complete_dir / "dataset.json", "--epochs", 5,
                 "--repeats", 1, "--latent-dim", 3, "--hidden-dims", "4", "--out", out)
    assert rc == 0
    return out / "model"


@pytest.mark.parametrize("view_dims, words", [
    ("7,5", ["view 0", "6 wide", "7 in the data"]),
    ("6,4", ["view 1", "5 wide", "4 in the data"]),
    ("6,5,4", ["2 views", "data has 3"]),
    ("6", ["2 views", "data has 1"]),
])
def test_eval_on_data_with_other_views_exits_2(model_6_5, tmp_path, capsys, view_dims, words):
    data = tmp_path / "data"
    assert run_cli("synth", "--n", 12, "--view-dims", view_dims, "--out", data) == 0
    capsys.readouterr()
    rc = run_cli("eval", "--model", model_6_5, "--data", data / "dataset.json",
                 "--out", tmp_path / "ev")
    assert rc == 2
    err = capsys.readouterr().err
    assert str(model_6_5) in err
    assert all(w in err for w in words), err


def relabelled(complete_dir, out_dir, rows, labels=None):
    """The rows of the complete dataset, saved with the given labels (default: their own)."""
    data = load_dataset(complete_dir / "dataset.json").take(rows)
    if labels is not None:
        data = MultiViewDataset(data.views, data.mask, labels)
    return save_dataset(data, out_dir, name="dataset")


def test_eval_on_a_labelled_file_lacking_class_1_exits_0(model_6_5, complete_dir, tmp_path):
    labels = load_dataset(complete_dir / "dataset.json").labels
    rows = np.flatnonzero(labels != 1)
    manifest = relabelled(complete_dir, tmp_path / "data", rows)
    assert run_cli("eval", "--model", model_6_5, "--data", manifest, "--out", tmp_path / "ev") == 0
    rep = report_of(tmp_path / "ev")
    assert rep["n"] == rows.size
    assert sum(rep["confusion"][1]) == 0


def test_eval_on_a_label_the_model_lacks_exits_2(model_6_5, complete_dir, tmp_path, capsys):
    manifest = relabelled(complete_dir, tmp_path / "data", [0, 1, 2], labels=[0, 3, 1])
    rc = run_cli("eval", "--model", model_6_5, "--data", manifest, "--out", tmp_path / "ev")
    assert rc == 2
    assert "test label 3 is not one of the model's 3 classes" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_train_sup_on_labels_lacking_class_1_exits_2_naming_it(complete_dir, tmp_path, capsys):
    labels = load_dataset(complete_dir / "dataset.json").labels
    manifest = relabelled(complete_dir, tmp_path / "data", np.flatnonzero(labels != 1))
    rc = run_cli("train-sup", "--data", manifest, "--epochs", 5, "--repeats", 1,
                 "--latent-dim", 3, "--hidden-dims", "4", "--out", tmp_path / "sup")
    assert rc == 2
    assert "class 1 has no samples" in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["1.5", "-0.5", "nan"])
@pytest.mark.parametrize("command", ["mask", "train-sup", "train-unsup"])
def test_mask_bad_rate_exits_2(complete_dir, tmp_path, capsys, command, eta):
    out = tmp_path / "x"
    rc = run_cli(command, "--data", complete_dir / "dataset.json", "--eta", eta, "--out", out)
    assert rc == 2
    assert "error: --eta" in capsys.readouterr().err
    assert not out.exists()  # checked before any masking or training


@pytest.mark.parametrize("command", [
    "synth", "mask", "train-sup", "train-unsup", "sweep"])
def test_negative_seed_exits_2_in_every_command(complete_dir, tmp_path, capsys, command):
    data = ["--data", complete_dir / "dataset.json"]
    flags = {"synth": [], "mask": [*data, "--eta", 0.3]}.get(command, data)
    out = tmp_path / "x"
    rc = run_cli(command, *flags, "--seed", -1, "--out", out)
    assert rc == 2
    assert "error: --seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()  # checked before the command runs


@pytest.mark.parametrize("command", ["impute", "eval"])
def test_seed_is_refused_by_commands_that_draw_nothing_random(complete_dir, tmp_path, capsys,
                                                              command):
    data = ["--data", complete_dir / "dataset.json"]
    flags = {"eval": ["--model", tmp_path / "no-model", *data]}.get(command, data)
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *flags, "--seed", 5, "--out", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_exits_3(tmp_path, capsys):
    rc = run_cli("eval", "--model", tmp_path / "nope",
                 "--data", tmp_path / "nope.json", "--out", tmp_path / "x")
    assert rc == 3
    assert "io error:" in capsys.readouterr().err


def test_reports_byte_identical_for_identical_args(complete_dir, tmp_path):
    out = tmp_path / "sw"
    argv = ["sweep", "--data", complete_dir / "dataset.json",
            "--rates", "0.4", "--methods", "mean-fill,class-fill",
            "--repeats", 3, "--seed", 9, "--out", out]
    assert run_cli(*argv) == 0
    first_csv = (out / "sweep.csv").read_bytes()
    first_rep = json.loads((out / "report.json").read_text())
    assert run_cli(*argv) == 0
    assert (out / "sweep.csv").read_bytes() == first_csv
    second_rep = json.loads((out / "report.json").read_text())
    first_rep.pop("timestamp"), second_rep.pop("timestamp")
    assert first_rep == second_rep


def test_config_file_overridden_by_flags(complete_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"latent_dim": 4, "epochs": 500,
                               "hidden_dims": [8], "lam": 2.0}))
    out = tmp_path / "sup"
    rc = run_cli("train-sup", "--data", complete_dir / "dataset.json",
                 "--config", cfg, "--epochs", 25, "--repeats", 1,
                 "--seed", 6, "--out", out)
    assert rc == 0
    rep = report_of(out)
    assert rep["config"]["epochs"] == 25       # flag beats config file
    assert rep["config"]["latent_dim"] == 4    # config file beats preset
    assert rep["config"]["lam"] == 2.0


@pytest.mark.parametrize("text", ["{\"epochs\": 5,", "[1, 2]"])
def test_bad_config_file_exits_2_naming_it(complete_dir, tmp_path, capsys, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    rc = run_cli("train-sup", "--data", complete_dir / "dataset.json",
                 "--config", cfg, "--repeats", 1, "--out", tmp_path / "sup")
    assert rc == 2
    assert "bad.json" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("epochs", "5"), ("epochs", 2.5), ("epochs", True), ("latent_dim", None),
    ("lam", "1"), ("infer_lr", False), ("net_iters", 3), ("centroid_excludes_self", True),
    ("hidden_dims", 5), ("hidden_dims", [2.7]), ("hidden_dims", "a,b"),
    ("tol", float("nan")), ("l2_coefficient", float("inf")),
])
def test_wrong_typed_or_retired_config_value_exits_2(complete_dir, tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc = run_cli("train-sup", "--data", complete_dir / "dataset.json",
                 "--config", cfg, "--repeats", 1, "--out", tmp_path / "sup")
    assert rc == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, key", [
    ("train-sup", "--hidden-dims", "hidden_dims"),
    ("synth", "--view-dims", "view_dims"),
    ("sweep", "--rates", "rates"),
])
def test_non_numeric_list_flag_exits_2(complete_dir, tmp_path, capsys, command, flag, key):
    argv = [command, flag, "a,b", "--out", tmp_path / "x"]
    if command != "synth":
        argv += ["--data", complete_dir / "dataset.json"]
    assert run_cli(*argv) == 2
    assert key in capsys.readouterr().err


def test_bad_byte_in_a_view_csv_exits_2_naming_the_file(complete_dir, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for f in complete_dir.glob("dataset*"):
        (data / f.name).write_bytes(f.read_bytes())
    view = data / "dataset_view0.csv"
    raw = bytearray(view.read_bytes())
    raw[3] = 0xFF
    view.write_bytes(bytes(raw))
    rc = run_cli("mask", "--data", data / "dataset.json", "--eta", 0.2, "--out", tmp_path / "x")
    assert rc == 2
    assert "dataset_view0.csv: not readable as CSV text" in capsys.readouterr().err


def test_malformed_dataset_manifest_exits_2(tmp_path, capsys):
    manifest = tmp_path / "dataset.json"
    manifest.write_text(json.dumps({"views": "dataset_view0.csv"}))
    rc = run_cli("mask", "--data", manifest, "--eta", 0.2, "--out", tmp_path / "x")
    assert rc == 2
    assert "dataset.json: 'views'" in capsys.readouterr().err


CONFIG_COMMANDS = {
    "train-sup": (TrainConfig,),
    "train-unsup": (GanConfig,),
    "sweep": (TrainConfig, GanConfig),
}
PRESETS = {TrainConfig: cli.SUP_PRESETS, GanConfig: cli.GAN_PRESETS}


def field_names(config_cls):
    return {f.name for f in dataclasses.fields(config_cls)} - {"seed"}


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
def test_every_config_flag_reaches_its_config(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = set().union(*map(field_names, CONFIG_COMMANDS[command]))
    flags = [a for a in sub.choices[command]._actions
             if a.dest in known or a.option_strings[0][2:].replace("-", "_") in known]
    assert flags
    argv = [command, "--data", "d.json", "--out", "o"]
    expected = {}
    for i, action in enumerate(flags):
        assert action.dest in known, action.option_strings
        # a distinct value per flag, so a dest that lands on another field shows
        if action.type is None:  # --hidden-dims takes a comma list
            text, expected[action.dest] = "97,89", (97, 89)
        else:
            text = str(71 + i)
            expected[action.dest] = action.type(text)
        argv += [action.option_strings[0], text]
    args = parser.parse_args(argv)
    for config_cls in CONFIG_COMMANDS[command]:
        merged = cli._settings(args, PRESETS[config_cls], config_cls)
        config = config_cls(**merged)
        for dest, value in expected.items():
            if dest in field_names(config_cls):
                assert getattr(config, dest) == value, dest


def test_nan_under_hidden_slot_changes_nothing(masked_dir, tmp_path):
    # the same dataset with NaN written under one hidden slot trains identically
    data = load_dataset(masked_dir / "dataset.json")
    row, view = map(int, np.argwhere(data.mask == 0)[0])
    src = tmp_path / "data"
    src.mkdir()
    for f in masked_dir.glob("dataset*"):
        (src / f.name).write_bytes(f.read_bytes())
    view_csv = src / f"dataset_view{view}.csv"
    lines = view_csv.read_text().splitlines()
    lines[row] = ",".join(["nan"] * len(lines[row].split(",")))
    view_csv.write_text("\n".join(lines) + "\n")
    reports = []
    for d in (masked_dir, src):
        out = tmp_path / f"run_{d.name}"
        assert run_cli("train-unsup", "--data", d / "dataset.json", "--epochs", 5,
                       "--latent-dim", 3, "--hidden-dims", "6", "--out", out / "u") == 0
        assert run_cli("train-sup", "--data", d / "dataset.json", "--epochs", 5,
                       "--repeats", 1, "--latent-dim", 3, "--hidden-dims", "6",
                       "--infer-iters", 5, "--out", out / "s") == 0
        reports.append((report_of(out / "u")["final_reconstruction_loss"],
                        report_of(out / "s")["accuracy"]))
    assert reports[0] == reports[1]


def test_preset_supplies_defaults(complete_dir, tmp_path):
    out = tmp_path / "sup"
    rc = run_cli("train-sup", "--data", complete_dir / "dataset.json",
                 "--preset", "cub", "--epochs", 20, "--repeats", 1,
                 "--latent-dim", 6, "--seed", 8, "--out", out)
    assert rc == 0
    rep = report_of(out)
    assert rep["config"]["hidden_dims"] == []  # cub preset trains linear nets
    assert rep["config"]["lr_nets"] == 0.01
