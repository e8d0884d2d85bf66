"""Forked stripes: the same results and output bytes as one process, and no process left over."""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from pmvl import _stripes, cli
from pmvl.data import save_dataset, synth_dataset
from pmvl.errors import WorkerError

PARENT = os.getpid()


def cpus(monkeypatch, n):
    """Make the helper see n usable CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def snapshot(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(Path(out).rglob("*"))
            if p.is_file()}


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    data = synth_dataset(48, 3, 4, [6, 5], seed=3, noise_scale=0.05)
    return save_dataset(data, tmp_path_factory.mktemp("data"), name="dataset")


@pytest.fixture
def fixed_clock(monkeypatch):
    # report.json's timestamp is its only wall-clock field
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "2000-01-01T00:00:00")


def sweep(manifest, out, *flags):
    return cli.main(["sweep", "--data", str(manifest), "--epochs", "5",
                     "--seed", "4", "--out", str(out), *flags])


def test_map_striped_keeps_item_order(monkeypatch):
    cpus(monkeypatch, 2)
    assert _stripes.map_striped(lambda x: (x * x, os.getpid() == PARENT), range(5)) == [
        (0, True), (1, False), (4, True), (9, False), (16, True)]
    assert multiprocessing.active_children() == []


def test_map_striped_raises_the_first_failure_in_item_order(monkeypatch):
    def fn(x):
        if x >= 1:
            raise ValueError(f"item {x}")
        return x

    cpus(monkeypatch, 2)
    # item 1 fails in the child, item 2 in this process: item 1's error wins
    with pytest.raises(ValueError, match="item 1"):
        _stripes.map_striped(fn, range(4))
    assert multiprocessing.active_children() == []


def test_dead_child_without_on_lost_raises_worker_error(monkeypatch):
    def fn(x):
        if os.getpid() != PARENT:
            os._exit(9)
        return x

    cpus(monkeypatch, 2)
    with pytest.raises(WorkerError, match="exited with code 9"):
        _stripes.map_striped(fn, range(4))
    assert multiprocessing.active_children() == []


def test_children_are_terminated_when_the_caller_is_interrupted(monkeypatch):
    def fn(x):
        if os.getpid() != PARENT:
            time.sleep(60)
        raise KeyboardInterrupt

    cpus(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _stripes.map_striped(fn, range(2))
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_striped_and_serial_sweeps_write_the_same_bytes(manifest, tmp_path, monkeypatch,
                                                        fixed_clock):
    real_cell = cli._sweep_cell

    def flaky(data, method, eta, *rest):
        if method == "mean-fill" and eta == 0.4:
            raise ValueError(f"no fill at {eta}")
        return real_cell(data, method, eta, *rest)

    monkeypatch.setattr(cli, "_sweep_cell", flaky)
    out = tmp_path / "sw"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"latent_dim": 3, "hidden_dims": [4], "infer_iters": 10}))
    flags = ["--rates", "0.2,0.4", "--methods", "sup-noretune,mean-fill,svd-fill",
             "--repeats", "2", "--config", str(cfg)]
    written = {}
    for n in (2, 1):
        cpus(monkeypatch, n)
        assert sweep(manifest, out, *flags) == 0
        written[n] = snapshot(out)
    assert written[2] == written[1]
    failures = written[1][Path("failures.csv")].decode().splitlines()
    assert len(failures) == 3 and all("ValueError: no fill at 0.4" in f for f in failures[1:])
    assert multiprocessing.active_children() == []


def test_striped_and_serial_train_sup_write_the_same_bytes(manifest, tmp_path, monkeypatch,
                                                           fixed_clock):
    out = tmp_path / "sup"
    written = {}
    for n in (2, 1):
        cpus(monkeypatch, n)
        rc = cli.main(["train-sup", "--data", str(manifest), "--eta", "0.3", "--epochs", "10",
                       "--repeats", "4", "--latent-dim", "3", "--hidden-dims", "4",
                       "--infer-iters", "10", "--seed", "2", "--out", str(out)])
        assert rc == 0
        written[n] = snapshot(out)
    assert written[2] == written[1]
    assert any(p.parts[0] == "model" for p in written[1])


def test_dead_child_cells_become_failures(manifest, tmp_path, monkeypatch):
    real_cell = cli._sweep_cell

    def dying(*args):
        if os.getpid() != PARENT:
            os._exit(9)
        return real_cell(*args)

    monkeypatch.setattr(cli, "_sweep_cell", dying)
    cpus(monkeypatch, 2)
    out = tmp_path / "sw"
    assert sweep(manifest, out, "--rates", "0.2,0.4", "--methods", "mean-fill",
                 "--repeats", "2") == 0
    assert multiprocessing.active_children() == []
    failures = (out / "failures.csv").read_text().splitlines()[1:]
    # cells 1 and 3 of the four made up the child's stripe: (0.2, seed 5) and (0.4, seed 5)
    assert [f.split(",")[:3] for f in failures] == [["mean-fill", "0.2", "5"],
                                                    ["mean-fill", "0.4", "5"]]
    assert all("WorkerError" in f and "exited with code 9" in f for f in failures)
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:3] for r in rows] == [["mean-fill", "0.2", "4"],
                                                ["mean-fill", "0.4", "4"]]


def test_one_cell_sweep_starts_no_child(manifest, tmp_path, monkeypatch):
    def no_fork(method):
        raise AssertionError("a one-cell sweep started a process")

    cpus(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    out = tmp_path / "sw"
    assert sweep(manifest, out, "--rates", "0.3", "--methods", "mean-fill",
                 "--repeats", "1") == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 2
