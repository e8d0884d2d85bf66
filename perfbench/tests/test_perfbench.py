"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import sys
from pathlib import Path

import pytest

import layers
import pmvl
import run
import workloads
from spans import Span, Tracer, children_of, covered, self_time


def span(id, parent, start, end, name="x"):
    return Span(id, parent, name, start, end, thread=1, phase="op")


def test_self_time_of_hand_built_tree():
    # 1 covers [0, 10]; its children 2 [1, 4] and 3 [3, 6] overlap on
    # [3, 4], and 4 [7, 8] is a third; 5 [2, 3] is 2's child
    spans = [span(1, None, 0, 10), span(2, 1, 1, 4), span(3, 1, 3, 6),
             span(4, 1, 7, 8), span(5, 2, 2, 3)]
    kids = children_of(spans)
    by_id = {s.id: s for s in spans}
    assert self_time(by_id[1], kids) == pytest.approx(10 - (5 + 1))
    assert self_time(by_id[2], kids) == pytest.approx(3 - 1)
    assert self_time(by_id[3], kids) == pytest.approx(3)
    assert self_time(by_id[5], kids) == pytest.approx(1)
    assert covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)


def test_busy_tail_counts_time_with_one_worker_busy():
    # worker A [0, 10], worker B [0, 4] and [5, 7]: alone on [4, 5] and [7, 10]
    assert layers.busy_tail([(0, 10), (0, 4), (5, 7)]) == pytest.approx(4)


def traced_layer_metrics(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, str(tmp_path), small=True)
    tracer = Tracer(layers.ATTRS)
    with tracer:
        tracer.phase = "setup"
        workload.setup()
        tracer.phase = "op"
        out = workload.op(0)
        tracer.phase = None
    ok, _ = workload.check(0, out)
    assert ok
    return layers.layer_metrics(tracer.spans, getattr(workload, "threads", 1))


def is_count(name):
    return run.layer_unit(name) == "count"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_count_metrics_repeat_between_traced_runs(name, tmp_path):
    first = traced_layer_metrics(name, tmp_path / "a")
    second = traced_layer_metrics(name, tmp_path / "b")
    counts = {k: v for k, v in first.items() if is_count(k)}
    assert counts == {k: v for k, v in second.items() if is_count(k)}
    assert any(counts.values())


def test_forward_pass_counts_match_the_seed_algorithm(tmp_path):
    got = traced_layer_metrics("sup-desk", tmp_path)
    # per view: 3 forward calls per epoch plus 2 backward calls that re-evaluate
    assert got["supervised.forward_calls_per_epoch"] == 5
    assert got["supervised.epochs"] == 100


def public_functions():
    return {(mod, attr): value
            for mod, module in sys.modules.items() if mod.split(".")[0] == "pmvl"
            for attr, value in vars(module).items() if callable(value)}


def test_wrapped_names_are_restored_after_a_traced_run(tmp_path):
    before = public_functions()
    traced_layer_metrics("svd-impute", tmp_path)
    after = public_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_names_are_restored_when_the_op_raises():
    before = public_functions()
    tracer = Tracer()
    with pytest.raises(pmvl.PmvlError):
        with tracer:
            tracer.phase = "op"
            pmvl.split(pmvl.synth_dataset(10, 2, 2, [3]), 1.5)
    assert tracer.spans and tracer.spans[-1].name == "data.split"
    after = public_functions()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_lists_the_metrics_the_runner_prints(tmp_path):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    layer_names = set(traced_layer_metrics("sweep", tmp_path))
    layer_names |= {"cli.thread_speedup", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
