"""Run one pmvl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sup-desk --seed 1 --seconds 25 --trace 0

Run from the root of a pmvl checkout; the package is imported from its
`src/` directory. With `--trace 0` the workload runs as a closed loop of
ops for about `--seconds` seconds (and at least three ops) and the
end-to-end metrics are reported. With `--trace 1` one untraced op, then
the set-up and the same op again with every pmvl function wrapped in a
span, give the per-layer metrics; `sweep` also runs its op once with one
worker thread. Every op's outputs are checked; a failed check or an
exception counts into `failed`.

Stdout carries a `# machine` line with the machine's facts, one
`# metric` line per metric, and as its last line one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 3
MIN_OPS = 3  # so that the median rejects one op the host slowed
# One BLAS thread: at these shapes OpenBLAS's default of one thread per core
# made the svd-impute op slower (9.2 s wall and 17.5 s CPU against 5.4 s on
# 2 cores) and left every run hostage to load on the other core, and the
# sweep's pool threads would each start their own.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
IMPORT_PROBE = "import time; t = time.perf_counter(); import pmvl; print(time.perf_counter() - t)"

END_TO_END_UNITS = {
    "op_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# first matching suffix wins; anything else is a count
LAYER_UNIT_SUFFIXES = (
    ("_mb_per_s", "MB/s"), ("gflops_per_s", "GFLOP/s"), ("_gflop", "GFLOP"),
    ("_ns_per_elem", "ns"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
    ("_frac", "frac"), ("_speedup", "ratio"),
)


def layer_unit(name):
    if ".cell_s." in name:
        return "s"
    return next((unit for suffix, unit in LAYER_UNIT_SUFFIXES if name.endswith(suffix)),
                "count")


def import_pmvl():
    """Import pmvl from this checkout's src/, never from an installed copy."""
    if not (SRC / "pmvl" / "__init__.py").is_file():
        raise ImportError(f"no pmvl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pmvl

    if Path(pmvl.__file__).resolve().parent != (SRC / "pmvl").resolve():
        raise ImportError(f"pmvl was imported from {pmvl.__file__}, not from {SRC}")


def import_seconds():
    """Time to import pmvl (and numpy/scipy with it) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def blas_threads():
    """Thread count the bundled OpenBLAS will use, or None when not found."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_facts(workload):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "pmvl_threads": getattr(workload, "threads", os.environ.get("PMVL_THREADS")),
    }


class Tally:
    """Ops attempted and failed, and the time and quality of the good ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.durations = []
        self.quality = []

    def run(self, workload, i, tracer=None):
        """Run, time and check op i; returns its seconds, None when it failed."""
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.phase = "op"
            try:
                start = time.perf_counter()
                out = workload.op(i)
                seconds = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.phase = None
            ok, quality = workload.check(i, out)
        except Exception:  # a raising op is a failed op; the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        if not ok:
            print(f"{workload.name}: op {i} failed its check {quality}", file=sys.stderr)
            self.failed += 1
            return None
        self.durations.append(seconds)
        self.quality.append(quality)
        return seconds


def timed_setup(workload):
    seconds = import_seconds()
    start = time.perf_counter()
    workload.setup()
    return seconds + time.perf_counter() - start


def end_to_end(workload, seconds, tally):
    setups = [timed_setup(workload) for _ in range(SETUP_REPEATS)]
    start = time.perf_counter()
    i = 0
    done = tally.durations
    # start another op only while it is likely to end within --seconds, so
    # a run lasts about --seconds whatever the op's length
    while i < MIN_OPS or (
            time.perf_counter() - start + (statistics.median(done) / 2 if done else 0)
            < seconds):
        tally.run(workload, i)
        i += 1
    op_s = statistics.median(done) if done else math.nan
    return {
        "op_s": op_s,
        "cells_per_s": workload.cells_per_op / op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(workload, tally):
    import layers
    from spans import Tracer

    workload.setup()
    plain = tally.run(workload, 0)
    tracer = Tracer(layers.ATTRS)
    with tracer:
        tracer.phase = "setup"
        workload.setup()
        tracer.phase = None
        traced = tally.run(workload, 0, tracer)
    workers = getattr(workload, "threads", 1)
    metrics = layers.layer_metrics(tracer.spans, workers)
    metrics["cli.thread_speedup"] = 0.0
    if workload.cells_per_op > 1:
        workload.threads = 1
        single = tally.run(workload, 0)
        if single is not None and plain is not None:
            metrics["cli.thread_speedup"] = single / plain
    overhead = traced / plain - 1 if traced is not None and plain is not None else math.nan
    metrics["trace.overhead_frac"] = overhead
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads, here and in the import probe
    try:
        import_pmvl()
    except ImportError as exc:
        print(f"perfbench: cannot import pmvl: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        facts = machine_facts(workload)
        tally = Tally()
        if args.trace:
            values = per_layer(workload, tally)
            units = {name: layer_unit(name) for name in values}
        else:
            values = end_to_end(workload, args.seconds, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print("# machine " + json.dumps(facts, sort_keys=True))
    print(f"# failed_frac {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} ops)")
    print("# op_seconds " + " ".join(f"{d:.3f}" for d in tally.durations))
    for key in ("accuracy", "nrmse"):
        scores = [q[key] for q in tally.quality]
        mean = statistics.fmean(scores) if scores else math.nan
        print(f"# quality {key} {mean:.6g} (mean over {len(scores)} ops)")
    for name, value in values.items():
        print(f"# metric {name} {value:.6g} {units[name]}")
    metrics = {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
               for name, value in values.items()}
    correct = tally.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
