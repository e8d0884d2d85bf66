"""Independent runs on every usable CPU: `map_striped` deals items to forked processes.

Items are dealt in fixed stripes, not from a queue: with n processes the
caller runs items[0::n] itself and forked child k runs items[k::n]. Which
items run in the calling process therefore depends on the item list and the
CPU count only, never on timing, and results come back in item order, so
the output of a caller that writes its results in that order does not
depend on the CPU count.

The start method is `fork`. A forked child starts with the parent's loaded
data and its functions as they are, so nothing but the results is pickled:
closures work, and so do functions a profiler has wrapped in place.
`spawn` and `forkserver` would re-import numpy and pmvl in every child
(~0.2 s each) and pickle the function by name. `fork` is unsafe in a process
with live threads, and Python 3.12+ warns about it there; pmvl starts a
thread only inside soft-impute (`baselines.impute_svd`), which joins it
before returning, so none is alive between items.
"""

import os

from .errors import WorkerError


def _run(fn, stripe):
    """fn over the stripe up to its first exception: (results, that exception or None)."""
    results = []
    for item in stripe:
        try:
            results.append(fn(item))
        except Exception as exc:  # handed to map_striped, which raises it in item order
            return results, exc
    return results, None


def _child(fn, stripe, conn):
    conn.send(_run(fn, stripe))
    conn.close()


def map_striped(fn, items, on_lost=None):
    """[fn(x) for x in items], run in one stripe per usable CPU, at most one per item.

    If fn raises, the exception of the first failing item in item order is
    raised, after every child has ended. A child that dies before sending
    its results (a signal, os._exit) loses its whole stripe: each of its
    items becomes on_lost(error), or, without on_lost, the WorkerError that
    names its exit code is raised like an exception of its first item. With
    one stripe, or where `fork` is unavailable, no child is started.
    """
    items = list(items)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    n = max(1, min(len(items), cpus))
    children = []
    try:
        if n > 1:
            # imported here, as ~1 MB of modules that only a forking run needs
            import multiprocessing

            if "fork" not in multiprocessing.get_all_start_methods():
                n = 1
            else:
                ctx = multiprocessing.get_context("fork")
                for k in range(1, n):
                    receiver, sender = ctx.Pipe(duplex=False)
                    proc = ctx.Process(target=_child, args=(fn, items[k::n], sender))
                    proc.start()
                    # only the child holds the sending end, so its death reads as EOF
                    sender.close()
                    children.append((proc, receiver))
        outcomes = [_run(fn, items[0::n])]
        for k, (proc, receiver) in enumerate(children, start=1):
            try:
                outcomes.append(receiver.recv())
            except EOFError:
                proc.join()
                lost = WorkerError(f"stripe worker {k} of {n} exited with code "
                                   f"{proc.exitcode} before sending its results")
                if on_lost is None:
                    outcomes.append(([], lost))
                else:
                    outcomes.append(([on_lost(lost) for _ in items[k::n]], None))
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, receiver in children:
            proc.join()
            receiver.close()
    # a stripe's error belongs to its item after the last result it returned
    errors = [(k + n * len(results), error)
              for k, (results, error) in enumerate(outcomes) if error is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    out = [None] * len(items)
    for k, (results, _) in enumerate(outcomes):
        out[k::n] = results
    return out
