"""In-memory span recording around pmvl's functions.

A `Tracer` replaces each function that a pmvl module looks up by name
(`pmvl.supervised.forward`, `pmvl.nets.sigmoid`, `pmvl.cli.train`, ...)
with a wrapper that records one span per call: name, start, end, parent
span id, thread id and a few attributes computed from the call's
arguments and result. `uninstall` puts every original object back. Spans
stay in a list until the caller reads them; nothing is written out.

Span names use the module that defines the function, so `nets.forward`
is one name whether `supervised` or `adversarial` made the call.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
import types
from dataclasses import dataclass, field

PACKAGE = "pmvl"
# private helpers worth a span of their own: one sweep cell per call
PRIVATE_WRAPPED = frozenset({"_sweep_cell"})


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    phase: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def children_of(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def self_time(span, kids):
    """Span duration minus the part of it that its child spans cover."""
    inner = [(max(c.start, span.start), min(c.end, span.end)) for c in kids.get(span.id, ())]
    return span.duration - covered([iv for iv in inner if iv[1] > iv[0]])


class Tracer:
    """Wraps pmvl's functions in place and records a span per call.

    `attrs` maps a span name to a function (args, kwargs, result) -> dict
    whose entries are stored on the span. Spans are recorded only while
    `phase` is set; with `phase` None the wrappers call straight through.
    """

    def __init__(self, attrs=None):
        self.attrs = dict(attrs or {})
        self.spans = []
        self.phase = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(module).items()):
                if not _traceable(value, attr):
                    continue
                name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                self._saved.append((module, attr, value))
                setattr(module, attr, self._wrap(value, name))

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        tracer = self
        extract = self.attrs.get(name)

        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = Span(span_id, parent, name, start, time.perf_counter(),
                            threading.get_ident(), phase)
                stack.pop()
                tracer.spans.append(span)
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def _traceable(value, attr):
    """A function defined in pmvl, public or named in PRIVATE_WRAPPED."""
    if not isinstance(value, types.FunctionType):
        return False
    if (value.__module__ or "").split(".")[0] != PACKAGE:
        return False
    return not attr.startswith("_") or attr in PRIVATE_WRAPPED
