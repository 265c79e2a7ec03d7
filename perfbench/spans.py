"""Spans and work counters recorded around calls into tauberlab.

Nothing here touches the package's source. A `Tracer` wraps callables
from outside: module attributes that one layer looks up in another at call
time (``tauber.assemble_kernel_route``, ``operators.kernel``,
``transform.prime_zeta_pair`` ...), methods of the `PrimeTable` an experiment
driver receives, and the evaluators of the source objects the drivers
build.
Wrappers are installed only for a traced unit of work and removed after
it, so untraced units run the package exactly as shipped.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top). Spans stay in memory while the unit runs.
Per-layer metrics follow from the span and counter names:

    <span>_s       total time in spans named <span>
    <span>_self_s  that time minus the time of their child spans
    <span>_calls   number of spans named <span>
    anything else  a counter (``*_points``, ``source_evals`` ...)
"""

from __future__ import annotations

import collections
import contextlib
import logging
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`."""
        parent = self._open[-1] if self._open else -1
        rec = [name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, counter=None, arg=0):
        """`fn` as a span; `counter` adds the size of positional `arg`."""

        def traced(*args, **kwargs):
            if counter:
                self.counts[counter] += int(np.size(args[arg]))
            return self.call(name, fn, *args, **kwargs)

        return traced

    def counting(self, counter, fn, arg=0):
        """`fn` with its positional `arg` sizes summed into `counter`."""

        def counted(*args, **kwargs):
            self.counts[counter] += int(np.size(args[arg]))
            return fn(*args, **kwargs)

        return counted

    def layer_metrics(self, names):
        """Values of the per-layer metric `names` from this tracer's records."""
        total = collections.Counter()
        child = collections.Counter()
        calls = collections.Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out = {}
        for metric in names:
            if metric.endswith("_self_s"):
                base = metric[: -len("_self_s")]
                out[metric] = float(total[base] - child[base])
            elif metric.endswith("_s"):
                out[metric] = float(total[metric[:-2]])
            elif metric.endswith("_calls"):
                out[metric] = calls[metric[: -len("_calls")]]
            else:
                out[metric] = self.counts[metric]
        return out


@contextlib.contextmanager
def patched(replacements):
    """Set each (obj, attr, value) for the duration of the block."""
    saved = []
    try:
        for obj, attr, value in replacements:
            saved.append((obj, attr, attr in vars(obj), getattr(obj, attr)))
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, own, old in reversed(saved):
            if own:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)


class BranchWarnings(logging.Handler):
    """Counts the uncertified-log-branch warnings of `tauberlab.special`.

    Attached for the whole run, so the warnings never reach stderr and the
    cost of handling them is the same in traced and untraced units."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "certify" in record.getMessage():
            self.count += 1
