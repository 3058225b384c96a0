"""Spans recorded from outside the library, and the statistics taken from them.

A span is one call into a public function of a layer: its name
(``layer.function``), start and end on the ``perf_counter`` clock, the span
that caused it, and the trace (one campaign or one analysis round) it belongs
to.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np


class Deadline(BaseException):
    """Raised by the run's alarm when the hard time limit is reached.

    It derives from BaseException so that the library's own
    ``except Exception`` boundaries (the CLI has one) cannot swallow it.
    """


class NullTracer:
    """Calls straight through; the untraced runs use this."""

    tag = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def extra(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin(self, trace_id):
        pass


class Tracer:
    """Records one span per call made through :meth:`call` or :meth:`extra`.

    ``extra`` marks a call that the untraced path does not make (an exactness
    check, or a library-level replay of a CLI verb), so that the tracing
    overhead can leave it out.
    """

    def __init__(self):
        self.spans = []  # (name, t0, t1, parent, trace_id, extra, tag)
        self.tag = None  # set by the caller, e.g. the code a call works on
        self._stack = []
        self._trace = None

    def begin(self, trace_id):
        self._trace = trace_id

    def _record(self, name, extra, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self._trace, extra, self.tag)

    def call(self, name, fn, *args, **kwargs):
        return self._record(name, False, fn, args, kwargs)

    def extra(self, name, fn, *args, **kwargs):
        return self._record(name, True, fn, args, kwargs)

    def durations(self, name, tags=None) -> list:
        return [
            s[2] - s[1] for s in self.spans
            if s is not None and s[0] == name and (tags is None or s[6] in tags)
        ]

    def extra_seconds(self, trace_id) -> float:
        """Time in the outermost extra spans of one trace."""
        total = 0.0
        for s in self.spans:
            if s is not None and s[5] and s[4] == trace_id:
                parent = s[3]
                if parent is None or not self.spans[parent][5]:
                    total += s[2] - s[1]
        return total

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        done = [s for s in self.spans if s is not None]
        origin = done[0][1] if done else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                name, t0, t1, parent, trace_id, extra, tag = span
                handle.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "trace": trace_id,
                    "tag": tag, "extra": extra,
                    "start_s": t0 - origin, "end_s": t1 - origin,
                }) + "\n")


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    there is no such percentile and the maximum is returned at 100.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    i = n - 11
    return float(ordered[i]), 100.0 * (i + 1) / n, n


def fit_fixed_and_slope(nodes, seconds):
    """Fit seconds = fixed + slope * nodes, minimising relative residuals.

    Relative weights keep the many shallow calls from being swamped by the
    few deep ones, so the intercept estimates the per-call front end.
    """
    if len(nodes) < 2 or len(set(nodes)) < 2:
        return 0.0, 0.0
    t = np.asarray(seconds, dtype=float)
    X = np.column_stack([np.ones_like(t), np.asarray(nodes, dtype=float)]) / t[:, None]
    coef, *_ = np.linalg.lstsq(X, np.ones_like(t), rcond=None)
    return float(coef[0]), float(coef[1])
