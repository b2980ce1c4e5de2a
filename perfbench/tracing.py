"""In-memory spans recorded around the benchmark's calls into liespec.

A span is (name, start, end, parent, op, result): ``parent`` is the index of
the enclosing span or -1, ``op`` is the id shared by every span of one
benchmark op (-1 outside an op), and ``result`` is what a wrapped call
returned.  Spans stay in memory until the run ends and are then written out,
without results, as JSON lines.

Spans inside a ``scan()`` call come from rebinding, for the duration of a
traced round only, the public names that ``liespec.egs_scan`` and
``liespec.metric_space`` look up at call time.  No code under ``src/`` is
touched, and untraced rounds run the original functions.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, result]
        self._stack: list[int] = []
        self._op = -1
        self._next_op = 0

    def new_op(self) -> None:
        self._op = self._next_op
        self._next_op += 1

    def end_op(self) -> None:
        self._op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self._op, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, starts_op: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_op:
                self.new_op()
            with self.span(name) as rec:
                rec[5] = fn(*args, **kwargs)
                return rec[5]
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Rebind ``(module, attr, span name, starts_op)`` targets while active."""
        saved = []
        try:
            for module, attr, name, starts_op in targets:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self.wrap(orig, name, starts_op))
            yield
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)
            self.end_op()

    # -- derived figures ----------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this name."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def per_op_totals(self, name: str) -> list[float]:
        """Per op id: summed durations in seconds of its spans with this name."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s[0] == name:
                totals[s[4]] = totals.get(s[4], 0.0) + s[2] - s[1]
        return list(totals.values())

    def self_time_by_name(self) -> dict[str, float]:
        """Summed self time per span name: each span's duration minus the
        durations of its child spans, which run one after another."""
        totals: dict[str, float] = {}
        for name, start, end, parent, _, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + end - start
            if parent >= 0:
                pname = self.spans[parent][0]
                totals[pname] = totals.get(pname, 0.0) - (end - start)
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, _ in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def quantile_ms(values: list[float], q: float) -> float:
    """q-th percentile of durations in seconds, as ms, linear between order
    statistics; 0 when the layer never ran on the workload."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return 1000.0 * (xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))
