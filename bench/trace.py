"""In-memory timing spans around calls into the program's layers.

A span records its name, start, end and parent span.  Spans come from two
places, both in the benchmark's own files: :meth:`Tracer.span` around a
block, and :meth:`Tracer.wrap`, which replaces a named public callable
(a module function or a class attribute) with a timing wrapper for the
life of the tracer.  Nothing inside the program is edited.

A layer's self time is its span durations minus the part of each span its
direct children cover.  A span the benchmark declared but that never
fired is reported as *missing*, never as 0: if a later change moves a
call site out from under a wrapper, a silent zero would read as a 100 %
speed-up.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace


class Tracer:
    """Spans kept in memory; written out once, when the traced pass ends.

    Spans are stored column-wise (names, starts, ends, parents) rather than
    as one object per span: tens of thousands of per-span containers would
    make every garbage collection slower and inflate the tracing overhead.
    """

    def __init__(self, clock=time.perf_counter):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self._clock())
        try:
            yield
        finally:
            self.ends[index] = self._clock()
            self._stack.pop()

    def wrap(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` with a wrapper timing every call as a span.

        ``name`` is the span name, or a callable mapping the call's
        positional arguments to one (to split one entry point by argument
        type).  :meth:`restore` puts the original back.
        """
        original = getattr(owner, attr)
        name_of = name if callable(name) else None
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, self._clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_of(*args) if name_of else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived views ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Wall durations of every span called ``name``, in firing order."""
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.names)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for name, start, end, child in zip(self.names, self.starts, self.ends, covered):
            totals[name] = totals.get(name, 0.0) + end - start - child
        return totals

    def span_cost(self, calls: int = 20_000) -> float:
        """Seconds one traced call adds over an untraced one, timed on a no-op."""

        def noop():
            return None

        bare, traced = SimpleNamespace(call=noop), SimpleNamespace(call=noop)
        probe = Tracer(self._clock)
        probe.wrap(traced, "call", "noop")
        timings = []
        for holder in (bare, traced):
            started = self._clock()
            for _ in range(calls):
                holder.call()
            timings.append(self._clock() - started)
        return max(0.0, (timings[1] - timings[0]) / calls)

    def overhead_frac(self, traced_wall: float) -> float:
        """Traced wall / untraced wall - 1 for a pass that took ``traced_wall``.

        The untraced wall is the traced one minus the calibrated cost of
        every span recorded.  Timing a separate untraced pass instead is
        swamped by run-to-run noise on a shared machine.
        """
        cost = len(self.names) * self.span_cost()
        return cost / (traced_wall - cost)

    def missing(self, declared) -> list[str]:
        """Declared span names that never fired."""
        return sorted(set(declared) - set(self.names))

    def summary(self, declared) -> dict:
        """Per-name count, total self seconds and median duration, plus ``missing``."""
        return {
            "spans": {
                name: {
                    "count": len(self.durations(name)),
                    "self_s": self_s,
                    "p50_s": statistics.median(self.durations(name)),
                }
                for name, self_s in sorted(self.self_times().items())
            },
            "missing": self.missing(declared),
        }

    def write(self, path) -> None:
        """Write every span as a ``[name, start, end, parent]`` row."""
        rows = list(zip(self.names, self.starts, self.ends, self.parents))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": rows}, handle)
