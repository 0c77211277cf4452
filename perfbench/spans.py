"""In-memory spans for the traced run, and the hooks that produce them.

A span is one timed call: name, start and end (``perf_counter_ns``), the
index of the span that was open when it began, and the study it belongs to.
Spans around the calls the benchmark makes itself are opened by the study
code; spans inside the package come from rebinding the module-level names
that the package's own callers look up at call time (``gridp2p.engine.clear``
and so on). Nothing in the package is edited.

A hooked name that no longer exists is reported as absent instead of failing,
so the traced run keeps working while refactors remove or rename functions.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

# (module, attribute, span name). Each attribute is looked up by its callers
# in that module's globals at call time, so rebinding it intercepts the call.
HOOKS = (
    ("gridp2p.engine", "decide_slot_price", "leader.decide_slot_price"),
    ("gridp2p.engine", "clear", "auction.clear"),
    ("gridp2p.engine", "partition", "coalition.partition"),
    ("gridp2p.engine", "match_midmarket", "coalition.match_midmarket"),
    ("gridp2p.engine", "run_slot", "engine.run_slot"),
    ("gridp2p.engine", "aggregate_slots", "engine.aggregate_slots"),
)


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    """Records spans in memory; ``study`` tags every span opened meanwhile."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.study = -1
        self._open = [-1]

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter_ns(), 0, self._open[-1], self.study]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = perf_counter_ns()

    def self_times(self) -> dict[int, dict[str, tuple[int, int]]]:
        """Per study, per span name: (call count, self time in ns).

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        studies: dict[int, dict[str, tuple[int, int]]] = {}
        for i, (name, start, end, _, sid) in enumerate(self.spans):
            totals = studies.setdefault(sid, {})
            calls, ns = totals.get(name, (0, 0))
            totals[name] = (calls + 1, ns + end - start - child_ns[i])
        return studies

    def step_times(self) -> dict[int, dict[str, int]]:
        """Per study, the inclusive ns of each direct child of its root span."""
        roots = {i for i, record in enumerate(self.spans) if record[3] < 0}
        studies: dict[int, dict[str, int]] = {}
        for name, start, end, parent, sid in self.spans:
            if parent in roots:
                steps = studies.setdefault(sid, {})
                steps[name] = steps.get(name, 0) + end - start
        return studies

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent, study."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tstudy\n")
            for record in self.spans:
                fh.write("\t".join(map(str, record)) + "\n")


def _wrap(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def hooked(tracer: Tracer, absent: set[str]):
    """Rebind every hook in ``HOOKS`` to a span-recording wrapper.

    Span names whose module or attribute is missing are added to ``absent``.
    The original bindings are restored on exit.
    """
    saved = []
    try:
        for module_name, attr, name in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.add(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                absent.add(name)
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(fn, name, tracer))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
