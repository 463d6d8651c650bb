"""Per-layer tracing installed from outside the program.

``install`` replaces public functions on the ``sfgsched`` modules that call
them with timing wrappers and returns a ``Tracer``; ``Tracer.uninstall``
puts the originals back.  Nothing under ``src/`` is edited.

Stage calls (parsing, constraint building, scheduling, verification,
report building) are kept as spans in memory, each with the span that was
open when it started, so a layer's self time is its duration minus the
time its children cover.  The per-cycle calls inside the scheduler
(``rank_executable``, ``assign_step`` and ``PortAccessTable.probe``) run
hundreds of thousands of times per call, so they are folded into counters
and summed time instead of one span each.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

# (module, attribute) pairs wrapped as spans; the span name is
# "<module>.<attribute>" without the package prefix.
_CONSTRAINT_NAMES = ("build_constraint_graph", "apply_io_constraints",
                     "compute_time_windows")
SPAN_TARGETS = (
    [("cli", name) for name in (
        "parse_sfg", "parse_io_spec", "parse_memory_mapping", "apply_mapping",
        *_CONSTRAINT_NAMES, "check_feasibility", "schedule", "verify_schedule",
        "build_report", "report_to_json", "render_report_text")]
    + [("scheduling", name) for name in _CONSTRAINT_NAMES]
    + [("verify", name) for name in _CONSTRAINT_NAMES]
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    child_s: float  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Aggregate:
    """Count and summed time of one per-cycle function."""

    calls: int = 0
    total_s: float = 0.0
    hits: int = 0       # calls with a noted outcome (see the observers)
    size_sum: int = 0   # summed argument size (ready-set length)
    size_peak: int = 0

    def clear(self) -> None:
        self.calls = self.hits = self.size_sum = self.size_peak = 0
        self.total_s = 0.0


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        for agg in self.aggregates.values():
            agg.clear()
        self._next_id = 0

    # -- wrapping ---------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records a span."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(self._next_id)
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += end - start
                self.spans.append(Span(
                    frame.span_id, name, start, end,
                    parent.span_id if parent is not None else None,
                    frame.child_s))
        return wrapper

    def aggregate(self, name: str, fn, observe=None):
        """Wrap ``fn`` so that calls only add to a counter and summed time.

        ``observe(agg, args, result)`` may note the outcome; ``result`` is
        None when the call raised.
        """
        agg = self.aggregates.setdefault(name, Aggregate())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(parent.span_id if parent is not None else None)
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent.child_s += elapsed
                agg.calls += 1
                agg.total_s += elapsed
                if observe is not None:
                    observe(agg, args, result)
        return wrapper

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(sp.duration for sp in self.spans if sp.name == name)

    def self_time(self, name: str) -> float:
        return sum(sp.self_s for sp in self.spans if sp.name == name)

    def count(self, name: str) -> int:
        return sum(1 for sp in self.spans if sp.name == name)

    def dump(self) -> dict:
        return {
            "spans": [[sp.id, sp.name, round(sp.start, 9), round(sp.end, 9),
                       sp.parent, round(sp.child_s, 9)] for sp in self.spans],
            "aggregates": {name: vars(agg)
                           for name, agg in self.aggregates.items()},
        }


def _note_ready(agg: Aggregate, args, result) -> None:
    size = len(args[1])
    agg.size_sum += size
    agg.size_peak = max(agg.size_peak, size)


def _note_started(agg: Aggregate, args, result) -> None:
    if result is not None:
        agg.hits += 1


def _note_blocked(agg: Aggregate, args, result) -> None:
    if result is None:  # a conflict, or HorizonError raised
        agg.hits += 1


def install(s) -> Tracer:
    """Wrap the layer functions of the imported package ``s``."""
    tracer = Tracer()
    modules = {name: importlib.import_module(f"{s.__name__}.{name}")
               for name in ("cli", "scheduling", "verify", "memory")}
    for module, attr in SPAN_TARGETS:
        owner = modules[module]
        tracer._replace(owner, attr,
                        tracer.span(f"{module}.{attr}", getattr(owner, attr)))
    sched = modules["scheduling"]
    tracer._replace(sched, "rank_executable", tracer.aggregate(
        "scheduling.rank_executable", sched.rank_executable, _note_ready))
    tracer._replace(sched, "assign_step", tracer.aggregate(
        "scheduling.assign_step", sched.assign_step, _note_started))
    table = modules["memory"].PortAccessTable
    tracer._replace(table, "probe", tracer.aggregate(
        "memory.probe", table.probe, _note_blocked))
    tracer._replace(sched.Schedule, "to_json", tracer.span(
        "scheduling.Schedule.to_json", sched.Schedule.to_json))
    return tracer
