"""Architecture summary derived from a finished schedule: operator counts,
memory banks touched, bus counts, a register estimate, and timing, read
from the schedule and the documents its ``Problem`` carries."""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import Problem
from .iospec import IoConstraintSpec
from .jsontext import dumps
from .scheduling import Schedule, estimate_registers


@dataclass(frozen=True)
class ArchitectureReport:
    operators: tuple[tuple[str, int], ...]  # (class, instances)
    banks_used: int
    bank_ids: tuple[str, ...]
    in_buses: int
    out_buses: int
    registers: int
    latency_cycles: int
    latency_bound: int
    cadence: int
    clock_hz: float | None = None

    @property
    def latency_seconds(self) -> float | None:
        if self.clock_hz is None:
            return None
        return self.latency_cycles / self.clock_hz


def _bus_count(sched: Schedule, spec: IoConstraintSpec, direction: str) -> int:
    """Declared buses plus the synthesized ones the schedule names."""
    declared = sum(1 for b in spec.buses if b.direction == direction)
    return declared + len({t.bus for t in sched.transfers
                           if t.direction == direction and t.synthesized})


def build_report(sched: Schedule, problem: Problem) -> ArchitectureReport:
    spec = problem.spec
    used = problem.mapping.banks_used()
    return ArchitectureReport(
        operators=tuple(sorted(sched.pool_counts().items())),
        banks_used=len(used),
        bank_ids=used,
        in_buses=_bus_count(sched, spec, "in"),
        out_buses=_bus_count(sched, spec, "out"),
        registers=estimate_registers(sched, problem.g),
        latency_cycles=sched.achieved_latency,
        latency_bound=sched.latency_bound,
        cadence=sched.cadence,
        clock_hz=problem.lib.clock_hz)


def render_report_text(r: ArchitectureReport) -> str:
    lines = ["architecture report", "-------------------"]
    for name, n in r.operators:
        lines.append(f"operator {name:<12} x{n}")
    lines.append(f"memory banks        {r.banks_used}"
                 + (f" ({', '.join(r.bank_ids)})" if r.bank_ids else ""))
    lines.append(f"input buses         {r.in_buses}")
    lines.append(f"output buses        {r.out_buses}")
    lines.append(f"registers (est.)    {r.registers}")
    lines.append(f"latency             {r.latency_cycles} cycles"
                 f" (bound {r.latency_bound}, cadence {r.cadence})")
    if r.latency_seconds is not None:
        lines.append(f"latency at clock    {r.latency_seconds * 1e6:.3f} us")
    return "\n".join(lines) + "\n"


def report_to_json(r: ArchitectureReport) -> str:
    doc = {
        "operators": {name: n for name, n in r.operators},
        "banks_used": r.banks_used,
        "bank_ids": list(r.bank_ids),
        "in_buses": r.in_buses,
        "out_buses": r.out_buses,
        "registers": r.registers,
        "latency_cycles": r.latency_cycles,
        "latency_bound": r.latency_bound,
        "cadence": r.cadence,
    }
    if r.clock_hz is not None:
        doc["clock_hz"] = r.clock_hz
        doc["latency_seconds"] = r.latency_seconds
    return dumps(doc) + "\n"
