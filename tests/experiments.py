"""FFT architecture-exploration configurations shared by the acceptance
suite.

Three constraint mixes over the same 16-point FFT probe opposite corners
of the design space:

* ``io_constrained``: every input and output pinned to a dense bus
  timetable, memory sized (8 dual-port banks) so the timetable is met.
* ``two_bank_free_io``: memory squeezed to 2 banks, I/O left to the
  scheduler, operator counts carried over from ``io_constrained``.
* ``two_bank_paced_input``: 2 banks again, inputs arriving one per cycle
  on a single bus, outputs free, minimal operator pool.

``scale_config`` builds the same paced-input shape on a 128-point FFT for
the large smoke test.  ``Config.report_argv`` writes a configuration's
input documents for a ``report`` call through the CLI.  Each FFT, its
library, its banks and its paced inputs are built by the benchmark's
own FFT builder (``perfbench/workloads.py``, through ``instances``).
"""

import json
from dataclasses import dataclass
from pathlib import Path

import sfgsched as s
from instances import workloads


@dataclass
class Config:
    name: str
    g: s.SFG
    lib: s.OperatorLibrary
    spec: s.IoConstraintSpec
    mapping: s.MemoryMapping
    allocation: s.Allocation

    def lower(self) -> s.Problem:
        return s.lower(self.g, self.lib, self.spec, self.mapping)

    def run(self) -> tuple[s.Schedule, s.ArchitectureReport]:
        problem = self.lower()
        sched = s.schedule(self.g, self.lib, self.spec, self.mapping,
                           self.allocation, problem)
        return sched, s.build_report(sched, problem)

    def verify(self, sched: s.Schedule) -> list[s.Violation]:
        return s.verify_schedule(sched, self.lower(), self.allocation)

    def report_argv(self, directory: Path) -> list[str]:
        """Write the four input documents into ``directory`` (the mapping
        as strict placements) and return the ``cli.main`` arguments of a
        ``report`` on them, with its outputs in ``directory / "out"``."""
        def label(node: int) -> str:
            return self.g.node(node).label

        docs = {
            "graph": s.serialize_sfg(self.g),
            "lib": json.dumps({
                **({} if self.lib.clock_hz is None else
                   {"clock_mhz": self.lib.clock_hz / 1e6}),
                "classes": [{"name": c.name, "ops": sorted(c.ops),
                             "latency": c.latency}
                            for c in self.lib.classes]}),
            "io": json.dumps({
                "cadence": self.spec.cadence,
                "latency": self.spec.latency_bound,
                "buses": [{"id": b.id, "direction": b.direction}
                          for b in self.spec.buses],
                "transfers": [{"data": label(t.node), "bus": t.bus,
                               "offset": t.offset}
                              for t in self.spec.transfers]}),
            "mem": json.dumps({
                "mode": "strict",
                "banks": [{"id": b.id, "ports": b.ports, "t_seq": b.t_seq,
                           "t_rand": b.t_rand} for b in self.mapping.banks],
                "placements": [{"data": label(p.data), "bank": p.bank,
                                "address": p.address}
                               for p in self.mapping.placements]}),
        }
        argv = ["report"]
        for name, text in docs.items():
            (directory / f"{name}.json").write_text(text)
            argv += [f"--{name}", str(directory / f"{name}.json")]
        alloc = self.allocation
        return argv + ["--alloc", "auto" if alloc.mode == "auto" else
                       "fixed:" + ",".join(f"{cls}={n}"
                                           for cls, n in alloc.counts),
                       "--out", str(directory / "out")]


def _fft_config(name: str, points: int, spec_for, n_banks: int, ports: int,
                alloc: str) -> Config:
    """A ``points``-point FFT with the I/O spec ``spec_for(g)`` and
    ``n_banks`` banks of ``ports`` ports under ``alloc``."""
    p = workloads._fft_problem(s, name, points, spec_for, n_banks, ports,
                               alloc)
    return Config(name, p.g, p.lib, p.spec, p.mapping,
                  s.parse_allocation(alloc))


def io_constrained(points: int = 16) -> Config:
    """Inputs one per cycle, both result streams drained back to back
    starting at cycle 8 * points; bound equal to the last transfer + 1."""
    first_out = 8 * points
    bound = first_out + points

    def spec_for(g):
        transfers = workloads._paced_inputs(s, g, points)
        transfers += tuple(s.Transfer(g.node_by_label(f"Yr{k}").id, "out_re",
                                      first_out + k) for k in range(points))
        transfers += tuple(s.Transfer(g.node_by_label(f"Yi{k}").id, "out_im",
                                      first_out + k) for k in range(points))
        return s.IoConstraintSpec(
            buses=(s.BusDef("in0", "in"), s.BusDef("out_re", "out"),
                   s.BusDef("out_im", "out")),
            transfers=transfers, cadence=bound, latency_bound=bound)
    return _fft_config("io_constrained", points, spec_for, 8, 2,
                       "fixed:mult=20,add=10,sub=10")


def two_bank_free_io(operator_counts: dict[str, int],
                     points: int = 16) -> Config:
    return _fft_config(
        "two_bank_free_io", points,
        lambda g: s.IoConstraintSpec.unconstrained(latency_bound=512), 2, 2,
        "fixed:" + ",".join(f"{cls}={n}"
                            for cls, n in sorted(operator_counts.items())))


def two_bank_paced_input(points: int = 16, bound: int = 1024,
                         ports: int = 2) -> Config:
    def spec_for(g):
        return s.IoConstraintSpec(
            buses=(s.BusDef("in0", "in"),),
            transfers=workloads._paced_inputs(s, g, points),
            cadence=bound, latency_bound=bound)
    return _fft_config("two_bank_paced_input", points, spec_for, 2, ports,
                       "auto")


def scale_config(points: int = 128) -> Config:
    cfg = two_bank_paced_input(points=points, bound=128 * points, ports=1)
    return Config("scale", cfg.g, cfg.lib, cfg.spec, cfg.mapping,
                  cfg.allocation)
