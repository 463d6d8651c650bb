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
input documents for a ``report`` call through the CLI.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import sfgsched as s

FFT_LIB = s.parse_operator_library(json.dumps({
    "clock_mhz": 200,
    "classes": [
        {"name": "mult", "ops": ["*"], "latency": 2},
        {"name": "add", "ops": ["+"], "latency": 1},
        {"name": "sub", "ops": ["-"], "latency": 1},
    ]}))


@dataclass
class Config:
    name: str
    g: s.SFG
    lib: s.OperatorLibrary
    spec: s.IoConstraintSpec
    mapping: s.MemoryMapping
    allocation: s.Allocation

    def run(self) -> tuple[s.Schedule, s.ArchitectureReport]:
        sched = s.schedule(self.g, self.lib, self.spec, self.mapping,
                           self.allocation)
        rep = s.build_report(sched, self.g, self.spec, self.mapping, self.lib)
        return sched, rep

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


def _banks(g: s.SFG, n: int, ports: int) -> s.MemoryMapping:
    banks = tuple(s.Bank(id=f"bank{i}", ports=ports, t_seq=1, t_rand=2)
                  for i in range(n))
    return s.apply_mapping(s.extract_memory_table(g),
                           s.MappingSpec(mode="auto", banks=banks))


def _paced_inputs(g: s.SFG, points: int) -> tuple:
    return tuple(s.Transfer(g.node_by_label(f"X{k}").id, "in0", k)
                 for k in range(points))


def io_constrained(points: int = 16) -> Config:
    """Inputs one per cycle, both result streams drained back to back
    starting at cycle 8 * points; bound equal to the last transfer + 1."""
    g = s.generate_fft_sfg(points)
    first_out = 8 * points
    bound = first_out + points
    transfers = _paced_inputs(g, points)
    transfers += tuple(s.Transfer(g.node_by_label(f"Yr{k}").id, "out_re",
                                  first_out + k) for k in range(points))
    transfers += tuple(s.Transfer(g.node_by_label(f"Yi{k}").id, "out_im",
                                  first_out + k) for k in range(points))
    spec = s.IoConstraintSpec(
        buses=(s.BusDef("in0", "in"), s.BusDef("out_re", "out"),
               s.BusDef("out_im", "out")),
        transfers=transfers, cadence=bound, latency_bound=bound)
    return Config("io_constrained", g, FFT_LIB, spec, _banks(g, 8, ports=2),
                  s.parse_allocation("fixed:mult=20,add=10,sub=10"))


def two_bank_free_io(operator_counts: dict[str, int],
                     points: int = 16) -> Config:
    g = s.generate_fft_sfg(points)
    alloc = s.parse_allocation("fixed:" + ",".join(
        f"{cls}={n}" for cls, n in sorted(operator_counts.items())))
    return Config("two_bank_free_io", g, FFT_LIB,
                  s.IoConstraintSpec.unconstrained(latency_bound=512),
                  _banks(g, 2, ports=2), alloc)


def two_bank_paced_input(points: int = 16, bound: int = 1024,
                         ports: int = 2) -> Config:
    g = s.generate_fft_sfg(points)
    spec = s.IoConstraintSpec(
        buses=(s.BusDef("in0", "in"),),
        transfers=_paced_inputs(g, points),
        cadence=bound, latency_bound=bound)
    return Config("two_bank_paced_input", g, FFT_LIB, spec,
                  _banks(g, 2, ports=ports),
                  s.parse_allocation("auto"))


def scale_config(points: int = 128) -> Config:
    cfg = two_bank_paced_input(points=points, bound=128 * points, ports=1)
    return Config("scale", cfg.g, cfg.lib, cfg.spec, cfg.mapping,
                  cfg.allocation)
