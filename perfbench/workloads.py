"""Seeded input generators for the three benchmark workloads.

Each generator returns a list of ``Problem`` records built through the
public ``sfgsched`` API.  ``write_problem`` turns one into the four JSON
documents a user passes to ``sfgsched report`` (graph, library, I/O and
memory placement) and returns the argument list for that call.

The shapes are reproduced here on purpose instead of importing the test
helpers, so that editing the tests cannot silently change the benchmark:

* ``fft128_paced``: 128-point FFT, inputs paced one per cycle on one bus,
  outputs free, 2 single-port banks, auto allocation, bound 16,384.
* ``fft64_pinned``: 64-point FFT, every input and output pinned on three
  buses, 8 dual-port banks, ``fixed:mult=20,add=10,sub=10``, bound 576.
* ``kernel_sweep``: the 1,000 small random problems (1-6 ops) of problem
  seeds 0-999, drawn with the same random stream as the test suite's
  ``random_problem``, called in an order shuffled by the workload seed.

The problem set stays fixed so that the deterministic metrics (latency,
operator and register sums) are the same on every seed and a bound on
them can be tight: with seed-dependent problem sets they spread by about
5% between seeds.  The FFT workloads have a fixed shape, so their inputs
are the same for every seed.  Every function takes the imported
``sfgsched`` module as ``s`` so that set-up can time a fresh import.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

SWEEP_SIZE = 1000

FFT_LIBRARY_DOC = {
    "clock_mhz": 200,
    "classes": [
        {"name": "mult", "ops": ["*"], "latency": 2},
        {"name": "add", "ops": ["+"], "latency": 1},
        {"name": "sub", "ops": ["-"], "latency": 1},
    ],
}


@dataclass
class Problem:
    """One ``report`` call: the in-memory problem and its CLI inputs."""

    name: str                 # stable across seeds and call orders
    g: object                 # sfgsched.SFG
    lib: object               # sfgsched.OperatorLibrary
    spec: object              # sfgsched.IoConstraintSpec
    mapping_spec: object      # sfgsched.MappingSpec, as the user writes it
    mapping: object           # sfgsched.MemoryMapping, resolved
    alloc: str                # --alloc argument
    caps: dict[str, int] | None  # oracle pool caps; None means unlimited


# -- documents --------------------------------------------------------------

def library_doc(lib) -> dict:
    doc = {"classes": [{"name": c.name, "ops": sorted(c.ops),
                        "latency": c.latency} for c in lib.classes]}
    if lib.clock_hz is not None:
        doc["clock_mhz"] = lib.clock_hz / 1e6
    return doc


def io_doc(g, spec) -> dict:
    return {
        "cadence": spec.cadence,
        "latency": spec.latency_bound,
        "buses": [{"id": b.id, "direction": b.direction} for b in spec.buses],
        "transfers": [{"data": g.node(t.node).label, "bus": t.bus,
                       "offset": t.offset} for t in spec.transfers],
    }


def mem_doc(g, mapping_spec) -> dict:
    return {
        "mode": mapping_spec.mode,
        "banks": [{"id": b.id, "ports": b.ports, "t_seq": b.t_seq,
                   "t_rand": b.t_rand} for b in mapping_spec.banks],
        "placements": [{"data": g.node(p.data).label, "bank": p.bank,
                        "address": p.address}
                       for p in mapping_spec.placements],
    }


def _write_if_changed(path: Path, text: str) -> None:
    try:
        if path.read_text() == text:
            return
    except FileNotFoundError:
        pass
    path.write_text(text)


def write_problem(s, p: Problem, directory: Path) -> list[str]:
    """Write the problem's input documents; return ``report`` arguments.

    A document already on disk with the same text is left untouched, so
    repeated set-ups time generation rather than the file system's
    rewrite latency, which varies several-fold between runs.
    """
    directory.mkdir(parents=True, exist_ok=True)
    docs = {
        "graph.json": s.serialize_sfg(p.g),
        "lib.json": json.dumps(library_doc(p.lib)) + "\n",
        "io.json": json.dumps(io_doc(p.g, p.spec)) + "\n",
        "mem.json": json.dumps(mem_doc(p.g, p.mapping_spec)) + "\n",
    }
    for name, text in docs.items():
        _write_if_changed(directory / name, text)
    return ["report",
            "--graph", str(directory / "graph.json"),
            "--lib", str(directory / "lib.json"),
            "--io", str(directory / "io.json"),
            "--mem", str(directory / "mem.json"),
            "--alloc", p.alloc,
            "--out", str(directory / "out")]


# -- FFT shapes -------------------------------------------------------------

def _fft_problem(s, name: str, points: int, spec_for, n_banks: int,
                 ports: int, alloc: str) -> Problem:
    g = s.generate_fft_sfg(points)
    lib = s.parse_operator_library(json.dumps(FFT_LIBRARY_DOC))
    spec = spec_for(g)
    banks = tuple(s.Bank(id=f"bank{i}", ports=ports, t_seq=1, t_rand=2)
                  for i in range(n_banks))
    mapping_spec = s.MappingSpec(mode="auto", banks=banks)
    mapping = s.apply_mapping(s.extract_memory_table(g), mapping_spec)
    return Problem(name, g, lib, spec, mapping_spec, mapping, alloc, None)


def _paced_inputs(s, g, points: int) -> tuple:
    return tuple(s.Transfer(g.node_by_label(f"X{k}").id, "in0", k)
                 for k in range(points))


def fft128_paced(s, seed: int) -> list[Problem]:
    points, bound = 128, 128 * 128

    def spec_for(g):
        return s.IoConstraintSpec(buses=(s.BusDef("in0", "in"),),
                                  transfers=_paced_inputs(s, g, points),
                                  cadence=bound, latency_bound=bound)
    return [_fft_problem(s, "fft128_paced", points, spec_for, n_banks=2,
                         ports=1, alloc="auto")]


def fft64_pinned(s, seed: int) -> list[Problem]:
    points = 64
    first_out = 8 * points
    bound = first_out + points

    def spec_for(g):
        transfers = _paced_inputs(s, g, points)
        for bus, prefix in (("out_re", "Yr"), ("out_im", "Yi")):
            transfers += tuple(
                s.Transfer(g.node_by_label(f"{prefix}{k}").id, bus,
                           first_out + k) for k in range(points))
        return s.IoConstraintSpec(
            buses=(s.BusDef("in0", "in"), s.BusDef("out_re", "out"),
                   s.BusDef("out_im", "out")),
            transfers=transfers, cadence=bound, latency_bound=bound)
    return [_fft_problem(s, "fft64_pinned", points, spec_for, n_banks=8,
                         ports=2, alloc="fixed:mult=20,add=10,sub=10")]


# -- kernel sweep -----------------------------------------------------------
#
# The draws below follow the test suite's random_problem call for call, so
# problem seed k gives the same instance in both places.

def _sweep_graph(s, rng: random.Random):
    nodes: list = []
    edges: list[tuple[int, int, int]] = []

    def add(kind, op=None, label=""):
        nodes.append(s.SfgNode(id=len(nodes), kind=kind, op=op, label=label))
        return len(nodes) - 1

    inputs = [add(s.NodeKind.INPUT, label=f"in{i}")
              for i in range(rng.randint(1, 3))]
    romem = [add(s.NodeKind.MEMDATA, label=f"d{i}")
             for i in range(rng.randint(0, 2))]
    const = add(s.NodeKind.CONSTANT, label="one") if rng.random() < 0.3 \
        else None

    n_ops = rng.randint(1, 6)
    writer_pos = None
    if n_ops >= 2 and rng.random() < 0.35:
        writer_pos = rng.randrange(n_ops)
    ops: list[int] = []
    written = None
    for i in range(n_ops):
        pool = inputs + romem + ops
        if written is not None:
            pool.append(written)
        if const is not None and rng.random() < 0.25:
            pool.append(const)
        o = add(s.NodeKind.OPERATION, op=rng.choice("+-*"), label=f"o{i}")
        for pos in range(2):
            edges.append((rng.choice(pool), o, pos))
        ops.append(o)
        if writer_pos == i:
            written = add(s.NodeKind.MEMDATA, label="w0")
            edges.append((o, written, 0))

    consumed = {e[0] for e in edges}
    n_out = 0
    for o in ops:
        if o not in consumed or rng.random() < 0.2:
            out = add(s.NodeKind.OUTPUT, label=f"out{n_out}")
            edges.append((o, out, 0))
            n_out += 1
    if rng.random() < 0.15:
        out = add(s.NodeKind.OUTPUT, label=f"out{n_out}")
        edges.append((rng.choice(inputs), out, 0))
        n_out += 1
    if n_out == 0:
        out = add(s.NodeKind.OUTPUT, label="out0")
        edges.append((ops[-1], out, 0))
    return s.SFG(nodes, edges)


def _sweep_library(s, rng: random.Random):
    shape = rng.choice(("alu", "two", "three"))
    groups = {"alu": (("alu", "+-*"),),
              "two": (("mult", "*"), ("addsub", "+-")),
              "three": (("mult", "*"), ("add", "+"), ("sub", "-"))}[shape]
    return s.OperatorLibrary(classes=tuple(
        s.OperatorClass(name, frozenset(ops), rng.randint(1, 2))
        for name, ops in groups))


def _sweep_mapping_spec(s, rng: random.Random, g):
    banks = tuple(s.Bank(id=f"bank{i}", ports=rng.randint(1, 2), t_seq=1,
                         t_rand=rng.randint(1, 2))
                  for i in range(rng.randint(1, 2)))
    data_ids = s.extract_memory_table(g).data_ids
    if not (rng.random() < 0.3 and data_ids):
        return s.MappingSpec(mode="auto", banks=banks)
    # strict placement with occasional address gaps (breaks bursts)
    placements = []
    nxt = {b.id: 0 for b in banks}
    order = sorted(data_ids)
    rng.shuffle(order)
    for d in order:
        b = rng.choice(banks).id
        nxt[b] += rng.randint(0, 1)
        placements.append(s.Placement(data=d, bank=b, address=nxt[b]))
        nxt[b] += 1
    return s.MappingSpec(mode="strict", banks=banks,
                         placements=tuple(placements))


def _sweep_io(s, rng: random.Random, g, lib):
    buses: list = []
    transfers: list = []
    if rng.random() < 0.5:
        for k, n in enumerate(g.inputs):
            buses.append(s.BusDef(id=f"bi{k}", direction="in"))
            transfers.append(s.Transfer(node=n.id, bus=f"bi{k}",
                                        offset=rng.randint(0, 2)))

    probe = s.IoConstraintSpec(buses=tuple(buses), transfers=tuple(transfers),
                               cadence=64, latency_bound=64)
    cg = s.apply_io_constraints(s.build_constraint_graph(g, lib),
                                s.build_transfer_graph(probe), probe)
    asap = s.compute_time_windows(cg).asap
    outputs = cg.of_kind(s.CgKind.OUTPUT)
    ceiling = max(asap[n.id] for n in outputs)

    if rng.random() < 0.15:
        bound = max(1, ceiling - rng.randint(0, 2))  # usually too tight
    else:
        bound = ceiling + 1 + rng.randint(0, 3)
        if transfers:
            for k, n in enumerate(outputs):
                if rng.random() >= 0.5:
                    continue
                if rng.random() < 0.1:
                    off = max(0, asap[n.id] - 1)  # usually unmeetable
                else:
                    off = min(asap[n.id] + rng.randint(0, 2), bound - 1)
                buses.append(s.BusDef(id=f"bo{k}", direction="out"))
                transfers.append(s.Transfer(node=n.id, bus=f"bo{k}",
                                            offset=off))

    floor = max((t.offset + 1 for t in transfers), default=1)
    return s.IoConstraintSpec(buses=tuple(buses), transfers=tuple(transfers),
                              cadence=max(bound, floor) + rng.randint(0, 2),
                              latency_bound=bound)


def sweep_problem(s, problem_seed: int) -> Problem:
    rng = random.Random(problem_seed)
    g = _sweep_graph(s, rng)
    lib = _sweep_library(s, rng)
    mapping_spec = _sweep_mapping_spec(s, rng, g)
    mapping = s.apply_mapping(s.extract_memory_table(g), mapping_spec)
    spec = _sweep_io(s, rng, g, lib)

    used = sorted({lib.select(n.op).name for n in g.operations})
    if rng.random() < 0.5:
        caps = {c: rng.randint(1, 2) for c in used}
        alloc = "fixed:" + ",".join(f"{c}={n}" for c, n in caps.items())
        return Problem(f"k{problem_seed}", g, lib, spec, mapping_spec,
                       mapping, alloc, caps)
    return Problem(f"k{problem_seed}", g, lib, spec, mapping_spec, mapping,
                   "auto", None)


def kernel_sweep(s, seed: int) -> list[Problem]:
    order = list(range(SWEEP_SIZE))
    random.Random(seed).shuffle(order)
    return [sweep_problem(s, k) for k in order]


GENERATORS = {
    "fft128_paced": fft128_paced,
    "fft64_pinned": fft64_pinned,
    "kernel_sweep": kernel_sweep,
}
