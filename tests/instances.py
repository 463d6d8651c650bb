"""Seeded random scheduling problems, small enough for the exhaustive
oracle in verify.brute_force_min_latency.

Every generator decision flows from one random.Random(seed) stream, so a
seed pins the whole problem. Instances mix unconstrained and pinned I/O,
one and two banks, single and dual ports, auto and fixed allocation, and
include a slice of deliberately infeasible latency bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import sfgsched as s


@dataclass
class Problem:
    seed: int
    g: s.SFG
    lib: s.OperatorLibrary
    spec: s.IoConstraintSpec
    mapping: s.MemoryMapping
    allocation: s.Allocation
    instance_caps: dict[str, int] | None  # None = unlimited (auto mode)

    def run_scheduler(self) -> s.Schedule:
        return s.schedule(self.g, self.lib, self.spec, self.mapping,
                          self.allocation)

    def brute_minimum(self) -> int | None:
        return s.brute_force_min_latency(self.g, self.lib, self.spec,
                                         self.mapping,
                                         instances=self.instance_caps)


def _random_library(rng: random.Random) -> s.OperatorLibrary:
    shape = rng.choice(("alu", "two", "three"))
    if shape == "alu":
        classes = (s.OperatorClass("alu", frozenset("+-*"), rng.randint(1, 2)),)
    elif shape == "two":
        classes = (s.OperatorClass("mult", frozenset("*"), rng.randint(1, 2)),
                   s.OperatorClass("addsub", frozenset("+-"), rng.randint(1, 2)))
    else:
        classes = (s.OperatorClass("mult", frozenset("*"), rng.randint(1, 2)),
                   s.OperatorClass("add", frozenset("+"), rng.randint(1, 2)),
                   s.OperatorClass("sub", frozenset("-"), rng.randint(1, 2)))
    return s.OperatorLibrary(classes=classes)


def _random_graph(rng: random.Random) -> s.SFG:
    nodes: list[s.SfgNode] = []
    edges: list[tuple[int, int, int]] = []

    def add(kind: s.NodeKind, op: str | None = None, label: str = "") -> int:
        nodes.append(s.SfgNode(id=len(nodes), kind=kind, op=op, label=label))
        return len(nodes) - 1

    inputs = [add(s.NodeKind.INPUT, label=f"in{i}")
              for i in range(rng.randint(1, 3))]
    romem = [add(s.NodeKind.MEMDATA, label=f"d{i}")
             for i in range(rng.randint(0, 2))]
    const = add(s.NodeKind.CONSTANT, label="one") if rng.random() < 0.3 else None

    n_ops = rng.randint(1, 6)
    # at most one memory write; readers must be later ops (keeps the DAG)
    writer_pos = rng.randrange(n_ops) if n_ops >= 2 and rng.random() < 0.35 \
        else None
    ops: list[int] = []
    written: int | None = None
    for i in range(n_ops):
        pool = inputs + romem + ops
        if written is not None:
            pool = pool + [written]
        if const is not None and rng.random() < 0.25:
            pool = pool + [const]
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

    g = s.SFG(nodes, edges)
    assert not s.validate_sfg(g), s.validate_sfg(g)
    return g


def _random_mapping(rng: random.Random, g: s.SFG) -> s.MemoryMapping:
    banks = tuple(s.Bank(id=f"bank{i}", ports=rng.randint(1, 2), t_seq=1,
                         t_rand=rng.randint(1, 2))
                  for i in range(rng.randint(1, 2)))
    table = s.extract_memory_table(g)
    if rng.random() < 0.3 and table.data_ids:
        # strict placement with occasional address gaps (breaks bursts)
        placements = []
        nxt = {b.id: 0 for b in banks}
        order = sorted(table.data_ids)
        rng.shuffle(order)
        for d in order:
            b = rng.choice(banks).id
            nxt[b] += rng.randint(0, 1)
            placements.append(s.Placement(data=d, bank=b, address=nxt[b]))
            nxt[b] += 1
        spec = s.MappingSpec(mode="strict", banks=banks,
                             placements=tuple(placements))
    else:
        spec = s.MappingSpec(mode="auto", banks=banks)
    return s.apply_mapping(table, spec)


def _random_io(rng: random.Random, g: s.SFG,
               lib: s.OperatorLibrary) -> s.IoConstraintSpec:
    buses: list[s.BusDef] = []
    transfers: list[s.Transfer] = []
    if rng.random() < 0.5:
        for k, n in enumerate(g.inputs):
            buses.append(s.BusDef(id=f"bi{k}", direction="in"))
            transfers.append(s.Transfer(node=n.id, bus=f"bi{k}",
                                        offset=rng.randint(0, 2)))

    probe = s.IoConstraintSpec(buses=tuple(buses), transfers=tuple(transfers),
                               cadence=64, latency_bound=64)
    problem = s.lower(g, lib, probe)
    cg, win = problem.cg, problem.windows
    out_asap = {n.id: win.asap[n.id] for n in cg.of_kind(s.CgKind.OUTPUT)}
    ceiling = max(out_asap.values())

    if rng.random() < 0.15:
        bound = max(1, ceiling - rng.randint(0, 2))  # usually too tight
    else:
        bound = ceiling + 1 + rng.randint(0, 3)
        if transfers:
            for k, n in enumerate(cg.of_kind(s.CgKind.OUTPUT)):
                if rng.random() >= 0.5:
                    continue
                if rng.random() < 0.1:
                    off = max(0, out_asap[n.id] - 1)  # usually unmeetable
                else:
                    off = min(out_asap[n.id] + rng.randint(0, 2), bound - 1)
                buses.append(s.BusDef(id=f"bo{k}", direction="out"))
                transfers.append(s.Transfer(node=n.id, bus=f"bo{k}",
                                            offset=off))

    floor = max((t.offset + 1 for t in transfers), default=1)
    return s.IoConstraintSpec(buses=tuple(buses), transfers=tuple(transfers),
                              cadence=max(bound, floor) + rng.randint(0, 2),
                              latency_bound=bound)


def random_problem(seed: int) -> Problem:
    rng = random.Random(seed)
    g = _random_graph(rng)
    lib = _random_library(rng)
    mapping = _random_mapping(rng, g)
    spec = _random_io(rng, g, lib)
    assert not spec.validate(g), spec.validate(g)

    used = {lib.select(n.op).name for n in g.operations}
    if rng.random() < 0.5:
        caps = {c: rng.randint(1, 2) for c in sorted(used)}
        alloc = s.Allocation(mode="fixed", counts=tuple(sorted(caps.items())))
        return Problem(seed, g, lib, spec, mapping, alloc, caps)
    return Problem(seed, g, lib, spec, mapping, s.Allocation(mode="auto"), None)


def random_fft_problem(seed: int) -> Problem:
    """A seeded 4-, 8- or 16-point FFT under a random resource mix.

    Banks (1-4, each with 1-3 ports, t_seq 1-2 and t_rand >= t_seq), placement
    (round-robin, or strict in shuffled order with address gaps), paced or
    free inputs, the latency bound (a slice of them too tight) and the pool
    (auto, or fixed with 0-3 instances per class) all come from one
    random.Random(seed) stream.  The graphs are large enough to form the
    tie groups a 1-6 op problem rarely has; no oracle runs on them.
    """
    rng = random.Random(seed)
    points = rng.choice((4, 8, 16))
    g = s.generate_fft_sfg(points)
    lib = _random_library(rng)

    banks = []
    for i in range(rng.randint(1, 4)):
        t_seq = rng.randint(1, 2)
        banks.append(s.Bank(id=f"bank{i}", ports=rng.randint(1, 3),
                            t_seq=t_seq, t_rand=t_seq + rng.randint(0, 2)))
    banks = tuple(banks)
    table = s.extract_memory_table(g)
    if rng.random() < 0.3:
        order = list(table.data_ids)
        rng.shuffle(order)
        nxt = {b.id: 0 for b in banks}
        placements = []
        for d in order:
            b = rng.choice(banks).id
            nxt[b] += rng.randint(0, 1)
            placements.append(s.Placement(data=d, bank=b, address=nxt[b]))
            nxt[b] += 1
        mspec = s.MappingSpec(mode="strict", banks=banks,
                              placements=tuple(placements))
    else:
        mspec = s.MappingSpec(mode="auto", banks=banks)
    mapping = s.apply_mapping(table, mspec)

    paced = rng.random() < 0.5
    transfers = tuple(s.Transfer(g.node_by_label(f"X{k}").id, "in0", k)
                      for k in range(points)) if paced else ()
    buses = (s.BusDef("in0", "in"),) if paced else ()
    probe = s.IoConstraintSpec(buses=buses, transfers=transfers,
                               cadence=4096, latency_bound=4096)
    problem = s.lower(g, lib, probe)
    cg, win = problem.cg, problem.windows
    ceiling = max(win.asap[n.id] for n in cg.of_kind(s.CgKind.OUTPUT)) + 1
    if rng.random() < 0.1:
        bound = max(points, ceiling - rng.randint(0, 3))  # often too tight
    else:
        bound = ceiling + rng.randint(0, 32 * points)
    spec = s.IoConstraintSpec(buses=buses, transfers=transfers,
                              cadence=bound + rng.randint(0, 4),
                              latency_bound=bound)
    assert not spec.validate(g), spec.validate(g)

    used = {lib.select(n.op).name for n in g.operations}
    if rng.random() < 0.4:
        caps = {c: rng.choice((0, 1, 1, 2, 2, 3, 3)) for c in sorted(used)}
        alloc = s.Allocation(mode="fixed", counts=tuple(sorted(caps.items())))
        return Problem(seed, g, lib, spec, mapping, alloc, caps)
    return Problem(seed, g, lib, spec, mapping, s.Allocation(mode="auto"), None)
