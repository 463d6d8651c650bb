"""Seeded random scheduling problems.

Every generator decision flows from one random.Random(seed) stream, so a
seed pins the whole problem.  ``random_problem`` draws the benchmark's
own small problems (``perfbench/workloads.py``), small enough for the
exhaustive oracle in verify.brute_force_min_latency: they mix
unconstrained and pinned I/O, one and two banks, single and dual ports,
auto and fixed allocation, and include a slice of deliberately infeasible
latency bounds.  ``random_fft_problem`` draws FFTs under a random
resource mix.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import sfgsched as s


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / \
        "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@dataclass
class Problem:
    seed: int
    g: s.SFG
    lib: s.OperatorLibrary
    spec: s.IoConstraintSpec
    mapping: s.MemoryMapping
    allocation: s.Allocation
    instance_caps: dict[str, int] | None  # None = unlimited (auto mode)

    def lower(self) -> s.Problem:
        return s.lower(self.g, self.lib, self.spec, self.mapping)

    def verify(self, sched: s.Schedule) -> list[s.Violation]:
        return s.verify_schedule(sched, self.lower(), self.allocation)

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


def random_problem(seed: int) -> Problem:
    """The benchmark's kernel_sweep problem of ``seed``
    (``workloads.sweep_problem``)."""
    p = workloads.sweep_problem(s, seed)
    return Problem(seed, p.g, p.lib, p.spec, p.mapping,
                   s.parse_allocation(p.alloc), p.caps)


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
    problem = s.lower(g, lib, probe, mapping)
    cg, win = problem.cg, problem.windows
    ceiling = max(win.asap[n.id] for n in cg.of_kind(s.CgKind.OUTPUT)) + 1
    if rng.random() < 0.1:
        bound = max(points, ceiling - rng.randint(0, 3))  # often too tight
    else:
        bound = ceiling + rng.randint(0, 32 * points)
    spec = s.IoConstraintSpec(buses=buses, transfers=transfers,
                              cadence=bound + rng.randint(0, 4),
                              latency_bound=bound)
    s.lower(g, lib, spec, mapping)  # refuses a transfer its bus cannot carry

    used = {lib.select(n.op).name for n in g.operations}
    if rng.random() < 0.4:
        caps = {c: rng.choice((0, 1, 1, 2, 2, 3, 3)) for c in sorted(used)}
        alloc = s.Allocation(mode="fixed", counts=tuple(sorted(caps.items())))
        return Problem(seed, g, lib, spec, mapping, alloc, caps)
    return Problem(seed, g, lib, spec, mapping, s.Allocation(mode="auto"), None)
