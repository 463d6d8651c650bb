"""Independent schedule checking.

``verify_schedule`` checks every rule a schedule must satisfy against the
lowered problem (constraint graph and time windows) and the mapping:
dependencies, operator exclusivity, instances drawn from the recorded pool
(and, under a fixed allocation, pools no larger than its counts), port
capacity, access costs (replayed in reservation order), I/O timing, one
transfer per bus and cycle, time windows, and the record's cadence and
latency bound against the I/O constraints'.  The lowering is either
its own or a ``Problem`` shared by the caller; both are derived from the
graph, library and I/O constraints alone, and the verifier only reads
them.  It takes the timing rules from their one home, as the scheduler
does: access cost and slot span from ``memory.Bank``, output production
and achieved latency from ``constraints``.  It still trusts nothing from
the scheduler beyond the schedule record: it replays the recorded
accesses in sequence order into its own port counts and dates outputs
and the latency from the recorded starts and transfer cycles, so a record
that breaks a rule is caught (the mutation tests guard this).

``brute_force_min_latency`` is an exhaustive oracle for small graphs: it
searches every start-time assignment (and every same-cycle reservation
order) and returns the best achievable latency, or None when no schedule
exists under the given resources.  Its search state is only what cannot
be worked out from the rest: the cycle, each op's start and the end of
its writes, each bank's last address, and the load of each reserved slot.
Instances are interchangeable, so a pool cap bounds the ops of a class
running at once, and no pool is kept.  The search recurses once per
start and advances the cycle in a loop, so its depth is bounded by the
number of operations, not cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import (CgKind, Problem, achieved_latency,
                          apply_io_constraints, build_constraint_graph,
                          compute_time_windows, produced_cycle,
                          transfer_cycles)
from .graph import SFG
from .iospec import IoConstraintSpec, build_transfer_graph
from .memory import HorizonError, MemoryMapping
from .oplib import OperatorLibrary
from .scheduling import Allocation, Schedule, op_requests


@dataclass(frozen=True)
class Violation:
    kind: str  # dependency | operator-overlap | port-overlap | io-timing
               # | bus-overlap | window | unscheduled | access-cost | pool
               # | spec
    message: str
    node: int | None = None

    def __str__(self) -> str:
        where = f" (node {self.node})" if self.node is not None else ""
        return f"{self.kind}: {self.message}{where}"


def verify_schedule(sched: Schedule, g: SFG, lib: OperatorLibrary,
                    spec: IoConstraintSpec,
                    mapping: MemoryMapping,
                    problem: Problem | None = None,
                    allocation: Allocation | None = None) -> list[Violation]:
    """All rule violations in the schedule, empty when it is valid.

    ``problem`` is the lowering of ``g``, ``lib`` and ``spec`` when the
    caller already holds one; without it the problem is lowered here.
    ``allocation`` is the pool policy the schedule was made under: a
    fixed one caps each class's pool at its count (a class it does not
    list at zero).
    """
    out: list[Violation] = []
    if problem is None:
        cg = apply_io_constraints(build_constraint_graph(g, lib),
                                  build_transfer_graph(spec), spec)
        problem = Problem(cg, compute_time_windows(cg))
    cg, windows = problem.cg, problem.windows

    # the record's own cadence and bound must be the constraints': the
    # port horizon below and the deadlines come from the spec
    for name, recorded, wanted in (
            ("cadence", sched.cadence, spec.cadence),
            ("latency bound", sched.latency_bound, spec.latency_bound)):
        if recorded != wanted:
            out.append(Violation("spec", f"schedule records {name} "
                                         f"{recorded}, the I/O constraints "
                                         f"give {wanted}"))

    started = {}
    for s in sched.ops:
        if s.node in started:
            out.append(Violation("unscheduled",
                                 f"operation scheduled twice", s.node))
            continue
        n = cg.nodes.get(s.node)
        if n is None or n.kind is not CgKind.OP:
            out.append(Violation("unscheduled",
                                 "schedule names a non-operation node", s.node))
            continue
        if s.op_class != n.op_class or s.latency != n.latency:
            out.append(Violation("unscheduled",
                                 f"operation bound to class {s.op_class} "
                                 f"with latency {s.latency}, library says "
                                 f"{n.op_class}/{n.latency}", s.node))
        started[s.node] = s
    for n in cg.operations:
        if n.id not in started:
            out.append(Violation("unscheduled",
                                 f"operation {n.label or n.id} never starts",
                                 n.id))
    if any(v.kind == "unscheduled" for v in out):
        return out  # remaining checks assume a complete assignment

    for u, v in cg.edges:
        nu, nv = cg.nodes[u], cg.nodes[v]
        if nu.kind is CgKind.OP and nv.kind is CgKind.OP:
            if started[v].start < started[u].completion:
                out.append(Violation(
                    "dependency",
                    f"operation {v} starts at {started[v].start} before its "
                    f"producer {u} completes at {started[u].completion}", v))
        elif nu.kind is CgKind.INPUT and nv.kind is CgKind.OP:
            if started[v].start < nu.arrival:
                out.append(Violation(
                    "dependency",
                    f"operation {v} starts at {started[v].start} before "
                    f"input {nu.label or u} arrives at {nu.arrival}", v))

    acc_by_node = {}
    for a in sched.accesses:
        if a.node in acc_by_node:
            out.append(Violation("port-overlap",
                                 "access reserved twice", a.node))
            continue
        acc_by_node[a.node] = a
    for n in cg.nodes.values():
        if n.kind not in (CgKind.READ, CgKind.WRITE):
            continue
        a = acc_by_node.get(n.id)
        if a is None:
            out.append(Violation("port-overlap",
                                 f"no reservation for {n.label}", n.id))
            continue
        p = mapping.placement_of(n.data)
        if a.bank != p.bank or a.address != p.address or a.data != n.data:
            out.append(Violation("port-overlap",
                                 f"access {n.label} reserved at "
                                 f"{a.bank}@{a.address}, mapping places it "
                                 f"at {p.bank}@{p.address}", n.id))
        owner = started[n.agent]
        if n.kind is CgKind.READ and a.cycle != owner.start:
            out.append(Violation("dependency",
                                 f"read {n.label} at cycle {a.cycle}, its "
                                 f"consumer starts at {owner.start}", n.id))
        if n.kind is CgKind.WRITE and a.cycle != owner.completion:
            out.append(Violation("dependency",
                                 f"write {n.label} at cycle {a.cycle}, its "
                                 f"producer completes at {owner.completion}",
                                 n.id))
        if n.kind is CgKind.WRITE:
            for r in cg.successors(n.id):
                reader = started[cg.nodes[r].agent]
                if reader.start < a.cycle + a.cost:
                    out.append(Violation(
                        "dependency",
                        f"operation {reader.node} reads {n.label.split(':')[-1]} "
                        f"at {reader.start} before the write finishes at "
                        f"{a.cycle + a.cost}", reader.node))

    # Replay reservations in sequence order: recompute costs and fill an
    # independent port table.
    ordered = sorted(sched.accesses, key=lambda a: a.seq)
    if [a.seq for a in ordered] != list(range(1, len(ordered) + 1)):
        out.append(Violation("access-cost",
                             "reservation sequence numbers are not 1..n"))
    last: dict[str, int | None] = {b.id: None for b in mapping.banks}
    slots: dict[str, dict[int, int]] = {b.id: {} for b in mapping.banks}
    for a in ordered:
        bank = mapping.bank(a.bank)
        cost, cls = bank.cost(last[a.bank], a.address)
        last[a.bank] = a.address
        if (cost, cls) != (a.cost, a.cost_class):
            out.append(Violation(
                "access-cost",
                f"access at cycle {a.cycle} on {a.bank}@{a.address} recorded "
                f"as {a.cost_class}/{a.cost}, replay gives {cls}/{cost}",
                a.node))
            continue
        try:
            span = bank.span(a.cycle, a.cost, spec.cadence)
        except HorizonError as e:
            out.append(Violation("port-overlap", str(e), a.node))
            continue
        used = slots[a.bank]
        for s in span:
            used[s] = used.get(s, 0) + 1
    for bank in mapping.banks:
        for s, n_used in sorted(slots[bank.id].items()):
            if n_used > bank.ports:
                out.append(Violation(
                    "port-overlap",
                    f"bank {bank.id} slot {s} serves {n_used} accesses with "
                    f"{bank.ports} port(s)"))

    if allocation is not None and allocation.mode == "fixed":
        caps = dict(allocation.counts)
        for cls, names in sorted(sched.pool.items()):
            if len(names) > caps.get(cls, 0):
                out.append(Violation("pool",
                                     f"the {cls} pool holds {len(names)} "
                                     f"instances, the fixed allocation "
                                     f"allows {caps.get(cls, 0)}"))

    by_instance: dict[str, list] = {}
    for s in sched.ops:
        by_instance.setdefault(s.instance, []).append(s)
        if s.instance not in sched.pool.get(s.op_class, ()):
            out.append(Violation("pool",
                                 f"operation {s.node} runs on {s.instance}, "
                                 f"which the {s.op_class} pool does not "
                                 f"hold", s.node))
    for name, recs in sorted(by_instance.items()):
        classes = {r.op_class for r in recs}
        if len(classes) > 1:
            out.append(Violation("operator-overlap",
                                 f"instance {name} used as {sorted(classes)}"))
        recs.sort(key=lambda r: r.start)
        for a, b in zip(recs, recs[1:]):
            if b.start < a.completion:
                out.append(Violation(
                    "operator-overlap",
                    f"instance {name} runs operations {a.node} and {b.node} "
                    f"together at cycle {b.start}", b.node))

    transfer_of = {}
    bus_user: dict[tuple[str, int], int] = {}
    for t in sched.transfers:
        if t.node in transfer_of:
            out.append(Violation("io-timing", "node transferred twice", t.node))
        transfer_of[t.node] = t
        other = bus_user.setdefault((t.bus, t.cycle), t.node)
        if other != t.node:
            out.append(Violation("bus-overlap",
                                 f"bus {t.bus} carries {other} and {t.node} "
                                 f"in cycle {t.cycle}", t.node))
    # production dates and the latency need every I/O transfer recorded
    io_nodes = cg.of_kind(CgKind.INPUT) + cg.of_kind(CgKind.OUTPUT)
    cycles = {node: t.cycle for node, t in transfer_of.items()}
    start = {node: rec.start for node, rec in started.items()}
    complete = all(n.id in cycles for n in io_nodes)
    pinned = {tr.node: tr for tr in spec.transfers}
    for n in io_nodes:
        t = transfer_of.get(n.id)
        if t is None:
            out.append(Violation("io-timing",
                                 f"no transfer for {n.label or n.id}", n.id))
            continue
        want = pinned.get(n.id)
        if want is not None and (t.bus != want.bus or t.cycle != want.offset):
            out.append(Violation(
                "io-timing",
                f"{n.label or n.id} transferred on {t.bus}@{t.cycle}, "
                f"constrained to {want.bus}@{want.offset}", n.id))
        if n.kind is CgKind.INPUT:
            for s in cg.successors(n.id):
                if cg.nodes[s].kind is CgKind.OP and started[s].start < t.cycle:
                    out.append(Violation(
                        "io-timing",
                        f"operation {s} starts at {started[s].start} before "
                        f"input {n.label or n.id} is transferred at {t.cycle}",
                        s))
            continue
        if complete and t.cycle < (produced := produced_cycle(
                cg, n.id, start, cycles)):
            out.append(Violation(
                "io-timing",
                f"output {n.label or n.id} transferred at {t.cycle} "
                f"before it is produced at {produced}", n.id))
        if t.cycle > n.deadline:
            out.append(Violation(
                "io-timing",
                f"output {n.label or n.id} transferred at {t.cycle} "
                f"after its deadline {n.deadline}", n.id))

    for s in sched.ops:
        if s.start > windows.alap[s.node]:
            out.append(Violation(
                "window",
                f"operation {s.node} starts at {s.start}, latest feasible "
                f"start is {windows.alap[s.node]}", s.node))
        if s.start < windows.asap[s.node]:
            out.append(Violation(
                "window",
                f"operation {s.node} starts at {s.start}, earliest possible "
                f"start is {windows.asap[s.node]}", s.node))

    if complete:
        achieved = achieved_latency(cg, cycles, max(
            (rec.completion for rec in sched.ops), default=None))
        if achieved != sched.achieved_latency:
            out.append(Violation(
                "io-timing",
                f"schedule claims latency {sched.achieved_latency}, "
                f"its transfers and operations span {achieved} cycles"))
    return out


def brute_force_min_latency(g: SFG, lib: OperatorLibrary,
                            spec: IoConstraintSpec, mapping: MemoryMapping,
                            instances: dict[str, int] | None = None,
                            max_ops: int = 10) -> int | None:
    """Exhaustive minimum achievable latency, or None if infeasible.

    ``instances`` caps the operator pool per class; None means unlimited.
    Searches all start assignments within the time windows, including every
    same-cycle reservation order (access costs depend on it).  Intended for
    test graphs only, hence the op-count guard.
    """
    cg = apply_io_constraints(build_constraint_graph(g, lib),
                              build_transfer_graph(spec), spec)
    windows = compute_time_windows(cg)
    ops = [n.id for n in cg.operations]
    if len(ops) > max_ops:
        raise ValueError(f"brute force capped at {max_ops} operations, "
                         f"graph has {len(ops)}")

    lat = [cg.nodes[o].latency for o in ops]
    op_class = [cg.nodes[o].op_class for o in ops]
    at = {o: i for i, o in enumerate(ops)}
    asap = [windows.asap[o] for o in ops]  # not before an input's arrival
    alap = [windows.alap[o] for o in ops]
    op_preds = [[at[p] for p in cg.predecessors(o)
                 if cg.nodes[p].kind is CgKind.OP] for o in ops]
    read_deps = [[at[cg.nodes[w].agent] for r in cg.accesses_of(o)[0]
                  for w in cg.predecessors(r.id)] for o in ops]
    peers = [[j for j in range(len(ops)) if op_class[j] == op_class[i]]
             for i in range(len(ops))]
    bank_at = {b.id: k for k, b in enumerate(mapping.banks)}
    requests = op_requests(cg, mapping)
    accesses = [[(bank_at[bank], mapping.bank(bank), address, offset)
                 for bank, address, offset in requests[o]] for o in ops]
    outputs = cg.of_kind(CgKind.OUTPUT)

    best: list[int | None] = [None]
    seen: set = set()

    def finish(started: dict[int, int]) -> None:
        cycles = transfer_cycles(cg, spec, started)
        for o in outputs:
            if not produced_cycle(cg, o.id, started, cycles) <= \
                    cycles[o.id] <= o.deadline:
                return
        achieved = achieved_latency(cg, cycles, max(
            (started[o] + n for o, n in zip(ops, lat)), default=None))
        if best[0] is None or achieved < best[0]:
            best[0] = achieved

    def dfs(t: int, starts: tuple, last: tuple, loads: tuple) -> None:
        """Every way on from cycle t: each op that can start in a cycle
        is started one recursion level down, and the cycle advances in
        this frame, so the depth is bounded by the number of ops."""
        todo = [i for i, s in enumerate(starts) if s is None]
        if not todo:
            finish({o: s[0] for o, s in zip(ops, starts)})
            return
        horizon = max(alap[i] for i in todo)
        while t <= horizon:
            key = (t, starts, last, loads)
            if key in seen:
                return
            seen.add(key)
            for i in todo:
                if not (asap[i] <= t <= alap[i]):
                    continue
                if any(starts[p] is None or starts[p][0] + lat[p] > t
                       for p in op_preds[i]):
                    continue
                if any(starts[w] is None or starts[w][1] > t
                       for w in read_deps[i]):
                    continue
                # instances are interchangeable: one is free unless every
                # one the cap allows runs an op of the class
                if instances is not None and sum(
                        1 for j in peers[i] if starts[j] is not None
                        and starts[j][0] + lat[j] > t) >= \
                        instances.get(op_class[i], 0):
                    continue
                # try to reserve accesses in order
                nlast, nloads = list(last), list(loads)
                done = t
                for k, bank, addr, delay in accesses[i]:
                    cost, _ = bank.cost(nlast[k], addr)
                    cyc = t + delay
                    try:
                        span = bank.span(cyc, cost, spec.cadence)
                    except HorizonError:
                        break
                    used = dict(nloads[k])
                    if any(used.get(s, 0) >= bank.ports for s in span):
                        break
                    for s in span:
                        used[s] = used.get(s, 0) + 1
                    nlast[k], nloads[k] = addr, frozenset(used.items())
                    if delay > 0:
                        done = max(done, cyc + cost)
                else:  # every access was reserved
                    dfs(t, starts[:i] + ((t, done),) + starts[i + 1:],
                        tuple(nlast), tuple(nloads))
            t += 1

    dfs(0, (None,) * len(ops), (None,) * len(mapping.banks),
        (frozenset(),) * len(mapping.banks))
    return best[0]
