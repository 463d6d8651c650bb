"""Independent schedule checking.

``verify_schedule(sched, problem, allocation)`` checks every rule a
schedule must satisfy against the lowered problem (constraint graph, time
windows and pinned transfers) and the documents it carries:
dependencies, operator exclusivity, instances drawn from the recorded pool
(and, under a fixed allocation, pools no larger than its counts), port
capacity, access costs (replayed in reservation order), I/O timing and the
latency bound, one transfer per bus and cycle and one direction per bus
(a declared bus only its pinned ones), time windows, the record's cadence
and latency bound against the I/O constraints', and every record field
the lowering fixes (the kind of node a record names, labels, an access's
operation and kind, a transfer's direction and whether it is
synthesized).  The ``Problem`` is the one the scheduler read, derived
from its four documents alone; the verifier only reads it.  It takes the
timing rules from their one home, as the scheduler does: access
cost and slot span from ``memory.Bank``, output production and achieved
latency from ``constraints``.  It trusts nothing from the scheduler
beyond the schedule record: it reads the records into starts by node
position, walks each operation's in-edges for dependencies, replays the
accesses in sequence order into its own port counts and dates outputs
and the latency from the starts and transfer cycles, so a record that
breaks a rule is caught (the mutation tests guard this).

``brute_force_min_latency`` is an exhaustive oracle for small graphs: it
searches every start-time assignment (and every same-cycle reservation
order) and returns the best achievable latency, or None when no schedule
exists under the given resources.  It reads each op's facts by node
position, from the lowering and its op table (``problem.ops``), as the
scheduler does.  Its search state is only what cannot be worked out
from the rest: the cycle,
each op's start and the end of its writes, each bank's last address, and
the load of each reserved slot.  Instances are interchangeable, so a pool
cap bounds the ops of a class running at once, and no pool is kept.  The
search recurses once per start and advances the cycle in a loop, so its
depth is bounded by the number of operations, not cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .constraints import (CgKind, Problem, achieved_latency, produced_cycle,
                          transfer_cycles)
# unused here, but perfbench/tracing.py wraps these names on this module
from .constraints import (apply_io_constraints, build_constraint_graph,
                          compute_time_windows)
from .graph import SFG
from .iospec import IoConstraintSpec
from .memory import MemoryMapping
from .oplib import OperatorLibrary
from .scheduling import Allocation, Schedule, lower


@dataclass(frozen=True)
class Violation:
    kind: str  # dependency | operator-overlap | port-overlap | io-timing
               # | bus-overlap | window | unscheduled | access-cost | pool
               # | spec | record
    message: str
    node: int | None = None

    def __str__(self) -> str:
        where = f" (node {self.node})" if self.node is not None else ""
        return f"{self.kind}: {self.message}{where}"


def verify_schedule(sched: Schedule, problem: Problem,
                    allocation: Allocation) -> list[Violation]:
    """All rule violations in the schedule, empty when it is valid.

    ``problem`` is the lowering the schedule was made for (``lower``), and
    ``allocation`` the pool policy it was made under: a fixed one caps
    each class's pool at its count (a class it does not list at zero).
    """
    out: list[Violation] = []
    cg, windows = problem.cg, problem.windows
    spec, mapping = problem.spec, problem.mapping

    # the record's own cadence and bound must be the constraints': the
    # port horizon below and the deadlines come from the spec
    for name, recorded, wanted in (
            ("cadence", sched.cadence, spec.cadence),
            ("latency bound", sched.latency_bound, spec.latency_bound)):
        if recorded != wanted:
            out.append(Violation("spec", f"schedule records {name} "
                                         f"{recorded}, the I/O constraints "
                                         f"give {wanted}"))

    # Records are read by position, each once: a named tuple's field read
    # costs more than unpacking it.  What they name is looked up by node
    # position in the lowering's columns (see ``ConstraintGraph``).
    at, ids, kind, label, agent = cg.at, cg.ids, cg.kind, cg.label, cg.agent
    pred, succ = cg.pred, cg.succ
    OP, INPUT = CgKind.OP, CgKind.INPUT  # locals: cheaper than class lookups
    start: list[int | None] = [None] * len(ids)  # by position
    end: list[int | None] = [None] * len(ids)    # completion cycle
    for node, op_label, op_class, _, begin, latency in sched.ops:
        p = at.get(node)
        if p is not None and start[p] is not None:
            out.append(Violation("unscheduled",
                                 f"operation scheduled twice", node))
            continue
        if p is None or kind[p] is not OP:
            out.append(Violation("unscheduled",
                                 "schedule names a non-operation node", node))
            continue
        if op_class != cg.op_class[p] or latency != cg.latency[p]:
            out.append(Violation("unscheduled",
                                 f"operation bound to class {op_class} "
                                 f"with latency {latency}, library says "
                                 f"{cg.op_class[p]}/{cg.latency[p]}", node))
        if op_label != label[p]:
            out.append(Violation("record", f"operation labelled "
                                           f"{op_label!r}, the graph says "
                                           f"{label[p]!r}", node))
        start[p] = begin
        end[p] = begin + latency
    ops = cg.positions[OP]
    for p in ops:
        if start[p] is None:
            out.append(Violation("unscheduled",
                                 f"operation {label[p]} never "
                                 f"starts", ids[p]))
    if any(v.kind == "unscheduled" for v in out):
        return out  # remaining checks assume a complete assignment

    arrival = cg.arrival
    for v in ops:
        for u in pred[v]:
            if kind[u] is OP:
                if start[v] < end[u]:
                    out.append(Violation(
                        "dependency",
                        f"operation {ids[v]} starts at {start[v]} before its "
                        f"producer {ids[u]} completes at {end[u]}", ids[v]))
            elif kind[u] is INPUT:
                if start[v] < arrival[u]:
                    out.append(Violation(
                        "dependency",
                        f"operation {ids[v]} starts at {start[v]} before "
                        f"input {label[u]} arrives at "
                        f"{arrival[u]}", ids[v]))

    acc_by_node = {}
    READ, WRITE = CgKind.READ, CgKind.WRITE
    for a in sched.accesses:
        if a[0] in acc_by_node:
            out.append(Violation("port-overlap",
                                 "access reserved twice", a[0]))
            continue
        p = at.get(a[0])
        if p is None or kind[p] not in (READ, WRITE):
            out.append(Violation("port-overlap",
                                 "reservation for a non-access node", a[0]))
        acc_by_node[a[0]] = a
    placement = mapping._by_data  # memdata id -> Placement
    for p in sorted(cg.positions[READ] + cg.positions[WRITE]):
        a = acc_by_node.get(ids[p])
        if a is None:
            out.append(Violation("port-overlap",
                                 f"no reservation for {label[p]}", ids[p]))
            continue
        _, op_id, acc_kind, data, data_label, bank, address, cycle, cost, \
            _, _ = a
        op, reads = agent[p], kind[p] is READ
        if op_id != ids[op] or acc_kind != ("read" if reads else "write") \
                or data_label != label[p][3:]:
            out.append(Violation("record",
                                 f"access {label[p]} of operation {ids[op]} "
                                 f"recorded as {acc_kind} of {data_label!r} "
                                 f"by operation {op_id}", ids[p]))
        want = placement[cg.data[p]]
        if bank != want.bank or address != want.address \
                or data != cg.data[p]:
            out.append(Violation("port-overlap",
                                 f"access {label[p]} reserved at "
                                 f"{bank}@{address}, mapping places it "
                                 f"at {want.bank}@{want.address}", ids[p]))
        if reads:
            if cycle != start[op]:
                out.append(Violation("dependency",
                                     f"read {label[p]} at cycle {cycle}, its "
                                     f"consumer starts at {start[op]}",
                                     ids[p]))
            continue
        if cycle != end[op]:
            out.append(Violation("dependency",
                                 f"write {label[p]} at cycle {cycle}, its "
                                 f"producer completes at {end[op]}", ids[p]))
        for r in succ[p]:
            reader = agent[r]
            if start[reader] < cycle + cost:
                out.append(Violation(
                    "dependency",
                    f"operation {ids[reader]} reads {label[p].split(':')[-1]} "
                    f"at {start[reader]} before the write finishes at "
                    f"{cycle + cost}", ids[reader]))

    # Replay reservations in sequence order: recompute costs and fill an
    # independent port table.
    ordered = sorted(sched.accesses, key=itemgetter(10))  # seq
    if [a[10] for a in ordered] != list(range(1, len(ordered) + 1)):
        out.append(Violation("access-cost",
                             "reservation sequence numbers are not 1..n"))
    last: dict[str, int | None] = {b.id: None for b in mapping.banks}
    slots: dict[str, dict[int, int]] = {b.id: {} for b in mapping.banks}
    bank_of = mapping.bank
    for node, _, _, _, _, bank_id, address, cycle, cost, cost_class, _ \
            in ordered:
        if bank_id not in last:
            out.append(Violation("port-overlap",
                                 f"access at cycle {cycle} names bank "
                                 f"{bank_id}, which the mapping lacks", node))
            continue
        bank = bank_of(bank_id)
        replayed = bank.cost(last[bank_id], address)
        last[bank_id] = address
        if replayed != (cost, cost_class):
            out.append(Violation(
                "access-cost",
                f"access at cycle {cycle} on {bank_id}@{address} recorded "
                f"as {cost_class}/{cost}, replay gives "
                f"{replayed[1]}/{replayed[0]}", node))
            continue
        span = bank.span(cycle, cost, spec.cadence)
        if span is None:
            out.append(Violation("port-overlap",
                                 f"access on bank {bank_id} at cycle {cycle} "
                                 f"runs past the iteration horizon", node))
            continue
        used = slots[bank_id]
        for s in span:
            used[s] = used.get(s, 0) + 1
    for bank in mapping.banks:
        for s, n_used in sorted(slots[bank.id].items()):
            if n_used > bank.ports:
                out.append(Violation(
                    "port-overlap",
                    f"bank {bank.id} slot {s} serves {n_used} accesses with "
                    f"{bank.ports} port(s)"))

    if allocation.mode == "fixed":
        caps = dict(allocation.counts)
        for cls, names in sorted(sched.pool.items()):
            if len(names) > caps.get(cls, 0):
                out.append(Violation("pool",
                                     f"the {cls} pool holds {len(names)} "
                                     f"instances, the fixed allocation "
                                     f"allows {caps.get(cls, 0)}"))

    by_instance: dict[str, list] = {}
    for s in sched.ops:
        node, _, op_class, instance, _, _ = s
        by_instance.setdefault(instance, []).append(s)
        if instance not in sched.pool.get(op_class, ()):
            out.append(Violation("pool",
                                 f"operation {node} runs on {instance}, "
                                 f"which the {op_class} pool does not "
                                 f"hold", node))
    for name, recs in sorted(by_instance.items()):
        classes = {r.op_class for r in recs}
        if len(classes) > 1:
            out.append(Violation("operator-overlap",
                                 f"instance {name} used as {sorted(classes)}"))
        recs.sort(key=itemgetter(4))  # start
        for a, b in zip(recs, recs[1:]):
            if b[4] < a[4] + a[5]:  # b's start, a's start plus latency
                out.append(Violation(
                    "operator-overlap",
                    f"instance {name} runs operations {a.node} and {b.node} "
                    f"together at cycle {b.start}", b.node))

    transfer_of = {}
    bus_user: dict[tuple[str, int], int] = {}
    bus_side: dict[str, str] = {}  # the direction of a bus's first transfer
    OUTPUT = CgKind.OUTPUT
    for t in sched.transfers:
        if t.node in transfer_of:
            out.append(Violation("io-timing", "node transferred twice", t.node))
        p = at.get(t.node)
        if p is None or kind[p] not in (INPUT, OUTPUT):
            out.append(Violation("io-timing", "transfer of a node that is "
                                              "no input or output", t.node))
        transfer_of[t.node] = t
        other = bus_user.setdefault((t.bus, t.cycle), t.node)
        if other != t.node:
            out.append(Violation("bus-overlap",
                                 f"bus {t.bus} carries {other} and {t.node} "
                                 f"in cycle {t.cycle}", t.node))
        if bus_side.setdefault(t.bus, t.direction) != t.direction:
            out.append(Violation("bus-overlap", f"bus {t.bus} carries in "
                                                f"and out transfers", t.node))
    # production dates and the latency need every I/O transfer recorded
    io_nodes = cg.positions[INPUT] + cg.positions[OUTPUT]
    cycles = {p: transfer_of[ids[p]].cycle for p in io_nodes
              if ids[p] in transfer_of}  # by position
    complete = len(cycles) == len(io_nodes)
    declared = {b.id for b in spec.buses}
    for p in io_nodes:
        node, name = ids[p], label[p]
        t = transfer_of.get(node)
        if t is None:
            out.append(Violation("io-timing", f"no transfer for {name}", node))
            continue
        want = cg.pinned.get(p)
        direction = "in" if kind[p] is INPUT else "out"
        if t.direction != direction or t.synthesized != (want is None):
            out.append(Violation(
                "record",
                f"transfer of {name} recorded as {t.direction}, synthesized "
                f"{t.synthesized}, the constraints make it {direction}, "
                f"synthesized {want is None}", node))
        if want is None and t.bus in declared:
            out.append(Violation("record", f"{name} synthesized on declared "
                                           f"bus {t.bus}", node))
        if want is not None and (t.bus != want.bus or t.cycle != want.offset):
            out.append(Violation(
                "io-timing",
                f"{name} transferred on {t.bus}@{t.cycle}, "
                f"constrained to {want.bus}@{want.offset}", node))
        if kind[p] is INPUT:
            for s in succ[p]:
                if kind[s] is OP and start[s] < t.cycle:
                    out.append(Violation(
                        "io-timing",
                        f"operation {ids[s]} starts at {start[s]} before "
                        f"input {name} is transferred at {t.cycle}", ids[s]))
            continue
        if complete and t.cycle < (produced := produced_cycle(
                cg, p, start, cycles)):
            out.append(Violation(
                "io-timing",
                f"output {name} transferred at {t.cycle} "
                f"before it is produced at {produced}", node))
        if t.cycle > cg.deadline[p]:
            out.append(Violation(
                "io-timing",
                f"output {name} transferred at {t.cycle} "
                f"after its deadline {cg.deadline[p]}", node))

    alap, asap = windows.alap_at, windows.asap_at
    for node, _, _, _, begin, _ in sched.ops:
        p = at[node]
        if begin > alap[p]:
            out.append(Violation(
                "window",
                f"operation {node} starts at {begin}, latest feasible "
                f"start is {alap[p]}", node))
        if begin < asap[p]:
            out.append(Violation(
                "window",
                f"operation {node} starts at {begin}, earliest possible "
                f"start is {asap[p]}", node))

    if complete:
        achieved = achieved_latency(cg, cycles, max(
            map(end.__getitem__, ops), default=None))
        if achieved != sched.achieved_latency:
            out.append(Violation(
                "io-timing",
                f"schedule claims latency {sched.achieved_latency}, "
                f"its transfers and operations span {achieved} cycles"))
        if achieved > spec.latency_bound:
            out.append(Violation(
                "io-timing",
                f"transfers and operations span {achieved} cycles, the "
                f"latency bound is {spec.latency_bound}"))
    return out


#: the most operations ``brute_force_min_latency`` searches
ORACLE_MAX_OPS = 10


def brute_force_min_latency(g: SFG, lib: OperatorLibrary,
                            spec: IoConstraintSpec, mapping: MemoryMapping,
                            instances: dict[str, int] | None = None
                            ) -> int | None:
    """Exhaustive minimum achievable latency, or None if infeasible.

    ``instances`` caps the operator pool per class; None means unlimited.
    Searches all start assignments within the time windows, including every
    same-cycle reservation order (access costs depend on it).  Intended for
    test graphs only, hence the op-count guard (``ORACLE_MAX_OPS``).
    """
    problem = lower(g, lib, spec, mapping)
    cg = problem.cg
    ops = cg.positions[CgKind.OP]
    if len(ops) > ORACLE_MAX_OPS:
        raise ValueError(f"brute force capped at {ORACLE_MAX_OPS} operations, "
                         f"graph has {len(ops)}")

    lat, op_class = cg.latency, cg.op_class
    # asap: not before an arrival
    asap, alap = problem.windows.asap_at, problem.windows.alap_at
    op_preds = [[q for q in qs if cg.kind[q] is CgKind.OP] for qs in cg.pred]
    read_deps = problem.ops.writers
    peers = {i: [j for j in ops if op_class[j] == op_class[i]] for i in ops}
    bank_at = {b.id: k for k, b in enumerate(mapping.banks)}
    accesses = [[(bank_at[bank], mapping.bank(bank), address, offset)
                 for bank, address, offset in reqs]
                for reqs in problem.ops.requests]
    outputs = cg.positions[CgKind.OUTPUT]

    best: list[int | None] = [None]
    seen: set = set()

    def finish(started: dict[int, int]) -> None:
        cycles = transfer_cycles(cg, started)
        for o in outputs:
            if not produced_cycle(cg, o, started, cycles) <= \
                    cycles[o] <= cg.deadline[o]:
                return
        achieved = achieved_latency(cg, cycles, max(
            (started[o] + lat[o] for o in ops), default=None))
        if achieved <= spec.latency_bound and (best[0] is None
                                               or achieved < best[0]):
            best[0] = achieved

    def dfs(t: int, starts: tuple, last: tuple, loads: tuple) -> None:
        """Every way on from cycle t: each op that can start in a cycle
        is started one recursion level down, and the cycle advances in
        this frame, so the depth is bounded by the number of ops."""
        todo = [i for i in ops if starts[i] is None]
        if not todo:
            finish({o: starts[o][0] for o in ops})
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
                    span = bank.span(cyc, cost, spec.cadence)
                    if span is None:
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

    dfs(0, (None,) * len(cg.ids), (None,) * len(mapping.banks),
        (frozenset(),) * len(mapping.banks))
    return best[0]
