"""Independent schedule checking.

``verify_schedule`` checks every rule a schedule must satisfy against the
lowered problem (constraint graph and time windows) and the mapping:
dependencies, operator exclusivity, instances drawn from the recorded pool,
port capacity, access costs (replayed in reservation order), I/O timing,
one transfer per bus and cycle, and time windows.  The lowering is either
its own or a ``Problem`` shared by the caller; both are derived from the
graph, library and I/O constraints alone, and the verifier only reads
them.  It trusts nothing from the scheduler beyond the schedule record
itself.

``brute_force_min_latency`` is an exhaustive oracle for small graphs: it
searches every start-time assignment (and every same-cycle reservation
order) and returns the best achievable latency, or None when no schedule
exists under the given resources.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import (CgKind, Problem, apply_io_constraints,
                          build_constraint_graph, compute_time_windows)
from .graph import SFG
from .iospec import IoConstraintSpec, build_transfer_graph
from .memory import MemoryMapping
from .oplib import OperatorLibrary
from .scheduling import Schedule


@dataclass(frozen=True)
class Violation:
    kind: str  # dependency | operator-overlap | port-overlap | io-timing
               # | bus-overlap | window | unscheduled | access-cost | pool
    message: str
    node: int | None = None

    def __str__(self) -> str:
        where = f" (node {self.node})" if self.node is not None else ""
        return f"{self.kind}: {self.message}{where}"


def _replay_cost(mapping: MemoryMapping, last: dict[str, int | None],
                 bank_id: str, address: int) -> tuple[int, str]:
    bank = mapping.bank(bank_id)
    prev = last[bank_id]
    if prev is None or address == prev + 1:
        return bank.t_seq, "burst"
    return bank.t_rand, "random"


def verify_schedule(sched: Schedule, g: SFG, lib: OperatorLibrary,
                    spec: IoConstraintSpec,
                    mapping: MemoryMapping,
                    problem: Problem | None = None) -> list[Violation]:
    """All rule violations in the schedule, empty when it is valid.

    ``problem`` is the lowering of ``g``, ``lib`` and ``spec`` when the
    caller already holds one; without it the problem is lowered here.
    """
    out: list[Violation] = []
    if problem is None:
        cg = apply_io_constraints(build_constraint_graph(g, lib),
                                  build_transfer_graph(spec), spec)
        problem = Problem(cg, compute_time_windows(cg))
    cg, windows = problem.cg, problem.windows

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
            arrival = nu.arrival or 0
            if started[v].start < arrival:
                out.append(Violation(
                    "dependency",
                    f"operation {v} starts at {started[v].start} before "
                    f"input {nu.label or u} arrives at {arrival}", v))

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
        cost, cls = _replay_cost(mapping, last, a.bank, a.address)
        last[a.bank] = a.address
        if (cost, cls) != (a.cost, a.cost_class):
            out.append(Violation(
                "access-cost",
                f"access at cycle {a.cycle} on {a.bank}@{a.address} recorded "
                f"as {a.cost_class}/{a.cost}, replay gives {cls}/{cost}",
                a.node))
            continue
        bank = mapping.bank(a.bank)
        first_slot = a.cycle // bank.t_seq
        last_slot = (a.cycle + a.cost - 1) // bank.t_seq
        if a.cycle < 0 or last_slot >= sched.cadence // bank.t_seq:
            out.append(Violation("port-overlap",
                                 f"access at cycle {a.cycle} on {a.bank} runs "
                                 f"past the iteration horizon", a.node))
            continue
        used = slots[a.bank]
        for s in range(first_slot, last_slot + 1):
            used[s] = used.get(s, 0) + 1
    for bank in mapping.banks:
        for s, n_used in sorted(slots[bank.id].items()):
            if n_used > bank.ports:
                out.append(Violation(
                    "port-overlap",
                    f"bank {bank.id} slot {s} serves {n_used} accesses with "
                    f"{bank.ports} port(s)"))

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
    pinned = {tr.node: tr for tr in spec.transfers}
    for n in cg.of_kind(CgKind.INPUT) + cg.of_kind(CgKind.OUTPUT):
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
        else:
            p = cg.predecessors(n.id)[0]
            pn = cg.nodes[p]
            if pn.kind is CgKind.OP:
                produced = started[p].completion - 1
            else:
                produced = transfer_of[p].cycle if p in transfer_of else 0
            if t.cycle < produced:
                out.append(Violation(
                    "io-timing",
                    f"output {n.label or n.id} transferred at {t.cycle} "
                    f"before it is produced at {produced}", n.id))
            deadline = n.deadline if n.deadline is not None else \
                spec.latency_bound - 1
            if t.cycle > deadline:
                out.append(Violation(
                    "io-timing",
                    f"output {n.label or n.id} transferred at {t.cycle} "
                    f"after its deadline {deadline}", n.id))

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

    ins = [t.cycle for t in sched.transfers if t.direction == "in"]
    outs = [t.cycle for t in sched.transfers if t.direction == "out"]
    if outs:
        achieved = max(outs) - min(ins, default=0) + 1
        if achieved != sched.achieved_latency:
            out.append(Violation(
                "io-timing",
                f"schedule claims latency {sched.achieved_latency}, "
                f"transfers span {achieved} cycles"))
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

    lat = {o: cg.nodes[o].latency for o in ops}
    op_preds = {o: [p for p in cg.predecessors(o)
                    if cg.nodes[p].kind is CgKind.OP] for o in ops}
    in_preds = {o: [cg.nodes[p].arrival or 0 for p in cg.predecessors(o)
                    if cg.nodes[p].kind is CgKind.INPUT] for o in ops}
    read_deps: dict[int, list[int]] = {o: [] for o in ops}  # gating writers
    accesses: dict[int, list[tuple[str, int, int]]] = {o: [] for o in ops}
    for n in cg.nodes.values():
        if n.kind is CgKind.READ:
            p = mapping.placement_of(n.data)
            accesses[n.agent].append((p.bank, p.address, 0))
            for w in cg.predecessors(n.id):
                read_deps[n.agent].append(cg.nodes[w].agent)
        elif n.kind is CgKind.WRITE:
            p = mapping.placement_of(n.data)
            accesses[n.agent].append((p.bank, p.address, lat[n.agent]))
    for o in ops:
        # reservation order within an op is reads first, then writes
        accesses[o].sort(key=lambda a: a[2])
    pinned = {tr.node: tr.offset for tr in spec.transfers}
    outputs = cg.of_kind(CgKind.OUTPUT)
    inputs = cg.of_kind(CgKind.INPUT)

    slot_counts = {b.id: spec.cadence // b.t_seq for b in mapping.banks}
    ports = {b.id: b.ports for b in mapping.banks}
    t_seq = {b.id: b.t_seq for b in mapping.banks}
    t_rand = {b.id: b.t_rand for b in mapping.banks}

    best: list[int | None] = [None]
    seen: set = set()

    def finish(started: dict[int, int]) -> None:
        for o in outputs:
            p = cg.predecessors(o.id)[0]
            pn = cg.nodes[p]
            produced = (started[p] + lat[p] - 1 if pn.kind is CgKind.OP
                        else pinned.get(p, pn.arrival or 0))
            deadline = o.deadline if o.deadline is not None else \
                spec.latency_bound - 1
            transfer = pinned.get(o.id, produced)
            if produced > transfer or transfer > deadline:
                return
        last_out = 0
        first_in = 0
        out_cycles = []
        for o in outputs:
            p = cg.predecessors(o.id)[0]
            pn = cg.nodes[p]
            produced = (started[p] + lat[p] - 1 if pn.kind is CgKind.OP
                        else pinned.get(p, pn.arrival or 0))
            out_cycles.append(pinned.get(o.id, produced))
        in_cycles = []
        for i in inputs:
            if i.id in pinned:
                in_cycles.append(pinned[i.id])
                continue
            uses = []
            for s in cg.successors(i.id):
                sn = cg.nodes[s]
                if sn.kind is CgKind.OP:
                    uses.append(started[s])
                else:
                    uses.append(pinned.get(s, i.arrival or 0))
            in_cycles.append(min(uses, default=i.arrival or 0))
        if out_cycles:
            first_in = min(in_cycles, default=0)
            last_out = max(out_cycles)
            achieved = last_out - first_in + 1
        else:
            achieved = max((started[o] + lat[o] for o in ops), default=0)
        if best[0] is None or achieved < best[0]:
            best[0] = achieved

    def dfs(t: int, started: dict[int, int], write_done: dict[int, int],
            last: tuple, slots: tuple, busy: tuple) -> None:
        todo = [o for o in ops if o not in started]
        if not todo:
            finish(started)
            return
        if t > max(windows.alap[o] for o in todo):
            return
        key = (t, tuple(sorted(started.items())),
               tuple(sorted(write_done.items())), last, slots, busy)
        if key in seen:
            return
        seen.add(key)

        last_d = dict(last)
        slots_d = {b: list(v) for b, v in slots}
        busy_d = {c: list(v) for c, v in busy}

        for o in sorted(todo):
            if not (windows.asap[o] <= t <= windows.alap[o]):
                continue
            if any(p not in started or started[p] + lat[p] > t
                   for p in op_preds[o]):
                continue
            if any(a > t for a in in_preds[o]):
                continue
            if any(w not in started or write_done.get(w, 10 ** 9) > t
                   for w in read_deps[o]):
                continue
            cls = cg.nodes[o].op_class
            pool = busy_d.get(cls, [])
            free_idx = next((i for i, f in enumerate(pool) if f <= t), None)
            if instances is not None and free_idx is None:
                if len(pool) >= instances.get(cls, 0):
                    continue
            # try to reserve accesses in order
            nl = dict(last_d)
            ns = {b: list(v) for b, v in slots_d.items()}
            ok = True
            wd = None
            for bank, addr, delay in accesses[o]:
                prev = nl.get(bank)
                cost = t_seq[bank] if prev is None or addr == prev + 1 \
                    else t_rand[bank]
                cyc = t + delay
                s0, s1 = cyc // t_seq[bank], (cyc + cost - 1) // t_seq[bank]
                if s1 >= slot_counts[bank]:
                    ok = False
                    break
                if any(ns[bank][s] >= ports[bank] for s in range(s0, s1 + 1)):
                    ok = False
                    break
                for s in range(s0, s1 + 1):
                    ns[bank][s] += 1
                nl[bank] = addr
                if delay > 0:
                    wd = max(wd or 0, cyc + cost)
            if not ok:
                continue
            nb = {c: list(v) for c, v in busy_d.items()}
            pool2 = nb.setdefault(cls, [])
            if free_idx is not None and pool2[free_idx] <= t:
                pool2[free_idx] = t + lat[o]
            else:
                pool2.append(t + lat[o])
            nstarted = dict(started)
            nstarted[o] = t
            nwd = dict(write_done)
            if wd is not None:
                nwd[o] = wd
            dfs(t,
                nstarted, nwd,
                tuple(sorted(nl.items())),
                tuple((b, tuple(v)) for b, v in sorted(ns.items())),
                tuple((c, tuple(sorted(v))) for c, v in sorted(nb.items())))
        dfs(t + 1, started, write_done, last, slots, busy)

    dfs(0,
        {}, {},
        tuple(sorted((b.id, None) for b in mapping.banks)),
        tuple((b.id, (0,) * slot_counts[b.id])
              for b in sorted(mapping.banks, key=lambda b: b.id)),
        ())
    return best[0]
