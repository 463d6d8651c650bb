"""Mobility-driven list scheduler with on-demand operator allocation and
bank-aware memory access reservation.

Each cycle the ready operations are walked in rank order; an operation
starts if an operator instance is free and all of its memory accesses fit
the port tables, and is otherwise delayed.  Delay is only legal while the
operation still has slack: at zero margin (current cycle equal to the
latest feasible start) the scheduler either grows the operator pool (auto
allocation) or aborts with a diagnostic naming the cycle, operation and
resource that could not be secured.

The rank key is (mobility, alap, access cost, burst lookahead, id), and
its first two parts are static.  So the ready set is kept between cycles
as groups in ascending (mobility, alap) order, with per-class counts, an
alap heap and an index of readers by (bank, address), and a cycle's walk
visits the groups lazily.  It probes and sorts only the members that can
start: those at zero margin and those whose class still has a free
instance (instances only get busier within a cycle, and a freshly
allocated one is taken at once).  It stops once no class with a free
instance has members left and no zero-margin member remains.  Every probe
reads the port table as it stood when the cycle began, and ops started in
the cycle leave the readers index only at its end, so a start changes no
later op's cost, lookahead or servability within the cycle.  When no
ready operation can start, the walk jumps to the next cycle where
something can change: a completion or input arrival, an instance a ready
operation can use becoming free, a ready operation running out of slack,
or the latency bound.

Reads are reserved in the first cycle of their consumer, writes in the
cycle after their producer completes, and both atomically with the
operation's start.  Access costs depend on reservation order; the global
sequence number stored with every access lets a verifier replay them.
"""

from __future__ import annotations

import bisect
import heapq
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from .constraints import (CgKind, ConstraintGraph, Problem, TimeWindows,
                          apply_io_constraints, build_constraint_graph,
                          compute_time_windows)
from .graph import SFG, NodeKind
from .iospec import IoConstraintSpec, build_transfer_graph
from .jsontext import dumps
from .memory import (BlockedAccess, HorizonError, MemoryMapping,
                     PortAccessTable)
from .oplib import OperatorLibrary


class AllocationError(ValueError):
    """Invalid allocation request."""


@dataclass(frozen=True)
class Allocation:
    """Operator pool policy: ``auto`` seeds one instance per operator class
    in use and grows the pool only when an operation is out of slack;
    ``fixed`` uses exactly the given per-class counts."""

    mode: str
    counts: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.mode not in ("auto", "fixed"):
            raise AllocationError(f"unknown allocation mode {self.mode!r}")
        seen = set()
        for name, n in self.counts:
            if name in seen:
                raise AllocationError(f"operator class {name!r} listed twice")
            if n < 0:
                raise AllocationError(f"operator class {name!r}: negative count")
            seen.add(name)


def parse_allocation(text: str) -> Allocation:
    """Parse ``auto`` or ``fixed:<class>=<count>,...``."""
    if text == "auto":
        return Allocation(mode="auto")
    if text.startswith("fixed:"):
        counts = []
        body = text[len("fixed:"):]
        if not body:
            raise AllocationError("fixed allocation needs at least one class")
        for part in body.split(","):
            name, sep, num = part.partition("=")
            if not sep or not name or not num.isdigit():
                raise AllocationError(
                    f"bad allocation entry {part!r}, expected class=count")
            counts.append((name, int(num)))
        return Allocation(mode="fixed", counts=tuple(counts))
    raise AllocationError(f"bad allocation {text!r}, expected 'auto' or "
                          f"'fixed:class=count,...'")


@dataclass
class OperatorInstance:
    name: str
    op_class: str
    busy_until: int = 0  # first cycle the instance is free again


@dataclass(frozen=True)
class ScheduledOp:
    node: int
    label: str
    op_class: str
    instance: str
    start: int
    latency: int

    @property
    def completion(self) -> int:
        return self.start + self.latency


@dataclass(frozen=True)
class ScheduledAccess:
    node: int       # constraint-graph access node
    op: int         # operation the access belongs to
    kind: str       # "read" | "write"
    data: int
    data_label: str
    bank: str
    address: int
    cycle: int
    cost: int
    cost_class: str  # "burst" | "random"
    seq: int


@dataclass(frozen=True)
class ScheduledTransfer:
    node: int
    bus: str
    cycle: int
    direction: str  # "in" | "out"
    synthesized: bool = False


@dataclass(frozen=True)
class AllocationEvent:
    cycle: int
    op_class: str
    instance: str


class ScheduleFailure(Exception):
    """Scheduling aborted; carries the blocking cycle and resource.

    Reasons: ``memory-conflict-at-zero-margin`` (an out-of-slack operation's
    accesses cannot be served), ``fixed-allocation-exhausted`` (no free
    instance and the pool may not grow), ``infeasible-windows`` (an
    operation's latest feasible start has passed).
    """

    def __init__(self, reason: str, cycle: int, operation: int | None = None,
                 op_class: str | None = None, bank: str | None = None,
                 detail: str = ""):
        self.reason = reason
        self.cycle = cycle
        self.operation = operation
        self.op_class = op_class
        self.bank = bank
        self.detail = detail
        parts = [f"{reason} at cycle {cycle}"]
        if operation is not None:
            parts.append(f"operation {operation}")
        if op_class:
            parts.append(f"class {op_class}")
        if bank:
            parts.append(f"bank {bank}")
        if detail:
            parts.append(detail)
        super().__init__(", ".join(parts))


@dataclass
class Schedule:
    """Complete scheduling result for one iteration."""

    ops: tuple[ScheduledOp, ...]
    accesses: tuple[ScheduledAccess, ...]          # in reservation order
    transfers: tuple[ScheduledTransfer, ...]
    pool: dict[str, tuple[str, ...]]               # class -> instance names
    allocation_events: tuple[AllocationEvent, ...]
    achieved_latency: int
    latency_bound: int
    cadence: int

    def pool_counts(self) -> dict[str, int]:
        return {cls: len(names) for cls, names in self.pool.items()}

    def op(self, node: int) -> ScheduledOp:
        for s in self.ops:
            if s.node == node:
                return s
        raise KeyError(node)

    def to_json(self) -> str:
        doc = {
            "latency": self.achieved_latency,
            "latency_bound": self.latency_bound,
            "cadence": self.cadence,
            "pool": {cls: list(names)
                     for cls, names in sorted(self.pool.items())},
            "allocation_events": [
                {"cycle": e.cycle, "class": e.op_class, "instance": e.instance}
                for e in self.allocation_events],
            "ops": [
                {"node": s.node, "label": s.label, "class": s.op_class,
                 "instance": s.instance, "start": s.start,
                 "latency": s.latency}
                for s in sorted(self.ops, key=lambda s: (s.start, s.node))],
            "accesses": [
                {"cycle": a.cycle, "node": a.node, "op": a.op, "kind": a.kind,
                 "data": a.data, "data_label": a.data_label, "bank": a.bank,
                 "address": a.address, "cost": a.cost,
                 "cost_class": a.cost_class, "seq": a.seq}
                for a in sorted(self.accesses, key=lambda a: (a.cycle, a.node))],
            "transfers": [
                {"cycle": t.cycle, "node": t.node, "bus": t.bus,
                 "direction": t.direction, "synthesized": t.synthesized}
                for t in sorted(self.transfers,
                                key=lambda t: (t.cycle, t.direction, t.node))],
        }
        return dumps(doc) + "\n"


@dataclass
class SchedulerState:
    """Mutable working state shared by the ranking and assignment steps.

    Each operation is lowered once: ``requests`` holds (bank, address,
    cycle offset) for its port requests, reads then writes, ``read_keys``
    the (bank, address) of its reads and ``op_class`` its operator class."""

    cg: ConstraintGraph
    windows: TimeWindows
    spec: IoConstraintSpec
    mapping: MemoryMapping
    table: PortAccessTable
    allocation: Allocation
    instances: dict[str, list[OperatorInstance]] = field(default_factory=dict)
    started: dict[int, ScheduledOp] = field(default_factory=dict)
    accesses: list[ScheduledAccess] = field(default_factory=list)
    access_by_node: dict[int, ScheduledAccess] = field(default_factory=dict)
    events: list[AllocationEvent] = field(default_factory=list)
    requests: dict[int, tuple[tuple[str, int, int], ...]] = field(init=False)
    read_keys: dict[int, tuple[tuple[str, int], ...]] = field(init=False)
    op_class: dict[int, str] = field(init=False)

    def __post_init__(self):
        self.requests = {}
        self.read_keys = {}
        self.op_class = {}
        for n in self.cg.operations:
            self.op_class[n.id] = n.op_class
            reads, writes = self.cg.accesses_of(n.id)
            rp = [self.mapping.placement_of(r.data) for r in reads]
            wp = [self.mapping.placement_of(w.data) for w in writes]
            self.read_keys[n.id] = tuple((p.bank, p.address) for p in rp)
            self.requests[n.id] = (
                tuple((p.bank, p.address, 0) for p in rp)
                + tuple((p.bank, p.address, n.latency) for p in wp))

    def margin(self, op_id: int, t: int) -> int:
        return self.windows.alap[op_id] - t

    def free_instance(self, op_class: str, t: int) -> OperatorInstance | None:
        for inst in self.instances.get(op_class, []):
            if inst.busy_until <= t:
                return inst
        return None

    def allocate_instance(self, op_class: str, t: int) -> OperatorInstance:
        pool = self.instances.setdefault(op_class, [])
        inst = OperatorInstance(name=f"{op_class}{len(pool)}", op_class=op_class)
        pool.append(inst)
        self.events.append(AllocationEvent(cycle=t, op_class=op_class,
                                           instance=inst.name))
        return inst

    def access_requests(self, op_id: int, t: int) -> list[tuple[str, int, int]]:
        """(bank, address, cycle) for the op's reads then writes, started
        at cycle t.  Reads go with the op's first cycle, writes follow its
        completion."""
        return [(bank, address, t + offset)
                for bank, address, offset in self.requests[op_id]]

    def probe_access_cost(self, op_id: int, t: int) -> int | None:
        """Total port cost of starting the op at t, or None if blocked,
        against the port table's held view."""
        reqs = self.access_requests(op_id, t)
        if not reqs:
            return 0
        try:
            costs = self.table.probe(reqs)
        except HorizonError:
            return None
        if costs is None:
            return None
        return sum(c for c, _ in costs)

    def blocking_bank(self, op_id: int, t: int) -> str | None:
        """Bank of the first access request that cannot be served."""
        try:
            self.table.fit(self.access_requests(op_id, t), view=True)
        except BlockedAccess as e:
            return e.bank_id
        return None


class ReadySet:
    """The ready operations of a run, kept up to date between cycles.

    ``groups`` maps each (mobility, alap) prefix of the rank key to its
    members and ``keys`` holds those prefixes in ascending order.
    ``per_class`` counts members by operator class, ``by_alap`` is a
    min-heap of (alap, op) entries (stale once the op has left), and
    ``readers`` indexes members by the (bank, address) of their reads.
    ``followers`` join only ``readers``: ready operations that are not
    walked but still count for the burst lookahead.
    """

    def __init__(self, state: SchedulerState, ops: Iterable[int] = (),
                 followers: Iterable[int] = ()):
        self.state = state
        self.members: set[int] = set()
        self.keys: list[tuple[int, int]] = []
        self.groups: dict[tuple[int, int], list[int]] = {}
        self.per_class: dict[str, int] = {}
        self.by_alap: list[tuple[int, int]] = []
        self.readers: dict[tuple[str, int], list[int]] = {}
        for op_id in ops:
            self.add(op_id)
        for op_id in followers:
            for key in state.read_keys[op_id]:
                self.readers.setdefault(key, []).append(op_id)

    def __len__(self) -> int:
        return len(self.members)

    def add(self, op_id: int) -> None:
        state = self.state
        alap = state.windows.alap[op_id]
        key = (state.windows.mobility[op_id], alap)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = []
            bisect.insort(self.keys, key)
        group.append(op_id)
        cls = state.op_class[op_id]
        self.per_class[cls] = self.per_class.get(cls, 0) + 1
        heapq.heappush(self.by_alap, (alap, op_id))
        for rk in state.read_keys[op_id]:
            self.readers.setdefault(rk, []).append(op_id)
        self.members.add(op_id)

    def discard(self, op_id: int) -> None:
        state = self.state
        key = (state.windows.mobility[op_id], state.windows.alap[op_id])
        group = self.groups[key]
        group.remove(op_id)
        if not group:
            del self.groups[key]
            del self.keys[bisect.bisect_left(self.keys, key)]
        self.per_class[state.op_class[op_id]] -= 1
        for rk in state.read_keys[op_id]:
            self.readers[rk].remove(op_id)
        self.members.discard(op_id)

    def min_alap(self) -> int | None:
        heap = self.by_alap
        while heap and heap[0][1] not in self.members:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def due(self, t: int) -> list[int]:
        """Members whose latest start is t or earlier, in id order."""
        heap = self.by_alap
        out = []
        stack = [0]
        while stack:
            i = stack.pop()
            if i < len(heap) and heap[i][0] <= t:
                if heap[i][1] in self.members:
                    out.append(heap[i][1])
                stack += (2 * i + 1, 2 * i + 2)
        return sorted(out)


def rank_executable(state: SchedulerState, ready: Iterable[int], t: int,
                    waiting: Iterable[int] = ()) -> Iterator[int]:
    """Walk the ready operations for cycle t in rank order.

    The rank key is (mobility, alap, access cost, burst lookahead, id):
    tight windows first, and among equals an access whose address starts a
    run another ready access can continue in burst mode goes first.  The
    first two parts are static, so the walk visits the (mobility, alap)
    groups in order and probes and sorts only the members that may start:
    those at zero margin and those whose class still has a free instance.
    It yields each one whose accesses fit, skips one whose class ran out
    of instances since, and stops once no class with a free instance has
    members left and no zero-margin member remains.  All probes see the
    port table as it stood when the walk began, so a start committed
    earlier in the cycle changes no later op's cost, lookahead or
    servability.  Consumed without starting anything, the walk yields
    every servable member that is at zero margin or has a free instance,
    sorted by the full key.

    Before anything is yielded, a member whose latest start has passed
    aborts the schedule (lowest id first), as does a zero-margin member
    whose accesses cannot be served (in id order).

    ``ready`` is the run's ReadySet, or a collection of op ids the caller
    has found able to start, whatever the instance pool says; ``waiting``
    then names further ready operations that are not walked but still
    count for the burst lookahead.
    """
    if isinstance(ready, ReadySet):
        free = {cls: sum(1 for inst in insts if inst.busy_until <= t)
                for cls, insts in state.instances.items()}
    else:
        # The caller vouches for every listed op: as many instances as ops.
        ready = ReadySet(state, ready, followers=waiting)
        free = dict.fromkeys(ready.per_class, len(ready))
    alap = state.windows.alap
    due = ready.due(t)
    for op_id in due:
        if alap[op_id] < t:
            raise ScheduleFailure("infeasible-windows", cycle=t,
                                  operation=op_id,
                                  op_class=state.op_class[op_id],
                                  detail=f"latest feasible start was cycle "
                                         f"{alap[op_id]}")
    state.table.hold_view()
    # Ops with the same port requests fit alike against one view.
    probed: dict[tuple[tuple[str, int, int], ...], int | None] = {}

    def cost(op_id: int) -> int | None:
        reqs = state.requests[op_id]
        if reqs not in probed:
            probed[reqs] = state.probe_access_cost(op_id, t)
        return probed[reqs]

    for op_id in due:
        if cost(op_id) is None:
            raise ScheduleFailure(
                "memory-conflict-at-zero-margin", cycle=t,
                operation=op_id, op_class=state.op_class[op_id],
                bank=state.blocking_bank(op_id, t))
    return _walk(state, ready, t, cost, len(due), free)


def _walk(state: SchedulerState, ready: ReadySet, t: int,
          cost: Callable[[int], int | None], zero_left: int,
          free: dict[str, int]) -> Iterator[int]:
    op_class = state.op_class
    read_keys = state.read_keys
    readers = ready.readers
    left = dict(ready.per_class)  # members in groups not visited yet

    # Burst lookahead: reading address x ranks ahead of a peer when some
    # other servable ready op reads x+1 on the same bank (starting the run
    # keeps that follow-up access in burst mode).
    def enables_flag(op_id: int) -> int:
        for bank, address in read_keys[op_id]:
            for other in readers.get((bank, address + 1), ()):
                if other != op_id and cost(other) is not None:
                    return 0
        return 1

    for key in ready.keys:
        if not zero_left and not any(n and free.get(cls)
                                     for cls, n in left.items()):
            return
        group = ready.groups[key]
        zero = key[1] <= t
        if zero:
            zero_left -= len(group)
        ranked = []
        for op_id in group:
            cls = op_class[op_id]
            left[cls] -= 1
            if zero or free.get(cls):
                c = cost(op_id)
                if c is not None:
                    ranked.append((c, enables_flag(op_id), op_id))
        ranked.sort()
        for _, _, op_id in ranked:
            cls = op_class[op_id]
            if not zero and not free.get(cls):
                continue  # an earlier start took the last free instance
            yield op_id
            if op_id in state.started and free.get(cls):
                free[cls] -= 1


def assign_step(state: SchedulerState, op_id: int, t: int) -> ScheduledOp | None:
    """Try to start one operation at cycle t.

    Returns the record on success and None when the operation is delayed
    (a legal wait: it still has slack).  At zero margin a missing resource
    aborts the schedule instead; a port conflict is reported before a
    missing instance.  The accesses are fitted once and committed as
    fitted.
    """
    node = state.cg.nodes[op_id]
    margin = state.margin(op_id, t)

    reqs = state.access_requests(op_id, t)
    try:
        fits = state.table.fit(reqs) if reqs else []
    except BlockedAccess as e:
        if margin == 0:
            raise ScheduleFailure("memory-conflict-at-zero-margin",
                                  cycle=t, operation=op_id,
                                  op_class=node.op_class,
                                  bank=e.bank_id) from None
        return None

    inst = state.free_instance(node.op_class, t)
    if inst is None:
        if margin > 0:
            return None
        if state.allocation.mode == "auto":
            inst = state.allocate_instance(node.op_class, t)
        else:
            raise ScheduleFailure("fixed-allocation-exhausted", cycle=t,
                                  operation=op_id, op_class=node.op_class)

    reservations = state.table.commit(reqs, fits)
    reads, writes = state.cg.accesses_of(op_id)
    for acc, res in zip(reads + writes, reservations):
        rec = ScheduledAccess(
            node=acc.id, op=op_id,
            kind="read" if acc.kind is CgKind.READ else "write",
            data=acc.data, data_label=acc.label.split(":", 1)[-1],
            bank=res.bank, address=res.address, cycle=res.cycle,
            cost=res.cost, cost_class=res.cost_class, seq=res.seq)
        state.accesses.append(rec)
        state.access_by_node[acc.id] = rec

    inst.busy_until = t + node.latency
    rec = ScheduledOp(node=op_id, label=node.label, op_class=node.op_class,
                      instance=inst.name, start=t, latency=node.latency)
    state.started[op_id] = rec
    return rec


def _seed_pool(state: SchedulerState, lib: OperatorLibrary) -> None:
    if state.allocation.mode == "fixed":
        for name, n in state.allocation.counts:
            lib.by_name(name)  # raises on an unknown class
            state.instances[name] = [
                OperatorInstance(name=f"{name}{i}", op_class=name)
                for i in range(n)]
        return
    used = sorted({n.op_class for n in state.cg.operations})
    for name in used:
        state.instances[name] = [OperatorInstance(name=f"{name}0",
                                                  op_class=name)]


def schedule(g: SFG, lib: OperatorLibrary, spec: IoConstraintSpec,
             mapping: MemoryMapping,
             allocation: Allocation = Allocation(mode="auto"),
             problem: Problem | None = None) -> Schedule:
    """Schedule one iteration of the graph within the latency bound.

    ``problem`` is the lowering of ``g``, ``lib`` and ``spec`` when the
    caller already holds one; it is only read.  Without it the problem is
    lowered here.

    Raises ScheduleFailure when no legal schedule can be produced under the
    given resources; static infeasibility should be caught beforehand with
    ``check_feasibility``.
    """
    if problem is None:
        cg = apply_io_constraints(build_constraint_graph(g, lib),
                                  build_transfer_graph(spec), spec)
        problem = Problem(cg, compute_time_windows(cg))
    cg, windows = problem.cg, problem.windows
    # outputs with no operation on their path (pass-through) never hit the
    # per-op margin check, so reject impossible output dates up front
    for n in cg.of_kind(CgKind.OUTPUT):
        deadline = n.deadline if n.deadline is not None \
            else spec.latency_bound - 1
        if windows.asap[n.id] > deadline:
            raise ScheduleFailure("infeasible-windows", cycle=deadline,
                                  operation=n.id,
                                  detail=f"output {cg.nodes[n.id].label or n.id} "
                                         f"cannot be ready before cycle "
                                         f"{windows.asap[n.id]}")
    table = PortAccessTable(mapping, spec.cadence)
    state = SchedulerState(cg=cg, windows=windows, spec=spec, mapping=mapping,
                           table=table, allocation=allocation)
    _seed_pool(state, lib)

    # Readiness bookkeeping: each op counts its blocking predecessors and
    # an event queue decrements the count when one completes.
    remaining: dict[int, int] = {}
    release_at: dict[int, list[int]] = {}  # cycle -> op ids to decrement
    op_ids = [n.id for n in cg.operations]
    for op_id in op_ids:
        count = 0
        for p in cg.predecessors(op_id):
            pn = cg.nodes[p]
            if pn.kind is CgKind.INPUT:
                arrival = pn.arrival or 0
                if arrival > 0:
                    count += 1
                    release_at.setdefault(arrival, []).append(op_id)
            elif pn.kind is CgKind.OP:
                count += 1  # released when the producer completes
            elif pn.kind is CgKind.READ:
                count += len(cg.predecessors(p))  # writes gating this read
        remaining[op_id] = count

    todo = set(op_ids)
    ready = ReadySet(state, (op for op in op_ids if remaining[op] == 0))

    def release(op_id: int) -> None:
        remaining[op_id] -= 1
        if remaining[op_id] == 0:
            ready.add(op_id)

    t = 0
    while todo:
        if t >= spec.latency_bound:
            leftover = min(todo)
            raise ScheduleFailure("infeasible-windows", cycle=t,
                                  operation=leftover,
                                  op_class=cg.nodes[leftover].op_class,
                                  detail="latency bound reached with "
                                         "operations pending")
        for op_id in release_at.pop(t, ()):
            release(op_id)
        # Something can start only at zero margin or with a free instance:
        # instances only get busier within a cycle.
        first_alap = ready.min_alap()
        ready_classes = [cls for cls, n in ready.per_class.items() if n]
        if (first_alap is None or first_alap > t) and not any(
                state.free_instance(cls, t) for cls in ready_classes):
            # Nothing can change before the next release, the next freed
            # instance a ready op can use, or a ready op running out of
            # slack; the cycles up to there would all be idle.  Each of
            # these is later than t (operator latencies are >= 1), so the
            # walk always moves forward.
            t = min([spec.latency_bound, *release_at,
                     *(() if first_alap is None else (first_alap,)),
                     *(inst.busy_until for cls in ready_classes
                       for inst in state.instances.get(cls, ()))])
            continue
        started: list[int] = []
        for op_id in rank_executable(state, ready, t):
            rec = assign_step(state, op_id, t)
            if rec is None:
                continue
            started.append(op_id)
            todo.discard(op_id)
            for s in cg.successors(op_id):
                if cg.nodes[s].kind is CgKind.OP:
                    release_at.setdefault(rec.completion, []).append(s)
            # Write completions gate reader ops through their read node.
            for acc in state.cg.accesses_of(op_id)[1]:
                res = state.access_by_node[acc.id]
                for r in cg.successors(acc.id):
                    consumer = cg.nodes[r].agent
                    release_at.setdefault(res.cycle + res.cost, []).append(consumer)
        # Started ops leave only now: the lookahead counts every op that
        # was ready when the cycle began.
        for op_id in started:
            ready.discard(op_id)
        t += 1

    transfers = _build_transfers(state, g)
    pool = {cls: tuple(inst.name for inst in insts)
            for cls, insts in sorted(state.instances.items())}
    achieved = _achieved_latency(state, transfers)
    return Schedule(ops=tuple(sorted(state.started.values(),
                                     key=lambda s: (s.start, s.node))),
                    accesses=tuple(state.accesses),
                    transfers=tuple(transfers),
                    pool=pool,
                    allocation_events=tuple(state.events),
                    achieved_latency=achieved,
                    latency_bound=spec.latency_bound,
                    cadence=spec.cadence)


def _build_transfers(state: SchedulerState, g: SFG) -> list[ScheduledTransfer]:
    """Pin constrained transfers at their offsets and synthesize the rest:
    inputs just in time for their first consumer, outputs in their
    producer's completion cycle.  Synthesized transfers in the same cycle
    get distinct generated buses; generated bus names are reused across
    cycles (one physical bus serves many cycles) and skip the ids of
    declared buses."""
    cg = state.cg
    spec = state.spec
    offset_of: dict[int, tuple[str, int]] = {}
    for tr in spec.transfers:
        offset_of[tr.node] = (tr.bus, tr.offset)

    transfers: list[ScheduledTransfer] = []
    synth_in: list[tuple[int, int]] = []   # (cycle, node)
    synth_out: list[tuple[int, int]] = []

    input_cycle: dict[int, int] = {}
    for n in cg.of_kind(CgKind.INPUT):
        if n.id in offset_of:
            bus, off = offset_of[n.id]
            input_cycle[n.id] = off
            transfers.append(ScheduledTransfer(node=n.id, bus=bus, cycle=off,
                                               direction="in"))
            continue
        uses = []
        for s in cg.successors(n.id):
            sn = cg.nodes[s]
            if sn.kind is CgKind.OP:
                uses.append(state.started[s].start)
            elif sn.kind is CgKind.OUTPUT:
                if s in offset_of:
                    uses.append(offset_of[s][1])
                else:
                    uses.append(n.arrival or 0)  # pass-through, both free
        cycle = min(uses, default=n.arrival or 0)
        input_cycle[n.id] = cycle
        synth_in.append((cycle, n.id))

    for n in cg.of_kind(CgKind.OUTPUT):
        preds = cg.predecessors(n.id)
        p = preds[0]
        pn = cg.nodes[p]
        if pn.kind is CgKind.OP:
            produced = state.started[p].completion - 1
        else:
            produced = input_cycle[p]
        if n.id in offset_of:
            bus, off = offset_of[n.id]
            transfers.append(ScheduledTransfer(node=n.id, bus=bus, cycle=off,
                                               direction="out"))
        else:
            synth_out.append((produced, n.id))

    declared = {b.id for b in spec.buses}
    for group, direction, prefix in ((synth_in, "in", "auto_in"),
                                     (synth_out, "out", "auto_out")):
        by_cycle: dict[int, list[int]] = {}
        for cycle, node in group:
            by_cycle.setdefault(cycle, []).append(node)
        names = [name for name in (f"{prefix}{k}" for k in
                                   range(len(group) + len(declared)))
                 if name not in declared]
        for cycle in sorted(by_cycle):
            for name, node in zip(names, sorted(by_cycle[cycle])):
                transfers.append(ScheduledTransfer(
                    node=node, bus=name, cycle=cycle,
                    direction=direction, synthesized=True))
    return transfers


def _achieved_latency(state: SchedulerState,
                      transfers: list[ScheduledTransfer]) -> int:
    ins = [t.cycle for t in transfers if t.direction == "in"]
    outs = [t.cycle for t in transfers if t.direction == "out"]
    first = min(ins, default=0)
    if outs:
        last = max(outs)
    elif state.started:
        last = max(s.completion for s in state.started.values()) - 1
    else:
        last = first
    return last - first + 1


def estimate_registers(sched: Schedule, g: SFG) -> int:
    """Register estimate: peak count of values alive across a cycle
    boundary, plus one holding register per distinct bus.

    An operation result is alive from its completion until its last
    consumer fires (an output consumes in its transfer cycle, so a result
    driven out during its production cycle never hits a register).  An
    input value is alive from the cycle after its transfer."""
    start_of = {s.node: s.start for s in sched.ops}
    end_of = {s.node: s.completion for s in sched.ops}
    transfer_of = {t.node: t.cycle for t in sched.transfers}

    intervals: list[tuple[int, int]] = []
    for n in g.nodes:
        if n.kind is NodeKind.OPERATION and n.id in end_of:
            born = end_of[n.id]
        elif n.kind is NodeKind.INPUT and n.id in transfer_of:
            born = transfer_of[n.id] + 1
        else:
            continue
        uses = []
        for e in g.out_edges(n.id):
            dk = g.node(e.dst).kind
            if dk is NodeKind.OPERATION and e.dst in start_of:
                uses.append(start_of[e.dst])
            elif dk is NodeKind.OUTPUT and e.dst in transfer_of:
                uses.append(transfer_of[e.dst])
        if uses and max(uses) >= born:
            intervals.append((born, max(uses)))

    peak = 0
    if intervals:
        delta: dict[int, int] = {}
        for b, e in intervals:
            delta[b] = delta.get(b, 0) + 1
            delta[e + 1] = delta.get(e + 1, 0) - 1
        live = 0
        for t in sorted(delta):
            live += delta[t]
            peak = max(peak, live)

    buses = len({t.bus for t in sched.transfers})
    return peak + buses
