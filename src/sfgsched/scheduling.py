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
as groups in ascending (mobility, alap) order, with per-class counts and
an index of readers by (bank, address), and a cycle's walk visits the
groups lazily.  It looks only at the members that can start:
those at zero margin and those whose class still has a free instance
(instances only get busier within a cycle, and a freshly allocated one is
taken at once).  It stops once no class with a free instance has members
left and no zero-margin member remains.  Every probe reads the port table
as it stood when the cycle began, and ops started in the cycle leave the
readers index only at its end, so a start changes no later op's cost,
lookahead or servability within the cycle.  When no ready operation can
start, the walk jumps to the next cycle where something can change: a
completion or input arrival, an instance a ready operation can use
becoming free, a ready operation running out of slack, or the latency
bound.

A fit reads an op's requests only through their signature: per request
the bank, the cycle offset and whether the address continues the bank's
run.  Probes are made once per signature and cycle.  Each group keeps
its members in buckets of one static shape (class, and per request the
bank, the offset and whether it continues the op's own previous request
on that bank), with two indexes: the members by the address of their
first request on each bank, and per member the count of other ready
readers of the address after one of its reads.  A bucket's members share
a signature except the burst candidates, whose first request on a bank
continues that bank's run, and only members with such followers can win
the lookahead; so a bucket is ranked from its candidates and its lowest
enabler or lowest member, not member by member.

Reads are reserved in the first cycle of their consumer, writes in the
cycle after their producer completes, and both atomically with the
operation's start.  Access costs depend on reservation order; the global
sequence number stored with every access lets a verifier replay them.

The records of a schedule (``ScheduledOp``, ``ScheduledAccess``,
``ScheduledTransfer``) are named tuples, built positionally, each once:
``assign_step`` makes an access record straight from the request, its
fit and the sequence number ``PortAccessTable.commit`` hands back, with
the per-op facts (node, access ids and labels) looked up once per run in
``SchedulerState``.
"""

from __future__ import annotations

import bisect
import heapq
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .constraints import (CgKind, CgNode, ConstraintGraph, Problem,
                          TimeWindows, achieved_latency, apply_io_constraints,
                          build_constraint_graph, compute_time_windows,
                          transfer_cycles)
from .graph import SFG, NodeKind
from .iospec import IoConstraintSpec, build_transfer_graph
from .jsontext import dumps
from .memory import (BlockedAccess, HorizonError, MemoryMapping,
                     PortAccessTable, is_burst)
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
    busy_until: int = 0  # first cycle the instance is free again


class ScheduledOp(NamedTuple):
    node: int
    label: str
    op_class: str
    instance: str
    start: int
    latency: int

    @property
    def completion(self) -> int:
        return self.start + self.latency


class ScheduledAccess(NamedTuple):
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


class ScheduledTransfer(NamedTuple):
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


def lower(g: SFG, lib: OperatorLibrary, spec: IoConstraintSpec) -> Problem:
    """The problem lowered once: the one chain of the lowering stages, by
    the names this module imports (wrapping them here sees every call)."""
    cg = apply_io_constraints(build_constraint_graph(g, lib),
                              build_transfer_graph(spec), spec)
    return Problem(cg, compute_time_windows(cg))


def op_requests(cg: ConstraintGraph, mapping: MemoryMapping
                ) -> dict[int, tuple[tuple[str, int, int], ...]]:
    """(bank, address, cycle offset) of each operation's port requests in
    reservation order: its reads at offset 0, then its writes at its
    latency (the cycle after it completes)."""
    out = {}
    placement_of = mapping.placement_of
    for n in cg.operations:
        reqs = []
        for accs, offset in zip(cg.accesses_of(n.id), (0, n.latency)):
            for a in accs:
                p = placement_of(a.data)
                reqs.append((p.bank, p.address, offset))
        out[n.id] = tuple(reqs)
    return out


@dataclass
class SchedulerState:
    """Mutable working state shared by the ranking and assignment steps.

    Each operation of a ``Problem`` (see ``lower``) is lowered once, in
    one pass: ``node`` holds its constraint-graph node, ``requests`` its
    port requests (``op_requests``), ``records`` the (access node, kind,
    data, data label) of each request in the same order, ``gated`` per
    write the operations whose reads it gates, ``read_keys`` the (bank,
    address) of its reads and ``op_class`` its operator class.  What it
    waits for, read by the readiness counts and the oracle alike:
    ``producers`` (one per edge), input ``arrivals`` after cycle 0, and
    the ``writers`` whose memory writes gate its reads.
    ``shape`` is the op's class with, per request, the bank, the offset
    and whether the address continues the op's own previous request on
    that bank (None for the op's first request on the bank, whose burst
    bit depends on the table); ``firsts`` holds the (bank, address) of
    those first requests."""

    cg: ConstraintGraph
    windows: TimeWindows
    mapping: MemoryMapping
    table: PortAccessTable
    allocation: Allocation
    instances: dict[str, list[OperatorInstance]] = field(default_factory=dict)
    started: dict[int, ScheduledOp] = field(default_factory=dict)
    accesses: list[ScheduledAccess] = field(default_factory=list)
    events: list[AllocationEvent] = field(default_factory=list)
    node: dict[int, CgNode] = field(init=False)
    requests: dict[int, tuple[tuple[str, int, int], ...]] = field(init=False)
    records: dict[int, tuple[tuple[int, str, int, str], ...]] = field(
        init=False)
    gated: dict[int, tuple[tuple[int, ...], ...]] = field(init=False)
    read_keys: dict[int, tuple[tuple[str, int], ...]] = field(init=False)
    op_class: dict[int, str] = field(init=False)
    producers: dict[int, tuple[int, ...]] = field(init=False)
    arrivals: dict[int, tuple[int, ...]] = field(init=False)
    writers: dict[int, tuple[int, ...]] = field(init=False)
    shape: dict[int, tuple] = field(init=False)
    firsts: dict[int, tuple[tuple[str, int], ...]] = field(init=False)

    def __post_init__(self):
        cg = self.cg
        self.requests = op_requests(cg, self.mapping)
        self.node = {}
        self.records = {}
        self.gated = {}
        self.read_keys = {}
        self.op_class = {}
        self.producers = {}
        self.arrivals = {}
        self.writers = {}
        self.shape = {}
        self.firsts = {}
        nodes, successors, pred = cg.nodes, cg.successors, cg.predecessors
        OP, INPUT = CgKind.OP, CgKind.INPUT
        for n in cg.operations:
            op_id = n.id
            self.node[op_id] = n
            self.op_class[op_id] = n.op_class
            producers = arrivals = writers = ()
            for p in pred(op_id):
                pn = nodes[p]
                if pn.kind is OP:
                    producers += (p,)
                elif pn.kind is INPUT and pn.arrival > 0:
                    arrivals += (pn.arrival,)
            reads, writes = cg.accesses_of(op_id)
            for r in reads:
                for w in pred(r.id):
                    writers += (nodes[w].agent,)
            self.producers[op_id] = producers
            self.arrivals[op_id] = arrivals
            self.writers[op_id] = writers
            records = [(a.id, "read", a.data, a.label.split(":", 1)[-1])
                       for a in reads]
            gated = []
            for w in writes:
                records.append((w.id, "write", w.data,
                                w.label.split(":", 1)[-1]))
                gated.append(tuple([nodes[r].agent for r in successors(w.id)]))
            self.records[op_id] = tuple(records)
            self.gated[op_id] = tuple(gated)
            prev: dict[str, int] = {}
            read_keys = []
            steps = []
            firsts = []
            for bank, address, offset in self.requests[op_id]:
                if not offset:
                    read_keys.append((bank, address))
                before = prev.get(bank)
                if before is None:
                    firsts.append((bank, address))
                    steps.append((bank, offset, None))
                else:
                    steps.append((bank, offset, is_burst(before, address)))
                prev[bank] = address
            self.read_keys[op_id] = tuple(read_keys)
            self.shape[op_id] = (n.op_class, tuple(steps))
            self.firsts[op_id] = tuple(firsts)

    def free_instance(self, op_class: str, t: int) -> OperatorInstance | None:
        for inst in self.instances.get(op_class, []):
            if inst.busy_until <= t:
                return inst
        return None

    def allocate_instance(self, op_class: str, t: int) -> OperatorInstance:
        pool = self.instances.setdefault(op_class, [])
        inst = OperatorInstance(name=f"{op_class}{len(pool)}")
        pool.append(inst)
        self.events.append(AllocationEvent(cycle=t, op_class=op_class,
                                           instance=inst.name))
        return inst

    def access_requests(self, op_id: int, t: int) -> list[tuple[str, int, int]]:
        """(bank, address, cycle) of the op's requests, started at t."""
        return [(bank, address, t + offset)
                for bank, address, offset in self.requests[op_id]]

    def signature(self, op_id: int, last: dict[str, int | None]
                  ) -> tuple[tuple[str, int, bool], ...]:
        """(bank, offset, is_burst) of each of the op's requests when the
        banks last served the ``last`` addresses: all a fit depends on."""
        sig = []
        for (bank, address, _), (_, offset, burst) in zip(
                self.requests[op_id], self.shape[op_id][1]):
            if burst is None:
                burst = is_burst(last[bank], address)
            sig.append((bank, offset, burst))
        return tuple(sig)

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


class _Bucket:
    """Members of one (mobility, alap) group that share a shape.

    ``members`` and ``enablers`` (members with a lookahead follower) are in
    ascending id order; ``first_at`` maps the (bank, address) of a first
    request on a bank to the members that make it."""

    __slots__ = ("members", "enablers", "first_at")

    def __init__(self):
        self.members: list[int] = []
        self.enablers: list[int] = []
        self.first_at: dict[tuple[str, int], list[int]] = {}


class ReadySet:
    """The ready operations of a run, kept up to date between cycles.

    ``groups`` maps each (mobility, alap) prefix of the rank key to its
    members, bucketed by shape (``SchedulerState.shape``), and ``keys``
    holds those prefixes in ascending order.  ``per_class`` counts members
    by operator class, and ``readers`` indexes members by the (bank,
    address) of their reads.  ``followers`` counts, per member, the
    other members reading the address after one of its reads on the same
    bank: only a member with followers can enable a burst.
    """

    def __init__(self, state: SchedulerState, ops: Iterable[int] = ()):
        self.state = state
        self.keys: list[tuple[int, int]] = []
        self.groups: dict[tuple[int, int], dict[tuple, _Bucket]] = {}
        self.per_class: dict[str, int] = {}
        self.readers: dict[tuple[str, int], list[int]] = {}
        self.followers: dict[int, int] = {}
        for op_id in ops:
            self.add(op_id)

    def __len__(self) -> int:
        return sum(self.per_class.values())

    def _bucket(self, op_id: int) -> _Bucket:
        windows = self.state.windows
        return self.groups[windows.mobility[op_id], windows.alap[op_id]][
            self.state.shape[op_id]]

    def _follow(self, op_id: int, delta: int) -> None:
        before = self.followers[op_id]
        self.followers[op_id] = before + delta
        if not before:
            bisect.insort(self._bucket(op_id).enablers, op_id)
        elif not before + delta:
            self._bucket(op_id).enablers.remove(op_id)

    def add(self, op_id: int) -> None:
        state = self.state
        key = (state.windows.mobility[op_id], state.windows.alap[op_id])
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = {}
            bisect.insort(self.keys, key)
        bucket = group.get(state.shape[op_id])
        if bucket is None:
            bucket = group[state.shape[op_id]] = _Bucket()
        bisect.insort(bucket.members, op_id)
        for first in state.firsts[op_id]:
            bucket.first_at.setdefault(first, []).append(op_id)
        cls = state.op_class[op_id]
        self.per_class[cls] = self.per_class.get(cls, 0) + 1
        readers = self.readers
        read_keys = state.read_keys[op_id]
        for rk in read_keys:
            readers.setdefault(rk, []).append(op_id)
        followers = 0
        for bank, address in read_keys:
            for other in readers.get((bank, address + 1), ()):
                followers += other != op_id
            for other in readers.get((bank, address - 1), ()):
                if other != op_id:
                    self._follow(other, 1)
        self.followers[op_id] = followers
        if followers:
            bisect.insort(bucket.enablers, op_id)

    def discard(self, op_id: int) -> None:
        state = self.state
        key = (state.windows.mobility[op_id], state.windows.alap[op_id])
        group = self.groups[key]
        shape = state.shape[op_id]
        bucket = group[shape]
        bucket.members.remove(op_id)
        for first in state.firsts[op_id]:
            bucket.first_at[first].remove(op_id)
        if self.followers.pop(op_id):
            bucket.enablers.remove(op_id)
        if not bucket.members:
            del group[shape]
            if not group:
                del self.groups[key]
                del self.keys[bisect.bisect_left(self.keys, key)]
        self.per_class[state.op_class[op_id]] -= 1
        readers = self.readers
        for bank, address in state.read_keys[op_id]:
            readers[bank, address].remove(op_id)
            for other in readers.get((bank, address - 1), ()):
                if other != op_id:
                    self._follow(other, -1)

    def min_alap(self) -> int | None:
        return min((alap for _, alap in self.keys), default=None)

    def due(self, t: int) -> list[int]:
        """Members whose latest start is t or earlier, in id order."""
        return sorted(op_id for key in self.keys if key[1] <= t
                      for bucket in self.groups[key].values()
                      for op_id in bucket.members)


def rank_executable(state: SchedulerState, ready: ReadySet,
                    t: int) -> Iterator[int]:
    """Walk the ready operations for cycle t in rank order.

    The rank key is (mobility, alap, access cost, burst lookahead, id):
    tight windows first, and among equals an access whose address starts a
    run another ready access can continue in burst mode goes first.  The
    first two parts are static, so the walk visits the (mobility, alap)
    groups in order, and within a group only the members that may start:
    those at zero margin and those whose class still has a free instance.
    It yields each one whose accesses fit, skips one whose class ran out
    of instances since, and stops once no class with a free instance has
    members left and no zero-margin member remains.  All probes see the
    port table as it stood when the walk began, so a start committed
    earlier in the cycle changes no later op's cost, lookahead or
    servability.  Consumed without starting anything, the walk yields
    every servable member that is at zero margin or has a free instance,
    sorted by the full key.

    A fit depends on an op's requests only through their bank, their
    cycle offset and whether each continues its bank's run, so probes are
    made once per such signature.  Members of one shape bucket share a
    signature unless their first request on some bank continues that
    bank's run (a burst candidate); the others rank by the lookahead and
    id alone: first the members whose reads a servable peer continues,
    then the rest.  So each bucket puts forward its candidates and its
    best other member, the walk merges the buckets by the full key, and a
    bucket moves on to its next member only while the class still has a
    free instance (always after a delay) or the group is at zero margin.

    Before anything is yielded, a member whose latest start has passed
    aborts the schedule (lowest id first), as does a zero-margin member
    whose accesses cannot be served (in id order).
    """
    free = {cls: sum(1 for inst in insts if inst.busy_until <= t)
            for cls, insts in state.instances.items()}
    alap = state.windows.alap
    due = ready.due(t)
    for op_id in due:
        if alap[op_id] < t:
            raise ScheduleFailure("infeasible-windows", cycle=t,
                                  operation=op_id,
                                  op_class=state.op_class[op_id],
                                  detail=f"latest feasible start was cycle "
                                         f"{alap[op_id]}")
    last = state.table.hold_view()
    probed: dict[tuple[tuple[str, int, bool], ...], int | None] = {}

    def cost(op_id: int) -> int | None:
        sig = state.signature(op_id, last)
        if sig not in probed:
            probed[sig] = state.probe_access_cost(op_id, t)
        return probed[sig]

    for op_id in due:
        if cost(op_id) is None:
            raise ScheduleFailure(
                "memory-conflict-at-zero-margin", cycle=t,
                operation=op_id, op_class=state.op_class[op_id],
                bank=state.blocking_bank(op_id, t))
    return _walk(state, ready, t, cost, len(due), free, last)


def _walk(state: SchedulerState, ready: ReadySet, t: int,
          cost: Callable[[int], int | None], zero_left: int,
          free: dict[str, int], last: dict[str, int | None]
          ) -> Iterator[int]:
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

    def rest(bucket: _Bucket, skip: set[int]) -> Iterator[tuple[int, int]]:
        """(flag, id) of the bucket's members outside ``skip`` in rank
        order: the burst enablers, then the others, each by id."""
        enabling = set()
        for op_id in bucket.enablers:
            if op_id not in skip and not enables_flag(op_id):
                enabling.add(op_id)
                yield 0, op_id
        for op_id in bucket.members:
            if op_id not in skip and op_id not in enabling:
                yield 1, op_id

    for key in ready.keys:
        if not zero_left and not any(n and free.get(cls)
                                     for cls, n in left.items()):
            return
        group = ready.groups[key]
        zero = key[1] <= t
        heads = []  # (cost, flag, id, rest of its bucket or None)
        for (cls, steps), bucket in group.items():
            left[cls] -= len(bucket.members)
            if zero:
                zero_left -= len(bucket.members)
            elif not free.get(cls):
                continue
            candidates = set()
            for bank, _, inop in steps:
                if inop is None and last[bank] is not None:
                    candidates.update(
                        bucket.first_at.get((bank, last[bank] + 1), ()))
            for op_id in candidates:
                c = cost(op_id)
                if c is not None:
                    heads.append((c, enables_flag(op_id), op_id, None))
            # the other members share one signature, so one probe serves
            first = next((op_id for op_id in bucket.members
                          if op_id not in candidates), None)
            if first is not None and (c := cost(first)) is not None:
                others = rest(bucket, candidates)
                heads.append((c, *next(others), others))
        heapq.heapify(heads)
        while heads:
            c, _, op_id, others = heapq.heappop(heads)
            cls = op_class[op_id]
            if not zero and not free.get(cls):
                continue  # an earlier start took the last free instance
            yield op_id
            if op_id in state.started and free.get(cls):
                free[cls] -= 1
            if others is not None and (zero or free.get(cls)):
                head = next(others, None)
                if head is not None:
                    heapq.heappush(heads, (c, *head, others))


def assign_step(state: SchedulerState, op_id: int, t: int) -> ScheduledOp | None:
    """Try to start one operation at cycle t.

    Returns the record on success and None when the operation is delayed
    (a legal wait: it still has slack).  At zero margin a missing resource
    aborts the schedule instead; a port conflict is reported before a
    missing instance.  The accesses are fitted once and committed as
    fitted.
    """
    node = state.node[op_id]
    margin = state.windows.alap[op_id] - t

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

    if reqs:
        append = state.accesses.append
        for (acc, kind, data, data_label), (bank, address, cycle), \
                (cost, cost_class, _), seq in zip(
                    state.records[op_id], reqs, fits,
                    state.table.commit(reqs, fits)):
            append(ScheduledAccess(acc, op_id, kind, data, data_label, bank,
                                   address, cycle, cost, cost_class, seq))

    inst.busy_until = t + node.latency
    rec = ScheduledOp(op_id, node.label, node.op_class, inst.name, t,
                      node.latency)
    state.started[op_id] = rec
    return rec


def _seed_pool(state: SchedulerState, lib: OperatorLibrary) -> None:
    if state.allocation.mode == "fixed":
        for name, n in state.allocation.counts:
            lib.by_name(name)  # raises on an unknown class
            state.instances[name] = [OperatorInstance(name=f"{name}{i}")
                                     for i in range(n)]
        return
    for name in sorted(set(state.op_class.values())):
        state.instances[name] = [OperatorInstance(name=f"{name}0")]


def schedule(g: SFG, lib: OperatorLibrary, spec: IoConstraintSpec,
             mapping: MemoryMapping,
             allocation: Allocation = Allocation(mode="auto"),
             problem: Problem | None = None) -> Schedule:
    """Schedule one iteration of the graph within the latency bound.

    ``problem`` is the lowering of ``g``, ``lib`` and ``spec`` when the
    caller already holds one; it is only read.  Without it the problem is
    lowered here, with ``lower``.

    Raises ScheduleFailure when no legal schedule can be produced under the
    given resources, a latency above the bound among them; static
    infeasibility should be caught beforehand with ``check_feasibility``.
    """
    if problem is None:
        problem = lower(g, lib, spec)
    cg, windows = problem.cg, problem.windows
    # outputs with no operation on their path (pass-through) never hit the
    # per-op margin check, so reject impossible output dates up front
    for n in cg.of_kind(CgKind.OUTPUT):
        if windows.asap[n.id] > n.deadline:
            raise ScheduleFailure("infeasible-windows", cycle=n.deadline,
                                  operation=n.id,
                                  detail=f"output {cg.nodes[n.id].label or n.id} "
                                         f"cannot be ready before cycle "
                                         f"{windows.asap[n.id]}")
    table = PortAccessTable(mapping, spec.cadence)
    state = SchedulerState(cg=cg, windows=windows, mapping=mapping,
                           table=table, allocation=allocation)
    _seed_pool(state, lib)

    # Readiness bookkeeping: each op counts what it waits for (its
    # producers, late input arrivals and gating writes) and an event queue
    # decrements the count as each one completes.
    remaining: dict[int, int] = {}
    release_at: dict[int, list[int]] = {}  # cycle -> op ids to decrement
    op_ids = list(state.node)
    for op_id in op_ids:
        arrivals = state.arrivals[op_id]
        for cycle in arrivals:
            release_at.setdefault(cycle, []).append(op_id)
        remaining[op_id] = len(state.producers[op_id]) + len(arrivals) + \
            len(state.writers[op_id])

    ready = ReadySet(state, (op for op in op_ids if remaining[op] == 0))

    def release(op_id: int) -> None:
        remaining[op_id] -= 1
        if remaining[op_id] == 0:
            ready.add(op_id)

    t = 0
    while len(state.started) < len(op_ids):
        if t >= spec.latency_bound:
            leftover = min(o for o in op_ids if o not in state.started)
            raise ScheduleFailure("infeasible-windows", cycle=t,
                                  operation=leftover,
                                  op_class=cg.nodes[leftover].op_class,
                                  detail="latency bound reached with "
                                         "operations pending")
        for op_id in release_at.pop(t, ()):
            release(op_id)
        # Something can start only at zero margin or with a free instance:
        # instances only get busier within a cycle.
        ready_classes = [cls for cls, n in ready.per_class.items() if n]
        if not any(state.free_instance(cls, t) for cls in ready_classes):
            first_alap = ready.min_alap()
            if first_alap is None or first_alap > t:
                # Nothing can change before the next release, the next
                # freed instance a ready op can use, or a ready op running
                # out of slack; the cycles up to there would all be idle.
                # Each of these is later than t (operator latencies are
                # >= 1), so the walk always moves forward.
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
            for s in cg.successors(op_id):
                if cg.nodes[s].kind is CgKind.OP:
                    release_at.setdefault(rec.completion, []).append(s)
            # Write completions gate reader ops through their read node;
            # the op's writes are the last accesses it reserved.
            gated = state.gated[op_id]
            if gated:
                for acc, consumers in zip(state.accesses[-len(gated):],
                                          gated):
                    release_at.setdefault(acc.cycle + acc.cost, []).extend(
                        consumers)
        # Started ops leave only now: the lookahead counts every op that
        # was ready when the cycle began.
        for op_id in started:
            ready.discard(op_id)
        t += 1

    cycles = transfer_cycles(
        cg, spec, {op_id: rec.start for op_id, rec in state.started.items()})
    transfers = _build_transfers(cycles, cg, spec)
    pool = {cls: tuple(inst.name for inst in insts)
            for cls, insts in sorted(state.instances.items())}
    achieved = achieved_latency(cg, cycles, max(
        (rec.completion for rec in state.started.values()), default=None))
    if achieved > spec.latency_bound:  # outputs pinned past the bound
        raise ScheduleFailure("infeasible-windows", cycle=max(cycles.values()),
                              detail=f"the transfers span {achieved} cycles, "
                                     f"latency bound is {spec.latency_bound}")
    return Schedule(ops=tuple(sorted(state.started.values(),
                                     key=lambda s: (s.start, s.node))),
                    accesses=tuple(state.accesses),
                    transfers=tuple(transfers),
                    pool=pool,
                    allocation_events=tuple(state.events),
                    achieved_latency=achieved,
                    latency_bound=spec.latency_bound,
                    cadence=spec.cadence)


def _build_transfers(cycles: dict[int, int], cg: ConstraintGraph,
                     spec: IoConstraintSpec) -> list[ScheduledTransfer]:
    """The transfers at ``cycles`` (``transfer_cycles``), each pinned one
    on its declared bus and the others on generated buses, distinct within
    a cycle and reused across cycles (one physical bus serves many
    cycles); generated names skip the ids of declared buses."""
    bus_of = {tr.node: tr.bus for tr in spec.transfers}
    declared = {b.id for b in spec.buses}
    transfers: list[ScheduledTransfer] = []
    for kind, direction, prefix in ((CgKind.INPUT, "in", "auto_in"),
                                    (CgKind.OUTPUT, "out", "auto_out")):
        by_cycle: dict[int, list[int]] = {}
        for n in cg.of_kind(kind):
            if n.id in bus_of:
                transfers.append(ScheduledTransfer(
                    n.id, bus_of[n.id], cycles[n.id], direction))
            else:
                by_cycle.setdefault(cycles[n.id], []).append(n.id)
        names = [name for name in (f"{prefix}{k}" for k in
                                   range(len(cycles) + len(declared)))
                 if name not in declared]
        for cycle in sorted(by_cycle):
            for name, node in zip(names, by_cycle[cycle]):
                transfers.append(ScheduledTransfer(
                    node, name, cycle, direction, True))
    return transfers


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
