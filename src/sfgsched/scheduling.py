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
left and no zero-margin member remains.  The port table changes only
between cycles, and ops started in the cycle leave the readers index only
at its end, so a start changes no later op's cost, lookahead or
servability within the cycle.  When no ready operation can start, the
walk jumps to the next cycle where something can change: a completion or
input arrival, an instance a ready operation can use becoming free, a
ready operation running out of slack, or the latency bound.

A fit depends on an op's requests only through, per request, the bank,
the cycle offset and whether the address continues the bank's run.  Each
group keeps its members in buckets of one static shape (class, and per
request the bank, the offset and whether it continues the op's own
previous request on that bank), with two indexes: the members by the
address of their first request on each bank, and per member the count of
other ready readers of the address after one of its reads.  A bucket's
members share one fit except the burst candidates, whose first request
on a bank continues that bank's run, and only members with such
followers can win the lookahead; so a bucket is ranked from its
candidates and its lowest enabler or lowest member, one probe each, not
member by member.  An access-free bucket (its ops make no port request)
needs no probe at all: every member costs 0 and enables no burst, so it
puts its lowest member forward and the rest follow in id order.  The
ready set also keeps its groups' alaps in order, so the per-cycle check
for overdue ops and the idle skip read the earliest alap instead of
scanning the groups.

A start fits its accesses behind those of the cycle's earlier starts, and
the next cycle's ``rank_executable`` commits them all as fitted.  An
access-free op only takes a free instance.  Every start takes the
lowest-numbered instance of its class free at its cycle, and an auto pool
grows by the next number; each instance is a busy-until int in
``SchedulerState.instances``, and instance k of class c is named
``f"{c}{k}"``, formatted where a record, an allocation event or the pool
names it.

Reads are reserved in the first cycle of their consumer, writes in the
cycle after their producer completes, and both atomically with the
operation's start.  Access costs depend on reservation order, which the
sequence number of each access (its place in ``Schedule.accesses``) keeps
for a verifier's replay.

``schedule`` reads every document through the ``Problem`` (``lower``),
and the pinned transfers from its ``cg.pinned``.

Every per-op fact the scheduler reads sits in a column indexed by the
op's node position, the numbering the SFG gives its nodes (see
``ConstraintGraph``): class, latency and neighbours in the lowering's
columns, the window in the windows', the requests in the problem's op
table (``OpTable``).  The ready set, the walk, the readiness counts,
``rank_executable``, ``assign_step`` and the exhaustive oracle
(``verify``) all work on positions; ids are read from the ``ids`` column
only for the records and failure messages.

The records of a schedule (``ScheduledOp``, ``ScheduledAccess``,
``ScheduledTransfer``, ``AllocationEvent``) are named tuples.  The first
three are each built once, with ``tuple.__new__`` and every field spelled
out: calling the class would run its Python-level ``__new__``, one more
interpreter call per record for an arity check that the fixed field
tuples here do not need.
``assign_step`` makes an access record straight from the request (its
cycle is the start plus its offset), its fit, its sequence number and the
access's facts in the op table.  ``schedule()``, the verifier and
``estimate_registers`` unpack the records by field index, which costs
less than reading their fields by name, and ``Schedule.to_json`` writes
its four record tables straight from the records
(``jsontext.dumps_tables``), with no dict per record.
"""

from __future__ import annotations

import bisect
import heapq
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
from typing import NamedTuple

from .constraints import (CgKind, ConstraintGraph, OpTable, Problem,
                          achieved_latency, apply_io_constraints,
                          build_constraint_graph, compute_time_windows,
                          transfer_cycles)
from .graph import SFG
from .iospec import IoConstraintSpec, build_transfer_graph
from .jsontext import ACCESSES, EVENTS, OPS, TRANSFERS, dumps_tables
from .memory import MemoryMapping, PortAccessTable
from .oplib import OperatorLibrary


class AllocationError(ValueError):
    """Invalid allocation request."""


#: the largest per-class count a fixed allocation may give: the pool holds
#: one instance per unit, so a larger count would exhaust memory
MAX_INSTANCES = 2 ** 16


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
            if not 0 <= n <= MAX_INSTANCES:
                raise AllocationError(f"operator class {name!r}: count {n} "
                                      f"is not in 0..{MAX_INSTANCES}")
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


class ScheduledOp(NamedTuple):
    node: int
    label: str
    op_class: str
    instance: str
    start: int
    latency: int


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


#: builds a record from a tuple of all its fields (see the module
#: docstring); it checks no arity, so every field must be given
_tuple_new = tuple.__new__


# sort keys of the records, by field position
_START_NODE = itemgetter(4, 0)               # ScheduledOp: start, node
_CYCLE_NODE = itemgetter(7, 0)               # ScheduledAccess: cycle, node
_CYCLE_DIRECTION_NODE = itemgetter(2, 3, 0)  # ScheduledTransfer: cycle,
                                             # direction, node


class AllocationEvent(NamedTuple):
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
        head = {
            "latency": self.achieved_latency,
            "latency_bound": self.latency_bound,
            "cadence": self.cadence,
            "pool": {cls: list(names)
                     for cls, names in sorted(self.pool.items())},
        }
        return dumps_tables(head, (
            ("allocation_events", self.allocation_events, EVENTS),
            ("ops", sorted(self.ops, key=_START_NODE), OPS),
            ("accesses", sorted(self.accesses, key=_CYCLE_NODE), ACCESSES),
            ("transfers", sorted(self.transfers, key=_CYCLE_DIRECTION_NODE),
             TRANSFERS))) + "\n"


def lower(g: SFG, lib: OperatorLibrary, spec: IoConstraintSpec,
          mapping: MemoryMapping) -> Problem:
    """The problem lowered once: the one chain of the lowering stages, by
    the names this module imports (wrapping them here sees every call),
    and the op table the mapping decides."""
    cg = apply_io_constraints(build_constraint_graph(g, lib),
                              build_transfer_graph(spec), spec)
    ops = OpTable(cg, mapping)
    return Problem(g, lib, spec, mapping, cg,
                   compute_time_windows(cg, ops.latest), ops)


class SchedulerState:
    """Mutable working state shared by the ranking and assignment steps.

    It reads the problem's columns in place: the lowering's (``cg``), the
    windows' and the op table's (``ops``).  ``instances`` holds per
    operator class each instance's busy-until cycle (the first cycle it
    is free again); ``accesses`` and ``events`` collect
    the records as they are made, and ``started`` holds each op's record
    once started, by node position.  ``cycle_requests`` and
    ``cycle_fits`` hold the requests and fits of the ops started in the
    current cycle, in start order, until the next cycle commits them.

    ``rank_executable`` sets ``t`` to the cycle it ranks; ``cost`` probes
    the port table with the op's requests as the op table holds them.
    """

    def __init__(self, problem: Problem, table: PortAccessTable,
                 allocation: Allocation):
        self.cg, self.windows, self.ops = problem.cg, problem.windows, \
            problem.ops
        self.table, self.allocation = table, allocation
        self.instances: dict[str, list[int]] = {}
        self.accesses: list[ScheduledAccess] = []
        self.events: list[AllocationEvent] = []
        self.started = [None] * len(self.cg.ids)
        self.cycle_requests: list[tuple[str, int, int]] = []
        self.cycle_fits: list[tuple[int, str, range]] = []
        self.t = -1

    def cost(self, i: int) -> int | None:
        """Total port cost of starting the op at position i at cycle ``t``,
        against the port table, or None if blocked (a port conflict or an
        access past the horizon); an access-free op costs 0."""
        reqs = self.ops.requests[i]
        if not reqs:
            return 0
        fits = self.table.probe(reqs, self.t)
        return None if fits is None else sum(fit[0] for fit in fits)


class _Bucket:
    """Members of one (mobility, alap) group that share a shape.

    ``members`` and ``enablers`` (members with a lookahead follower) are
    op positions in ascending order; ``first_at`` maps the (bank, address)
    of a first request on a bank to the members that make it."""

    __slots__ = ("members", "enablers", "first_at")

    def __init__(self):
        self.members: list[int] = []
        self.enablers: list[int] = []
        self.first_at: dict[tuple[str, int], list[int]] = {}


class ReadySet:
    """The ready operations of a run, kept up to date between cycles.

    Ops come and go (``add``, ``discard``) and are kept by their position
    in the op table (``OpTable``).  ``groups`` maps each (mobility, alap)
    prefix of the rank key to its members, bucketed by shape
    (``OpTable.shape``), and ``keys`` holds those prefixes in
    ascending order; ``alaps`` holds the groups' alaps in ascending order.
    ``per_class`` counts members by operator class, and ``readers``
    indexes members by the (bank, address) of their reads.  ``followers``
    counts, per position, the other members reading the address after one
    of the op's reads on the same bank: only a member with followers can
    enable a burst.
    """

    def __init__(self, state: SchedulerState, ops: Iterable[int] = ()):
        self.ops, self.op_class = state.ops, state.cg.op_class
        self.alap = state.windows.alap_at
        self.mobility = state.windows.mobility_at
        self.keys: list[tuple[int, int]] = []
        self.alaps: list[int] = []
        self.groups: dict[tuple[int, int], dict[tuple, _Bucket]] = {}
        self.per_class: dict[str, int] = {}
        self.readers: dict[tuple[str, int], list[int]] = {}
        self.followers = [0] * len(self.op_class)
        for i in ops:
            self.add(i)

    def __len__(self) -> int:
        return sum(self.per_class.values())

    def _bucket(self, i: int) -> _Bucket:
        return self.groups[self.mobility[i], self.alap[i]][
            self.ops.shape[i]]

    def _follow(self, i: int, delta: int) -> None:
        before = self.followers[i]
        self.followers[i] = before + delta
        if not before:
            bisect.insort(self._bucket(i).enablers, i)
        elif not before + delta:
            self._bucket(i).enablers.remove(i)

    def add(self, i: int) -> None:
        ops = self.ops
        alap = self.alap[i]
        key = (self.mobility[i], alap)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = {}
            bisect.insort(self.keys, key)
            bisect.insort(self.alaps, alap)
        shape = ops.shape[i]
        bucket = group.get(shape)
        if bucket is None:
            bucket = group[shape] = _Bucket()
        bisect.insort(bucket.members, i)
        cls = self.op_class[i]
        self.per_class[cls] = self.per_class.get(cls, 0) + 1
        if not shape[1]:
            return  # access-free: no reads, no first requests
        for first in ops.firsts[i]:
            bucket.first_at.setdefault(first, []).append(i)
        read_keys = ops.read_keys[i]
        if not read_keys:
            return
        readers = self.readers
        for rk in read_keys:
            readers.setdefault(rk, []).append(i)
        followers = 0
        for bank, address in read_keys:
            for other in readers.get((bank, address + 1), ()):
                followers += other != i
            for other in readers.get((bank, address - 1), ()):
                if other != i:
                    self._follow(other, 1)
        self.followers[i] = followers
        if followers:
            bisect.insort(bucket.enablers, i)

    def discard(self, i: int) -> None:
        ops = self.ops
        alap = self.alap[i]
        key = (self.mobility[i], alap)
        group = self.groups[key]
        shape = ops.shape[i]
        bucket = group[shape]
        bucket.members.remove(i)
        if shape[1]:
            for first in ops.firsts[i]:
                bucket.first_at[first].remove(i)
            if self.followers[i]:
                self.followers[i] = 0
                bucket.enablers.remove(i)
        if not bucket.members:
            del group[shape]
            if not group:
                del self.groups[key]
                del self.keys[bisect.bisect_left(self.keys, key)]
                del self.alaps[bisect.bisect_left(self.alaps, alap)]
        self.per_class[self.op_class[i]] -= 1
        readers = self.readers
        for bank, address in ops.read_keys[i]:
            readers[bank, address].remove(i)
            for other in readers.get((bank, address - 1), ()):
                if other != i:
                    self._follow(other, -1)

    def min_alap(self) -> int | None:
        return self.alaps[0] if self.alaps else None

    def due(self, t: int) -> list[int]:
        """Positions of the members whose latest start is t or earlier,
        in ascending order."""
        if not self.alaps or self.alaps[0] > t:
            return []
        return sorted(i for key in self.keys if key[1] <= t
                      for bucket in self.groups[key].values()
                      for i in bucket.members)


def rank_executable(state: SchedulerState, ready: ReadySet,
                    t: int) -> Iterator[int]:
    """Walk the ready operations for cycle t in rank order, by position.

    The rank key is (mobility, alap, access cost, burst lookahead, id):
    tight windows first, and among equals an access whose address starts a
    run another ready access can continue in burst mode goes first.  The
    first two parts are static, so the walk visits the (mobility, alap)
    groups in order, and within a group only the members that may start:
    those at zero margin and those whose class still has a free instance.
    It yields each one whose accesses fit, skips one whose class ran out
    of instances since, and stops once no class with a free instance has
    members left and no zero-margin member remains.  It first commits the
    accesses of the previous cycle's starts: all probes see the port table
    as the cycle began, so a start earlier in the cycle changes no later
    op's cost, lookahead or servability.  Consumed without starting
    anything, the walk yields every servable member that is at zero margin
    or has a free instance, sorted by the full key.

    A fit depends on an op's requests only through their bank, their
    cycle offset and whether each continues its bank's run.  So members
    of one shape bucket share one fit, and one probe serves them all,
    unless their first request on some bank continues that bank's run (a
    burst candidate); the others rank by the lookahead and id alone:
    first the members whose reads a servable peer continues, then the
    rest.  So each bucket puts forward its candidates and its best other
    member, the walk merges the buckets by the full key, and a bucket
    moves on to its next member only while the class still has a free
    instance (always after a delay) or the group is at zero margin.
    An access-free bucket needs no probe: its members cost 0, enable no
    burst and come in id order.

    Before anything is yielded, a member whose latest start has passed
    aborts the schedule (lowest id first), as does a zero-margin member
    whose accesses cannot be served (in id order), naming the bank of its
    first request that the port table cannot serve.
    """
    free = {}
    for cls, busy in state.instances.items():
        n = 0
        for until in busy:
            if until <= t:
                n += 1
        free[cls] = n
    alap, ids, op_class = state.windows.alap_at, state.cg.ids, \
        state.cg.op_class
    due = ready.due(t)
    for i in due:
        if alap[i] < t:
            raise ScheduleFailure("infeasible-windows", cycle=t,
                                  operation=ids[i], op_class=op_class[i],
                                  detail=f"latest feasible start was cycle "
                                         f"{alap[i]}")
    state.t = t
    table = state.table
    table.commit(state.cycle_requests, state.cycle_fits)
    state.cycle_requests, state.cycle_fits = [], []
    cost = state.cost
    for i in due:
        if cost(i) is None:
            reqs = state.ops.requests[i]
            fits = table.fit(reqs, t)
            raise ScheduleFailure(
                "memory-conflict-at-zero-margin", cycle=t,
                operation=ids[i], op_class=op_class[i],
                bank=reqs[len(fits)][0])
    return _walk(state, ready, t, cost, len(due), free, table.last)


def _walk(state: SchedulerState, ready: ReadySet, t: int,
          cost: Callable[[int], int | None], zero_left: int,
          free: dict[str, int], last: dict[str, int | None]
          ) -> Iterator[int]:
    """``rank_executable``'s walk.  ``open_left`` counts the members, in
    groups not visited yet, of the classes with a free instance."""
    op_class = state.cg.op_class
    read_keys = state.ops.read_keys
    started = state.started
    readers = ready.readers
    left = dict(ready.per_class)  # members in groups not visited yet
    open_left = sum(n for cls, n in left.items() if free.get(cls))

    for key in ready.keys:
        if not zero_left and not open_left:
            return
        group = ready.groups[key]
        zero = key[1] <= t
        # (cost, flag, position, cursor over its bucket's rest)
        heads = []
        for (cls, steps), bucket in group.items():
            members = bucket.members
            n = len(members)
            left[cls] -= n
            if free.get(cls):
                open_left -= n
            elif not zero:
                continue
            if zero:
                zero_left -= n
            if not steps:
                # access-free: cost 0 and flag 1 for every member
                heads.append((0, 1, members[0], _after_first(members)))
                continue
            candidates = set()
            for bank, _, inop in steps:
                if inop is None and last[bank] is not None:
                    candidates.update(
                        bucket.first_at.get((bank, last[bank] + 1), ()))
            for i in candidates:
                c = cost(i)
                if c is not None:
                    heads.append((c, _enables_flag(i, read_keys, readers,
                                                   cost), i, None))
            # the other members share one fit, so one probe serves
            first = members[0] if not candidates else next(
                (i for i in members if i not in candidates), None)
            if first is None or (c := cost(first)) is None:
                continue
            others = _rest(bucket, candidates, read_keys, readers, cost)
            heads.append((c, *next(others), others))
        heapq.heapify(heads)
        while heads:
            c, _, i, others = heapq.heappop(heads)
            cls = op_class[i]
            if not zero and not free.get(cls):
                continue  # an earlier start took the last free instance
            yield i
            if started[i] is not None and free.get(cls):
                free[cls] -= 1
                if not free[cls]:  # its unvisited members cannot start
                    open_left -= left[cls]
            if others is not None and (zero or free.get(cls)):
                head = next(others, None)
                if head is not None:
                    heapq.heappush(heads, (c, *head, others))


def _enables_flag(i: int, read_keys: list, readers: dict,
                  cost: Callable[[int], int | None]) -> int:
    """Burst lookahead of the op at position i: 0 (first) when some other
    servable ready op (``readers``) reads the address after one of its
    reads (``read_keys[i]``) on the same bank, since starting the run keeps
    that follow-up access in burst mode, and 1 otherwise."""
    for bank, address in read_keys[i]:
        for other in readers.get((bank, address + 1), ()):
            if other != i and cost(other) is not None:
                return 0
    return 1


def _rest(bucket: _Bucket, skip: set[int], read_keys: list, readers: dict,
          cost: Callable[[int], int | None]) -> Iterator[tuple[int, int]]:
    """(flag, position) of the bucket's members outside ``skip`` in rank
    order: the burst enablers, then the others, each by position."""
    enabling = set()
    for i in bucket.enablers:
        if i not in skip and not _enables_flag(i, read_keys, readers, cost):
            enabling.add(i)
            yield 0, i
    for i in bucket.members:
        if i not in skip and i not in enabling:
            yield 1, i


def _after_first(members: list[int]) -> Iterator[tuple[int, int]]:
    """(flag 1, position) of each member after the first, in order: the
    rest of a bucket whose members all share one cost and enable no burst."""
    return zip(repeat(1), islice(members, 1, None))


def assign_step(state: SchedulerState, i: int, t: int) -> ScheduledOp | None:
    """Try to start the operation at position i at cycle t.

    Returns the record on success and None when the operation is delayed
    (a legal wait: it still has slack).  At zero margin a missing resource
    aborts the schedule instead; a port conflict is reported before a
    missing instance.  It follows ``rank_executable`` of its own cycle t,
    as ``schedule()`` calls it.  An access-free operation only needs an
    instance.  The requests of another, as the op table holds them, are
    fitted behind the cycle's earlier starts (``cycle_requests``), whose
    fits the prefix replays; the op's own part is short when blocked, on
    the bank of the request after its last fit.  Each access record is
    numbered by its place in ``state.accesses``.
    """
    op_id, alap = state.cg.ids[i], state.windows.alap_at[i]
    op_class = state.cg.op_class[i]
    reqs = state.ops.requests[i]
    if reqs:
        cycle_requests = [*state.cycle_requests, *reqs]
        cycle_fits = state.table.fit(cycle_requests, t)
        fits = cycle_fits[len(state.cycle_requests):]
        if len(fits) < len(reqs):
            if alap == t:
                raise ScheduleFailure("memory-conflict-at-zero-margin",
                                      cycle=t, operation=op_id,
                                      op_class=op_class,
                                      bank=reqs[len(fits)][0])
            return None

    busy = state.instances.get(op_class, ())
    k = 0  # the lowest-numbered instance free at t
    for until in busy:
        if until <= t:
            break
        k += 1
    else:
        if alap > t:
            return None
        if state.allocation.mode != "auto":
            raise ScheduleFailure("fixed-allocation-exhausted", cycle=t,
                                  operation=op_id, op_class=op_class)
        busy.append(t)  # an auto pool holds every class in use
        state.events.append(AllocationEvent(t, op_class, f"{op_class}{k}"))

    if reqs:
        state.cycle_requests, state.cycle_fits = cycle_requests, cycle_fits
        append = state.accesses.append
        for seq, ((acc, kind, data, data_label), (bank, address, offset),
                  (cost, cost_class, _)) in enumerate(
                    zip(state.ops.records[i], reqs, fits),
                    len(state.accesses) + 1):
            append(_tuple_new(ScheduledAccess, (
                acc, op_id, kind, data, data_label, bank, address,
                t + offset, cost, cost_class, seq)))

    latency = state.cg.latency[i]
    busy[k] = t + latency
    rec = state.started[i] = _tuple_new(ScheduledOp, (
        op_id, state.cg.label[i], op_class, f"{op_class}{k}", t, latency))
    return rec


def _seed_pool(state: SchedulerState, lib: OperatorLibrary) -> None:
    if state.allocation.mode == "fixed":
        for name, n in state.allocation.counts:
            lib.by_name(name)  # raises on an unknown class
            state.instances[name] = [0] * n
        return
    for name in sorted(set(state.cg.op_class) - {None}):
        state.instances[name] = [0]


def _some_class_free(per_class: dict[str, int],
                     instances: dict[str, list[int]], t: int) -> bool:
    """Whether a class with ready members has an instance free at t."""
    for cls, n in per_class.items():
        if n:
            for until in instances.get(cls, ()):
                if until <= t:
                    return True
    return False


def schedule(g: SFG, lib: OperatorLibrary, spec: IoConstraintSpec,
             mapping: MemoryMapping,
             allocation: Allocation = Allocation(mode="auto"),
             problem: Problem | None = None) -> Schedule:
    """Schedule one iteration of the graph within the latency bound.

    ``problem`` is the lowering of ``g``, ``lib``, ``spec`` and ``mapping``
    when the caller already holds one; it is only read, and must carry
    those very documents (ValueError otherwise).  Without it the problem
    is lowered here, with ``lower``.  Either way every document is then
    read through the problem.

    Raises ScheduleFailure when no legal schedule can be produced under the
    given resources, a latency above the bound among them; static
    infeasibility should be caught beforehand with ``check_feasibility``.
    """
    if problem is None:
        problem = lower(g, lib, spec, mapping)
    elif not (problem.g is g and problem.lib is lib and problem.spec is spec
              and problem.mapping is mapping):
        raise ValueError("the problem was lowered from other documents "
                         "than the ones given")
    cg, windows, spec = problem.cg, problem.windows, problem.spec
    ids, label, deadline = cg.ids, cg.label, cg.deadline
    # outputs with no operation on their path (pass-through) never hit the
    # per-op margin check, so reject impossible output dates up front
    for p in cg.positions[CgKind.OUTPUT]:
        if windows.asap_at[p] > deadline[p]:
            raise ScheduleFailure("infeasible-windows", cycle=deadline[p],
                                  operation=ids[p],
                                  detail=f"output {label[p]} "
                                         f"cannot be ready before cycle "
                                         f"{windows.asap_at[p]}")
    state = SchedulerState(problem, PortAccessTable(problem.mapping,
                                                    spec.cadence), allocation)
    _seed_pool(state, problem.lib)

    # Readiness bookkeeping: each op counts what it waits for (its
    # producers, late input arrivals and gating writes) and an event queue
    # decrements the count as each one completes; both hold op positions.
    ops, kind = cg.positions[CgKind.OP], cg.kind
    remaining = list(map(len, problem.ops.writers))
    for i in ops:
        for c in cg.consumers[i]:
            remaining[c] += 1
    release_at: dict[int, list[int]] = {}  # cycle -> positions to decrement
    for q in cg.positions[CgKind.INPUT]:  # inputs arriving after cycle 0
        if cg.arrival[q] > 0:
            for i in cg.succ[q]:
                if kind[i] is CgKind.OP:
                    release_at.setdefault(cg.arrival[q], []).append(i)
                    remaining[i] += 1

    ready = ReadySet(state, [i for i in ops if not remaining[i]])
    per_class, instances = ready.per_class, state.instances
    consumers, gated_of = cg.consumers, problem.ops.gated
    bound = spec.latency_bound

    t = 0
    n_started = 0
    while n_started < len(ops):
        if t >= bound:
            i = next(i for i in ops if state.started[i] is None)
            raise ScheduleFailure("infeasible-windows", cycle=t,
                                  operation=ids[i],
                                  op_class=cg.op_class[i],
                                  detail="latency bound reached with "
                                         "operations pending")
        for i in release_at.pop(t, ()):
            remaining[i] -= 1
            if not remaining[i]:
                ready.add(i)
        # Something can start only at zero margin or with a free instance:
        # instances only get busier within a cycle.
        if not _some_class_free(per_class, instances, t):
            first_alap = ready.min_alap()
            if first_alap is None or first_alap > t:
                # Nothing can change before the next release, the next
                # freed instance a ready op can use, or a ready op running
                # out of slack; the cycles up to there would all be idle.
                # Each of these is later than t (operator latencies are
                # >= 1), so the walk always moves forward.
                t = min([bound, *release_at,
                         *(() if first_alap is None else (first_alap,)),
                         *(until for cls, n in per_class.items()
                           if n for until in instances.get(cls, ()))])
                continue
        started: list[int] = []
        for i in rank_executable(state, ready, t):
            rec = assign_step(state, i, t)
            if rec is None:
                continue
            started.append(i)
            fed = consumers[i]
            if fed:
                done = t + rec.latency
                waiting = release_at.get(done)
                if waiting is None:
                    release_at[done] = list(fed)
                else:
                    waiting.extend(fed)
            # Write completions gate reader ops through their read node;
            # the op's writes are the last accesses it reserved.
            gated = gated_of[i]
            if gated:
                for acc, readers in zip(state.accesses[-len(gated):], gated):
                    release_at.setdefault(acc.cycle + acc.cost, []).extend(
                        readers)
        # Started ops leave only now: the lookahead counts every op that
        # was ready when the cycle began.
        for i in started:
            ready.discard(i)
        n_started += len(started)
        t += 1

    records = [rec for rec in state.started if rec is not None]
    cycles = transfer_cycles(
        cg, [None if rec is None else rec[4] for rec in state.started])
    transfers = _build_transfers(cycles, cg, spec)
    pool = {cls: tuple(f"{cls}{k}" for k in range(len(busy)))
            for cls, busy in sorted(state.instances.items())}
    achieved = achieved_latency(cg, cycles, max(
        (start + latency for _, _, _, _, start, latency in records),
        default=None))
    if achieved > spec.latency_bound:  # outputs pinned past the bound
        raise ScheduleFailure("infeasible-windows", cycle=max(cycles.values()),
                              detail=f"the transfers span {achieved} cycles, "
                                     f"latency bound is {spec.latency_bound}")
    return Schedule(ops=tuple(sorted(records, key=_START_NODE)),
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
    (``cg.pinned``) on its declared bus and the others on generated buses,
    distinct within a cycle and reused across cycles (one physical bus
    serves many cycles); generated names skip the ids of the spec's
    declared buses."""
    pinned = cg.pinned
    declared = {b.id for b in spec.buses}
    ids = cg.ids
    transfers: list[ScheduledTransfer] = []
    for kind, direction, prefix in ((CgKind.INPUT, "in", "auto_in"),
                                    (CgKind.OUTPUT, "out", "auto_out")):
        by_cycle: dict[int, list[int]] = {}
        for p in cg.positions[kind]:
            if p in pinned:
                transfers.append(_tuple_new(ScheduledTransfer, (
                    ids[p], pinned[p].bus, cycles[p], direction, False)))
            else:
                by_cycle.setdefault(cycles[p], []).append(ids[p])
        # as many names as the busiest cycle needs
        need = max(map(len, by_cycle.values()), default=0)
        names: list[str] = []
        k = 0
        while len(names) < need:
            name = f"{prefix}{k}"
            if name not in declared:
                names.append(name)
            k += 1
        for cycle in sorted(by_cycle):
            for name, node in zip(names, by_cycle[cycle]):
                transfers.append(_tuple_new(ScheduledTransfer, (
                    node, name, cycle, direction, True)))
    return transfers


def estimate_registers(sched: Schedule, g: SFG) -> int:
    """Register estimate: peak count of values alive across a cycle
    boundary, plus one holding register per distinct bus.

    An operation result is alive from its completion until its last
    consumer fires (an output consumes in its transfer cycle, so a result
    driven out during its production cycle never hits a register).  An
    input value is alive from the cycle after its transfer."""
    # By node position: the cycle a node takes its operands in (an
    # operation's start, an output's transfer) and the first cycle its
    # value is held (an operation's completion, the cycle after an input's
    # transfer).  No other node has a record, nor a value to hold.
    at = g._at
    used: list[int | None] = [None] * len(at)
    born: list[int | None] = [None] * len(at)
    for node, _, _, _, begin, latency in sched.ops:  # by position
        p = at[node]
        used[p], born[p] = begin, begin + latency
    for node, _, cycle, _, _ in sched.transfers:
        p = at[node]
        used[p], born[p] = cycle, cycle + 1

    intervals: list[tuple[int, int]] = []
    for b, outs in zip(born, g._out):
        if b is None:
            continue
        last_use = None
        for d in outs:
            use = used[d]
            if use is not None and (last_use is None or use > last_use):
                last_use = use
        if last_use is not None and last_use >= b:
            intervals.append((b, last_use))
    delta: dict[int, int] = {}
    for b, e in intervals:
        delta[b] = delta.get(b, 0) + 1
        delta[e + 1] = delta.get(e + 1, 0) - 1
    peak = live = 0
    for t in sorted(delta):
        live += delta[t]
        peak = max(peak, live)

    buses = len({t.bus for t in sched.transfers})
    return peak + buses
