"""Constraint graph: dependency/latency model, I/O constraint merge, time
windows, and static feasibility checks.

The problem is lowered once, by node position (see ``ConstraintGraph``):

1. ``build_constraint_graph`` annotates the SFG's operations with operator
   latencies and materializes explicit memory-access nodes: every
   memdata->operation edge becomes a *read* node, every operation->memdata
   edge a *write* node.
2. ``apply_io_constraints`` checks the transfers and keeps them by node
   position (``pinned``), then gives input nodes an arrival cycle and
   output nodes a deadline, sharing other columns.
3. ``OpTable`` derives what the memory mapping decides for each
   operation: its port requests, the facts the scheduler and the oracle
   read with them, and ``latest``, the last start at which its accesses
   fit the port horizon.
4. ``compute_time_windows`` walks the topological order the SFG's
   validation found, weighing each edge by ``_weights_from`` and capping
   each ALAP start by ``latest``.

``scheduling.lower`` chains these steps into a ``Problem``, which also
keeps the four documents: the later stages take only the ``Problem``.

Timing model (all cycles 0-based):

* an operation started at cycle ``s`` occupies ``s .. s+latency-1`` and its
  result is usable from cycle ``s+latency``;
* an input value is usable during its arrival cycle (read through from the
  bus);
* a read access is reserved in the first cycle of its consuming operation
  (read-through), so it adds no serial delay;
* a write access starts the cycle after its producer completes and must
  finish before any reader of that datum starts;
* an output transferred at cycle ``t`` may be produced during cycle ``t``
  itself (the value is driven as it is committed), so a producer with
  latency L may start as late as ``t - L + 1``.

The deadline stored on an output node is therefore the last cycle its
producer may occupy: the transfer offset when constrained, or
``latency_bound - 1`` when only the latency bound applies.

``transfer_cycles``, ``produced_cycle`` and ``achieved_latency`` apply
this model to start cycles for the scheduler, verifier and oracle.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from operator import sub
from typing import NamedTuple

from .graph import SFG, NodeKind, validate_sfg
from .iospec import IoConstraintSpec, IoSpecError, Transfer
from .memory import MemoryMapping, is_burst
from .oplib import OperatorLibrary

#: Optimistic memory-access latency used before bank timings are known.
#: Banks guarantee t_seq >= 1, so 1 cycle is the lower bound.
OPTIMISTIC_ACCESS_LATENCY = 1


class UnsupportedGraphError(ValueError):
    """Graph shape outside the supported dataflow subset."""


class CgKind(str, Enum):
    OP = "op"
    INPUT = "input"
    OUTPUT = "output"
    READ = "read"
    WRITE = "write"


#: Sources whose successors may start in the same cycle: a read is read
#: through (its consumer starts with it), and an input value is usable
#: during its arrival cycle.
_SAME_CYCLE_SOURCES = frozenset((CgKind.READ, CgKind.INPUT))


class CgNode(NamedTuple):
    """Constraint-graph node (a named tuple: immutable and hashable).  A
    ``ConstraintGraph`` keeps its nodes as columns and builds these records
    from them, with ``tuple.__new__`` and all nine fields spelled out, only
    when ``of_kind`` asks for them.

    ``latency`` is the node's occupancy in cycles (operator latency for ops,
    optimistic access time for read/write nodes, 0 for I/O events).  Access
    nodes carry the memdata id they touch (``data``) and the operation they
    belong to (``agent``): reads start with their consumer, writes start at
    their producer's completion.
    """

    id: int
    kind: CgKind
    latency: int
    label: str = ""
    op_class: str | None = None
    data: int | None = None
    agent: int | None = None
    arrival: int | None = None
    deadline: int | None = None


class ConstraintGraph:
    """Immutable DAG of constraint-graph nodes, as columns by node position.

    It keeps the SFG's positions, leaves those of constants and memdata
    empty (kind None) and puts its access nodes after them, writes first.
    ``ids`` and ``at`` translate positions and ids.  One column per
    ``CgNode`` field holds it by position (``agent`` as a position),
    ``positions`` each kind's positions in order, ``pred``/``succ`` the
    adjacency and ``order`` a topological order (None on a cycle);
    ``consumers`` lists the operations each operation feeds (one per edge),
    and ``reads``/``writes`` its accesses in creation order.  ``of_kind``
    builds the records of one kind.  ``latency_bound``, ``cadence`` and
    ``pinned``, each pinned ``Transfer`` by the position of its node, are
    set once I/O constraints are applied.
    """

    def __init__(self, rows: list[tuple], pred: list, succ: list,
                 order: list[int] | None, consumers: list):
        # rows: the CgNode fields by position, ``agent`` as a position
        (self.ids, self.kind, self.latency, self.label, self.op_class,
         self.data, self.agent, self.arrival, self.deadline) = [
             list(c) for c in zip(*rows)] or [[] for _ in range(9)]
        self.at = dict(zip(self.ids, range(len(rows))))
        self.pred, self.succ, self.order = pred, succ, order
        self.consumers = consumers
        self.latency_bound: int | None = None
        self.cadence: int | None = None
        self.pinned: dict[int, Transfer] = {}
        self.positions: dict[CgKind | None, list[int]] = defaultdict(list)
        for p, kind in enumerate(self.kind):
            self.positions[kind].append(p)
        self.reads: dict[int, list[int]] = {}
        self.writes: dict[int, list[int]] = {}
        for accesses, kind in ((self.reads, CgKind.READ),
                               (self.writes, CgKind.WRITE)):
            for p in self.positions[kind]:
                accesses.setdefault(self.agent[p], []).append(p)

    def of_kind(self, kind: CgKind) -> list[CgNode]:
        """The nodes of one kind in position order."""
        ids, agent = self.ids, self.agent
        return [tuple.__new__(CgNode, (
            ids[p], kind, self.latency[p], self.label[p], self.op_class[p],
            self.data[p], None if agent[p] is None else ids[agent[p]],
            self.arrival[p], self.deadline[p])) for p in self.positions[kind]]


def _weights_from(kind: CgKind, latency: int) -> tuple[int, int]:
    """Minimum start-to-start distance implied by an edge out of a node of
    ``kind`` and ``latency`` into an output, and into any other node."""
    if kind in _SAME_CYCLE_SOURCES:
        return 0, 0
    # a transfer may overlap the producer's last cycle
    return max(latency - 1, 0), latency


class TimeWindows:
    """ASAP/ALAP start cycles and their difference (mobility), by node
    position (``ConstraintGraph``) in ``asap_at``, ``alap_at`` and
    ``mobility_at``.  ``compute_time_windows`` gives the lists and the
    graph's ``ids`` and ``order``; ``asap``, the ASAP cycles by node id in
    topological order, is built from them on first read.

    Windows can be inconsistent (negative mobility) for infeasible
    constraint sets; ``check_feasibility`` reports that, the computation
    itself never fails.
    """

    def __init__(self, asap_at: list[int], alap_at: list[int],
                 mobility_at: list[int], ids: list[int], order: list[int]):
        self.asap_at, self.alap_at, self.mobility_at = \
            asap_at, alap_at, mobility_at
        self._ids, self._order = ids, order  # every node, no empty position

    @cached_property
    def asap(self) -> dict[int, int]:
        return dict(zip(map(self._ids.__getitem__, self._order),
                        map(self.asap_at.__getitem__, self._order)))


class OpTable:
    """What the mapping decides for each op, derived once per op with
    accesses, in columns indexed by node position (see ``ConstraintGraph``;
    operations take positions in id order, so every id tie-break holds on
    positions): ``requests``, its port requests as (bank, address, cycle
    offset), reads at offset 0 and then writes at its latency;
    ``records``, the (access node, kind, data, data label) of each;
    ``writers``, the ops whose writes gate its reads; ``gated``, per write
    the ops whose reads it gates; ``read_keys``, the (bank, address) of its
    reads; ``shape``, its class and per request the bank, the offset and
    whether the address continues the op's previous request on that bank
    (None for its first there, which depends on the port table);
    ``firsts``, the (bank, address) of those first requests.  An
    access-free op gets empty tuples.

    ``latest`` holds the port horizon (``Bank.last_issue`` over the
    graph's ``cadence``) at the cheapest access cost, ``t_seq``: per
    access node the last cycle it can
    issue, and per op with accesses the last start at which all of them
    can (each its offset earlier); None elsewhere.  A dearer access only
    ends later, so no start past ``latest`` can fit.
    """

    def __init__(self, cg: ConstraintGraph, mapping: MemoryMapping):
        cadence = cg.cadence
        ids, label, latency, op_class = cg.ids, cg.label, cg.latency, \
            cg.op_class
        pred, succ, agent, data = cg.pred, cg.succ, cg.agent, cg.data
        self.writers, self.requests, self.records, self.gated, \
            self.read_keys, self.firsts = [[()] * len(ids) for _ in range(6)]
        # an access-free op's shape: one tuple per class, shared
        free_of = {cls: (cls, ()) for cls in set(op_class)}
        self.shape = list(map(free_of.__getitem__, op_class))
        placement = mapping._by_data  # memdata id -> Placement
        limit = {b.id: b.last_issue(cadence) for b in mapping.banks}
        self.latest = latest = [None] * len(ids)
        reads_of, writes_of = cg.reads, cg.writes
        for p in reads_of.keys() | writes_of.keys():
            reads, writes = reads_of.get(p, ()), writes_of.get(p, ())
            self.writers[p] = tuple([agent[w] for r in reads for w in pred[r]])
            self.gated[p] = tuple([tuple([agent[r] for r in succ[w]])
                                   for w in writes])
            requests, records, low = [], [], cadence  # low: latest[p]
            for accs, offset, name in ((reads, 0, "read"),
                                       (writes, latency[p], "write")):
                for a in accs:
                    place = placement[data[a]]
                    requests.append((place.bank, place.address, offset))
                    records.append((ids[a], name, data[a], label[a][3:]))
                    latest[a] = last = limit[place.bank]
                    if last - offset < low:
                        low = last - offset
            latest[p] = low
            prev, read_keys, steps, firsts = {}, [], [], []
            for bank, address, offset in requests:
                if not offset:
                    read_keys.append((bank, address))
                before = prev.get(bank)
                if before is None:
                    firsts.append((bank, address))
                    steps.append((bank, offset, None))
                else:
                    steps.append((bank, offset, is_burst(before, address)))
                prev[bank] = address
            self.requests[p] = tuple(requests)
            self.records[p] = tuple(records)
            self.read_keys[p] = tuple(read_keys)
            self.shape[p] = (op_class[p], tuple(steps))
            self.firsts[p] = tuple(firsts)


@dataclass(frozen=True)
class Problem:
    """A problem lowered once: its four documents, the I/O-constrained
    constraint graph, its time windows and the op table its mapping
    decides (``OpTable``), kept together so that no stage pairs a
    lowering with another's parts or with other documents.

    ``scheduling.lower(g, lib, spec, mapping)`` builds it, the one place
    the lowering stages are chained.  The static checks, the scheduler,
    the verifier, the oracle and the report only read it, so one instance
    serves a whole CLI call.
    """

    g: SFG
    lib: OperatorLibrary
    spec: IoConstraintSpec
    mapping: MemoryMapping
    cg: ConstraintGraph
    windows: TimeWindows
    ops: OpTable


@dataclass(frozen=True)
class FeasibilityReport:
    cadence_ok: bool
    output_dates_ok: bool
    critical_path_cycles: int
    diagnostics: tuple[str, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.cadence_ok and self.output_dates_ok


def build_constraint_graph(g: SFG, lib: OperatorLibrary) -> ConstraintGraph:
    """Annotate the SFG with operator latencies and materialize memory-access
    nodes, in one pass over the SFG's positions.

    Supported edges: input/const/memdata -> operation, operation ->
    operation/memdata/output, input -> output.  Constants impose no timing
    constraint (they are folded into the operator datapath) and produce no
    constraint-graph node.  The SFG's topological order is kept, with each
    memdata's write and reads in its place.
    """
    violations = validate_sfg(g)
    if violations:
        raise ValueError(f"invalid SFG: {violations[0]}")

    OPERATION, INPUT, OUTPUT, MEMDATA = (
        NodeKind.OPERATION, NodeKind.INPUT, NodeKind.OUTPUT, NodeKind.MEMDATA)
    # enum members as locals: a class lookup costs ten times a local's
    OP, READ, WRITE = CgKind.OP, CgKind.READ, CgKind.WRITE
    CG_INPUT, CG_OUTPUT = CgKind.INPUT, CgKind.OUTPUT
    sfg_kind, sfg_label, sfg_in, ids = g._kind, g._label, g._in, g.ids
    # Pick each symbol's class once, in symbol order, so that the first
    # symbol no class executes is reported before any unsupported memory use.
    selected = {sym: lib.select(sym) for sym in sorted(set(g._op) - {None})}
    n = len(ids)
    rows: list = [None] * n  # the CgNode fields, by position
    pred: list = [()] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    consumers: list = [[] if k is OPERATION else () for k in sfg_kind]
    base = ids[-1] + 1 - n if ids else 0  # access ids follow the SFG's
    of_data: dict[int, list[int]] = {}  # memdata -> its write, then reads

    # Writes first, so that their positions come first and reads of the
    # same datum can be chained after them, in (source, memdata) order.
    for s, m in sorted((s, m) for m, mk in enumerate(sfg_kind)
                       if mk is MEMDATA for s in sfg_in[m]
                       if sfg_kind[s] is OPERATION):
        if m in of_data:
            raise UnsupportedGraphError(
                f"memdata node {ids[m]} has multiple writers")
        w = len(rows)
        rows.append((base + w, WRITE, OPTIMISTIC_ACCESS_LATENCY,
                     f"wr:{sfg_label[m] or f'n{ids[m]}'}", None, ids[m], s,
                     None, None))
        pred.append((s,))
        succ.append([])
        succ[s].append(w)
        of_data[m] = [w]
    first_read = len(rows)  # the positions below are writes'

    # Then, node by node in id order, the node itself and every other
    # edge into it.  A valid graph gives an operation distinct operand
    # positions and an output one in-edge.
    for d, (node_id, dk, op, name) in enumerate(
            zip(ids, sfg_kind, g._op, sfg_label)):
        name = name or f"n{node_id}"
        if dk is OPERATION:
            cls = selected[op]
            rows[d] = (node_id, OP, cls.latency, name, cls.name, None, None,
                       None, None)
        elif dk is INPUT or dk is OUTPUT:
            rows[d] = (node_id, CG_INPUT if dk is INPUT else CG_OUTPUT, 0,
                       name, None, None, None, None, None)
        else:
            rows[d] = (node_id, None, 0, "", None, None, None, None, None)
            if [s for s in sfg_in[d] if sfg_kind[s] is not OPERATION]:
                # into memdata: writes are handled above
                e = min((e for e in g.in_edges(node_id)
                         if sfg_kind[g._at[e.src]] is not OPERATION),
                        key=lambda e: (e.pos, e.src))
                raise UnsupportedGraphError(
                    f"edge {e.src}->{node_id}: only operations may write "
                    f"memdata")
            continue
        ins = sfg_in[d]
        if not ins:
            continue
        # Here the node is an operation or an output: validation leaves
        # inputs without in-edges.
        pred[d] = ps = []
        for s in ins:
            sk = sfg_kind[s]
            if sk is OPERATION or sk is INPUT:
                ps.append(s)
                succ[s].append(d)
                if sk is OPERATION and dk is OPERATION:
                    consumers[s].append(d)
            elif dk is OUTPUT:
                raise UnsupportedGraphError(
                    f"edge {ids[s]}->{node_id}: an output must be fed by an "
                    f"input or operation node")
            elif sk is MEMDATA:
                r = len(rows)
                rows.append((base + r, READ, OPTIMISTIC_ACCESS_LATENCY,
                             f"rd:{sfg_label[s] or f'n{ids[s]}'}",
                             None, ids[s], d, None, None))
                chain = of_data.setdefault(s, [])
                written = chain and chain[0] < first_read
                pred.append((chain[0],) if written else ())
                if written:
                    succ[chain[0]].append(r)
                chain.append(r)
                succ.append([d])
                ps.append(r)
            # a constant is folded into the operator: no timing edge

    order = []
    for p in g._order:  # kept by validation
        if rows[p][1] is not None:
            order.append(p)
        elif p in of_data:
            order += of_data[p]
    return ConstraintGraph(rows, pred, succ, order,
                           consumers + [()] * (len(rows) - n))


def apply_io_constraints(cg: ConstraintGraph, transfers: tuple[Transfer, ...],
                         spec: IoConstraintSpec) -> ConstraintGraph:
    """Merge the transfer schedule into the constraint graph.

    Each transfer must name an input on a declared ``in`` bus or an output
    on a declared ``out`` bus, each node once, or ``IoSpecError`` is
    raised.  The result keeps them by node position in ``pinned``, and
    the spec's ``latency_bound`` and ``cadence``.
    Constrained inputs get ``arrival = offset``; constrained outputs get
    ``deadline = offset`` (the producer may occupy cycles up to and
    including the transfer cycle).  Unconstrained inputs arrive at cycle 0;
    unconstrained outputs may be produced through ``latency_bound - 1``.
    The result is a copy that shares every other column with ``cg``.
    """
    carries = {b.id: CgKind.INPUT if b.direction == "in" else CgKind.OUTPUT
               for b in spec.buses}
    pinned: dict[int, Transfer] = {}  # by position
    for t in transfers:
        if t.bus not in carries:
            raise IoSpecError(
                f"transfer of node {t.node}: unknown bus {t.bus!r}")
        p = cg.at.get(t.node)
        if p is None or cg.kind[p] not in (CgKind.INPUT, CgKind.OUTPUT):
            raise IoSpecError(f"transfer references unknown I/O node {t.node}")
        if cg.kind[p] is not carries[t.bus]:
            side = carries[t.bus].value
            raise IoSpecError(f"node {t.node} on {side} bus {t.bus!r} is "
                              f"not an {side}")
        if p in pinned:
            raise IoSpecError(f"node {t.node} is transferred twice")
        pinned[p] = t

    new = copy.copy(cg)
    new.latency_bound, new.cadence, new.pinned = \
        spec.latency_bound, spec.cadence, pinned
    new.arrival, new.deadline = [None] * len(cg.ids), [None] * len(cg.ids)
    for p in cg.positions[CgKind.INPUT]:
        new.arrival[p] = pinned[p].offset if p in pinned else 0
    for p in cg.positions[CgKind.OUTPUT]:
        new.deadline[p] = pinned[p].offset if p in pinned else \
            spec.latency_bound - 1
    return new


def compute_time_windows(cg: ConstraintGraph,
                         latest: list[int | None] | None = None
                         ) -> TimeWindows:
    """Longest-path ASAP/ALAP start cycles and mobility.

    ``latest`` (``OpTable.latest``, by position) caps each node's ALAP
    start where it is not None, in the one ALAP pass, so the cap passes
    back through write->read chains and output deadlines as any other
    bound does.
    Read nodes are pinned to their consumer's window and writes to their
    producer's completion (their start is not a free scheduling choice).
    Negative mobility is returned as-is; feasibility reporting is the
    checker's job.
    """
    if cg.latency_bound is None:
        raise ValueError("apply I/O constraints before computing windows")
    if cg.order is None:
        raise ValueError("constraint graph contains a cycle")
    kind, latency, succ, agent = cg.kind, cg.latency, cg.succ, cg.agent
    OUTPUT = CgKind.OUTPUT
    # each node's out-edge weights, by ``_weights_from`` once per kind and
    # latency; ASAP then relaxes each edge once, in topological order
    rule: dict[tuple, tuple[int, int]] = {}
    weights = [rule.get(kl) or rule.setdefault(kl, _weights_from(*kl))
               for kl in zip(kind, latency)]
    asap = [0] * len(kind)
    for p in cg.positions[CgKind.INPUT]:
        asap[p] = cg.arrival[p]
    for u in cg.order:
        vs = succ[u]
        if not vs:
            continue
        t = asap[u]
        to_output, other = weights[u]
        for v in vs:
            w = to_output if kind[v] is OUTPUT else other
            if t + w > asap[v]:
                asap[v] = t + w

    alap = [0] * len(kind)
    cap = latest or [None] * len(kind)
    for u in reversed(cg.order):
        vs = succ[u]
        if kind[u] is OUTPUT:
            alap[u] = cg.deadline[u]
        elif vs:
            to_output, other = weights[u]
            alap[u] = min([alap[v] - (to_output if kind[v] is OUTPUT
                                      else other) for v in vs])
        else:
            alap[u] = cg.latency_bound - latency[u]
        if cap[u] is not None and cap[u] < alap[u]:
            alap[u] = cap[u]

    # Access nodes track the operation they belong to.
    for p in cg.positions[CgKind.READ]:
        asap[p] = asap[agent[p]]
        alap[p] = alap[agent[p]]
    for p in cg.positions[CgKind.WRITE]:
        a = agent[p]
        asap[p] = asap[a] + latency[a]
        alap[p] = alap[a] + latency[a]

    return TimeWindows(asap_at=asap, alap_at=alap,
                       mobility_at=list(map(sub, alap, asap)), ids=cg.ids,
                       order=cg.order)


def check_feasibility(problem: Problem) -> FeasibilityReport:
    """Two static analyses: (1) the critical path and the pinned transfers
    fit the latency bound, and every access fits its bank's port horizon;
    (2) every output can be produced by its deadline given the input
    arrival dates.  Infeasibility is reported, never raised.

    An access is late when its earliest cycle passes its own
    ``OpTable.latest``, which happens exactly when its op's earliest start
    passes the op's own ``latest``: then no start of the op fits.  Each
    node's own limit is enough, although ``compute_time_windows`` also
    passes the limits back to producers: a window closed by propagation
    leads, edge by edge through closed windows, to a node closed by its
    own bound, so to an op whose own ``latest`` is below its ``asap``
    (reported here), to a late output or to a sink past the latency bound
    (reported by the other checks).
    """
    diagnostics: list[str] = []
    # enum members as locals: a class lookup costs ten times a local's
    INPUT, OUTPUT, READ, WRITE = \
        CgKind.INPUT, CgKind.OUTPUT, CgKind.READ, CgKind.WRITE
    cg, latest, spec = problem.cg, problem.ops.latest, problem.spec
    kind, asap = cg.kind, problem.windows.asap_at

    pinned_in: list[int] = []
    pinned_out: list[int] = []
    for p, t in cg.pinned.items():  # the lowering checked: an input or output
        (pinned_in if kind[p] is INPUT else pinned_out).append(t.offset)

    # One pass over the nodes.  Iteration cycles are absolute (deadlines
    # default to bound - 1), so the critical path is the shortest prefix of
    # the iteration that contains every node, including sinks that end in
    # a memory write rather than an output transfer.  The access and
    # output faults it finds are worded after the latency checks.
    critical = 0
    late_accesses: list[str] = []
    late_outputs: list[str] = []
    latency, deadline, label = cg.latency, cg.deadline, cg.label
    for p, k in enumerate(kind):
        if k is None or k is INPUT:
            continue
        begin = asap[p]
        if k is OUTPUT:
            end = begin + 1
            if begin > deadline[p]:
                late_outputs.append(
                    f"output {label[p]} cannot be produced before "
                    f"cycle {begin}, deadline is {deadline[p]}")
        else:
            end = begin + latency[p]
            if (k is READ or k is WRITE) and begin > latest[p]:
                late_accesses.append(
                    f"access {label[p]} at cycle {begin} falls "
                    f"outside the {spec.cadence}-cycle access window"
                    + ("" if latest[p] == spec.cadence - 1 else
                       f", its bank's last issue cycle is {latest[p]}"))
        if end > critical:
            critical = end
    if critical > spec.latency_bound:
        diagnostics.append(
            f"critical path needs {critical} cycles, latency bound is "
            f"{spec.latency_bound}")
    # the latency runs from the first input transfer (cycle 0 without
    # inputs), which unpinned inputs only move earlier, to the last output
    # transfer, never before the latest pinned one
    first = min(pinned_in, default=None if cg.positions[INPUT] else 0)
    last = max(pinned_out, default=None)
    span = 0 if first is None or last is None else last - first + 1
    if span > spec.latency_bound:
        diagnostics.append(
            f"pinned transfers span {span} cycles (cycles {first} to "
            f"{last}), latency bound is {spec.latency_bound}")
    cadence_ok = max(critical, span) <= spec.latency_bound \
        and not late_accesses
    output_dates_ok = not late_outputs
    diagnostics += late_accesses
    diagnostics += late_outputs

    return FeasibilityReport(cadence_ok=cadence_ok,
                             output_dates_ok=output_dates_ok,
                             critical_path_cycles=critical,
                             diagnostics=tuple(diagnostics))


def transfer_cycles(cg: ConstraintGraph, start) -> dict[int, int]:
    """Transfer cycle, by node position, of every input and output when the
    operation at position ``o`` starts at ``start[o]``: a pinned transfer
    (``cg.pinned``) at its offset, an input just in time for its first use
    (its arrival when it has none), an output in the cycle its value is
    produced."""
    pinned = cg.pinned
    cycles: dict[int, int] = {}
    kind, succ, arrival = cg.kind, cg.succ, cg.arrival
    OP = CgKind.OP  # a local: a class lookup costs ten times a local's
    for p in cg.positions[CgKind.INPUT]:
        cycles[p] = pinned[p].offset if p in pinned else min(
            (start[s] if kind[s] is OP else
             pinned[s].offset if s in pinned else arrival[p]
             for s in succ[p]), default=arrival[p])
    for p in cg.positions[CgKind.OUTPUT]:
        cycles[p] = pinned[p].offset if p in pinned else \
            produced_cycle(cg, p, start, cycles)
    return cycles


def produced_cycle(cg: ConstraintGraph, out: int, start,
                   cycles: dict[int, int]) -> int:
    """Cycle in which the value of the output at position ``out`` exists: its
    producer's last cycle, or the transfer cycle (``cycles``) of its input."""
    p = cg.pred[out][0]
    if cg.kind[p] is CgKind.OP:
        return start[p] + cg.latency[p] - 1
    return cycles[p]


def achieved_latency(cg: ConstraintGraph, cycles: dict[int, int],
                     last_completion: int | None) -> int:
    """Cycles from the first input transfer (cycle 0 without inputs) through
    the last output transfer (``cycles`` by position).  Without outputs the
    span ends with the last operation cycle, ``last_completion - 1``
    (memory writes after it do not count); without operations either it is
    one cycle."""
    first = min([cycles[p] for p in cg.positions[CgKind.INPUT]], default=0)
    outs = [cycles[p] for p in cg.positions[CgKind.OUTPUT]]
    if outs:
        last = max(outs)
    elif last_completion is not None:
        last = last_completion - 1
    else:
        last = first
    return last - first + 1
