"""Constraint graph: dependency/latency model, I/O constraint merge, time
windows, and static feasibility checks.

Construction has two stages over one graph type:

1. ``build_constraint_graph`` annotates the SFG's operations with operator
   latencies and materializes explicit memory-access nodes: every
   memdata->operation edge becomes a *read* node, every operation->memdata
   edge a *write* node.
2. ``apply_io_constraints`` folds the bus transfer schedule in: input nodes
   get an arrival cycle, output nodes a deadline cycle.  Only those nodes
   are replaced; the result shares its input graph's successor,
   predecessor and access indexes, which nothing mutates.

Each stage is one linear pass: the lowering selects each symbol's
operator class once and walks each node's in-edges in id order, sorting
only the operation->memdata edges, and ``compute_time_windows`` reads the
adjacency directly, weighing each edge once with
``ConstraintGraph.edge_weight``.

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
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .graph import SFG, NodeKind, validate_sfg
from .iospec import IoConstraintSpec, IoSpecError, Transfer
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
    """Constraint-graph node (a named tuple: immutable, and built at tuple
    cost, positionally, on the lowering's per-node paths).

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
    symbol: str | None = None
    data: int | None = None
    agent: int | None = None
    arrival: int | None = None
    deadline: int | None = None


class ConstraintGraph:
    """Immutable DAG of CgNodes; ``latency_bound`` is set once I/O
    constraints have been applied."""

    def __init__(self, nodes: list[CgNode], edges: list[tuple[int, int]],
                 latency_bound: int | None = None):
        self.nodes: dict[int, CgNode] = {n.id: n for n in nodes}
        self.edges: tuple[tuple[int, int], ...] = tuple(edges)
        self.latency_bound = latency_bound
        self._succ: dict[int, list[int]] = {i: [] for i in self.nodes}
        self._pred: dict[int, list[int]] = {i: [] for i in self.nodes}
        for u, v in self.edges:
            self._succ[u].append(v)
            self._pred[v].append(u)
        self._reads_of: dict[int, list[CgNode]] = {}
        self._writes_of: dict[int, list[CgNode]] = {}
        self._of_kind: dict[CgKind, list[CgNode]] = {k: [] for k in CgKind}
        for i in sorted(self.nodes):
            n = self.nodes[i]
            self._of_kind[n.kind].append(n)
            if n.kind is CgKind.READ:
                self._reads_of.setdefault(n.agent, []).append(n)
            elif n.kind is CgKind.WRITE:
                self._writes_of.setdefault(n.agent, []).append(n)

    def _with_io_nodes(self, io_nodes: dict[int, CgNode],
                       latency_bound: int) -> ConstraintGraph:
        """This graph with its input and output nodes replaced by
        ``io_nodes`` (same ids) and ``latency_bound`` set.  Edges and the
        other nodes stay, so the copy shares this graph's successor,
        predecessor and access indexes."""
        new = copy.copy(self)
        new.nodes = self.nodes | io_nodes  # keeps this graph's node order
        new.latency_bound = latency_bound
        new._of_kind = self._of_kind | {
            kind: [io_nodes[n.id] for n in self._of_kind[kind]]
            for kind in (CgKind.INPUT, CgKind.OUTPUT)}
        return new

    def successors(self, node_id: int) -> list[int]:
        return self._succ[node_id]

    def predecessors(self, node_id: int) -> list[int]:
        return self._pred[node_id]

    def of_kind(self, kind: CgKind) -> list[CgNode]:
        """The nodes of one kind in id order."""
        return list(self._of_kind[kind])

    @property
    def operations(self) -> list[CgNode]:
        return self.of_kind(CgKind.OP)

    def accesses_of(self, op_id: int) -> tuple[list[CgNode], list[CgNode]]:
        """(reads, writes) belonging to an operation, in creation order."""
        return (self._reads_of.get(op_id, []), self._writes_of.get(op_id, []))

    def edge_weight(self, u: int, v: int) -> int:
        """Minimum start-to-start distance implied by edge u -> v."""
        nu = self.nodes[u]
        if nu.kind in _SAME_CYCLE_SOURCES:
            return 0
        if self.nodes[v].kind is CgKind.OUTPUT:
            return max(nu.latency - 1, 0)  # transfer may overlap the last cycle
        return nu.latency


@dataclass(frozen=True)
class TimeWindows:
    """ASAP/ALAP start cycles and their difference (mobility) per node.

    Windows can be inconsistent (negative mobility) for infeasible
    constraint sets; ``check_feasibility`` reports that, the computation
    itself never fails.
    """

    asap: dict[int, int]
    alap: dict[int, int]
    mobility: dict[int, int]


@dataclass(frozen=True)
class Problem:
    """A problem lowered once: the I/O-constrained constraint graph and its
    time windows, kept together so that no stage pairs a graph with another
    graph's windows.

    ``scheduling.lower(g, lib, spec)`` builds it, the one place the
    lowering stages are chained.  The static checks, the scheduler, the
    verifier and the oracle only read it, so one instance serves a whole
    CLI call.
    """

    cg: ConstraintGraph
    windows: TimeWindows


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
    nodes.

    Supported edges: input/const/memdata -> operation, operation ->
    operation/memdata/output, input -> output.  Constants impose no timing
    constraint (they are folded into the operator datapath) and produce no
    constraint-graph node.
    """
    violations = validate_sfg(g)
    if violations:
        raise ValueError(f"invalid SFG: {violations[0]}")

    OPERATION, INPUT, OUTPUT, MEMDATA = (
        NodeKind.OPERATION, NodeKind.INPUT, NodeKind.OUTPUT, NodeKind.MEMDATA)
    OP, READ, WRITE = CgKind.OP, CgKind.READ, CgKind.WRITE
    # Pick each symbol's class once, in symbol order, so that the first
    # symbol no class executes is reported before any unsupported memory use.
    selected = {sym: lib.select(sym)
                for sym in sorted({n.op for n in g._of_kind[OPERATION]})}
    by_id, in_edges = g._by_id, g._in
    next_id = g._ordered[-1].id + 1 if g._ordered else 0
    edges: list[tuple[int, int]] = []

    # Writes first, so that their ids come first and reads of the same
    # datum can be chained after them; an Edge sorts as (src, dst, pos).
    writes: list[CgNode] = []
    writes_of_data: dict[int, int] = {}  # memdata id -> write node id
    for e in sorted(e for m in g._of_kind[MEMDATA]
                    for e in in_edges.get(m.id, ())
                    if by_id[e.src].kind is OPERATION):
        if e.dst in writes_of_data:
            raise UnsupportedGraphError(
                f"memdata node {e.dst} has multiple writers")
        w = CgNode(next_id, WRITE, OPTIMISTIC_ACCESS_LATENCY,
                   f"wr:{by_id[e.dst].name}", None, None, e.dst, e.src)
        next_id += 1
        writes.append(w)
        writes_of_data[e.dst] = w.id
        edges.append((e.src, w.id))

    # Then, node by node in id order, the node itself and every other
    # edge into it.  A valid graph gives an operation distinct operand
    # positions and an output one in-edge, so the edges come in (dst,
    # pos, src) order.
    nodes: list[CgNode] = []
    reads: list[CgNode] = []
    for n in g._ordered:
        dk = n.kind
        if dk is OPERATION:
            cls = selected[n.op]
            nodes.append(CgNode(n.id, OP, cls.latency, n.name, cls.name,
                                n.op))
        elif dk is INPUT:
            nodes.append(CgNode(n.id, CgKind.INPUT, 0, n.name))
        elif dk is OUTPUT:
            nodes.append(CgNode(n.id, CgKind.OUTPUT, 0, n.name))
        ins = in_edges.get(n.id)
        if not ins:
            continue
        if dk is MEMDATA:
            foreign = [e for e in ins if by_id[e.src].kind is not OPERATION]
            if foreign:
                e = min(foreign, key=lambda e: (e.pos, e.src))
                raise UnsupportedGraphError(
                    f"edge {e.src}->{e.dst}: only operations may write memdata")
            continue  # writes, handled above
        # Here the node is an operation or an output: validation leaves
        # inputs and constants without in-edges and outputs without
        # out-edges.
        for e in ins:
            sk = by_id[e.src].kind
            if sk is INPUT or sk is OPERATION:
                edges.append((e.src, e.dst))
            elif dk is OUTPUT:
                raise UnsupportedGraphError(
                    f"edge {e.src}->{e.dst}: an output must be fed by an "
                    f"input or operation node")
            elif sk is MEMDATA:
                r = CgNode(next_id, READ, OPTIMISTIC_ACCESS_LATENCY,
                           f"rd:{by_id[e.src].name}", None, None, e.src, e.dst)
                next_id += 1
                reads.append(r)
                if e.src in writes_of_data:
                    edges.append((writes_of_data[e.src], r.id))
                edges.append((r.id, e.dst))
            # a constant is folded into the operator: no timing edge

    return ConstraintGraph(nodes + writes + reads, edges)


def apply_io_constraints(cg: ConstraintGraph, transfers: tuple[Transfer, ...],
                         spec: IoConstraintSpec) -> ConstraintGraph:
    """Merge the transfer schedule into the constraint graph.

    Constrained inputs get ``arrival = offset``; constrained outputs get
    ``deadline = offset`` (the producer may occupy cycles up to and
    including the transfer cycle).  Unconstrained inputs arrive at cycle 0;
    unconstrained outputs may be produced through ``latency_bound - 1``.
    The operation part of the graph (nodes, latencies, edges) is unchanged.
    """
    offset_of: dict[int, int] = {}
    for t in transfers:
        if t.node not in cg.nodes or cg.nodes[t.node].kind not in (
                CgKind.INPUT, CgKind.OUTPUT):
            raise IoSpecError(f"transfer references unknown I/O node {t.node}")
        if t.node in offset_of:
            raise IoSpecError(f"node {t.node} is transferred twice")
        offset_of[t.node] = t.offset

    # each node rebuilt positionally: its fields up to ``agent``, then
    # ``arrival`` and ``deadline``
    default_deadline = spec.latency_bound - 1
    io_nodes = {n.id: CgNode(*n[:8], offset_of.get(n.id, 0), n.deadline)
                for n in cg._of_kind[CgKind.INPUT]}
    for n in cg._of_kind[CgKind.OUTPUT]:
        io_nodes[n.id] = CgNode(*n[:9], offset_of.get(n.id, default_deadline))
    return cg._with_io_nodes(io_nodes, spec.latency_bound)


def compute_time_windows(cg: ConstraintGraph) -> TimeWindows:
    """Longest-path ASAP/ALAP start cycles and mobility.

    Read nodes are pinned to their consumer's window and writes to their
    producer's completion (their start is not a free scheduling choice).
    Negative mobility is returned as-is; feasibility reporting is the
    checker's job.
    """
    if cg.latency_bound is None:
        raise ValueError("apply I/O constraints before computing windows")
    nodes, succ, weight = cg.nodes, cg._succ, cg.edge_weight
    # ASAP in topological order (Kahn), relaxing each edge once.  The
    # weights are kept in one list, in the order this pass meets the
    # edges, for the ALAP pass to walk back.
    asap = {i: n.arrival if n.kind is CgKind.INPUT else 0
            for i, n in nodes.items()}
    indeg = {i: len(p) for i, p in cg._pred.items()}
    order = [i for i, d in indeg.items() if d == 0]
    weights: list[int] = []
    for u in order:  # grows as nodes become ready
        t = asap[u]
        for v in succ[u]:
            w = weight(u, v)
            weights.append(w)
            if t + w > asap[v]:
                asap[v] = t + w
            d = indeg[v] - 1
            indeg[v] = d
            if not d:
                order.append(v)
    if len(order) != len(nodes):
        raise ValueError("constraint graph contains a cycle")

    alap: dict[int, int] = {}
    k = len(weights)
    for u in reversed(order):
        n, vs = nodes[u], succ[u]
        k -= len(vs)  # u's edge weights are weights[k:k + len(vs)]
        if n.kind is CgKind.OUTPUT:
            alap[u] = n.deadline
        elif vs:
            late = None
            for v, w in zip(vs, weights[k:k + len(vs)]):
                if late is None or alap[v] - w < late:
                    late = alap[v] - w
            alap[u] = late
        else:
            alap[u] = cg.latency_bound - n.latency

    # Access nodes track the operation they belong to.
    for n in cg._of_kind[CgKind.READ]:
        asap[n.id] = asap[n.agent]
        alap[n.id] = alap[n.agent]
    for n in cg._of_kind[CgKind.WRITE]:
        latency = nodes[n.agent].latency
        asap[n.id] = asap[n.agent] + latency
        alap[n.id] = alap[n.agent] + latency

    mobility = {i: alap[i] - asap[i] for i in nodes}
    return TimeWindows(asap=asap, alap=alap, mobility=mobility)


def check_feasibility(cg: ConstraintGraph, windows: TimeWindows,
                      spec: IoConstraintSpec) -> FeasibilityReport:
    """Two static analyses: (1) transfer offsets fit the cadence, and the
    critical path and the pinned transfers fit the latency bound; (2) every
    output can be produced by its deadline given the input arrival dates.
    Infeasibility is reported, never raised."""
    diagnostics: list[str] = []

    offsets_ok = True
    for t in spec.transfers:
        if not 0 <= t.offset < spec.cadence:
            offsets_ok = False
            diagnostics.append(
                f"transfer of node {t.node} at offset {t.offset} does not fit "
                f"cadence {spec.cadence}")

    outputs = cg.of_kind(CgKind.OUTPUT)
    # iteration cycles are absolute (deadlines default to bound - 1), so the
    # critical path is the shortest prefix of the iteration that contains
    # every node, including sinks that end in a memory write rather than an
    # output transfer
    critical = 0
    for n in cg.nodes.values():
        if n.kind in (CgKind.OP, CgKind.READ, CgKind.WRITE):
            critical = max(critical, windows.asap[n.id] + n.latency)
        elif n.kind is CgKind.OUTPUT:
            critical = max(critical, windows.asap[n.id] + 1)
    if critical > spec.latency_bound:
        diagnostics.append(
            f"critical path needs {critical} cycles, latency bound is "
            f"{spec.latency_bound}")
    # the latency runs from the first input transfer (cycle 0 without
    # inputs), which unpinned inputs only move earlier, to the last output
    # transfer, never before the latest pinned one
    offsets = {k: [t.offset for t in spec.transfers
                   if cg.nodes[t.node].kind is k] for k in CgKind}
    first = min(offsets[CgKind.INPUT],
                default=None if cg.of_kind(CgKind.INPUT) else 0)
    last = max(offsets[CgKind.OUTPUT], default=None)
    span = 0 if first is None or last is None else last - first + 1
    if span > spec.latency_bound:
        diagnostics.append(
            f"pinned transfers span {span} cycles (cycles {first} to "
            f"{last}), latency bound is {spec.latency_bound}")
    cadence_ok = offsets_ok and max(critical, span) <= spec.latency_bound
    for n in cg.nodes.values():
        if n.kind in (CgKind.READ, CgKind.WRITE) and \
                windows.asap[n.id] + n.latency > spec.cadence:
            cadence_ok = False
            diagnostics.append(
                f"access {n.label or n.id} at cycle {windows.asap[n.id]} "
                f"falls outside the {spec.cadence}-cycle access window")

    output_dates_ok = True
    for n in outputs:
        if windows.asap[n.id] > n.deadline:
            output_dates_ok = False
            diagnostics.append(
                f"output {n.label or n.id} cannot be produced before cycle "
                f"{windows.asap[n.id]}, deadline is {n.deadline}")

    return FeasibilityReport(cadence_ok=cadence_ok,
                             output_dates_ok=output_dates_ok,
                             critical_path_cycles=max(critical, 0),
                             diagnostics=tuple(diagnostics))


def transfer_cycles(cg: ConstraintGraph, spec: IoConstraintSpec,
                    start: dict[int, int]) -> dict[int, int]:
    """Transfer cycle of every input and output node when each operation
    ``o`` starts at ``start[o]``: a pinned transfer at its offset, an input
    just in time for its first use (its arrival when it has none), an
    output in the cycle its value is produced."""
    pinned = {tr.node: tr.offset for tr in spec.transfers}
    cycles: dict[int, int] = {}
    for n in cg.of_kind(CgKind.INPUT):
        cycles[n.id] = pinned[n.id] if n.id in pinned else min(
            (start[s] if cg.nodes[s].kind is CgKind.OP
             else pinned.get(s, n.arrival) for s in cg.successors(n.id)),
            default=n.arrival)
    for n in cg.of_kind(CgKind.OUTPUT):
        cycles[n.id] = pinned[n.id] if n.id in pinned else \
            produced_cycle(cg, n.id, start, cycles)
    return cycles


def produced_cycle(cg: ConstraintGraph, out_id: int, start: dict[int, int],
                   cycles: dict[int, int]) -> int:
    """Cycle in which an output's value exists: its producer's last cycle,
    or the transfer cycle (from ``cycles``) of the input it passes on."""
    p = cg.predecessors(out_id)[0]
    if cg.nodes[p].kind is CgKind.OP:
        return start[p] + cg.nodes[p].latency - 1
    return cycles[p]


def achieved_latency(cg: ConstraintGraph, cycles: dict[int, int],
                     last_completion: int | None) -> int:
    """Cycles from the first input transfer (cycle 0 without inputs)
    through the last output transfer.  Without outputs the span ends with
    the last operation cycle, ``last_completion - 1`` (memory writes after
    it do not count); without operations either it is one cycle."""
    first = min((cycles[n.id] for n in cg.of_kind(CgKind.INPUT)), default=0)
    outs = [cycles[n.id] for n in cg.of_kind(CgKind.OUTPUT)]
    if outs:
        last = max(outs)
    elif last_completion is not None:
        last = last_completion - 1
    else:
        last = first
    return last - first + 1
