"""Constraint graph: dependency/latency model, I/O constraint merge, time
windows, and static feasibility checks.

Construction has two stages over one graph type:

1. ``build_constraint_graph`` annotates the SFG's operations with operator
   latencies and materializes explicit memory-access nodes: every
   memdata->operation edge becomes a *read* node, every operation->memdata
   edge a *write* node.
2. ``apply_io_constraints`` folds the bus transfer schedule in: input nodes
   get an arrival cycle, output nodes a deadline cycle.

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

from dataclasses import dataclass, field, replace
from enum import Enum

from .graph import SFG, NodeKind, validate_sfg
from .iospec import IoConstraintSpec, IoSpecError, TransferGraph
from .oplib import LibraryError, OperatorLibrary

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


@dataclass(frozen=True)
class CgNode:
    """Constraint-graph node.

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
        self._succ: dict[int, list[int]] = {n.id: [] for n in nodes}
        self._pred: dict[int, list[int]] = {n.id: [] for n in nodes}
        for u, v in self.edges:
            self._succ[u].append(v)
            self._pred[v].append(u)
        self._reads_of: dict[int, list[CgNode]] = {}
        self._writes_of: dict[int, list[CgNode]] = {}
        self._of_kind: dict[CgKind, list[CgNode]] = {k: [] for k in CgKind}
        for n in sorted(self.nodes.values(), key=lambda n: n.id):
            self._of_kind[n.kind].append(n)
            if n.kind is CgKind.READ:
                self._reads_of.setdefault(n.agent, []).append(n)
            elif n.kind is CgKind.WRITE:
                self._writes_of.setdefault(n.agent, []).append(n)

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
        nu, nv = self.nodes[u], self.nodes[v]
        if nu.kind is CgKind.READ:
            return 0  # read-through: consumer starts with the read
        if nu.kind is CgKind.INPUT:
            return 0  # value usable during the arrival cycle
        if nv.kind is CgKind.OUTPUT:
            return max(nu.latency - 1, 0)  # transfer may overlap the last cycle
        return nu.latency

    def topological_order(self) -> list[int]:
        indeg = {i: len(self._pred[i]) for i in self.nodes}
        import heapq

        ready = [i for i, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(ready, v)
        if len(order) != len(self.nodes):
            raise ValueError("constraint graph contains a cycle")
        return order


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

    Build it as ``cg = apply_io_constraints(build_constraint_graph(g, lib),
    build_transfer_graph(spec), spec)`` and ``Problem(cg,
    compute_time_windows(cg))``.  The static checks, the scheduler and the
    verifier only read it, so one instance serves a whole CLI call.
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
    uncovered = lib.uncovered_symbols(g)
    if uncovered:
        raise LibraryError(f"no operator class executes {uncovered[0]!r}")

    nodes: list[CgNode] = []
    for n in sorted(g.nodes, key=lambda n: n.id):
        if n.kind is NodeKind.OPERATION:
            cls = lib.select(n.op)  # type: ignore[arg-type]
            nodes.append(CgNode(id=n.id, kind=CgKind.OP, latency=cls.latency,
                                label=n.name, op_class=cls.name, symbol=n.op))
        elif n.kind is NodeKind.INPUT:
            nodes.append(CgNode(id=n.id, kind=CgKind.INPUT, latency=0, label=n.name))
        elif n.kind is NodeKind.OUTPUT:
            nodes.append(CgNode(id=n.id, kind=CgKind.OUTPUT, latency=0, label=n.name))

    next_id = max((n.id for n in g.nodes), default=-1) + 1
    edges: list[tuple[int, int]] = []
    writes_of_data: dict[int, int] = {}  # memdata id -> write node id

    kind_of = {n.id: n.kind for n in g.nodes}

    # Writes first so reads of the same datum can be chained after them.
    for e in sorted(g.edges, key=lambda e: (e.src, e.dst, e.pos)):
        if kind_of[e.src] is NodeKind.OPERATION and kind_of[e.dst] is NodeKind.MEMDATA:
            if e.dst in writes_of_data:
                raise UnsupportedGraphError(
                    f"memdata node {e.dst} has multiple writers")
            w = CgNode(id=next_id, kind=CgKind.WRITE,
                       latency=OPTIMISTIC_ACCESS_LATENCY,
                       label=f"wr:{g.node(e.dst).name}", data=e.dst, agent=e.src)
            next_id += 1
            nodes.append(w)
            writes_of_data[e.dst] = w.id
            edges.append((e.src, w.id))

    for e in sorted(g.edges, key=lambda e: (e.dst, e.pos, e.src)):
        sk, dk = kind_of[e.src], kind_of[e.dst]
        if sk is NodeKind.OPERATION and dk is NodeKind.MEMDATA:
            continue  # handled above
        if dk is NodeKind.OPERATION:
            if sk in (NodeKind.INPUT, NodeKind.OPERATION):
                edges.append((e.src, e.dst))
            elif sk is NodeKind.CONSTANT:
                pass  # folded into the operator; no timing edge
            elif sk is NodeKind.MEMDATA:
                r = CgNode(id=next_id, kind=CgKind.READ,
                           latency=OPTIMISTIC_ACCESS_LATENCY,
                           label=f"rd:{g.node(e.src).name}", data=e.src, agent=e.dst)
                next_id += 1
                nodes.append(r)
                if e.src in writes_of_data:
                    edges.append((writes_of_data[e.src], r.id))
                edges.append((r.id, e.dst))
            else:
                raise UnsupportedGraphError(
                    f"edge {e.src}->{e.dst}: {sk.value} cannot feed an operation")
        elif dk is NodeKind.OUTPUT:
            if sk in (NodeKind.INPUT, NodeKind.OPERATION):
                edges.append((e.src, e.dst))
            else:
                raise UnsupportedGraphError(
                    f"edge {e.src}->{e.dst}: an output must be fed by an "
                    f"input or operation node")
        elif dk is NodeKind.MEMDATA:
            raise UnsupportedGraphError(
                f"edge {e.src}->{e.dst}: only operations may write memdata")
        else:
            raise UnsupportedGraphError(
                f"edge {e.src}->{e.dst}: {dk.value} cannot consume values")

    return ConstraintGraph(nodes, edges)


def apply_io_constraints(cg: ConstraintGraph, tg: TransferGraph,
                         spec: IoConstraintSpec) -> ConstraintGraph:
    """Merge the transfer schedule into the constraint graph.

    Constrained inputs get ``arrival = offset``; constrained outputs get
    ``deadline = offset`` (the producer may occupy cycles up to and
    including the transfer cycle).  Unconstrained inputs arrive at cycle 0;
    unconstrained outputs may be produced through ``latency_bound - 1``.
    The operation part of the graph (nodes, latencies, edges) is unchanged.
    """
    offset_of: dict[int, int] = {}
    for t in tg.nodes:
        if t.data not in cg.nodes or cg.nodes[t.data].kind not in (
                CgKind.INPUT, CgKind.OUTPUT):
            raise IoSpecError(f"transfer references unknown I/O node {t.data}")
        if t.data in offset_of:
            raise IoSpecError(f"node {t.data} is transferred twice")
        offset_of[t.data] = t.offset

    nodes: list[CgNode] = []
    for n in cg.nodes.values():
        if n.kind is CgKind.INPUT:
            nodes.append(replace(n, arrival=offset_of.get(n.id, 0)))
        elif n.kind is CgKind.OUTPUT:
            deadline = offset_of.get(n.id, spec.latency_bound - 1)
            nodes.append(replace(n, deadline=deadline))
        else:
            nodes.append(n)
    return ConstraintGraph(nodes, list(cg.edges),
                           latency_bound=spec.latency_bound)


def compute_time_windows(cg: ConstraintGraph) -> TimeWindows:
    """Longest-path ASAP/ALAP start cycles and mobility.

    Read nodes are pinned to their consumer's window and writes to their
    producer's completion (their start is not a free scheduling choice).
    Negative mobility is returned as-is; feasibility reporting is the
    checker's job.
    """
    if cg.latency_bound is None:
        raise ValueError("apply I/O constraints before computing windows")
    order = cg.topological_order()

    asap: dict[int, int] = {}
    for u in order:
        n = cg.nodes[u]
        t = n.arrival if n.kind is CgKind.INPUT else 0
        for p in cg.predecessors(u):
            t = max(t, asap[p] + cg.edge_weight(p, u))
        asap[u] = t

    alap: dict[int, int] = {}
    for u in reversed(order):
        n = cg.nodes[u]
        if n.kind is CgKind.OUTPUT:
            alap[u] = n.deadline
            continue
        succs = cg.successors(u)
        if not succs:
            alap[u] = cg.latency_bound - n.latency
        else:
            alap[u] = min(alap[v] - cg.edge_weight(u, v) for v in succs)

    # Access nodes track the operation they belong to.
    for n in cg.nodes.values():
        if n.kind is CgKind.READ:
            asap[n.id] = asap[n.agent]
            alap[n.id] = alap[n.agent]
        elif n.kind is CgKind.WRITE:
            asap[n.id] = asap[n.agent] + cg.nodes[n.agent].latency
            alap[n.id] = alap[n.agent] + cg.nodes[n.agent].latency

    mobility = {i: alap[i] - asap[i] for i in cg.nodes}
    return TimeWindows(asap=asap, alap=alap, mobility=mobility)


def check_feasibility(cg: ConstraintGraph, windows: TimeWindows,
                      spec: IoConstraintSpec) -> FeasibilityReport:
    """Two static analyses: (1) transfer offsets fit the cadence and the
    critical path fits the latency bound; (2) every output can be produced
    by its deadline given the input arrival dates.  Infeasibility is
    reported, never raised."""
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
    cadence_ok = offsets_ok and critical <= spec.latency_bound
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
