"""Differential test of the linear-pass front end.

The ``reference_*`` functions are the front end the linear passes
replaced: validation with a per-node edge scan and a depth-first cycle
search, the lowering that sorted every edge twice and selected an
operator class per operation, the I/O merge that rebuilt the whole
constraint graph, and windows over a heap-ordered topological sort.  They
rely only on the public graph API, the constraint graph's columns and
``record_graph``, which builds a ``ConstraintGraph`` from ``CgNode``
records and id-pair edges.  On hand-built invalid graphs the violation
lists and raised messages must match; on the seeded random problems the
lowered graphs (node ids in position order, per-kind records, adjacency,
accesses) and the windows must be equal, both without the mapping and
with the port-horizon cap it implies, which the reference works out from
each bank's ``t_seq`` and the cadence.
"""

import heapq
import json
from dataclasses import replace
from itertools import groupby
from pathlib import Path

import pytest

import sfgsched as s
from sfgsched.constraints import OPTIMISTIC_ACCESS_LATENCY, UnsupportedGraphError
from sfgsched.graph import topological_order
from instances import random_fft_problem, random_problem

K = s.NodeKind
C = s.CgKind
OP_ARITY = {"+": 2, "-": 2, "*": 2}


# -- reference: validation ----------------------------------------------------

def reference_find_cycle(g):
    by_id = {}
    for n in g.nodes:
        by_id.setdefault(n.id, n)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {i: WHITE for i in by_id}
    parent = {}
    targets = {u: [e.dst for e in out]  # by source, in target order
               for u, out in groupby(sorted(g.edges), key=lambda e: e.src)}
    for root in sorted(color):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(targets.get(root, ())))]
        color[root] = GRAY
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if v not in color:
                    continue
                if color[v] == WHITE:
                    color[v] = GRAY
                    parent[v] = u
                    stack.append((v, iter(targets.get(v, ()))))
                    advanced = True
                    break
                if color[v] == GRAY:
                    path = [v, u]
                    w = u
                    while w != v:
                        w = parent[w]
                        path.append(w)
                    path.reverse()
                    return path
            if not advanced:
                color[u] = BLACK
                stack.pop()
    return None


def reference_violations(g):
    out = []
    by_id = {}
    for n in g.nodes:
        if n.id in by_id:
            out.append(f"duplicate node id {n.id}")
        else:
            by_id[n.id] = n
    for e in g.edges:
        for end in (e.src, e.dst):
            if end not in by_id:
                out.append(f"edge {e.src}->{e.dst} references missing node {end}")
        if e.pos < 0:
            out.append(f"edge {e.src}->{e.dst} has negative operand position")
    seen = set()
    for e in g.edges:
        if e in seen:
            out.append(f"duplicate edge {e.src}->{e.dst} at position {e.pos}")
        seen.add(e)
    feeding = {e.src for e in g.edges if e.dst in by_id}
    for n in sorted(by_id.values(), key=lambda n: n.id):
        fan_in = [e for e in g.in_edges(n.id) if e.src in by_id]
        if n.kind is K.OPERATION:
            if n.op is None:
                out.append(f"operation node {n.id} has no operation symbol")
                continue
            if n.op not in OP_ARITY:
                out.append(f"operation node {n.id} has unknown symbol {n.op!r}")
                continue
            arity = OP_ARITY[n.op]
            if len(fan_in) != arity:
                out.append(f"operation node {n.id} ({n.op!r}) has "
                           f"{len(fan_in)} operands, expected {arity}")
            else:
                positions = sorted(e.pos for e in fan_in)
                if positions != list(range(arity)):
                    out.append(f"operation node {n.id} operand positions "
                               f"{positions} are not 0..{arity - 1}")
        else:
            if n.op is not None:
                out.append(f"node {n.id} is {n.kind.value} but carries an "
                           f"operation symbol")
            if n.kind is K.INPUT and fan_in:
                out.append(f"input node {n.id} has incoming edges")
            if n.kind is K.CONSTANT and fan_in:
                out.append(f"constant node {n.id} has incoming edges")
            if n.kind is K.OUTPUT:
                if len(fan_in) != 1:
                    out.append(f"output node {n.id} has {len(fan_in)} incoming "
                               f"edges, expected 1")
                if n.id in feeding:
                    out.append(f"output node {n.id} has outgoing edges")
    cycle = reference_find_cycle(g)
    if cycle is not None:
        out.append("cycle: " + " -> ".join(str(i) for i in cycle))
    return out


# -- reference: lowering ------------------------------------------------------

def record_graph(nodes, edges, latency_bound=None):
    """The constraint graph of ``CgNode`` records and ``(u, v)`` id pairs,
    numbered in record order, with its own adjacency and Kahn pass."""
    at = {n.id: p for p, n in enumerate(nodes)}
    pred = [[] for _ in at]
    succ = [[] for _ in at]
    for u, v in edges:
        pred[at[v]].append(at[u])
        succ[at[u]].append(at[v])
    cg = s.ConstraintGraph(
        [(*n[:6], at.get(n.agent), *n[7:]) for n in nodes], pred, succ,
        topological_order(succ, map(len, pred)),
        [[q for q in qs if nodes[q].kind is C.OP] for qs in succ])
    cg.latency_bound = latency_bound
    return cg


def edges_of(cg):
    """The edges of ``cg`` as (u, v) id pairs, by source position."""
    return [(cg.ids[u], cg.ids[v]) for u, vs in enumerate(cg.succ)
            for v in vs]


def reference_build(g, lib):
    violations = reference_violations(g)
    if violations:
        raise ValueError(f"invalid SFG: {violations[0]}")
    used = {n.op for n in g.nodes if n.kind is K.OPERATION and n.op}
    executable = set().union(*(c.ops for c in lib.classes))
    uncovered = sorted(used - executable)
    if uncovered:
        raise s.LibraryError(f"no operator class executes {uncovered[0]!r}")

    nodes = []
    for n in sorted(g.nodes, key=lambda n: n.id):
        if n.kind is K.OPERATION:
            cls = lib.select(n.op)
            nodes.append(s.CgNode(id=n.id, kind=C.OP, latency=cls.latency,
                                  label=n.name, op_class=cls.name))
        elif n.kind is K.INPUT:
            nodes.append(s.CgNode(id=n.id, kind=C.INPUT, latency=0,
                                  label=n.name))
        elif n.kind is K.OUTPUT:
            nodes.append(s.CgNode(id=n.id, kind=C.OUTPUT, latency=0,
                                  label=n.name))
    next_id = max((n.id for n in g.nodes), default=-1) + 1
    edges = []
    writes_of_data = {}
    kind_of = {n.id: n.kind for n in g.nodes}
    for e in sorted(g.edges, key=lambda e: (e.src, e.dst, e.pos)):
        if kind_of[e.src] is K.OPERATION and kind_of[e.dst] is K.MEMDATA:
            if e.dst in writes_of_data:
                raise UnsupportedGraphError(
                    f"memdata node {e.dst} has multiple writers")
            w = s.CgNode(id=next_id, kind=C.WRITE,
                         latency=OPTIMISTIC_ACCESS_LATENCY,
                         label=f"wr:{g.node(e.dst).name}", data=e.dst,
                         agent=e.src)
            next_id += 1
            nodes.append(w)
            writes_of_data[e.dst] = w.id
            edges.append((e.src, w.id))
    for e in sorted(g.edges, key=lambda e: (e.dst, e.pos, e.src)):
        sk, dk = kind_of[e.src], kind_of[e.dst]
        if sk is K.OPERATION and dk is K.MEMDATA:
            continue
        if dk is K.OPERATION:
            if sk in (K.INPUT, K.OPERATION):
                edges.append((e.src, e.dst))
            elif sk is K.CONSTANT:
                pass
            elif sk is K.MEMDATA:
                r = s.CgNode(id=next_id, kind=C.READ,
                             latency=OPTIMISTIC_ACCESS_LATENCY,
                             label=f"rd:{g.node(e.src).name}", data=e.src,
                             agent=e.dst)
                next_id += 1
                nodes.append(r)
                if e.src in writes_of_data:
                    edges.append((writes_of_data[e.src], r.id))
                edges.append((r.id, e.dst))
            else:
                raise UnsupportedGraphError(
                    f"edge {e.src}->{e.dst}: {sk.value} cannot feed an operation")
        elif dk is K.OUTPUT:
            if sk in (K.INPUT, K.OPERATION):
                edges.append((e.src, e.dst))
            else:
                raise UnsupportedGraphError(
                    f"edge {e.src}->{e.dst}: an output must be fed by an "
                    f"input or operation node")
        elif dk is K.MEMDATA:
            raise UnsupportedGraphError(
                f"edge {e.src}->{e.dst}: only operations may write memdata")
        else:
            raise UnsupportedGraphError(
                f"edge {e.src}->{e.dst}: {dk.value} cannot consume values")
    return record_graph(nodes, edges)


def reference_apply_io(cg, tg, spec):
    direction = {b.id: b.direction for b in spec.buses}
    offset_of = {}
    for t in tg:
        if t.bus not in direction:
            raise s.IoSpecError(
                f"transfer of node {t.node}: unknown bus {t.bus!r}")
        if t.node not in cg.at or cg.kind[cg.at[t.node]] not in (
                C.INPUT, C.OUTPUT):
            raise s.IoSpecError(f"transfer references unknown I/O node {t.node}")
        kind = cg.kind[cg.at[t.node]]
        if direction[t.bus] == "in" and kind is not C.INPUT:
            raise s.IoSpecError(
                f"node {t.node} on input bus {t.bus!r} is not an input")
        if direction[t.bus] == "out" and kind is not C.OUTPUT:
            raise s.IoSpecError(
                f"node {t.node} on output bus {t.bus!r} is not an output")
        if t.node in offset_of:
            raise s.IoSpecError(f"node {t.node} is transferred twice")
        offset_of[t.node] = t.offset
    arrival = [offset_of.get(i, 0) if k is C.INPUT else a
               for i, k, a in zip(cg.ids, cg.kind, cg.arrival)]
    deadline = [offset_of.get(i, spec.latency_bound - 1) if k is C.OUTPUT
                else d for i, k, d in zip(cg.ids, cg.kind, cg.deadline)]
    # every row rebuilt; the same adjacency, lists in the same order
    new = s.ConstraintGraph(
        list(zip(cg.ids, cg.kind, cg.latency, cg.label, cg.op_class, cg.data,
                 cg.agent, arrival, deadline)), cg.pred,
        cg.succ, cg.order, cg.consumers)
    new.latency_bound = spec.latency_bound
    return new


# -- reference: windows -------------------------------------------------------

# On a graph ``record_graph`` built, so with no empty position.

def reference_edge_weight(cg, u, v):
    """The weight of the edge between positions ``u`` and ``v``."""
    if cg.kind[u] is C.READ or cg.kind[u] is C.INPUT:
        return 0
    if cg.kind[v] is C.OUTPUT:
        return max(cg.latency[u] - 1, 0)
    return cg.latency[u]


def reference_topological_order(cg):
    """The positions in a topological order, the lowest id first."""
    indeg = [len(ps) for ps in cg.pred]
    ready = [(cg.ids[p], p) for p, d in enumerate(indeg) if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, u = heapq.heappop(ready)
        order.append(u)
        for v in cg.succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, (cg.ids[v], v))
    if len(order) != len(cg.ids):
        raise ValueError("constraint graph contains a cycle")
    return order


def reference_horizon(t_seq, cadence):
    """The last cycle at which an access of ``t_seq`` cycles, the
    cheapest a bank serves, still ends inside the iteration's whole
    ``t_seq``-cycle port slots (``-t_seq`` when there is none)."""
    slots = cadence // t_seq
    return next((c for c in range(cadence - 1, -1, -1)
                 if (c + t_seq - 1) // t_seq < slots), -t_seq)


def reference_caps(cg, mapping, cadence):
    """The latest start, by position, of each operation whose accesses
    would otherwise run past their bank's horizon: a read issues as its
    operation starts, a write as it completes."""
    bank_of = {p.data: p.bank for p in mapping.placements}
    horizon = {b.id: reference_horizon(b.t_seq, cadence)
               for b in mapping.banks}
    caps = {}
    for p, kind in enumerate(cg.kind):
        if kind is C.READ or kind is C.WRITE:
            op = cg.agent[p]
            offset = 0 if kind is C.READ else cg.latency[op]
            last = horizon[bank_of[cg.data[p]]] - offset
            caps[op] = min(caps.get(op, last), last)
    return caps


def reference_windows(cg, mapping=None, cadence=None):
    """The ASAP, ALAP and mobility dicts by node id; with a mapping, each
    operation's ALAP is capped by its accesses' port horizon."""
    caps = {} if mapping is None else reference_caps(cg, mapping, cadence)
    order = reference_topological_order(cg)
    asap = {}
    for u in order:
        t = cg.arrival[u] if cg.kind[u] is C.INPUT else 0
        for p in cg.pred[u]:
            t = max(t, asap[p] + reference_edge_weight(cg, p, u))
        asap[u] = t
    alap = {}
    for u in reversed(order):
        if cg.kind[u] is C.OUTPUT:
            alap[u] = cg.deadline[u]
            continue
        succs = cg.succ[u]
        if not succs:
            alap[u] = cg.latency_bound - cg.latency[u]
        else:
            alap[u] = min(alap[v] - reference_edge_weight(cg, u, v)
                          for v in succs)
        alap[u] = min(alap[u], caps.get(u, alap[u]))
    for p, (kind, a) in enumerate(zip(cg.kind, cg.agent)):
        if kind is C.READ:
            asap[p] = asap[a]
            alap[p] = alap[a]
        elif kind is C.WRITE:
            asap[p] = asap[a] + cg.latency[a]
            alap[p] = alap[a] + cg.latency[a]
    return tuple({cg.ids[p]: column[p] for p in order}
                 for column in (asap, alap, {p: alap[p] - asap[p]
                                             for p in order}))


# -- comparisons --------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as e:  # the type and text are what is compared
        return (type(e).__name__, str(e))


def assert_same_graph(got, want):
    """``want`` has no empty position: each of ``got``'s nodes sits in
    ``want`` at its rank among ``got``'s nodes."""
    held = [p for p, k in enumerate(got.kind) if k is not None]
    assert [got.ids[p] for p in held] == want.ids
    assert edges_of(got) == edges_of(want)
    assert got.latency_bound == want.latency_bound
    for kind in C:
        assert got.of_kind(kind) == want.of_kind(kind), kind
    rank = dict(zip(held, range(len(held))))  # got's position -> want's
    for p, q in rank.items():
        assert [rank[v] for v in got.succ[p]] == want.succ[q], want.ids[q]
        assert [rank[u] for u in got.pred[p]] == want.pred[q], want.ids[q]
        for got_of, want_of in ((got.reads, want.reads),
                                (got.writes, want.writes)):
            assert [rank[a] for a in got_of.get(p, ())] == \
                want_of.get(q, []), want.ids[q]


def _by_id(cg, windows):
    return (windows.asap, *({cg.ids[p]: column[p] for p in cg.order}
                            for column in (windows.alap_at,
                                           windows.mobility_at)))


def assert_same_lowering(g, lib, spec, mapping):
    """Compare the lowering with the reference; return whether the
    mapping's horizon changed the windows."""
    got = s.build_constraint_graph(g, lib)
    want = reference_build(g, lib)
    assert_same_graph(got, want)
    tg = s.build_transfer_graph(spec)
    got_io = s.apply_io_constraints(got, tg, spec)
    want_io = reference_apply_io(want, tg, spec)
    assert_same_graph(got_io, want_io)
    assert_same_graph(got, want)  # the merge left its input as it was
    unmapped = _by_id(got_io, s.compute_time_windows(got_io))
    assert unmapped == reference_windows(want_io)
    problem = s.lower(g, lib, spec, mapping)
    mapped = _by_id(problem.cg, problem.windows)
    assert mapped == reference_windows(want_io, mapping, spec.cadence)
    return mapped != unmapped


def _specs(spec):
    """The spec, and the same at a third of its cadence when its transfers
    still fit there: a shorter iteration, whose port horizon binds."""
    cadence = max(1, spec.cadence // 3)
    if all(t.offset < cadence for t in spec.transfers):
        return spec, replace(spec, cadence=cadence)
    return spec,


def test_random_problems_lower_as_the_reference_does():
    writes = capped = 0
    for seed in range(120):
        p = random_problem(seed)
        for spec in _specs(p.spec):
            capped += assert_same_lowering(p.g, p.lib, spec, p.mapping)
        writes += bool(s.build_constraint_graph(p.g, p.lib).of_kind(C.WRITE))
    assert writes >= 10  # write chains are exercised
    assert capped >= 30  # and so is the horizon cap


def test_random_ffts_lower_as_the_reference_does():
    capped = 0
    for seed in range(60):
        p = random_fft_problem(seed)
        for spec in _specs(p.spec):
            capped += assert_same_lowering(p.g, p.lib, spec, p.mapping)
    assert capped >= 30  # the horizon cap binds


LIB = s.OperatorLibrary(classes=(
    s.OperatorClass("mult", frozenset("*"), 2),
    s.OperatorClass("alu", frozenset("+-*"), 1)))

N = s.SfgNode


def _io(*kinds):
    return [N(i, kind, label=f"x{i}") for i, kind in enumerate(kinds)]


# (nodes, edges) of graphs the validator or the lowering rejects
INVALID = {
    "duplicate ids": (
        [N(0, K.INPUT), N(1, K.OPERATION, op="+"), N(1, K.OUTPUT),
         N(2, K.OUTPUT)],
        [(0, 1, 0), (0, 1, 1), (1, 2, 0)]),
    "dangling edges": (
        [N(0, K.INPUT), N(1, K.OPERATION, op="+"), N(2, K.OUTPUT)],
        [(0, 1, 0), (7, 1, 1), (1, 2, 0), (1, 9, 0), (8, 8, 0)]),
    "dangling source into a cycle": (
        [N(0, K.OPERATION, op="+"), N(1, K.OPERATION, op="+")],
        [(5, 0, 0), (1, 0, 1), (0, 1, 0), (5, 1, 1)]),
    "duplicate edges": (
        [N(0, K.INPUT), N(1, K.OPERATION, op="*"), N(2, K.OUTPUT)],
        [(0, 1, 0), (0, 1, 0), (0, 1, 1), (1, 2, 0), (1, 2, 0)]),
    "duplicate and dangling edges": (
        [N(0, K.INPUT), N(1, K.OPERATION, op="*"), N(2, K.OUTPUT)],
        [(0, 1, 0), (0, 1, 0), (0, 1, 1), (1, 2, 0), (1, 4, 0), (1, 4, 0)]),
    "bad arity": (
        [N(0, K.INPUT), N(1, K.OPERATION, op="-"), N(2, K.OUTPUT),
         N(3, K.OPERATION, op="+")],
        [(0, 1, 0), (1, 2, 0), (0, 3, 0), (0, 3, 1), (1, 3, 2)]),
    "bad positions": (
        [N(0, K.INPUT), N(1, K.INPUT), N(2, K.OPERATION, op="*"),
         N(3, K.OUTPUT)],
        [(1, 2, 2), (0, 2, 0), (2, 3, 0)]),
    "negative position": (
        [N(0, K.INPUT), N(1, K.OPERATION, op="*"), N(2, K.OUTPUT)],
        [(0, 1, -1), (0, 1, 1), (1, 2, 0)]),
    "kind shapes": (
        [N(0, K.INPUT, op="+"), N(1, K.CONSTANT), N(2, K.OUTPUT),
         N(3, K.OPERATION), N(4, K.OPERATION, op="%"), N(5, K.OUTPUT)],
        [(2, 0, 0), (2, 1, 0), (0, 5, 0), (1, 5, 0)]),
    "self-loop": (
        [N(0, K.INPUT), N(1, K.OPERATION, op="+"), N(2, K.OUTPUT)],
        [(0, 1, 0), (1, 1, 1), (1, 2, 0)]),
    "longer cycle": (
        [N(0, K.INPUT), N(6, K.OPERATION, op="+"), N(3, K.OPERATION, op="*"),
         N(4, K.OPERATION, op="-"), N(5, K.OUTPUT)],
        [(0, 6, 0), (4, 6, 1), (6, 3, 0), (0, 3, 1), (3, 4, 0), (0, 4, 1),
         (3, 5, 0)]),
    "two cycles": (
        [N(i, K.OPERATION, op="+") for i in range(4)],
        [(1, 0, 0), (0, 1, 0), (3, 2, 0), (2, 3, 0), (0, 2, 1), (2, 0, 1),
         (1, 3, 1), (3, 1, 1)]),
    "memdata with two writers": (
        _io(K.INPUT, K.INPUT) + [N(2, K.OPERATION, op="+"),
                                 N(3, K.OPERATION, op="*"), N(4, K.MEMDATA),
                                 N(5, K.OUTPUT)],
        [(0, 2, 0), (1, 2, 1), (0, 3, 0), (1, 3, 1), (3, 4, 0), (2, 4, 0),
         (2, 5, 0)]),
    "memdata with a non-op writer": (
        _io(K.INPUT, K.INPUT) + [N(2, K.OPERATION, op="+"), N(3, K.MEMDATA),
                                 N(4, K.OUTPUT)],
        [(0, 2, 0), (1, 2, 1), (1, 3, 0), (2, 3, 0), (2, 4, 0)]),
    "memdata with non-op writers at one position": (
        _io(K.INPUT, K.INPUT, K.CONSTANT) + [N(3, K.MEMDATA),
                                             N(4, K.OPERATION, op="+"),
                                             N(5, K.OUTPUT)],
        [(1, 3, 0), (2, 3, 0), (0, 3, 0), (0, 4, 0), (1, 4, 1), (4, 5, 0)]),
    "output fed by memdata": (
        _io(K.INPUT, K.MEMDATA, K.OUTPUT, K.OUTPUT),
        [(1, 2, 0), (0, 3, 0)]),
    "output fed by a constant": (
        _io(K.INPUT, K.CONSTANT, K.OUTPUT, K.OPERATION),
        [(0, 3, 0), (1, 3, 1), (1, 2, 0)]),
    "symbol no class executes": (
        _io(K.INPUT, K.OUTPUT) + [N(2, K.OPERATION, op="-")],
        [(0, 2, 0), (0, 2, 1), (2, 1, 0)]),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_graphs_fail_as_the_reference_does(name):
    nodes, edges = INVALID[name]
    g = s.SFG(nodes, edges)
    assert s.validate_sfg(g) == reference_violations(g)
    assert g.find_cycle() == reference_find_cycle(g)
    lib = s.OperatorLibrary(classes=(s.OperatorClass("mult", frozenset("*"), 2),
                                     s.OperatorClass("add", frozenset("+"), 1)))
    got = _outcome(s.build_constraint_graph, g, lib)
    want = _outcome(reference_build, g, lib)
    assert got[0] != "ok" and got == want


def test_lowering_follows_ids_not_document_order():
    # written readers of one datum, nodes and edges listed out of id order
    nodes = [N(9, K.OUTPUT, label="y"), N(4, K.OPERATION, op="*", label="r1"),
             N(0, K.INPUT, label="a"), N(6, K.MEMDATA, label="buf"),
             N(2, K.OPERATION, op="+", label="w"), N(1, K.INPUT, label="b"),
             N(5, K.OPERATION, op="-", label="r2"), N(8, K.OUTPUT, label="z"),
             N(3, K.MEMDATA, label="rom"), N(7, K.CONSTANT, label="k")]
    edges = [(5, 8, 0), (6, 5, 1), (3, 4, 0), (2, 6, 0), (1, 2, 1), (0, 2, 0),
             (6, 4, 1), (7, 5, 0), (4, 9, 0)]
    g = s.SFG(nodes, edges)
    spec = s.IoConstraintSpec(
        buses=(s.BusDef("i", "in"), s.BusDef("o", "out")),
        transfers=(s.Transfer(1, "i", 2), s.Transfer(9, "o", 11)),
        cadence=12, latency_bound=12)
    # 4 slots of 3 cycles: the last issue is cycle 9, which caps r1 and
    # r2 at 9, and so w at 7: its write, at its completion, must end
    # before r2 reads
    mapping = s.apply_mapping(s.extract_memory_table(g), s.MappingSpec(
        mode="auto", banks=(s.Bank("m", t_seq=3, t_rand=3),)))
    assert assert_same_lowering(g, LIB, spec, mapping)
    problem = s.lower(g, LIB, spec, mapping)
    assert [problem.windows.alap_at[problem.cg.at[i]] for i in (2, 4)] == \
        [7, 9]


def test_io_merge_errors_match_the_reference():
    p = random_problem(3)
    cg = s.build_constraint_graph(p.g, p.lib)
    op = cg.of_kind(C.OP)[0].id
    a, y = p.g.inputs[0].id, p.g.of_kind(K.OUTPUT)[0].id
    spec = s.IoConstraintSpec(
        buses=(s.BusDef("b", "in"), s.BusDef("c", "in"), s.BusDef("o", "out")),
        transfers=(), cadence=4, latency_bound=4)
    for tg, message in (
            ((s.Transfer(op, "b", 0),),
             f"transfer references unknown I/O node {op}"),
            ((s.Transfer(10 ** 6, "b", 0),),
             "transfer references unknown I/O node 1000000"),
            ((s.Transfer(a, "b", 0), s.Transfer(a, "c", 1)),
             f"node {a} is transferred twice"),
            ((s.Transfer(a, "o", 0),),
             f"node {a} on output bus 'o' is not an output"),
            ((s.Transfer(a, "b", 0), s.Transfer(op, "zz", 1)),
             f"transfer of node {op}: unknown bus 'zz'"),
            ((s.Transfer(a, "b", 0), s.Transfer(y, "c", 1),
              s.Transfer(op, "o", 2)),
             f"node {y} on input bus 'c' is not an input")):
        got = _outcome(s.apply_io_constraints, cg, tg, spec)
        assert got == ("IoSpecError", message)
        assert got == _outcome(reference_apply_io, cg, tg, spec)


def test_windows_of_a_cyclic_graph_fail_as_the_reference_does():
    p = random_problem(5)
    cg = s.apply_io_constraints(s.build_constraint_graph(p.g, p.lib),
                                s.build_transfer_graph(p.spec), p.spec)
    edges = edges_of(cg)
    u, v = edges[0]
    looped = record_graph([n for k in C for n in cg.of_kind(k)],
                          edges + [(v, u)], latency_bound=cg.latency_bound)
    got = _outcome(s.compute_time_windows, looped)
    assert got == ("ValueError", "constraint graph contains a cycle")
    assert got == _outcome(reference_windows, looped)


# -- parse messages -------------------------------------------------------------

def reference_node(obj, index):
    where = f"nodes[{index}]"
    if not isinstance(obj, dict):
        raise s.ParseError(f"{where}: expected an object")
    try:
        node_id = obj["id"]
        kind_str = obj["kind"]
    except KeyError as exc:
        raise s.ParseError(f"{where}: missing field {exc.args[0]!r}") from None
    if not isinstance(node_id, int) or isinstance(node_id, bool) or node_id < 0:
        raise s.ParseError(f"{where}: 'id' must be a non-negative integer")
    try:
        kind = K(kind_str)
    except ValueError:
        raise s.ParseError(f"{where}: unknown kind {kind_str!r}") from None
    op = obj.get("op")
    if op is not None and not isinstance(op, str):
        raise s.ParseError(f"{where}: 'op' must be a string")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise s.ParseError(f"{where}: 'label' must be a string")
    return s.SfgNode(id=node_id, kind=kind, op=op, label=label)


def reference_edge(obj, index):
    where = f"edges[{index}]"
    if not isinstance(obj, dict):
        raise s.ParseError(f"{where}: expected an object")
    try:
        src, dst = obj["from"], obj["to"]
    except KeyError as exc:
        raise s.ParseError(f"{where}: missing field {exc.args[0]!r}") from None
    pos = obj.get("pos", 0)
    for name, val in (("from", src), ("to", dst), ("pos", pos)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise s.ParseError(f"{where}: {name!r} must be a non-negative integer")
    return s.Edge(src, dst, pos)


def reference_parse(text):
    doc = json.loads(text)
    g = s.SFG([reference_node(o, i) for i, o in enumerate(doc["nodes"])],
              [reference_edge(o, i) for i, o in enumerate(doc["edges"])])
    violations = reference_violations(g)
    if violations:
        raise s.ValidationError(violations)
    return g


WRONG = [True, 1.5, -1, [0], {"a": 1}, None, "x", "operation", 7, 0]


def test_parse_messages_match_the_reference():
    doc = json.loads((Path(__file__).parent / "data" / "pairsum"
                      / "graph.json").read_text())
    cases = 0
    for part, keys in (("nodes", ("id", "kind", "op", "label")),
                       ("edges", ("from", "to", "pos"))):
        for i in range(len(doc[part])):
            for key in keys:
                for value in WRONG + ["<removed>"]:
                    broken = json.loads(json.dumps(doc))
                    if value == "<removed>":
                        broken[part][i].pop(key, None)
                    else:
                        broken[part][i][key] = value
                    text = json.dumps(broken)
                    got = _outcome(s.parse_sfg, text)
                    want = _outcome(reference_parse, text)
                    if want[0] == "ok":
                        assert got[0] == "ok" and got[1] == want[1]
                    else:
                        assert got == want, (part, i, key, value)
                    cases += 1
        for i in range(len(doc[part])):
            for record in (None, 3, [], {}):
                broken = json.loads(json.dumps(doc))
                broken[part][i] = record
                text = json.dumps(broken)
                assert _outcome(s.parse_sfg, text) == \
                    _outcome(reference_parse, text)
    assert cases > 300
