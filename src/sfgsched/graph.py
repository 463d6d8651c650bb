"""Signal-flow-graph IR: node/edge model, validation, JSON (de)serialization.

The graph is a DAG over five node kinds:

* ``input`` / ``output``: values crossing the component boundary on buses.
* ``constant``: numeric literals, folded into operators (never memory-mapped).
* ``memdata``: named internal data that lives in memory banks.
* ``operation``: two-operand arithmetic (``+``, ``-``, ``*``).

Edges are ``(src, dst, pos)`` triples where ``pos`` is the operand position
at the consumer; operand order is explicit so graph reconstruction and
downstream scheduling are deterministic.

Nodes and edges are named tuples: immutable and hashable.  The parser
builds each one with ``tuple.__new__`` and every field spelled out, not
by calling the class: a named tuple's own ``__new__`` is a Python
function, one interpreter call per record at about twice the cost, and
it is only there to check the arity and fill in defaults.

An ``SFG`` is immutable, so what is derived from it alone is derived once
and kept on the instance.  The constructor numbers the nodes by position
in id order, the numbering the lowering, the windows, the scheduler and
the verifier keep; ids are read only where records and messages are
written.  ``validate_sfg`` computes the violation list and the topological
order on first use (``parse_sfg`` validates, and ``build_constraint_graph``
then reads both) and hands each caller a copy of the list;
``node_by_label`` builds its label index on the first lookup.

Validation checks the edges as sets (it walks them one by one only to
word the faults a set check found), makes one pass over the nodes, and
then checks acyclicity: an in-degree count (Kahn's algorithm) clears an
acyclic graph and keeps its order, and only when it leaves nodes over does
a depth-first search run to name one cycle.  The parser checks each
record's fields in a fixed order and words the ``nodes[i]``/``edges[i]``
context of an error only when it raises.
"""

from __future__ import annotations

import json
from collections import defaultdict
from enum import Enum
from operator import itemgetter
from typing import Iterable, NamedTuple

from .jsontext import dumps


OPERATION_SYMBOLS = ("+", "-", "*")

#: Operand count per operation symbol.  All supported operations are binary.
OP_ARITY = {sym: 2 for sym in OPERATION_SYMBOLS}
#: the operand positions an operation of each arity takes
_OPERANDS = {n: list(range(n)) for n in set(OP_ARITY.values())}


class ParseError(ValueError):
    """Malformed graph document (bad JSON or schema violation)."""


class ValidationError(ValueError):
    """A structurally invalid SFG; carries all violation messages."""

    def __init__(self, violations: list[str]):
        super().__init__(violations[0] if violations else "invalid graph")
        self.violations = list(violations)


class NodeKind(str, Enum):
    INPUT = "input"
    OUTPUT = "output"
    CONSTANT = "constant"
    MEMDATA = "memdata"
    OPERATION = "operation"


class SfgNode(NamedTuple):
    """One graph node.  ``op`` is the operation symbol, present iff the node
    kind is ``operation``.  A named tuple, as every per-element record of
    the package is: immutable and hashable.  The package's own per-element
    paths build records with ``tuple.__new__`` (see the module
    docstring)."""

    id: int
    kind: NodeKind
    op: str | None = None
    label: str = ""

    @property
    def name(self) -> str:
        return self.label or f"n{self.id}"


class Edge(NamedTuple):
    src: int
    dst: int
    pos: int


_SRC, _DST, _POS = itemgetter(0), itemgetter(1), itemgetter(2)
_ID, _KIND, _OP = _SRC, _DST, _POS  # the same fields of an SfgNode

#: builds a record from a tuple of all its fields, with no Python-level
#: ``__new__`` call and so no arity check: every field must be given
_tuple_new = tuple.__new__


def topological_order(succ: list[list[int]],
                      indegree: Iterable[int]) -> list[int] | None:
    """Positions in a topological order of the graph whose successor
    lists are ``succ`` (Kahn's algorithm), or None if it has a cycle."""
    indeg = list(indegree)
    order = [p for p, d in enumerate(indeg) if not d]
    for u in order:  # grows as nodes become ready
        for v in succ[u]:
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    return order if len(order) == len(indeg) else None


class SFG:
    """Immutable signal-flow graph.

    Node and edge iteration order is the construction (document) order;
    equality is structural and order-insensitive.

    ``ids`` maps a node position to its id (a repeated id keeps its first
    node) and ``_at`` an id to its position.  By position, ``_ordered``
    holds the nodes, ``_kind`` their kinds, ``_in`` the in-edges in operand
    order and ``_out`` the targets of the out-edges; an edge with a missing
    end is kept in ``edges`` only.
    ``_of_kind`` lists each kind's nodes in id order.
    """

    def __init__(self, nodes: Iterable[SfgNode], edges: Iterable[Edge | tuple]):
        self.nodes: tuple[SfgNode, ...] = tuple(nodes)
        self.edges: tuple[Edge, ...] = tuple(edges)
        if {*map(type, self.edges)} - {Edge}:  # plain tuples: make records
            self.edges = tuple(map(Edge._make, self.edges))
        last_first = self.nodes[::-1]  # so the first node of an id wins
        by_id = dict(zip(map(_ID, last_first), last_first))
        self._duplicate_ids: list[int] = []
        if len(by_id) != len(self.nodes):
            seen: set[int] = set()
            self._duplicate_ids = [i for i in map(_ID, self.nodes)
                                   if i in seen or seen.add(i)]
        self.ids: tuple[int, ...] = tuple(sorted(by_id))
        n = len(self.ids)
        self._at: dict[int, int] = dict(zip(self.ids, range(n)))
        self._ordered: list[SfgNode] = list(map(by_id.__getitem__, self.ids))
        self._kind: list[NodeKind] = list(map(_KIND, self._ordered))
        self._of_kind: dict[NodeKind, list[SfgNode]] = defaultdict(list)
        for node, kind in zip(self._ordered, self._kind):
            self._of_kind[kind].append(node)
        ins: list[list[Edge]] = [[] for _ in range(n)]
        outs: list[list[int]] = [[] for _ in range(n)]
        at = self._at.get
        for e in self.edges:
            s, d = at(e.src), at(e.dst)
            if s is not None and d is not None:
                ins[d].append(e)
                outs[s].append(d)
        for lst in ins:
            if len(lst) > 1:
                lst.sort(key=_POS)
        self._in, self._out = ins, outs
        self._order: list[int] | None = None  # see find_cycle
        self._violations: tuple[str, ...] | None = None  # see validate_sfg
        self._by_label: dict[str, SfgNode | None] | None = None

    # -- lookup ------------------------------------------------------------

    def node(self, node_id: int) -> SfgNode:
        return self._ordered[self._at[node_id]]

    def has_node(self, node_id: int) -> bool:
        return node_id in self._at

    def in_edges(self, node_id: int) -> list[Edge]:
        """The edges into ``node_id`` from known nodes, in operand order."""
        p = self._at.get(node_id)
        return [] if p is None else list(self._in[p])

    def out_edges(self, node_id: int) -> list[Edge]:
        """The edges out of ``node_id`` into known nodes."""
        p = self._at.get(node_id)
        return [] if p is None else [
            e for d in dict.fromkeys(self._out[p])
            for e in self.in_edges(self.ids[d]) if e.src == node_id]

    def operands(self, node_id: int) -> list[int]:
        """Producer ids of ``node_id`` in operand-position order."""
        return [e.src for e in self.in_edges(node_id)]

    def of_kind(self, kind: NodeKind) -> list[SfgNode]:
        """The nodes of one kind in id order."""
        return list(self._of_kind[kind])

    @property
    def inputs(self) -> list[SfgNode]:
        return self.of_kind(NodeKind.INPUT)

    @property
    def outputs(self) -> list[SfgNode]:
        return self.of_kind(NodeKind.OUTPUT)

    @property
    def operations(self) -> list[SfgNode]:
        return self.of_kind(NodeKind.OPERATION)

    @property
    def memdata(self) -> list[SfgNode]:
        return self.of_kind(NodeKind.MEMDATA)

    def node_by_label(self, label: str) -> SfgNode:
        if self._by_label is None:
            index: dict[str, SfgNode | None] = {}
            for n in self.nodes:  # None marks a label several nodes share
                index[n.label] = None if n.label in index else n
            self._by_label = index
        if label not in self._by_label:
            raise KeyError(f"no node labelled {label!r}")
        node = self._by_label[label]
        if node is None:
            raise KeyError(f"label {label!r} is ambiguous (nodes "
                           f"{[n.id for n in self.nodes if n.label == label]})")
        return node

    # -- structure ---------------------------------------------------------

    def find_cycle(self) -> list[int] | None:
        """Return one cycle as a node-id path, or None if acyclic.

        Edges to or from missing nodes are ignored.  An in-degree count
        (Kahn's algorithm) clears an acyclic graph in one pass and keeps its
        topological order in ``_order``, which the lowering reads; the
        depth-first search that names a cycle runs only when the count
        leaves nodes over.
        """
        self._order = topological_order(self._out, map(len, self._in))
        if self._order is not None:
            return None
        WHITE, GRAY, BLACK = 0, 1, 2
        color = [WHITE] * len(self.ids)
        outs = self._out
        for root in range(len(color)):
            if color[root] != WHITE:
                continue
            # the stack holds the path from the root, so a gray target
            # closes a cycle on it
            stack = [(root, iter(sorted(outs[root])))]
            color[root] = GRAY
            while stack:
                u, it = stack[-1]
                for v in it:
                    if color[v] == WHITE:
                        color[v] = GRAY
                        stack.append((v, iter(sorted(outs[v]))))
                        break
                    if color[v] == GRAY:
                        path = [w for w, _ in stack]
                        path = path[path.index(v):] + [v]
                        return [self.ids[w] for w in path]
                else:
                    color[u] = BLACK
                    stack.pop()
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SFG):
            return NotImplemented
        return (frozenset(self.nodes) == frozenset(other.nodes)
                and frozenset(self.edges) == frozenset(other.edges))

    def __hash__(self) -> int:
        return hash((frozenset(self.nodes), frozenset(self.edges)))

    def __repr__(self) -> str:
        return f"SFG({len(self.nodes)} nodes, {len(self.edges)} edges)"


def validate_sfg(g: SFG) -> list[str]:
    """Check every structural invariant; return violation descriptions.

    An empty list means the graph is well formed.  Messages name the node
    ids involved.  Checks run in a fixed order (identity, endpoints, kind
    shape, operand arity/positions, acyclicity) so the first entry is
    deterministic for a given graph.  The checks run once per graph; later
    calls return a copy of the first result.
    """
    if g._violations is None:
        g._violations = tuple(_find_violations(g))
    return list(g._violations)


def _find_violations(g: SFG) -> list[str]:
    out = [f"duplicate node id {dup}" for dup in g._duplicate_ids]
    at, edges = g._at, g.edges
    ends = set(map(_SRC, edges)) | set(map(_DST, edges))
    if not at.keys() >= ends or min(map(_POS, edges), default=0) < 0 \
            or len(set(edges)) != len(edges):  # word each fault, in order
        duplicates: list[str] = []
        seen: set[Edge] = set()
        for e in edges:
            for end in (e.src, e.dst):
                if end not in at:
                    out.append(f"edge {e.src}->{e.dst} references missing "
                               f"node {end}")
            if e.pos < 0:
                out.append(f"edge {e.src}->{e.dst} has negative operand "
                           f"position")
            if e in seen:
                duplicates.append(f"duplicate edge {e.src}->{e.dst} at "
                                  f"position {e.pos}")
            seen.add(e)
        out += duplicates

    # the in- and out-edges by position hold only edges between known nodes
    OPERATION, INPUT, CONSTANT, OUTPUT = (
        NodeKind.OPERATION, NodeKind.INPUT, NodeKind.CONSTANT, NodeKind.OUTPUT)
    for (node_id, kind, op, _), ins, outs in zip(g._ordered, g._in, g._out):
        if kind is OPERATION:
            if op is None:
                out.append(f"operation node {node_id} has no operation symbol")
                continue
            if op not in OP_ARITY:
                out.append(f"operation node {node_id} has unknown symbol "
                           f"{op!r}")
                continue
            arity = OP_ARITY[op]
            if len(ins) != arity:
                out.append(f"operation node {node_id} ({op!r}) has "
                           f"{len(ins)} operands, expected {arity}")
            else:
                positions = [e.pos for e in ins]  # in-edges are sorted by pos
                if positions != _OPERANDS[arity]:
                    out.append(f"operation node {node_id} operand positions "
                               f"{positions} are not 0..{arity - 1}")
        else:
            if op is not None:
                out.append(f"node {node_id} is {kind.value} but carries an "
                           f"operation symbol")
            if kind is INPUT and ins:
                out.append(f"input node {node_id} has incoming edges")
            if kind is CONSTANT and ins:
                out.append(f"constant node {node_id} has incoming edges")
            if kind is OUTPUT:
                if len(ins) != 1:
                    out.append(f"output node {node_id} has {len(ins)} "
                               f"incoming edges, expected 1")
                if outs:
                    out.append(f"output node {node_id} has outgoing edges")

    cycle = g.find_cycle()
    if cycle is not None:
        out.append("cycle: " + " -> ".join(str(i) for i in cycle))
    return out


# -- JSON document ----------------------------------------------------------
#
# {"nodes": [{"id": 0, "kind": "input", "label": "a"},
#            {"id": 5, "kind": "operation", "op": "*", "label": "m1"}, ...],
#  "edges": [{"from": 0, "to": 5, "pos": 0}, ...]}

_KINDS = {k.value: k for k in NodeKind}


def _nodes_from_json(items: list) -> list[SfgNode]:
    """Each record's checks in order; the ``nodes[i]`` context is built
    only for the error."""
    nodes = []
    for i, obj in enumerate(items):
        if not isinstance(obj, dict):
            raise ParseError(f"nodes[{i}]: expected an object")
        try:
            node_id = obj["id"]
            kind_str = obj["kind"]
        except KeyError as exc:
            raise ParseError(f"nodes[{i}]: missing field {exc.args[0]!r}") from None
        if type(node_id) is not int or node_id < 0:  # JSON: bool is not int
            raise ParseError(f"nodes[{i}]: 'id' must be a non-negative integer")
        kind = _KINDS.get(kind_str) if type(kind_str) is str else None
        if kind is None:
            raise ParseError(f"nodes[{i}]: unknown kind {kind_str!r}")
        op = obj.get("op")
        if op is not None and type(op) is not str:
            raise ParseError(f"nodes[{i}]: 'op' must be a string")
        label = obj.get("label", "")
        if type(label) is not str:
            raise ParseError(f"nodes[{i}]: 'label' must be a string")
        nodes.append(_tuple_new(SfgNode, (node_id, kind, op, label)))
    return nodes


def _edges_from_json(items: list) -> list[Edge]:
    """As ``_nodes_from_json``, for the ``edges[i]`` records."""
    edges = []
    for i, obj in enumerate(items):
        if not isinstance(obj, dict):
            raise ParseError(f"edges[{i}]: expected an object")
        try:
            src, dst = obj["from"], obj["to"]
        except KeyError as exc:
            raise ParseError(f"edges[{i}]: missing field {exc.args[0]!r}") from None
        pos = obj.get("pos", 0)
        if type(src) is int and type(dst) is int and type(pos) is int \
                and src >= 0 and dst >= 0 and pos >= 0:
            edges.append(_tuple_new(Edge, (src, dst, pos)))
            continue
        for name, val in (("from", src), ("to", dst), ("pos", pos)):
            if type(val) is not int or val < 0:  # the first bad field
                raise ParseError(f"edges[{i}]: {name!r} must be a non-negative integer")
    return edges


def parse_sfg(text: str) -> SFG:
    """Parse and validate a graph document.

    Raises ParseError (with line/column for malformed JSON, or the offending
    array index for schema violations) or ValidationError naming the first
    violated structural invariant.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    nodes_raw = doc.get("nodes")
    edges_raw = doc.get("edges")
    if not isinstance(nodes_raw, list):
        raise ParseError("'nodes' must be an array")
    if not isinstance(edges_raw, list):
        raise ParseError("'edges' must be an array")
    g = SFG(_nodes_from_json(nodes_raw), _edges_from_json(edges_raw))
    violations = validate_sfg(g)
    if violations:
        raise ValidationError(violations)
    return g


def serialize_sfg(g: SFG) -> str:
    """Deterministic JSON form: nodes sorted by id, edges by (to, pos)."""
    doc = {
        "nodes": [
            {k: v for k, v in (
                ("id", n.id), ("kind", n.kind.value),
                ("op", n.op), ("label", n.label),
            ) if v not in (None, "")}
            for n in g._ordered
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "pos": e.pos}
            for e in sorted(set(g.edges), key=lambda e: (e.dst, e.pos, e.src))
        ],
    }
    return dumps(doc) + "\n"
