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
and kept on the instance.  The constructor indexes the nodes by id, by
kind and in id order, and the edges by endpoint.  ``validate_sfg``
computes the violation list on first use (``parse_sfg`` validates, and
``build_constraint_graph`` then reads the kept result) and hands each
caller a copy; ``node_by_label`` builds its label index on the first
lookup.

Validation checks the edges as sets (it walks them one by one only to
word the faults a set check found), makes one pass over the nodes, and
then checks acyclicity: an in-degree count (Kahn's algorithm) clears an
acyclic graph, and only when it leaves nodes over does a depth-first
search run to name one cycle.  The parser checks each record's fields in
a fixed order and words the ``nodes[i]``/``edges[i]`` context of an error
only when it raises.
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

#: builds a record from a tuple of all its fields, with no Python-level
#: ``__new__`` call and so no arity check: every field must be given
_tuple_new = tuple.__new__


class SFG:
    """Immutable signal-flow graph.

    Node and edge iteration order is the construction (document) order;
    equality is structural and order-insensitive.
    """

    def __init__(self, nodes: Iterable[SfgNode], edges: Iterable[Edge | tuple]):
        self.nodes: tuple[SfgNode, ...] = tuple(nodes)
        self.edges: tuple[Edge, ...] = tuple(
            e if type(e) is Edge else Edge(*e) for e in edges)
        self._by_id: dict[int, SfgNode] = {}
        self._duplicate_ids: list[int] = []
        for n in self.nodes:
            if n.id in self._by_id:
                self._duplicate_ids.append(n.id)
            else:
                self._by_id[n.id] = n
        # unique nodes in id order, and per kind
        self._ordered = [self._by_id[i] for i in sorted(self._by_id)]
        self._of_kind: dict[NodeKind, list[SfgNode]] = {
            k: [] for k in NodeKind}
        for n in self._ordered:
            self._of_kind[n.kind].append(n)
        self._in: dict[int, list[Edge]] = defaultdict(list)
        self._out: dict[int, list[Edge]] = defaultdict(list)
        ins, outs = self._in, self._out
        for e in self.edges:
            ins[e.dst].append(e)
            outs[e.src].append(e)
        for lst in ins.values():
            if len(lst) > 1:
                lst.sort(key=_POS)
        self._violations: tuple[str, ...] | None = None  # see validate_sfg
        self._by_label: dict[str, SfgNode | None] | None = None

    # -- lookup ------------------------------------------------------------

    def node(self, node_id: int) -> SfgNode:
        return self._by_id[node_id]

    def has_node(self, node_id: int) -> bool:
        return node_id in self._by_id

    def in_edges(self, node_id: int) -> list[Edge]:
        return list(self._in.get(node_id, ()))

    def out_edges(self, node_id: int) -> list[Edge]:
        return list(self._out.get(node_id, ()))

    def operands(self, node_id: int) -> list[int]:
        """Producer ids of ``node_id`` in operand-position order."""
        return [e.src for e in self._in.get(node_id, ())]

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
        (Kahn's algorithm) clears an acyclic graph in one pass; the
        depth-first search that names a cycle runs only when the count
        leaves nodes over.
        """
        # an edge from a missing node keeps its target's count above zero,
        # so such a graph goes on to the search
        indeg = {i: len(self._in.get(i, ())) for i in self._by_id}
        ready = [i for i, d in indeg.items() if not d]
        left = len(indeg)
        while ready:
            left -= 1
            for _, v, _ in self._out.get(ready.pop(), ()):
                if v in indeg:
                    indeg[v] -= 1
                    if not indeg[v]:
                        ready.append(v)
        if not left:
            return None
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n.id: WHITE for n in self._ordered}
        parent: dict[int, int] = {}
        for root in color:
            if color[root] != WHITE:
                continue
            stack = [(root, iter(sorted(e.dst for e in self._out.get(root, ())))) ]
            color[root] = GRAY
            while stack:
                u, it = stack[-1]
                advanced = False
                for v in it:
                    if v not in color:
                        continue  # dangling endpoint; reported elsewhere
                    if color[v] == WHITE:
                        color[v] = GRAY
                        parent[v] = u
                        stack.append((v, iter(sorted(e.dst for e in self._out.get(v, ())))))
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
    by_id, edges = g._by_id, g.edges
    ends = set(map(_SRC, edges)) | set(map(_DST, edges))
    dangling = not by_id.keys() >= ends
    if dangling or min(map(_POS, edges), default=0) < 0 \
            or len(set(edges)) != len(edges):  # word each fault, in order
        duplicates: list[str] = []
        seen: set[Edge] = set()
        for e in edges:
            for end in (e.src, e.dst):
                if end not in by_id:
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

    fan_in, fan_out = g._in, g._out
    if dangling:  # count only the edges between known nodes
        fan_in = {v: [e for e in es if e.src in by_id]
                  for v, es in fan_in.items()}
        fan_out = {u: [e for e in es if e.dst in by_id]
                   for u, es in fan_out.items()}
    OPERATION, INPUT, CONSTANT, OUTPUT = (
        NodeKind.OPERATION, NodeKind.INPUT, NodeKind.CONSTANT, NodeKind.OUTPUT)
    for n in g._ordered:
        ins = fan_in.get(n.id, ())
        kind = n.kind
        if kind is OPERATION:
            if n.op is None:
                out.append(f"operation node {n.id} has no operation symbol")
                continue
            if n.op not in OP_ARITY:
                out.append(f"operation node {n.id} has unknown symbol {n.op!r}")
                continue
            arity = OP_ARITY[n.op]
            if len(ins) != arity:
                out.append(f"operation node {n.id} ({n.op!r}) has "
                           f"{len(ins)} operands, expected {arity}")
            else:
                positions = [e.pos for e in ins]  # in-edges are sorted by pos
                if positions != list(range(arity)):
                    out.append(f"operation node {n.id} operand positions "
                               f"{positions} are not 0..{arity - 1}")
        else:
            if n.op is not None:
                out.append(f"node {n.id} is {kind.value} but carries an "
                           f"operation symbol")
            if kind is INPUT and ins:
                out.append(f"input node {n.id} has incoming edges")
            if kind is CONSTANT and ins:
                out.append(f"constant node {n.id} has incoming edges")
            if kind is OUTPUT:
                if len(ins) != 1:
                    out.append(f"output node {n.id} has {len(ins)} incoming "
                               f"edges, expected 1")
                if fan_out.get(n.id):
                    out.append(f"output node {n.id} has outgoing edges")

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
