"""Signal-flow-graph IR: node/edge model, validation, JSON (de)serialization.

The graph is a DAG over five node kinds:

* ``input`` / ``output``: values crossing the component boundary on buses.
* ``constant``: numeric literals, folded into operators (never memory-mapped).
* ``memdata``: named internal data that lives in memory banks.
* ``operation``: two-operand arithmetic (``+``, ``-``, ``*``).

Edges are ``(src, dst, pos)`` triples where ``pos`` is the operand position
at the consumer; operand order is explicit so graph reconstruction and
downstream scheduling are deterministic.

An ``SFG`` is kept as columns, with no record per node or edge.  Its
nodes are numbered by position in id order, the numbering the lowering,
the windows, the scheduler and the verifier keep, and by position it
holds each node's id, kind, operation symbol and label, and (once linked)
the positions of its in-edges' sources in operand order and those of its
out-edges' targets; the edges are three columns of ids in document order.  Ids are
read only where records and messages are written.  The parser, the FFT
generator and ``SFG(nodes, edges)`` all fill the columns
(``SFG.from_columns``).  The records, ``SfgNode`` and ``Edge`` (named
tuples: immutable and hashable), are built only when ``nodes``,
``edges``, ``node``, ``of_kind`` or ``in_edges`` asks for them, with
``tuple.__new__`` and every field spelled out: a named tuple's own
``__new__`` is a Python function, one interpreter call per record at
about twice the cost, and it is only there to check the arity and fill in
defaults.

An ``SFG`` is immutable, so what is derived from it alone is derived once
and kept on the instance: the links between positions, on first use (see
``SFG``).  ``validate_sfg`` computes the violation list and the
topological order on first use (``parse_sfg`` validates, and
``build_constraint_graph`` then reads both) and hands each caller a copy
of the list; ``node_by_label`` builds its label index on the first lookup.

Validation learns from the links whether some edge is faulty (it walks
the edges one by one only then, to word the faults), makes one pass over
the nodes, and then checks acyclicity: an in-degree count (Kahn's
algorithm) clears an acyclic graph and keeps its order, and only when it
leaves nodes over does a depth-first search run to name one cycle.  The parser checks the
document's records a column at a time, and only when a check fails does
it walk the records in order, to word the ``nodes[i]``/``edges[i]``
context of the first fault.  ``serialize_sfg`` writes the node and edge
tables straight from the columns, with one row template per node shape
(``jsontext.rows``).
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property
from itertools import chain, groupby, islice, repeat
from operator import itemgetter, lt
from typing import Iterable, NamedTuple

from .jsontext import EDGES, NODES, array, loads, rows


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


_POS = itemgetter(2)  # an edge's operand position

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
    """Immutable signal-flow graph, as columns.

    Node and edge iteration order is the construction (document) order;
    equality is structural and order-insensitive.

    By position, the rank of a node's id (a repeated id keeps its first
    node): ``ids`` holds the ids and ``_kind``, ``_op`` and ``_label`` the
    other node fields, and ``_at`` maps an id to its position.
    ``_nodes`` holds the node columns in document order, and ``_src``,
    ``_dst`` and ``_pos`` the edges' fields in document order.

    The links between positions are derived on first use, since writing a
    graph needs none of them.  ``_links`` holds four: by position, the
    positions of the in-edges' sources in operand order (by document order
    among equal operand positions), also ``_in``, and those of the
    out-edges' targets in document order, also ``_out``, both leaving out
    an edge with a missing end; the positions whose in-edges' operand
    positions, in order, are not 0, 1, ...; and whether some edge has a
    missing end.
    """

    def __init__(self, nodes: Iterable[SfgNode | tuple],
                 edges: Iterable[Edge | tuple]):
        node_columns = list(zip(*nodes, strict=True)) or [()] * 4
        edge_columns = list(zip(*edges, strict=True)) or [()] * 3
        if len(node_columns) != 4 or len(edge_columns) != 3:
            raise TypeError("a node is (id, kind, op, label) and an edge "
                            "(src, dst, pos)")
        self._fill(*node_columns, *edge_columns)

    @classmethod
    def from_columns(cls, ids, kinds, ops, labels, src, dst, pos) -> SFG:
        """The graph of the nodes ``zip(ids, kinds, ops, labels)`` and the
        edges ``zip(src, dst, pos)``, each in document order; it keeps the
        sequences given, which must not change afterwards."""
        g = cls.__new__(cls)
        g._fill(ids, kinds, ops, labels, src, dst, pos)
        return g

    def _fill(self, ids, kinds, ops, labels, src, dst, pos) -> None:
        self._nodes = (ids, kinds, ops, labels)
        self._src, self._dst, self._pos = src, dst, pos
        self._duplicate_ids: list[int] = []
        if all(map(lt, ids, islice(ids, 1, None))):  # already by position
            self.ids, self._kind, self._op, self._label = self._nodes
        else:
            n = len(ids)  # the first node of an id wins
            first = dict(zip(reversed(ids), range(n - 1, -1, -1)))
            if len(first) != n:
                seen: set[int] = set()
                self._duplicate_ids = [i for i in ids
                                       if i in seen or seen.add(i)]
            order = list(map(first.__getitem__, sorted(first)))
            self.ids, self._kind, self._op, self._label = (
                list(map(column.__getitem__, order))
                for column in self._nodes)
        self._at = dict(zip(self.ids, range(len(self.ids))))
        self._order: list[int] | None = None  # see find_cycle
        self._violations: tuple[str, ...] | None = None  # see validate_sfg

    @cached_property
    def _links(self) -> tuple[list[list[int]], list[list[int]], set[int],
                              bool]:
        """In, out, misnumbered and dangling: see the class docstring."""
        at, n = self._at, len(self.ids)
        dangling = False
        try:
            sources, targets = list(map(at.__getitem__, self._src)), \
                list(map(at.__getitem__, self._dst))
        except KeyError:  # an edge with a missing end: leave it out
            dangling = True
            sources = list(map(at.get, self._src))
            targets = list(map(at.get, self._dst))
        edges = zip(sources, targets, self._pos)
        if dangling:
            edges = [e for e in edges if None not in e[:2]]
        ins: list[list[int]] = [[] for _ in range(n)]
        outs: list[list[int]] = [[] for _ in range(n)]
        misnumbered: set[int] = set()  # for now, also the ones out of order
        for s, d, k in edges:
            operands = ins[d]
            if k != len(operands):
                misnumbered.add(d)
            operands.append(s)
            outs[s].append(d)
        for d in list(misnumbered):  # put those in operand order
            into = self.in_edges(self.ids[d])
            ins[d] = [at[e.src] for e in into]
            if [e.pos for e in into] == list(range(len(into))):
                misnumbered.discard(d)
        return ins, outs, misnumbered, dangling

    _in = property(lambda self: self._links[0])
    _out = property(lambda self: self._links[1])

    # -- records -----------------------------------------------------------

    @cached_property
    def nodes(self) -> tuple[SfgNode, ...]:
        """The node records, in document order."""
        return tuple(map(_tuple_new, repeat(SfgNode), zip(*self._nodes)))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edge records, in document order."""
        return tuple(map(_tuple_new, repeat(Edge),
                         zip(self._src, self._dst, self._pos)))

    @cached_property
    def _edges_into(self) -> dict[int, list[Edge]]:
        """The edges between known nodes by target id, each target's in
        operand order (by document order among equal positions)."""
        at, into = self._at, {}
        for e in sorted(self.edges, key=_POS):
            if e.src in at and e.dst in at:
                into.setdefault(e.dst, []).append(e)
        return into

    @cached_property
    def _by_label(self) -> dict[str, int | None]:
        """The document index of each label's node; None for a label
        several nodes share."""
        index: dict[str, int | None] = {}
        for j, name in enumerate(self._nodes[3]):
            index[name] = None if name in index else j
        return index

    # -- lookup ------------------------------------------------------------

    def node(self, node_id: int) -> SfgNode:
        p = self._at[node_id]
        return _tuple_new(SfgNode, (self.ids[p], self._kind[p], self._op[p],
                                    self._label[p]))

    def in_edges(self, node_id: int) -> list[Edge]:
        """The edges into ``node_id`` from known nodes, in operand order
        (by document order among equal operand positions)."""
        return list(self._edges_into.get(node_id, ()))

    def of_kind(self, kind: NodeKind) -> list[SfgNode]:
        """The nodes of one kind in id order."""
        return [_tuple_new(SfgNode, node) for node in zip(
            self.ids, self._kind, self._op, self._label) if node[1] is kind]

    @property
    def inputs(self) -> list[SfgNode]:
        return self.of_kind(NodeKind.INPUT)

    @property
    def operations(self) -> list[SfgNode]:
        return self.of_kind(NodeKind.OPERATION)

    def node_by_label(self, label: str) -> SfgNode:
        if label not in self._by_label:
            raise KeyError(f"no node labelled {label!r}")
        j = self._by_label[label]
        if j is None:
            ids, _, _, labels = self._nodes
            raise KeyError(f"label {label!r} is ambiguous (nodes "
                           f"{[i for i, x in zip(ids, labels) if x == label]})")
        return _tuple_new(SfgNode, tuple(column[j] for column in self._nodes))

    def node_by_ref(self, ref: object) -> SfgNode:
        """The node a document's ``data`` names: a label (a string) or an
        id (an int; a bool is none).  Raises KeyError for an unknown or
        ambiguous one and TypeError for any other value."""
        if isinstance(ref, str):
            return self.node_by_label(ref)
        if type(ref) is not int:
            raise TypeError(f"'data' must be a node id or a label, got {ref!r}")
        if ref not in self._at:
            raise KeyError(f"no node with id {ref}")
        return self.node(ref)

    # -- structure ---------------------------------------------------------

    def find_cycle(self) -> list[int] | None:
        """Return one cycle as a node-id path, or None if acyclic.

        Edges to or from missing nodes are ignored.  An in-degree count
        (Kahn's algorithm) clears an acyclic graph in one pass and keeps its
        topological order in ``_order``, which the lowering reads; the
        depth-first search that names a cycle runs only when the count
        leaves nodes over, and those nodes hold a cycle it finds.
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

    def _sets(self) -> tuple[frozenset, frozenset]:
        return (frozenset(zip(*self._nodes)),
                frozenset(zip(self._src, self._dst, self._pos)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SFG):
            return NotImplemented
        return self._sets() == other._sets()

    def __repr__(self) -> str:
        return f"SFG({len(self._nodes[0])} nodes, {len(self._src)} edges)"


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
    # A missing end makes an edge dangle, and a negative or repeated operand
    # position between known nodes misnumbers its target's operands.
    at = g._at
    ins, outs, misnumbered, dangling = g._links
    if dangling or misnumbered:  # word each fault, if any, in order
        duplicates: list[str] = []
        seen: set[Edge] = set()
        for e in g.edges:
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
    for p, (node_id, kind, op, ins, outs) in enumerate(
            zip(g.ids, g._kind, g._op, ins, outs)):
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
            elif p in misnumbered:
                positions = [e.pos for e in g.in_edges(node_id)]
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
_DICT, _INT, _STR = frozenset({dict}), frozenset({int}), frozenset({str})
_OPTIONAL_STR = frozenset({str, type(None)})


def _node_columns(items: list) -> tuple[list, list, list, list]:
    """The (ids, kinds, ops, labels) of the node records.  The checks run
    a column at a time; only when one fails are the records checked in
    order, each record's checks in order, and then one of them raises,
    worded with its ``nodes[i]`` context."""
    try:
        if _DICT.issuperset(map(type, items)):
            ids = list(map(itemgetter("id"), items))
            kinds = list(map(_KINDS.get, map(itemgetter("kind"), items)))
            ops = list(map(dict.get, items, repeat("op")))
            labels = list(map(dict.get, items, repeat("label"), repeat("")))
            if _INT.issuperset(map(type, ids)) and min(ids, default=0) >= 0 \
                    and None not in kinds \
                    and _OPTIONAL_STR.issuperset(map(type, ops)) \
                    and _STR.issuperset(map(type, labels)):
                return ids, kinds, ops, labels
    except (KeyError, TypeError):  # a missing key, an unhashable kind
        pass
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


def _edge_columns(items: list) -> tuple[list, list, list]:
    """As ``_node_columns``, the (src, dst, pos) of the ``edges[i]``
    records."""
    try:
        if _DICT.issuperset(map(type, items)):
            src = list(map(itemgetter("from"), items))
            dst = list(map(itemgetter("to"), items))
            pos = list(map(dict.get, items, repeat("pos"), repeat(0)))
            if _INT.issuperset(map(type, chain(src, dst, pos))) \
                    and min(chain(src, dst, pos), default=0) >= 0:
                return src, dst, pos
    except KeyError:
        pass
    for i, obj in enumerate(items):
        if not isinstance(obj, dict):
            raise ParseError(f"edges[{i}]: expected an object")
        try:
            src, dst = obj["from"], obj["to"]
        except KeyError as exc:
            raise ParseError(f"edges[{i}]: missing field {exc.args[0]!r}") from None
        pos = obj.get("pos", 0)
        for name, val in (("from", src), ("to", dst), ("pos", pos)):
            if type(val) is not int or val < 0:  # the first bad field
                raise ParseError(f"edges[{i}]: {name!r} must be a non-negative integer")


def parse_sfg(text: str) -> SFG:
    """Parse and validate a graph document.

    Raises ParseError (with line/column for malformed JSON, or the offending
    array index for schema violations) or ValidationError naming the first
    violated structural invariant.
    """
    try:
        doc = loads(text)
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
    g = SFG.from_columns(*_node_columns(nodes_raw), *_edge_columns(edges_raw))
    violations = validate_sfg(g)
    if violations:
        raise ValidationError(violations)
    return g


def serialize_sfg(g: SFG) -> str:
    """Deterministic JSON form: nodes sorted by id, edges by (to, pos,
    from), duplicate edges once, and a node's ``op`` and ``label`` only
    when set.  Byte for byte ``json.dumps(doc, indent=2) + "\\n"`` of that
    document, but written from the columns: the nodes run by run of one
    shape (with or without ``op``, with or without ``label``), each run
    through its shape's row template (``jsontext.NODES``)."""
    columns = (g.ids, g._kind, g._op, g._label)
    nodes: list[str] = []
    start = 0
    for shape, run in groupby(zip(map(bool, g._op), map(bool, g._label))):
        end = start + len(list(run))
        nodes += rows([c[start:end] for c in columns], NODES[shape], 1)
        start = end
    # each edge once; document order first, so that a sorted document sorts
    # in one pass
    edges = sorted(dict.fromkeys(zip(g._dst, g._pos, g._src)))
    return ('{\n  "nodes": ' + array(nodes, 1) + ',\n  "edges": '
            + array(rows(list(zip(*edges)), EDGES, 1) if edges else [], 1)
            + "\n}\n")
