import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfgsched as s
from instances import random_problem

K = s.NodeKind


def test_round_trip_pairsum(pairsum_dir, pairsum_graph):
    text = (pairsum_dir / "graph.json").read_text()
    assert s.parse_sfg(s.serialize_sfg(pairsum_graph)) == pairsum_graph
    # serializing twice is byte-identical
    assert s.serialize_sfg(pairsum_graph) == s.serialize_sfg(s.parse_sfg(text))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_round_trip_random(seed):
    g = random_problem(seed).g
    text = s.serialize_sfg(g)
    g2 = s.parse_sfg(text)
    assert g2 == g
    assert s.serialize_sfg(g2) == text


def test_parse_rejects_malformed_json():
    with pytest.raises(s.ParseError) as exc:
        s.parse_sfg("{nodes: [")
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize("doc", [
    "[]",
    '{"nodes": {}, "edges": []}',
    '{"nodes": [], "edges": 3}',
    '{"nodes": [{"kind": "input"}], "edges": []}',
    '{"nodes": [{"id": 0, "kind": "gate"}], "edges": []}',
    '{"nodes": [{"id": 0, "kind": "input"}], "edges": [{"from": 0}]}',
])
def test_parse_rejects_bad_schema(doc):
    with pytest.raises(s.ParseError):
        s.parse_sfg(doc)


def _g(nodes, edges):
    return s.SFG(nodes, edges)


@pytest.mark.parametrize("nodes,edges,needle", [
    ([s.SfgNode(0, K.INPUT), s.SfgNode(0, K.INPUT)], [], "duplicate node id"),
    ([s.SfgNode(0, K.INPUT)], [(0, 9, 0)], "missing node"),
    ([s.SfgNode(0, K.INPUT), s.SfgNode(1, K.OPERATION, op="+")],
     [(0, 1, 0)], "1 operands, expected 2"),
    ([s.SfgNode(0, K.INPUT), s.SfgNode(1, K.OPERATION, op="+")],
     [(0, 1, 0), (0, 1, 2)], "positions"),
    ([s.SfgNode(0, K.OPERATION)], [], "no operation symbol"),
    ([s.SfgNode(0, K.OPERATION, op="%")], [], "unknown symbol"),
    ([s.SfgNode(0, K.INPUT, op="+")], [], "carries an"),
    ([s.SfgNode(0, K.INPUT), s.SfgNode(1, K.INPUT)], [(0, 1, 0)],
     "input node 1 has incoming"),
    ([s.SfgNode(0, K.INPUT), s.SfgNode(1, K.OUTPUT)], [], "0 incoming"),
    ([s.SfgNode(0, K.INPUT), s.SfgNode(1, K.OUTPUT), s.SfgNode(2, K.OUTPUT)],
     [(0, 1, 0), (0, 2, 0), (1, 2, 0)], "2 incoming"),
    ([s.SfgNode(0, K.INPUT), s.SfgNode(1, K.OPERATION, op="+")],
     [(0, 1, 0), (0, 1, 0)], "duplicate edge"),
])
def test_validate_flags_structural_problems(nodes, edges, needle):
    out = s.validate_sfg(_g(nodes, edges))
    assert any(needle in v for v in out), out


def test_validate_clean_graph(pairsum_graph):
    assert s.validate_sfg(pairsum_graph) == []


def test_cycle_detection():
    nodes = [s.SfgNode(0, K.OPERATION, op="+"), s.SfgNode(1, K.OPERATION, op="+"),
             s.SfgNode(2, K.INPUT)]
    edges = [(0, 1, 0), (1, 0, 0), (2, 0, 1), (2, 1, 1)]
    g = _g(nodes, edges)
    cyc = g.find_cycle()
    assert cyc is not None
    assert {0, 1} <= set(cyc)
    assert any("cycle" in v for v in s.validate_sfg(g))


def test_node_by_label(pairsum_graph):
    assert pairsum_graph.node_by_label("m1").kind is K.OPERATION
    with pytest.raises(KeyError) as exc:
        pairsum_graph.node_by_label("nope")
    assert exc.value.args[0] == "no node labelled 'nope'"
    dup = _g([s.SfgNode(0, K.INPUT, label="x"), s.SfgNode(1, K.INPUT, label="x")], [])
    with pytest.raises(KeyError) as exc:
        dup.node_by_label("x")
    assert exc.value.args[0] == "label 'x' is ambiguous (nodes [0, 1])"


def test_operands_in_position_order():
    nodes = [s.SfgNode(0, K.INPUT), s.SfgNode(1, K.INPUT),
             s.SfgNode(2, K.OPERATION, op="-"), s.SfgNode(3, K.OUTPUT)]
    edges = [(1, 2, 1), (0, 2, 0), (2, 3, 0)]
    g = _g(nodes, edges)
    assert [e.src for e in g.in_edges(2)] == [0, 1]
    assert g._in[g._at[2]] == [g._at[0], g._at[1]]


def test_export_dot(pairsum_graph):
    dot = s.export_dot(pairsum_graph)
    assert dot.startswith("digraph")
    for label in ('"a"', '"b"', '"var1"', '"var2"', '"c"', '"*"', '"+"'):
        assert label in dot
    # one edge line per graph edge, tagged with the operand position
    assert dot.count("->") == len(pairsum_graph.edges)
    assert 'n4 -> n6 [label="0"]' in dot


def test_validation_runs_once_and_hands_out_copies(find_cycle_calls):
    nodes = [s.SfgNode(0, K.INPUT), s.SfgNode(1, K.OPERATION, op="+"),
             s.SfgNode(2, K.OUTPUT)]
    g = _g(nodes, [(0, 1, 0), (1, 2, 0)])  # "+" is missing an operand
    first = s.validate_sfg(g)
    assert any("has 1 operands" in v for v in first)
    first.append("caller's own entry")
    assert s.validate_sfg(g) == first[:-1]
    assert len(find_cycle_calls) == 1


def _labelled(*pairs):
    return _g([s.SfgNode(i, kind, label=label)
               for i, (kind, label) in enumerate(pairs)], [])


@pytest.mark.parametrize("label,message", [
    ("ghost", "no node labelled 'ghost'"),
    ("x", "label 'x' is ambiguous (nodes [0, 1])"),
])
def test_label_errors_through_parse_io_spec(label, message):
    g = _labelled((K.INPUT, "x"), (K.INPUT, "x"))
    doc = {"cadence": 3, "latency": 3,
           "buses": [{"id": "bi", "direction": "in"}],
           "transfers": [{"data": label, "bus": "bi", "offset": 0}]}
    with pytest.raises(s.IoSpecError) as exc:
        s.parse_io_spec(json.dumps(doc), g)
    assert str(exc.value) == f"transfers[0]: {message}"


@pytest.mark.parametrize("label,message", [
    ("ghost", "no node labelled 'ghost'"),
    ("v", "label 'v' is ambiguous (nodes [0, 1])"),
])
def test_label_errors_through_parse_memory_mapping(label, message):
    g = _labelled((K.MEMDATA, "v"), (K.MEMDATA, "v"))
    doc = {"mode": "strict", "banks": [{"id": "b0"}],
           "placements": [{"data": label, "bank": "b0", "address": 0}]}
    with pytest.raises(s.MappingError) as exc:
        s.parse_memory_mapping(json.dumps(doc), g)
    assert str(exc.value) == f"placement references unknown data {label!r}"
    assert exc.value.__cause__.args[0] == message
