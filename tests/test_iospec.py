import json

import pytest

import sfgsched as s


def test_parse_io_spec(io_lat3, pairsum_graph):
    assert io_lat3.cadence == 3
    assert io_lat3.latency_bound == 3
    assert {b.id for b in io_lat3.buses} == {"inA", "inB", "outC"}
    a = pairsum_graph.node_by_label("a").id
    assert any(t.node == a and t.offset == 0 for t in io_lat3.transfers)
    assert io_lat3.validate(pairsum_graph) == []


def test_unconstrained_defaults():
    spec = s.IoConstraintSpec.unconstrained(latency_bound=7)
    assert spec.cadence == 7
    assert spec.transfers == () and spec.buses == ()
    spec2 = s.IoConstraintSpec.unconstrained(latency_bound=7, cadence=9)
    assert spec2.cadence == 9


def test_validate_catches_spec_problems(pairsum_graph):
    a = pairsum_graph.node_by_label("a").id
    c = pairsum_graph.node_by_label("c").id
    bus_in = s.BusDef(id="bi", direction="in")
    bus_out = s.BusDef(id="bo", direction="out")

    def spec(transfers, buses=(bus_in, bus_out), cadence=4):
        return s.IoConstraintSpec(buses=buses, transfers=tuple(transfers),
                                  cadence=cadence, latency_bound=4)

    assert spec([s.Transfer(a, "ghost", 0)]).validate(pairsum_graph)
    assert spec([s.Transfer(999, "bi", 0)]).validate(pairsum_graph)
    assert spec([s.Transfer(c, "bi", 0)]).validate(pairsum_graph)  # output on in bus
    assert spec([s.Transfer(a, "bo", 0)]).validate(pairsum_graph)  # input on out bus
    assert spec([s.Transfer(a, "bi", 9)]).validate(pairsum_graph)  # past cadence
    two = [s.Transfer(a, "bi", 1),
           s.Transfer(pairsum_graph.node_by_label("b").id, "bi", 1)]
    assert any("two transfers" in v for v in spec(two).validate(pairsum_graph))


def test_bus_direction_validation():
    with pytest.raises(s.IoSpecError):
        s.BusDef(id="b", direction="sideways")


def test_transfer_graph_one_node_per_transfer(pairsum_graph):
    a = pairsum_graph.node_by_label("a").id
    b = pairsum_graph.node_by_label("b").id
    spec = s.IoConstraintSpec(
        buses=(s.BusDef(id="bi", direction="in"),),
        transfers=(s.Transfer(a, "bi", 2), s.Transfer(b, "bi", 0)),
        cadence=4, latency_bound=4)
    tg = s.build_transfer_graph(spec)
    assert [(t.node, t.bus, t.offset) for t in tg] == \
        [(a, "bi", 2), (b, "bi", 0)]


def test_transfer_graph_rejects_slot_collision(pairsum_graph):
    a = pairsum_graph.node_by_label("a").id
    b = pairsum_graph.node_by_label("b").id
    spec = s.IoConstraintSpec(
        buses=(s.BusDef(id="bi", direction="in"),),
        transfers=(s.Transfer(a, "bi", 1), s.Transfer(b, "bi", 1)),
        cadence=4, latency_bound=4)
    with pytest.raises(s.IoSpecError):
        s.build_transfer_graph(spec)


def test_parse_resolves_labels_and_rejects_junk(pairsum_graph):
    doc = {"cadence": 3, "latency": 3,
           "buses": [{"id": "bi", "direction": "in", "width": 16}],
           "transfers": [{"data": "a", "bus": "bi", "offset": 0}]}
    spec = s.parse_io_spec(json.dumps(doc), pairsum_graph)
    assert spec.buses == (s.BusDef(id="bi", direction="in"),)  # width ignored
    assert spec.transfers[0].node == pairsum_graph.node_by_label("a").id

    for broken in (
        {"latency": 3, "buses": [], "transfers": []},
        {"cadence": 3, "buses": [], "transfers": []},
        {"cadence": 3, "latency": 3, "buses": [],
         "transfers": [{"data": "ghost", "bus": "bi", "offset": 0}]},
    ):
        with pytest.raises(s.IoSpecError):
            s.parse_io_spec(json.dumps(broken), pairsum_graph)
