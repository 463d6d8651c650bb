import json

import pytest

import sfgsched as s


def test_parse_io_spec(io_lat3, pairsum_graph, pairsum_lib, map_twobank):
    assert io_lat3.cadence == 3
    assert io_lat3.latency_bound == 3
    assert {b.id for b in io_lat3.buses} == {"inA", "inB", "outC"}
    a = pairsum_graph.node_by_label("a").id
    assert any(t.node == a and t.offset == 0 for t in io_lat3.transfers)
    # the graph's rules hold
    s.lower(pairsum_graph, pairsum_lib, io_lat3, map_twobank)


def test_unconstrained_defaults():
    spec = s.IoConstraintSpec.unconstrained(latency_bound=7)
    assert spec.cadence == 7
    assert spec.transfers == () and spec.buses == ()
    spec2 = s.IoConstraintSpec.unconstrained(latency_bound=7, cadence=9)
    assert spec2.cadence == 9


def test_validate_catches_spec_problems(pairsum_graph, pairsum_lib,
                                       map_twobank):
    a = pairsum_graph.node_by_label("a").id
    c = pairsum_graph.node_by_label("c").id
    bus_in = s.BusDef(id="bi", direction="in")
    bus_out = s.BusDef(id="bo", direction="out")

    def spec(transfers, buses=(bus_in, bus_out), cadence=4):
        return s.IoConstraintSpec(buses=buses, transfers=tuple(transfers),
                                  cadence=cadence, latency_bound=4)

    # the graph's rules, checked when lowering: a known input or output,
    # of the kind its bus carries
    for transfers, message in (
            ([s.Transfer(999, "bi", 0)],
             "transfer references unknown I/O node 999"),
            ([s.Transfer(c, "bi", 0)],
             f"node {c} on input bus 'bi' is not an input"),
            ([s.Transfer(a, "bo", 0)],
             f"node {a} on output bus 'bo' is not an output")):
        with pytest.raises(s.IoSpecError) as err:
            s.lower(pairsum_graph, pairsum_lib, spec(transfers), map_twobank)
        assert str(err.value) == message
    # the rules that need no graph are checked when the spec is built
    two = [s.Transfer(a, "bi", 1),
           s.Transfer(pairsum_graph.node_by_label("b").id, "bi", 1)]
    for transfers, buses, message in (
            ([s.Transfer(a, "ghost", 0)], (bus_in, bus_out),
             f"transfer of node {a}: unknown bus 'ghost'"),
            ([s.Transfer(a, "bi", 9)], (bus_in, bus_out),
             f"transfer of node {a} at offset 9 outside cadence 4"),
            ([s.Transfer(a, "bi", -1)], (bus_in, bus_out),
             f"transfer of node {a} at offset -1 outside cadence 4"),
            (two, (bus_in, bus_out),
             "bus 'bi' carries two transfers at offset 1"),
            ([], (bus_in, bus_in), "duplicate bus ids")):
        with pytest.raises(s.IoSpecError) as err:
            spec(transfers, buses)
        assert str(err.value) == message
    for cadence, bound, message in ((0, 4, "cadence must be >= 1"),
                                    (4, 0, "latency bound must be >= 1")):
        with pytest.raises(s.IoSpecError) as err:
            s.IoConstraintSpec((), (), cadence=cadence, latency_bound=bound)
        assert str(err.value) == message


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
    # the spec refuses the collision when it is built, so no transfer
    # graph is ever made from one
    with pytest.raises(s.IoSpecError) as err:
        s.IoConstraintSpec(
            buses=(s.BusDef(id="bi", direction="in"),),
            transfers=(s.Transfer(a, "bi", 1), s.Transfer(b, "bi", 1)),
            cadence=4, latency_bound=4)
    assert str(err.value) == "bus 'bi' carries two transfers at offset 1"
    # a transfer on an unknown bus is refused before the slot check
    with pytest.raises(s.IoSpecError) as err:
        s.IoConstraintSpec(
            buses=(),
            transfers=(s.Transfer(a, "bx", 1), s.Transfer(b, "bx", 1)),
            cadence=4, latency_bound=4)
    assert str(err.value) == f"transfer of node {a}: unknown bus 'bx'"


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


def test_an_input_on_an_output_bus_is_refused_on_every_path(
        pairsum_graph, pairsum_lib, map_twobank):
    """Pinning input ``a`` on an output bus fails the lowering, so neither
    the scheduler nor the oracle, each lowering for itself, takes it, and
    no ``Problem`` exists for the verifier to read."""
    a = pairsum_graph.node_by_label("a").id
    spec = s.IoConstraintSpec(
        buses=(s.BusDef("bi", "in"), s.BusDef("bo", "out")),
        transfers=(s.Transfer(a, "bo", 0),), cadence=3, latency_bound=3)
    message = f"node {a} on output bus 'bo' is not an output"
    args = (pairsum_graph, pairsum_lib, spec, map_twobank)
    for call in (s.lower, s.schedule, s.brute_force_min_latency):
        with pytest.raises(s.IoSpecError) as err:
            call(*args)
        assert str(err.value) == message
