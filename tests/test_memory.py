import json
import random

import pytest

import sfgsched as s
from sfgsched.memory import MappingError, PortConflict
from instances import random_problem

K = s.NodeKind


def test_bank_validation():
    with pytest.raises(MappingError):
        s.Bank(id="b", ports=0)
    with pytest.raises(MappingError):
        s.Bank(id="b", t_seq=0)
    with pytest.raises(MappingError):
        s.Bank(id="b", t_seq=3, t_rand=2)
    b = s.Bank(id="b", ports=2, t_seq=1, t_rand=2)
    assert (b.ports, b.t_seq, b.t_rand) == (2, 1, 2)


def test_extract_memory_table(pairsum_graph):
    table = s.extract_memory_table(pairsum_graph)
    var1 = pairsum_graph.node_by_label("var1").id
    var2 = pairsum_graph.node_by_label("var2").id
    assert set(table.data_ids) == {var1, var2}
    assert table.readers[var1] == (pairsum_graph.node_by_label("m1").id,)
    assert table.writers.get(var1, ()) == ()


def test_strict_mapping_is_exact(map_onebank, pairsum_graph):
    var1 = pairsum_graph.node_by_label("var1").id
    var2 = pairsum_graph.node_by_label("var2").id
    assert map_onebank.placement_of(var2).address == 0
    assert map_onebank.placement_of(var1).address == 1
    assert map_onebank.banks_used() == ("bank0",)
    assert map_onebank.bank("bank0").ports == 1


def test_strict_mapping_requires_all_data(pairsum_graph):
    table = s.extract_memory_table(pairsum_graph)
    var1 = pairsum_graph.node_by_label("var1").id
    spec = s.MappingSpec(mode="strict", banks=(s.Bank(id="b0"),),
                         placements=(s.Placement(var1, "b0", 0),))
    with pytest.raises(MappingError):
        s.apply_mapping(table, spec)


def test_auto_mapping_round_robin(pairsum_graph):
    table = s.extract_memory_table(pairsum_graph)
    var1 = pairsum_graph.node_by_label("var1").id  # id 2
    var2 = pairsum_graph.node_by_label("var2").id  # id 3
    two = s.apply_mapping(table, s.MappingSpec(
        mode="auto", banks=(s.Bank(id="b0"), s.Bank(id="b1"))))
    assert two.placement_of(var1).bank == "b0"
    assert two.placement_of(var2).bank == "b1"
    assert two.placement_of(var1).address == 0
    one = s.apply_mapping(table, s.MappingSpec(mode="auto",
                                               banks=(s.Bank(id="b0"),)))
    assert one.placement_of(var1).address == 0
    assert one.placement_of(var2).address == 1


def test_mapping_rejects_conflicts(pairsum_graph):
    table = s.extract_memory_table(pairsum_graph)
    var1 = pairsum_graph.node_by_label("var1").id
    var2 = pairsum_graph.node_by_label("var2").id
    b = (s.Bank(id="b0"),)
    with pytest.raises(MappingError):  # same slot twice
        s.apply_mapping(table, s.MappingSpec(
            mode="strict", banks=b,
            placements=(s.Placement(var1, "b0", 0), s.Placement(var2, "b0", 0))))
    with pytest.raises(MappingError):  # unknown bank
        s.apply_mapping(table, s.MappingSpec(
            mode="strict", banks=b,
            placements=(s.Placement(var1, "b0", 0), s.Placement(var2, "b9", 1))))
    with pytest.raises(MappingError):  # data placed twice
        s.apply_mapping(table, s.MappingSpec(
            mode="strict", banks=b,
            placements=(s.Placement(var1, "b0", 0), s.Placement(var1, "b0", 1),
                        s.Placement(var2, "b0", 2))))
    with pytest.raises(MappingError):  # memory used but no banks declared
        s.apply_mapping(table, s.MappingSpec(mode="auto", banks=()))


def test_parse_memory_mapping(pairsum_dir, pairsum_graph):
    spec = s.parse_memory_mapping((pairsum_dir / "mem_onebank.json").read_text(),
                                  pairsum_graph)
    assert spec.mode == "strict"
    assert spec.banks[0].t_rand == 2
    for broken in (
        '{"mode": "magic", "banks": []}',
        '{"mode": "auto", "banks": [{"ports": 1}]}',
        '{"mode": "strict", "banks": [{"id": "b0"}],'
        ' "placements": [{"data": "ghost", "bank": "b0", "address": 0}]}',
        '{"mode": "strict", "banks": [{"id": "b0"}],'
        ' "placements": [{"data": "a", "bank": "b0", "address": 0}]}',
    ):
        with pytest.raises(MappingError):
            s.parse_memory_mapping(broken, pairsum_graph)


def test_conflict_graph_one_bank(pairsum_graph, pairsum_lib, map_onebank):
    cg = s.build_constraint_graph(pairsum_graph, pairsum_lib)
    bcg = s.build_conflict_graph(cg, map_onebank)
    assert len(bcg.access_nodes) == 2
    k = len(bcg.access_nodes)
    assert len(bcg.edges) == k * (k - 1)
    # var2 sits at address 0, var1 at 1: one direction bursts, one does not
    r_var1 = next(n for n in bcg.access_nodes
                  if cg.nodes[n].data == pairsum_graph.node_by_label("var1").id)
    r_var2 = next(n for n in bcg.access_nodes
                  if cg.nodes[n].data == pairsum_graph.node_by_label("var2").id)
    assert bcg.weight(r_var2, r_var1) == 1  # consecutive addresses
    assert bcg.weight(r_var1, r_var2) == 2  # random access


def test_conflict_graph_two_banks(pairsum_graph, pairsum_lib, map_twobank):
    cg = s.build_constraint_graph(pairsum_graph, pairsum_lib)
    bcg = s.build_conflict_graph(cg, map_twobank)
    assert len(bcg.access_nodes) == 2
    assert bcg.edges == ()


def test_conflict_graph_pair_counts_random():
    for seed in range(25):
        p = random_problem(seed)
        cg = s.build_constraint_graph(p.g, p.lib)
        bcg = s.build_conflict_graph(cg, p.mapping)
        by_bank = {}
        for n in bcg.access_nodes:
            b = p.mapping.placement_of(cg.nodes[n].data).bank
            by_bank.setdefault(b, []).append(n)
        want = sum(len(v) * (len(v) - 1) for v in by_bank.values())
        assert len(bcg.edges) == want
        bursts = 0
        for nodes in by_bank.values():
            for a in nodes:
                for b in nodes:
                    if a == b:
                        continue
                    pa = p.mapping.placement_of(cg.nodes[a].data)
                    pb = p.mapping.placement_of(cg.nodes[b].data)
                    t_seq = p.mapping.bank(pa.bank).t_seq
                    if pb.address == pa.address + 1:
                        assert bcg.weight(a, b) == t_seq
                        bursts += 1
        got = sum(1 for e in bcg.edges
                  if e.weight == p.mapping.bank(
                      p.mapping.placement_of(cg.nodes[e.src].data).bank).t_seq
                  and p.mapping.placement_of(cg.nodes[e.dst].data).address ==
                  p.mapping.placement_of(cg.nodes[e.src].data).address + 1)
        assert got == bursts


def test_port_table_slots(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=6)
    assert table.slot_count("bank0") == 6  # t_seq 1
    wide = s.MappingSpec(mode="auto", banks=(s.Bank(id="b", t_seq=2, t_rand=4),))
    m = s.apply_mapping(s.MemoryTable(entries=(), readers={}, writers={}), wide)
    t2 = s.PortAccessTable(m, cadence=7)
    assert t2.slot_count("b") == 3  # floor(7 / 2)


def test_access_cost_reservation_order(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=8)
    # idle bank: any first access runs at the sequential rate
    assert table.access_cost("bank0", 5) == (1, "burst")
    r = table.reserve_all([("bank0", 5, 0)])
    assert r is not None and r[0].cost == 1
    assert table.access_cost("bank0", 6) == (1, "burst")
    assert table.access_cost("bank0", 5) == (2, "random")
    assert table.access_cost("bank0", 4) == (2, "random")


def test_probe_does_not_mutate(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=8)
    before_seq = table.next_seq
    got = table.probe([("bank0", 0, 0), ("bank0", 1, 1)])
    assert got == [(1, "burst"), (1, "burst")]
    assert table.probe([("bank0", 0, 0), ("bank0", 1, 1)]) == got
    # a same-cycle pair on the single port is refused, still without mutation
    assert table.probe([("bank0", 0, 0), ("bank0", 1, 0)]) is None
    assert table.next_seq == before_seq
    assert set(table.slot_load("bank0")) == {0}


def test_reserve_all_is_atomic(map_onebank):
    # one port: two same-cycle accesses cannot both be served
    table = s.PortAccessTable(map_onebank, cadence=8)
    assert table.reserve_all([("bank0", 0, 3), ("bank0", 5, 3)]) is None
    assert set(table.slot_load("bank0")) == {0}
    assert table.next_seq == 1
    ok = table.reserve_all([("bank0", 0, 3), ("bank0", 1, 4)])
    assert ok is not None and [r.seq for r in ok] == [1, 2]


def test_reservation_spans_slots():
    spec = s.MappingSpec(mode="auto", banks=(s.Bank(id="b", ports=1,
                                                    t_seq=1, t_rand=3),))
    m = s.apply_mapping(s.MemoryTable(entries=(), readers={}, writers={}), spec)
    table = s.PortAccessTable(m, cadence=8)
    (r,) = table.reserve_all([("b", 9, 2)])  # idle: burst, cost 1
    assert r.cost == 1
    (r2,) = table.reserve_all([("b", 4, 3)])  # random: occupies 3 slots
    assert r2.cost == 3
    assert table.slot_load("b") == (0, 0, 1, 1, 1, 1, 0, 0)
    assert table.reserve_all([("b", 9, 5)]) is None  # port busy at cycle 5


def test_horizon_error(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=4)
    with pytest.raises(s.HorizonError):
        table.probe([("bank0", 0, 4)])
    assert table.reserve_all([("bank0", 0, 4)]) is None
    with pytest.raises(s.HorizonError):
        table.probe([("bank0", 0, 3), ("bank0", 0, 3)])  # cost 2 spills past end


def test_held_view_hides_later_reservations(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=8)
    table.reserve_all([("bank0", 5, 0)])
    table.hold_view()
    # random access (last address 5): occupies slots 1 and 2 of the one port
    assert table.reserve_all([("bank0", 0, 1)]) is not None
    # probes still see address 5 last and slot 1 free; the live table not
    assert table.probe([("bank0", 6, 1)]) == [(1, "burst")]
    with pytest.raises(PortConflict) as err:
        table.fit([("bank0", 3, 4), ("bank0", 6, 1)])
    assert (err.value.bank_id, err.value.cycle) == ("bank0", 1)
    table.hold_view()
    assert table.probe([("bank0", 6, 1)]) is None


def test_access_cost_matches_conflict_graph(pairsum_graph, pairsum_lib, map_onebank):
    """After serving access A, the cost of B equals the conflict-graph edge
    weight A -> B; an idle bank always serves at the sequential rate."""
    cg = s.build_constraint_graph(pairsum_graph, pairsum_lib)
    bcg = s.build_conflict_graph(cg, map_onebank)
    for a in bcg.access_nodes:
        for b in bcg.access_nodes:
            if a == b:
                continue
            table = s.PortAccessTable(map_onebank, cadence=8)
            pa = map_onebank.placement_of(cg.nodes[a].data)
            pb = map_onebank.placement_of(cg.nodes[b].data)
            table.reserve_all([(pa.bank, pa.address, 0)])
            cost, _ = table.access_cost(pb.bank, pb.address)
            assert cost == bcg.weight(a, b)


def test_replay_never_double_books():
    for seed in range(40):
        p = random_problem(seed)
        try:
            sched = p.run_scheduler()
        except s.ScheduleFailure:
            continue
        caps = {b.id: p.mapping.bank(b.id).ports for b in p.mapping.banks}
        load: dict[tuple[str, int], int] = {}
        for acc in sorted(sched.accesses, key=lambda a: a.seq):
            t_seq = p.mapping.bank(acc.bank).t_seq
            for slot in range(acc.cycle // t_seq,
                              (acc.cycle + acc.cost - 1) // t_seq + 1):
                key = (acc.bank, slot)
                load[key] = load.get(key, 0) + 1
                assert load[key] <= caps[acc.bank], (seed, acc)
