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


def _reserve(table, requests):
    return table.commit(requests, table.fit(requests))


def test_port_table_slots(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=6)
    assert table.slot_count("bank0") == 6  # t_seq 1
    wide = s.MappingSpec(mode="auto", banks=(s.Bank(id="b", t_seq=2, t_rand=4),))
    m = s.apply_mapping(s.MemoryTable(entries=(), readers={}, writers={}), wide)
    t2 = s.PortAccessTable(m, cadence=7)
    assert t2.slot_count("b") == 3  # floor(7 / 2)
    # only slots holding reservations are stored, so the cadence may be huge
    big = s.PortAccessTable(map_onebank, cadence=10**9)
    assert big.slot_count("bank0") == 10**9
    (r,) = _reserve(big, [("bank0", 0, 10**9 - 1)])
    assert (r.cycle, r.cost) == (10**9 - 1, 1)
    with pytest.raises(PortConflict):
        big.fit([("bank0", 1, 10**9 - 1)])
    with pytest.raises(s.HorizonError):
        big.fit([("bank0", 1, 10**9)])


def test_access_cost_reservation_order(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=8)

    def cost(address):
        ((c, cls, _),) = table.fit([("bank0", address, 4)])
        return c, cls

    # idle bank: any first access runs at the sequential rate
    assert cost(5) == (1, "burst")
    (r,) = _reserve(table, [("bank0", 5, 0)])
    assert r.cost == 1
    assert cost(6) == (1, "burst")
    assert cost(5) == (2, "random")
    assert cost(4) == (2, "random")
    # within one request list, each request follows the one before it
    assert [c for c, _, _ in table.fit([("bank0", 0, 4), ("bank0", 1, 6)])] \
        == [2, 1]


def test_probe_does_not_mutate(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=8)
    before_seq = table.next_seq
    got = table.probe([("bank0", 0, 0), ("bank0", 1, 1)])
    assert got == [(1, "burst"), (1, "burst")]
    assert table.probe([("bank0", 0, 0), ("bank0", 1, 1)]) == got
    # a same-cycle pair on the single port is refused, still without mutation
    assert table.probe([("bank0", 0, 0), ("bank0", 1, 0)]) is None
    assert table.next_seq == before_seq
    # no slot was taken: the probed requests still reserve as probed
    reserved = _reserve(table, [("bank0", 0, 0), ("bank0", 1, 1)])
    assert [(r.cost, r.cost_class, r.seq) for r in reserved] == \
        [(1, "burst", 1), (1, "burst", 2)]


def test_reserve_all_is_atomic(map_onebank):
    # one port: two same-cycle accesses cannot both be served, and a
    # refused request list reserves none of its requests
    table = s.PortAccessTable(map_onebank, cadence=8)
    with pytest.raises(PortConflict):
        table.fit([("bank0", 0, 3), ("bank0", 5, 3)])
    assert table.next_seq == 1
    ok = _reserve(table, [("bank0", 0, 3), ("bank0", 1, 4)])
    assert [r.seq for r in ok] == [1, 2]


def test_reservation_spans_slots():
    spec = s.MappingSpec(mode="auto", banks=(s.Bank(id="b", ports=1,
                                                    t_seq=1, t_rand=3),))
    m = s.apply_mapping(s.MemoryTable(entries=(), readers={}, writers={}), spec)
    table = s.PortAccessTable(m, cadence=8)
    (r,) = _reserve(table, [("b", 9, 2)])  # idle: burst, cost 1
    assert r.cost == 1
    (r2,) = _reserve(table, [("b", 4, 3)])  # random: occupies 3 slots
    assert r2.cost == 3
    busy = []
    for cycle in range(8):  # address 5 continues the run: one slot each
        try:
            table.fit([("b", 5, cycle)])
        except PortConflict:
            busy.append(cycle)
    assert busy == [2, 3, 4, 5]
    with pytest.raises(PortConflict):  # port busy at cycle 5
        table.fit([("b", 9, 5)])


def test_horizon_error(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=4)
    with pytest.raises(s.HorizonError):
        table.probe([("bank0", 0, 4)])
    with pytest.raises(s.HorizonError):
        table.fit([("bank0", 0, 4)])
    with pytest.raises(s.HorizonError):
        table.probe([("bank0", 0, 3), ("bank0", 0, 3)])  # cost 2 spills past end


def test_held_view_hides_later_reservations(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=8)
    assert table.hold_view() == {"bank0": None}
    _reserve(table, [("bank0", 5, 0)])
    assert table.hold_view() == {"bank0": 5}
    # random access (last address 5): occupies slots 1 and 2 of the one port
    assert _reserve(table, [("bank0", 0, 1)])
    # probes still see address 5 last and slot 1 free; the live table not
    assert table.probe([("bank0", 6, 1)]) == [(1, "burst")]
    with pytest.raises(PortConflict) as err:
        table.fit([("bank0", 3, 4), ("bank0", 6, 1)])
    assert (err.value.bank_id, err.value.cycle) == ("bank0", 1)
    assert table.hold_view() == {"bank0": 0}
    assert table.probe([("bank0", 6, 1)]) is None


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
