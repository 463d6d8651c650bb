import json
import random
from typing import NamedTuple

import pytest

import sfgsched as s
from sfgsched.memory import MappingError
from sfgsched.scheduling import ReadySet, _seed_pool
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
    assert table.data_ids == tuple(sorted(table.data_ids))  # id order


def test_strict_mapping_is_exact(map_onebank, pairsum_graph):
    var1 = pairsum_graph.node_by_label("var1").id
    var2 = pairsum_graph.node_by_label("var2").id
    assert {p.data: (p.bank, p.address) for p in map_onebank.placements} \
        == {var2: ("bank0", 0), var1: ("bank0", 1)}
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
    assert {p.data: (p.bank, p.address) for p in two.placements} == \
        {var1: ("b0", 0), var2: ("b1", 0)}
    one = s.apply_mapping(table, s.MappingSpec(mode="auto",
                                               banks=(s.Bank(id="b0"),)))
    assert {p.data: p.address for p in one.placements} == {var1: 0, var2: 1}
    # an address a placement takes is stepped past
    taken = s.apply_mapping(table, s.MappingSpec(
        mode="auto", banks=(s.Bank(id="b0"),),
        placements=(s.Placement(var1, "b0", 0),)))
    assert {p.data: p.address for p in taken.placements} == {var1: 0, var2: 1}


def test_mapping_rejects_conflicts(pairsum_graph):
    table = s.extract_memory_table(pairsum_graph)
    var1 = pairsum_graph.node_by_label("var1").id
    var2 = pairsum_graph.node_by_label("var2").id
    b = (s.Bank(id="b0"),)
    with pytest.raises(MappingError):  # same slot twice
        s.apply_mapping(table, s.MappingSpec(
            mode="strict", banks=b,
            placements=(s.Placement(var1, "b0", 0), s.Placement(var2, "b0", 0))))
    for mode in ("strict", "auto"):
        with pytest.raises(MappingError, match="unknown bank 'b9'"):
            s.apply_mapping(table, s.MappingSpec(
                mode=mode, banks=b,
                placements=(s.Placement(var1, "b0", 0),
                            s.Placement(var2, "b9", 1))))
    with pytest.raises(MappingError):  # data placed twice
        s.apply_mapping(table, s.MappingSpec(
            mode="strict", banks=b,
            placements=(s.Placement(var1, "b0", 0), s.Placement(var1, "b0", 1),
                        s.Placement(var2, "b0", 2))))
    with pytest.raises(MappingError):  # memory used but no banks declared
        s.apply_mapping(table, s.MappingSpec(mode="auto", banks=()))
    # an id that is no memdata node; a document cannot name one, since
    # parse_memory_mapping refuses any other node first
    m1 = pairsum_graph.node_by_label("m1").id
    with pytest.raises(MappingError) as err:
        s.apply_mapping(table, s.MappingSpec(
            mode="auto", banks=b, placements=(s.Placement(m1, "b0", 0),)))
    assert str(err.value) == f"placement references non-memdata node {m1}"


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
        '{"banks": [{"id": "b0", "ports": Infinity}]}',
        '{"banks": [{"id": "b0", "t_seq": -Infinity}]}',
    ):
        with pytest.raises(MappingError):
            s.parse_memory_mapping(broken, pairsum_graph)
    # integers are taken as given: no truncated float, no bool as 0 or 1
    for key, broken in (
        ("ports", '{"banks": [{"id": "b0", "ports": 2.9}]}'),
        ("t_seq", '{"banks": [{"id": "b0", "t_seq": true}]}'),
        ("address", '{"banks": [{"id": "b0"}], "placements":'
                    ' [{"data": "var1", "bank": "b0", "address": 1.7}]}'),
    ):
        with pytest.raises(MappingError,
                           match=f"^'{key}' must be an integer, got "):
            s.parse_memory_mapping(broken, pairsum_graph)


class Reserved(NamedTuple):
    """One committed request: the request (its cycle the start plus its
    offset), its fit and its sequence number (see ``_reserve``)."""

    bank: str
    address: int
    cycle: int
    cost: int
    cost_class: str
    seq: int


def _reserve(table, requests, start=0):
    """Fit requests started at ``start`` and commit them, numbered from 1
    here: the table keeps no sequence numbers."""
    fits = table.fit(requests, start)
    assert len(fits) == len(requests), "blocked"
    table.commit(requests, fits)
    return [Reserved(bank, address, start + offset, cost, cost_class, seq)
            for seq, ((bank, address, offset), (cost, cost_class, _))
            in enumerate(zip(requests, fits), 1)]


def test_port_table_slots(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=6)
    assert table.fit([("bank0", 0, 0)], 5)[0][2] == range(5, 6)  # t_seq 1
    assert table.fit([("bank0", 0, 2)], 3) == table.fit([("bank0", 0, 5)], 0)
    assert table.fit([("bank0", 0, 0)], 6) == []  # past the last slot
    wide = s.Bank(id="b", t_seq=2, t_rand=4)
    assert wide.span(2, 4, 7) == range(1, 3)
    assert wide.span(4, 2, 7) == range(2, 3)  # floor(7 / 2) = 3 slots
    for cycle in (5, -1):  # past slot 2, before cycle 0
        assert wide.span(cycle, 2, 7) is None
    # only slots holding reservations are stored, so the cadence may be huge
    big = s.PortAccessTable(map_onebank, cadence=10**9)
    (r,) = _reserve(big, [("bank0", 0, 0)], 10**9 - 1)
    assert (r.cycle, r.cost) == (10**9 - 1, 1)
    assert big.fit([("bank0", 1, 0)], 10**9 - 1) == []  # the port is taken
    assert big.fit([("bank0", 1, 0)], 10**9) == []  # past the last slot
    assert big.fit([("bank0", 1, 0)], 10**9 - 2) == [(1, "burst",
                                                      range(10**9 - 2,
                                                            10**9 - 1))]


@pytest.mark.parametrize("t_seq,cadence,last", [
    (1, 7, 6), (1, 1, 0),   # one slot per cycle
    (2, 7, 4), (2, 3, 0),   # 3 slots (cycles 0-5), then 1 slot (0-1)
    (3, 7, 3), (3, 9, 6)])  # 2 slots (cycles 0-5), then 3 slots (0-8)
def test_last_issue_is_the_last_cycle_span_admits(t_seq, cadence, last):
    bank = s.Bank(id="b", t_seq=t_seq, t_rand=t_seq + 1)
    assert bank.last_issue(cadence) == last
    assert bank.span(last, t_seq, cadence) == range(last // t_seq,
                                                   last // t_seq + 1)
    assert bank.span(last + 1, t_seq, cadence) is None


def test_last_issue_without_a_slot_is_negative():
    bank = s.Bank(id="b", t_seq=3, t_rand=3)
    assert bank.last_issue(2) == -3  # 2 // 3 = 0 slots
    assert bank.span(0, 3, 2) is None


def test_access_cost_reservation_order(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=8)

    def cost(address):
        ((c, cls, _),) = table.fit([("bank0", address, 0)], 4)
        return c, cls

    # idle bank: any first access runs at the sequential rate
    assert cost(5) == (1, "burst")
    (r,) = _reserve(table, [("bank0", 5, 0)])
    assert r.cost == 1
    assert cost(6) == (1, "burst")
    assert cost(5) == (2, "random")
    assert cost(4) == (2, "random")
    # within one request list, each request follows the one before it
    assert [c for c, _, _ in table.fit([("bank0", 0, 0), ("bank0", 1, 2)],
                                       4)] == [2, 1]


def test_probe_does_not_mutate(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=8)
    got = table.probe([("bank0", 0, 0), ("bank0", 1, 1)], 0)
    # fit's (cost, class, slot span) triples
    assert got == [(1, "burst", range(0, 1)), (1, "burst", range(1, 2))]
    assert table.fit([("bank0", 0, 0), ("bank0", 1, 1)], 0) == got
    assert table.probe([("bank0", 0, 0), ("bank0", 1, 1)], 0) == got
    # a same-cycle pair on the single port is refused, still without mutation
    assert table.probe([("bank0", 0, 0), ("bank0", 1, 0)], 0) is None
    # no slot was taken and no address recorded: the probed requests
    # still reserve as probed
    assert table.last == {"bank0": None}
    reserved = _reserve(table, [("bank0", 0, 0), ("bank0", 1, 1)])
    assert [(r.cycle, r.cost, r.cost_class) for r in reserved] == \
        [(0, 1, "burst"), (1, 1, "burst")]


def test_reserve_all_is_atomic(map_onebank):
    # one port: two same-cycle accesses cannot both be served; the fit
    # stops at the second, and a refused request list reserves nothing
    table = s.PortAccessTable(map_onebank, cadence=8)
    assert table.fit([("bank0", 0, 0), ("bank0", 5, 0)], 3) == \
        [(1, "burst", range(3, 4))]
    assert table.last == {"bank0": None}
    ok = _reserve(table, [("bank0", 0, 0), ("bank0", 1, 1)], 3)
    assert [(r.cycle, r.cost) for r in ok] == [(3, 1), (4, 1)]


def test_blocked_fit_names_the_blocked_bank(map_twobank):
    """The first request fits on a free bank, the second is refused on a
    taken one: the fit holds one entry, and the request after it names
    the second bank."""
    table = s.PortAccessTable(map_twobank, cadence=8)
    _reserve(table, [("bank1", 0, 0)], 2)
    requests = [("bank0", 0, 0), ("bank1", 1, 0)]
    fits = table.fit(requests, 2)
    assert fits == [(1, "burst", range(2, 3))]
    assert requests[len(fits)][0] == "bank1"
    assert table.probe(requests, 2) is None
    assert table.probe(requests, 3) == [(1, "burst", range(3, 4))] * 2


def test_reservation_spans_slots():
    spec = s.MappingSpec(mode="auto", banks=(s.Bank(id="b", ports=1,
                                                    t_seq=1, t_rand=3),))
    m = s.apply_mapping(s.MemoryTable(data_ids=()), spec)
    table = s.PortAccessTable(m, cadence=8)
    (r,) = _reserve(table, [("b", 9, 0)], 2)  # idle: burst, cost 1
    assert r.cost == 1
    (r2,) = _reserve(table, [("b", 4, 0)], 3)  # random: occupies 3 slots
    assert r2.cost == 3
    # address 5 continues the run: one slot each
    busy = [cycle for cycle in range(8) if not table.fit([("b", 5, 0)], cycle)]
    assert busy == [2, 3, 4, 5]
    assert table.fit([("b", 9, 0)], 5) == []  # port busy at cycle 5


def test_horizon_error(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=4)
    assert table.probe([("bank0", 0, 0)], 4) is None  # a probe is only blocked
    assert table.fit([("bank0", 0, 0)], 4) == []
    # cost 2 spills past the end: the first request fits, the second not
    assert table.fit([("bank0", 0, 0), ("bank0", 0, 0)], 3) == \
        [(1, "burst", range(3, 4))]
    assert table.probe([("bank0", 0, 0), ("bank0", 0, 0)], 3) is None


def test_probe_sees_every_committed_reservation(map_onebank):
    table = s.PortAccessTable(map_onebank, cadence=8)
    assert table.last == {"bank0": None}
    _reserve(table, [("bank0", 5, 0)])
    assert table.last == {"bank0": 5}
    assert table.probe([("bank0", 6, 0)], 1) == [(1, "burst", range(1, 2))]
    # random access (last address 5): occupies slots 1 and 2 of the one port
    assert _reserve(table, [("bank0", 0, 0)], 1)
    assert table.last == {"bank0": 0}
    # probes see it at once: slot 1 is taken, and 6 no longer follows
    assert table.probe([("bank0", 6, 0)], 1) is None
    assert table.probe([("bank0", 6, 0)], 3) == [(2, "random", range(3, 5))]
    assert table.probe([("bank0", 1, 0)], 3) == [(1, "burst", range(3, 4))]
    requests = [("bank0", 3, 3), ("bank0", 6, 0)]
    fits = table.fit(requests, 1)
    assert fits == [(2, "random", range(4, 6))]
    assert requests[len(fits)] == ("bank0", 6, 0)  # slot 1 is taken


def test_starts_of_one_cycle_fit_one_behind_another():
    """x and y read consecutive addresses of one two-port bank in the same
    cycle, after a read of address 9.  Both are ranked against the table
    as the cycle began (both random), but y's read is fitted behind x's,
    a burst, and numbered right after it; the table holds neither until
    the next cycle's ``rank_executable`` commits them."""
    nodes = [s.SfgNode(0, K.INPUT, label="a"),
             s.SfgNode(1, K.MEMDATA, label="d0"),
             s.SfgNode(2, K.MEMDATA, label="d1"),
             s.SfgNode(3, K.OPERATION, op="*", label="x"),
             s.SfgNode(4, K.OPERATION, op="+", label="y"),
             s.SfgNode(5, K.OUTPUT, label="ox"),
             s.SfgNode(6, K.OUTPUT, label="oy")]
    g = s.SFG(nodes, [(0, 3, 0), (1, 3, 1), (0, 4, 0), (2, 4, 1),
                      (3, 5, 0), (4, 6, 0)])
    lib = s.OperatorLibrary(classes=(s.OperatorClass("mult", frozenset("*"), 1),
                                     s.OperatorClass("add", frozenset("+"), 1)))
    spec = s.IoConstraintSpec.unconstrained(latency_bound=6)
    mapping = s.apply_mapping(s.extract_memory_table(g), s.MappingSpec(
        mode="strict",
        banks=(s.Bank(id="bank0", ports=2, t_seq=1, t_rand=2),),
        placements=(s.Placement(1, "bank0", 0), s.Placement(2, "bank0", 1))))
    table = s.PortAccessTable(mapping, spec.cadence)
    _reserve(table, [("bank0", 9, 0)])
    problem = s.lower(g, lib, spec, mapping)
    state = s.SchedulerState(problem, table, s.Allocation(mode="auto"))
    _seed_pool(state, lib)
    x, y = (problem.cg.at[i] for i in (3, 4))
    ready = ReadySet(state, [x, y])
    for i in s.rank_executable(state, ready, 1):
        assert state.cost(i) == 2  # random, after address 9
        assert s.assign_step(state, i, 1) is not None
    assert [(a.op, a.address, a.cycle, a.cost, a.cost_class, a.seq)
            for a in state.accesses] == [(3, 0, 1, 2, "random", 1),
                                         (4, 1, 1, 1, "burst", 2)]
    assert table.last == {"bank0": 9}
    assert table.fit([("bank0", 10, 0)], 1) == [(1, "burst", range(1, 2))]
    for i in (x, y):
        ready.discard(i)
    assert list(s.rank_executable(state, ready, 2)) == []
    assert table.last == {"bank0": 1}
    assert table.fit([("bank0", 2, 0)], 1) == []  # both ports of slot 1
    assert table.fit([("bank0", 2, 0)], 2) == [(1, "burst", range(2, 3))]


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
