import json

import pytest

import sfgsched as s
from sfgsched import scheduling
from sfgsched.scheduling import ReadySet, _seed_pool
from instances import random_problem

K = s.NodeKind


def _run(pairsum_graph, pairsum_lib, spec, mapping, alloc="auto"):
    return s.schedule(pairsum_graph, pairsum_lib, spec, mapping,
                      s.parse_allocation(alloc))


def test_allocation_parsing():
    assert s.parse_allocation("auto") == s.Allocation(mode="auto")
    fixed = s.parse_allocation("fixed:mult=2,add=1")
    assert fixed.mode == "fixed"
    assert dict(fixed.counts) == {"mult": 2, "add": 1}
    for bad in ("turbo", "fixed:", "fixed:mult", "fixed:mult=x",
                "fixed:mult=-1", "fixed:mult=1,mult=2"):
        with pytest.raises(s.AllocationError):
            s.parse_allocation(bad)


def test_three_cycle_schedule_exact(pairsum_graph, pairsum_lib, io_lat3,
                                    map_onebank):
    sched = _run(pairsum_graph, pairsum_lib, io_lat3, map_onebank)
    starts = {o.label: o.start for o in sched.ops}
    # m2 leads: its read of address 0 sets up the burst to address 1
    assert starts == {"m2": 0, "m1": 1, "add1": 2}
    assert len({o.instance for o in sched.ops if o.op_class == "mult"}) == 1
    accs = sorted(sched.accesses, key=lambda a: a.seq)
    assert [(a.data_label, a.cycle, a.cost, a.cost_class, a.seq) for a in accs] \
        == [("var2", 0, 1, "burst", 1), ("var1", 1, 1, "burst", 2)]
    xfers = {(t.bus, t.cycle) for t in sched.transfers}
    assert xfers == {("inA", 0), ("inB", 0), ("outC", 2)}
    assert all(not t.synthesized for t in sched.transfers)
    assert sched.pool_counts() == {"mult": 1, "add": 1}
    assert sched.allocation_events == ()
    assert sched.achieved_latency == 3
    assert s.verify_schedule(sched, pairsum_graph, pairsum_lib, io_lat3,
                             map_onebank) == []
    assert s.estimate_registers(sched, pairsum_graph) == 5


def test_two_cycle_one_bank_aborts(pairsum_graph, pairsum_lib, io_lat2,
                                   map_onebank):
    with pytest.raises(s.ScheduleFailure) as exc:
        _run(pairsum_graph, pairsum_lib, io_lat2, map_onebank)
    e = exc.value
    assert e.reason == "memory-conflict-at-zero-margin"
    assert e.cycle == 0
    assert e.bank == "bank0"
    assert e.op_class == "mult"
    assert e.operation == pairsum_graph.node_by_label("m1").id
    for needle in ("memory-conflict-at-zero-margin", "cycle 0", "bank0"):
        assert needle in str(e)


def test_two_cycle_two_banks_grows_pool(pairsum_graph, pairsum_lib, io_lat2,
                                        map_twobank):
    sched = _run(pairsum_graph, pairsum_lib, io_lat2, map_twobank)
    starts = {o.label: o.start for o in sched.ops}
    assert starts == {"m1": 0, "m2": 0, "add1": 1}
    assert sched.pool_counts() == {"mult": 2, "add": 1}
    assert len(sched.allocation_events) == 1
    ev = sched.allocation_events[0]
    assert (ev.cycle, ev.op_class, ev.instance) == (0, "mult", "mult1")
    assert sched.achieved_latency == 2
    assert s.verify_schedule(sched, pairsum_graph, pairsum_lib, io_lat2,
                             map_twobank) == []


def test_fixed_allocation_matches_auto_when_sufficient(
        pairsum_graph, pairsum_lib, io_lat3, map_onebank):
    auto = _run(pairsum_graph, pairsum_lib, io_lat3, map_onebank)
    fixed = _run(pairsum_graph, pairsum_lib, io_lat3, map_onebank,
                 "fixed:mult=1,add=1")
    assert fixed.to_json() == auto.to_json()
    assert fixed.allocation_events == ()


def test_fixed_allocation_exhaustion(pairsum_graph, pairsum_lib, io_lat2,
                                     map_twobank):
    with pytest.raises(s.ScheduleFailure) as exc:
        _run(pairsum_graph, pairsum_lib, io_lat2, map_twobank,
             "fixed:mult=1,add=1")
    e = exc.value
    assert e.reason == "fixed-allocation-exhausted"
    assert e.cycle == 0
    assert e.op_class == "mult"


def test_fixed_allocation_unknown_class(pairsum_graph, pairsum_lib, io_lat3,
                                        map_onebank):
    with pytest.raises(s.LibraryError):
        _run(pairsum_graph, pairsum_lib, io_lat3, map_onebank,
             "fixed:divider=1")


def _burst_fixture(addresses=(0, 4, 5), z_op="*"):
    """Ops x (4) and y (5) multiply input a by d4 and d0, and z (6) combines
    a and d5 with ``z_op``; (d0, d4, d5) sit at the given addresses of one
    dual-port bank."""
    nodes = [s.SfgNode(0, K.INPUT, label="a"),
             s.SfgNode(1, K.MEMDATA, label="d0"),
             s.SfgNode(2, K.MEMDATA, label="d4"),
             s.SfgNode(3, K.MEMDATA, label="d5"),
             s.SfgNode(4, K.OPERATION, op="*", label="x"),
             s.SfgNode(5, K.OPERATION, op="*", label="y"),
             s.SfgNode(6, K.OPERATION, op=z_op, label="z"),
             s.SfgNode(7, K.OUTPUT, label="ox"),
             s.SfgNode(8, K.OUTPUT, label="oy"),
             s.SfgNode(9, K.OUTPUT, label="oz")]
    edges = [(0, 4, 0), (2, 4, 1), (0, 5, 0), (1, 5, 1), (0, 6, 0), (3, 6, 1),
             (4, 7, 0), (5, 8, 0), (6, 9, 0)]
    g = s.SFG(nodes, edges)
    lib = s.OperatorLibrary(classes=(s.OperatorClass("mult", frozenset("*"), 1),
                                     s.OperatorClass("add", frozenset("+"), 1)))
    spec = s.IoConstraintSpec.unconstrained(latency_bound=6)
    mspec = s.MappingSpec(
        mode="strict",
        banks=(s.Bank(id="bank0", ports=2, t_seq=1, t_rand=2),),
        placements=tuple(s.Placement(data, "bank0", address)
                         for data, address in zip((1, 2, 3), addresses)))
    mapping = s.apply_mapping(s.extract_memory_table(g), mspec)
    problem = s.lower(g, lib, spec)
    state = s.SchedulerState(cg=problem.cg, windows=problem.windows,
                             mapping=mapping,
                             table=s.PortAccessTable(mapping, spec.cadence),
                             allocation=s.Allocation(mode="auto"))
    _seed_pool(state, lib)
    return state


def _rank(state, ops, t=0):
    return list(s.rank_executable(state, ReadySet(state, ops), t))


def test_ranking_prefers_burst_enabler():
    state = _burst_fixture()
    # x reads address 4 and thereby turns z's read of 5 into a burst, so x
    # outranks the otherwise identical y and z
    assert _rank(state, [4, 5, 6]) == [4, 5, 6]
    assert _rank(state, [6, 5, 4])[0] == 4


def test_ranking_prefers_cheap_access_after_commit():
    state = _burst_fixture()
    assert s.assign_step(state, 4, 0) is not None
    # bank now sits at address 4: z (address 5) bursts, y (address 0) does
    # not; the multiplier is free again at cycle 1
    assert _rank(state, [5, 6], 1) == [6, 5]


def test_waiting_follow_up_reader_still_demotes_burst_flag():
    # y reads address 0 and z reads address 1: starting y keeps z's read in
    # burst mode, so y outranks x (address 5) even while z only waits for
    # the busy adder and is not ranked itself
    state = _burst_fixture(addresses=(0, 5, 1), z_op="+")
    state.instances["add"][0].busy_until = 1
    assert _rank(state, [4, 5, 6]) == [5, 4]
    assert _rank(state, [4, 5]) == [4, 5]


def test_waiting_reader_counts_in_the_walk():
    # At cycle 1 the multiplier is busy with m0, so z (reading address 1)
    # waits; y (address 0) still outranks the otherwise equal x (address 5)
    # because it starts the run z continues.
    names = ["a", "b", "d0", "d1", "d5", "m0", "p", "x", "y", "z", "q",
             "oq", "ox", "oy", "oz"]
    kinds = [K.INPUT] * 2 + [K.MEMDATA] * 3 + [K.OPERATION] * 6 + [K.OUTPUT] * 4
    ops = {"m0": "*", "p": "+", "x": "+", "y": "+", "z": "*", "q": "*"}
    nodes = [s.SfgNode(i, kind, op=ops.get(name), label=name)
             for i, (name, kind) in enumerate(zip(names, kinds))]
    edges = [(0, 5, 0), (1, 5, 1), (0, 6, 0), (1, 6, 1), (6, 7, 0), (4, 7, 1),
             (6, 8, 0), (2, 8, 1), (0, 9, 0), (3, 9, 1), (5, 10, 0),
             (1, 10, 1), (10, 11, 0), (7, 12, 0), (8, 13, 0), (9, 14, 0)]
    g = s.SFG(nodes, edges)
    lib = s.OperatorLibrary(classes=(
        s.OperatorClass("mult", frozenset("*"), 4),
        s.OperatorClass("add", frozenset("+"), 1)))
    spec = s.IoConstraintSpec.unconstrained(latency_bound=20)
    mapping = s.apply_mapping(s.extract_memory_table(g), s.MappingSpec(
        mode="strict", banks=(s.Bank(id="bank0", ports=1, t_seq=1, t_rand=2),),
        placements=(s.Placement(2, "bank0", 0), s.Placement(3, "bank0", 1),
                    s.Placement(4, "bank0", 5))))
    sched = s.schedule(g, lib, spec, mapping)
    assert [(o.label, o.start) for o in sched.ops] == [
        ("m0", 0), ("p", 0), ("y", 1), ("x", 2), ("q", 4), ("z", 8)]
    assert s.verify_schedule(sched, g, lib, spec, mapping) == []


def _long_multiply_problem():
    """Two independent products on a 10-cycle multiplier within a
    15-cycle bound: both have their latest start at cycle 5."""
    nodes = [s.SfgNode(0, K.INPUT, label="a"),
             s.SfgNode(1, K.INPUT, label="b"),
             s.SfgNode(2, K.OPERATION, op="*", label="m1"),
             s.SfgNode(3, K.OPERATION, op="*", label="m2"),
             s.SfgNode(4, K.OUTPUT, label="y1"),
             s.SfgNode(5, K.OUTPUT, label="y2")]
    edges = [(0, 2, 0), (1, 2, 1), (0, 3, 0), (0, 3, 1), (2, 4, 0), (3, 5, 0)]
    g = s.SFG(nodes, edges)
    lib = s.OperatorLibrary(classes=(
        s.OperatorClass("mult", frozenset("*"), 10),))
    spec = s.IoConstraintSpec.unconstrained(latency_bound=15)
    mapping = s.apply_mapping(s.extract_memory_table(g),
                              s.MappingSpec(mode="auto", banks=()))
    return g, lib, spec, mapping


def test_idle_stretch_keeps_allocation_and_abort_cycles(monkeypatch):
    g, lib, spec, mapping = _long_multiply_problem()
    ranked_at = []
    rank = scheduling.rank_executable

    def spy(state, ready, t):
        ranked_at.append(t)
        return rank(state, ready, t)

    monkeypatch.setattr(scheduling, "rank_executable", spy)
    sched = s.schedule(g, lib, spec, mapping)
    # m1 takes the only multiplier until cycle 10; m2 waits, and cycles 1-4
    # are skipped, but it still grows the pool when its slack runs out
    assert ranked_at == [0, 5]
    assert [(o.label, o.start, o.instance) for o in sched.ops] == \
        [("m1", 0, "mult0"), ("m2", 5, "mult1")]
    assert sched.allocation_events == (
        s.AllocationEvent(cycle=5, op_class="mult", instance="mult1"),)
    assert s.verify_schedule(sched, g, lib, spec, mapping) == []

    with pytest.raises(s.ScheduleFailure) as err:
        s.schedule(g, lib, spec, mapping, s.parse_allocation("fixed:mult=1"))
    assert (err.value.reason, err.value.cycle, err.value.operation) == \
        ("fixed-allocation-exhausted", 5, 3)


def test_assign_step_delays_when_instance_busy():
    state = _burst_fixture()
    assert s.assign_step(state, 4, 0) is not None
    before = len(state.accesses)
    # margin is positive and the only multiplier is busy: defer, do not grow
    assert s.assign_step(state, 5, 0) is None
    assert len(state.accesses) == before
    assert 5 not in state.started
    # the deferred attempt consumed no sequence number
    assert s.assign_step(state, 5, 1) is not None
    assert state.accesses[before].seq == before + 1


def test_unconstrained_transfers_are_just_in_time(pairsum_graph, pairsum_lib,
                                                  map_twobank):
    spec = s.IoConstraintSpec.unconstrained(latency_bound=5)
    sched = s.schedule(pairsum_graph, pairsum_lib, spec, map_twobank)
    starts = {o.label: o.start for o in sched.ops}
    assert starts == {"m1": 0, "m2": 1, "add1": 2}  # single multiplier, slack
    by_node = {t.node: t for t in sched.transfers}
    a = pairsum_graph.node_by_label("a").id
    b = pairsum_graph.node_by_label("b").id
    c = pairsum_graph.node_by_label("c").id
    assert by_node[a].cycle == 0 and by_node[a].direction == "in"
    assert by_node[b].cycle == 1
    assert by_node[c].cycle == 2  # produced with the adder's last cycle
    assert all(t.synthesized for t in sched.transfers)
    # one synthesized bus per direction suffices at this issue rate
    assert {t.bus for t in sched.transfers} == {"auto_in0", "auto_out0"}
    assert sched.achieved_latency == 3
    assert sched.pool_counts() == {"mult": 1, "add": 1}


def test_written_value_gates_reader():
    nodes = [s.SfgNode(0, K.INPUT, label="a"),
             s.SfgNode(1, K.OPERATION, op="+", label="o0"),
             s.SfgNode(2, K.MEMDATA, label="w0"),
             s.SfgNode(3, K.OPERATION, op="+", label="o1"),
             s.SfgNode(4, K.OUTPUT, label="y")]
    edges = [(0, 1, 0), (0, 1, 1), (1, 2, 0), (2, 3, 0), (0, 3, 1), (3, 4, 0)]
    g = s.SFG(nodes, edges)
    lib = s.OperatorLibrary(classes=(s.OperatorClass("add", frozenset("+"), 1),))
    spec = s.IoConstraintSpec.unconstrained(latency_bound=6)
    mapping = s.apply_mapping(s.extract_memory_table(g), s.MappingSpec(
        mode="auto", banks=(s.Bank(id="b0", ports=1, t_seq=1, t_rand=2),)))
    sched = s.schedule(g, lib, spec, mapping)
    starts = {o.label: o.start for o in sched.ops}
    # o0 completes at 1, the store occupies cycle 1, o1 may read at 2
    assert starts == {"o0": 0, "o1": 2}
    kinds = {(a.kind, a.cycle) for a in sched.accesses}
    assert kinds == {("write", 1), ("read", 2)}
    assert s.verify_schedule(sched, g, lib, spec, mapping) == []


def test_schedule_is_deterministic(pairsum_graph, pairsum_lib, io_lat3,
                                   map_onebank):
    a = _run(pairsum_graph, pairsum_lib, io_lat3, map_onebank).to_json()
    b = _run(pairsum_graph, pairsum_lib, io_lat3, map_onebank).to_json()
    assert a == b
    for seed in range(8):
        p = random_problem(seed)
        try:
            x = p.run_scheduler().to_json()
        except s.ScheduleFailure as e:
            assert str(e) == str(_rerun_failure(p))
            continue
        assert x == p.run_scheduler().to_json()


def _rerun_failure(p):
    try:
        p.run_scheduler()
    except s.ScheduleFailure as e:
        return e
    raise AssertionError("expected the rerun to fail identically")


def test_pool_equals_seed_plus_growth_events():
    for seed in range(40):
        p = random_problem(seed)
        try:
            sched = p.run_scheduler()
        except s.ScheduleFailure:
            continue
        used = {p.lib.select(n.op).name for n in p.g.operations}
        grown = {}
        for ev in sched.allocation_events:
            grown[ev.op_class] = grown.get(ev.op_class, 0) + 1
        if p.allocation.mode == "auto":
            for cls, count in sched.pool_counts().items():
                assert count == 1 + grown.get(cls, 0)
            assert set(sched.pool_counts()) == used
        else:
            caps = dict(p.allocation.counts)
            assert sched.allocation_events == ()
            for cls, count in sched.pool_counts().items():
                assert count == caps[cls]


def test_starts_stay_inside_windows():
    for seed in range(40):
        p = random_problem(seed)
        try:
            sched = p.run_scheduler()
        except s.ScheduleFailure:
            continue
        w = s.lower(p.g, p.lib, p.spec).windows
        for o in sched.ops:
            assert w.asap[o.node] <= o.start <= w.alap[o.node]


def test_tighter_bound_never_needs_fewer_operators(fft_lib):
    g = s.generate_fft_sfg(16)
    banks = tuple(s.Bank(id=f"bank{i}", ports=256, t_seq=1, t_rand=1)
                  for i in range(8))
    mapping = s.apply_mapping(s.extract_memory_table(g),
                              s.MappingSpec(mode="auto", banks=banks))
    totals = []
    for bound in (16, 22, 76, 160):
        spec = s.IoConstraintSpec.unconstrained(latency_bound=bound)
        sched = s.schedule(g, fft_lib, spec, mapping)
        assert s.verify_schedule(sched, g, fft_lib, spec, mapping) == []
        pool = sched.pool_counts()
        totals.append((bound, sum(pool.values()), pool))
    for (b1, t1, p1), (b2, t2, p2) in zip(totals, totals[1:]):
        assert t1 >= t2, totals
    assert totals[0][1] > totals[-1][1], totals


def test_pass_through_schedule(pairsum_lib):
    g = s.SFG([s.SfgNode(0, K.INPUT, label="x"),
               s.SfgNode(1, K.OUTPUT, label="y")], [(0, 1, 0)])
    spec = s.IoConstraintSpec.unconstrained(latency_bound=2)
    mapping = s.apply_mapping(s.extract_memory_table(g),
                              s.MappingSpec(mode="auto", banks=()))
    sched = s.schedule(g, pairsum_lib, spec, mapping)
    assert sched.ops == ()
    assert sched.achieved_latency == 1
    assert s.estimate_registers(sched, g) == 2
    assert s.verify_schedule(sched, g, pairsum_lib, spec, mapping) == []


def test_pass_through_rejects_impossible_deadline(pairsum_lib):
    g = s.SFG([s.SfgNode(0, K.INPUT, label="x"),
               s.SfgNode(1, K.OUTPUT, label="y")], [(0, 1, 0)])
    spec = s.IoConstraintSpec(
        buses=(s.BusDef(id="bi", direction="in"),
               s.BusDef(id="bo", direction="out")),
        transfers=(s.Transfer(0, "bi", 2), s.Transfer(1, "bo", 0)),
        cadence=4, latency_bound=4)
    mapping = s.apply_mapping(s.extract_memory_table(g),
                              s.MappingSpec(mode="auto", banks=()))
    with pytest.raises(s.ScheduleFailure) as exc:
        s.schedule(g, pairsum_lib, spec, mapping)
    assert exc.value.reason == "infeasible-windows"


def _port_view_run(inputs, memory, ops, latencies, alloc, bound):
    """Schedule ops on one dual-port bank (t_seq 1, t_rand 2) and return
    (label, start) pairs in start order.

    ``inputs`` maps input names to arrival cycles, ``memory`` memdata names
    to addresses, and ``ops`` lists (name, symbol, lhs, rhs, written
    memdata or None); an op whose result feeds no other op drives an
    output.  ``latencies`` gives the mult, add and sub latencies."""
    names = [*inputs, *memory, *(op[0] for op in ops)]
    ids = {name: i for i, name in enumerate(names)}
    nodes = [s.SfgNode(ids[n], K.INPUT, label=n) for n in inputs]
    nodes += [s.SfgNode(ids[n], K.MEMDATA, label=n) for n in memory]
    nodes += [s.SfgNode(ids[n], K.OPERATION, op=sym, label=n)
              for n, sym, _, _, _ in ops]
    edges = []
    for name, _, lhs, rhs, written in ops:
        edges += [(ids[lhs], ids[name], 0), (ids[rhs], ids[name], 1)]
        if written:
            edges.append((ids[name], ids[written], 0))
    consumed = {operand for _, _, lhs, rhs, _ in ops for operand in (lhs, rhs)}
    for name, *_ in ops:
        if name not in consumed:
            out = len(nodes)
            nodes.append(s.SfgNode(out, K.OUTPUT, label=f"o_{name}"))
            edges.append((ids[name], out, 0))
    g = s.SFG(nodes, edges)
    lib = s.OperatorLibrary(classes=tuple(
        s.OperatorClass(cls, frozenset(sym), lat) for cls, sym, lat in
        zip(("mult", "add", "sub"), "*+-", latencies)))
    spec = s.IoConstraintSpec(
        buses=tuple(s.BusDef(f"in_{n}", "in") for n in inputs),
        transfers=tuple(s.Transfer(ids[n], f"in_{n}", at)
                        for n, at in inputs.items()),
        cadence=bound, latency_bound=bound)
    bank = s.Bank(id="bank0", ports=2, t_seq=1, t_rand=2)
    mapping = s.apply_mapping(s.extract_memory_table(g), s.MappingSpec(
        mode="strict", banks=(bank,),
        placements=tuple(s.Placement(ids[n], "bank0", address)
                         for n, address in memory.items())))
    sched = s.schedule(g, lib, spec, mapping, s.parse_allocation(alloc))
    assert s.verify_schedule(sched, g, lib, spec, mapping) == []
    return [(o.label, o.start) for o in sched.ops]


def test_commit_does_not_reorder_a_later_tie_group():
    # p reads address 9 at cycle 0.  At cycle 1, x (tighter window) writes
    # address 4, after which z's read of 5 would be a burst; but y and z
    # are ranked as the table stood when the cycle began, both random,
    # so y (the lower id) takes the only subtractor.
    starts = _port_view_run(
        inputs={"a": 0, "b": 1},
        memory={"d9": 9, "d1": 1, "d5": 5, "w4": 4},
        ops=[("p", "+", "a", "d9", None), ("x", "+", "b", "b", "w4"),
             ("x2", "+", "x", "b", None), ("x3", "+", "x2", "b", None),
             ("y", "-", "b", "d1", None), ("z", "-", "b", "d5", None)],
        latencies=(2, 1, 1), alloc="auto", bound=9)
    assert starts == [("p", 0), ("x", 1), ("y", 1), ("x2", 2), ("x3", 3),
                      ("z", 3)]


def test_commit_does_not_unblock_an_op_in_the_same_cycle():
    # m1 and m2 write addresses 40 and 50 at cycle 2, filling that slot.
    # At cycle 1, z's read of 52 is random and needs slots 1 and 2, so it
    # is blocked.  x's write of 51 (committed first, tighter window) would
    # turn that read into a one-slot burst, but z still may not start
    # before the slots free up at cycle 4.
    starts = _port_view_run(
        inputs={"a": 0, "b": 1},
        memory={"w40": 40, "w50": 50, "w51": 51, "d52": 52},
        ops=[("m1", "*", "a", "a", "w40"), ("m2", "*", "a", "a", "w50"),
             ("x", "+", "b", "b", "w51"), ("x2", "+", "x", "b", None),
             ("x3", "+", "x2", "b", None), ("z", "-", "b", "d52", None)],
        latencies=(2, 2, 1), alloc="fixed:mult=2,add=1,sub=1", bound=12)
    assert starts == [("m1", 0), ("m2", 0), ("x", 1), ("x2", 3), ("z", 4),
                      ("x3", 5)]
