import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfgsched as s
from conftest import auto_banks
from instances import random_problem
from sfgsched.constraints import _weights_from as weights_from

K = s.NodeKind
C = s.CgKind

ALU = s.OperatorLibrary(classes=(s.OperatorClass("alu", frozenset("+-*"), 1),))


def test_constraint_graph_structure(pairsum_graph, pairsum_lib):
    cg = s.build_constraint_graph(pairsum_graph, pairsum_lib)
    kinds = {k: [n.id for n in cg.of_kind(k)] for k in C}
    assert len(kinds[C.INPUT]) == 2
    assert len(kinds[C.OP]) == 3
    assert len(kinds[C.OUTPUT]) == 1
    assert len(kinds[C.READ]) == 2
    assert kinds[C.WRITE] == []
    # operations, inputs, outputs keep their graph ids
    assert set(kinds[C.OP]) == {4, 5, 6}
    m1 = cg.at[pairsum_graph.node_by_label("m1").id]
    assert m1 not in cg.writes
    assert len(cg.reads[m1]) == 1
    rd = cg.reads[m1][0]
    assert cg.agent[rd] == m1
    assert cg.data[rd] == pairsum_graph.node_by_label("var1").id
    assert cg.op_class[m1] == "mult"
    assert cg.latency[m1] == 1


def test_directly_built_invalid_graph_is_rejected():
    """A graph that never went through parse_sfg is validated on first use."""
    g = s.SFG([s.SfgNode(0, K.INPUT), s.SfgNode(1, K.OPERATION, op="*"),
               s.SfgNode(2, K.OUTPUT)], [(0, 1, 0), (1, 2, 0)])
    for _ in range(2):  # the kept result rejects the second build too
        with pytest.raises(ValueError, match="invalid SFG: operation node 1"):
            s.build_constraint_graph(g, ALU)


def test_edge_weights(pairsum_graph, pairsum_lib, io_lat3, map_onebank):
    cg = s.lower(pairsum_graph, pairsum_lib, io_lat3, map_onebank).cg
    a, m1, add1, c = (cg.at[pairsum_graph.node_by_label(x).id]
                      for x in ("a", "m1", "add1", "c"))
    rd = cg.reads[m1][0]
    assert cg.pred[m1] == [a, rd] and m1 in cg.pred[add1] \
        and cg.pred[c] == [add1]
    # (into an output, into any other node), by the source's kind and latency
    weights = {p: weights_from(cg.kind[p], cg.latency[p])
               for p in (a, rd, m1, add1)}
    assert weights[a][1] == 0       # value usable the arrival cycle
    assert weights[rd][1] == 0      # read feeds the consumer directly
    assert weights[m1][1] == 1      # full operator latency
    assert weights[add1][0] == 0    # drive the bus while producing


def test_windows_match_hand_computed_values(pairsum_graph, pairsum_lib, io_lat3,
                                            map_onebank):
    problem = s.lower(pairsum_graph, pairsum_lib, io_lat3, map_onebank)
    cg, w = problem.cg, problem.windows
    expect = {4: (0, 1), 5: (0, 1), 6: (1, 2), 7: (1, 2)}
    for nid, (lo, hi) in expect.items():
        p = cg.at[nid]
        assert (w.asap_at[p], w.alap_at[p]) == (lo, hi)
        assert w.mobility_at[p] == hi - lo == 1


def test_access_windows_follow_their_operation(pairsum_graph, pairsum_lib,
                                               io_lat3, map_onebank):
    problem = s.lower(pairsum_graph, pairsum_lib, io_lat3, map_onebank)
    cg, w = problem.cg, problem.windows
    assert cg.positions[C.READ]
    for p in cg.positions[C.READ]:
        assert w.asap_at[p] == w.asap_at[cg.agent[p]]
        assert w.alap_at[p] == w.alap_at[cg.agent[p]]


def test_windows_require_latency_bound(pairsum_graph, pairsum_lib):
    cg = s.build_constraint_graph(pairsum_graph, pairsum_lib)
    with pytest.raises(ValueError):
        s.compute_time_windows(cg)


def test_write_nodes_created_for_stored_results():
    nodes = [s.SfgNode(0, K.INPUT, label="x"),
             s.SfgNode(1, K.OPERATION, op="+", label="o0"),
             s.SfgNode(2, K.MEMDATA, label="w0"),
             s.SfgNode(3, K.OPERATION, op="+", label="o1"),
             s.SfgNode(4, K.OUTPUT, label="y")]
    edges = [(0, 1, 0), (0, 1, 1), (1, 2, 0), (2, 3, 0), (0, 3, 1), (3, 4, 0)]
    g = s.SFG(nodes, edges)
    cg = s.build_constraint_graph(g, ALU)
    o0, o1 = cg.at[1], cg.at[3]
    assert len(cg.writes[o0]) == 1 and o0 not in cg.reads
    assert len(cg.reads[o1]) == 1 and o1 not in cg.writes
    # the stored value chains writer -> read -> consumer
    assert cg.reads[o1][0] in cg.succ[cg.writes[o0][0]]


@pytest.mark.parametrize("nodes,edges", [
    # memory straight to an output port
    ([s.SfgNode(0, K.MEMDATA, label="d"), s.SfgNode(1, K.OUTPUT)], [(0, 1, 0)]),
    # constant to an output port
    ([s.SfgNode(0, K.CONSTANT, label="k"), s.SfgNode(1, K.OUTPUT)], [(0, 1, 0)]),
    # input stored to memory without an operation
    ([s.SfgNode(0, K.INPUT), s.SfgNode(1, K.MEMDATA, label="d")], [(0, 1, 0)]),
    # constant stored to memory
    ([s.SfgNode(0, K.CONSTANT, label="k"), s.SfgNode(1, K.MEMDATA, label="d")],
     [(0, 1, 0)]),
    # memory-to-memory copy
    ([s.SfgNode(0, K.MEMDATA, label="d0"), s.SfgNode(1, K.MEMDATA, label="d1")],
     [(0, 1, 0)]),
    # two writers of one location
    ([s.SfgNode(0, K.INPUT), s.SfgNode(1, K.OPERATION, op="+"),
      s.SfgNode(2, K.OPERATION, op="-"), s.SfgNode(3, K.MEMDATA, label="d")],
     [(0, 1, 0), (0, 1, 1), (0, 2, 0), (0, 2, 1), (1, 3, 0), (2, 3, 0)]),
])
def test_unsupported_shapes_rejected(nodes, edges):
    g = s.SFG(nodes, edges)
    with pytest.raises(s.UnsupportedGraphError):
        s.build_constraint_graph(g, ALU)


def test_uncovered_symbol_raises(pairsum_graph):
    add_only = s.OperatorLibrary(classes=(s.OperatorClass("add", frozenset("+"), 1),))
    with pytest.raises(s.LibraryError):
        s.build_constraint_graph(pairsum_graph, add_only)
    # with '*' and '+' both uncovered, the first in symbol order is named
    sub_only = s.OperatorLibrary(classes=(s.OperatorClass("sub", frozenset("-"), 1),))
    with pytest.raises(s.LibraryError,
                       match=r"^no operator class executes '\*'$"):
        s.build_constraint_graph(pairsum_graph, sub_only)


def test_apply_io_constraints_sets_dates(pairsum_graph, pairsum_lib, io_lat3,
                                         map_onebank):
    cg = s.lower(pairsum_graph, pairsum_lib, io_lat3, map_onebank).cg
    a = pairsum_graph.node_by_label("a").id
    c = pairsum_graph.node_by_label("c").id
    assert cg.arrival[cg.at[a]] == 0
    assert cg.deadline[cg.at[c]] == 2
    assert (cg.latency_bound, cg.cadence) == (3, io_lat3.cadence)
    # every pinned transfer, by the position of its node
    assert cg.pinned == {cg.at[t.node]: t for t in io_lat3.transfers}
    assert len(cg.pinned) == 3 and cg.pinned[cg.at[c]].offset == 2
    # taken from the transfers given, not from the spec's own, which pin
    # c at cycle 2
    base = s.build_constraint_graph(pairsum_graph, pairsum_lib)
    only_a = tuple(t for t in io_lat3.transfers if t.node == a)
    wide = replace(io_lat3, cadence=5, latency_bound=5)
    cg = s.apply_io_constraints(base, only_a, wide)
    assert cg.pinned == {cg.at[a]: only_a[0]}
    assert cg.deadline[cg.at[c]] == 4  # unpinned: latency bound - 1
    assert base.pinned == {}  # the input graph is left as it was


def test_apply_io_constraints_defaults_without_transfers(pairsum_graph, pairsum_lib,
                                                         map_onebank):
    spec = s.IoConstraintSpec.unconstrained(latency_bound=5)
    cg = s.lower(pairsum_graph, pairsum_lib, spec, map_onebank).cg
    c = pairsum_graph.node_by_label("c").id
    assert cg.deadline[cg.at[c]] == 4  # free outputs only face the bound
    assert cg.arrival[cg.at[pairsum_graph.node_by_label("a").id]] == 0
    assert cg.pinned == {}


def test_apply_io_constraints_rejects_bad_transfers(pairsum_graph, pairsum_lib):
    base = s.build_constraint_graph(pairsum_graph, pairsum_lib)
    m1 = pairsum_graph.node_by_label("m1").id
    bad = s.IoConstraintSpec(
        buses=(s.BusDef(id="bi", direction="in"),),
        transfers=(s.Transfer(m1, "bi", 0),), cadence=3, latency_bound=3)
    with pytest.raises(ValueError):
        s.apply_io_constraints(base, s.build_transfer_graph(bad), bad)
    a = pairsum_graph.node_by_label("a").id
    dup = s.IoConstraintSpec(
        buses=(s.BusDef(id="b1", direction="in"), s.BusDef(id="b2", direction="in")),
        transfers=(s.Transfer(a, "b1", 0), s.Transfer(a, "b2", 1)),
        cadence=3, latency_bound=3)
    with pytest.raises(ValueError):
        s.apply_io_constraints(base, s.build_transfer_graph(dup), dup)
    # transfers given apart from the spec may name a bus it lacks
    spec = s.IoConstraintSpec.unconstrained(3)
    with pytest.raises(s.IoSpecError) as err:
        s.apply_io_constraints(base, (s.Transfer(a, "zz", 0),), spec)
    assert str(err.value) == f"transfer of node {a}: unknown bus 'zz'"


def test_apply_io_constraints_idempotent(pairsum_graph, pairsum_lib, io_lat3,
                                         map_onebank):
    problem = s.lower(pairsum_graph, pairsum_lib, io_lat3, map_onebank)
    cg1, w1 = problem.cg, problem.windows
    tg = s.build_transfer_graph(io_lat3)
    cg2 = s.apply_io_constraints(cg1, tg, io_lat3)
    w2 = s.compute_time_windows(cg2)
    assert w1.asap_at == w2.asap_at and w1.alap_at == w2.alap_at
    assert cg1.deadline == cg2.deadline and cg1.arrival == cg2.arrival


def test_windows_by_id_are_built_on_first_read(pairsum_graph, pairsum_lib,
                                               io_lat3, map_onebank):
    problem = s.lower(pairsum_graph, pairsum_lib, io_lat3, map_onebank)
    cg, w = problem.cg, problem.windows
    assert "asap" not in vars(w)
    assert w.asap == {cg.ids[p]: w.asap_at[p]
                      for p, k in enumerate(cg.kind) if k is not None}
    assert list(w.asap) == [cg.ids[p] for p in cg.order]  # topological


def test_feasibility_worked_example(pairsum_graph, pairsum_lib, io_lat3, io_lat2,
                                    map_onebank):
    for spec in (io_lat3, io_lat2):
        problem = s.lower(pairsum_graph, pairsum_lib, spec, map_onebank)
        rep = s.check_feasibility(problem)
        # the 2-cycle variant passes the static checks too; only the
        # memory-aware scheduler can expose its infeasibility
        assert rep.cadence_ok and rep.output_dates_ok and rep.feasible
        assert rep.critical_path_cycles == 2


def test_feasibility_catches_short_bound(pairsum_graph, pairsum_lib,
                                        map_onebank):
    spec = s.IoConstraintSpec.unconstrained(latency_bound=1)
    problem = s.lower(pairsum_graph, pairsum_lib, spec, map_onebank)
    rep = s.check_feasibility(problem)
    assert not rep.cadence_ok and not rep.feasible
    assert rep.critical_path_cycles == 2
    assert rep.diagnostics


def test_feasibility_catches_early_deadline(pairsum_graph, pairsum_lib,
                                            map_onebank):
    a = pairsum_graph.node_by_label("a").id
    b = pairsum_graph.node_by_label("b").id
    c = pairsum_graph.node_by_label("c").id
    spec = s.IoConstraintSpec(
        buses=(s.BusDef(id="bi", direction="in"),
               s.BusDef(id="bj", direction="in"),
               s.BusDef(id="bo", direction="out")),
        transfers=(s.Transfer(a, "bi", 0), s.Transfer(b, "bj", 0),
                   s.Transfer(c, "bo", 0)),
        cadence=3, latency_bound=3)
    problem = s.lower(pairsum_graph, pairsum_lib, spec, map_onebank)
    rep = s.check_feasibility(problem)
    assert rep.cadence_ok and not rep.output_dates_ok and not rep.feasible
    assert any("c" in d or "7" in d for d in rep.diagnostics)


def test_feasibility_catches_pinned_transfers_past_the_bound(pairsum_graph,
                                                             pairsum_lib,
                                                             map_onebank):
    """The latency runs from the first input transfer to the last output
    transfer: pinned offsets bound it from below, unpinned inputs only
    move its start earlier."""
    a, b, c = (pairsum_graph.node_by_label(x).id for x in "abc")
    buses = (s.BusDef("bi", "in"), s.BusDef("bo", "out"))

    def diagnose(transfers, bound):
        spec = s.IoConstraintSpec(buses, transfers, cadence=8,
                                  latency_bound=bound)
        problem = s.lower(pairsum_graph, pairsum_lib, spec, map_onebank)
        rep = s.check_feasibility(problem)
        pinned = [d for d in rep.diagnostics if "pinned" in d]
        assert not pinned or not rep.cadence_ok
        return pinned

    pinned = (s.Transfer(a, "bi", 2), s.Transfer(b, "bi", 3),
              s.Transfer(c, "bo", 6))
    assert diagnose(pinned, 5) == []
    assert diagnose(pinned, 4) == [
        "pinned transfers span 5 cycles (cycles 2 to 6), latency bound is 4"]
    # the earliest pinned input bounds the start: a unpinned may come
    # earlier than b, never later
    assert diagnose(pinned[1:], 4) == []
    assert diagnose(pinned[1:], 3) == [
        "pinned transfers span 4 cycles (cycles 3 to 6), latency bound is 3"]
    # no input pinned: they may all arrive as late as they are needed
    assert diagnose(pinned[2:], 2) == []

    # without inputs the span starts at cycle 0
    nodes = [s.SfgNode(0, K.MEMDATA, label="m"),
             s.SfgNode(1, K.OPERATION, op="+", label="s"),
             s.SfgNode(2, K.OUTPUT, label="y")]
    g = s.SFG(nodes, [(0, 1, 0), (0, 1, 1), (1, 2, 0)])
    mapping = auto_banks(g, 1)
    for bound, ok in ((4, False), (5, True)):
        spec = s.IoConstraintSpec((s.BusDef("bo", "out"),),
                                  (s.Transfer(2, "bo", 4),), cadence=8,
                                  latency_bound=bound)
        problem = s.lower(g, ALU, spec, mapping)
        assert s.check_feasibility(problem).cadence_ok is ok


def test_feasibility_reports_offsets_outside_the_cadence(pairsum_graph):
    """A spec built directly, as the benchmark builds them, checks its
    offsets itself: one at or past the cadence never reaches the static
    checks."""
    a, b = (pairsum_graph.node_by_label(x).id for x in "ab")
    for offset in (4, 5):
        with pytest.raises(s.IoSpecError) as err:
            s.IoConstraintSpec(
                (s.BusDef("bi", "in"),),
                (s.Transfer(a, "bi", 0), s.Transfer(b, "bi", offset)),
                cadence=4, latency_bound=8)
        assert str(err.value) == \
            f"transfer of node {b} at offset {offset} outside cadence 4"


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_window_edge_inequalities(seed):
    p = random_problem(seed)
    problem = s.lower(p.g, p.lib, p.spec, p.mapping)
    cg, w = problem.cg, problem.windows
    for u, vs in enumerate(cg.succ):
        to_output, other = weights_from(cg.kind[u], cg.latency[u])
        for v in vs:
            wt = to_output if cg.kind[v] is C.OUTPUT else other
            assert w.asap_at[v] >= w.asap_at[u] + wt
            assert w.alap_at[u] <= w.alap_at[v] - wt


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_feasible_problems_have_consistent_windows(seed):
    p = random_problem(seed)
    problem = s.lower(p.g, p.lib, p.spec, p.mapping)
    cg, w = problem.cg, problem.windows
    rep = s.check_feasibility(problem)
    if rep.feasible:
        for p in cg.positions[C.OP]:
            assert w.asap_at[p] <= w.alap_at[p]


def test_static_checks_match_unlimited_resource_search():
    """With unconstrained operator counts and contention-free memory, the
    static checks decide schedulability exactly."""
    agree = 0
    for seed in range(60):
        p = random_problem(seed)
        table = s.extract_memory_table(p.g)
        banks = (s.Bank(id="wide", ports=64, t_seq=1, t_rand=1),)
        mapping = s.apply_mapping(table, s.MappingSpec(mode="auto", banks=banks))
        problem = s.lower(p.g, p.lib, p.spec, mapping)
        rep = s.check_feasibility(problem)
        bf = s.brute_force_min_latency(p.g, p.lib, p.spec, mapping,
                                       instances=None)
        assert rep.feasible == (bf is not None), f"seed {seed}"
        agree += 1
    assert agree == 60


def test_static_checks_match_the_search_on_slow_banks():
    """The port-horizon part of the static checks is exact: with unlimited
    operators and one wide bank whose every access costs ``t_seq`` cycles,
    they decide schedulability as the search does on problems without a
    memory write, at cadences short enough for the horizon to bind.  (A
    write's reader waits for the write's real cost, and the windows weigh
    a write with the optimistic access latency, so writes stay out.)"""
    late = 0
    for seed in range(60):
        p = random_problem(seed)
        if s.build_constraint_graph(p.g, p.lib).positions[C.WRITE]:
            continue
        for t_seq in (2, 3):
            banks = (s.Bank(id="wide", ports=64, t_seq=t_seq, t_rand=t_seq),)
            mapping = s.apply_mapping(s.extract_memory_table(p.g),
                                      s.MappingSpec(mode="auto", banks=banks))
            for cadence in {p.spec.cadence // 2, p.spec.cadence // 3} - {0}:
                if any(tr.offset >= cadence for tr in p.spec.transfers):
                    continue
                spec = replace(p.spec, cadence=cadence)
                rep = s.check_feasibility(s.lower(p.g, p.lib, spec, mapping))
                bf = s.brute_force_min_latency(p.g, p.lib, spec, mapping)
                assert rep.feasible == (bf is not None), \
                    (seed, t_seq, cadence)
                late += any(d.startswith("access ") for d in rep.diagnostics)
    assert late >= 10
