import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfgsched as s
from instances import random_problem

K = s.NodeKind
C = s.CgKind

ALU = s.OperatorLibrary(classes=(s.OperatorClass("alu", frozenset("+-*"), 1),))


def test_constraint_graph_structure(pairsum_graph, pairsum_lib):
    cg = s.build_constraint_graph(pairsum_graph, pairsum_lib)
    kinds = {}
    for n in cg.nodes.values():
        kinds.setdefault(n.kind, []).append(n.id)
    assert len(kinds[C.INPUT]) == 2
    assert len(kinds[C.OP]) == 3
    assert len(kinds[C.OUTPUT]) == 1
    assert len(kinds[C.READ]) == 2
    assert C.WRITE not in kinds
    # operations, inputs, outputs keep their graph ids
    assert set(kinds[C.OP]) == {4, 5, 6}
    m1 = pairsum_graph.node_by_label("m1").id
    reads, writes = cg.accesses_of(m1)
    assert writes == []
    assert len(reads) == 1
    rd = reads[0]
    assert rd.agent == m1
    assert rd.data == pairsum_graph.node_by_label("var1").id
    assert cg.nodes[m1].op_class == "mult"
    assert cg.nodes[m1].latency == 1


def test_directly_built_invalid_graph_is_rejected():
    """A graph that never went through parse_sfg is validated on first use."""
    g = s.SFG([s.SfgNode(0, K.INPUT), s.SfgNode(1, K.OPERATION, op="*"),
               s.SfgNode(2, K.OUTPUT)], [(0, 1, 0), (1, 2, 0)])
    for _ in range(2):  # the kept result rejects the second build too
        with pytest.raises(ValueError, match="invalid SFG: operation node 1"):
            s.build_constraint_graph(g, ALU)


def test_edge_weights(pairsum_graph, pairsum_lib, io_lat3):
    cg = s.lower(pairsum_graph, pairsum_lib, io_lat3).cg
    a, m1, add1, c = (pairsum_graph.node_by_label(x).id
                      for x in ("a", "m1", "add1", "c"))
    rd = cg.accesses_of(m1)[0][0].id
    assert cg.edge_weight(a, m1) == 0       # value usable the arrival cycle
    assert cg.edge_weight(rd, m1) == 0      # read feeds the consumer directly
    assert cg.edge_weight(m1, add1) == 1    # full operator latency
    assert cg.edge_weight(add1, c) == 0     # drive the bus while producing


def test_windows_match_hand_computed_values(pairsum_graph, pairsum_lib, io_lat3):
    w = s.lower(pairsum_graph, pairsum_lib, io_lat3).windows
    expect = {4: (0, 1), 5: (0, 1), 6: (1, 2), 7: (1, 2)}
    for nid, (lo, hi) in expect.items():
        assert (w.asap[nid], w.alap[nid]) == (lo, hi)
        assert w.mobility[nid] == hi - lo == 1


def test_access_windows_follow_their_operation(pairsum_graph, pairsum_lib, io_lat3):
    problem = s.lower(pairsum_graph, pairsum_lib, io_lat3)
    cg, w = problem.cg, problem.windows
    for n in cg.nodes.values():
        if n.kind is C.READ:
            assert w.asap[n.id] == w.asap[n.agent]
            assert w.alap[n.id] == w.alap[n.agent]


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
    r0, w0 = cg.accesses_of(1)
    assert len(w0) == 1 and not r0
    r1, w1 = cg.accesses_of(3)
    assert len(r1) == 1 and not w1
    # the stored value chains writer -> read -> consumer
    assert r1[0].id in cg.successors(w0[0].id)


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


def test_apply_io_constraints_sets_dates(pairsum_graph, pairsum_lib, io_lat3):
    cg = s.lower(pairsum_graph, pairsum_lib, io_lat3).cg
    a = pairsum_graph.node_by_label("a").id
    c = pairsum_graph.node_by_label("c").id
    assert cg.nodes[a].arrival == 0
    assert cg.nodes[c].deadline == 2
    assert cg.latency_bound == 3


def test_apply_io_constraints_defaults_without_transfers(pairsum_graph, pairsum_lib):
    spec = s.IoConstraintSpec.unconstrained(latency_bound=5)
    cg = s.lower(pairsum_graph, pairsum_lib, spec).cg
    c = pairsum_graph.node_by_label("c").id
    assert cg.nodes[c].deadline == 4  # free outputs only face the bound
    assert cg.nodes[pairsum_graph.node_by_label("a").id].arrival == 0


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


def test_apply_io_constraints_idempotent(pairsum_graph, pairsum_lib, io_lat3):
    problem = s.lower(pairsum_graph, pairsum_lib, io_lat3)
    cg1, w1 = problem.cg, problem.windows
    tg = s.build_transfer_graph(io_lat3)
    cg2 = s.apply_io_constraints(cg1, tg, io_lat3)
    w2 = s.compute_time_windows(cg2)
    assert w1.asap == w2.asap and w1.alap == w2.alap
    assert {i: n.deadline for i, n in cg1.nodes.items()} == \
           {i: n.deadline for i, n in cg2.nodes.items()}


def test_windows_by_id_are_built_on_first_read(pairsum_graph, pairsum_lib,
                                               io_lat3):
    problem = s.lower(pairsum_graph, pairsum_lib, io_lat3)
    cg, w = problem.cg, problem.windows
    assert {"asap", "alap", "mobility"}.isdisjoint(vars(w))
    ids = [n.id for n in cg.nodes.values()]
    assert w.asap == {i: w.asap_at[cg.at[i]] for i in ids}
    assert w.mobility == {i: w.alap[i] - w.asap[i] for i in ids}
    assert w.alap == {i: w.alap_at[cg.at[i]] for i in ids}
    assert list(w.asap) == [cg.ids[p] for p in cg.order]  # topological


def test_feasibility_worked_example(pairsum_graph, pairsum_lib, io_lat3, io_lat2):
    for spec in (io_lat3, io_lat2):
        problem = s.lower(pairsum_graph, pairsum_lib, spec)
        rep = s.check_feasibility(problem.cg, problem.windows, spec)
        # the 2-cycle variant passes the static checks too; only the
        # memory-aware scheduler can expose its infeasibility
        assert rep.cadence_ok and rep.output_dates_ok and rep.feasible
        assert rep.critical_path_cycles == 2


def test_feasibility_catches_short_bound(pairsum_graph, pairsum_lib):
    spec = s.IoConstraintSpec.unconstrained(latency_bound=1)
    problem = s.lower(pairsum_graph, pairsum_lib, spec)
    rep = s.check_feasibility(problem.cg, problem.windows, spec)
    assert not rep.cadence_ok and not rep.feasible
    assert rep.critical_path_cycles == 2
    assert rep.diagnostics


def test_feasibility_catches_early_deadline(pairsum_graph, pairsum_lib):
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
    problem = s.lower(pairsum_graph, pairsum_lib, spec)
    rep = s.check_feasibility(problem.cg, problem.windows, spec)
    assert rep.cadence_ok and not rep.output_dates_ok and not rep.feasible
    assert any("c" in d or "7" in d for d in rep.diagnostics)


def test_feasibility_catches_pinned_transfers_past_the_bound(pairsum_graph,
                                                             pairsum_lib):
    """The latency runs from the first input transfer to the last output
    transfer: pinned offsets bound it from below, unpinned inputs only
    move its start earlier."""
    a, b, c = (pairsum_graph.node_by_label(x).id for x in "abc")
    buses = (s.BusDef("bi", "in"), s.BusDef("bo", "out"))

    def diagnose(transfers, bound):
        spec = s.IoConstraintSpec(buses, transfers, cadence=8,
                                  latency_bound=bound)
        problem = s.lower(pairsum_graph, pairsum_lib, spec)
        rep = s.check_feasibility(problem.cg, problem.windows, spec)
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
    for bound, ok in ((4, False), (5, True)):
        spec = s.IoConstraintSpec((s.BusDef("bo", "out"),),
                                  (s.Transfer(2, "bo", 4),), cadence=8,
                                  latency_bound=bound)
        problem = s.lower(g, ALU, spec)
        assert s.check_feasibility(problem.cg, problem.windows,
                                   spec).cadence_ok is ok


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
    problem = s.lower(p.g, p.lib, p.spec)
    cg, w = problem.cg, problem.windows
    for u in cg.nodes:
        for v in cg.successors(u):
            wt = cg.edge_weight(u, v)
            assert w.asap[v] >= w.asap[u] + wt
            assert w.alap[u] <= w.alap[v] - wt


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_feasible_problems_have_consistent_windows(seed):
    p = random_problem(seed)
    problem = s.lower(p.g, p.lib, p.spec)
    cg, w = problem.cg, problem.windows
    rep = s.check_feasibility(cg, w, p.spec)
    if rep.feasible:
        for n in cg.of_kind(s.CgKind.OP):
            assert w.asap[n.id] <= w.alap[n.id]


def test_static_checks_match_unlimited_resource_search():
    """With unconstrained operator counts and contention-free memory, the
    static checks decide schedulability exactly."""
    agree = 0
    for seed in range(60):
        p = random_problem(seed)
        table = s.extract_memory_table(p.g)
        banks = (s.Bank(id="wide", ports=64, t_seq=1, t_rand=1),)
        mapping = s.apply_mapping(table, s.MappingSpec(mode="auto", banks=banks))
        problem = s.lower(p.g, p.lib, p.spec)
        rep = s.check_feasibility(problem.cg, problem.windows, p.spec)
        bf = s.brute_force_min_latency(p.g, p.lib, p.spec, mapping,
                                       instances=None)
        assert rep.feasible == (bf is not None), f"seed {seed}"
        agree += 1
    assert agree == 60
