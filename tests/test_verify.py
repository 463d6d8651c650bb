import json
import time
import tracemalloc
from dataclasses import replace

import pytest

import sfgsched as s
import experiments
from instances import random_fft_problem, random_problem
from mutations import (CAP_MUTATIONS, DECLARED_BUS_MUTATIONS,
                       FREE_IO_MUTATIONS, MUTATIONS, WRITE_MUTATIONS,
                       fixed_allocation)

AUTO = s.Allocation(mode="auto")


@pytest.fixture(scope="module")
def golden_lat3(pairsum_graph, pairsum_lib, io_lat3, map_onebank):
    sched = s.schedule(pairsum_graph, pairsum_lib, io_lat3, map_onebank)
    return sched, s.lower(pairsum_graph, pairsum_lib, io_lat3, map_onebank)


@pytest.fixture(scope="module")
def golden_lat2(pairsum_graph, pairsum_lib, io_lat2, map_twobank):
    sched = s.schedule(pairsum_graph, pairsum_lib, io_lat2, map_twobank)
    return sched, s.lower(pairsum_graph, pairsum_lib, io_lat2, map_twobank)


@pytest.fixture(scope="module")
def gated_write():
    """o0 writes w0 and o1 reads it back; every transfer is synthesized."""
    K = s.NodeKind
    nodes = [s.SfgNode(0, K.INPUT, label="a"),
             s.SfgNode(1, K.OPERATION, op="+", label="o0"),
             s.SfgNode(2, K.MEMDATA, label="w0"),
             s.SfgNode(3, K.OPERATION, op="+", label="o1"),
             s.SfgNode(4, K.OUTPUT, label="y")]
    edges = [(0, 1, 0), (0, 1, 1), (1, 2, 0), (2, 3, 0), (0, 3, 1), (3, 4, 0)]
    g = s.SFG(nodes, edges)
    lib = s.OperatorLibrary(
        classes=(s.OperatorClass("add", frozenset("+"), 1),))
    spec = s.IoConstraintSpec.unconstrained(latency_bound=6)
    mapping = s.apply_mapping(s.extract_memory_table(g), s.MappingSpec(
        mode="auto", banks=(s.Bank(id="b0", ports=1, t_seq=1, t_rand=2),)))
    return s.schedule(g, lib, spec, mapping), s.lower(g, lib, spec, mapping)


@pytest.fixture(scope="module")
def spare_bus(pairsum_graph, pairsum_lib, map_twobank):
    """Only ``a`` is pinned, on ``inA``; ``outC`` is declared but carries
    nothing, and ``b`` goes on ``auto_in0`` at cycle 1."""
    spec = s.IoConstraintSpec(
        buses=(s.BusDef("inA", "in"), s.BusDef("outC", "out")),
        transfers=(s.Transfer(pairsum_graph.node_by_label("a").id, "inA",
                              0),),
        cadence=4, latency_bound=4)
    sched = s.schedule(pairsum_graph, pairsum_lib, spec, map_twobank)
    return sched, s.lower(pairsum_graph, pairsum_lib, spec, map_twobank)


@pytest.fixture(scope="module")
def free_io(pairsum_graph, pairsum_lib, map_twobank):
    """Every transfer synthesized: ``a`` and ``b`` on ``auto_in0`` at
    cycles 0 and 1, ``c`` on ``auto_out0`` at cycle 2."""
    spec = s.IoConstraintSpec.unconstrained(3)
    sched = s.schedule(pairsum_graph, pairsum_lib, spec, map_twobank)
    return sched, s.lower(pairsum_graph, pairsum_lib, spec, map_twobank)


def test_clean_schedules_verify(golden_lat3, golden_lat2, gated_write,
                                spare_bus, free_io):
    for sched, problem in (golden_lat3, golden_lat2, gated_write, spare_bus,
                           free_io):
        assert s.verify_schedule(sched, problem, AUTO) == []


@pytest.mark.parametrize("name,mutate", MUTATIONS)
@pytest.mark.parametrize("which", ["lat3", "lat2"])
def test_mutations_are_caught(name, mutate, which, golden_lat3, golden_lat2):
    sched, problem = golden_lat3 if which == "lat3" else golden_lat2
    broken = mutate(sched)
    assert broken.to_json() != sched.to_json(), name
    violations = s.verify_schedule(broken, problem, AUTO)
    assert violations, f"{name} slipped through on {which}"


@pytest.mark.parametrize("name,mutate", MUTATIONS)
@pytest.mark.parametrize("which", ["lat3", "lat2"])
def test_shared_problem_finds_the_same_violations(name, mutate, which,
                                                  golden_lat3, golden_lat2):
    """A problem the scheduler has read gives the verifier what a fresh
    lowering of the same documents gives it."""
    sched, problem = golden_lat3 if which == "lat3" else golden_lat2
    docs = (problem.g, problem.lib, problem.spec, problem.mapping)
    shared = s.lower(*docs)
    s.schedule(*docs, AUTO, shared)
    broken = mutate(sched)
    assert s.verify_schedule(broken, shared, AUTO) == \
        s.verify_schedule(broken, s.lower(*docs), AUTO)


@pytest.mark.parametrize("which", ["lat3", "lat2"])
def test_schedule_leaves_the_shared_problem_unchanged(which, golden_lat3,
                                                      golden_lat2):
    sched, fixture = golden_lat3 if which == "lat3" else golden_lat2
    docs = (fixture.g, fixture.lib, fixture.spec, fixture.mapping)
    problem = s.lower(*docs)
    shared = s.schedule(*docs, AUTO, problem=problem)
    assert shared.to_json() == sched.to_json()
    assert s.verify_schedule(shared, problem, AUTO) == []
    fresh = s.lower(*docs)
    for column in ("asap_at", "alap_at", "mobility_at"):
        assert getattr(problem.windows, column) == \
            getattr(fresh.windows, column)
    assert vars(problem.cg) == vars(fresh.cg)  # every column
    assert vars(problem.ops) == vars(fresh.ops)  # every op-table column
    # the documents are kept as given
    assert all(a is b for a, b in zip(
        (problem.g, problem.lib, problem.spec, problem.mapping), docs))


# Per mutation, every kind it is flagged with on the lat3 golden, and a
# piece of the message of each check it is there to fire.
SPECIFIC = [
    ("duplicated-operation", {"unscheduled"}, ["scheduled twice"]),
    ("non-operation-record", {"unscheduled"}, ["non-operation node"]),
    ("wrong-operation-latency", {"unscheduled"}, ["library says mult/1"]),
    ("early-start", {"dependency", "window"},
     ["before its producer 4 completes", "earliest possible start is 1"]),
    ("start-before-input", {"dependency", "io-timing", "window"},
     ["before input b arrives", "before input b is transferred"]),
    ("duplicated-access", {"port-overlap", "access-cost"},
     ["access reserved twice"]),
    ("dropped-access", {"port-overlap"}, ["no reservation for rd:var1"]),
    ("access-past-horizon", {"dependency", "port-overlap"},
     ["runs past the iteration horizon"]),
    ("foreign-instance", {"operator-overlap", "pool"},
     ["instance mult0 used as ['add', 'mult']"]),
    ("duplicated-transfer", {"io-timing"}, ["node transferred twice"]),
    ("dropped-transfer", {"io-timing"}, ["no transfer for c"]),
    ("stray-transfer", {"io-timing"},
     ["transfer of a node that is no input or output"]),
    ("stray-access", {"port-overlap", "access-cost"},
     ["reservation for a non-access node"]),
    ("flipped-direction", {"record"}, ["recorded as out"]),
    ("flipped-synthesized", {"record"}, ["synthesized True, the"]),
    ("wrong-access-op", {"record"},
     ["rd:var2 of operation 5 recorded as read of 'var2' by operation 4"]),
    ("wrong-access-kind", {"record"}, ["recorded as write"]),
    ("wrong-data-label", {"record"}, ["'var2x'"]),
    ("wrong-operation-label", {"record"}, ["labelled 'm2x'"]),
    ("unknown-bank", {"port-overlap"}, ["bank nobank, which the mapping "
                                       "lacks"]),
]

# The same on the gated-write schedule.
SPECIFIC_WRITE = [
    ("shifted-write", {"dependency", "port-overlap"},
     ["write wr:w0 at cycle 2, its producer completes at 1"]),
    ("reader-before-write", {"dependency", "port-overlap", "window"},
     ["reads w0 at 1 before the write finishes at 2"]),
    ("flipped-synthesized", {"record"}, ["synthesized False, the"]),
]

# The same on the schedule with a declared bus that carries nothing.
SPECIFIC_DECLARED_BUS = [
    ("synthesized-on-declared-bus", {"record"},
     ["b synthesized on declared bus outC"]),
]

# The same on the schedule with free I/O.
SPECIFIC_FREE_IO = [
    ("output-on-input-bus", {"bus-overlap"},
     ["bus auto_in0 carries in and out transfers"]),
]


def test_mutation_kinds_are_specific(golden_lat3, gated_write, spare_bus,
                                     free_io):
    sched, problem = golden_lat3
    from mutations import (late_start, corrupt_access_cost, drop_operation,
                           shift_output_transfer, collapse_sequence_numbers,
                           shrink_pool, wrong_cadence, wrong_latency_bound,
                           late_output_transfer)

    def kinds_of(broken):
        return {v.kind for v in s.verify_schedule(broken, problem, AUTO)}
    assert "window" in kinds_of(late_start(sched))
    assert "access-cost" in kinds_of(corrupt_access_cost(sched))
    assert "unscheduled" in kinds_of(drop_operation(sched))
    assert "io-timing" in kinds_of(shift_output_transfer(sched))
    assert "access-cost" in kinds_of(collapse_sequence_numbers(sched))
    assert kinds_of(shrink_pool(sched)) == {"pool"}
    for mutate in (wrong_cadence, wrong_latency_bound):
        assert kinds_of(mutate(sched)) == {"spec"}
    violations = s.verify_schedule(late_output_transfer(sched), problem, AUTO)
    assert {v.kind for v in violations} == {"io-timing"}
    assert any("span 4 cycles, the latency bound is 3" in v.message
               for v in violations)
    by_name = dict(MUTATIONS + WRITE_MUTATIONS + DECLARED_BUS_MUTATIONS
                   + FREE_IO_MUTATIONS)
    for table, (sched, problem) in (
            (SPECIFIC, golden_lat3), (SPECIFIC_WRITE, gated_write),
            (SPECIFIC_DECLARED_BUS, spare_bus), (SPECIFIC_FREE_IO, free_io)):
        for name, kinds, fragments in table:
            broken = by_name[name](sched)
            assert broken.to_json() != sched.to_json(), name
            violations = s.verify_schedule(broken, problem, AUTO)
            assert {v.kind for v in violations} == kinds, name
            for fragment in fragments:
                assert any(fragment in v.message for v in violations), \
                    (name, fragment)


@pytest.mark.parametrize("name,mutate", CAP_MUTATIONS)
@pytest.mark.parametrize("which", ["lat3", "lat2"])
def test_cap_mutations_are_caught_under_a_fixed_allocation(
        name, mutate, which, golden_lat3, golden_lat2):
    sched, problem = golden_lat3 if which == "lat3" else golden_lat2
    alloc = fixed_allocation(sched)
    assert s.verify_schedule(sched, problem, alloc) == []
    broken = mutate(sched)
    kinds = {v.kind for v in s.verify_schedule(broken, problem, alloc)}
    assert kinds == {"pool"}, name
    # auto allocation may grow a pool, so without the caps it stands
    assert s.verify_schedule(broken, problem, AUTO) == []


def test_latency_over_the_bound_is_a_violation(pairsum_graph, pairsum_lib,
                                               map_twobank):
    """An output pinned past the bound: a schedule made under a wider bound
    breaks no other rule once its record names the tighter one."""
    ids = {x: pairsum_graph.node_by_label(x).id for x in ("a", "b", "c")}
    buses = (s.BusDef("inA", "in"), s.BusDef("inB", "in"),
             s.BusDef("outC", "out"))
    transfers = (s.Transfer(ids["a"], "inA", 0), s.Transfer(ids["b"], "inB", 0),
                 s.Transfer(ids["c"], "outC", 5))
    wide = s.IoConstraintSpec(buses, transfers, cadence=6, latency_bound=6)
    tight = s.IoConstraintSpec(buses, transfers, cadence=6, latency_bound=3)
    sched = s.schedule(pairsum_graph, pairsum_lib, wide, map_twobank)
    assert sched.achieved_latency == 6
    violations = s.verify_schedule(
        replace(sched, latency_bound=3),
        s.lower(pairsum_graph, pairsum_lib, tight, map_twobank), AUTO)
    assert [(v.kind, v.message) for v in violations] == [
        ("io-timing", "transfers and operations span 6 cycles, the latency "
                      "bound is 3")]
    assert s.brute_force_min_latency(pairsum_graph, pairsum_lib, wide,
                                     map_twobank) == 6
    assert s.brute_force_min_latency(pairsum_graph, pairsum_lib, tight,
                                     map_twobank) is None


def test_fixed_allocation_caps_classes_it_does_not_list(golden_lat3):
    sched, problem = golden_lat3
    counts = sorted(sched.pool_counts().items())
    alloc = s.Allocation(mode="fixed", counts=tuple(counts[1:]))
    violations = s.verify_schedule(sched, problem, alloc)
    assert [v.kind for v in violations] == ["pool"]
    assert "allows 0" in violations[0].message


def test_fixed_allocations_of_random_problems_verify():
    checked = 0
    problems = [random_problem(seed) for seed in range(120)] + \
        [random_fft_problem(seed) for seed in range(60)]
    for p in problems:
        if p.allocation.mode != "fixed":
            continue
        try:
            sched = p.run_scheduler()
        except s.ScheduleFailure:
            continue
        assert p.verify(sched) == [], p.seed
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("name", ["io_constrained", "two_bank_free_io"])
def test_fixed_allocation_configs_verify_under_their_caps(name):
    cfg = experiments.io_constrained() if name == "io_constrained" else \
        experiments.two_bank_free_io({"mult": 2, "add": 1, "sub": 1})
    assert cfg.allocation.mode == "fixed"
    sched, _ = cfg.run()
    assert cfg.verify(sched) == []


def test_shared_synthesized_bus_is_caught(pairsum_graph, pairsum_lib,
                                          map_twobank):
    from mutations import share_bus_cycle
    # With free I/O every transfer is synthesized, so no pinned bus hides
    # the shared one.
    free = s.IoConstraintSpec.unconstrained(2)
    sched = s.schedule(pairsum_graph, pairsum_lib, free, map_twobank)
    problem = s.lower(pairsum_graph, pairsum_lib, free, map_twobank)
    assert s.verify_schedule(sched, problem, AUTO) == []
    kinds = {v.kind for v in s.verify_schedule(share_bus_cycle(sched),
                                               problem, AUTO)}
    assert kinds == {"bus-overlap"}


def test_swapped_banks_are_caught(golden_lat2):
    sched, problem = golden_lat2
    from dataclasses import replace
    a0, a1 = sched.accesses
    broken = replace(sched, accesses=(a0._replace(bank=a1.bank),
                                      a1._replace(bank=a0.bank)))
    kinds = {v.kind for v in s.verify_schedule(broken, problem, AUTO)}
    assert "port-overlap" in kinds


def test_exhaustive_minimum_on_examples(pairsum_graph, pairsum_lib, io_lat3,
                                        io_lat2, map_onebank, map_twobank):
    assert s.brute_force_min_latency(pairsum_graph, pairsum_lib, io_lat3,
                                     map_onebank) == 3
    assert s.brute_force_min_latency(pairsum_graph, pairsum_lib, io_lat2,
                                     map_onebank) is None
    assert s.brute_force_min_latency(pairsum_graph, pairsum_lib, io_lat2,
                                     map_twobank) == 2
    # one multiplier cannot feed both products in time even with two banks
    assert s.brute_force_min_latency(pairsum_graph, pairsum_lib, io_lat2,
                                     map_twobank,
                                     instances={"mult": 1, "add": 1}) is None
    # the single-port bank has one slot per 1-cycle iteration: the second
    # read would fall past the cadence
    assert s.brute_force_min_latency(
        pairsum_graph, pairsum_lib,
        s.IoConstraintSpec.unconstrained(latency_bound=3, cadence=1),
        map_onebank) is None


def test_exhaustive_minimum_ignores_cadence_size(pairsum_graph, pairsum_lib,
                                                 io_lat2, map_twobank):
    # the search keeps only reserved port slots, not one per cycle
    from dataclasses import replace
    minima = {}
    for cadence in (64, 2_000_000):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            minima[cadence] = s.brute_force_min_latency(
                pairsum_graph, pairsum_lib, replace(io_lat2, cadence=cadence),
                map_twobank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.5, cadence
        assert peak < 4 * 2 ** 20, cadence
    assert minima == {64: 2, 2_000_000: 2}


def test_exhaustive_search_depth_does_not_grow_with_cycles(
        pairsum_graph, pairsum_lib, io_lat3, map_twobank):
    # every transfer 1,200 cycles later: the search walks over 1,200 idle
    # cycles, which must not cost a recursion level each
    from dataclasses import replace
    late = replace(io_lat3, cadence=1210, latency_bound=1203,
                   transfers=tuple(replace(t, offset=t.offset + 1200)
                                   for t in io_lat3.transfers))
    args = (pairsum_graph, pairsum_lib, late, map_twobank)
    assert s.schedule(*args).achieved_latency == 3
    assert s.brute_force_min_latency(*args) == 3


def test_exhaustive_search_respects_op_cap(pairsum_lib, fft_lib):
    g = s.generate_fft_sfg(8)
    mapping = s.apply_mapping(s.extract_memory_table(g), s.MappingSpec(
        mode="auto", banks=(s.Bank(id="b", ports=4),)))
    spec = s.IoConstraintSpec.unconstrained(latency_bound=64)
    with pytest.raises(ValueError):
        s.brute_force_min_latency(g, fft_lib, spec, mapping)


def _respec(spec: s.IoConstraintSpec, bound: int) -> s.IoConstraintSpec:
    return s.IoConstraintSpec(buses=spec.buses, transfers=spec.transfers,
                              cadence=max(spec.cadence, bound),
                              latency_bound=bound)


def test_minimum_latency_monotone_in_bound():
    checked = 0
    for seed in range(30):
        p = random_problem(seed)
        base = p.brute_minimum()
        relaxed = s.brute_force_min_latency(
            p.g, p.lib, _respec(p.spec, p.spec.latency_bound + 1), p.mapping,
            instances=p.instance_caps)
        if base is not None:
            assert relaxed is not None and relaxed <= base, seed
            checked += 1
    assert checked >= 8


def test_scheduler_never_beats_exhaustive_search():
    for seed in range(60):
        p = random_problem(seed)
        try:
            sched = p.run_scheduler()
        except s.ScheduleFailure:
            assert True  # failures are checked against the oracle elsewhere
            continue
        best = p.brute_minimum()
        assert best is not None
        assert sched.achieved_latency >= best


@pytest.fixture
def no_output_problem(pairsum_lib):
    """Inputs a and b pinned at cycle 3, add1 = a + b written to memdata m,
    and no output: latency runs from the inputs to add1's last cycle."""
    g = s.parse_sfg(json.dumps({
        "nodes": [{"id": 0, "kind": "input", "label": "a"},
                  {"id": 1, "kind": "input", "label": "b"},
                  {"id": 2, "kind": "operation", "op": "+", "label": "add1"},
                  {"id": 3, "kind": "memdata", "label": "m"}],
        "edges": [{"from": 0, "to": 2, "pos": 0},
                  {"from": 1, "to": 2, "pos": 1},
                  {"from": 2, "to": 3, "pos": 0}]}))
    spec = s.parse_io_spec(json.dumps({
        "cadence": 8, "latency": 8,
        "buses": [{"id": "inA", "direction": "in"},
                  {"id": "inB", "direction": "in"}],
        "transfers": [{"data": "a", "bus": "inA", "offset": 3},
                      {"data": "b", "bus": "inB", "offset": 3}]}), g)
    mapping = s.apply_mapping(s.extract_memory_table(g), s.MappingSpec(
        mode="auto", banks=(s.Bank(id="bank0"),)))
    return g, pairsum_lib, spec, mapping


def test_oracle_measures_latency_like_the_scheduler(no_output_problem):
    sched = s.schedule(*no_output_problem)
    assert sched.achieved_latency == 1
    assert s.brute_force_min_latency(*no_output_problem) == 1


def test_claimed_latency_is_checked_without_outputs(no_output_problem):
    from dataclasses import replace
    sched = s.schedule(*no_output_problem)
    problem = s.lower(*no_output_problem)
    assert s.verify_schedule(sched, problem, AUTO) == []
    kinds = {v.kind for v in s.verify_schedule(
        replace(sched, achieved_latency=99), problem, AUTO)}
    assert kinds == {"io-timing"}
