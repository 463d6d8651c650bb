import json
import time
import tracemalloc
from dataclasses import replace

import pytest

import sfgsched as s
import experiments
from instances import random_fft_problem, random_problem
from mutations import CAP_MUTATIONS, MUTATIONS, fixed_allocation


@pytest.fixture(scope="module")
def golden_lat3(pairsum_graph, pairsum_lib, io_lat3, map_onebank):
    sched = s.schedule(pairsum_graph, pairsum_lib, io_lat3, map_onebank)
    return sched, pairsum_graph, pairsum_lib, io_lat3, map_onebank


@pytest.fixture(scope="module")
def golden_lat2(pairsum_graph, pairsum_lib, io_lat2, map_twobank):
    sched = s.schedule(pairsum_graph, pairsum_lib, io_lat2, map_twobank)
    return sched, pairsum_graph, pairsum_lib, io_lat2, map_twobank


def test_clean_schedules_verify(golden_lat3, golden_lat2):
    for sched, g, lib, spec, mapping in (golden_lat3, golden_lat2):
        assert s.verify_schedule(sched, g, lib, spec, mapping) == []


@pytest.mark.parametrize("name,mutate", MUTATIONS)
@pytest.mark.parametrize("which", ["lat3", "lat2"])
def test_mutations_are_caught(name, mutate, which, golden_lat3, golden_lat2):
    sched, g, lib, spec, mapping = golden_lat3 if which == "lat3" \
        else golden_lat2
    broken = mutate(sched)
    assert broken.to_json() != sched.to_json(), name
    violations = s.verify_schedule(broken, g, lib, spec, mapping)
    assert violations, f"{name} slipped through on {which}"


@pytest.mark.parametrize("name,mutate", MUTATIONS)
@pytest.mark.parametrize("which", ["lat3", "lat2"])
def test_shared_problem_finds_the_same_violations(name, mutate, which,
                                                  golden_lat3, golden_lat2):
    sched, g, lib, spec, mapping = golden_lat3 if which == "lat3" \
        else golden_lat2
    broken = mutate(sched)
    problem = s.lower(g, lib, spec)
    assert s.verify_schedule(broken, g, lib, spec, mapping, problem) == \
        s.verify_schedule(broken, g, lib, spec, mapping)


@pytest.mark.parametrize("which", ["lat3", "lat2"])
def test_schedule_leaves_the_shared_problem_unchanged(which, golden_lat3,
                                                      golden_lat2):
    sched, g, lib, spec, mapping = golden_lat3 if which == "lat3" \
        else golden_lat2
    problem = s.lower(g, lib, spec)
    shared = s.schedule(g, lib, spec, mapping, s.Allocation(mode="auto"),
                        problem=problem)
    assert shared.to_json() == sched.to_json()
    assert s.verify_schedule(shared, g, lib, spec, mapping,
                             problem=problem) == []
    fresh = s.lower(g, lib, spec)
    assert problem.windows == fresh.windows
    assert problem.cg.nodes == fresh.cg.nodes
    assert problem.cg.edges == fresh.cg.edges
    assert problem.cg.latency_bound == fresh.cg.latency_bound


def test_mutation_kinds_are_specific(golden_lat3):
    sched, g, lib, spec, mapping = golden_lat3
    from mutations import (late_start, corrupt_access_cost, drop_operation,
                           shift_output_transfer, collapse_sequence_numbers,
                           shrink_pool, wrong_cadence, wrong_latency_bound,
                           late_output_transfer)
    kinds = {v.kind for v in s.verify_schedule(late_start(sched), g, lib,
                                               spec, mapping)}
    assert "window" in kinds
    kinds = {v.kind for v in s.verify_schedule(corrupt_access_cost(sched), g,
                                               lib, spec, mapping)}
    assert "access-cost" in kinds
    kinds = {v.kind for v in s.verify_schedule(drop_operation(sched), g, lib,
                                               spec, mapping)}
    assert "unscheduled" in kinds
    kinds = {v.kind for v in s.verify_schedule(shift_output_transfer(sched),
                                               g, lib, spec, mapping)}
    assert "io-timing" in kinds
    kinds = {v.kind for v in s.verify_schedule(
        collapse_sequence_numbers(sched), g, lib, spec, mapping)}
    assert "access-cost" in kinds
    kinds = {v.kind for v in s.verify_schedule(shrink_pool(sched), g, lib,
                                               spec, mapping)}
    assert kinds == {"pool"}
    for mutate in (wrong_cadence, wrong_latency_bound):
        kinds = {v.kind for v in s.verify_schedule(mutate(sched), g, lib,
                                                   spec, mapping)}
        assert kinds == {"spec"}
    violations = s.verify_schedule(late_output_transfer(sched), g, lib, spec,
                                   mapping)
    assert {v.kind for v in violations} == {"io-timing"}
    assert any("span 4 cycles, the latency bound is 3" in v.message
               for v in violations)



@pytest.mark.parametrize("name,mutate", CAP_MUTATIONS)
@pytest.mark.parametrize("which", ["lat3", "lat2"])
def test_cap_mutations_are_caught_under_a_fixed_allocation(
        name, mutate, which, golden_lat3, golden_lat2):
    sched, g, lib, spec, mapping = golden_lat3 if which == "lat3" \
        else golden_lat2
    alloc = fixed_allocation(sched)
    assert s.verify_schedule(sched, g, lib, spec, mapping, None, alloc) == []
    broken = mutate(sched)
    kinds = {v.kind for v in s.verify_schedule(broken, g, lib, spec, mapping,
                                               None, alloc)}
    assert kinds == {"pool"}, name
    # auto allocation may grow a pool, so without the caps it stands
    assert s.verify_schedule(broken, g, lib, spec, mapping) == []
    assert s.verify_schedule(broken, g, lib, spec, mapping, None,
                             s.Allocation(mode="auto")) == []


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
        replace(sched, latency_bound=3), pairsum_graph, pairsum_lib, tight,
        map_twobank)
    assert [(v.kind, v.message) for v in violations] == [
        ("io-timing", "transfers and operations span 6 cycles, the latency "
                      "bound is 3")]
    assert s.brute_force_min_latency(pairsum_graph, pairsum_lib, wide,
                                     map_twobank) == 6
    assert s.brute_force_min_latency(pairsum_graph, pairsum_lib, tight,
                                     map_twobank) is None


def test_fixed_allocation_caps_classes_it_does_not_list(golden_lat3):
    sched, g, lib, spec, mapping = golden_lat3
    counts = sorted(sched.pool_counts().items())
    alloc = s.Allocation(mode="fixed", counts=tuple(counts[1:]))
    violations = s.verify_schedule(sched, g, lib, spec, mapping, None, alloc)
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
        assert s.verify_schedule(sched, p.g, p.lib, p.spec, p.mapping, None,
                                 p.allocation) == [], p.seed
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("name", ["io_constrained", "two_bank_free_io"])
def test_fixed_allocation_configs_verify_under_their_caps(name):
    cfg = experiments.io_constrained() if name == "io_constrained" else \
        experiments.two_bank_free_io({"mult": 2, "add": 1, "sub": 1})
    assert cfg.allocation.mode == "fixed"
    sched, _ = cfg.run()
    assert s.verify_schedule(sched, cfg.g, cfg.lib, cfg.spec, cfg.mapping,
                             None, cfg.allocation) == []


def test_shared_synthesized_bus_is_caught(pairsum_graph, pairsum_lib,
                                          map_twobank):
    from mutations import share_bus_cycle
    # With free I/O every transfer is synthesized, so no pinned bus hides
    # the shared one.
    free = s.IoConstraintSpec.unconstrained(2)
    sched = s.schedule(pairsum_graph, pairsum_lib, free, map_twobank)
    assert s.verify_schedule(sched, pairsum_graph, pairsum_lib, free,
                             map_twobank) == []
    kinds = {v.kind for v in s.verify_schedule(
        share_bus_cycle(sched), pairsum_graph, pairsum_lib, free, map_twobank)}
    assert kinds == {"bus-overlap"}


def test_swapped_banks_are_caught(golden_lat2):
    sched, g, lib, spec, mapping = golden_lat2
    from dataclasses import replace
    a0, a1 = sched.accesses
    broken = replace(sched, accesses=(a0._replace(bank=a1.bank),
                                      a1._replace(bank=a0.bank)))
    kinds = {v.kind for v in s.verify_schedule(broken, g, lib, spec, mapping)}
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
    assert s.verify_schedule(sched, *no_output_problem) == []
    kinds = {v.kind for v in s.verify_schedule(
        replace(sched, achieved_latency=99), *no_output_problem)}
    assert kinds == {"io-timing"}
