import json

import pytest

import sfgsched as s
import experiments
from instances import random_fft_problem, random_problem

K = s.NodeKind


@pytest.fixture(scope="module")
def lat2_report(pairsum_graph, pairsum_lib, io_lat2, map_twobank):
    sched = s.schedule(pairsum_graph, pairsum_lib, io_lat2, map_twobank)
    return sched, s.build_report(sched, s.lower(pairsum_graph, pairsum_lib,
                                                io_lat2, map_twobank))


def test_report_matches_golden(lat2_report, pairsum_dir):
    _, rep = lat2_report
    got = json.loads(s.report_to_json(rep))
    want = json.loads((pairsum_dir / "golden_report_lat2_twobank.json").read_text())
    assert got == want


def test_report_recounts_the_schedule(lat2_report, map_twobank):
    sched, rep = lat2_report
    assert dict(rep.operators) == sched.pool_counts()
    assert rep.banks_used == len({a.bank for a in sched.accesses})
    assert set(rep.bank_ids) == {a.bank for a in sched.accesses}
    assert rep.latency_cycles == sched.achieved_latency
    assert rep.latency_bound == sched.latency_bound
    assert rep.cadence == sched.cadence
    ins = {}
    outs = {}
    for t in sched.transfers:
        tgt = ins if t.direction == "in" else outs
        tgt[t.cycle] = tgt.get(t.cycle, 0) + 1
    assert rep.in_buses == max(ins.values())
    assert rep.out_buses == max(outs.values())


def test_render_text(lat2_report):
    _, rep = lat2_report
    text = s.render_report_text(rep)
    for line in ("operator add          x1",
                 "operator mult         x2",
                 "memory banks        2 (bank0, bank1)",
                 "input buses         2",
                 "output buses        1",
                 "registers (est.)    5",
                 "latency             2 cycles (bound 2, cadence 2)"):
        assert line in text
    assert "clock" not in text  # the example library declares no clock


def test_clock_line(pairsum_graph, fft_lib, pairsum_lib, io_lat2, map_twobank):
    lib = s.OperatorLibrary(classes=pairsum_lib.classes, clock_hz=200e6)
    sched = s.schedule(pairsum_graph, lib, io_lat2, map_twobank)
    rep = s.build_report(sched, s.lower(pairsum_graph, lib, io_lat2,
                                        map_twobank))
    assert rep.clock_hz == 200e6
    assert rep.latency_seconds == 2 / 200e6
    text = s.render_report_text(rep)
    assert "latency at clock    0.010 us" in text


def test_synthesized_bus_demand_peaks(pairsum_graph, pairsum_lib, map_twobank):
    spec = s.IoConstraintSpec.unconstrained(latency_bound=2)
    sched = s.schedule(pairsum_graph, pairsum_lib, spec, map_twobank)
    rep = s.build_report(sched, s.lower(pairsum_graph, pairsum_lib, spec,
                                        map_twobank))
    # both products start at cycle 0, so both inputs arrive together
    assert rep.in_buses == 2
    assert rep.out_buses == 1
    buses = {t.bus for t in sched.transfers if t.direction == "in"}
    assert buses == {"auto_in0", "auto_in1"}


def test_declared_plus_synthesized_buses(pairsum_graph, pairsum_lib):
    # pin only input a; b rides a synthesized bus in the same cycle
    a = pairsum_graph.node_by_label("a").id
    spec = s.IoConstraintSpec(
        buses=(s.BusDef(id="inA", direction="in"),),
        transfers=(s.Transfer(a, "inA", 0),), cadence=2, latency_bound=2)
    mapping = s.apply_mapping(
        s.extract_memory_table(pairsum_graph),
        s.MappingSpec(mode="auto", banks=(s.Bank(id="b0", ports=2, t_rand=2),
                                          s.Bank(id="b1", ports=2, t_rand=2))))
    sched = s.schedule(pairsum_graph, pairsum_lib, spec, mapping)
    rep = s.build_report(sched, s.lower(pairsum_graph, pairsum_lib, spec,
                                        mapping))
    assert rep.in_buses == 2  # 1 declared + 1 synthesized peak
    assert rep.out_buses == 1


def test_pass_through_report(pairsum_lib):
    g = s.SFG([s.SfgNode(0, K.INPUT, label="x"),
               s.SfgNode(1, K.OUTPUT, label="y")], [(0, 1, 0)])
    spec = s.IoConstraintSpec.unconstrained(latency_bound=2)
    mapping = s.apply_mapping(s.extract_memory_table(g),
                              s.MappingSpec(mode="auto", banks=()))
    sched = s.schedule(g, pairsum_lib, spec, mapping)
    rep = s.build_report(sched, s.lower(g, pairsum_lib, spec, mapping))
    assert rep.operators == ()
    assert rep.banks_used == 0
    assert rep.registers == 2
    assert rep.latency_cycles == 1
    assert s.render_report_text(rep)  # renders without operators or banks


def test_report_json_round_trip(lat2_report):
    _, rep = lat2_report
    doc = json.loads(s.report_to_json(rep))
    assert set(doc) == {"operators", "banks_used", "bank_ids", "in_buses",
                        "out_buses", "registers", "latency_cycles",
                        "latency_bound", "cadence"}


def _declared_plus_peak(sched, spec, direction):
    """The bus count as declared buses plus the peak number of synthesized
    transfers in one cycle."""
    per_cycle = {}
    for tr in sched.transfers:
        if tr.direction == direction and tr.synthesized:
            per_cycle[tr.cycle] = per_cycle.get(tr.cycle, 0) + 1
    return sum(1 for b in spec.buses if b.direction == direction) + max(
        per_cycle.values(), default=0)


def test_bus_counts_are_declared_plus_peak_demand():
    runs = []
    for problems, n in ((random_problem, 200), (random_fft_problem, 60)):
        for seed in range(n):
            p = problems(seed)
            try:
                runs.append((p.run_scheduler(), p.lower()))
            except s.ScheduleFailure:
                pass
    for cfg in (experiments.io_constrained(),
                experiments.two_bank_free_io({"mult": 2, "add": 1, "sub": 1}),
                experiments.two_bank_paced_input()):
        runs.append((cfg.run()[0], cfg.lower()))
    for sched, problem in runs:
        rep = s.build_report(sched, problem)
        assert rep.in_buses == _declared_plus_peak(sched, problem.spec, "in")
        assert rep.out_buses == _declared_plus_peak(sched, problem.spec,
                                                    "out")
    # many runs name more than one synthesized bus in some direction
    assert sum(len({tr.bus for tr in sched.transfers if tr.synthesized}) > 1
               for sched, *_ in runs) > 10
