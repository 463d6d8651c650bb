"""End-to-end acceptance suite.

One test per numbered criterion; each prints a single PASS/FAIL line with
the measured facts so a plain ``pytest -v`` run shows all eight verdicts.
"""

import hashlib
import time
from contextlib import contextmanager

import pytest

import sfgsched as s
import experiments
from instances import random_problem
from mutations import MUTATIONS
from sfgsched.cli import main


@contextmanager
def criterion(capsys, num, limit, facts):
    """Time the block, then print one verdict line even when it raises."""
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - t0
        ok = not failed and elapsed < limit
        detail = ", ".join(f"{k} {v}" for k, v in facts.items())
        with capsys.disabled():
            print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}  "
                  f"{detail}  ({elapsed:.2f}s < {limit:.0f}s)", flush=True)
    assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def test_criterion_1_worked_example(pairsum_graph, pairsum_lib, io_lat3,
                                    map_onebank, pairsum_dir, capsys):
    facts = {}
    with criterion(capsys, 1, 1.0, facts):
        sched = s.schedule(pairsum_graph, pairsum_lib, io_lat3, map_onebank)
        m1 = pairsum_graph.node_by_label("m1").id   # a * var1
        m2 = pairsum_graph.node_by_label("m2").id   # b * var2
        start = {o.node: o.start for o in sched.ops}
        assert (start[m2], start[m1]) == (0, 1)
        second = [a for a in sched.accesses if a.data_label == "var1"]
        assert [(a.cost, a.cost_class) for a in second] == [(1, "burst")]
        assert sched.achieved_latency == 3
        assert s.verify_schedule(sched, pairsum_graph, pairsum_lib, io_lat3,
                                 map_onebank) == []
        golden = (pairsum_dir / "golden_schedule_lat3.json").read_text()
        assert sched.to_json() == golden
        facts["latency"] = sched.achieved_latency
        facts["second access"] = "burst/1-cycle"


def test_criterion_2_tight_bound_aborts(pairsum_graph, pairsum_lib, io_lat2,
                                        map_onebank, pairsum_dir, capsys):
    facts = {}
    with criterion(capsys, 2, 1.0, facts):
        with pytest.raises(s.ScheduleFailure) as exc:
            s.schedule(pairsum_graph, pairsum_lib, io_lat2, map_onebank)
        e = exc.value
        assert e.reason == "memory-conflict-at-zero-margin"
        assert e.bank == "bank0"
        assert e.cycle == 0
        assert e.op_class == "mult"
        assert e.operation == pairsum_graph.node_by_label("m1").id
        rc = main(["schedule",
                   "--graph", str(pairsum_dir / "graph.json"),
                   "--lib", str(pairsum_dir / "lib.json"),
                   "--io", str(pairsum_dir / "io_lat2.json"),
                   "--mem", str(pairsum_dir / "mem_onebank.json")])
        assert rc == 3
        capsys.readouterr()
        facts["abort"] = f"{e.reason} bank0@0"
        facts["cli exit"] = rc


def test_criterion_3_two_bank_architecture(pairsum_graph, pairsum_lib,
                                           io_lat2, map_twobank, pairsum_dir,
                                           capsys):
    facts = {}
    with criterion(capsys, 3, 1.0, facts):
        sched = s.schedule(pairsum_graph, pairsum_lib, io_lat2, map_twobank)
        rep = s.build_report(sched, pairsum_graph, io_lat2, map_twobank,
                             pairsum_lib)
        assert sched.achieved_latency == 2
        assert sched.pool_counts() == {"mult": 2, "add": 1}
        assert rep.banks_used == 2
        assert s.verify_schedule(sched, pairsum_graph, pairsum_lib, io_lat2,
                                 map_twobank) == []
        assert sched.to_json() == \
            (pairsum_dir / "golden_schedule_lat2_twobank.json").read_text()
        assert s.report_to_json(rep) == \
            (pairsum_dir / "golden_report_lat2_twobank.json").read_text()
        facts["latency"] = 2
        facts["pool"] = "2 mult / 1 add"
        facts["banks"] = 2


def test_criterion_4_random_instances_vs_oracle(capsys):
    facts = {}
    with criterion(capsys, 4, 60.0, facts):
        scheduled = infeasible = greedy_misses = 0
        for seed in range(120):
            p = random_problem(seed)
            try:
                sched = p.run_scheduler()
            except s.ScheduleFailure:
                if p.brute_minimum() is None:
                    infeasible += 1
                else:
                    greedy_misses += 1  # greedy is allowed to miss
                continue
            violations = s.verify_schedule(sched, p.g, p.lib, p.spec,
                                           p.mapping)
            assert violations == [], f"seed {seed}: {violations[0]}"
            best = p.brute_minimum()
            assert best is not None, \
                f"seed {seed}: scheduled an instance the oracle rejects"
            assert sched.achieved_latency >= best, \
                f"seed {seed}: beat the exhaustive optimum"
            scheduled += 1
        assert scheduled + infeasible + greedy_misses == 120
        assert scheduled >= 30 and infeasible >= 10  # both branches exercised
        facts["problems"] = 120
        facts["scheduled"] = scheduled
        facts["infeasible"] = infeasible
        facts["greedy misses"] = greedy_misses


def test_criterion_5_mutations_all_caught(pairsum_graph, pairsum_lib,
                                          io_lat3, io_lat2, map_onebank,
                                          map_twobank, capsys):
    facts = {}
    with criterion(capsys, 5, 10.0, facts):
        goldens = [
            (s.schedule(pairsum_graph, pairsum_lib, io_lat3, map_onebank),
             io_lat3, map_onebank),
            (s.schedule(pairsum_graph, pairsum_lib, io_lat2, map_twobank),
             io_lat2, map_twobank),
        ]
        assert len(MUTATIONS) >= 5
        caught = 0
        for sched, spec, mapping in goldens:
            for name, mutate in MUTATIONS:
                violations = s.verify_schedule(mutate(sched), pairsum_graph,
                                               pairsum_lib, spec, mapping)
                assert violations, f"{name} slipped through"
                caught += 1
        facts["operators"] = len(MUTATIONS)
        facts["checks"] = f"{caught}/{caught} caught"


def test_criterion_6_architecture_tradeoffs(capsys):
    facts = {}
    with criterion(capsys, 6, 30.0, facts):
        e1 = experiments.io_constrained()
        s1, r1 = e1.run()
        e2 = experiments.two_bank_free_io(s1.pool_counts())
        s2, r2 = e2.run()
        e3 = experiments.two_bank_paced_input()
        s3, r3 = e3.run()
        for cfg, (sched, _) in ((e1, (s1, r1)), (e2, (s2, r2)),
                                (e3, (s3, r3))):
            assert s.verify_schedule(sched, cfg.g, cfg.lib, cfg.spec,
                                     cfg.mapping) == [], cfg.name
        assert r1.banks_used > 2
        assert r3.banks_used == 2
        assert r3.in_buses == 1
        assert r2.in_buses > r3.in_buses
        assert s3.achieved_latency > s1.achieved_latency
        assert s3.achieved_latency > s2.achieved_latency
        facts["banks"] = f"{r1.banks_used} > 2 = {r3.banks_used}"
        facts["in buses"] = f"{r2.in_buses} > {r3.in_buses}"
        facts["latency"] = (f"{s3.achieved_latency} > "
                            f"{s1.achieved_latency}, {s2.achieved_latency}")


def test_criterion_7_large_fft_smoke(capsys):
    facts = {}
    with criterion(capsys, 7, 20.0, facts):
        cfg = experiments.scale_config()
        t0 = time.perf_counter()
        sched = s.schedule(cfg.g, cfg.lib, cfg.spec, cfg.mapping,
                           cfg.allocation)
        t_sched = time.perf_counter() - t0
        t0 = time.perf_counter()
        violations = s.verify_schedule(sched, cfg.g, cfg.lib, cfg.spec,
                                       cfg.mapping)
        t_verify = time.perf_counter() - t0
        assert violations == []
        # schedule.json bytes as the scheduler produced them before its
        # cycle walk skipped unstartable ops and idle stretches
        assert hashlib.sha256(sched.to_json().encode()).hexdigest() == \
            "4dc7926303acac84942b5de584f2f1078d6d94ec242e7cee0b887dec0dda6291"
        assert t_sched < 10.0, f"scheduling took {t_sched:.2f}s"
        assert t_verify < 10.0, f"verification took {t_verify:.2f}s"
        facts["nodes"] = len(cfg.g.nodes)
        facts["latency"] = sched.achieved_latency
        facts["schedule"] = f"{t_sched:.2f}s"
        facts["verify"] = f"{t_verify:.2f}s"


def test_criterion_8_determinism(pairsum_dir, tmp_path, capsys):
    facts = {}
    with criterion(capsys, 8, 60.0, facts):
        files = 0

        def cli(tag, *argv):
            nonlocal files
            outs = []
            for run in ("a", "b"):
                out = tmp_path / f"{tag}_{run}"
                assert main(list(argv) + ["--out", str(out)]) == 0
                outs.append(out)
            capsys.readouterr()
            for name in ("schedule.json", "report.json", "report.txt"):
                if (outs[0] / name).exists():
                    assert (outs[0] / name).read_bytes() == \
                        (outs[1] / name).read_bytes(), f"{tag}/{name}"
                    files += 1

        base = ["--graph", str(pairsum_dir / "graph.json"),
                "--lib", str(pairsum_dir / "lib.json")]
        cli("c1", "schedule", *base,
            "--io", str(pairsum_dir / "io_lat3.json"),
            "--mem", str(pairsum_dir / "mem_onebank.json"))
        cli("c3", "report", *base,
            "--io", str(pairsum_dir / "io_lat2.json"),
            "--mem", str(pairsum_dir / "mem_twobank.json"))

        builders = (experiments.io_constrained,
                    lambda: experiments.two_bank_free_io(
                        {"mult": 20, "add": 10, "sub": 10}),
                    experiments.two_bank_paced_input)
        for build in builders:
            (sa, ra), (sb, rb) = build().run(), build().run()
            assert sa.to_json() == sb.to_json()
            assert s.report_to_json(ra) == s.report_to_json(rb)
            assert s.render_report_text(ra) == s.render_report_text(rb)
            files += 3
        facts["artifacts compared"] = files
