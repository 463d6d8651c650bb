"""The benchmark's tracer wraps package functions by name: dropping or
renaming one of them must fail here, not in the first benchmark run."""

import importlib.util
import sys
from pathlib import Path

import sfgsched as s
from sfgsched import cli, scheduling, verify

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_and_restores_it():
    tracing = _load_tracing()
    before = {(owner, name): getattr(owner, name)
              for owner, name in ((cli, "schedule"),
                                  (scheduling, "compute_time_windows"),
                                  (verify, "compute_time_windows"),
                                  (scheduling, "rank_executable"),
                                  (s.PortAccessTable, "probe"))}
    tracer = tracing.install(s)
    try:
        assert all(getattr(owner, name) is not fn
                   for (owner, name), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is fn
               for (owner, name), fn in before.items())


def test_traced_report_records_spans_and_the_ready_set_size(pairsum_dir,
                                                            tmp_path):
    tracing = _load_tracing()
    argv = ["report", "--graph", str(pairsum_dir / "graph.json"),
            "--lib", str(pairsum_dir / "lib.json"),
            "--io", str(pairsum_dir / "io_lat2.json"),
            "--mem", str(pairsum_dir / "mem_twobank.json"),
            "--out", str(tmp_path)]
    tracer = tracing.install(s)
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    names = {sp.name for sp in tracer.spans}
    assert {"cli.parse_sfg", "cli.schedule", "cli.verify_schedule",
            "cli.build_report"} <= names
    # the call lowers once, and the tracer sees it wherever it happens
    for stage in ("build_constraint_graph", "compute_time_windows"):
        assert sum(tracer.count(f"{module}.{stage}")
                   for module in ("cli", "scheduling", "verify")) == 1, stage
    assert all(sp.duration >= sp.child_s >= 0 for sp in tracer.spans)
    rank = tracer.aggregates["scheduling.rank_executable"]
    # both products are ready in the first ranked cycle
    assert rank.calls >= 1 and rank.size_peak == 2
    assert rank.size_sum >= rank.size_peak
    assert tracer.aggregates["scheduling.assign_step"].hits == 3
    # tracing leaves the output bytes alone
    assert (tmp_path / "report.json").read_bytes() == \
        (pairsum_dir / "golden_report_lat2_twobank.json").read_bytes()
