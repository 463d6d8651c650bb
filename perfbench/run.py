#!/usr/bin/env python3
"""Benchmark for sfgsched: ``sfgsched report`` driven in-process through
the public CLI entry point ``sfgsched.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a batch of ``report`` calls whose inputs are
JSON documents written from the seed (see ``workloads.py``).  One process
on one thread runs the batch as a closed loop: each call starts when the
previous one returns.  A run

1. sets up ``SETUP_REPS`` times (fresh import of the package, input
   generation, writing the documents) to time ``setup_s``;
2. runs the known-answer check over ``tests/data/pairsum`` and one
   unmeasured pass, whose outputs every later pass must reproduce byte for
   byte;
3. repeats measured passes for ``--seconds`` (at least ``MIN_PASSES``),
   timing a fixed reference work between passes (``calibration.py``),
   and then reads the peak resident memory;
4. runs the exhaustive oracle over the ``kernel_sweep`` problems, judges
   the first pass's verdicts, checks its ``schedule.json`` files against
   ``schedule(...).to_json()`` on the in-memory problems, and records
   schedule quality and output hashes.

Each time metric is the median of its samples in the run.  ``wall_ref_s``
and ``call_p50_ref_ms`` scale each pass by the machine speed measured
around it (see ``calibration.py``); ``wall_s`` and ``call_p50_ms`` are the
same medians unscaled, printed and recorded but not part of the JSON
result, since on a shared host they spread by more than their bound from
run to run.  With ``--trace 1`` half of the measured time goes
to traced passes, with wrappers from ``tracing.py`` installed around the
layer functions, and the per-layer metrics are reported instead of the
end-to-end ones.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record, with the span dump of the last traced pass, goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibration
import tracing
import verdicts
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PAIRSUM = ROOT / "tests" / "data" / "pairsum"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 7
MIN_PASSES = 3

# name -> unit, in the order printed
END_TO_END = {
    "setup_s": "s", "wall_ref_s": "s", "call_p50_ref_ms": "ms",
    "peak_rss_mb": "MiB",
    "latency_cycles": "cycles", "operator_instances": "count",
    "registers": "count",
}
PER_LAYER = {
    "scheduling.schedule_s": "s", "scheduling.self_s": "s",
    "scheduling.cycles": "count", "scheduling.rank_s": "s",
    "scheduling.ready_mean": "ops", "scheduling.ready_peak": "ops",
    "scheduling.assign_calls": "count", "scheduling.start_ratio": "ratio",
    "scheduling.alloc_events": "count",
    "scheduling.greedy_gap_cycles": "cycles",
    "scheduling.greedy_misses": "count",
    "memory.probe_calls": "count", "memory.probe_s": "s",
    "memory.probe_blocked_ratio": "ratio", "memory.burst_share": "ratio",
    "memory.mapping_s": "s",
    "constraints.builds": "per_call", "constraints.build_s": "s",
    "constraints.windows_s": "s", "constraints.feasibility_s": "s",
    "graph.parse_s": "s", "iospec.parse_s": "s",
    "verify.verify_s": "s", "verify.self_s": "s", "verify.oracle_s": "s",
    "report.build_s": "s", "report.serialize_s": "s",
    "cli.self_s": "s", "cli.call_p99_ms": "ms",
    "cli.exit_0": "count", "cli.exit_2": "count", "cli.exit_3": "count",
    "trace.overhead_s": "s",
}
# Measured and printed on every run, but not part of the JSON result.
EXTRA = {"wall_s": "s", "call_p50_ms": "ms", "call_p99_ms": "ms",
         "oracle_s": "s", "greedy_gap_cycles": "cycles",
         "greedy_misses": "count", "error_rate": "ratio"}


def fresh_import():
    """Import the package and its CLI as a first import would."""
    for name in [m for m in sys.modules
                 if m == "sfgsched" or m.startswith("sfgsched.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    s = importlib.import_module("sfgsched")
    return s, importlib.import_module("sfgsched.cli")


def set_up(workload: str, seed: int):
    start = time.perf_counter()
    s, cli = fresh_import()
    problems = workloads.GENERATORS[workload](s, seed)
    argvs = [workloads.write_problem(s, p, WORK / workload / p.name)
             for p in problems]
    return time.perf_counter() - start, s, cli, problems, argvs


def run_pass(main, argvs):
    """One closed-loop pass over the batch: (results, call seconds, wall)."""
    gc.collect()
    results, times = [], []
    start = time.perf_counter()
    for argv in argvs:
        r, elapsed = verdicts.run_call(main, argv)
        results.append(r)
        times.append(elapsed)
    wall = time.perf_counter() - start
    for r, argv in zip(results, argvs):
        r.read_outputs(argv)
    return results, times, wall


class Run:
    """State of one benchmark run over one workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.failures: list[str] = []
        self.trace_dump = None

    def set_up(self) -> None:
        # Only the first repetition writes the files; later ones find them
        # in place (see workloads.write_problem).
        shutil.rmtree(WORK, ignore_errors=True)
        times = []
        for _ in range(SETUP_REPS):
            # drop the previous repetition's objects so they are not
            # alive twice at the memory peak
            self.s = self.cli = self.problems = self.argvs = None
            gc.collect()
            elapsed, self.s, self.cli, self.problems, self.argvs = \
                set_up(self.workload, self.seed)
            times.append(elapsed)
        self.setup_times = times
        self.setup_s = statistics.median(times)

    def run_oracle(self) -> None:
        """Exhaustive optima of the sweep problems (None: infeasible)."""
        self.optima = [verdicts.NO_ORACLE] * len(self.problems)
        self.oracle_s = 0.0
        if self.workload != "kernel_sweep":
            return
        start = time.perf_counter()
        self.optima = [self.s.brute_force_min_latency(
            p.g, p.lib, p.spec, p.mapping, instances=p.caps)
            for p in self.problems]
        self.oracle_s = time.perf_counter() - start

    def first_pass(self) -> None:
        """An unmeasured pass whose outputs every later pass must repeat."""
        self.first_results, _, _ = run_pass(self.cli.main, self.argvs)
        self.reference = [r.digest() for r in self.first_results]
        self.pass_digests = [self.reference]

    def judge(self) -> None:
        """Judge the first pass's verdicts (against the oracle where it was
        run) and its schedules (against in-memory scheduling of the same
        problems); record quality and hashes."""
        self.wrong = []
        for p, r, optimum in zip(self.problems, self.first_results,
                                 self.optima):
            error = verdicts.verdict_error(r, optimum)
            if error is None and r.code == 0:
                error = self.in_memory_mismatch(p, r)
            if error is not None:
                self.failures.append(f"{p.name}: {error}")
            self.wrong.append(error is not None)
        self.summarize_outputs(self.first_results)

    def count_failures(self) -> None:
        """Count wrong calls over every pass: a call is wrong when its
        verdict is, or when its outputs differ from the first pass."""
        self.attempted = self.failed = 0
        for digests in self.pass_digests:
            self.attempted += len(digests)
            for p, digest, ref, wrong in zip(self.problems, digests,
                                             self.reference, self.wrong):
                if digest != ref:
                    self.failures.append(f"{p.name}: output differs from "
                                         f"the first pass")
                self.failed += wrong or digest != ref

    def in_memory_mismatch(self, p, r) -> str | None:
        s = self.s
        try:
            text = s.schedule(p.g, p.lib, p.spec, p.mapping,
                              s.parse_allocation(p.alloc)).to_json()
        except s.ScheduleFailure as exc:
            return f"CLI scheduled, in-memory schedule() aborted: {exc}"
        if text.encode() != r.schedule:
            return "schedule.json differs from schedule(...).to_json()"
        return None

    def summarize_outputs(self, results) -> None:
        sched_hash, report_hash = hashlib.sha256(), hashlib.sha256()
        latency = operators = registers = 0
        bursts = accesses = alloc_events = gap = misses = 0
        exits = {0: 0, 2: 0, 3: 0}
        # hashed in problem-name order, so the call order does not matter
        for p, r in sorted(zip(self.problems, results),
                           key=lambda pair: pair[0].name):
            head = f"{p.name}:{r.code}\n".encode()
            sched_hash.update(head + (r.schedule or b""))
            report_hash.update(head + (r.report or b""))
        for r, optimum in zip(results, self.optima):
            exits[r.code] = exits.get(r.code, 0) + 1
            if r.code == 3 and optimum not in (None, verdicts.NO_ORACLE):
                misses += 1
            if r.code != 0:
                continue
            rep = r.report_doc()
            latency += rep["latency_cycles"]
            operators += sum(rep["operators"].values())
            registers += rep["registers"]
            if isinstance(optimum, int):
                gap += rep["latency_cycles"] - optimum
            doc = json.loads(r.schedule)
            alloc_events += len(doc["allocation_events"])
            accesses += len(doc["accesses"])
            bursts += sum(1 for a in doc["accesses"]
                          if a["cost_class"] == "burst")
        self.exits = exits
        self.hashes = {"schedule_sha256": sched_hash.hexdigest(),
                       "report_sha256": report_hash.hexdigest()}
        self.quality = {"latency_cycles": latency,
                        "operator_instances": operators,
                        "registers": registers}
        self.outcome = {
            "scheduling.alloc_events": alloc_events,
            "scheduling.greedy_gap_cycles": gap,
            "scheduling.greedy_misses": misses,
            "memory.burst_share": bursts / accesses if accesses else 0.0,
            "cli.exit_0": exits[0], "cli.exit_2": exits[2],
            "cli.exit_3": exits[3],
        }

    def measured_passes(self, main, budget: float, minimum: int,
                        after_pass=None):
        """Repeat passes for ``budget`` seconds and at least ``minimum``
        times, with reference work timed before the first pass and after
        each one; return pass walls, each pass's call times and each
        pass's speed factor (see ``calibration.speed_factor``)."""
        walls, calls, factors = [], [], []
        start = time.perf_counter()
        before = calibration.time_reference()
        # stop before a pass that would likely run past the budget
        while len(walls) < minimum or (time.perf_counter() - start
                                       + statistics.median(walls) <= budget):
            results, times, wall = run_pass(main, self.argvs)
            if after_pass:
                after_pass()
            after = calibration.time_reference()
            walls.append(wall)
            calls.append(times)
            factors.append(calibration.speed_factor(before, after))
            before = after
            self.pass_digests.append([r.digest() for r in results])
        return walls, calls, factors

    def traced_passes(self, budget: float) -> tuple[list[float], dict]:
        """Passes with the tracer installed: their walls scaled to the
        reference speed, and the median of each per-layer metric."""
        tracer = tracing.install(self.s)
        traced_main = tracer.span("cli.main", self.cli.main)
        per_pass: list[dict] = []
        try:
            def collect():
                per_pass.append(layer_metrics(tracer, len(self.argvs)))
                self.trace_dump = tracer.dump()
                tracer.reset()
            walls, _, factors = self.measured_passes(traced_main, budget, 1,
                                                     collect)
        finally:
            tracer.uninstall()
        layers = {name: statistics.median([p[name] for p in per_pass])
                  for name in per_pass[0]}
        return [w * f for w, f in zip(walls, factors)], layers


def layer_metrics(tracer: tracing.Tracer, n_calls: int) -> dict:
    t, agg = tracer.total, tracer.aggregates
    rank = agg["scheduling.rank_executable"]
    assign = agg["scheduling.assign_step"]
    probe = agg["memory.probe"]
    callers = ("cli", "scheduling", "verify")

    def ratio(a, b):
        return a / b if b else 0.0
    return {
        "scheduling.schedule_s": t("cli.schedule"),
        "scheduling.self_s": tracer.self_time("cli.schedule"),
        "scheduling.cycles": rank.calls,
        "scheduling.rank_s": rank.total_s,
        "scheduling.ready_mean": ratio(rank.size_sum, rank.calls),
        "scheduling.ready_peak": rank.size_peak,
        "scheduling.assign_calls": assign.calls,
        "scheduling.start_ratio": ratio(assign.hits, assign.calls),
        "memory.probe_calls": probe.calls,
        "memory.probe_s": probe.total_s,
        "memory.probe_blocked_ratio": ratio(probe.hits, probe.calls),
        "memory.mapping_s": t("cli.parse_memory_mapping")
        + t("cli.apply_mapping"),
        "constraints.builds": ratio(
            sum(tracer.count(f"{m}.build_constraint_graph") for m in callers),
            n_calls),
        "constraints.build_s": sum(
            t(f"{m}.{f}") for m in callers
            for f in ("build_constraint_graph", "apply_io_constraints")),
        "constraints.windows_s": sum(t(f"{m}.compute_time_windows")
                                     for m in callers),
        "constraints.feasibility_s": t("cli.check_feasibility"),
        "graph.parse_s": t("cli.parse_sfg"),
        "iospec.parse_s": t("cli.parse_io_spec"),
        "verify.verify_s": t("cli.verify_schedule"),
        "verify.self_s": tracer.self_time("cli.verify_schedule"),
        "report.build_s": t("cli.build_report"),
        "report.serialize_s": t("scheduling.Schedule.to_json")
        + t("cli.report_to_json") + t("cli.render_report_text"),
        "cli.self_s": tracer.self_time("cli.main"),
    }


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sfgsched" / "cli.py").is_file():
        print(f"error: no sfgsched sources under {SRC}", file=sys.stderr)
        return 2
    if not PAIRSUM.is_dir():
        print(f"error: known-answer data missing: {PAIRSUM}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Run(args.workload, args.seed)
    try:
        record = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for reason in bench.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    units = {**END_TO_END, **PER_LAYER, **EXTRA}
    for name, value in record["metrics"].items():
        print(f"{name:30s} {value:>14.6g} {units[name]}")
    for key in ("attempted", "failed", "known_answers", "hashes",
                "environment", "samples"):
        print(f"{key}: {json.dumps(record[key])}")
    shown = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": record["correct"],
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": record["metrics"][name],
                           "unit": shown[name]} for name in shown},
    }))
    return 0


def measure(bench: Run, seconds: float, trace: bool) -> dict:
    bench.set_up()
    known = verdicts.known_answer_failures(bench.s, bench.cli.main, PAIRSUM,
                                           WORK / "known_answers")
    bench.failures += [f"known answer: {reason}" for reason in known]
    bench.first_pass()
    budget = seconds / 2 if trace else seconds
    walls, calls, factors = bench.measured_passes(bench.cli.main, budget,
                                                  MIN_PASSES)
    call_p50s = [statistics.median(c) for c in calls]
    # read before the oracle, whose search would set the process peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bench.run_oracle()
    bench.judge()
    metrics = {
        "setup_s": bench.setup_s,
        "wall_ref_s": statistics.median(
            w * f for w, f in zip(walls, factors)),
        "call_p50_ref_ms": statistics.median(
            c * f for c, f in zip(call_p50s, factors)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        **bench.quality,
        "wall_s": statistics.median(walls),
        "call_p50_ms": statistics.median(call_p50s) * 1e3,
        "call_p99_ms": p99([t for c in calls for t in c]) * 1e3,
        "oracle_s": bench.oracle_s,
        "greedy_gap_cycles": bench.outcome["scheduling.greedy_gap_cycles"],
        "greedy_misses": bench.outcome["scheduling.greedy_misses"],
    }
    samples = {"setup_s": bench.setup_times, "pass_walls": walls,
               "speed_factors": factors, "calls": sum(map(len, calls))}
    if trace:
        traced_ref_walls, layers = bench.traced_passes(seconds / 2)
        metrics.update(layers)
        metrics.update(bench.outcome)
        metrics["verify.oracle_s"] = bench.oracle_s
        metrics["cli.call_p99_ms"] = metrics["call_p99_ms"]
        metrics["trace.overhead_s"] = \
            statistics.median(traced_ref_walls) - metrics["wall_ref_s"]
        samples["traced_pass_ref_walls"] = traced_ref_walls
    bench.count_failures()
    metrics["error_rate"] = bench.failed / bench.attempted
    return {
        "workload": bench.workload, "seed": bench.seed, "trace": trace,
        "correct": not bench.failures,
        "attempted": bench.attempted, "failed": bench.failed,
        "known_answers": "ok" if not known else known,
        "metrics": metrics, "hashes": bench.hashes, "exits": bench.exits,
        "samples": samples, "environment": environment(),
        "failures": bench.failures[:100],
        "trace_dump": bench.trace_dump,
    }


if __name__ == "__main__":
    sys.exit(main())
