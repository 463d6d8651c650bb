#!/usr/bin/env python3
"""Per-stage wall time of one in-process ``sfgsched report`` call, for two
source trees side by side.

    python3 bench/stages.py --parent DIR [--out BENCH_N.json]

``DIR`` is a checkout of the commit to compare against (for example one
made with ``git archive``); the change is this checkout.  For each size the
four input documents of ``tests/experiments.scale_config(points)`` (a
radix-2 FFT, inputs paced one per cycle on one bus, two single-port banks,
auto allocation) are written once, by this checkout and the benchmark's
document writer (``perfbench/workloads.py``).  Each run is one fresh
``python3`` process that imports ``sfgsched`` from one tree and makes one
``cli.main(["report", ..., "--out", ...])`` call.  The two trees alternate
which runs first.  Each size in ``POINTS`` gets ``RUNS`` runs per tree
(``LARGE_RUNS`` from ``LARGE`` points up).  Sizes below ``LARGE`` then get
as many runs again with the garbage collector off (``gc.disable()`` before
the call): a stage that reads differently only with the collector on has
had collection passes moved into it, not work.

Inside the child process every stage function is replaced, on the ``cli``,
``scheduling`` and ``verify`` modules, by a wrapper that adds its exclusive
time (``time.perf_counter``, minus wrapped calls nested in it) to its
stage; ``write`` is the output files (``cli._write_file``, or
``Path.write_text`` in trees that predate it) and ``other`` the rest of the
call (argument parsing, file reads).  The child also counts
constraint-graph builds and graph validations (``SFG.find_cycle`` calls),
counts the cyclic garbage collections made during the call per
generation and times them (``gc.callbacks``; collection time also sits
inside the stage it interrupted), and hashes ``schedule.json`` and
``report.json``; both trees must give the same hashes.  The standard
library is all this script needs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
POINTS = (16, 64, 128, 256, 1024)
RUNS = 5
LARGE = 1024
LARGE_RUNS = 3

# stage -> functions timed as that stage, by the name the CLI, the
# scheduler and the verifier import them under
STAGES = {
    "parse": ("parse_sfg", "parse_operator_library", "parse_io_spec",
              "parse_memory_mapping", "extract_memory_table",
              "apply_mapping"),
    "lowering": ("build_constraint_graph", "build_transfer_graph",
                 "apply_io_constraints", "compute_time_windows"),
    "feasibility": ("check_feasibility",),
    "schedule": ("schedule",),
    "verify": ("verify_schedule",),
    "report_serialize": ("build_report", "report_to_json",
                         "render_report_text"),
    "write": ("_write_file",),
}


# -- child: one report call ---------------------------------------------------

def _child(src: str, argv: list[str], collect: bool) -> dict:
    sys.path.insert(0, src)
    import sfgsched.cli as cli
    import sfgsched.graph as graph
    import sfgsched.scheduling as scheduling
    import sfgsched.verify as verify

    spent = dict.fromkeys(STAGES, 0.0)
    counts = {"build_constraint_graph": 0, "find_cycle": 0}
    nested = [0.0]  # wrapped time inside the innermost open wrapper

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            outer, nested[0] = nested[0], 0.0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                spent[stage] += elapsed - nested[0]
                nested[0] = outer + elapsed
        return wrapper

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, scheduling, verify):
        for stage, names in STAGES.items():
            for name in names:
                if hasattr(module, name):
                    fn = getattr(module, name)
                    if name in counts:
                        fn = counted(name, fn)
                    setattr(module, name, timed(stage, fn))
    scheduling.Schedule.to_json = timed("report_serialize",
                                        scheduling.Schedule.to_json)
    graph.SFG.find_cycle = counted("find_cycle", graph.SFG.find_cycle)
    Path.write_text = timed("write", Path.write_text)

    collections, collect_s, began = [0, 0, 0], [0.0, 0.0, 0.0], [0.0]

    def on_gc(phase, info):
        if phase == "start":
            began[0] = time.perf_counter()
        else:
            collections[info["generation"]] += 1
            collect_s[info["generation"]] += time.perf_counter() - began[0]

    if not collect:
        gc.disable()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        gc.callbacks.append(on_gc)
        start = time.perf_counter()
        code = cli.main(argv)
        total = time.perf_counter() - start
        gc.callbacks.remove(on_gc)
    if code != 0:
        raise SystemExit(f"report exited {code}: {sink.getvalue()}")
    out = Path(argv[argv.index("--out") + 1])
    digests = {name: hashlib.sha256(
        (out / f"{name}.json").read_bytes()).hexdigest()
        for name in ("schedule", "report")}
    spent["other"] = total - sum(spent.values())
    return {"stage_s": spent, "total_s": total,
            "gc_collections": collections, "gc_s": collect_s,
            "constraint_graph_builds": counts["build_constraint_graph"],
            "graph_validations": counts["find_cycle"],
            "achieved_latency": json.loads(
                (out / "schedule.json").read_text())["latency"],
            **digests}


# -- driver ---------------------------------------------------------------------

def write_docs(points: int) -> tuple[list[str], int]:
    """Write the scale_config documents with the benchmark's writer; return
    the ``report`` arguments and the graph's node count."""
    import experiments
    import sfgsched as s
    import workloads

    cfg = experiments.scale_config(points)
    problem = workloads.Problem(
        f"scale{points}", cfg.g, cfg.lib, cfg.spec,
        s.MappingSpec(mode="auto", banks=cfg.mapping.banks), cfg.mapping,
        "auto", None)
    return (workloads.write_problem(s, problem, WORK / problem.name),
            len(cfg.g.nodes))


def run_child(src: Path, argv: list[str], collect: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(src), json.dumps(argv),
         str(int(collect))], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    stages = list(runs[0]["stage_s"])
    return {
        "runs": len(runs),
        "constraint_graph_builds": runs[0]["constraint_graph_builds"],
        "graph_validations": runs[0]["graph_validations"],
        "stage_s_median": {k: round(statistics.median(
            r["stage_s"][k] for r in runs), 4) for k in stages},
        "total_s_median": round(statistics.median(
            r["total_s"] for r in runs), 4),
        "gc_collections_median": [statistics.median(
            r["gc_collections"][gen] for r in runs) for gen in range(3)],
        "gc_s_median": [round(statistics.median(
            r["gc_s"][gen] for r in runs), 4) for gen in range(3)],
        "stage_s_all": {k: [round(r["stage_s"][k], 4) for r in runs]
                        for k in stages},
        "total_s_all": [round(r["total_s"], 4) for r in runs],
        "gc_collections_all": [r["gc_collections"] for r in runs],
        "gc_s_all": [round(sum(r["gc_s"]), 4) for r in runs],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="checkout of the commit to compare against")
    p.add_argument("--out", type=Path, help="JSON file to write")
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / d) for d in ("src", "tests", "perfbench")]
    trees = {"parent": args.parent.resolve() / "src", "change": ROOT / "src"}
    configs = []
    for points in POINTS:
        report_argv, nodes = write_docs(points)
        results = {}
        modes = [(True, "")] if points >= LARGE else [(True, ""),
                                                       (False, "_gc_off")]
        for collect, suffix in modes:
            for side in trees:
                results[side + suffix] = []
            for k in range(LARGE_RUNS if points >= LARGE else RUNS):
                order = list(trees) if k % 2 == 0 else list(trees)[::-1]
                for side in order:
                    results[side + suffix].append(
                        run_child(trees[side], report_argv, collect))
        digests = {(r["schedule"], r["report"], r["achieved_latency"])
                   for rs in results.values() for r in rs}
        if len(digests) != 1:
            raise SystemExit(f"{points} points: outputs differ: {digests}")
        sched_sha, report_sha, latency = digests.pop()
        entry = {"points": points, "sfg_nodes": nodes,
                 "achieved_latency": latency,
                 "schedule_sha256": sched_sha, "report_sha256": report_sha}
        entry.update({side: summarize(rs) for side, rs in results.items()})
        entry["total_median_ratio_change_over_parent"] = round(
            entry["change"]["total_s_median"]
            / entry["parent"]["total_s_median"], 3)
        configs.append(entry)
        print(f"{points:5d} points: total {entry['parent']['total_s_median']}"
              f" s -> {entry['change']['total_s_median']} s, collections "
              f"{entry['parent']['gc_collections_median']} -> "
              f"{entry['change']['gc_collections_median']}", file=sys.stderr)

    record = {
        "what": "Per-stage wall time of one in-process `sfgsched report` "
                "call on tests/experiments.scale_config(points); see "
                "bench/stages.py.",
        "stages": {k: ", ".join(v) for k, v in STAGES.items()}
        | {"report_serialize": ", ".join(STAGES["report_serialize"])
           + ", Schedule.to_json",
           "write": "cli._write_file, or Path.write_text where the CLI "
                    "has no _write_file",
           "other": "the rest of cli.main: argument parsing, file reads"},
        "gc": "gc_collections / gc_s: cyclic collections made during the "
              "call and their time, per generation 0, 1, 2 (gc.callbacks); "
              "the time is also inside the stage each one interrupted",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "configs": configs,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(_child(sys.argv[2], json.loads(sys.argv[3]),
                                sys.argv[4] == "1")))
    else:
        sys.exit(main())
