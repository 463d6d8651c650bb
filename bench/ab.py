#!/usr/bin/env python3
"""In-process A/B of two source trees, per pipeline stage.

    python3 bench/ab.py --parent DIR [--workload fft128_paced] [--rounds 30]
                        [--seed 1] [--out FILE]
    python3 bench/ab.py --parent DIR --workload setup [--rounds 30] [--out FILE]

``DIR`` is a checkout of the commit to compare against (for example one
made with ``git archive``); the change is this checkout.  Both trees'
``sfgsched`` packages are loaded into this one process, each under its own
package name (``ab_parent`` and ``ab_change``), so each keeps its own
module set.

A workload is one or more entries, each a list of ``report`` calls made
through ``cli.main``.  A benchmark workload (``perfbench/workloads.py``,
imported and only read) is one entry; its problems are built and written
as documents once per tree.  ``ladder`` is one entry per size in
``POINTS``: the one call on ``tests/experiments.scale_config(points)`` (a
radix-2 FFT, inputs paced one per cycle on one bus, two single-port banks,
auto allocation).  Its documents are written once, by this checkout, and
both trees read them, since ``scale_config`` builds its graph with this
checkout's package.  A default ladder run (30 rounds) takes about 5.5
minutes on 2 vCPU, most of it at 1,024 points (about 7.5 s a round).

Per entry, one pass of each tree is checked first: every call's exit code
and its ``schedule.json`` and ``report.json`` bytes must be equal on both
trees.  Then a round is one pass of each tree over the entry's calls, the
two trees alternating which runs first; the garbage collector runs before
each pass, as in ``perfbench/run.py``, so neither tree pays for the
garbage the other left.  Each stage in ``STAGES`` is a set of names on the
tree's ``cli`` module (``to_json`` is ``Schedule``'s), each called by
``cli.main`` outside any other, and is timed by a plain wrapper;
``other`` is the rest of the pass (output directories, messages, the
collector switch).  A name a tree lacks is skipped, so its time shows
under ``other``.  The script prints, per entry and for the whole pass and
each stage, each tree's median and minimum time, the median of the
per-round ratios change/parent, the ratio of the two minima and the
number of rounds the change was faster.
It also prints each tree's ``src/sfgsched/*.py`` line count, and the
count of those lines that hold code (not blank, not only a comment, not
in a docstring), so that a cut can be told from trimmed prose; then both
counts per module, parent -> change, so that lines moved from one module
to another show.  ``--out`` writes the same, with every round's times (to
the microsecond), the SHA-256 of the ``schedule.json`` and
``report.json`` bytes (over the entry's calls in order), the line counts
(``src_lines`` and ``src_code_lines``, and per module by file name
``src_lines_by_module`` and ``src_code_lines_by_module``) and the host,
as JSON.  The standard library is all it needs.

``setup`` times instead what perfbench's ``setup_s`` times for
``SETUP_WORKLOAD``: a round is one set-up by each tree, the two
alternating which goes first, and a set-up is three stages, each timed on
its own.  ``import`` imports the tree's package and its ``cli`` afresh
(its modules are dropped from ``sys.modules`` first, so the sources are
compiled again unless Python may read cached bytecode), ``generate`` runs
the workload's generator and ``write`` writes its documents with
``workloads.write_problem``, which writes a file only when its text
changed.  The documents of both trees must be byte-equal after the first
round.  Each stage is printed on its own line, so the import, mostly
compiling the sources, does not hide what the other two gain.

An A/A run, with ``--parent`` set to a copy of this same tree, gives the
spread of the host: its ratios are what an A/B's ratios must clear
before they show a change.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import sys
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "ab"
sys.path[:0] = [str(ROOT / d) for d in ("perfbench", "tests", "src")]

import workloads  # noqa: E402  (found through the path set above)

POINTS = (16, 64, 128, 256, 1024)
SETUP_WORKLOAD = "fft128_paced"
STAGES = {
    "arguments": ("_parse_arguments",),
    "read": ("_read_text",),
    "parse": ("parse_sfg", "parse_operator_library", "parse_io_spec",
              "parse_memory_mapping", "extract_memory_table",
              "apply_mapping"),
    "lowering": ("lower",),
    "feasibility": ("check_feasibility",),
    "schedule": ("schedule",),
    "verify": ("verify_schedule",),
    "report_serialize": ("build_report", "report_to_json",
                         "render_report_text", "to_json"),
    "write": ("_write_file",),
}


def load_tree(src: Path, name: str):
    """Import ``src/sfgsched`` as the package ``name``; return it and its
    ``cli`` module."""
    spec = importlib.util.spec_from_file_location(
        name, src / "sfgsched" / "__init__.py",
        submodule_search_locations=[str(src / "sfgsched")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package, importlib.import_module(f"{name}.cli")


class Tree:
    """One loaded tree with a timing wrapper on each stage's names."""

    def __init__(self, side: str, src: Path):
        self.side = side
        self.s, self.cli = load_tree(src, f"ab_{side}")
        self.spent = dict.fromkeys(STAGES, 0.0)  # in the current pass
        for stage, names in STAGES.items():
            for name in names:
                owner = self.s.Schedule if name == "to_json" else self.cli
                if hasattr(owner, name):
                    setattr(owner, name,
                            self._timed(stage, getattr(owner, name)))

    def _timed(self, stage: str, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[stage] += time.perf_counter() - start
        return timed

    def run_pass(self, argvs: list[list[str]]) -> tuple[list[int], dict]:
        """One pass over the calls: their exit codes, and the pass's time
        per stage, ``other`` and ``total``."""
        main, codes = self.cli.main, []
        self.spent = dict.fromkeys(STAGES, 0.0)
        sink = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            for argv in argvs:
                codes.append(main(argv))
            total = time.perf_counter() - start
        return codes, {**self.spent, "other": total - sum(self.spent.values()),
                       "total": total}


def outputs(codes: list[int], argvs: list[list[str]]) -> list[tuple]:
    out = []
    for code, argv in zip(codes, argvs):
        directory = Path(argv[argv.index("--out") + 1])
        out.append((code, *((directory / f"{name}.json").read_bytes()
                            if code == 0 else b""
                            for name in ("schedule", "report"))))
    return out


def ladder_argvs(points: int) -> list[str]:
    """Write the ``scale_config(points)`` documents with this checkout and
    the benchmark's writer; return the ``report`` arguments."""
    import experiments
    import sfgsched as s

    cfg = experiments.scale_config(points)
    problem = workloads.Problem(
        f"scale{points}", cfg.g, cfg.lib, cfg.spec,
        s.MappingSpec(mode="auto", banks=cfg.mapping.banks), cfg.mapping,
        "auto", None)
    return workloads.write_problem(s, problem, WORK / "ladder" / problem.name)


def measure(name: str, trees: list[Tree], argvs: dict, rounds: int) -> dict:
    """Check one entry's outputs on both trees, time its rounds, print and
    return its record."""
    first = [outputs(tree.run_pass(argvs[tree.side])[0], argvs[tree.side])
             for tree in trees]
    for k, (a, b) in enumerate(zip(*first)):
        if a != b:
            raise SystemExit(f"{name}, call {k}: exit codes or output bytes "
                             f"differ")
    print(f"{name}: {len(first[0])} calls, outputs byte-equal on both trees",
          file=sys.stderr)
    times = {tree.side: {} for tree in trees}
    for k in range(rounds):
        for tree in trees if k % 2 == 0 else trees[::-1]:
            for stage, t in tree.run_pass(argvs[tree.side])[1].items():
                times[tree.side].setdefault(stage, []).append(t)
    entry = {"name": name, "calls": len(first[0])}
    for k, file in enumerate(("schedule", "report"), 1):
        entry[f"{file}_sha256"] = hashlib.sha256(
            b"".join(call[k] for call in first[0])).hexdigest()
    return summarize(entry, times, rounds)


def summarize(entry: dict, times: dict, rounds: int) -> dict:
    """Add each side's per-stage times (``times[side][stage]``, one per
    round) to the record ``entry``, with medians, the median ratio
    change/parent, the ratio of the minima and the change's wins; print
    them, a line per stage.  The minima are the times least touched by
    the host's slow spells, so their ratio can tell a change from an A/A
    that leans one way when the median ratios cannot."""
    parent, change = times["parent"], times["change"]
    for side in times:
        entry[side] = {
            "median_s": {stage: round(statistics.median(ts), 6)
                         for stage, ts in times[side].items()},
            "rounds_s": {stage: [round(t, 6) for t in ts]
                         for stage, ts in times[side].items()}}
    entry["ratio_median"], entry["ratio_min"], entry["change_faster"] = \
        {}, {}, {}
    print(f"{entry['name']}, {rounds} rounds")
    for stage in parent:
        p, c = parent[stage], change[stage]
        ratio = statistics.median(b / a if a else 1.0 for a, b in zip(p, c))
        ratio_min = min(c) / min(p) if min(p) else 1.0
        won = sum(b < a for a, b in zip(p, c))
        entry["ratio_median"][stage] = round(ratio, 3)
        entry["ratio_min"][stage] = round(ratio_min, 3)
        entry["change_faster"][stage] = won
        print(f"{stage:17s} parent median {statistics.median(p):.4f} s min "
              f"{min(p):.4f} s | change median {statistics.median(c):.4f} s "
              f"min {min(c):.4f} s | median ratio {ratio:.3f}, min ratio "
              f"{ratio_min:.3f}, change faster in {won}/{len(p)} rounds")
    return entry


def set_up(side: str, src: Path, seed: int) -> dict:
    """One set-up of ``SETUP_WORKLOAD`` by the tree at ``src``, imported
    afresh as ``ab_<side>``: its time per stage."""
    name = f"ab_{side}"
    for module in [m for m in sys.modules
                   if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    importlib.invalidate_caches()
    gc.collect()
    start = time.perf_counter()
    s, _ = load_tree(src, name)
    imported = time.perf_counter()
    problems = workloads.GENERATORS[SETUP_WORKLOAD](s, seed)
    generated = time.perf_counter()
    for problem in problems:
        workloads.write_problem(s, problem,
                                WORK / "setup" / side / problem.name)
    written = time.perf_counter()
    return {"import": imported - start, "generate": generated - imported,
            "write": written - generated, "total": written - start}


def measure_setup(sources: dict, rounds: int, seed: int) -> dict:
    """Time ``rounds`` interleaved set-ups of each tree (``sources`` maps a
    side to its ``src``), check that both wrote the same documents, and
    print and return the record."""
    times: dict = {side: {} for side in sources}
    sides = list(sources)
    for k in range(rounds):
        for side in sides if k % 2 == 0 else sides[::-1]:
            for stage, t in set_up(side, sources[side], seed).items():
                times[side].setdefault(stage, []).append(t)
        if k == 0:
            written = [{f.relative_to(WORK / "setup" / side): f.read_bytes()
                        for f in (WORK / "setup" / side).rglob("*.json")}
                       for side in sides]
            if written[0] != written[1]:
                raise SystemExit("setup: the trees wrote different documents")
            print(f"setup: {len(written[0])} documents byte-equal on both "
                  f"trees", file=sys.stderr)
    return summarize({"name": f"setup {SETUP_WORKLOAD}"}, times, rounds)


def measure_calls(args, sources: dict) -> list[dict]:
    """The records of ``args.workload``'s entries, each a list of
    ``report`` calls timed by ``measure``."""
    trees = [Tree(side, src) for side, src in sources.items()]
    if args.workload == "ladder":
        entries = [(f"ladder{n}", dict.fromkeys(sources, [ladder_argvs(n)]))
                   for n in POINTS]
    else:
        entries = [(args.workload, {tree.side: [workloads.write_problem(
            tree.s, problem, WORK / args.workload / tree.side / problem.name)
            for problem in workloads.GENERATORS[args.workload](
                tree.s, args.seed)] for tree in trees})]
    return [measure(name, trees, argvs, args.rounds)
            for name, argvs in entries]


def module_lines(src: Path) -> dict[str, int]:
    """The number of lines of each of the tree's ``sfgsched/*.py`` under
    ``src``, by file name."""
    return {f.name: len(f.read_bytes().splitlines())
            for f in sorted((src / "sfgsched").glob("*.py"))}


#: tokens that make no line code
NOT_CODE = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                      tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER))
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def module_code_lines(src: Path) -> dict[str, int]:
    """The number of lines of each of the tree's ``sfgsched/*.py`` under
    ``src`` that hold code (not blank, not only a comment, not in a
    docstring), by file name."""
    counts = {}
    for f in sorted((src / "sfgsched").glob("*.py")):
        text = f.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DOCUMENTED) and node.body \
                    and isinstance(node.body[0], ast.Expr) \
                    and isinstance(node.body[0].value, ast.Constant) \
                    and isinstance(node.body[0].value.value, str):
                first = node.body[0]
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        code = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
        counts[f.name] = len(code - docstrings)
    return counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="checkout of the commit to compare against")
    p.add_argument("--workload", default="fft128_paced",
                   choices=sorted(workloads.GENERATORS) + ["ladder", "setup"])
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path, help="JSON record to write")
    args = p.parse_args(argv)

    sources = {"parent": args.parent.resolve() / "src", "change": ROOT / "src"}
    by_module = {side: module_lines(src) for side, src in sources.items()}
    code_by_module = {side: module_code_lines(src)
                      for side, src in sources.items()}
    lines = {side: sum(n.values()) for side, n in by_module.items()}
    code_lines = {side: sum(n.values()) for side, n in code_by_module.items()}
    print(f"src/sfgsched/*.py lines: parent {lines['parent']}, change "
          f"{lines['change']}")
    print(f"src/sfgsched/*.py code lines: parent {code_lines['parent']}, "
          f"change {code_lines['change']}")
    for name in sorted(by_module["parent"].keys() | by_module["change"]):
        print(f"  {name}: lines " + " -> ".join(
            str(by_module[side].get(name, 0)) for side in sources)
            + ", code lines " + " -> ".join(
            str(code_by_module[side].get(name, 0)) for side in sources))
    if args.workload == "setup":
        record = {
            "what": f"Set-up time of perfbench's {SETUP_WORKLOAD} workload "
                    f"per stage, two trees interleaved in one process; see "
                    f"bench/ab.py.",
            "stages": {"import": "the package and its cli, imported afresh",
                       "generate": "the workload's generator",
                       "write": "workloads.write_problem"},
            "entries": [measure_setup(sources, args.rounds, args.seed)]}
    else:
        record = {
            "what": "Per-stage wall time of sfgsched report calls made "
                    "through cli.main, two trees interleaved in one process; "
                    "see bench/ab.py.",
            "stages": {stage: ", ".join(names)
                       for stage, names in STAGES.items()}
            | {"other": "the rest of cli.main: output directories, "
                        "messages, the collector switch"},
            "entries": measure_calls(args, sources)}
    record |= {"workload": args.workload, "rounds": args.rounds,
               "seed": args.seed, "src_lines": lines,
               "src_code_lines": code_lines,
               "src_lines_by_module": by_module,
               "src_code_lines_by_module": code_by_module,
               "python": platform.python_version(),
               "cpu_count": os.cpu_count(), "platform": platform.platform()}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
