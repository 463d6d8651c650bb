#!/usr/bin/env python3
"""In-process A/B of two source trees on one benchmark workload.

    python3 bench/ab.py --parent DIR [--workload fft128_paced] [--rounds 30]
                        [--seed 1]

``DIR`` is a checkout of the commit to compare against (for example one
made with ``git archive``); the change is this checkout.  Both trees'
``sfgsched`` packages are loaded into this one process, each under its own
package name (``ab_parent`` and ``ab_change``), so each keeps its own
module set.  The workload's problems come from the benchmark's generators
(``perfbench/workloads.py``, imported and only read), built and written as
``report`` documents once per tree.

A round is one pass of each tree over the workload's ``report`` calls
through ``cli.main``, the two trees alternating which runs first.  Each
tree's ``lower`` and ``check_feasibility`` (the front end's lowering and
static checks), ``schedule``, ``verify_schedule`` and ``report_to_json``
(the writer of ``report.json``), all five as its CLI calls them, and
``Schedule.to_json`` (the writer of ``schedule.json``) are timed inside
the pass, so one A/B splits a gain between the front end, the scheduler,
the verifier and the writers.
Before the rounds one pass of each tree is checked: every call's exit
code and its ``schedule.json`` and ``report.json`` bytes must be equal on
both trees.  The script prints, for the whole pass and for each timed
function, each tree's median and minimum time, the median
of the per-round ratios change/parent and the number of rounds the change
was faster.  The standard library is all it needs.

An A/A run, with ``--parent`` set to a copy of this same tree, gives the
spread of the host: its ratios are what an A/B's ratios must clear
before they show a change.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "ab"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (found through the path set above)


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


TIMED = ("lower", "check_feasibility", "schedule", "verify_schedule",
         "report_to_json", "to_json")


class Tree:
    """One loaded tree, its workload documents and its timed functions
    (``TIMED``): the CLI's ``lower``, ``check_feasibility``, ``schedule``,
    ``verify_schedule`` and ``report_to_json``, and ``Schedule.to_json``."""

    def __init__(self, side: str, src: Path, workload: str, seed: int):
        self.side = side
        self.s, self.cli = load_tree(src, f"ab_{side}")
        problems = workloads.GENERATORS[workload](self.s, seed)
        self.argvs = [workloads.write_problem(
            self.s, p, WORK / workload / side / p.name) for p in problems]
        self.spent = dict.fromkeys(TIMED, 0.0)  # in the current pass
        self.times: dict[str, list[float]] = {"cli.main": []}
        for name in TIMED:
            owner = self.s.Schedule if name == "to_json" else self.cli
            setattr(owner, name, self._timed(name, getattr(owner, name)))
            self.times[name] = []

    def _timed(self, name: str, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[name] += time.perf_counter() - start
        return timed

    def run_pass(self) -> list[int]:
        """One pass over the calls; records its times and returns the exit
        codes."""
        main, codes = self.cli.main, []
        self.spent = dict.fromkeys(TIMED, 0.0)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            for argv in self.argvs:
                codes.append(main(argv))
            elapsed = time.perf_counter() - start
        self.times["cli.main"].append(elapsed)
        for name in TIMED:
            self.times[name].append(self.spent[name])
        return codes

    def outputs(self, codes: list[int]) -> list[tuple]:
        out = []
        for code, argv in zip(codes, self.argvs):
            directory = Path(argv[argv.index("--out") + 1])
            files = tuple((directory / f"{name}.json").read_bytes()
                          if code == 0 else None
                          for name in ("schedule", "report"))
            out.append((code, *files))
        return out


def summary(label: str, parent: list[float], change: list[float]) -> str:
    ratios = [c / p for p, c in zip(parent, change)]
    won = sum(c < p for p, c in zip(parent, change))
    return (f"{label:17s} parent median {statistics.median(parent):.4f} s "
            f"min {min(parent):.4f} s | change median "
            f"{statistics.median(change):.4f} s min {min(change):.4f} s | "
            f"median ratio {statistics.median(ratios):.3f}, change faster "
            f"in {won}/{len(ratios)} rounds")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="checkout of the commit to compare against")
    p.add_argument("--workload", default="fft128_paced",
                   choices=sorted(workloads.GENERATORS))
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    trees = [Tree("parent", args.parent.resolve() / "src", args.workload,
                  args.seed),
             Tree("change", ROOT / "src", args.workload, args.seed)]
    first = [tree.outputs(tree.run_pass()) for tree in trees]
    for k, (a, b) in enumerate(zip(*first)):
        if a != b:
            raise SystemExit(f"call {k} ({trees[0].argvs[k][2]}): exit "
                             f"codes or output bytes differ")
    print(f"{args.workload}: {len(first[0])} calls, outputs byte-equal on "
          f"both trees", file=sys.stderr)
    for tree in trees:
        for times in tree.times.values():
            times.clear()
    for k in range(args.rounds):
        for tree in trees if k % 2 == 0 else trees[::-1]:
            tree.run_pass()
    parent, change = trees
    print(f"{args.workload}, {args.rounds} rounds, seed {args.seed}")
    for name in parent.times:
        print(summary(name, parent.times[name], change.times[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
