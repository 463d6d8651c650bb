"""Command line front end: ``check`` validates the inputs and runs the
static feasibility analyses, ``schedule`` writes a schedule, ``report``
schedules and summarizes the architecture, ``gen-fft`` emits a radix-2
FFT graph and ``export-dot`` renders a graph for graphviz.

Exit codes: 0 success, 1 bad input or usage (running out of memory
included), 2 constraints statically infeasible, 3 scheduling aborted.

The parsers are built on the first ``main`` call and reused by later
ones; ``_parse_arguments`` parses a named command's arguments in one
pass, by that command's parser alone.  Each ``check``, ``schedule`` and
``report`` call reads its documents with ``_read_text`` and lowers the
problem once, with ``scheduling.lower``; the static checks, the
scheduler, the verifier and the report take only that ``Problem``.
Files are read and directories made by plain
``os`` calls on pathlib's spelling of each path, from ``_path``; every
output file goes through ``_write_file``.

``main`` turns the cyclic garbage collector off while a command runs and
then restores the caller's setting: a call builds tens of thousands of
long-lived records, which set off collection passes that walk them all
and free nothing, since a call leaves no reference cycles behind
(``tests/test_cli.py::test_main_leaves_no_cyclic_garbage`` guards both).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import cache

from .constraints import Problem, check_feasibility
# unused here, but perfbench/tracing.py wraps these names on this module
from .constraints import (apply_io_constraints, build_constraint_graph,
                          compute_time_windows)
from .dot import export_dot
from .fft import generate_fft_sfg
from .graph import serialize_sfg, parse_sfg
from .iospec import IoConstraintSpec, parse_io_spec
from .memory import MappingSpec, apply_mapping, extract_memory_table, \
    parse_memory_mapping
from .oplib import parse_operator_library
from .report import build_report, render_report_text, report_to_json
from .scheduling import ScheduleFailure, lower, parse_allocation, schedule
from .verify import verify_schedule

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_ABORTED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; 2 is taken, remap to 1."""

    def error(self, message):  # noqa: D102 (argparse API)
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number of cycles, got {text!r}")
    return value


def _path(path: str, name: str = "") -> str:
    """``str(Path(path, name))`` on POSIX, spelled without building a path:
    empty and ``.`` parts dropped, a leading ``//`` kept as it is."""
    lead = len(path) - len(path.lstrip("/"))  # POSIX: 2 kept, 3 or more 1
    root = "//" if lead == 2 else "/" if lead else ""
    return root + "/".join(part for part in f"{path}/{name}".split("/")
                           if part not in ("", ".")) or "."


def _read_text(path: str) -> str:
    with open(_path(path)) as f:  # as ``Path(path).read_text()``
        return f.read()


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as ``open(path, "w")`` would, but over an
    existing file in place, then cut to the length written: ext4 flushes a
    file emptied by ``O_TRUNC`` when it is closed, at many times the cost
    of the write."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
        f.write(text)
        f.truncate()


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="dataflow graph JSON")
    p.add_argument("--lib", required=True, help="operator library JSON")
    p.add_argument("--io", help="I/O constraint JSON (omit: unconstrained)")
    p.add_argument("--mem", help="memory bank/placement JSON")
    p.add_argument("--latency", type=_positive_int,
                   help="latency bound in cycles (overrides the I/O file)")
    p.add_argument("--cadence", type=_positive_int,
                   help="iteration cadence in cycles (overrides the I/O file)")


@cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    p = _Parser(prog="sfgsched",
                description="Schedule DSP dataflow graphs under I/O timing "
                            "and memory-bank constraints.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pc = sub.add_parser("check", help="validate inputs and run the static "
                                      "feasibility analyses")
    _add_problem_args(pc)

    ps = sub.add_parser("schedule", help="compute a schedule")
    _add_problem_args(ps)
    ps.add_argument("--alloc", default="auto",
                    help="'auto' or 'fixed:class=count,...' (default auto)")
    ps.add_argument("--out", help="directory for schedule.json")

    pr = sub.add_parser("report", help="schedule and print the architecture "
                                       "summary")
    _add_problem_args(pr)
    pr.add_argument("--alloc", default="auto")
    pr.add_argument("--out", help="directory for schedule.json, report.json "
                                  "and report.txt")

    pf = sub.add_parser("gen-fft", help="generate a radix-2 FFT graph")
    pf.add_argument("--points", type=int, required=True)
    pf.add_argument("--out", help="output file (default stdout)")

    pd = sub.add_parser("export-dot", help="render a graph for graphviz")
    pd.add_argument("--graph", required=True)
    pd.add_argument("--out", help="output file (default stdout)")
    return p, sub.choices


def _parse_arguments(argv: list[str]):
    """Parse ``argv`` as the top-level parser would, but a named command's
    arguments in one pass, by that command's parser alone."""
    top, commands = _build_parser()
    if not argv or argv[0] not in commands:
        return top.parse_args(argv)
    args, rest = commands[argv[0]].parse_known_args(argv[1:])
    if rest:
        top.error(f"unrecognized arguments: {' '.join(rest)}")
    args.command = argv[0]
    return args


def _load_problem(args) -> Problem:
    """Parse the problem documents and lower them once, into a
    ``Problem``."""
    g = parse_sfg(_read_text(args.graph))
    lib = parse_operator_library(_read_text(args.lib))
    if args.io is not None:
        spec = parse_io_spec(_read_text(args.io), g)
        if args.latency is not None or args.cadence is not None:
            from dataclasses import replace
            if args.latency is not None:
                spec = replace(spec, latency_bound=args.latency)
            if args.cadence is not None:
                spec = replace(spec, cadence=args.cadence)
    else:
        if args.latency is None:
            raise ValueError("need --latency when no --io file is given")
        spec = IoConstraintSpec.unconstrained(args.latency, args.cadence)
    table = extract_memory_table(g)
    if args.mem is not None:
        mapping = apply_mapping(table, parse_memory_mapping(
            _read_text(args.mem), g))
    else:
        if table.data_ids:
            raise ValueError("graph stores data in memory but no --mem "
                             "document is given")
        mapping = apply_mapping(table, MappingSpec(mode="auto", banks=()))
    return lower(g, lib, spec, mapping)


def _run_static_checks(problem: Problem, stream) -> int:
    rep = check_feasibility(problem)
    print(f"cadence check: {'ok' if rep.cadence_ok else 'FAILED'} "
          f"(critical path {rep.critical_path_cycles} cycles, "
          f"bound {problem.spec.latency_bound})", file=stream)
    print(f"output dates:  {'ok' if rep.output_dates_ok else 'FAILED'}",
          file=stream)
    for d in rep.diagnostics:
        print(f"  {d}", file=stream)
    return EXIT_OK if rep.feasible else EXIT_INFEASIBLE


def _cmd_check(args) -> int:
    return _run_static_checks(_load_problem(args), sys.stdout)


def _schedule_with_gate(args):
    problem = _load_problem(args)
    rc = _run_static_checks(problem, sys.stderr)
    if rc != EXIT_OK:
        return rc, None, None
    alloc = parse_allocation(args.alloc)
    sched = schedule(problem.g, problem.lib, problem.spec, problem.mapping,
                     alloc, problem)
    violations = verify_schedule(sched, problem, alloc)
    if violations:  # defensive: a scheduler bug, not a user error
        print(*violations, "scheduling aborted: schedule failed verification",
              sep="\n", file=sys.stderr)
        return EXIT_ABORTED, None, None
    return EXIT_OK, problem, sched


def _cmd_schedule(args) -> int:
    rc, problem, sched = _schedule_with_gate(args)
    if rc != EXIT_OK:
        return rc
    del problem  # the writes need no lowering: free it before them
    text = sched.to_json()
    if args.out:
        os.makedirs(_path(args.out), exist_ok=True)
        _write_file(path := _path(args.out, "schedule.json"), text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    print(f"scheduled {len(sched.ops)} operations, latency "
          f"{sched.achieved_latency} cycles (bound {sched.latency_bound})",
          file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    rc, problem, sched = _schedule_with_gate(args)
    if rc != EXIT_OK:
        return rc
    rep = build_report(sched, problem)
    del problem  # the writes need no lowering: free it before them
    text = render_report_text(rep)
    if args.out:
        os.makedirs(_path(args.out), exist_ok=True)
        _write_file(_path(args.out, "schedule.json"), sched.to_json())
        _write_file(_path(args.out, "report.json"), report_to_json(rep))
        _write_file(path := _path(args.out, "report.txt"), text)
        print(f"wrote {path}")
    sys.stdout.write(text)
    return EXIT_OK


def _emit(text: str, out: str | None) -> int:
    if out:
        _write_file(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_gen_fft(args) -> int:
    return _emit(serialize_sfg(generate_fft_sfg(args.points)), args.out)


def _cmd_export_dot(args) -> int:
    return _emit(export_dot(parse_sfg(_read_text(args.graph))), args.out)


def main(argv: list[str] | None = None) -> int:
    args = _parse_arguments(sys.argv[1:] if argv is None else argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        # looked up when called, so a handler replaced on the module runs
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except ScheduleFailure as e:
        print(f"scheduling aborted: {e}", file=sys.stderr)
        return EXIT_ABORTED
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
