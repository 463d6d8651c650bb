"""Command line front end.

Subcommands:

* ``check``      validate inputs and run the static feasibility analyses
* ``schedule``   produce a schedule (written as schedule.json with --out)
* ``report``     schedule and summarize the resulting architecture
* ``gen-fft``    emit a radix-2 FFT dataflow graph
* ``export-dot`` render a graph for graphviz

Exit codes: 0 success, 1 bad input or usage, 2 constraints statically
infeasible, 3 scheduling aborted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .constraints import (apply_io_constraints, build_constraint_graph,
                          check_feasibility, compute_time_windows)
from .dot import export_dot
from .fft import generate_fft_sfg
from .graph import SFG, serialize_sfg, parse_sfg
from .iospec import IoConstraintSpec, build_transfer_graph, parse_io_spec
from .memory import MappingSpec, apply_mapping, extract_memory_table, \
    parse_memory_mapping
from .oplib import parse_operator_library
from .report import build_report, render_report_text, report_to_json
from .scheduling import ScheduleFailure, parse_allocation, schedule
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


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="dataflow graph JSON")
    p.add_argument("--lib", required=True, help="operator library JSON")
    p.add_argument("--io", help="I/O constraint JSON (omit: unconstrained)")
    p.add_argument("--mem", help="memory bank/placement JSON")
    p.add_argument("--latency", type=_positive_int,
                   help="latency bound in cycles (overrides the I/O file)")
    p.add_argument("--cadence", type=_positive_int,
                   help="iteration cadence in cycles (overrides the I/O file)")


def _build_parser() -> _Parser:
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
    ps.add_argument("--seed", type=int, default=0,
                    help="reserved; scheduling is deterministic")

    pr = sub.add_parser("report", help="schedule and print the architecture "
                                       "summary")
    _add_problem_args(pr)
    pr.add_argument("--alloc", default="auto")
    pr.add_argument("--out", help="directory for schedule.json, report.json "
                                  "and report.txt")
    pr.add_argument("--seed", type=int, default=0)

    pf = sub.add_parser("gen-fft", help="generate a radix-2 FFT graph")
    pf.add_argument("--points", type=int, required=True)
    pf.add_argument("--out", help="output file (default stdout)")

    pd = sub.add_parser("export-dot", help="render a graph for graphviz")
    pd.add_argument("--graph", required=True)
    pd.add_argument("--out", help="output file (default stdout)")
    return p


def _load_problem(args) -> tuple:
    g = parse_sfg(Path(args.graph).read_text())
    lib = parse_operator_library(Path(args.lib).read_text())
    if args.io is not None:
        spec = parse_io_spec(Path(args.io).read_text(), g)
        if args.latency is not None or args.cadence is not None:
            from dataclasses import replace
            if args.latency is not None:
                spec = replace(spec, latency_bound=args.latency)
            if args.cadence is not None:
                spec = replace(spec, cadence=args.cadence)
            problems = spec.validate(g)
            if problems:
                raise ValueError(problems[0])
    else:
        if args.latency is None:
            raise ValueError("need --latency when no --io file is given")
        spec = IoConstraintSpec.unconstrained(args.latency, args.cadence)
    table = extract_memory_table(g)
    if args.mem is not None:
        mapping = apply_mapping(table, parse_memory_mapping(
            Path(args.mem).read_text(), g))
    else:
        if table.entries:
            raise ValueError("graph stores data in memory but no --mem "
                             "document is given")
        mapping = apply_mapping(table, MappingSpec(mode="auto", banks=()))
    return g, lib, spec, mapping


def _run_static_checks(g, lib, spec, stream) -> int:
    cg = apply_io_constraints(build_constraint_graph(g, lib),
                              build_transfer_graph(spec), spec)
    windows = compute_time_windows(cg)
    rep = check_feasibility(cg, windows, spec)
    print(f"cadence check: {'ok' if rep.cadence_ok else 'FAILED'} "
          f"(critical path {rep.critical_path_cycles} cycles, "
          f"bound {spec.latency_bound})", file=stream)
    print(f"output dates:  {'ok' if rep.output_dates_ok else 'FAILED'}",
          file=stream)
    for d in rep.diagnostics:
        print(f"  {d}", file=stream)
    return EXIT_OK if rep.feasible else EXIT_INFEASIBLE


def _cmd_check(args) -> int:
    g, lib, spec, mapping = _load_problem(args)
    return _run_static_checks(g, lib, spec, sys.stdout)


def _schedule_with_gate(args):
    g, lib, spec, mapping = _load_problem(args)
    rc = _run_static_checks(g, lib, spec, sys.stderr)
    if rc != EXIT_OK:
        return rc, None, None, None, None, None
    alloc = parse_allocation(args.alloc)
    sched = schedule(g, lib, spec, mapping, alloc)
    violations = verify_schedule(sched, g, lib, spec, mapping)
    if violations:  # defensive: a scheduler bug, not a user error
        for v in violations:
            print(str(v), file=sys.stderr)
        raise ScheduleFailure("infeasible-windows", cycle=0,
                              detail="schedule failed verification")
    return EXIT_OK, g, lib, spec, mapping, sched


def _cmd_schedule(args) -> int:
    rc, g, lib, spec, mapping, sched = _schedule_with_gate(args)
    if rc != EXIT_OK:
        return rc
    text = sched.to_json()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "schedule.json").write_text(text)
        print(f"wrote {out / 'schedule.json'}")
    else:
        sys.stdout.write(text)
    print(f"scheduled {len(sched.ops)} operations, latency "
          f"{sched.achieved_latency} cycles (bound {sched.latency_bound})",
          file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    rc, g, lib, spec, mapping, sched = _schedule_with_gate(args)
    if rc != EXIT_OK:
        return rc
    rep = build_report(sched, g, spec, mapping, lib)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "schedule.json").write_text(sched.to_json())
        (out / "report.json").write_text(report_to_json(rep))
        (out / "report.txt").write_text(render_report_text(rep))
        print(f"wrote {out / 'report.txt'}")
    sys.stdout.write(render_report_text(rep))
    return EXIT_OK


def _cmd_gen_fft(args) -> int:
    g = generate_fft_sfg(args.points)
    text = serialize_sfg(g)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    g = parse_sfg(Path(args.graph).read_text())
    text = export_dot(g)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "schedule": _cmd_schedule,
        "report": _cmd_report,
        "gen-fft": _cmd_gen_fft,
        "export-dot": _cmd_export_dot,
    }
    try:
        return handlers[args.command](args)
    except ScheduleFailure as e:
        print(f"scheduling aborted: {e}", file=sys.stderr)
        return EXIT_ABORTED
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
