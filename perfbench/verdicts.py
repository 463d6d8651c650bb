"""Running one ``sfgsched report`` call in-process and judging its verdict.

A call is wrong when it exits 1, raises, exits with a code the CLI does
not define, or reports a verifier rejection (the CLI turns that into exit
3, which must not pass for a legitimate abort).  Where the exhaustive
oracle has been run, exit 0 must not schedule an instance the oracle
rejects or beat the oracle's optimum, and exit 2 must not reject an
instance the oracle schedules; an exit 3 the oracle could schedule is a
greedy miss, which is allowed.  Without the oracle only exit 0 is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

VERIFIER_REJECTION = "schedule failed verification"


@dataclass
class CallResult:
    code: int | None         # None when the call raised
    stderr: str
    error: str = ""          # traceback of an uncaught exception
    schedule: bytes | None = None  # schedule.json and report.json, on exit 0
    report: bytes | None = None

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.code}\n".encode())
        h.update(self.schedule or b"")
        h.update(self.report or b"")
        return h.hexdigest()

    def report_doc(self) -> dict:
        return json.loads(self.report)

    def read_outputs(self, argv: list[str]) -> None:
        """Load the ``--out`` files of a successful call."""
        if self.code == 0:
            out_dir = Path(argv[argv.index("--out") + 1])
            self.schedule = (out_dir / "schedule.json").read_bytes()
            self.report = (out_dir / "report.json").read_bytes()


def run_call(main, argv: list[str]) -> tuple[CallResult, float]:
    """Run ``main(argv)`` with captured output; return (result, seconds).

    Only the ``main`` call is timed.  Its ``--out`` files are left for
    ``CallResult.read_outputs``, so that reading them stays out of the
    measured pass.
    """
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is a wrong verdict, not a crash
            code, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
    return CallResult(code, err.getvalue(), error), elapsed


NO_ORACLE = object()


def verdict_error(r: CallResult, optimum=NO_ORACLE) -> str | None:
    """Why the call's verdict is wrong, or None when it is right.

    ``optimum`` is the oracle's minimum latency (None: infeasible), or
    ``NO_ORACLE`` when the oracle was not run.
    """
    if r.code is None:
        return "uncaught exception:\n" + r.error
    if VERIFIER_REJECTION in r.stderr:
        return "schedule failed verification"
    if r.code not in (0, 2, 3) or (optimum is NO_ORACLE and r.code != 0):
        return f"exit {r.code}: {r.stderr.strip()[:200]}"
    if optimum is NO_ORACLE:
        return None
    if r.code == 0:
        latency = r.report_doc()["latency_cycles"]
        if optimum is None:
            return f"scheduled (latency {latency}) an instance the oracle " \
                   f"rejects"
        if latency < optimum:
            return f"latency {latency} beats the oracle optimum {optimum}"
    if r.code == 2 and optimum is not None:
        return f"statically rejected an instance the oracle schedules " \
               f"at latency {optimum}"
    return None


# -- known answers ----------------------------------------------------------

# (io document, memory document, exit code, latency, operator counts)
PAIRSUM_CASES = (
    ("io_lat3.json", "mem_onebank.json", 0, 3, None),
    ("io_lat2.json", "mem_onebank.json", 3, None, None),
    ("io_lat2.json", "mem_twobank.json", 0, None, {"mult": 2}),
)


def known_answer_failures(s, main, data_dir: Path,
                          work_dir: Path) -> list[str]:
    """Run ``main`` (the CLI entry point of package ``s``) and the verdict
    logic over the pairsum example shipped with the tests (read-only);
    return every mismatch with the known answers."""
    failures = []
    g_text = (data_dir / "graph.json").read_text()
    lib_text = (data_dir / "lib.json").read_text()
    for io_name, mem_name, code, latency, operators in PAIRSUM_CASES:
        case = f"{io_name}+{mem_name}"
        out_dir = work_dir / case
        argv = ["report", "--graph", str(data_dir / "graph.json"),
                "--lib", str(data_dir / "lib.json"),
                "--io", str(data_dir / io_name),
                "--mem", str(data_dir / mem_name), "--out", str(out_dir)]
        r, _ = run_call(main, argv)
        r.read_outputs(argv)
        g = s.parse_sfg(g_text)
        mapping = s.apply_mapping(s.extract_memory_table(g),
                                  s.parse_memory_mapping(
                                      (data_dir / mem_name).read_text(), g))
        optimum = s.brute_force_min_latency(
            g, s.parse_operator_library(lib_text),
            s.parse_io_spec((data_dir / io_name).read_text(), g), mapping)
        error = verdict_error(r, optimum)
        if error:
            failures.append(f"{case}: {error}")
        if r.code != code:
            failures.append(f"{case}: exit {r.code}, expected {code}")
            continue
        if code != 0:
            continue
        doc = r.report_doc()
        if latency is not None and doc["latency_cycles"] != latency:
            failures.append(f"{case}: latency {doc['latency_cycles']}, "
                            f"expected {latency}")
        for cls, n in (operators or {}).items():
            if doc["operators"].get(cls) != n:
                failures.append(f"{case}: {doc['operators'].get(cls)} {cls} "
                                f"instances, expected {n}")
    return failures
