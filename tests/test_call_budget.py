"""No per-element interpreter calls that the code does not show.

A named tuple built by calling its class runs the class's Python-level
``__new__``, and a slot-span computed again at commit time is one more
interpreter call.  The package's per-element paths avoid both, so a
``report`` call through the CLI on a 16-point FFT (``scale_config``: 401
graph nodes and 688 edges) enters none of those code objects once per
element, nor the ``SfgNode.name`` property, and ``Bank.span`` once per
access fitted plus once per access the verifier replays.  Only
``SchedulerState.cost`` probes the port table, once per call on an op
with accesses, and only ``rank_executable`` commits to it, at most once
per cycle: the table changes only between cycles.

The fixed cost of a call is held the same way: its arguments go through
one argparse pass, and its files are read and written without pathlib.
"""

import argparse
import json
import pathlib
import sys
from collections import Counter

import experiments
import sfgsched as s
from sfgsched import cli
from sfgsched.memory import PortAccessTable

RECORDS = (s.SfgNode, s.Edge, s.CgNode, s.ScheduledOp, s.ScheduledAccess,
           s.ScheduledTransfer)
# a fixed number of entries, independent of the graph's size, stays legal
BUDGET = 4


def test_report_enters_no_hidden_per_element_call(tmp_path, capsys):
    watched = {cls.__new__.__code__: f"{cls.__name__}.__new__"
               for cls in RECORDS}
    # a label read through the name rule
    watched[s.SfgNode.name.fget.__code__] = "SfgNode.name"
    span, fit = s.Bank.span.__code__, PortAccessTable.fit.__code__
    probe = PortAccessTable.probe.__code__
    commit = PortAccessTable.commit.__code__
    cost = s.SchedulerState.cost.__code__
    entered: Counter = Counter()
    span_callers: Counter = Counter()
    probe_callers: Counter = Counter()
    commits: Counter = Counter()  # by (caller, cycle)
    requests_fitted = 0
    costs_with_requests = 0

    def profile(frame, event, arg):
        nonlocal requests_fitted, costs_with_requests
        if event != "call":
            return
        code = frame.f_code
        if code in watched:
            entered[watched[code]] += 1
        elif code is span:
            span_callers[frame.f_back.f_code.co_name] += 1
        elif code is probe:
            probe_callers[frame.f_back.f_code.co_name] += 1
        elif code is commit:
            caller = frame.f_back
            commits[caller.f_code.co_name, caller.f_locals.get("t")] += 1
        elif code is cost:
            local = frame.f_locals
            costs_with_requests += bool(local["self"].ops.requests[local["i"]])
        elif code is fit:
            requests_fitted += len(frame.f_locals["requests"])

    argv = experiments.scale_config(16).report_argv(tmp_path)
    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
    assert code == 0

    assert {name: n for name, n in entered.items() if n > BUDGET} == {}
    accesses = len(json.loads(
        (tmp_path / "out" / "schedule.json").read_text())["accesses"])
    assert requests_fitted >= accesses > 0
    # fits compute spans, the verifier replays each access; commits reuse
    assert set(span_callers) == {"fit", "verify_schedule"}, span_callers
    assert span_callers["fit"] <= requests_fitted
    assert span_callers["verify_schedule"] == accesses
    # one probe per cost call on an op with accesses, and no other probe
    assert costs_with_requests > 0
    assert probe_callers == {"cost": costs_with_requests}, probe_callers
    # the cycle's starts are committed when the next cycle is ranked
    assert commits and {caller for caller, _ in commits} == \
        {"rank_executable"}, commits
    assert set(commits.values()) == {1}, commits


def test_report_parses_once_and_builds_no_path(tmp_path, capsys):
    """A named command's arguments are parsed by its own parser alone, not
    first by the top-level one, and no ``pathlib`` path is built."""
    parse = argparse.ArgumentParser._parse_known_args.__code__
    parses = 0
    in_pathlib: Counter = Counter()

    def profile(frame, event, arg):
        nonlocal parses
        if event != "call":
            return
        code = frame.f_code
        if code is parse:
            parses += 1
        elif code.co_filename == pathlib.__file__:
            in_pathlib[code.co_name] += 1

    argv = experiments.scale_config(16).report_argv(tmp_path)
    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
    assert code == 0
    assert parses == 1
    assert in_pathlib == {}
