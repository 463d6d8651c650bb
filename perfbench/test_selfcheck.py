"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench -q

The known-answer check runs the benchmark's verdict logic over the pairsum
example shipped with the tests; the metric check keeps ``BENCHMARK.json``
and the names the benchmark prints in step.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import verdicts  # noqa: E402


def test_pairsum_known_answers(tmp_path):
    s, cli = run.fresh_import()
    assert verdicts.known_answer_failures(s, cli.main, run.PAIRSUM,
                                          tmp_path) == []


def test_verifier_rejection_is_a_wrong_verdict():
    r = verdicts.CallResult(3, "scheduling aborted: infeasible-windows at "
                               "cycle 0, schedule failed verification\n")
    assert verdicts.verdict_error(r, optimum=None) is not None
    assert verdicts.verdict_error(verdicts.CallResult(3, ""), None) is None


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    assert names <= set(run.workloads.GENERATORS)
    for key, names in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == names
