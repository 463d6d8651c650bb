"""The A/B harness times each pipeline stage by wrapping names on the CLI
module and skips a name a tree lacks: renaming one in ``src/`` must fail
here, not move that stage's time silently into ``other``."""

import importlib.util
import sys
from pathlib import Path

import sfgsched as s
from sfgsched import cli

AB = Path(__file__).resolve().parent.parent / "bench" / "ab.py"


def test_every_stage_name_is_on_the_cli(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # ab.py prepends to it
    spec = importlib.util.spec_from_file_location("bench_ab", AB)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    missing = [name for names in ab.STAGES.values() for name in names
               if not hasattr(s.Schedule if name == "to_json" else cli, name)]
    assert missing == []
