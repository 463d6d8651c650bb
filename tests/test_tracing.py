"""The benchmark's tracer wraps package functions by name: dropping or
renaming one of them must fail here, not in the first benchmark run."""

import importlib.util
import sys
from pathlib import Path

import sfgsched as s
from sfgsched import cli, scheduling, verify

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_and_restores_it():
    tracing = _load_tracing()
    before = {(owner, name): getattr(owner, name)
              for owner, name in ((cli, "schedule"),
                                  (scheduling, "compute_time_windows"),
                                  (verify, "compute_time_windows"),
                                  (scheduling, "rank_executable"),
                                  (s.PortAccessTable, "probe"))}
    tracer = tracing.install(s)
    try:
        assert all(getattr(owner, name) is not fn
                   for (owner, name), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is fn
               for (owner, name), fn in before.items())
