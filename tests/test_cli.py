import gc
import json
import pathlib
import subprocess
import sys

import pytest

import sfgsched as s
from sfgsched.cli import main


def _args(pairsum_dir, *extra, io="io_lat3.json", mem="mem_onebank.json"):
    argv = ["--graph", str(pairsum_dir / "graph.json"),
            "--lib", str(pairsum_dir / "lib.json")]
    if io:
        argv += ["--io", str(pairsum_dir / io)]
    if mem:
        argv += ["--mem", str(pairsum_dir / mem)]
    return argv + list(extra)


def test_check_ok(pairsum_dir, capsys):
    assert main(["check"] + _args(pairsum_dir)) == 0
    out = capsys.readouterr().out
    assert "cadence check: ok" in out
    assert "output dates:  ok" in out
    assert "critical path 2 cycles, bound 3" in out


def test_check_infeasible_bound(pairsum_dir, capsys):
    assert main(["check"] + _args(pairsum_dir, "--latency", "1")) == 2
    out = capsys.readouterr().out
    assert "cadence check: FAILED" in out


def test_schedule_stdout(pairsum_dir, capsys):
    assert main(["schedule"] + _args(pairsum_dir)) == 0
    cap = capsys.readouterr()
    doc = json.loads(cap.out)
    assert doc["latency"] == 3
    assert "scheduled 3 operations, latency 3 cycles (bound 3)" in cap.err


def test_schedule_out_matches_golden(pairsum_dir, tmp_path):
    assert main(["schedule"] + _args(pairsum_dir, "--out", str(tmp_path))) == 0
    got = (tmp_path / "schedule.json").read_bytes()
    want = (pairsum_dir / "golden_schedule_lat3.json").read_bytes()
    assert got == want


def test_schedule_abort_exit_3(pairsum_dir, capsys):
    rc = main(["schedule"] + _args(pairsum_dir, io="io_lat2.json"))
    assert rc == 3
    err = capsys.readouterr().err
    assert "scheduling aborted:" in err
    assert "bank0" in err and "cycle 0" in err and "mult" in err


def _io_with_c_at_5(tmp_path, pin_inputs: bool) -> str:
    """Pairsum's I/O with the output pinned at offset 5, past the bound
    of 3 but inside the cadence of 6."""
    buses = [{"id": "outC", "direction": "out"}]
    transfers = [{"data": "c", "bus": "outC", "offset": 5}]
    if pin_inputs:
        buses += [{"id": "inA", "direction": "in"},
                  {"id": "inB", "direction": "in"}]
        transfers += [{"data": "a", "bus": "inA", "offset": 0},
                      {"data": "b", "bus": "inB", "offset": 0}]
    path = tmp_path / "io.json"
    path.write_text(json.dumps({"cadence": 6, "latency": 3, "buses": buses,
                                "transfers": transfers}))
    return str(path)


def test_pinned_transfers_past_the_bound_exit_2(pairsum_dir, tmp_path,
                                                capsys):
    io = _io_with_c_at_5(tmp_path, pin_inputs=True)
    argv = ["report"] + _args(pairsum_dir, "--io", io, io=None,
                              mem="mem_twobank.json")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "cadence check: FAILED" in err
    assert "pinned transfers span 6 cycles (cycles 0 to 5), latency bound " \
           "is 3" in err


def test_latency_past_the_bound_exit_3(pairsum_dir, tmp_path, capsys):
    """Only the output is pinned: the inputs could arrive late enough, so
    the static checks pass, but greedy starts early and overshoots."""
    io = _io_with_c_at_5(tmp_path, pin_inputs=False)
    argv = ["report"] + _args(pairsum_dir, "--io", io, io=None,
                              mem="mem_twobank.json")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "cadence check: ok" in err
    assert "scheduling aborted: infeasible-windows at cycle 5, the " \
           "transfers span 6 cycles, latency bound is 3" in err
    assert "failed verification" not in err


def test_huge_cadence_schedules_like_a_small_one(pairsum_dir, tmp_path):
    # the port tables store only reserved slots, not one per cycle
    docs = {}
    for cadence in ("2", "1000000000"):
        out = tmp_path / cadence
        assert main(["schedule"] + _args(
            pairsum_dir, "--cadence", cadence, "--out", str(out),
            io="io_lat2.json", mem="mem_twobank.json")) == 0
        docs[cadence] = json.loads((out / "schedule.json").read_text())
    assert docs["1000000000"].pop("cadence") == 1000000000
    assert docs["2"].pop("cadence") == 2
    assert docs["1000000000"] == docs["2"]


def test_report_writes_three_files(pairsum_dir, tmp_path, capsys):
    rc = main(["report"] + _args(pairsum_dir, "--out", str(tmp_path),
                                 io="io_lat2.json", mem="mem_twobank.json"))
    assert rc == 0
    got = (tmp_path / "report.json").read_bytes()
    want = (pairsum_dir / "golden_report_lat2_twobank.json").read_bytes()
    assert got == want
    sched = json.loads((tmp_path / "schedule.json").read_text())
    assert sched["latency"] == 2
    text = (tmp_path / "report.txt").read_text()
    assert "architecture report" in text
    assert "memory banks        2 (bank0, bank1)" in text
    assert text in capsys.readouterr().out


def test_report_fixed_alloc(pairsum_dir, capsys):
    rc = main(["report"] + _args(pairsum_dir, "--alloc", "fixed:mult=2,add=1",
                                 io="io_lat2.json", mem="mem_twobank.json"))
    assert rc == 0
    assert "operator mult         x2" in capsys.readouterr().out


def test_verifier_holds_the_pool_to_the_fixed_allocation(
        pairsum_dir, monkeypatch, capsys):
    import sfgsched.cli
    from mutations import pool_above_cap
    argv = ["report"] + _args(pairsum_dir, "--alloc", "fixed:mult=2,add=1",
                              io="io_lat2.json", mem="mem_twobank.json")
    seen = []
    real = sfgsched.cli.verify_schedule

    def recording(*args):
        seen.append(args[-1])
        return real(*args)
    monkeypatch.setattr(sfgsched.cli, "verify_schedule", recording)
    assert main(argv) == 0
    assert seen == [s.parse_allocation("fixed:mult=2,add=1")]
    capsys.readouterr()

    real_schedule = sfgsched.cli.schedule
    monkeypatch.setattr(sfgsched.cli, "schedule",
                        lambda *a: pool_above_cap(real_schedule(*a)))
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "pool: the mult pool holds 3 instances, the fixed allocation " \
        "allows 2" in err


def test_missing_latency_without_io(pairsum_dir, capsys):
    rc = main(["schedule"] + _args(pairsum_dir, io=None))
    assert rc == 1
    assert "need --latency" in capsys.readouterr().err


def test_latency_override_without_io(pairsum_dir, tmp_path, capsys):
    mem = tmp_path / "mem.json"
    mem.write_text(json.dumps(
        {"mode": "auto",
         "banks": [{"id": "b0", "ports": 2, "t_seq": 1, "t_rand": 2},
                   {"id": "b1", "ports": 2, "t_seq": 1, "t_rand": 2}]}))
    rc = main(["schedule"] + _args(pairsum_dir, "--latency", "3",
                                   io=None, mem=str(mem)))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["latency"] == 3


@pytest.mark.parametrize("extra, io", [
    (["--latency", "0"], "io_lat3.json"),
    (["--cadence", "0"], "io_lat3.json"),
    (["--latency", "-2"], None),
    (["--latency", "3", "--cadence", "0"], None),
    (["--latency", "three"], None),
])
def test_nonpositive_cycle_override_exit_1(pairsum_dir, capsys, extra, io):
    with pytest.raises(SystemExit) as exc:
        main(["schedule"] + _args(pairsum_dir, *extra, io=io))
    assert exc.value.code == 1
    assert f"argument {extra[-2]}: expected a positive number of cycles" \
        in capsys.readouterr().err


@pytest.mark.parametrize("kind, doc, message", [
    ("mem", {"mode": "auto", "banks": [1]},
     "'banks' must be a list of objects"),
    ("mem", {"mode": "auto", "banks": [{"id": "b0", "ports": [2]}]},
     "'ports' must be an integer"),
    ("lib", {"classes": [{"name": "mult", "ops": [["*"]], "latency": 1}]},
     "'ops' a list of strings"),
    ("lib", {"clock_mhz": {}, "classes": []}, "'clock_mhz' must be a number"),
    ("io", {"cadence": 3, "latency": 3, "buses": None, "transfers": []},
     "'buses' must be a list"),
    ("io", {"cadence": 3, "latency": 3, "buses": {}, "transfers": []},
     "'buses' must be a list"),
    ("io", {"cadence": 3, "latency": 3, "buses": [], "transfers": None},
     "'transfers' must be a list"),
    ("io", {"cadence": 3, "latency": 3, "buses": [], "transfers": 7},
     "'transfers' must be a list"),
], ids=["mem-bank-not-object", "mem-ports-list", "lib-ops-nested-list",
        "lib-clock-object", "io-buses-null", "io-buses-object",
        "io-transfers-null", "io-transfers-number"])
def test_wrong_shape_document_exit_1(pairsum_dir, tmp_path, capsys, kind,
                                     doc, message):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    argv = _args(pairsum_dir)
    argv[argv.index(f"--{kind}") + 1] = str(path)
    assert main(["schedule"] + argv) == 1
    assert message in capsys.readouterr().err


def test_declared_bus_named_like_a_synthesized_one(pairsum_dir, tmp_path,
                                                   capsys):
    """A declared bus may carry a generated name; the scheduler's own
    transfers then take the next free one."""
    io = tmp_path / "io.json"
    io.write_text(json.dumps({
        "cadence": 3, "latency": 3,
        "buses": [{"id": "auto_in0", "direction": "in"},
                  {"id": "outC", "direction": "out"}],
        "transfers": [{"data": "a", "bus": "auto_in0", "offset": 0},
                      {"data": "c", "bus": "outC", "offset": 2}]}))
    argv = _args(pairsum_dir, "--out", str(tmp_path))
    argv[argv.index("--io") + 1] = str(io)
    assert main(["schedule"] + argv) == 0
    doc = json.loads((tmp_path / "schedule.json").read_text())
    assert sorted((t["bus"], t["cycle"]) for t in doc["transfers"]
                  if t["direction"] == "in") == [("auto_in0", 0),
                                                 ("auto_in1", 0)]


@pytest.mark.parametrize("command", ["check", "schedule", "report"])
def test_one_lowering_per_call(pairsum_dir, monkeypatch, capsys, command):
    import sfgsched.cli
    import sfgsched.scheduling
    import sfgsched.verify
    calls = []

    def counting(g, lib):
        calls.append(command)
        return s.build_constraint_graph(g, lib)
    for module in (sfgsched.cli, sfgsched.scheduling, sfgsched.verify):
        monkeypatch.setattr(module, "build_constraint_graph", counting)
    assert main([command] + _args(pairsum_dir)) == 0
    assert len(calls) == 1


def test_graph_validated_once_per_report(pairsum_dir, find_cycle_calls,
                                         capsys):
    assert main(["report"] + _args(pairsum_dir)) == 0
    assert len(find_cycle_calls) == 1


def test_main_leaves_no_cyclic_garbage(pairsum_dir, tmp_path, capsys):
    """A call leaves nothing for the collector ``main`` pauses: after a
    warm-up call (the parser and other one-time set-up), a collection
    after each outcome finds no unreachable object."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [{"id": 0, "kind": "input"}], "edges": {}}')
    report = ["report"] + _args(pairsum_dir, "--out", str(tmp_path / "out"))
    cases = [
        (report, 0),
        (["report", "--graph", str(bad)] + _args(pairsum_dir)[2:], 1),
        (["report"] + _args(pairsum_dir, "--latency", "1"), 2),
        (["report"] + _args(pairsum_dir, io="io_lat2.json"), 3),
    ]
    assert main(report) == 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for argv, code in cases:
            assert main(argv) == code
            assert gc.collect() == 0, code
    finally:
        if collecting:
            gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector(pairsum_dir, monkeypatch, capsys,
                                     collecting):
    """The collector is off while a command runs and back as the caller
    had it afterwards, also when the command raises."""
    import sfgsched.cli
    during = []

    def failing(args):
        during.append(gc.isenabled())
        raise RuntimeError("unexpected")
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["check"] + _args(pairsum_dir)) == 0
        assert gc.isenabled() is collecting
        monkeypatch.setattr(sfgsched.cli, "_cmd_check", failing)
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["check"] + _args(pairsum_dir))
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    assert during == [False]


def _in_process(argv, capsysbinary):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    cap = capsysbinary.readouterr()
    return rc, cap.out, cap.err


def _separate_process(argv):
    proc = subprocess.run([sys.executable, "-m", "sfgsched"] + argv,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("usage_error", [True, False])
def test_calls_in_one_process_match_separate_processes(
        pairsum_dir, monkeypatch, capsysbinary, usage_error):
    """The parser built by the first call serves the next one unchanged."""
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at this width
    first = (["schedule", "--graph", "g.json"] if usage_error  # no --lib
             else ["schedule"] + _args(pairsum_dir))
    calls = [first, ["report"] + _args(pairsum_dir)]
    together = [_in_process(argv, capsysbinary) for argv in calls]
    assert together == [_separate_process(argv) for argv in calls]
    assert [rc for rc, _, _ in together] == [1 if usage_error else 0, 0]


@pytest.mark.parametrize("command", ["schedule", "report"])
def test_seed_flag_is_gone(pairsum_dir, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command] + _args(pairsum_dir, "--seed", "1"))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: sfgsched ")
    assert err.endswith("error: unrecognized arguments: --seed 1\n")


def test_missing_file_exit_1(pairsum_dir, tmp_path, capsys):
    rc = main(["schedule", "--graph", str(tmp_path / "nope.json"),
               "--lib", str(pairsum_dir / "lib.json"), "--latency", "3"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_json_exit_1(pairsum_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["schedule", "--graph", str(bad),
               "--lib", str(pairsum_dir / "lib.json"), "--latency", "3"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_graph_without_mem_document(pairsum_dir, capsys):
    rc = main(["schedule"] + _args(pairsum_dir, mem=None))
    assert rc == 1
    assert "no --mem" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_arg_exits_1(pairsum_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--lib", str(pairsum_dir / "lib.json")])
    assert exc.value.code == 1


def test_gen_fft(tmp_path, capsys):
    out = tmp_path / "fft8.json"
    assert main(["gen-fft", "--points", "8", "--out", str(out)]) == 0
    g = s.parse_sfg(out.read_text())
    assert s.validate_sfg(g) == []
    assert len(g.of_kind(s.NodeKind.INPUT)) == 8


def test_gen_fft_bad_points(capsys):
    assert main(["gen-fft", "--points", "12"]) == 1
    assert "error:" in capsys.readouterr().err


def test_export_dot(pairsum_dir, capsys):
    assert main(["export-dot", "--graph", str(pairsum_dir / "graph.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"*"' in out


def test_schedule_rerun_identical(pairsum_dir, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["schedule"] + _args(
            pairsum_dir, "--out", str(d),
            io="io_lat2.json", mem="mem_twobank.json")) == 0
    assert (d1 / "schedule.json").read_bytes() == \
        (d2 / "schedule.json").read_bytes()


def test_console_script(pairsum_dir, tmp_path):
    cmd = [sys.executable, "-m", "sfgsched", "schedule"] \
        + _args(pairsum_dir, "--out", str(tmp_path))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "schedule.json").read_bytes() == \
        (pairsum_dir / "golden_schedule_lat3.json").read_bytes()


def _report_into(pairsum_dir, out) -> int:
    return main(["report"] + _args(pairsum_dir, "--out", str(out),
                                   io="io_lat2.json", mem="mem_twobank.json"))


OUTPUTS = ("schedule.json", "report.json", "report.txt")


def test_rewritten_outputs_keep_no_old_tail(pairsum_dir, tmp_path, capsys):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert _report_into(pairsum_dir, fresh) == 0
    reused.mkdir()
    for name in OUTPUTS:
        (reused / name).write_bytes(b"junk\n" * 200_000)  # 1 MB
    assert _report_into(pairsum_dir, reused) == 0
    for name in OUTPUTS:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_output_symlink_is_written_through(pairsum_dir, tmp_path, capsys):
    target = tmp_path / "elsewhere.json"
    target.write_text("old " * 1000)
    out = tmp_path / "out"
    out.mkdir()
    (out / "schedule.json").symlink_to(target)
    assert main(["schedule"] + _args(pairsum_dir, "--out", str(out))) == 0
    assert (out / "schedule.json").is_symlink()
    assert target.read_bytes() == \
        (pairsum_dir / "golden_schedule_lat3.json").read_bytes()


def test_output_file_mode(pairsum_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text("{}")
    (out / "report.json").chmod(0o600)
    assert _report_into(pairsum_dir, out) == 0
    assert (out / "report.json").stat().st_mode & 0o777 == 0o600
    # a new file gets the mode a plain text write would give it
    (tmp_path / "plain.txt").write_text("")
    want = (tmp_path / "plain.txt").stat().st_mode & 0o777
    assert (out / "report.txt").stat().st_mode & 0o777 == want


def test_gen_fft_out_directory_exit_1(tmp_path, capsys):
    assert main(["gen-fft", "--points", "8", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_every_output_goes_through_the_writer(pairsum_dir, tmp_path,
                                              monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("Path.write_text called")
    monkeypatch.setattr(pathlib.Path, "write_text", refuse)
    graph = str(pairsum_dir / "graph.json")
    for argv in (["schedule"] + _args(pairsum_dir, "--out",
                                      str(tmp_path / "s")),
                 ["report"] + _args(pairsum_dir, "--out",
                                    str(tmp_path / "r")),
                 ["gen-fft", "--points", "8", "--out",
                  str(tmp_path / "fft8.json")],
                 ["export-dot", "--graph", graph, "--out",
                  str(tmp_path / "g.dot")]):
        assert main(argv) == 0, argv
    assert {p.name for p in tmp_path.rglob("*") if p.is_file()} == \
        set(OUTPUTS) | {"fft8.json", "g.dot"}
