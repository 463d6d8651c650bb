import json
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
