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
], ids=["mem-bank-not-object", "mem-ports-list", "lib-ops-nested-list",
        "lib-clock-object"])
def test_wrong_shape_document_exit_1(pairsum_dir, tmp_path, capsys, kind,
                                     doc, message):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    argv = _args(pairsum_dir)
    argv[argv.index(f"--{kind}") + 1] = str(path)
    assert main(["schedule"] + argv) == 1
    assert message in capsys.readouterr().err


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
