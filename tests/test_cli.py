import gc
import json
import pathlib
import resource
import subprocess
import sys

import pytest

import sfgsched as s
from sfgsched.cli import _build_parser, main
from sfgsched.scheduling import MAX_INSTANCES


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


def test_cadence_below_the_bound_caps_the_windows_exit_0(pairsum_dir,
                                                         tmp_path, capsys):
    """At cadence 1 each bank has one port slot, at cycle 0, so both reads
    must issue there.  The windows are capped by that horizon, so m2 is
    at zero margin in cycle 0 and a second mult is allocated at once; an
    uncapped window would let m2 wait until cycle 4, past the horizon,
    and the run would abort there."""
    io = tmp_path / "io.json"
    io.write_text(json.dumps({"cadence": 1, "latency": 6, "buses": [],
                              "transfers": []}))
    argv = ["report"] + _args(pairsum_dir, "--io", str(io), "--alloc",
                              "auto", "--out", str(tmp_path / "out"),
                              io=None, mem="mem_twobank.json")
    assert main(argv) == 0
    cap = capsys.readouterr()
    assert "operator mult         x2" in cap.out
    doc = json.loads((tmp_path / "out" / "schedule.json").read_text())
    assert doc["latency"] == 2
    assert [(o["label"], o["start"]) for o in doc["ops"]] == \
        [("m1", 0), ("m2", 0), ("add1", 1)]


def test_access_past_a_slow_banks_horizon_exit_2(pairsum_dir, tmp_path,
                                                 capsys):
    """With t_seq 2 a cadence of 3 holds one port slot, so a read can
    issue only at cycle 0; a pinned at offset 2 puts m1's read at cycle 2.
    The static check names that read, and no schedule exists."""
    io = tmp_path / "io.json"
    io.write_text(json.dumps({
        "cadence": 3, "latency": 6,
        "buses": [{"id": "inA", "direction": "in"}],
        "transfers": [{"data": "a", "bus": "inA", "offset": 2}]}))
    mem = tmp_path / "mem.json"
    mem.write_text(json.dumps({"mode": "auto", "banks": [
        {"id": "bank0", "ports": 1, "t_seq": 2, "t_rand": 2}]}))
    extra = ["--io", str(io), "--mem", str(mem)]
    late = ("  access rd:var1 at cycle 2 falls outside the 3-cycle access "
            "window, its bank's last issue cycle is 0\n")
    assert main(["check"] + _args(pairsum_dir, *extra, io=None,
                                  mem=None)) == 2
    out = capsys.readouterr().out
    assert "cadence check: FAILED" in out and late in out
    assert main(["report"] + _args(pairsum_dir, *extra, io=None,
                                   mem=None)) == 2
    assert late in capsys.readouterr().err
    g = s.parse_sfg((pairsum_dir / "graph.json").read_text())
    assert s.brute_force_min_latency(
        g, s.parse_operator_library((pairsum_dir / "lib.json").read_text()),
        s.parse_io_spec(io.read_text(), g),
        s.apply_mapping(s.extract_memory_table(g),
                        s.parse_memory_mapping(mem.read_text(), g))) is None


def test_latency_bound_reached_with_operations_pending_exit_3(tmp_path,
                                                             capsys):
    """The static checks pass, but ``w``'s read of ``e`` and its random
    write of ``d`` on the one single-port bank hold the reader ``r`` past
    the last cycle of the bound."""
    docs = {
        "graph": {"nodes": [{"id": 0, "kind": "input", "label": "a"},
                            {"id": 1, "kind": "memdata", "label": "e"},
                            {"id": 2, "kind": "memdata", "label": "d"},
                            {"id": 3, "kind": "operation", "op": "+",
                             "label": "w"},
                            {"id": 4, "kind": "operation", "op": "+",
                             "label": "r"},
                            {"id": 5, "kind": "output", "label": "y"}],
                  "edges": [{"from": 0, "to": 3, "pos": 0},
                            {"from": 1, "to": 3, "pos": 1},
                            {"from": 3, "to": 2, "pos": 0},
                            {"from": 2, "to": 4, "pos": 0},
                            {"from": 0, "to": 4, "pos": 1},
                            {"from": 4, "to": 5, "pos": 0}]},
        "lib": {"classes": [{"name": "add", "ops": ["+"], "latency": 1}]},
        "mem": {"mode": "strict",
                "banks": [{"id": "b0", "ports": 1, "t_seq": 1, "t_rand": 3}],
                "placements": [{"data": "e", "bank": "b0", "address": 0},
                               {"data": "d", "bank": "b0", "address": 5}]}}
    argv = ["report", "--latency", "4"]
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "cadence check: ok" in err
    assert err.endswith(
        "scheduling aborted: infeasible-windows at cycle 4, operation 4, "
        "class add, latency bound reached with operations pending\n")


def test_a_lone_input_schedules_in_one_cycle(tmp_path, capsys):
    """With no operation and no output the achieved latency is the one
    cycle of the input transfer."""
    graph = {"nodes": [{"id": 0, "kind": "input", "label": "a"}],
             "edges": []}
    lib = {"classes": [{"name": "add", "ops": ["+"], "latency": 1}]}
    g = s.parse_sfg(json.dumps(graph))
    sched = s.schedule(g, s.parse_operator_library(json.dumps(lib)),
                       s.IoConstraintSpec.unconstrained(3),
                       s.apply_mapping(s.extract_memory_table(g),
                                       s.MappingSpec(mode="auto", banks=())))
    assert (sched.ops, sched.achieved_latency) == ((), 1)
    argv = ["report", "--latency", "3", "--out", str(tmp_path / "out")]
    for name, doc in (("graph", graph), ("lib", lib)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "latency             1 cycles (bound 3, cadence 3)" in lines
    assert "registers (est.)    1" in lines


def test_verifier_rejection_exit_3(pairsum_dir, monkeypatch, capsys):
    """A schedule the verifier rejects is reported as such, after its
    violations, not as a time window at cycle 0."""
    import sfgsched.cli
    monkeypatch.setattr(sfgsched.cli, "verify_schedule", lambda *a: [
        s.Violation("window", "operation 4 starts at 9", 4)])
    assert main(["schedule"] + _args(pairsum_dir)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "window: operation 4 starts at 9 (node 4)\n"
        "scheduling aborted: schedule failed verification\n")
    assert "infeasible-windows" not in captured.err


def test_input_on_an_output_bus_exit_1(pairsum_dir, tmp_path, capsys):
    io = tmp_path / "io.json"
    io.write_text(json.dumps({
        "cadence": 3, "latency": 3,
        "buses": [{"id": "bi", "direction": "in"},
                  {"id": "bo", "direction": "out"}],
        "transfers": [{"data": "a", "bus": "bo", "offset": 0}]}))
    for command in ("check", "schedule", "report"):
        argv = _args(pairsum_dir, "--io", str(io), io=None,
                     mem="mem_twobank.json")
        assert main([command] + argv) == 1
        assert capsys.readouterr().err == \
            "error: node 0 on output bus 'bo' is not an output\n"


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


def test_report_on_sparse_node_ids(pairsum_dir, tmp_path):
    """Node ids are unbounded: with every id shifted by 2**40 the report
    gives the same starts, pool and latency.  A per-op table indexed by
    id instead of position would fail here with MemoryError."""
    shift = 2 ** 40
    doc = json.loads((pairsum_dir / "graph.json").read_text())
    for node in doc["nodes"]:
        node["id"] += shift
    for edge in doc["edges"]:
        edge["from"] += shift
        edge["to"] += shift
    shifted = tmp_path / "graph.json"
    shifted.write_text(json.dumps(doc))
    docs = []
    for name, graph in (("plain", pairsum_dir / "graph.json"),
                        ("shifted", shifted)):
        argv = _args(pairsum_dir, "--out", str(tmp_path / name),
                     io="io_lat2.json", mem="mem_twobank.json")
        argv[1] = str(graph)
        assert main(["report"] + argv) == 0
        docs.append(json.loads(
            (tmp_path / name / "schedule.json").read_text()))
    plain, sparse = docs
    assert all(op["node"] >= shift for op in sparse["ops"])
    assert [(op["label"], op["start"]) for op in sparse["ops"]] == \
        [(op["label"], op["start"]) for op in plain["ops"]]
    assert (sparse["pool"], sparse["latency"]) == \
        (plain["pool"], plain["latency"])


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


@pytest.mark.parametrize("ref", ["true", "false", "null", "1.0", "[1]"])
def test_placement_data_must_be_a_node_id_or_label(pairsum_dir, tmp_path,
                                                   capsys, ref):
    """A bool is no node id: ``"data": true`` must not place node 1, the
    graph's one memdata node.  It and every other reference that is
    neither an integer nor a string end in exit 1 and one message."""
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "nodes": [{"id": 0, "kind": "input", "label": "a"},
                  {"id": 1, "kind": "memdata", "label": "w"},
                  {"id": 2, "kind": "operation", "op": "*", "label": "m"},
                  {"id": 3, "kind": "output", "label": "y"}],
        "edges": [{"from": 0, "to": 2, "pos": 0},
                  {"from": 1, "to": 2, "pos": 1},
                  {"from": 2, "to": 3, "pos": 0}]}))
    mem = tmp_path / "mem.json"
    mem.write_text(
        '{"mode": "strict", "banks": [{"id": "bank0"}], "placements": '
        f'[{{"data": {ref}, "bank": "bank0", "address": 7}}]}}')
    argv = _args(pairsum_dir, "--latency", "4", io=None, mem=str(mem))
    argv[argv.index("--graph") + 1] = str(graph)
    assert main(["schedule"] + argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "placement 'data' must be a node " \
        "id or a label, got " in err


def test_placement_data_may_be_a_memdata_id(pairsum_dir, tmp_path, capsys):
    """An integer ``data`` names a node by id: a memdata node's id places
    it, as its label would; any other node's id is refused."""
    graph = s.parse_sfg((pairsum_dir / "graph.json").read_text())
    by_label = json.loads((pairsum_dir / "mem_onebank.json").read_text())
    by_id = json.loads(json.dumps(by_label))
    for p in by_id["placements"]:
        p["data"] = graph.node_by_label(p["data"]).id
    outputs = {}
    for name, doc in (("label", by_label), ("id", by_id)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert main(["schedule"] + _args(
            pairsum_dir, mem=str(tmp_path / f"{name}.json"))) == 0
        outputs[name] = capsys.readouterr().out
    assert outputs["id"] == outputs["label"]
    m1 = graph.node_by_label("m1").id
    by_id["placements"][0]["data"] = m1
    (tmp_path / "op.json").write_text(json.dumps(by_id))
    assert main(["schedule"] + _args(pairsum_dir,
                                     mem=str(tmp_path / "op.json"))) == 1
    assert capsys.readouterr().err == \
        f"error: placement target {m1} is not a memdata node\n"


_NO_TRANSFERS = '{"cadence": 3, "latency": 3, "buses": [], "transfers": '
_ONE_BANK = '{"mode": "strict", "banks": [{"id": "b0"}], "placements": '


@pytest.mark.parametrize("kind, text, message", [
    # each refusal that no other test reaches, with its exact words
    ("mem", '{"banks": [{"id": "b0"}, {"id": "b0"}]}', "duplicate bank id"),
    ("mem", _ONE_BANK + '[{"data": "var1", "bank": "b0", "address": -1}, '
                        '{"data": "var2", "bank": "b0", "address": 0}]}',
     "placement of data 2: negative address"),
    ("io", _NO_TRANSFERS + "[1]}", "transfers[0]: expected an object"),
    ("lib", '{"classes": [1]}', "classes[0]: expected an object"),
    ("io", "{", "line 1, column 2: Expecting property name enclosed in "
                "double quotes"),
    ("lib", "{", "line 1, column 2: Expecting property name enclosed in "
                 "double quotes"),
    ("mem", "{", "placement document is not valid JSON: Expecting property "
                 "name enclosed in double quotes: line 1 column 2 (char 1)"),
    # io.json's data follows mem.json's rule: a label or an int id
    ("io", _NO_TRANSFERS + '[{"data": 99, "bus": "b", "offset": 0}]}',
     "transfers[0]: no node with id 99"),
    ("io", _NO_TRANSFERS + '[{"data": true, "bus": "b", "offset": 0}]}',
     "transfers[0]: 'data' must be a node id or a label, got True"),
    ("io", _NO_TRANSFERS + '[{"data": null, "bus": "b", "offset": 0}]}',
     "transfers[0]: 'data' must be a node id or a label, got None"),
    ("io", _NO_TRANSFERS + '[{"data": [0], "bus": "b", "offset": 0}]}',
     "transfers[0]: 'data' must be a node id or a label, got [0]"),
    ("mem", _ONE_BANK + '[{"data": 99, "bank": "b0", "address": 0}]}',
     "placement references unknown node 99"),
    # an id, bus, bank, direction or mode is a string, never str() of one
    ("io", '{"cadence": 3, "latency": 3, "buses": [{"id": null, '
           '"direction": "in"}], "transfers": []}',
     "buses[0]: 'id' must be a string"),
    ("io", '{"cadence": 3, "latency": 3, "buses": [{"id": 5, '
           '"direction": "in"}], "transfers": []}',
     "buses[0]: 'id' must be a string"),
    ("io", '{"cadence": 3, "latency": 3, "buses": [{"id": "b", '
           '"direction": null}], "transfers": []}',
     "bus 'b': direction must be 'in' or 'out'"),
    ("io", '{"cadence": 3, "latency": 3, "buses": [{"id": "None", '
           '"direction": "in"}], "transfers": [{"data": "a", "bus": null, '
           '"offset": 0}]}',
     "transfers[0]: 'bus' must be a string"),
    ("mem", '{"banks": [{"id": null}]}', "'id' must be a string, got None"),
    ("mem", '{"banks": [{"id": 0}]}', "'id' must be a string, got 0"),
    ("mem", '{"banks": [{"id": "None"}], "placements": [{"data": "var1", '
            '"bank": null, "address": 0}]}',
     "'bank' must be a string, got None"),
    ("mem", '{"mode": null, "banks": [{"id": "b0"}]}',
     "unknown placement mode None"),
    ("mem", '{"mode": 1, "banks": [{"id": "b0"}]}',
     "unknown placement mode 1"),
], ids=["mem-duplicate-bank", "mem-negative-address", "io-transfer-number",
        "lib-class-number", "io-not-json", "lib-not-json", "mem-not-json",
        "io-data-unknown-id", "io-data-bool", "io-data-null", "io-data-list",
        "mem-data-unknown-id", "io-bus-id-null", "io-bus-id-number",
        "io-direction-null", "io-transfer-bus-null", "mem-bank-id-null",
        "mem-bank-id-number", "mem-placement-bank-null", "mem-mode-null",
        "mem-mode-number"])
def test_refused_document_exit_1(pairsum_dir, tmp_path, capsys, kind, text,
                                 message):
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    argv = _args(pairsum_dir)
    argv[argv.index(f"--{kind}") + 1] = str(path)
    assert main(["schedule"] + argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind,message", [
    ("graph", "line 1, column 1: document nested too deeply"),
    ("lib", "line 1, column 1: document nested too deeply"),
    ("io", "line 1, column 1: document nested too deeply"),
    ("mem", "placement document is not valid JSON: document nested too "
            "deeply: line 1 column 1 (char 0)")])
def test_deeply_nested_document_exit_1(pairsum_dir, tmp_path, capsys, kind,
                                       message):
    """1,000 nested arrays run the decoder past the recursion limit; each
    parser refuses them as malformed JSON, with no traceback."""
    path = tmp_path / f"{kind}.json"
    path.write_text("[" * 1000 + "]" * 1000 + "\n")
    argv = _args(pairsum_dir)
    argv[argv.index(f"--{kind}") + 1] = str(path)
    assert main(["check"] + argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


def test_transfer_data_may_be_a_node_id(pairsum_dir, tmp_path, capsys):
    """An integer transfer ``data`` names a node by id, as in a placement,
    and schedules as its label would; it is no label, so a node labelled
    with the digits is not found by them."""
    graph = s.parse_sfg((pairsum_dir / "graph.json").read_text())
    by_label = json.loads((pairsum_dir / "io_lat3.json").read_text())
    by_id = json.loads(json.dumps(by_label))
    for t in by_id["transfers"]:
        t["data"] = graph.node_by_label(t["data"]).id
    outputs = {}
    for name, doc in (("label", by_label), ("id", by_id)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert main(["schedule"] + _args(
            pairsum_dir, io=str(tmp_path / f"{name}.json"))) == 0
        outputs[name] = capsys.readouterr().out
    assert outputs["id"] == outputs["label"]
    by_id["transfers"][0]["data"] = str(by_id["transfers"][0]["data"])
    (tmp_path / "digits.json").write_text(json.dumps(by_id))
    assert main(["schedule"] + _args(
        pairsum_dir, io=str(tmp_path / "digits.json"))) == 1
    assert capsys.readouterr().err == "error: transfers[0]: no node " \
        "labelled '0'\n"


@pytest.mark.parametrize("clock", ["0", "1e999", "NaN", "-5", "true",
                                   '"200"', "5e-324", "1e-300", "200.5"])
def test_clock_must_be_a_finite_positive_number(pairsum_dir, tmp_path,
                                                 capsys, clock):
    """A clock of zero, below 1 Hz, below zero or past the float range, a
    bool or a string ends in exit 1 and one message: no traceback, and no
    report with a latency in seconds strict JSON readers refuse or a
    hundred digits long."""
    lib = json.loads((pairsum_dir / "lib.json").read_text())
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(lib)[:-1] + f', "clock_mhz": {clock}}}')
    argv = _args(pairsum_dir, "--out", str(tmp_path / "out"),
                 mem="mem_twobank.json")
    argv[argv.index("--lib") + 1] = str(path)
    code = main(["report"] + argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if clock == "200.5":
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["clock_hz"] == 200.5e6
        return
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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


TOP_USAGE = ("usage: sfgsched [-h] {check,schedule,report,gen-fft,export-dot} "
             "...\n")


@pytest.mark.parametrize("argv,stderr", [
    ([], TOP_USAGE + "sfgsched: error: the following arguments are "
                     "required: command\n"),
    (["frobnicate"], TOP_USAGE + "sfgsched: error: argument command: invalid "
     "choice: 'frobnicate' (choose from 'check', 'schedule', 'report', "
     "'gen-fft', 'export-dot')\n"),
    (["schedule", "--lib", "L"],
     "usage: sfgsched schedule [-h] --graph GRAPH --lib LIB [--io IO] "
     "[--mem MEM]\n"
     "                         [--latency LATENCY] [--cadence CADENCE]\n"
     "                         [--alloc ALLOC] [--out OUT]\n"
     "sfgsched schedule: error: the following arguments are required: "
     "--graph\n"),
    (["report", "--graph", "G", "--lib", "L", "--seed", "1"],
     TOP_USAGE + "sfgsched: error: unrecognized arguments: --seed 1\n"),
    (["report", "--graph", "G", "--lib", "L", "--latency", "0"],
     "usage: sfgsched report [-h] --graph GRAPH --lib LIB [--io IO] "
     "[--mem MEM]\n"
     "                       [--latency LATENCY] [--cadence CADENCE] "
     "[--alloc ALLOC]\n"
     "                       [--out OUT]\n"
     "sfgsched report: error: argument --latency: expected a positive "
     "number of cycles, got '0'\n"),
], ids=["none", "unknown-command", "missing-graph", "leftover", "bad-type"])
def test_usage_errors_keep_their_bytes(monkeypatch, capsys, argv, stderr):
    """Each usage error reads as argparse's one-pass parse printed it:
    the command's usage for its own errors, the top-level usage for no
    command, an unknown one, or arguments the command leaves over."""
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at this width
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", stderr)


@pytest.mark.parametrize("argv", [["-h"], ["report", "-h"]])
def test_help_is_the_parsers_help(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    top, commands = _build_parser()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    parser = commands[argv[0]] if len(argv) > 1 else top
    assert capsys.readouterr().out == parser.format_help()


@pytest.mark.parametrize("out,spelled", [
    ("out", "out"), ("out/", "out"), ("./out", "out"), ("a//b", "a/b")])
@pytest.mark.parametrize("command,last", [("schedule", "schedule.json"),
                                          ("report", "report.txt")])
def test_out_directory_is_named_as_pathlib_spells_it(
        pairsum_dir, tmp_path, monkeypatch, capsys, out, spelled, command,
        last):
    monkeypatch.chdir(tmp_path)
    assert main([command] + _args(pairsum_dir, "--out", out)) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"wrote {spelled}/{last}"
    assert (tmp_path / spelled / last).is_file()


@pytest.mark.parametrize("graph,code,stderr", [
    ("nope.json", 1, "error: [Errno 2] No such file or directory: "
                     "'nope.json'\n"),
    ("", 1, "error: [Errno 21] Is a directory: '.'\n"),
    ("pairsum/./graph.json/", 0, ""),
], ids=["missing", "empty", "unnormalized"])
def test_input_path_read_as_pathlib_reads_it(data_dir, monkeypatch, capsys,
                                             graph, code, stderr):
    """An input path is opened as pathlib spells it: empty and ``.`` parts
    and a trailing ``/`` dropped, and messages name it so."""
    monkeypatch.chdir(data_dir)
    assert main(["export-dot", "--graph", graph]) == code
    assert capsys.readouterr().err == stderr


def test_gen_fft(tmp_path, capsys):
    out = tmp_path / "fft8.json"
    assert main(["gen-fft", "--points", "8", "--out", str(out)]) == 0
    g = s.parse_sfg(out.read_text())
    assert s.validate_sfg(g) == []
    assert len(g.of_kind(s.NodeKind.INPUT)) == 8


def test_gen_fft_bad_points(capsys):
    assert main(["gen-fft", "--points", "12"]) == 1
    assert "error:" in capsys.readouterr().err


def test_gen_fft_refuses_a_size_above_its_ceiling():
    """A huge power of two ends in exit 1 and one message, not in a
    MemoryError traceback.  The child's address space is capped, so a
    generator that starts building fails fast without taking the host's
    memory."""
    limit = 512 * 2 ** 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "sfgsched", "gen-fft", "--points",
         str(2 ** 40)], capture_output=True, text=True,
        preexec_fn=cap_memory, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ("error: n_points must be at most 16384, got "
                           "1099511627776\n")
    assert "Traceback" not in proc.stderr


def test_out_of_memory_exit_1():
    """A command that runs out of memory ends in exit 1 and one message,
    not in a MemoryError traceback.  The child's address space is capped
    at 256 MiB, below what an 8,192-point FFT graph needs."""
    limit = 256 * 2 ** 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "sfgsched", "gen-fft", "--points", "8192"],
        capture_output=True, text=True, preexec_fn=cap_memory, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "error: out of memory\n"
    assert "Traceback" not in proc.stderr


def test_fixed_count_above_the_ceiling_exit_1(pairsum_dir, capsys):
    """A fixed count above ``MAX_INSTANCES`` ends in exit 1 and one message
    before any pool is built, not in a MemoryError traceback; a count at
    the ceiling still parses."""
    code = main(["report"] + _args(pairsum_dir, "--alloc",
                                   "fixed:mult=100000000,add=1"))
    err = capsys.readouterr().err
    assert code == 1
    assert [line for line in err.splitlines() if "error" in line] == [
        "error: operator class 'mult': count 100000000 is not in 0..65536"]
    assert "Traceback" not in err
    ceiling = s.parse_allocation(f"fixed:mult={MAX_INSTANCES},add=1")
    assert ceiling.counts == (("mult", 2 ** 16), ("add", 1))


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
