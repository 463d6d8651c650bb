"""The A/B harness times each pipeline stage by wrapping names on the CLI
module and skips a name a tree lacks: renaming one in ``src/`` must fail
here, not move that stage's time silently into ``other``.  Its ``setup``
workload times a fresh import, the generator and the documents of each
tree on their own, and refuses trees whose documents differ.  Its record
carries each tree's ``src/sfgsched`` line count, and its count of code
lines, in total and per module, keeps sub-millisecond times to the microsecond, and gives the
ratio of the minima beside the median ratio."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

import sfgsched as s
from sfgsched import cli

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "bench" / "ab.py"


@pytest.fixture
def ab(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))  # ab.py prepends to it
    spec = importlib.util.spec_from_file_location("bench_ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "WORK", tmp_path / "work")
    yield module
    for name in [m for m in sys.modules
                 if m.split(".")[0] in ("ab_parent", "ab_change")]:
        del sys.modules[name]


def test_every_stage_name_is_on_the_cli(ab):
    missing = [name for names in ab.STAGES.values() for name in names
               if not hasattr(s.Schedule if name == "to_json" else cli, name)]
    assert missing == []


def test_setup_times_each_stage_of_both_trees(ab, capsys):
    entry = ab.measure_setup({"parent": ROOT / "src", "change": ROOT / "src"},
                             rounds=2, seed=1)
    for side in ("parent", "change"):
        rounds = entry[side]["rounds_s"]
        assert set(rounds) == {"import", "generate", "write", "total"}
        assert all(len(ts) == 2 and min(ts) > 0 for ts in rounds.values())
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "setup fft128_paced, 2 rounds"
    assert [line.split()[0] for line in out[1:]] == [
        "import", "generate", "write", "total"]


def test_setup_refuses_different_documents(ab, tmp_path, capsys):
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src", other,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "sfgsched" / "graph.py", "a") as f:
        f.write("\n_serialize = serialize_sfg\n\n\n"
                "def serialize_sfg(g):\n    return _serialize(g) + ' '\n")
    with pytest.raises(SystemExit, match="different documents"):
        ab.measure_setup({"parent": other, "change": ROOT / "src"},
                         rounds=1, seed=1)


def test_record_carries_the_src_line_counts(ab, tmp_path, capsys):
    out = tmp_path / "record.json"
    assert ab.main(["--parent", str(ROOT), "--workload", "setup",
                    "--rounds", "1", "--out", str(out)]) == 0
    n = sum(len(f.read_text().splitlines())
            for f in (ROOT / "src" / "sfgsched").glob("*.py"))
    code = sum(ab.module_code_lines(ROOT / "src").values())
    record = json.loads(out.read_text())
    assert record["src_lines"] == {"parent": n, "change": n}
    assert record["src_code_lines"] == {"parent": code, "change": code}
    by_module = ab.module_lines(ROOT / "src")
    code_by_module = ab.module_code_lines(ROOT / "src")
    assert sum(by_module.values()) == n and sum(code_by_module.values()) == code
    assert record["src_lines_by_module"] == {"parent": by_module,
                                             "change": by_module}
    assert record["src_code_lines_by_module"] == {"parent": code_by_module,
                                                  "change": code_by_module}
    printed = capsys.readouterr().out
    assert f"lines: parent {n}, change {n}" in printed
    assert f"code lines: parent {code}, change {code}" in printed
    m, c = by_module["memory.py"], code_by_module["memory.py"]
    assert f"  memory.py: lines {m} -> {m}, code lines {c} -> {c}" in printed


def test_line_counts_per_module_show_a_move(ab, tmp_path):
    """Two lines moved from one module to another leave the totals as
    they were; the per-module counts show the move."""
    counts = {}
    for side, (a, b) in (("parent", ("X = 1\nY = 2\n", "# b\n")),
                         ("change", ("X = 1\n", "# b\nY = 2\n"))):
        package = tmp_path / side / "sfgsched"
        package.mkdir(parents=True)
        (package / "a.py").write_text(a)
        (package / "b.py").write_text(b)
        counts[side] = (ab.module_lines(tmp_path / side),
                        ab.module_code_lines(tmp_path / side))
    assert counts["parent"] == ({"a.py": 2, "b.py": 1}, {"a.py": 2, "b.py": 0})
    assert counts["change"] == ({"a.py": 1, "b.py": 2}, {"a.py": 1, "b.py": 1})
    assert [sum(n.values()) for n in counts["parent"]] == \
        [sum(n.values()) for n in counts["change"]] == [3, 2]


def test_code_lines_leave_out_blanks_comments_and_docstrings(ab, tmp_path):
    package = tmp_path / "sfgsched"
    package.mkdir()
    (package / "m.py").write_text(
        '"""A module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # a comment after code\n"
        "\n"
        "\n"
        "class C:\n"
        '    """One line."""\n'
        "\n"
        "    def f(self):\n"
        '        """Two\n        lines."""\n'
        '        return """a string\n        in code"""\n')
    assert ab.module_lines(tmp_path) == {"m.py": 16}
    # X = 1, class C, def f and the two lines of the returned string
    assert ab.module_code_lines(tmp_path) == {"m.py": 5}


def test_record_keeps_sub_millisecond_times(ab, capsys):
    """A stage that takes tens of microseconds keeps its per-round times,
    so its ratios can be read back from the record."""
    times = {"parent": {"write": [0.000041, 0.000052, 0.000047]},
             "change": {"write": [0.000039, 0.000061, 0.000044]}}
    entry = ab.summarize({"name": "x"}, times, 3)
    for side in times:
        assert entry[side]["rounds_s"] == times[side]
    assert entry["parent"]["median_s"] == {"write": 0.000047}
    assert entry["change"]["median_s"] == {"write": 0.000044}


def test_summary_gives_the_ratio_of_the_minima(ab, capsys):
    """The minima's ratio is its own figure: here the change is slower in
    the median of the per-round ratios but faster at its best."""
    times = {"parent": {"schedule": [0.080, 0.070, 0.090],
                        "other": [0.0, 0.0, 0.0]},
             "change": {"schedule": [0.100, 0.077, 0.063],
                        "other": [0.0, 0.0, 0.0]}}
    entry = ab.summarize({"name": "x"}, times, 3)
    assert entry["ratio_median"] == {"schedule": 1.1, "other": 1.0}
    assert entry["ratio_min"] == {"schedule": 0.9, "other": 1.0}
    out = capsys.readouterr().out
    assert "median ratio 1.100, min ratio 0.900, change faster in 1/3 " \
        "rounds" in out
