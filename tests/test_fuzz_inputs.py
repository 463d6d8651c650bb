"""Fuzzed input documents: malformed input must end in a documented error.

Two kinds of input are generated: arbitrary JSON values (with keys drawn
partly from the real schema, so that parsers get past their first check),
and copies of the pairsum documents with one field replaced by a value of
the wrong type or sign (or removed).  Each parser may raise only its
documented error type; ``sfgsched check`` on the same documents written as
files must exit 0, 1 or 2 without a traceback.  Last, one numeric field of
the documents or one cycle-count flag is set to an extreme number and
``sfgsched report`` runs in a child process with capped memory: it must
exit 0, 1, 2 or 3 without a traceback, and write strict JSON.
"""

import contextlib
import io
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

import sfgsched as s
from sfgsched.cli import main

PAIRSUM = Path(__file__).parent / "data" / "pairsum"
DOCS = {
    "graph": json.loads((PAIRSUM / "graph.json").read_text()),
    "lib": json.loads((PAIRSUM / "lib.json").read_text()),
    "io": json.loads((PAIRSUM / "io_lat3.json").read_text()),
    "mem": json.loads((PAIRSUM / "mem_twobank.json").read_text())
    | {"placements": [{"data": "var2", "bank": "bank1", "address": 0}]},
}
GRAPH = s.parse_sfg((PAIRSUM / "graph.json").read_text())

# what each parser may raise, besides returning
PARSERS = {
    "graph": (s.parse_sfg, (s.ParseError, s.ValidationError)),
    "lib": (s.parse_operator_library, (s.LibraryError,)),
    "io": (lambda text: s.parse_io_spec(text, GRAPH), (s.IoSpecError,)),
    "mem": (lambda text: s.parse_memory_mapping(text, GRAPH),
            (s.MappingError,)),
}

# the fields a corruption may hit: (document, path to the field)
FIELDS = (
    [("graph", ("nodes", i, key)) for i in (0, 2, 4, 7)
     for key in ("id", "kind", "op", "label")]
    + [("graph", ("edges", i, key)) for i in (0, 1, 6)
       for key in ("from", "to", "pos")]
    + [("lib", ("classes", i, key)) for i in (0, 1)
       for key in ("name", "ops", "latency")]
    + [("lib", ("clock_mhz",))]
    + [("io", (key,)) for key in ("cadence", "latency", "buses", "transfers")]
    + [("io", ("transfers", i, key)) for i in (0, 2)
       for key in ("data", "bus", "offset")]
    + [("io", ("buses", 0, key)) for key in ("id", "direction")]
    + [("mem", (key,)) for key in ("mode", "banks", "placements")]
    + [("mem", ("banks", i, key)) for i in (0, 1)
       for key in ("id", "ports", "t_seq", "t_rand")]
    + [("mem", ("placements", 0, key)) for key in ("data", "bank", "address")]
)

SCHEMA_KEYS = sorted({key for _, path in FIELDS for key in path
                      if isinstance(key, str)}
                     | {"nodes", "edges", "classes", "data", "address"})

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3),
                      children, max_size=4),
    max_leaves=12)

_REMOVE = object()
wrong_values = (st.booleans() | st.floats()
                | st.sampled_from([float("inf"), float("-inf"), float("nan")])
                | st.integers(max_value=-1)
                | st.lists(st.integers(), max_size=2)
                | st.dictionaries(st.text(max_size=2), st.integers(),
                                  max_size=2)
                | st.none() | st.just(_REMOVE))


def _corrupt(doc, path, value):
    doc = json.loads(json.dumps(doc))  # a deep copy
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is _REMOVE:
        target.pop(path[-1], None)
    else:
        target[path[-1]] = value
    return doc


def _check_parsers(name: str, text: str) -> None:
    parse, errors = PARSERS[name]
    try:
        parse(text)
    except errors:
        pass


def _check_cli(texts: dict[str, str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["check"]
        for name, text in texts.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(text)
            argv += [f"--{name}", str(path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _pairsum_texts() -> dict[str, str]:
    return {name: json.dumps(doc) for name, doc in DOCS.items()}


# Derandomized, so that every run tries the same examples; the counts keep
# the whole file to a few seconds (a CLI call costs far more than a parse).
PARSER_FUZZ = settings(max_examples=400, deadline=None, derandomize=True,
                       database=None,
                       suppress_health_check=[HealthCheck.too_slow])
CLI_FUZZ = settings(PARSER_FUZZ, max_examples=100)


@settings(PARSER_FUZZ, max_examples=200)
@given(st.sampled_from(sorted(PARSERS)), json_values)
def test_arbitrary_json_raises_only_documented_errors(name, value):
    _check_parsers(name, json.dumps(value))


@PARSER_FUZZ
@given(st.sampled_from(FIELDS), wrong_values)
def test_corrupted_field_raises_only_documented_errors(field, value):
    name, path = field
    _check_parsers(name, json.dumps(_corrupt(DOCS[name], path, value)))


@settings(CLI_FUZZ, max_examples=60)
@given(st.sampled_from(sorted(PARSERS)), json_values)
def test_check_on_arbitrary_json_exits_cleanly(name, value):
    texts = _pairsum_texts()
    texts[name] = json.dumps(value)
    _check_cli(texts)


@CLI_FUZZ
@given(st.sampled_from(FIELDS), wrong_values)
def test_check_on_a_corrupted_field_exits_cleanly(field, value):
    name, path = field
    texts = _pairsum_texts()
    texts[name] = json.dumps(_corrupt(DOCS[name], path, value))
    _check_cli(texts)


def test_pairsum_documents_pass_the_harness():
    for name, text in _pairsum_texts().items():
        PARSERS[name][0](text)
    _check_cli(_pairsum_texts())


# Numbers at the edges: zero, negatives, past 64 bits, past the float range
# (Python's JSON reader accepts NaN and Infinity), a bool and a numeric
# string.  Each goes into one numeric field of the documents, or into a
# flag of ``report``.
EXTREMES = (0, -1, -(2 ** 63), 2 ** 63, 1e308, float("inf"), float("nan"),
            True, "3")
NUMERIC_FIELDS = (
    [("graph", ("nodes", 4, "id")), ("graph", ("edges", 0, "pos")),
     ("lib", ("clock_mhz",)), ("lib", ("classes", 0, "latency")),
     ("io", ("cadence",)), ("io", ("latency",)),
     ("io", ("transfers", 2, "offset")),
     ("mem", ("placements", 0, "address"))]
    + [("mem", ("banks", 0, key)) for key in ("ports", "t_seq", "t_rand")]
    + [("flag", (flag,)) for flag in ("--latency", "--cadence", "--alloc")])
CHILD_MEMORY = 2 ** 30


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


# One child process per example, about 0.3 s each: the two explicit
# examples and 18 drawn ones.
@settings(PARSER_FUZZ, max_examples=18)
@given(st.sampled_from(NUMERIC_FIELDS), st.sampled_from(EXTREMES))
@example(("lib", ("clock_mhz",)), 0)
@example(("lib", ("clock_mhz",)), float("inf"))
def test_report_on_an_extreme_number_exits_cleanly(field, value):
    name, path = field
    texts = _pairsum_texts()
    flags = []
    if name == "flag":
        text = value if isinstance(value, str) else json.dumps(value)
        flags = [path[0], f"fixed:mult={text},add=1" if path[0] == "--alloc"
                 else text]
    else:
        texts[name] = json.dumps(_corrupt(DOCS[name], path, value))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [sys.executable, "-m", "sfgsched", "report", "--out", str(out)]
        for doc, text in texts.items():
            (Path(tmp) / f"{doc}.json").write_text(text)
            argv += [f"--{doc}", str(Path(tmp) / f"{doc}.json")]
        proc = subprocess.run(argv + flags, capture_output=True, text=True,
                              preexec_fn=_cap_memory, timeout=60)
        assert proc.returncode in (0, 1, 2, 3), proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        if proc.returncode == 0:
            for result in ("schedule.json", "report.json"):
                _strict_json((out / result).read_text())
