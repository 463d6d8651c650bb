import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfgsched as s
from sfgsched.jsontext import dumps, loads

TEXT = st.text(st.characters(blacklist_categories=()), max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.sampled_from([-0.0, 1e300])
           | TEXT)
KEYS = TEXT | st.integers() | st.floats(allow_nan=False) | st.booleans() \
    | st.none()
RECORDS = st.lists(st.dictionaries(KEYS, SCALARS, max_size=4), max_size=4)
# flat containers, walked item by item: of only ints or only strs, whose
# items are written without the encoder, and of their neighbours (bools,
# which are ints to isinstance, and mixes), whose items go through it
ALIKE = st.integers() | TEXT
FLAT = st.one_of(
    [st.lists(items, min_size=1, max_size=4) for items in (
        st.integers(), TEXT, st.booleans(), st.integers() | st.booleans())]
    + [st.lists(items, min_size=1, max_size=4).map(tuple)
       for items in (st.integers(), TEXT)]
    + [st.dictionaries(KEYS, items, min_size=1, max_size=4) for items in (
        st.integers(), TEXT, ALIKE, st.integers() | st.booleans())])
VALUES = st.recursive(
    SCALARS | RECORDS | FLAT,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_dumps_is_json_dumps_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2)


@settings(max_examples=200, deadline=None)
@given(FLAT, st.integers(0, 3))
def test_flat_int_or_str_containers_at_any_depth(value, depth):
    for _ in range(depth):
        value = {"k": [value]}
    assert dumps(value) == json.dumps(value, indent=2)


def test_record_tables_and_awkward_strings():
    rows = [{"a": "},\n    {", "b": -0.0}, {"a": "\x00 \ud800", "b": 1e300}]
    for value in (rows, {"t": rows, "e": [{}, []]}, [rows, rows[:1]],
                  [{"x": 1}, {}], {"n": float("nan"), 1.5: True},
                  ["\x00", "\ud800", "}\n  ]"], {None: 1, 2.5: -3, True: 0},
                  {"mix": [1, True], "ints": [10**30, -1]}):
        assert dumps(value) == json.dumps(value, indent=2)


def test_documents_keep_their_bytes(pairsum_dir, pairsum_graph):
    golden = (pairsum_dir / "golden_schedule_lat3.json").read_text()
    assert dumps(json.loads(golden)) + "\n" == golden
    assert s.serialize_sfg(pairsum_graph) == json.dumps(
        json.loads(s.serialize_sfg(pairsum_graph)), indent=2) + "\n"


def test_loads_refuses_a_document_nested_past_the_recursion_limit():
    deep = "[" * 1000 + "]" * 1000
    assert loads("[[1], {}]") == [[1], {}]
    with pytest.raises(json.JSONDecodeError, match="nested too deeply") as exc:
        loads(deep)
    assert (exc.value.lineno, exc.value.colno) == (1, 1)
    with pytest.raises(s.ParseError, match="^line 1, column 1: document "
                                           "nested too deeply$"):
        s.parse_sfg(deep)
