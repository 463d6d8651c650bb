import json

import pytest

import sfgsched as s


def test_parse_library(pairsum_lib):
    assert [c.name for c in pairsum_lib.classes] == ["mult", "add"]
    assert pairsum_lib.select("*").name == "mult"
    assert pairsum_lib.select("+").name == "add"
    assert pairsum_lib.by_name("add").latency == 1


def test_selection_follows_library_order():
    lib = s.OperatorLibrary(classes=(
        s.OperatorClass("alu", frozenset("+-*"), 1),
        s.OperatorClass("mult", frozenset("*"), 2)))
    # first class wins even though a dedicated multiplier exists
    assert lib.select("*").name == "alu"


def test_select_unknown_symbol_raises(pairsum_lib):
    with pytest.raises(s.LibraryError):
        pairsum_lib.select("-")
    with pytest.raises(s.LibraryError):
        pairsum_lib.by_name("divider")


def test_clock_conversion():
    lib = s.parse_operator_library(
        '{"clock_mhz": 200, "classes": [{"name": "x", "ops": ["+"], "latency": 1}]}')
    assert lib.clock_hz == 200e6
    lib2 = s.parse_operator_library(
        '{"classes": [{"name": "x", "ops": ["+"], "latency": 1}]}')
    assert lib2.clock_hz is None


@pytest.mark.parametrize("doc", [
    "[1]",
    '{"classes": [{"name": "x", "ops": ["+"]}]}',
    '{"classes": [{"name": "x", "ops": "+", "latency": 1}]}',
    '{"classes": [{"name": "x", "ops": ["+"], "latency": true}]}',
    '{"classes": [{"name": "x", "ops": ["%"], "latency": 1}]}',
    '{"classes": [{"name": "x", "ops": ["+"], "latency": 0}]}',
    '{"classes": [{"name": "x", "ops": ["+"], "latency": 1},'
    ' {"name": "x", "ops": ["-"], "latency": 1}]}',
])
def test_parse_rejects_bad_documents(doc):
    with pytest.raises(s.LibraryError):
        s.parse_operator_library(doc)
