"""The JSON text of every document sfgsched writes.

``dumps(obj)`` returns exactly ``json.dumps(obj, indent=2)``.  The standard
library runs its C encoder only without ``indent``, so an indented document
would go through the pure-Python encoder.  Here containers are walked in
Python, and an int or a str is written directly, as the encoder would
write it (``int.__repr__``, ``encode_basestring_ascii``).  Other scalars,
and keys that are not strings, go through one C encoder made at import.
It must stay: on Python 3.11 one ``json.dumps(obj, indent=2)`` leaves 33
unreachable objects (the pure-Python encoder's closures), none without
``indent``, so it would fail ``test_main_leaves_no_cyclic_garbage``.

The record tables of ``schedule.json`` (its allocation events, ops,
accesses and transfers) and of a graph document (its nodes and edges) are
written without a dict per record.  ``rows`` fills one row template per
table by position from the records' fields, given a column at a time: a
string goes through ``encode_basestring_ascii`` (what ``json.dumps``
calls), an int through ``%d`` and a bool becomes ``true`` or ``false``;
``array`` joins the rows.  ``dumps_tables`` writes a head document with
``dumps`` and each table of records with ``table``.  ``EVENTS``, ``OPS``,
``ACCESSES`` and ``TRANSFERS`` state each table's keys, in document order,
with the position of their field in the record
(``scheduling.AllocationEvent``, ``ScheduledOp``, ``ScheduledAccess``,
``ScheduledTransfer``); ``NODES`` does so for each shape of a graph node
(``graph.SfgNode``), since a node leaves out an ``op`` or ``label`` it does
not have, and ``EDGES`` for an edge as ``(to, pos, from)``, its sort key.
"""

from __future__ import annotations

import json
from functools import cache
from json.encoder import encode_basestring_ascii


def loads(text: str):
    """``json.loads(text)``; a document nested past the interpreter's
    recursion limit raises ``json.JSONDecodeError`` (at its start), as
    other malformed JSON does, not ``RecursionError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("document nested too deeply", text,
                                   0) from None


# (key, record position, kind) of each column of a record table; the kind
# is "d" for an int, "s" for a str and "b" for a bool
EVENTS = (("cycle", 0, "d"), ("class", 1, "s"), ("instance", 2, "s"))
OPS = (("node", 0, "d"), ("label", 1, "s"), ("class", 2, "s"),
       ("instance", 3, "s"), ("start", 4, "d"), ("latency", 5, "d"))
ACCESSES = (("cycle", 7, "d"), ("node", 0, "d"), ("op", 1, "d"),
            ("kind", 2, "s"), ("data", 3, "d"), ("data_label", 4, "s"),
            ("bank", 5, "s"), ("address", 6, "d"), ("cost", 8, "d"),
            ("cost_class", 9, "s"), ("seq", 10, "d"))
TRANSFERS = (("cycle", 2, "d"), ("node", 0, "d"), ("bus", 1, "s"),
             ("direction", 3, "s"), ("synthesized", 4, "b"))
# by (has an op, has a label)
NODES = {(op, label): (("id", 0, "d"), ("kind", 1, "s"))
         + (("op", 2, "s"),) * op + (("label", 3, "s"),) * label
         for op in (False, True) for label in (False, True)}
EDGES = (("from", 2, "d"), ("to", 0, "d"), ("pos", 1, "d"))

_BOOLS = ("false", "true")
# the scalars written without the encoder, each as the encoder writes it
_WRITERS = {int: int.__repr__, str: encode_basestring_ascii}
# ``encode`` of an encoder without ``indent`` (so the C one), for scalars
_encoder = json.JSONEncoder().encode


def _key(key) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = _encoder(key)
    return encode_basestring_ascii(key)


def _write(obj, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
        else:
            sep = "{\n" + inner
            for key, value in obj.items():
                out.append(sep + _key(key) + ": ")
                _write(value, depth + 1, out)
                sep = ",\n" + inner
            out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        else:
            sep = "[\n" + inner
            for item in obj:
                out.append(sep)
                _write(item, depth + 1, out)
                sep = ",\n" + inner
            out.append("\n" + pad + "]")
    elif type(obj) in _WRITERS:  # without the encoder's set-up
        out.append(_WRITERS[type(obj)](obj))
    else:
        out.append(_encoder(obj))


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte."""
    out: list[str] = []
    _write(obj, 0, out)
    return "".join(out)


def table(records, columns, depth: int) -> str:
    """``dumps`` of the list of one dict per record, ``{key:
    record[position]}`` for each column (see ``OPS``), as a value at
    nesting ``depth``."""
    return array(rows(list(zip(*records)), columns, depth) if records
                 else [], depth)


def rows(fields, columns, depth: int) -> list[str]:
    """The text of each row of a ``table`` at ``depth`` whose records are
    given split into ``fields``, one sequence per record position: the
    fields of each row go into one template, so no dict is built per
    row."""
    values = []
    for _, position, kind in columns:
        field = fields[position]
        if kind == "s":
            field = map(encode_basestring_ascii, field)
        elif kind == "b":
            field = map(_BOOLS.__getitem__, field)
        values.append(field)
    return list(map(_row_template(columns, depth).__mod__, zip(*values)))


def array(texts: list[str], depth: int) -> str:
    """The list of the values written as ``texts``, at nesting ``depth``."""
    if not texts:
        return "[]"
    return "[\n" + ",\n".join(texts) + "\n" + "  " * depth + "]"


@cache
def _row_template(columns, depth: int) -> str:
    """The text of one row of a ``table`` at ``depth``, with a ``%``
    conversion where each column's value goes."""
    inner = "  " * (depth + 1)
    return inner + "{\n" + ",\n".join(
        inner + "  " + encode_basestring_ascii(key).replace("%", "%%")
        + (": %d" if kind == "d" else ": %s")
        for key, _, kind in columns) + "\n" + inner + "}"


def dumps_tables(head: dict, tables) -> str:
    """``dumps`` of the non-empty dict ``head`` followed by one item per
    ``(key, records, columns)`` of ``tables``, each the ``table`` of its
    records."""
    out = [dumps(head)[:-2]]
    for key, records, columns in tables:
        out.append(",\n  " + _key(key) + ": " + table(records, columns, 1))
    out.append("\n}")
    return "".join(out)
