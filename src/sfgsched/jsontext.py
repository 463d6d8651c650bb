"""The JSON text of every document sfgsched writes.

``dumps(obj)`` returns exactly ``json.dumps(obj, indent=2)``.  The standard
library runs its C encoder only without ``indent``, so an indented document
would go through the pure-Python encoder.  Here the C encoder writes every
container that holds only scalars in one call, with the newline and the
indentation of that container's items as its item separator: a flat list,
a flat dict, or a whole list of non-empty flat dicts (a table of records).
Only the nesting above those containers is walked in Python.  The splice is
exact because the encoder escapes every control character, so the only
newlines in its output are the separators'.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii

_SCALARS = frozenset({str, int, float, bool, type(None)})
_DICT = frozenset({dict})


@cache
def _encoder(depth: int):
    """``encode`` of an encoder without ``indent`` (so the C one) whose
    items are separated by a newline and the indentation of ``depth``."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


def _flat(values) -> bool:
    return _SCALARS.issuperset(map(type, values))


def _records(items) -> bool:
    """A non-empty list of non-empty dicts whose values are all scalars."""
    return (_DICT.issuperset(map(type, items)) and all(items)
            and _flat(chain.from_iterable(map(dict.values, items))))


def _key(key) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = _encoder(0)(key)
    return encode_basestring_ascii(key)


def _write(obj, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
        elif _flat(obj.values()):
            text = _encoder(depth + 1)(obj)
            out.append("{\n" + inner + text[1:-1] + "\n" + pad + "}")
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
        elif _flat(obj):
            text = _encoder(depth + 1)(obj)
            out.append("[\n" + inner + text[1:-1] + "\n" + pad + "]")
        elif _records(obj):
            # Each record's fields sit two levels down; only the seams
            # between records ("}" + separator + "{") need the outer
            # indentation instead.
            field = inner + "  "
            text = _encoder(depth + 2)(obj)[2:-2].replace(
                "},\n" + field + "{",
                "\n" + inner + "},\n" + inner + "{\n" + field)
            out.append("[\n" + inner + "{\n" + field + text + "\n" + inner
                       + "}\n" + pad + "]")
        else:
            sep = "[\n" + inner
            for item in obj:
                out.append(sep)
                _write(item, depth + 1, out)
                sep = ",\n" + inner
            out.append("\n" + pad + "]")
    else:
        out.append(_encoder(0)(obj))


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte."""
    out: list[str] = []
    _write(obj, 0, out)
    return "".join(out)
