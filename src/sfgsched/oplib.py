"""Operator library: hardware operator classes and selection."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import jsontext
from .graph import OPERATION_SYMBOLS


class LibraryError(ValueError):
    pass


@dataclass(frozen=True)
class OperatorClass:
    """A hardware operator template: which symbols it executes and its
    traversal time in cycles (an instance is busy for the full latency)."""

    name: str
    ops: frozenset[str]
    latency: int

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise LibraryError(f"operator class {self.name!r}: latency must be >= 1")
        unknown = self.ops - set(OPERATION_SYMBOLS)
        if unknown:
            raise LibraryError(f"operator class {self.name!r}: unknown symbols {sorted(unknown)}")


@dataclass(frozen=True)
class OperatorLibrary:
    """Ordered operator classes.  Selection picks the first class in library
    order that executes a symbol, so the order is the user's selection policy.
    ``clock_hz`` is informational (reports only); when given, it is finite
    and at least 1 Hz, so a report's latency in seconds is too."""

    classes: tuple[OperatorClass, ...]
    clock_hz: float | None = None

    def __post_init__(self) -> None:
        names = [c.name for c in self.classes]
        if len(names) != len(set(names)):
            raise LibraryError("duplicate operator class names")
        if self.clock_hz is not None and not 1 <= self.clock_hz < math.inf:
            raise LibraryError(f"clock must be finite and at least 1 Hz, got "
                               f"{self.clock_hz!r}")

    def select(self, symbol: str) -> OperatorClass:
        for c in self.classes:
            if symbol in c.ops:
                return c
        raise LibraryError(f"no operator class executes {symbol!r}")

    def by_name(self, name: str) -> OperatorClass:
        for c in self.classes:
            if c.name == name:
                return c
        raise LibraryError(f"no operator class named {name!r}")


def parse_operator_library(text: str) -> OperatorLibrary:
    """Parse a library document:

    {"clock_mhz": 200,
     "classes": [{"name": "mult", "ops": ["*"], "latency": 2}, ...]}
    """
    try:
        doc = jsontext.loads(text)
    except json.JSONDecodeError as exc:
        raise LibraryError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("classes"), list):
        raise LibraryError("library document must contain a 'classes' array")
    classes = []
    for i, obj in enumerate(doc["classes"]):
        if not isinstance(obj, dict):
            raise LibraryError(f"classes[{i}]: expected an object")
        try:
            name, ops, latency = obj["name"], obj["ops"], obj["latency"]
        except KeyError as exc:
            raise LibraryError(f"classes[{i}]: missing field {exc.args[0]!r}") from None
        if not isinstance(name, str) or not isinstance(ops, list) or \
                not all(isinstance(op, str) for op in ops):
            raise LibraryError(f"classes[{i}]: 'name' must be a string and "
                               f"'ops' a list of strings")
        if not isinstance(latency, int) or isinstance(latency, bool):
            raise LibraryError(f"classes[{i}]: 'latency' must be an integer")
        classes.append(OperatorClass(name=name, ops=frozenset(ops), latency=latency))
    clock_mhz = doc.get("clock_mhz")
    if not isinstance(clock_mhz, (int, float, type(None))) or \
            isinstance(clock_mhz, bool):
        raise LibraryError(f"'clock_mhz' must be a number, got {clock_mhz!r}")
    try:
        clock_hz = clock_mhz * 1e6 if clock_mhz is not None else None
    except OverflowError:  # an int past the float range
        clock_hz = math.inf
    return OperatorLibrary(classes=tuple(classes), clock_hz=clock_hz)
