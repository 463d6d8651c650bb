"""Operator library: hardware operator classes and selection."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph import SFG, OPERATION_SYMBOLS, NodeKind


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
    ``clock_hz`` is informational (reports only)."""

    classes: tuple[OperatorClass, ...]
    clock_hz: float | None = None

    def __post_init__(self) -> None:
        names = [c.name for c in self.classes]
        if len(names) != len(set(names)):
            raise LibraryError("duplicate operator class names")

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

    def uncovered_symbols(self, g: SFG) -> list[str]:
        used = {n.op for n in g.nodes if n.kind is NodeKind.OPERATION and n.op}
        executable = set().union(*(c.ops for c in self.classes)) if self.classes else set()
        return sorted(used - executable)


def parse_operator_library(text: str) -> OperatorLibrary:
    """Parse a library document:

    {"clock_mhz": 200,
     "classes": [{"name": "mult", "ops": ["*"], "latency": 2}, ...]}
    """
    try:
        doc = json.loads(text)
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
    try:
        clock_hz = float(clock_mhz) * 1e6 if clock_mhz is not None else None
    except (TypeError, ValueError):
        raise LibraryError(f"'clock_mhz' must be a number, got "
                           f"{clock_mhz!r}") from None
    return OperatorLibrary(classes=tuple(classes), clock_hz=clock_hz)
