"""I/O timing constraints: buses and the transfer schedule.

A constrained component exchanges data with its environment on buses at
fixed cycle offsets within an iteration of ``cadence`` cycles.  The
``latency_bound`` caps the distance (in cycles) from the first input
transfer to the last output transfer of one iteration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph import SFG, NodeKind


class IoSpecError(ValueError):
    pass


@dataclass(frozen=True)
class BusDef:
    id: str
    direction: str  # "in" | "out"

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out"):
            raise IoSpecError(f"bus {self.id!r}: direction must be 'in' or 'out'")


@dataclass(frozen=True)
class Transfer:
    node: int  # input or output node id in the SFG
    bus: str
    offset: int  # cycle offset within the iteration


@dataclass(frozen=True)
class IoConstraintSpec:
    """Bus set, transfer schedule, iteration cadence, and latency bound.

    With an empty transfer list the component is I/O-unconstrained: inputs
    are available from cycle 0 and outputs are only bounded by
    ``latency_bound``.
    """

    buses: tuple[BusDef, ...]
    transfers: tuple[Transfer, ...]
    cadence: int
    latency_bound: int

    @classmethod
    def unconstrained(cls, latency_bound: int, cadence: int | None = None) -> "IoConstraintSpec":
        return cls(buses=(), transfers=(),
                   cadence=cadence if cadence is not None else latency_bound,
                   latency_bound=latency_bound)

    def validate(self, g: SFG) -> list[str]:
        """Check spec invariants against a graph; returns violations."""
        out: list[str] = []
        if self.cadence < 1:
            out.append("cadence must be >= 1")
        if self.latency_bound < 1:
            out.append("latency bound must be >= 1")
        bus_by_id = {b.id: b for b in self.buses}
        if len(bus_by_id) != len(self.buses):
            out.append("duplicate bus ids")
        slots: set[tuple[str, int]] = set()
        for t in self.transfers:
            if t.bus not in bus_by_id:
                out.append(f"transfer of node {t.node}: unknown bus {t.bus!r}")
                continue
            if not g.has_node(t.node):
                out.append(f"transfer references unknown node {t.node}")
                continue
            kind = g.node(t.node).kind
            direction = bus_by_id[t.bus].direction
            if direction == "in" and kind is not NodeKind.INPUT:
                out.append(f"node {t.node} on input bus {t.bus!r} is not an input")
            if direction == "out" and kind is not NodeKind.OUTPUT:
                out.append(f"node {t.node} on output bus {t.bus!r} is not an output")
            if not 0 <= t.offset < self.cadence:
                out.append(f"transfer of node {t.node} at offset {t.offset} "
                           f"outside cadence {self.cadence}")
            key = (t.bus, t.offset)
            if key in slots:
                out.append(f"bus {t.bus!r} carries two transfers at offset {t.offset}")
            slots.add(key)
        return out


def build_transfer_graph(spec: IoConstraintSpec) -> tuple[Transfer, ...]:
    """The spec's transfers; rejects two transfers in one bus slot."""
    seen: set[tuple[str, int]] = set()
    for t in spec.transfers:
        key = (t.bus, t.offset)
        if key in seen:
            raise IoSpecError(f"bus {t.bus!r} carries two transfers at offset {t.offset}")
        seen.add(key)
    return spec.transfers


def parse_io_spec(text: str, g: SFG) -> IoConstraintSpec:
    """Parse an I/O constraint document, resolving node labels to ids:

    {"cadence": 3, "latency": 3,
     "buses": [{"id": "bus1", "direction": "in"}, ...],
     "transfers": [{"data": "a", "bus": "bus1", "offset": 0}, ...]}
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IoSpecError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise IoSpecError("top level must be an object")
    try:
        cadence = doc["cadence"]
        latency = doc["latency"]
    except KeyError as exc:
        raise IoSpecError(f"missing field {exc.args[0]!r}") from None
    for name, val in (("cadence", cadence), ("latency", latency)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise IoSpecError(f"{name!r} must be a positive integer")
    for name in ("buses", "transfers"):
        if not isinstance(doc.get(name, []), list):
            raise IoSpecError(f"{name!r} must be a list")
    buses = []
    for i, obj in enumerate(doc.get("buses", [])):
        if not isinstance(obj, dict) or "id" not in obj or "direction" not in obj:
            raise IoSpecError(f"buses[{i}]: need 'id' and 'direction'")
        buses.append(BusDef(id=str(obj["id"]), direction=str(obj["direction"])))
    transfers = []
    for i, obj in enumerate(doc.get("transfers", [])):
        if not isinstance(obj, dict):
            raise IoSpecError(f"transfers[{i}]: expected an object")
        try:
            label, bus, offset = obj["data"], obj["bus"], obj["offset"]
        except KeyError as exc:
            raise IoSpecError(f"transfers[{i}]: missing field {exc.args[0]!r}") from None
        try:
            node = g.node_by_label(str(label))
        except KeyError as exc:
            raise IoSpecError(f"transfers[{i}]: {exc.args[0]}") from None
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            raise IoSpecError(f"transfers[{i}]: 'offset' must be a non-negative integer")
        transfers.append(Transfer(node=node.id, bus=str(bus), offset=offset))
    spec = IoConstraintSpec(buses=tuple(buses), transfers=tuple(transfers),
                            cadence=cadence, latency_bound=latency)
    problems = spec.validate(g)
    if problems:
        raise IoSpecError(problems[0])
    return spec
