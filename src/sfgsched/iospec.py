"""I/O timing constraints: buses and the transfer schedule.

A constrained component exchanges data with its environment on buses at
fixed cycle offsets within an iteration of ``cadence`` cycles.  The
``latency_bound`` caps the distance (in cycles) from the first input
transfer to the last output transfer of one iteration.  A spec checks
its graph-free rules when built; ``constraints.apply_io_constraints``
checks the transfers against the graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import jsontext
from .graph import SFG


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

    def __post_init__(self) -> None:
        """Refuse the first fault that needs no graph: a cycle count below
        1, a repeated bus id, a transfer on an unknown bus, at an offset
        outside ``[0, cadence)`` or in a (bus, offset) slot already
        taken."""
        if self.cadence < 1:
            raise IoSpecError("cadence must be >= 1")
        if self.latency_bound < 1:
            raise IoSpecError("latency bound must be >= 1")
        bus_ids = {b.id for b in self.buses}
        if len(bus_ids) != len(self.buses):
            raise IoSpecError("duplicate bus ids")
        slots: set[tuple[str, int]] = set()
        for t in self.transfers:
            if t.bus not in bus_ids:
                raise IoSpecError(
                    f"transfer of node {t.node}: unknown bus {t.bus!r}")
            if not 0 <= t.offset < self.cadence:
                raise IoSpecError(f"transfer of node {t.node} at offset "
                                  f"{t.offset} outside cadence {self.cadence}")
            if (t.bus, t.offset) in slots:
                raise IoSpecError(f"bus {t.bus!r} carries two transfers at "
                                  f"offset {t.offset}")
            slots.add((t.bus, t.offset))

    @classmethod
    def unconstrained(cls, latency_bound: int, cadence: int | None = None) -> "IoConstraintSpec":
        return cls(buses=(), transfers=(),
                   cadence=cadence if cadence is not None else latency_bound,
                   latency_bound=latency_bound)


def build_transfer_graph(spec: IoConstraintSpec) -> tuple[Transfer, ...]:
    """The spec's transfers, which its construction checked."""
    return spec.transfers


def parse_io_spec(text: str, g: SFG) -> IoConstraintSpec:
    """Parse an I/O constraint document, resolving each transfer's
    ``data``, a node label or id (``SFG.node_by_ref``), to an id:

    {"cadence": 3, "latency": 3,
     "buses": [{"id": "bus1", "direction": "in"}, ...],
     "transfers": [{"data": "a", "bus": "bus1", "offset": 0}, ...]}
    """
    try:
        doc = jsontext.loads(text)
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
        if not isinstance(val, int) or isinstance(val, bool):
            raise IoSpecError(f"{name!r} must be an integer")
    for name in ("buses", "transfers"):
        if not isinstance(doc.get(name, []), list):
            raise IoSpecError(f"{name!r} must be a list")
    buses = []
    for i, obj in enumerate(doc.get("buses", [])):
        if not isinstance(obj, dict) or "id" not in obj or "direction" not in obj:
            raise IoSpecError(f"buses[{i}]: need 'id' and 'direction'")
        if not isinstance(obj["id"], str):
            raise IoSpecError(f"buses[{i}]: 'id' must be a string")
        buses.append(BusDef(id=obj["id"], direction=obj["direction"]))
    transfers = []
    for i, obj in enumerate(doc.get("transfers", [])):
        if not isinstance(obj, dict):
            raise IoSpecError(f"transfers[{i}]: expected an object")
        try:
            label, bus, offset = obj["data"], obj["bus"], obj["offset"]
        except KeyError as exc:
            raise IoSpecError(f"transfers[{i}]: missing field {exc.args[0]!r}") from None
        try:
            node = g.node_by_ref(label)
        except (KeyError, TypeError) as exc:
            raise IoSpecError(f"transfers[{i}]: {exc.args[0]}") from None
        if not isinstance(bus, str):
            raise IoSpecError(f"transfers[{i}]: 'bus' must be a string")
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise IoSpecError(f"transfers[{i}]: 'offset' must be an integer")
        transfers.append(Transfer(node=node.id, bus=bus, offset=offset))
    return IoConstraintSpec(buses=tuple(buses), transfers=tuple(transfers),
                            cadence=cadence, latency_bound=latency)
