"""Memory model: bank descriptions, data-to-bank placement, access-cost
rules, and the per-bank port reservation table used while scheduling.

Access cost rule per bank: the first access of a run, and any access whose
address immediately follows the previously accessed address on that bank,
proceeds in burst mode and costs ``t_seq`` cycles; any other address jump
costs ``t_rand`` cycles.  "Previously accessed" follows reservation order,
which the scheduler fixes and the verifier replays.

Port capacity is tracked in coarse slots of ``t_seq`` cycles each: a bank
with P ports can serve P accesses per slot, and an access issued at cycle c
with cost k occupies every slot overlapping cycles ``c .. c+k-1``.  The
table covers one iteration (``cadence`` cycles); ``Bank.span`` answers
None for an access that would run past it.  ``Bank.cost`` and
``Bank.span`` hold the two rules for the scheduler, the verifier and the
exhaustive oracle, and ``Bank.last_issue`` the last cycle ``span`` admits
at the cheapest cost, which bounds the time windows and the static check.
``PortAccessTable.fit`` places an op's (bank, address, offset) requests
from its start cycle, giving each its (cost, class, slot span), and stops
at the first it cannot serve: a blocked fit is a short list.  ``probe``
is a fit that answers None when blocked.  ``commit`` reserves a fit as
placed, on the spans given, so each access fitted takes one ``Bank.span``
call, not one more to commit.  The table is two dicts, each bank's last
address (``last``) and the reservations per (bank, slot), and only
``commit`` changes it: the scheduler commits a cycle's starts when the
next cycle begins, so the table stays fixed while a cycle is ranked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import jsontext
from .graph import SFG, NodeKind


class MappingError(ValueError):
    """Invalid bank description or data placement."""


@dataclass(frozen=True)
class MemoryTable:
    """The ids of a graph's memdata nodes, in id order."""

    data_ids: tuple[int, ...]


def extract_memory_table(g: SFG) -> MemoryTable:
    return MemoryTable(data_ids=tuple(
        i for i, k in zip(g.ids, g._kind) if k is NodeKind.MEMDATA))


def is_burst(last: int | None, address: int) -> bool:
    """Whether an access to ``address`` continues the run of a bank that
    last served ``last`` (None: the first access, which starts one)."""
    return last is None or address == last + 1


@dataclass(frozen=True)
class Bank:
    """One memory bank: port count and burst/random access times in cycles."""

    id: str
    ports: int = 1
    t_seq: int = 1
    t_rand: int = 1

    def __post_init__(self):
        if self.ports < 1:
            raise MappingError(f"bank {self.id}: ports must be >= 1")
        if not 1 <= self.t_seq <= self.t_rand:
            raise MappingError(
                f"bank {self.id}: need 1 <= t_seq <= t_rand, got "
                f"t_seq={self.t_seq} t_rand={self.t_rand}")

    def cost(self, last: int | None, address: int) -> tuple[int, str]:
        """(cycles, class) of an access to ``address`` when the bank last
        served ``last`` (None before its first access)."""
        if is_burst(last, address):
            return self.t_seq, "burst"
        return self.t_rand, "random"

    def span(self, cycle: int, cost: int, cadence: int) -> range | None:
        """Port slots taken by an access of ``cost`` cycles issued at
        ``cycle``, or None when it starts before cycle 0 or runs past the
        ``cadence // t_seq`` slots of one iteration."""
        final = (cycle + cost - 1) // self.t_seq
        if cycle < 0 or final >= cadence // self.t_seq:
            return None
        return range(cycle // self.t_seq, final + 1)

    def last_issue(self, cadence: int) -> int:
        """The last cycle at which ``span`` admits an access of cost
        ``t_seq``, the cheapest: the start of the last of the iteration's
        ``cadence // t_seq`` slots (negative when it has none)."""
        return (cadence // self.t_seq - 1) * self.t_seq


@dataclass(frozen=True)
class Placement:
    data: int
    bank: str
    address: int


@dataclass(frozen=True)
class MappingSpec:
    """Parsed placement request: banks plus explicit placements; in auto
    mode unplaced data is spread round-robin over the banks."""

    mode: str  # "auto" | "strict"
    banks: tuple[Bank, ...]
    placements: tuple[Placement, ...] = ()

    def __post_init__(self):
        if self.mode not in ("auto", "strict"):
            raise MappingError(f"unknown placement mode {self.mode!r}")


@dataclass(frozen=True)
class MemoryMapping:
    """Complete data-to-(bank, address) assignment: ``placements`` in
    order, and by memdata id in ``_by_data``, which the scheduler and the
    verifier read."""

    banks: tuple[Bank, ...]
    placements: tuple[Placement, ...]

    def __post_init__(self):
        ids = [b.id for b in self.banks]
        if len(set(ids)) != len(ids):
            raise MappingError("duplicate bank id")
        by_bank = {b.id: b for b in self.banks}
        by_data: dict[int, Placement] = {}
        seen_slot: set[tuple[str, int]] = set()
        for p in self.placements:
            if p.bank not in by_bank:
                raise MappingError(f"placement of data {p.data}: unknown bank "
                                   f"{p.bank!r}")
            if p.address < 0:
                raise MappingError(f"placement of data {p.data}: negative address")
            if p.data in by_data:
                raise MappingError(f"data {p.data} placed twice")
            if (p.bank, p.address) in seen_slot:
                raise MappingError(f"bank {p.bank} address {p.address} "
                                   f"assigned twice")
            by_data[p.data] = p
            seen_slot.add((p.bank, p.address))
        object.__setattr__(self, "_by_bank", by_bank)
        object.__setattr__(self, "_by_data", by_data)

    def bank(self, bank_id: str) -> Bank:
        return self._by_bank[bank_id]

    def banks_used(self) -> tuple[str, ...]:
        used = {p.bank for p in self.placements}
        return tuple(b.id for b in self.banks if b.id in used)


def apply_mapping(table: MemoryTable, spec: MappingSpec) -> MemoryMapping:
    """Resolve a mapping spec against the memory table.

    Strict mode requires every memdata node to be placed explicitly.  Auto
    mode keeps the explicit placements and distributes the remaining data
    round-robin across the banks in declaration order, each at the lowest
    free address of its bank.
    """
    if table.data_ids and not spec.banks:
        raise MappingError("graph uses memory but no banks are declared")
    known = set(table.data_ids)
    for p in spec.placements:
        if p.data not in known:
            raise MappingError(f"placement references non-memdata node {p.data}")

    placements = list(spec.placements)
    placed = {p.data for p in placements}
    missing = [d for d in table.data_ids if d not in placed]
    if spec.mode == "strict":
        if missing:
            raise MappingError(f"strict mapping leaves data {missing[0]} unplaced")
    else:
        taken: dict[str, set[int]] = {b.id: set() for b in spec.banks}
        for p in placements:  # MemoryMapping rejects an undeclared bank
            taken.setdefault(p.bank, set()).add(p.address)
        # addresses are only ever taken, so each bank's lowest free address
        # only grows: the search resumes where the last one stopped
        lowest = dict.fromkeys(taken, 0)
        for i, data in enumerate(missing):
            bank = spec.banks[i % len(spec.banks)]
            addr = lowest[bank.id]
            while addr in taken[bank.id]:
                addr += 1
            taken[bank.id].add(addr)
            lowest[bank.id] = addr + 1
            placements.append(Placement(data=data, bank=bank.id, address=addr))
    return MemoryMapping(banks=spec.banks, placements=tuple(placements))


def _entries(doc: dict, key: str) -> list[dict]:
    """The list of objects under ``key`` (empty when absent)."""
    entries = doc.get(key, [])
    if not isinstance(entries, list) or \
            not all(isinstance(e, dict) for e in entries):
        raise MappingError(f"{key!r} must be a list of objects")
    return entries


def _int(entry: dict, key: str, default: int) -> int:
    """The integer under ``key``; a bool, float or string is refused."""
    value = entry.get(key, default)
    if type(value) is not int:
        raise MappingError(f"{key!r} must be an integer, got {value!r}")
    return value


def _str(entry: dict, key: str) -> str:
    """The string under ``key``."""
    value = entry[key]
    if not isinstance(value, str):
        raise MappingError(f"{key!r} must be a string, got {value!r}")
    return value


def parse_memory_mapping(text: str, g: SFG) -> MappingSpec:
    """Parse a placement document.

    Schema::

        {"mode": "auto",
         "banks": [{"id": "bank0", "ports": 1, "t_seq": 1, "t_rand": 2}],
         "placements": [{"data": "var2", "bank": "bank0", "address": 0}]}

    ``placements`` entries name memdata nodes by label or id
    (``SFG.node_by_ref``).
    """
    try:
        doc = jsontext.loads(text)
    except json.JSONDecodeError as e:
        raise MappingError(f"placement document is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise MappingError("placement document must be a JSON object")
    mode = doc.get("mode", "auto")
    banks = []
    for b in _entries(doc, "banks"):
        if "id" not in b:
            raise MappingError("bank entry without id")
        banks.append(Bank(id=_str(b, "id"), ports=_int(b, "ports", 1),
                          t_seq=_int(b, "t_seq", 1),
                          t_rand=_int(b, "t_rand", _int(b, "t_seq", 1))))
    placements = []
    for p in _entries(doc, "placements"):
        for key in ("data", "bank", "address"):
            if key not in p:
                raise MappingError(f"placement entry without {key!r}")
        ref = p["data"]
        try:
            node = g.node_by_ref(ref)
        except KeyError as e:
            raise MappingError(f"placement references unknown "
                               f"{'data' if isinstance(ref, str) else 'node'} "
                               f"{ref!r}") from e
        except TypeError as e:
            raise MappingError(f"placement {e}") from None
        if node.kind is not NodeKind.MEMDATA:
            raise MappingError(f"placement target {ref!r} is not a memdata node")
        placements.append(Placement(data=node.id, bank=_str(p, "bank"),
                                    address=_int(p, "address", 0)))
    return MappingSpec(mode=mode, banks=tuple(banks),
                       placements=tuple(placements))


class PortAccessTable:
    """Port reservation state for one scheduling run: ``last``, each
    bank's last reserved address (None before its first), and the
    reservations per (bank, slot) in use.  Only ``commit`` changes it;
    ``fit`` works on scratch copies for the banks its requests touch,
    since cost depends on reservation order.  The scheduler commits a
    cycle's starts when the next cycle begins, so it ranks every op of a
    cycle against the table as the cycle began.
    """

    def __init__(self, mapping: MemoryMapping, cadence: int):
        self.cadence = cadence
        self._banks = {b.id: b for b in mapping.banks}
        self.last: dict[str, int | None] = dict.fromkeys(self._banks)
        self._slots: dict[tuple[str, int], int] = {}  # only slots in use

    def fit(self, requests: list[tuple[str, int, int]], start: int
            ) -> list[tuple[int, str, range]]:
        """(cost, class, slot span) of each (bank, address, offset) request
        of an op started at cycle ``start``, reserved in order after each
        other, without changing any state.

        Stops at the first request that cannot be served (every port taken
        in a slot it needs, or a span past the table end), so a blocked
        result is shorter than ``requests`` and ``requests[len(fits)]`` is
        the blocked request.
        """
        scratch_last: dict[str, int | None] = {}
        scratch_add: dict[tuple[str, int], int] = {}
        last, slots = self.last, self._slots
        out = []
        for bank_id, address, offset in requests:
            bank = self._banks[bank_id]
            cost, cls = bank.cost(
                scratch_last.get(bank_id, last[bank_id]), address)
            span = bank.span(start + offset, cost, self.cadence)
            if span is None:
                return out
            for s in span:
                key = (bank_id, s)
                taken = scratch_add.get(key, 0)
                if slots.get(key, 0) + taken >= bank.ports:
                    return out
                scratch_add[key] = taken + 1
            scratch_last[bank_id] = address
            out.append((cost, cls, span))
        return out

    def probe(self, requests: list[tuple[str, int, int]], start: int
              ) -> list[tuple[int, str, range]] | None:
        """``fit`` of (bank, address, offset) requests started at cycle
        ``start``, or None when a request cannot be served."""
        fits = self.fit(requests, start)
        return fits if len(fits) == len(requests) else None

    def commit(self, requests: list[tuple[str, int, int]],
               fits: list[tuple[int, str, range]]) -> None:
        """Reserve requests on the slot spans ``fit`` gave them, on a
        table that has not changed in between."""
        last, slots = self.last, self._slots
        for (bank_id, address, _), (_, _, span) in zip(requests, fits):
            for s in span:
                key = (bank_id, s)
                slots[key] = slots.get(key, 0) + 1
            last[bank_id] = address
