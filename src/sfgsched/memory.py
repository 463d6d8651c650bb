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
table covers one iteration (``cadence`` cycles); an access that would run
past it raises ``HorizonError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph import SFG, NodeKind, SfgNode


class MappingError(ValueError):
    """Invalid bank description or data placement."""


class BlockedAccess(MappingError):
    """A port request cannot be served; ``bank_id`` names its bank."""

    def __init__(self, message: str, bank_id: str, cycle: int):
        super().__init__(message)
        self.bank_id = bank_id
        self.cycle = cycle


class HorizonError(BlockedAccess):
    """An access would extend past the port table's last slot."""

    def __init__(self, bank_id: str, cycle: int):
        super().__init__(f"access on bank {bank_id} at cycle {cycle} runs "
                         f"past the iteration horizon", bank_id, cycle)


class PortConflict(BlockedAccess):
    """Every port of the bank is taken in a slot the access needs."""

    def __init__(self, bank_id: str, cycle: int):
        super().__init__(f"no free port on bank {bank_id} for an access at "
                         f"cycle {cycle}", bank_id, cycle)


@dataclass(frozen=True)
class MemoryTable:
    """Memdata nodes with the operations that read and write them."""

    entries: tuple[SfgNode, ...]
    readers: dict[int, tuple[int, ...]]
    writers: dict[int, tuple[int, ...]]

    @property
    def data_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.entries)


def extract_memory_table(g: SFG) -> MemoryTable:
    entries = tuple(g.memdata)
    readers = {n.id: tuple(sorted(e.dst for e in g.out_edges(n.id)
                                  if g.node(e.dst).kind is NodeKind.OPERATION))
               for n in entries}
    writers = {n.id: tuple(sorted(e.src for e in g.in_edges(n.id)
                                  if g.node(e.src).kind is NodeKind.OPERATION))
               for n in entries}
    return MemoryTable(entries=entries, readers=readers, writers=writers)


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
    """Complete data-to-(bank, address) assignment."""

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

    def placement_of(self, data: int) -> Placement:
        return self._by_data[data]

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
    if table.entries and not spec.banks:
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
        for p in placements:
            taken[p.bank].add(p.address)
        for i, data in enumerate(missing):
            bank = spec.banks[i % len(spec.banks)]
            addr = 0
            while addr in taken[bank.id]:
                addr += 1
            taken[bank.id].add(addr)
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
    value = entry.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise MappingError(f"{key!r} must be an integer, got {value!r}") \
            from None


def parse_memory_mapping(text: str, g: SFG) -> MappingSpec:
    """Parse a placement document.

    Schema::

        {"mode": "auto",
         "banks": [{"id": "bank0", "ports": 1, "t_seq": 1, "t_rand": 2}],
         "placements": [{"data": "var2", "bank": "bank0", "address": 0}]}

    ``placements`` entries name memdata nodes by label (or id).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MappingError(f"placement document is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise MappingError("placement document must be a JSON object")
    mode = doc.get("mode", "auto")
    banks = []
    for b in _entries(doc, "banks"):
        if "id" not in b:
            raise MappingError("bank entry without id")
        banks.append(Bank(id=str(b["id"]), ports=_int(b, "ports", 1),
                          t_seq=_int(b, "t_seq", 1),
                          t_rand=_int(b, "t_rand", _int(b, "t_seq", 1))))
    placements = []
    for p in _entries(doc, "placements"):
        for key in ("data", "bank", "address"):
            if key not in p:
                raise MappingError(f"placement entry without {key!r}")
        ref = p["data"]
        if isinstance(ref, int):
            if not g.has_node(ref):
                raise MappingError(f"placement references unknown node {ref}")
            node = g.node(ref)
        else:
            try:
                node = g.node_by_label(str(ref))
            except KeyError as e:
                raise MappingError(f"placement references unknown data "
                                   f"{ref!r}") from e
        if node.kind is not NodeKind.MEMDATA:
            raise MappingError(f"placement target {ref!r} is not a memdata node")
        placements.append(Placement(data=node.id, bank=str(p["bank"]),
                                    address=_int(p, "address", 0)))
    return MappingSpec(mode=str(mode), banks=tuple(banks),
                       placements=tuple(placements))


@dataclass
class _BankState:
    n_slots: int              # t_seq-sized slots in one iteration
    slots: dict[int, int]     # reservations per slot, for slots holding any
    last_address: int | None  # address of the most recent reservation


@dataclass(frozen=True)
class Reservation:
    bank: str
    address: int
    cycle: int
    cost: int
    cost_class: str  # "burst" | "random"
    seq: int


class PortAccessTable:
    """Mutable port reservation state for one scheduling run.

    Cost depends on reservation order (the bank's last reserved address),
    so fitting uses scratch copies of that state and committing advances
    it together with the global sequence counter.

    ``hold_view`` pins what ``probe`` sees: until the next call, probes
    read the table as it stood then, although reservations go on.  The
    scheduler holds a view at the start of each cycle, so every operation
    is ranked against the same cycle-start state.
    """

    def __init__(self, mapping: MemoryMapping, cadence: int):
        if cadence < 1:
            raise MappingError("cadence must be >= 1")
        self.mapping = mapping
        self.cadence = cadence
        self._state: dict[str, _BankState] = {}
        # bank id -> (ports, t_seq, t_rand, state)
        self._params: dict[str, tuple[int, int, int, _BankState]] = {}
        for b in mapping.banks:
            state = _BankState(n_slots=cadence // b.t_seq, slots={},
                               last_address=None)
            self._state[b.id] = state
            self._params[b.id] = (b.ports, b.t_seq, b.t_rand, state)
        self._seq = 0
        # Held view: each touched bank's last address when the view was
        # taken, and minus the reservations made since, per (bank, slot).
        self._holding = False
        self._view_last: dict[str, int | None] = {}
        self._view_add: dict[tuple[str, int], int] = {}

    @property
    def next_seq(self) -> int:
        return self._seq + 1

    def slot_count(self, bank_id: str) -> int:
        return self._state[bank_id].n_slots

    def hold_view(self) -> dict[str, int | None]:
        """Make ``probe`` see the table as it stands now until the next
        call, while reservations still go to the live table.  Returns each
        bank's last reserved address in that view."""
        self._holding = True
        self._view_last = {}
        self._view_add = {}
        return {bank_id: state.last_address
                for bank_id, state in self._state.items()}

    def fit(self, requests: list[tuple[str, int, int]], view: bool = False
            ) -> list[tuple[int, str, range]]:
        """(cost, class, slot span) of each (bank, address, cycle) request,
        reserved in order after each other, without changing any state.

        Reads the live table, or the held view with ``view``.  Raises
        PortConflict, or HorizonError past the table end, for the first
        request that cannot be served.  Scratch state exists only for the
        banks the requests touch; a view starts it from the differences
        to the live table.
        """
        scratch_last = dict(self._view_last) if view else {}
        scratch_add = dict(self._view_add) if view else {}
        out = []
        for bank_id, address, cycle in requests:
            ports, t_seq, t_rand, state = self._params[bank_id]
            last = scratch_last[bank_id] if bank_id in scratch_last \
                else state.last_address
            if last is None or address == last + 1:
                cost, cls = t_seq, "burst"
            else:
                cost, cls = t_rand, "random"
            slots = state.slots
            final = (cycle + cost - 1) // t_seq
            if final >= state.n_slots or cycle < 0:
                raise HorizonError(bank_id, cycle)
            span = range(cycle // t_seq, final + 1)
            for s in span:
                key = (bank_id, s)
                taken = scratch_add.get(key, 0)
                if slots.get(s, 0) + taken >= ports:
                    raise PortConflict(bank_id, cycle)
                scratch_add[key] = taken + 1
            scratch_last[bank_id] = address
            out.append((cost, cls, span))
        return out

    def probe(self, requests: list[tuple[str, int, int]]) -> list[tuple[int, str]] | None:
        """Check whether (bank, address, cycle) requests all fit, in order,
        against the held view (the live table when none is held).

        Returns their (cost, class) list without changing any state, or
        None on a port conflict.  Raises HorizonError past the table end.
        """
        try:
            fits = self.fit(requests, view=True)
        except PortConflict:
            return None
        return [(cost, cls) for cost, cls, _ in fits]

    def commit(self, requests: list[tuple[str, int, int]],
               fits: list[tuple[int, str, range]]) -> list[Reservation]:
        """Reserve requests as ``fit`` placed them on the live table, which
        must not have changed in between; returns the reservations with
        their sequence numbers."""
        out = []
        for (bank_id, address, cycle), (cost, cls, span) in zip(requests, fits):
            state = self._state[bank_id]
            if self._holding:
                self._view_last.setdefault(bank_id, state.last_address)
                for s in span:
                    key = (bank_id, s)
                    self._view_add[key] = self._view_add.get(key, 0) - 1
            slots = state.slots
            for s in span:
                slots[s] = slots.get(s, 0) + 1
            state.last_address = address
            self._seq += 1
            out.append(Reservation(bank=bank_id, address=address, cycle=cycle,
                                   cost=cost, cost_class=cls, seq=self._seq))
        return out
