"""Differential test of the schedule writer.

``reference_to_json`` is ``Schedule.to_json`` as it was before the record
tables were written straight from the records: it builds one dict per
record and writes the whole document with ``jsontext.dumps``.  Both must
give the same bytes, on scheduler output and on hand-built schedules
whose strings need every kind of escape.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import sfgsched as s
import experiments
from sfgsched.jsontext import ACCESSES, OPS, TRANSFERS, dumps, table
from sfgsched.scheduling import (ScheduledAccess, ScheduledOp,
                                 ScheduledTransfer)
from instances import random_fft_problem, random_problem


def reference_to_json(sched):
    doc = {
        "latency": sched.achieved_latency,
        "latency_bound": sched.latency_bound,
        "cadence": sched.cadence,
        "pool": {cls: list(names)
                 for cls, names in sorted(sched.pool.items())},
        "allocation_events": [
            {"cycle": e.cycle, "class": e.op_class, "instance": e.instance}
            for e in sched.allocation_events],
        "ops": [
            {"node": o.node, "label": o.label, "class": o.op_class,
             "instance": o.instance, "start": o.start,
             "latency": o.latency}
            for o in sorted(sched.ops, key=lambda o: (o.start, o.node))],
        "accesses": [
            {"cycle": a.cycle, "node": a.node, "op": a.op, "kind": a.kind,
             "data": a.data, "data_label": a.data_label, "bank": a.bank,
             "address": a.address, "cost": a.cost,
             "cost_class": a.cost_class, "seq": a.seq}
            for a in sorted(sched.accesses, key=lambda a: (a.cycle, a.node))],
        "transfers": [
            {"cycle": t.cycle, "node": t.node, "bus": t.bus,
             "direction": t.direction, "synthesized": t.synthesized}
            for t in sorted(sched.transfers,
                            key=lambda t: (t.cycle, t.direction, t.node))],
    }
    return dumps(doc) + "\n"


def _same_bytes(sched):
    assert sched.to_json() == reference_to_json(sched)


def test_random_schedules():
    written = 0
    for problems, n in ((random_problem, 120), (random_fft_problem, 60)):
        for seed in range(n):
            try:
                sched = problems(seed).run_scheduler()
            except s.ScheduleFailure:
                continue
            _same_bytes(sched)
            written += 1
    assert written > 50  # 100 of the 180 schedule


def test_goldens_and_the_paced_128_point_fft(pairsum_graph, pairsum_lib,
                                             io_lat3, io_lat2, map_onebank,
                                             map_twobank):
    for spec, mapping in ((io_lat3, map_onebank), (io_lat2, map_twobank)):
        _same_bytes(s.schedule(pairsum_graph, pairsum_lib, spec, mapping))
    sched, _ = experiments.scale_config(128).run()
    assert sched.accesses and sched.transfers
    _same_bytes(sched)


AWKWARD = ['"', "\\", "\x00\x1f\n\t", "\ud800", "\udfff x", "é ü 漢 🎛",
           "%d %s %%", "},\n    {", ""]


def _hand_built(labels, synthesized, events):
    ops = tuple(ScheduledOp(k, label, label, label + "0", k % 3, 1 + k % 2)
                for k, label in enumerate(labels))
    accesses = tuple(ScheduledAccess(100 + k, k, ("read", "write")[k % 2],
                                     200 + k, label, label, k, k % 4, 1 + k,
                                     ("burst", "random")[k % 2], k + 1)
                     for k, label in enumerate(labels))
    transfers = tuple(ScheduledTransfer(300 + k, label, k % 2,
                                        ("in", "out")[k % 2], synthesized)
                      for k, label in enumerate(labels))
    return s.Schedule(ops=ops, accesses=accesses, transfers=transfers,
                      pool={label: (label + "0",) for label in labels},
                      allocation_events=events, achieved_latency=7,
                      latency_bound=9, cadence=9)


def test_hand_built_schedules():
    events = (s.AllocationEvent(2, '"', '"1'),
              s.AllocationEvent(5, "\ud800", "é1"))
    for labels in ([], AWKWARD):
        for synthesized in (True, False):
            for evs in ((), events):
                _same_bytes(_hand_built(labels, synthesized, evs))
    empty = _hand_built([], False, ())
    assert '"ops": [],' in empty.to_json()


TEXT = st.text(st.characters(blacklist_categories=()), max_size=6)
ROW = st.tuples(st.integers(), TEXT, st.booleans(), st.integers(), TEXT)
# the keys in a drawn column order; "%d" checks that keys are not formats
COLUMNS = st.permutations(range(5)).map(lambda order: tuple(
    (key, position, "dsbds"[position])
    for key, position in zip(["%d", "i", "s", "b", "t"], order)))


@settings(max_examples=200, deadline=None)
@given(st.lists(ROW, max_size=5), COLUMNS, st.integers(0, 3))
def test_table_is_json_dumps_of_the_rows_as_dicts(rows, columns, depth):
    dicts = [{key: row[position] for key, position, _ in columns}
             for row in rows]
    assert table(rows, columns, depth) == json.dumps(
        dicts, indent=2).replace("\n", "\n" + "  " * depth)


def test_table_columns_name_every_record_field():
    for columns, record in ((OPS, ScheduledOp), (ACCESSES, ScheduledAccess),
                            (TRANSFERS, ScheduledTransfer)):
        assert sorted(position for _, position, _ in columns) == \
            list(range(len(record._fields)))
