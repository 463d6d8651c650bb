"""Differential test of the scheduler's shape walk.

``reference_walk`` is the per-member walk the shape walk replaced: it
probes every eligible member of a (mobility, alap) group by its exact
request tuple, flags each for the burst lookahead and sorts the group by
the full rank key.  Both walks run inside ``schedule()``; every cycle's
yield sequence, whether each yielded op started, and the schedule bytes
(or the abort message) must agree.
"""

import json

import sfgsched as s
from sfgsched import scheduling
from instances import random_fft_problem

K = s.NodeKind


def reference_walk(state, ready, t, cost, zero_left, free, last):
    probed = {}

    def exact_cost(op_id):
        reqs = state.requests[op_id]
        if reqs not in probed:
            probed[reqs] = state.probe_access_cost(op_id, t)
        return probed[reqs]

    op_class = state.op_class
    read_keys = state.read_keys
    readers = ready.readers
    left = dict(ready.per_class)

    def enables_flag(op_id):
        for bank, address in read_keys[op_id]:
            for other in readers.get((bank, address + 1), ()):
                if other != op_id and exact_cost(other) is not None:
                    return 0
        return 1

    for key in ready.keys:
        if not zero_left and not any(n and free.get(cls)
                                     for cls, n in left.items()):
            return
        group = [op_id for bucket in ready.groups[key].values()
                 for op_id in bucket.members]
        zero = key[1] <= t
        if zero:
            zero_left -= len(group)
        ranked = []
        for op_id in group:
            cls = op_class[op_id]
            left[cls] -= 1
            if zero or free.get(cls):
                c = exact_cost(op_id)
                if c is not None:
                    ranked.append((c, enables_flag(op_id), op_id))
        ranked.sort()
        for _, _, op_id in ranked:
            cls = op_class[op_id]
            if not zero and not free.get(cls):
                continue
            yield op_id
            if op_id in state.started and free.get(cls):
                free[cls] -= 1


def _recorded(walk, log):
    """Wrap a walk to log, per ranked cycle, [op, started] for each yield."""
    def recorded(state, ready, t, *args):
        cycle = (t, [])
        log.append(cycle)
        for op_id in walk(state, ready, t, *args):
            entry = [op_id, None]
            cycle[1].append(entry)
            yield op_id
            entry[1] = op_id in state.started
    return recorded


def _outcome(monkeypatch, walk, run):
    log = []
    monkeypatch.setattr(scheduling, "_walk", _recorded(walk, log))
    try:
        text = run().to_json()
    except s.ScheduleFailure as e:
        text = f"ScheduleFailure: {e}"
    monkeypatch.undo()
    return text, log


def _same_walk(monkeypatch, run):
    """Run ``run`` under both walks; return the shape walk's outcome."""
    got = _outcome(monkeypatch, scheduling._walk, run)
    assert got == _outcome(monkeypatch, reference_walk, run)
    return got


def test_shape_walk_matches_reference_on_random_ffts(monkeypatch):
    seen = {"zero-margin yields": 0, "delayed yields": 0,
            "fixed pools of 2-3": 0, "aborts": 0}
    for seed in range(120):
        p = random_fft_problem(seed)
        text, log = _same_walk(monkeypatch, p.run_scheduler)
        alap = {}
        if not text.startswith("ScheduleFailure"):
            alap = s.lower(p.g, p.lib, p.spec).windows.alap
        else:
            seen["aborts"] += 1
        seen["zero-margin yields"] += sum(
            1 for t, seq in log for op_id, _ in seq if alap.get(op_id) == t)
        seen["delayed yields"] += sum(
            1 for _, seq in log for _, started in seq if started is False)
        seen["fixed pools of 2-3"] += p.allocation.mode == "fixed" and any(
            n in (2, 3) for _, n in p.allocation.counts)
    assert all(seen.values()), seen


def _problem(names, kinds, ops, edges, banks, placements, bound, alloc):
    """A hand-built problem: node i is ``names[i]`` of kind ``kinds[i]``;
    ``ops`` maps operation names to symbols; placements are (data name,
    bank, address)."""
    ids = {name: i for i, name in enumerate(names)}
    nodes = [s.SfgNode(i, kind, op=ops.get(name), label=name)
             for i, (name, kind) in enumerate(zip(names, kinds))]
    g = s.SFG(nodes, [(ids[a], ids[b], pos) for a, b, pos in edges])
    lib = s.OperatorLibrary(classes=(
        s.OperatorClass("mult", frozenset("*"), 1),
        s.OperatorClass("add", frozenset("+"), 3)))
    spec = s.IoConstraintSpec.unconstrained(latency_bound=bound)
    mapping = s.apply_mapping(s.extract_memory_table(g), s.MappingSpec(
        mode="strict", banks=banks,
        placements=tuple(s.Placement(ids[d], bank, address)
                         for d, bank, address in placements)))

    def run():
        sched = s.schedule(g, lib, spec, mapping, s.parse_allocation(alloc))
        assert s.verify_schedule(sched, g, lib, spec, mapping) == []
        return sched
    return run


def _starts(text):
    return {o["label"]: o["start"] for o in json.loads(text)["ops"]}


def test_write_first_request_continuing_the_run(monkeypatch):
    # p, w2 and w1 only write d0 (address 0), d5 and d1 (address 1).  Once
    # p's write has left the bank at address 0, w1's write continues the
    # run: it bursts and goes ahead of the lower-id w2 in the same bucket.
    run = _problem(
        ["a", "b", "d0", "d1", "d5", "p", "w2", "w1", "op", "ow2", "ow1"],
        [K.INPUT] * 2 + [K.MEMDATA] * 3 + [K.OPERATION] * 3 + [K.OUTPUT] * 3,
        {"p": "*", "w2": "*", "w1": "*"},
        [("a", "p", 0), ("b", "p", 1), ("p", "d0", 0),
         ("a", "w2", 0), ("b", "w2", 1), ("w2", "d5", 0),
         ("a", "w1", 0), ("b", "w1", 1), ("w1", "d1", 0),
         ("p", "op", 0), ("w2", "ow2", 0), ("w1", "ow1", 0)],
        (s.Bank(id="m", ports=1, t_seq=1, t_rand=2),),
        [("d0", "m", 0), ("d1", "m", 1), ("d5", "m", 5)], 12,
        "fixed:mult=1")
    text, _ = _same_walk(monkeypatch, run)
    assert _starts(text) == {"p": 0, "w1": 1, "w2": 2}


def test_op_reading_an_address_and_the_next(monkeypatch):
    # r1 reads d0, d1 (addresses 0, 1) and r2 reads d5, d6: each reads x and
    # x + 1 itself, which enables no burst.  u reads d7 and waits for the
    # adder that k holds, yet r2 still starts the run u would continue, so
    # r2 outranks the lower-id r1.
    run = _problem(
        ["a", "d0", "d1", "d5", "d6", "d7", "k", "r1", "r2", "u",
         "ok", "or1", "or2", "ou"],
        [K.INPUT] + [K.MEMDATA] * 5 + [K.OPERATION] * 4 + [K.OUTPUT] * 4,
        {"k": "+", "r1": "*", "r2": "*", "u": "+"},
        [("a", "k", 0), ("a", "k", 1), ("d0", "r1", 0), ("d1", "r1", 1),
         ("d5", "r2", 0), ("d6", "r2", 1), ("a", "u", 0), ("d7", "u", 1),
         ("k", "ok", 0), ("r1", "or1", 0), ("r2", "or2", 0),
         ("u", "ou", 0)],
        (s.Bank(id="m", ports=2, t_seq=1, t_rand=2),),
        [("d0", "m", 0), ("d1", "m", 1), ("d5", "m", 5), ("d6", "m", 6),
         ("d7", "m", 7)], 12, "fixed:mult=1,add=1")
    text, _ = _same_walk(monkeypatch, run)
    starts = _starts(text)
    assert (starts["k"], starts["r2"], starts["r1"]) == (0, 0, 1)


def test_bank_without_reservation_serves_at_burst_rate(monkeypatch):
    # p reads bank m at cycle 0; at cycle 1 bank n has no reservation yet,
    # so x and y (bank n) burst like z, whose read continues m's run, and
    # the lowest id goes first.  At cycle 2 only z still bursts.
    run = _problem(
        ["a", "m0", "m1", "n3", "n8", "p", "x", "y", "z",
         "op", "ox", "oy", "oz"],
        [K.INPUT] + [K.MEMDATA] * 4 + [K.OPERATION] * 4 + [K.OUTPUT] * 4,
        {"p": "*", "x": "*", "y": "*", "z": "*"},
        [("a", "p", 0), ("m0", "p", 1), ("a", "x", 0), ("n3", "x", 1),
         ("a", "y", 0), ("n8", "y", 1), ("a", "z", 0), ("m1", "z", 1),
         ("p", "op", 0), ("x", "ox", 0), ("y", "oy", 0), ("z", "oz", 0)],
        (s.Bank(id="m", ports=1, t_seq=1, t_rand=2),
         s.Bank(id="n", ports=1, t_seq=1, t_rand=2)),
        [("m0", "m", 0), ("m1", "m", 1), ("n3", "n", 3), ("n8", "n", 8)],
        12, "fixed:mult=1")
    text, _ = _same_walk(monkeypatch, run)
    assert _starts(text) == {"p": 0, "x": 1, "z": 2, "y": 3}


def test_probe_signature_keeps_the_offset(monkeypatch):
    # q's write holds the single port in cycle 1.  There A's read (offset
    # 0) is blocked while B's write (offset 1) fits, although both are the
    # bank's first random access of the cycle and share a group (C gives A
    # the writers' latest start).
    run = _problem(
        ["a", "b", "m3", "m5", "m9", "q", "A", "B", "C", "oq", "oB", "oC"],
        [K.INPUT] * 2 + [K.MEMDATA] * 3 + [K.OPERATION] * 4 + [K.OUTPUT] * 3,
        {"q": "*", "A": "*", "B": "*", "C": "*"},
        [("a", "q", 0), ("b", "q", 1), ("q", "m9", 0),
         ("a", "A", 0), ("m3", "A", 1), ("a", "B", 0), ("b", "B", 1),
         ("B", "m5", 0), ("A", "C", 0), ("b", "C", 1), ("q", "oq", 0),
         ("B", "oB", 0), ("C", "oC", 0)],
        (s.Bank(id="m", ports=1, t_seq=1, t_rand=2),),
        [("m3", "m", 3), ("m5", "m", 5), ("m9", "m", 9)], 12,
        "fixed:mult=1")
    text, _ = _same_walk(monkeypatch, run)
    starts = _starts(text)
    assert (starts["q"], starts["B"]) == (0, 1)


def test_probe_signature_keeps_bursts_within_the_op(monkeypatch):
    # Once p has left the bank at address 3, r2 (addresses 5, 9) and r1
    # (0, 1) both open with a random read; r1's second read continues its
    # own first, so r1 is cheaper and starts before the lower-id r2.
    run = _problem(
        ["a", "m0", "m1", "m3", "m5", "m9", "p", "r2", "r1",
         "op", "or2", "or1"],
        [K.INPUT] + [K.MEMDATA] * 5 + [K.OPERATION] * 3 + [K.OUTPUT] * 3,
        {"p": "*", "r2": "*", "r1": "*"},
        [("a", "p", 0), ("m3", "p", 1), ("m5", "r2", 0), ("m9", "r2", 1),
         ("m0", "r1", 0), ("m1", "r1", 1), ("p", "op", 0),
         ("r2", "or2", 0), ("r1", "or1", 0)],
        (s.Bank(id="m", ports=2, t_seq=1, t_rand=2),),
        [("m0", "m", 0), ("m1", "m", 1), ("m3", "m", 3), ("m5", "m", 5),
         ("m9", "m", 9)], 12, "fixed:mult=1")
    text, _ = _same_walk(monkeypatch, run)
    assert _starts(text) == {"p": 0, "r1": 1, "r2": 3}
