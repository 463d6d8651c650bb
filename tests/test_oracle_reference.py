"""Differential test of the exhaustive oracle's search state.

``reference_min_latency`` is the oracle as it was before its search
state was cut down: it carried a per-class pool of instance busy-until
cycles, a separate map of write completion cycles, and a memo key built
from sorted copies of every part.  The oracle now keeps only the starts
(with each op's write completion), each bank's last address and its slot
loads, and tests the cap by counting the running ops of a class.  Both
must give the same minimum latency, with and without an instance cap.
"""

from dataclasses import replace

import pytest

import sfgsched as s
from sfgsched.constraints import achieved_latency, produced_cycle, \
    transfer_cycles
from instances import random_problem

C = s.CgKind


def op_requests(cg, mapping):
    """Each operation's port requests, by op id: the (bank, address, cycle
    offset) of its reads at offset 0, then of its writes at its latency."""
    placement = {p.data: p for p in mapping.placements}
    requests = {}
    for o in cg.positions[C.OP]:
        requests[cg.ids[o]] = [
            (p.bank, p.address, offset)
            for accs, offset in ((cg.reads.get(o, ()), 0),
                                 (cg.writes.get(o, ()), cg.latency[o]))
            for p in (placement[cg.data[a]] for a in accs)]
    return requests


def reference_min_latency(g, lib, spec, mapping, instances=None):
    cg = s.apply_io_constraints(s.build_constraint_graph(g, lib),
                                s.build_transfer_graph(spec), spec)
    windows = s.compute_time_windows(cg)
    ops = [n.id for n in cg.of_kind(C.OP)]
    lat = {o: cg.latency[cg.at[o]] for o in ops}
    op_preds = {o: [cg.ids[p] for p in cg.pred[cg.at[o]]
                    if cg.kind[p] is C.OP] for o in ops}
    in_preds = {o: [cg.arrival[p] for p in cg.pred[cg.at[o]]
                    if cg.kind[p] is C.INPUT] for o in ops}
    read_deps = {o: [cg.ids[cg.agent[w]] for r in cg.reads.get(cg.at[o], ())
                     for w in cg.pred[r]] for o in ops}
    asap, alap = ({o: column[cg.at[o]] for o in ops}
                  for column in (windows.asap_at, windows.alap_at))
    accesses = {o: [(mapping.bank(bank), address, offset)
                    for bank, address, offset in reqs]
                for o, reqs in op_requests(cg, mapping).items()}
    outputs = cg.of_kind(C.OUTPUT)

    best = [None]
    seen = set()

    def finish(started):
        # the timing helpers read starts and give cycles by node position
        at = {cg.at[o]: start for o, start in started.items()}
        cycles = transfer_cycles(cg, at)
        for o in outputs:
            if not produced_cycle(cg, cg.at[o.id], at, cycles) <= \
                    cycles[cg.at[o.id]] <= o.deadline:
                return
        achieved = achieved_latency(cg, cycles, max(
            (started[o] + lat[o] for o in ops), default=None))
        if best[0] is None or achieved < best[0]:
            best[0] = achieved

    def dfs(t, started, write_done, last, slots, busy):
        todo = [o for o in ops if o not in started]
        if not todo:
            finish(started)
            return
        if t > max(alap[o] for o in todo):
            return
        key = (t, tuple(sorted(started.items())),
               tuple(sorted(write_done.items())), last, slots, busy)
        if key in seen:
            return
        seen.add(key)

        busy_d = {c: list(v) for c, v in busy}

        for o in sorted(todo):
            if not (asap[o] <= t <= alap[o]):
                continue
            if any(p not in started or started[p] + lat[p] > t
                   for p in op_preds[o]):
                continue
            if any(a > t for a in in_preds[o]):
                continue
            if any(w not in started or write_done.get(w, 10 ** 9) > t
                   for w in read_deps[o]):
                continue
            cls = cg.op_class[cg.at[o]]
            pool = busy_d.get(cls, [])
            free_idx = next((i for i, f in enumerate(pool) if f <= t), None)
            if instances is not None and free_idx is None:
                if len(pool) >= instances.get(cls, 0):
                    continue
            nl = dict(last)
            ns = {b: dict(v) for b, v in slots}
            ok = True
            wd = None
            for bank, addr, delay in accesses[o]:
                cost, _ = bank.cost(nl[bank.id], addr)
                cyc = t + delay
                span = bank.span(cyc, cost, spec.cadence)
                if span is None:
                    ok = False
                    break
                used = ns[bank.id]
                if any(used.get(s, 0) >= bank.ports for s in span):
                    ok = False
                    break
                for s in span:
                    used[s] = used.get(s, 0) + 1
                nl[bank.id] = addr
                if delay > 0:
                    wd = max(wd or 0, cyc + cost)
            if not ok:
                continue
            nb = {c: list(v) for c, v in busy_d.items()}
            pool2 = nb.setdefault(cls, [])
            if free_idx is not None and pool2[free_idx] <= t:
                pool2[free_idx] = t + lat[o]
            else:
                pool2.append(t + lat[o])
            nstarted = dict(started)
            nstarted[o] = t
            nwd = dict(write_done)
            if wd is not None:
                nwd[o] = wd
            dfs(t, nstarted, nwd,
                tuple(sorted(nl.items())),
                tuple((b, tuple(sorted(v.items())))
                      for b, v in sorted(ns.items())),
                tuple((c, tuple(sorted(v))) for c, v in sorted(nb.items())))
        dfs(t + 1, started, write_done, last, slots, busy)

    dfs(0, {}, {},
        tuple(sorted((b.id, None) for b in mapping.banks)),
        tuple((b.id, ()) for b in sorted(mapping.banks, key=lambda b: b.id)),
        ())
    return best[0]


def _caps(p):
    """The problem's own caps, or one instance per class it uses."""
    if p.instance_caps is not None:
        return p.instance_caps
    return {p.lib.select(n.op).name: 1 for n in p.g.operations}


@pytest.mark.parametrize("chunk", range(4))
def test_oracle_matches_reference_on_random_problems(chunk):
    for seed in range(30 * chunk, 30 * chunk + 30):
        p = random_problem(seed)
        for caps in (None, _caps(p)):
            args = (p.g, p.lib, p.spec, p.mapping)
            assert s.brute_force_min_latency(*args, instances=caps) == \
                reference_min_latency(*args, instances=caps), (seed, caps)


def test_oracle_matches_reference_on_pairsum(pairsum_graph, pairsum_lib,
                                            io_lat3, io_lat2, map_onebank,
                                            map_twobank):
    cases = [(io_lat3, map_onebank), (io_lat2, map_onebank),
             (io_lat2, map_twobank),
             (s.IoConstraintSpec.unconstrained(latency_bound=3, cadence=1),
              map_onebank),
             (s.IoConstraintSpec.unconstrained(latency_bound=5), map_twobank),
             (replace(io_lat2, cadence=2_000_000), map_twobank)]
    answers = set()
    for spec, mapping in cases:
        for caps in (None, {"mult": 1, "add": 1}, {"mult": 2, "add": 1}):
            args = (pairsum_graph, pairsum_lib, spec, mapping)
            got = s.brute_force_min_latency(*args, instances=caps)
            assert got == reference_min_latency(*args, instances=caps), \
                (spec, mapping, caps)
            answers.add(got)
    assert None in answers and len(answers) >= 3  # infeasible and varied
