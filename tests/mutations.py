"""Schedule corruptions used to prove the verifier rejects bad schedules.

Each mutation takes a clean Schedule and returns a slightly broken copy;
the verifier must flag every one of them with at least one violation.
"""

from dataclasses import replace

import sfgsched as s


def late_start(sched: s.Schedule) -> s.Schedule:
    victim = max(sched.ops, key=lambda o: (o.start, o.node))
    ops = tuple(o._replace(start=o.start + 1) if o is victim else o
                for o in sched.ops)
    return replace(sched, ops=ops)


def overlap_instances(sched: s.Schedule) -> s.Schedule:
    mults = [o for o in sched.ops if o.op_class == sched.ops[0].op_class]
    a, b = mults[0], mults[1]
    ops = tuple(o._replace(instance=a.instance, start=a.start) if o is b
                else o for o in sched.ops)
    return replace(sched, ops=ops)


def corrupt_access_cost(sched: s.Schedule) -> s.Schedule:
    victim = sched.accesses[0]
    mutated = victim._replace(cost=victim.cost + 1, cost_class="random")
    return replace(sched, accesses=(mutated,) + sched.accesses[1:])


def drop_operation(sched: s.Schedule) -> s.Schedule:
    return replace(sched, ops=sched.ops[:-1])


def shift_output_transfer(sched: s.Schedule) -> s.Schedule:
    xfers = []
    done = False
    for t in sched.transfers:
        if not done and t.direction == "out":
            xfers.append(t._replace(cycle=t.cycle - 1))
            done = True
        else:
            xfers.append(t)
    return replace(sched, transfers=tuple(xfers))


def late_output_transfer(sched: s.Schedule) -> s.Schedule:
    """Move the last output transfer to the first cycle past the latency
    bound, counted from the first input transfer, and claim the span that
    makes: a latency above the bound."""
    first = min((t.cycle for t in sched.transfers if t.direction == "in"),
                default=0)
    victim = max((t for t in sched.transfers if t.direction == "out"),
                 key=lambda t: t.cycle)
    xfers = tuple(t._replace(cycle=first + sched.latency_bound)
                  if t is victim else t for t in sched.transfers)
    return replace(sched, transfers=xfers,
                   achieved_latency=sched.latency_bound + 1)


def shift_access_cycle(sched: s.Schedule) -> s.Schedule:
    victim = sched.accesses[0]
    mutated = victim._replace(cycle=victim.cycle + 1)
    return replace(sched, accesses=(mutated,) + sched.accesses[1:])


def collapse_sequence_numbers(sched: s.Schedule) -> s.Schedule:
    accs = tuple(a._replace(seq=1) for a in sched.accesses)
    return replace(sched, accesses=accs)


def share_bus_cycle(sched: s.Schedule) -> s.Schedule:
    """Move a transfer onto the bus of another transfer in its cycle."""
    first = {}
    for t in sched.transfers:
        other = first.setdefault((t.cycle, t.direction), t)
        if other is not t:
            xfers = tuple(x._replace(bus=other.bus) if x is t else x
                          for x in sched.transfers)
            return replace(sched, transfers=xfers)
    raise ValueError("no two transfers share a cycle and direction")


def shrink_pool(sched: s.Schedule) -> s.Schedule:
    """Drop from the pool the instance the last operation runs on."""
    victim = sched.ops[-1]
    pool = dict(sched.pool)
    pool[victim.op_class] = tuple(i for i in pool[victim.op_class]
                                  if i != victim.instance)
    return replace(sched, pool=pool)


def pool_above_cap(sched: s.Schedule) -> s.Schedule:
    """Add to the first operation's pool an instance that nothing runs on:
    a pool one above the count a fixed allocation of the clean pool
    allows."""
    cls = sched.ops[0].op_class
    pool = dict(sched.pool)
    pool[cls] += (f"{cls}{len(pool[cls])}",)
    return replace(sched, pool=pool)


def wrong_cadence(sched: s.Schedule) -> s.Schedule:
    """Record a cadence the I/O constraints do not give: a wider port
    horizon must not hide an access past the real one."""
    return replace(sched, cadence=sched.cadence + 100)


def wrong_latency_bound(sched: s.Schedule) -> s.Schedule:
    return replace(sched, latency_bound=sched.latency_bound + 100)


MUTATIONS = [
    ("late-start", late_start),
    ("overlapping-instances", overlap_instances),
    ("corrupted-access-cost", corrupt_access_cost),
    ("dropped-operation", drop_operation),
    ("early-output-transfer", shift_output_transfer),
    ("latency-over-bound", late_output_transfer),
    ("shifted-access-cycle", shift_access_cycle),
    ("collapsed-sequence-numbers", collapse_sequence_numbers),
    ("shared-bus-cycle", share_bus_cycle),
    ("instance-outside-pool", shrink_pool),
    ("wrong-cadence", wrong_cadence),
    ("wrong-latency-bound", wrong_latency_bound),
]

# Breaks only a fixed allocation's caps, which the verifier knows when it
# is given the allocation: check these under ``fixed_allocation(sched)``.
CAP_MUTATIONS = [
    ("pool-above-cap", pool_above_cap),
]


def fixed_allocation(sched: s.Schedule) -> s.Allocation:
    """The fixed allocation whose counts are the schedule's pool sizes."""
    return s.Allocation(mode="fixed",
                        counts=tuple(sorted(sched.pool_counts().items())))
