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


def _change_first(sched: s.Schedule, table: str, **fields) -> s.Schedule:
    """Change the given fields of the first record of one table."""
    records = getattr(sched, table)
    return replace(sched, **{table: (records[0]._replace(**fields),)
                             + records[1:]})


def duplicate_operation(sched: s.Schedule) -> s.Schedule:
    return replace(sched, ops=sched.ops + sched.ops[:1])


def record_non_operation(sched: s.Schedule) -> s.Schedule:
    """Schedule the node of the first transfer, an input or output, as if
    it were an operation."""
    node = sched.transfers[0].node
    return replace(sched, ops=sched.ops + (sched.ops[0]._replace(node=node),))


def wrong_operation_latency(sched: s.Schedule) -> s.Schedule:
    return _change_first(sched, "ops", latency=sched.ops[0].latency + 1)


def early_start(sched: s.Schedule) -> s.Schedule:
    """Start the last operation, which consumes another's result, at
    cycle 0."""
    victim = max(sched.ops, key=lambda o: (o.start, o.node))
    ops = tuple(o._replace(start=0) if o is victim else o for o in sched.ops)
    return replace(sched, ops=ops)


def start_before_input(sched: s.Schedule) -> s.Schedule:
    """Start the first operation, which reads an input arriving at cycle
    0, at cycle -1."""
    return _change_first(sched, "ops", start=-1)


def duplicate_access(sched: s.Schedule) -> s.Schedule:
    return replace(sched, accesses=sched.accesses + sched.accesses[:1])


def drop_access(sched: s.Schedule) -> s.Schedule:
    """Drop the last reservation (the others keep sequence numbers 1..n)."""
    return replace(sched, accesses=sched.accesses[:-1])


def access_past_horizon(sched: s.Schedule) -> s.Schedule:
    return _change_first(sched, "accesses", cycle=sched.cadence)


def foreign_instance(sched: s.Schedule) -> s.Schedule:
    """Run the last operation on an instance of another class."""
    victim = sched.ops[-1]
    other = next(names[0] for cls, names in sorted(sched.pool.items())
                 if cls != victim.op_class)
    ops = tuple(o._replace(instance=other) if o is victim else o
                for o in sched.ops)
    return replace(sched, ops=ops)


def duplicate_transfer(sched: s.Schedule) -> s.Schedule:
    return replace(sched, transfers=sched.transfers + sched.transfers[:1])


def drop_transfer(sched: s.Schedule) -> s.Schedule:
    return replace(sched, transfers=sched.transfers[:-1])


def stray_transfer(sched: s.Schedule) -> s.Schedule:
    """Transfer the first operation's node, which is no input or output,
    on a bus of its own."""
    stray = sched.transfers[0]._replace(node=sched.ops[0].node, bus="stray")
    return replace(sched, transfers=sched.transfers + (stray,))


def stray_access(sched: s.Schedule) -> s.Schedule:
    """Reserve, after every other access, a slot for the first operation's
    node, which is no access node."""
    last = sched.accesses[-1]
    stray = last._replace(node=sched.ops[0].node, seq=last.seq + 1)
    return replace(sched, accesses=sched.accesses + (stray,))


def flip_direction(sched: s.Schedule) -> s.Schedule:
    direction = sched.transfers[0].direction
    return _change_first(sched, "transfers",
                         direction="out" if direction == "in" else "in")


def flip_synthesized(sched: s.Schedule) -> s.Schedule:
    return _change_first(sched, "transfers",
                         synthesized=not sched.transfers[0].synthesized)


def wrong_access_op(sched: s.Schedule) -> s.Schedule:
    """Credit the first access to an operation it does not belong to."""
    op = sched.accesses[0].op
    return _change_first(sched, "accesses",
                         op=next(o.node for o in sched.ops if o.node != op))


def wrong_access_kind(sched: s.Schedule) -> s.Schedule:
    kind = sched.accesses[0].kind
    return _change_first(sched, "accesses",
                         kind="write" if kind == "read" else "read")


def wrong_data_label(sched: s.Schedule) -> s.Schedule:
    return _change_first(sched, "accesses",
                         data_label=sched.accesses[0].data_label + "x")


def wrong_operation_label(sched: s.Schedule) -> s.Schedule:
    return _change_first(sched, "ops", label=sched.ops[0].label + "x")


def unknown_bank(sched: s.Schedule) -> s.Schedule:
    """Reserve the first access on a bank the mapping does not have."""
    return _change_first(sched, "accesses", bank="nobank")


def shift_write(sched: s.Schedule) -> s.Schedule:
    """Move the first write one cycle after its producer completes."""
    victim = next(a for a in sched.accesses if a.kind == "write")
    accs = tuple(a._replace(cycle=a.cycle + 1) if a is victim else a
                 for a in sched.accesses)
    return replace(sched, accesses=accs)


def reader_before_write(sched: s.Schedule) -> s.Schedule:
    """Start the operation of the last read, and its reads, one cycle
    earlier: before the value it reads is written."""
    reader = [a for a in sched.accesses if a.kind == "read"][-1].op
    ops = tuple(o._replace(start=o.start - 1) if o.node == reader else o
                for o in sched.ops)
    accs = tuple(a._replace(cycle=a.cycle - 1)
                 if a.op == reader and a.kind == "read" else a
                 for a in sched.accesses)
    return replace(sched, ops=ops, accesses=accs)


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
    ("duplicated-operation", duplicate_operation),
    ("non-operation-record", record_non_operation),
    ("wrong-operation-latency", wrong_operation_latency),
    ("early-start", early_start),
    ("start-before-input", start_before_input),
    ("duplicated-access", duplicate_access),
    ("dropped-access", drop_access),
    ("access-past-horizon", access_past_horizon),
    ("foreign-instance", foreign_instance),
    ("duplicated-transfer", duplicate_transfer),
    ("dropped-transfer", drop_transfer),
    ("stray-transfer", stray_transfer),
    ("stray-access", stray_access),
    ("flipped-direction", flip_direction),
    ("flipped-synthesized", flip_synthesized),
    ("wrong-access-op", wrong_access_op),
    ("wrong-access-kind", wrong_access_kind),
    ("wrong-data-label", wrong_data_label),
    ("wrong-operation-label", wrong_operation_label),
    ("unknown-bank", unknown_bank),
]

# Need a written value and its reader, which the pairsum goldens lack:
# check these on a schedule with a write that gates a read.
WRITE_MUTATIONS = [
    ("shifted-write", shift_write),
    ("reader-before-write", reader_before_write),
]

def synthesized_on_declared_bus(sched: s.Schedule) -> s.Schedule:
    """Move the first synthesized input transfer onto ``outC``, a bus the
    I/O constraints declare but pin nothing on."""
    victim = next(t for t in sched.transfers
                  if t.synthesized and t.direction == "in")
    return replace(sched, transfers=tuple(
        t._replace(bus="outC") if t is victim else t
        for t in sched.transfers))


# Need a declared bus that carries no pinned transfer, which the pairsum
# goldens lack: check these on a schedule with an unused declared bus.
DECLARED_BUS_MUTATIONS = [
    ("synthesized-on-declared-bus", synthesized_on_declared_bus),
]

def output_on_input_bus(sched: s.Schedule) -> s.Schedule:
    """Move the last output transfer onto the bus of the first input
    transfer, in a cycle that bus leaves free."""
    bus = next(t.bus for t in sched.transfers if t.direction == "in")
    victim = [t for t in sched.transfers if t.direction == "out"][-1]
    return replace(sched, transfers=tuple(
        t._replace(bus=bus) if t is victim else t for t in sched.transfers))


# Need every transfer synthesized, so that no pinned bus is moved: check
# these on a schedule with free I/O.
FREE_IO_MUTATIONS = [
    ("output-on-input-bus", output_on_input_bus),
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
