"""The contract of the per-element records: immutable, hashable, copied
with ``_replace`` and built by keyword as well as by position."""

import pytest

import sfgsched as s

RECORDS = [
    (s.SfgNode, dict(id=3, kind=s.NodeKind.OPERATION, op="+", label="o3"),
     "label", "renamed"),
    (s.CgNode, dict(id=7, kind=s.CgKind.READ, latency=1, label="rd:d",
                    data=2, agent=3), "agent", 4),
    (s.ScheduledOp, dict(node=3, label="o3", op_class="add",
                         instance="add0", start=2, latency=1), "start", 5),
    (s.ScheduledAccess, dict(node=7, op=3, kind="read", data=2,
                             data_label="d", bank="b0", address=0, cycle=2,
                             cost=1, cost_class="burst", seq=1), "seq", 2),
    (s.ScheduledTransfer, dict(node=0, bus="in0", cycle=0, direction="in"),
     "synthesized", True),
]


@pytest.mark.parametrize("cls,fields,name,value", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, name, value):
    rec = cls(**fields)
    for key, given in fields.items():  # keyword construction
        assert getattr(rec, key) == given
    assert rec == cls(*rec)  # positional construction, field order
    with pytest.raises(AttributeError):
        setattr(rec, name, value)
    # equal records hash equal: SFG equality compares sets of nodes
    twin = cls(**fields)
    assert twin == rec and hash(twin) == hash(rec)
    assert len({rec, twin}) == 1
    changed = rec._replace(**{name: value})
    assert getattr(changed, name) == value and getattr(rec, name) != value
    assert changed._replace(**{name: getattr(rec, name)}) == rec
    assert type(changed) is cls

