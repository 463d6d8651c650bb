"""The contract of the per-element records: immutable, hashable, copied
with ``_replace`` and built by keyword as well as by position; and every
record a ``report`` call builds holds exactly its class's fields."""

import pytest

import experiments
import sfgsched as s
from sfgsched import cli

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



def _report_records(monkeypatch, argv) -> dict[str, tuple]:
    """The records of the SFG, the Problem and the Schedule that one
    ``report`` call through the CLI builds, by where they sit."""
    seen = []
    real = cli.schedule

    def capturing(g, lib, spec, mapping, allocation, problem):
        sched = real(g, lib, spec, mapping, allocation, problem)
        seen.append((g, problem, sched))
        return sched
    monkeypatch.setattr(cli, "schedule", capturing)
    assert cli.main(argv) == 0
    (g, problem, sched), = seen
    return {"SFG.nodes": g.nodes, "SFG.edges": g.edges,
            "Problem.cg.of_kind": tuple(n for k in s.CgKind
                                        for n in problem.cg.of_kind(k)),
            "Schedule.ops": sched.ops, "Schedule.accesses": sched.accesses,
            "Schedule.transfers": sched.transfers}


def _pairsum_argv(pairsum_dir, out):
    return ["report", "--graph", str(pairsum_dir / "graph.json"),
            "--lib", str(pairsum_dir / "lib.json"),
            "--io", str(pairsum_dir / "io_lat3.json"),
            "--mem", str(pairsum_dir / "mem_onebank.json"),
            "--out", str(out)]


@pytest.mark.parametrize("problem", ["scale_config(16)", "pairsum"])
def test_records_built_with_every_field(problem, pairsum_dir, tmp_path,
                                        monkeypatch, capsys):
    """The package builds its per-element records with ``tuple.__new__``,
    which checks no arity: a record built one field short or long would
    still be a tuple of its class.  Every record of a ``report`` call has
    exactly its class's fields."""
    argv = (experiments.scale_config(16).report_argv(tmp_path)
            if problem != "pairsum" else
            _pairsum_argv(pairsum_dir, tmp_path / "out"))
    records = _report_records(monkeypatch, argv)
    for where, recs in records.items():
        assert recs, where
        for rec in recs:
            assert len(rec) == len(type(rec)._fields), (where, rec)
    kinds = {type(rec) for recs in records.values() for rec in recs}
    assert kinds == {s.SfgNode, s.Edge, s.CgNode, s.ScheduledOp,
                     s.ScheduledAccess, s.ScheduledTransfer}
