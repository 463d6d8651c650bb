"""The numbering of nodes by position does not leak into the output.

Each problem is written as its four documents and run through
``cli.main`` twice: once as generated, and once with the graph's node ids
relabelled by a random, strictly increasing map (gaps of up to 2**33,
starting anywhere below 2**40) and its nodes and edges shuffled in the
document.  The I/O and memory documents name nodes by label, so they stay
the same.  The exit codes must be equal, and once ids are mapped back so
must the ops (node, start, instance), the accesses (op, kind, bank,
address, cycle, cost, seq), the transfers, the pool and the latency.
"""

import json
import random

import experiments
from instances import random_fft_problem, random_problem
from sfgsched import cli


def _relabel(graph: str, rng: random.Random) -> tuple[str, dict[int, int]]:
    """The graph document with new ids and shuffled records, and the map
    from each new id back to its old one."""
    doc = json.loads(graph)
    new, next_id = {}, rng.randrange(2 ** 40)
    for old in sorted(n["id"] for n in doc["nodes"]):
        new[old] = next_id
        next_id += rng.randint(1, 2 ** 33)
    for n in doc["nodes"]:
        n["id"] = new[n["id"]]
    for e in doc["edges"]:
        e["from"], e["to"] = new[e["from"]], new[e["to"]]
    rng.shuffle(doc["nodes"])
    rng.shuffle(doc["edges"])
    return json.dumps(doc), {v: k for k, v in new.items()}


def _outcome(argv: list[str], back: dict[int, int]):
    """Exit code and, on success, the schedule's facts with ids mapped back
    by ``back``."""
    code = cli.main(argv)
    if code:
        return code, None
    out = argv[argv.index("--out") + 1]
    with open(f"{out}/schedule.json") as f:
        doc = json.load(f)
    return code, (
        sorted((back[o["node"]], o["start"], o["instance"])
               for o in doc["ops"]),
        sorted((back[a["op"]], a["kind"], a["bank"], a["address"],
                a["cycle"], a["cost"], a["seq"]) for a in doc["accesses"]),
        sorted((back[t["node"]], t["bus"], t["cycle"], t["direction"],
                t["synthesized"]) for t in doc["transfers"]),
        doc["pool"], doc["latency"])


def _same_outcome(config: experiments.Config, tmp_path, seed: int) -> int:
    plain = tmp_path / config.name / "plain"
    plain.mkdir(parents=True)
    argv = config.report_argv(plain)
    graph, back = _relabel((plain / "graph.json").read_text(),
                           random.Random(seed))
    relabelled = plain.parent / "relabelled"
    relabelled.mkdir()
    (relabelled / "graph.json").write_text(graph)
    moved = list(argv)
    moved[argv.index("--graph") + 1] = str(relabelled / "graph.json")
    moved[argv.index("--out") + 1] = str(relabelled / "out")
    want = _outcome(argv, {i: i for i in back.values()})
    assert _outcome(moved, back) == want, config.name
    return want[0]


def test_relabelled_ids_give_the_same_schedule(tmp_path, capsys):
    configs = [experiments.Config(f"k{seed}", p.g, p.lib, p.spec, p.mapping,
                                  p.allocation)
               for seed, p in ((k, random_problem(k)) for k in range(100))]
    configs += [experiments.Config(f"fft{seed}", p.g, p.lib, p.spec,
                                   p.mapping, p.allocation)
                for seed, p in ((k, random_fft_problem(k)) for k in range(4))]
    configs.append(experiments.scale_config(16))
    codes = [_same_outcome(c, tmp_path, seed)
             for seed, c in enumerate(configs)]
    assert codes.count(0) >= 60 and set(codes) > {0}  # both outcomes seen
