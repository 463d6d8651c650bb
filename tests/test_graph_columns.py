"""The SFG kept as columns gives the same graphs and bytes as records do.

``serialize_sfg`` writes its tables from the columns; here it must equal
``json.dumps(doc, indent=2) + "\\n"`` of the document built with one dict
per node and per edge, on drawn graphs whether valid or not.  A graph
built from plain tuples must equal the parse of its document, whatever
the document's order and ids, and the FFT generator, which fills the
columns directly, must equal a builder that makes one record per node
and edge.  The ``gen-fft`` digests pin its output bytes.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfgsched as s
from instances import random_problem
from sfgsched import cli

K = s.NodeKind

TEXT = st.text(st.sampled_from('"\\/\x00\x1f\n\t%{}é€\U0001d11e')
               | st.characters(blacklist_categories=()), max_size=6)
IDS = st.integers(0, 3) | st.integers(0, 2 ** 70)
NODE = st.tuples(IDS, st.sampled_from(list(K)),
                 st.none() | st.just("") | st.sampled_from("+-*") | TEXT,
                 st.just("") | TEXT)
EDGE = st.tuples(IDS, IDS, st.integers(-2, 3) | st.integers(0, 2 ** 70))


def reference_serialize(nodes, edges) -> str:
    """The document as one dict per node and edge: nodes by id (the first
    of a repeated id), edges by (to, pos, from), each once."""
    first = {}
    for node in nodes:
        first.setdefault(node[0], node)
    doc = {
        "nodes": [{k: v for k, v in (("id", i), ("kind", kind.value),
                                      ("op", op), ("label", label))
                   if v not in (None, "")}
                  for i, kind, op, label in map(first.get, sorted(first))],
        "edges": [{"from": src, "to": dst, "pos": pos}
                  for src, dst, pos in sorted(set(edges), key=lambda e: (
                      e[1], e[2], e[0]))],
    }
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(NODE, max_size=8), st.lists(EDGE, max_size=8),
       st.integers(0, 3), st.booleans())
def test_serialize_matches_json_dumps(nodes, edges, repeats, records):
    edges = edges + edges[:repeats]  # duplicate edges
    if records:
        nodes = [s.SfgNode(*n) for n in nodes]
        edges = [s.Edge(*e) for e in edges]
    assert s.serialize_sfg(s.SFG(nodes, edges)) == \
        reference_serialize(nodes, edges)


def test_serialize_empty_graph():
    assert s.serialize_sfg(s.SFG([], [])) == \
        '{\n  "nodes": [],\n  "edges": []\n}\n'


def _documents():
    """Valid graph documents: as written, and with sparse, huge ids and
    shuffled records."""
    rng = random.Random(7)
    graphs = [random_problem(seed).g for seed in range(40)]
    graphs += [s.generate_fft_sfg(n) for n in (2, 8)]
    for g in graphs:
        doc = json.loads(s.serialize_sfg(g))
        yield doc
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
        yield doc


@pytest.mark.parametrize("k, doc", enumerate(_documents()))
def test_graph_from_tuples_equals_the_parse(k, doc):
    nodes = [(n["id"], K(n["kind"]), n.get("op"), n.get("label", ""))
             for n in doc["nodes"]]
    edges = [(e["from"], e["to"], e.get("pos", 0)) for e in doc["edges"]]
    built, parsed = s.SFG(nodes, edges), s.parse_sfg(json.dumps(doc))
    assert built == parsed
    assert built.nodes == parsed.nodes == tuple(nodes)
    assert built.edges == parsed.edges == tuple(edges)
    assert list(built.ids) == list(parsed.ids) == sorted(n[0] for n in nodes)
    assert built._in == parsed._in and built._out == parsed._out
    for i in parsed.ids:
        want = sorted(parsed.in_edges(i), key=lambda e: e.pos)
        assert parsed.in_edges(i) == want
        assert [parsed.ids[p] for p in parsed._in[parsed._at[i]]] == \
            [e.src for e in want]
    assert s.validate_sfg(built) == [] == s.validate_sfg(parsed)
    assert s.serialize_sfg(built) == s.serialize_sfg(parsed)


# -- the generator ------------------------------------------------------------

def reference_fft(n: int) -> s.SFG:
    """The radix-2 DIT FFT graph built one record per node and edge."""
    nodes, edges = [], []

    def add(kind, label, op=None):
        nodes.append(s.SfgNode(len(nodes), kind, op, label))
        return len(nodes) - 1

    def op(symbol, label, lhs, rhs):
        node_id = add(K.OPERATION, label, symbol)
        edges.extend((s.Edge(lhs, node_id, 0), s.Edge(rhs, node_id, 1)))
        return node_id

    stages = n.bit_length() - 1
    xs = [add(K.INPUT, f"X{i}") for i in range(n)]
    zero = add(K.CONSTANT, "zero")
    wr = [add(K.MEMDATA, f"Wr{k}") for k in range(n)]
    wi = [add(K.MEMDATA, f"Wi{k}") for k in range(n)]
    lines = [(xs[int(f"{i:0{stages}b}"[::-1], 2)], zero) for i in range(n)]
    for st_ in range(stages):
        half = 1 << st_
        for base in range(0, n, 2 * half):
            for j in range(half):
                hi, lo, k = base + j, base + j + half, j * (n // (2 * half))
                (ar, ai), (br, bi) = lines[hi], lines[lo]
                tag = f"s{st_}b{hi}"
                m_rr = op("*", f"{tag}.m_rr", br, wr[k])
                m_ii = op("*", f"{tag}.m_ii", bi, wi[k])
                m_ri = op("*", f"{tag}.m_ri", br, wi[k])
                m_ir = op("*", f"{tag}.m_ir", bi, wr[k])
                tr = op("-", f"{tag}.tr", m_rr, m_ii)
                ti = op("+", f"{tag}.ti", m_ri, m_ir)
                lines[hi] = (op("+", f"{tag}.sum_r", ar, tr),
                             op("+", f"{tag}.sum_i", ai, ti))
                lines[lo] = (op("-", f"{tag}.dif_r", ar, tr),
                             op("-", f"{tag}.dif_i", ai, ti))
    for k in range(n):
        yr, yi = add(K.OUTPUT, f"Yr{k}"), add(K.OUTPUT, f"Yi{k}")
        edges.extend((s.Edge(lines[k][0], yr, 0), s.Edge(lines[k][1], yi, 0)))
    return s.SFG(nodes, edges)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
def test_generator_matches_the_record_builder(n):
    g, want = s.generate_fft_sfg(n), reference_fft(n)
    assert g.nodes == want.nodes and g.edges == want.edges
    assert list(g.ids) == list(want.ids) and g._in == want._in \
        and g._out == want._out
    assert s.serialize_sfg(g) == s.serialize_sfg(want)


# SHA-256 of ``gen-fft --points N`` as first written by the record builder
GEN_FFT_SHA256 = {
    2: "fc5bd1b8e3347d94013783343bf85f33d628f3aaaf0bf4ec94d6f2ecc2b0d03a",
    16: "5d427f44a0f1d570a298cce8495ae50edc6d6ae7c40febb311d3d92dfc1acf09",
    128: "0c11edf53942af5f164ff2f007cc11175fb27bdb75bb0591268f355a9b0156e9",
    1024: "affa1e5096eb0a73b6d2b4ec0fe88a9de46ea249ed1fda6e6c23d53cd2ef2915",
}


@pytest.mark.parametrize("n", sorted(GEN_FFT_SHA256))
def test_gen_fft_bytes(n, tmp_path, capsys):
    out = tmp_path / "fft.json"
    assert cli.main(["gen-fft", "--points", str(n), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_FFT_SHA256[n]
