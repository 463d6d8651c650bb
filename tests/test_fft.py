import math
import random

import numpy as np
import pytest

import sfgsched as s

K = s.NodeKind


def _log2(n: int) -> int:
    return n.bit_length() - 1


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_structure_counts(n):
    g = s.generate_fft_sfg(n)
    assert s.validate_sfg(g) == []
    assert g.find_cycle() is None
    assert len(g.of_kind(K.INPUT)) == n
    assert len(g.of_kind(K.OUTPUT)) == 2 * n
    assert len(g.of_kind(K.MEMDATA)) == 2 * n
    # one radix-2 butterfly = 4 multiplies + 6 add/sub
    assert len(g.of_kind(K.OPERATION)) == 10 * (n // 2) * _log2(n)
    assert len(g.edges) == 2 * len(g.of_kind(K.OPERATION)) + 2 * n


@pytest.mark.parametrize("n", [4, 7, 12, 0, 1])
def test_rejects_non_power_of_two(n):
    if n == 4:
        s.generate_fft_sfg(n)  # sanity: the valid one passes
        return
    with pytest.raises(ValueError):
        s.generate_fft_sfg(n)


def _evaluate(g: s.SFG, x: list[float]) -> np.ndarray:
    """Numerically run the dataflow graph on a real input vector."""
    n = len(x)
    val: dict[int, float] = {}
    for nd in g.nodes:
        if nd.kind is K.INPUT:
            val[nd.id] = x[int(nd.label[1:])]
        elif nd.kind is K.CONSTANT:
            val[nd.id] = 0.0
        elif nd.kind is K.MEMDATA:
            k = int(nd.label[2:])
            ang = 2.0 * math.pi * k / n
            val[nd.id] = math.cos(ang) if nd.label.startswith("Wr") \
                else -math.sin(ang)
    fn = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b}
    # the generator adds every node after its operands, so id order is
    # a dependency order
    assert all(e.src < e.dst for e in g.edges)
    for nd in sorted(g.nodes, key=lambda nd: nd.id):
        nid = nd.id
        if nd.kind is K.OPERATION:
            a, b = (val[e.src] for e in g.in_edges(nid))
            val[nid] = fn[nd.op](a, b)
        elif nd.kind is K.OUTPUT:
            val[nid] = val[g.in_edges(nid)[0].src]
    out = np.zeros(n, dtype=complex)
    for nd in g.of_kind(K.OUTPUT):
        k = int(nd.label[2:])
        if nd.label.startswith("Yr"):
            out[k] += val[nd.id]
        else:
            out[k] += 1j * val[nd.id]
    return out


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_numeric_against_numpy(n):
    rng = random.Random(20 + n)
    x = [rng.uniform(-1, 1) for _ in range(n)]
    got = _evaluate(s.generate_fft_sfg(n), x)
    want = np.fft.fft(np.array(x))
    assert np.max(np.abs(got - want)) < 1e-9


def test_twiddles_cover_full_table():
    g = s.generate_fft_sfg(8)
    labels = {nd.label for nd in g.of_kind(K.MEMDATA)}
    assert labels == {f"Wr{k}" for k in range(8)} | {f"Wi{k}" for k in range(8)}


def test_generation_is_deterministic():
    a = s.serialize_sfg(s.generate_fft_sfg(16))
    b = s.serialize_sfg(s.generate_fft_sfg(16))
    assert a == b
