"""Radix-2 decimation-in-time FFT graph generator.

Builds the signal-flow graph of an n-point FFT over real input samples.
The construction is the classic iterative DIT network: inputs enter in
bit-reversed order and flow through log2(n) butterfly stages.  Real-input
symmetry is deliberately not exploited; every butterfly is a full complex
butterfly, with the imaginary input lines fed by a shared zero constant.
That keeps the node/edge counts in closed form:

    butterflies B = (n/2) * log2(n)
    operations    = 10 * B   (4 mul, 3 add, 3 sub per butterfly)
    nodes         = n inputs + 2n outputs + 2n coefficients + 1 zero + 10B
    edges         = 20 * B + 2n

Twiddle coefficients are memory-resident data: one real table Wr[0..n-1]
and one imaginary table Wi[0..n-1] (full tables, even though only indices
0..n/2-1 are referenced), mirroring a coefficient-ROM layout of one word
per root of unity.
"""

from __future__ import annotations

from .graph import SFG, Edge, NodeKind, SfgNode

#: builds a record from a tuple of all its fields (see ``graph``)
_tuple_new = tuple.__new__

#: the largest size built: 16,384 points already take about 2 GiB and
#: half a minute to build, and the graph grows as n log2(n)
MAX_POINTS = 2 ** 14


def _bit_reverse(i: int, bits: int) -> int:
    r = 0
    for _ in range(bits):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


class _Builder:
    def __init__(self) -> None:
        self.nodes: list[SfgNode] = []
        self.edges: list[Edge] = []

    def add(self, kind: NodeKind, label: str, op: str | None = None) -> int:
        node_id = len(self.nodes)
        self.nodes.append(_tuple_new(SfgNode, (node_id, kind, op, label)))
        return node_id

    def op(self, symbol: str, label: str, lhs: int, rhs: int) -> int:
        node_id = self.add(NodeKind.OPERATION, label, op=symbol)
        self.edges.append(_tuple_new(Edge, (lhs, node_id, 0)))
        self.edges.append(_tuple_new(Edge, (rhs, node_id, 1)))
        return node_id

    def connect(self, src: int, dst: int, pos: int = 0) -> None:
        self.edges.append(_tuple_new(Edge, (src, dst, pos)))


def generate_fft_sfg(n_points: int) -> SFG:
    """Generate the SFG of an n-point radix-2 DIT FFT (n a power of two,
    from 2 to ``MAX_POINTS``).

    Inputs are labelled ``X0..X{n-1}``; outputs ``Yr{k}`` / ``Yi{k}`` carry
    the real/imaginary result parts; coefficient tables are ``Wr{k}`` and
    ``Wi{k}`` memdata nodes.
    """
    n = n_points
    if n < 2 or n & (n - 1):
        raise ValueError(f"n_points must be a power of two >= 2, got {n}")
    if n > MAX_POINTS:
        raise ValueError(f"n_points must be at most {MAX_POINTS}, got {n}")
    stages = n.bit_length() - 1

    b = _Builder()
    xs = [b.add(NodeKind.INPUT, f"X{i}") for i in range(n)]
    zero = b.add(NodeKind.CONSTANT, "zero")
    wr = [b.add(NodeKind.MEMDATA, f"Wr{k}") for k in range(n)]
    wi = [b.add(NodeKind.MEMDATA, f"Wi{k}") for k in range(n)]

    # Complex value lines threaded through the stages, bit-reversed at entry.
    lines: list[tuple[int, int]] = [
        (xs[_bit_reverse(i, stages)], zero) for i in range(n)
    ]

    for s in range(stages):
        half = 1 << s
        span = half << 1
        step = n // span  # twiddle stride: W_n^(j*step)
        for base in range(0, n, span):
            for j in range(half):
                hi = base + j
                lo = base + j + half
                k = j * step
                ar, ai = lines[hi]
                br, bi = lines[lo]
                tag = f"s{s}b{hi}"
                # t = (br + i*bi) * (Wr[k] + i*Wi[k])
                m_rr = b.op("*", f"{tag}.m_rr", br, wr[k])
                m_ii = b.op("*", f"{tag}.m_ii", bi, wi[k])
                m_ri = b.op("*", f"{tag}.m_ri", br, wi[k])
                m_ir = b.op("*", f"{tag}.m_ir", bi, wr[k])
                tr = b.op("-", f"{tag}.tr", m_rr, m_ii)
                ti = b.op("+", f"{tag}.ti", m_ri, m_ir)
                lines[hi] = (
                    b.op("+", f"{tag}.sum_r", ar, tr),
                    b.op("+", f"{tag}.sum_i", ai, ti),
                )
                lines[lo] = (
                    b.op("-", f"{tag}.dif_r", ar, tr),
                    b.op("-", f"{tag}.dif_i", ai, ti),
                )

    for k in range(n):
        re, im = lines[k]
        yr = b.add(NodeKind.OUTPUT, f"Yr{k}")
        yi = b.add(NodeKind.OUTPUT, f"Yi{k}")
        b.connect(re, yr)
        b.connect(im, yi)

    return SFG(b.nodes, b.edges)
