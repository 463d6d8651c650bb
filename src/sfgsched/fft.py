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

The graph is built as the ``SFG``'s columns (``SFG.from_columns``), with no
record per node or edge: node ids are positions, given in order, and each
butterfly appends its ten operations' kinds, symbols and labels and their
twenty operand edges a column at a time.
"""

from __future__ import annotations

from .graph import SFG, NodeKind

#: the largest size built: 16,384 points already take about 2 GiB and
#: half a minute to build, and the graph grows as n log2(n)
MAX_POINTS = 2 ** 14

# A butterfly's operations in the order they are added: their symbols and
# label suffixes, and the target of each of their operand edges, as an
# offset from the butterfly's first id, with its operand position.
_SYMBOLS = ("*", "*", "*", "*", "-", "+", "+", "+", "-", "-")
_SUFFIXES = (".m_rr", ".m_ii", ".m_ri", ".m_ir", ".tr", ".ti", ".sum_r",
             ".sum_i", ".dif_r", ".dif_i")
_TARGETS = tuple(k for k in range(10) for _ in (0, 1))
_POSITIONS = (0, 1) * 10


def _bit_reverse(i: int, bits: int) -> int:
    r = 0
    for _ in range(bits):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


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

    # inputs X{i} (id i), the zero constant (id n), then Wr{k} and Wi{k}
    kinds = [NodeKind.INPUT] * n + [NodeKind.CONSTANT] \
        + [NodeKind.MEMDATA] * (2 * n)
    labels = [f"X{i}" for i in range(n)] + ["zero"] \
        + [f"Wr{k}" for k in range(n)] + [f"Wi{k}" for k in range(n)]
    ops: list[str | None] = [None] * len(kinds)
    src: list[int] = []
    dst: list[int] = []
    pos: list[int] = []
    operations = (NodeKind.OPERATION,) * 10

    # Complex value lines threaded through the stages, bit-reversed at entry.
    lines: list[tuple[int, int]] = [
        (_bit_reverse(i, stages), n) for i in range(n)
    ]

    for s in range(stages):
        half = 1 << s
        span = half << 1
        step = n // span  # twiddle stride: W_n^(j*step)
        for base in range(0, n, span):
            for j in range(half):
                hi = base + j
                lo = base + j + half
                wr = n + 1 + j * step
                wi = wr + n
                ar, ai = lines[hi]
                br, bi = lines[lo]
                d = len(kinds)  # the id of the butterfly's first operation
                kinds += operations
                ops += _SYMBOLS
                labels += map(f"s{s}b{hi}".__add__, _SUFFIXES)
                # t = (br + i*bi) * (Wr[k] + i*Wi[k]) as m_rr, m_ii, m_ri and
                # m_ir, tr = m_rr - m_ii, ti = m_ri + m_ir; then a +- t
                src += (br, wr, bi, wi, br, wi, bi, wr, d, d + 1, d + 2,
                        d + 3, ar, d + 4, ai, d + 5, ar, d + 4, ai, d + 5)
                dst += map(d.__add__, _TARGETS)
                pos += _POSITIONS
                lines[hi] = (d + 6, d + 7)  # sum_r, sum_i
                lines[lo] = (d + 8, d + 9)  # dif_r, dif_i

    for k in range(n):
        d = len(kinds)
        kinds += (NodeKind.OUTPUT, NodeKind.OUTPUT)
        ops += (None, None)
        labels += (f"Yr{k}", f"Yi{k}")
        src += lines[k]
        dst += (d, d + 1)
        pos += (0, 0)

    return SFG.from_columns(list(range(len(kinds))), kinds, ops, labels,
                            src, dst, pos)
