"""Bit-parallel Damerau-Levenshtein kernel (unit costs, adjacent transposition).

The DP is d[i][j], the restricted (optimal string alignment) distance
between a[:i] and b[:j]. The kernel never stores d. It scans b one column at
a time and keeps each column as delta bits packed into Python ints, where bit
i-1 stands for row i:

- ``d0[j]`` bit i-1 is set iff d[i][j] == d[i-1][j-1]. Diagonal deltas are
  0 or 1, so a clear bit means d[i][j] == d[i-1][j-1] + 1.
- ``vp[j]`` bit i-1 is set iff d[i][j] == d[i-1][j] + 1. Vertical deltas are
  -1, 0 or +1.

Column 0 is d[i][0] = i: all ``vp`` bits set and no ``d0`` bits. The whole
matrix follows from ``d0`` and the borders d[0][j] = j, d[i][0] = i.

The column update is Myers' bit-vector algorithm (Myers 1999, "A fast
bit-vector algorithm for approximate string matching based on dynamic
programming") in its global-distance form, with a +1 horizontal delta
shifted in at row 0, and with Hyyrö's transposition term (Hyyrö 2003, "A
bit-vector algorithm for computing Levenshtein and Damerau edit distances").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeltaColumns:
    """Delta bits of d, one ``d0`` and one ``vp`` int per column 0..len(b)."""

    d0: list[int]
    vp: list[int]
    rows: int
    distance: int

    @property
    def nbytes(self) -> int:
        """Bytes of the packed bit columns (like ``ndarray.nbytes``, without
        the int objects' headers)."""
        return 2 * len(self.d0) * ((self.rows + 7) // 8)


def active_backend() -> str:
    return "bitparallel"


def dl_matrix(a: memoryview, b: memoryview) -> DeltaColumns:
    """Delta columns of the DP turning code points ``a`` into ``b``, each a
    one-dimensional sequence with ``.shape`` and ``.tolist()`` (see
    ``alignment._encode``)."""
    n = a.shape[0]
    mask = (1 << n) - 1
    peq: dict[int, int] = {}
    for i, ch in enumerate(a.tolist()):
        peq[ch] = peq.get(ch, 0) | 1 << i
    d0, vp, vn, eq_prev = 0, mask, 0, 0
    d0s, vps = [0], [mask]
    # Every value stays in [0, 2**(n+1)): ``~x & mask`` is written ``mask ^ x``
    # and ``~d0 & eq`` is ``eq ^ eq & d0``, the same bits without the slower
    # path CPython takes for bitwise operations on negative ints.
    for ch in b.tolist():
        eq = peq.get(ch, 0)
        tr = (eq ^ eq & d0) << 1 & eq_prev
        d0 = ((eq & vp) + vp ^ vp | eq | vn | tr) & mask
        # Horizontal +1/-1 deltas, moved down one row; row 0 gets +1 (d[0][j] = j).
        hp = (vn | mask ^ (d0 | vp)) << 1 & mask | 1
        hn = (d0 & vp) << 1
        vp = (hn | mask ^ (d0 | hp)) & mask
        vn = hp & d0
        d0s.append(d0)
        vps.append(vp)
        eq_prev = eq
    # d[n][m] = d[0][m] plus the vertical deltas of the last column.
    return DeltaColumns(d0s, vps, n, b.shape[0] + vp.bit_count() - vn.bit_count())
