"""Character alignment between two strings and span-edit extraction.

The cost model is Damerau-Levenshtein with unit costs and adjacent
transposition. Ties in the backtrace resolve by a fixed operation preference
(match > substitute > transpose > delete > insert), so scripts are canonical
and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels import dl_matrix
from .edits import Edit

MATCH = "match"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"
TRANSPOSE = "transpose"


@dataclass(frozen=True)
class AlignOp:
    kind: str
    src_pos: int
    dst_pos: int
    src_text: str
    dst_text: str


@dataclass(frozen=True)
class AlignmentScript:
    ops: tuple[AlignOp, ...]
    cost: int


def _encode(text: str) -> memoryview:
    """The code points of ``text``, one unsigned 32-bit item each (byte-swapped
    on a big-endian host, which the kernel's equality tests cannot tell); a
    lone surrogate keeps its own code point."""
    return memoryview(text.encode("utf-32-le", "surrogatepass")).cast("I")


def _backtrace(a: str, b: str) -> tuple[list[tuple[str, int, int, int, int]], int]:
    """The non-match steps of the minimum-cost script turning ``a`` into
    ``b``, in text order, and its cost.

    A step ``(kind, i, j, di, dj)`` turns ``a[i:i + di]`` into ``b[j:j + dj]``;
    every gap between steps is a run of matches. The walk runs from the last
    cell and tests, in order: match, substitute, transpose, delete, insert.
    """
    cols = dl_matrix(_encode(a), _encode(b))
    # Each bit test below is the DP equality test it stands for. Diagonal
    # deltas are 0 or 1, so equal letters always give d[i][j] == d[i-1][j-1]
    # (a match needs no bit test), and after a failed match test a clear d0
    # bit is d[i-1][j-1] + 1 == d[i][j]. A transposition is then tested with
    # d0[j] set, so its cost d[i][j] - d[i-2][j-2] == 1 means d0[j-1] clear.
    d0, vp = cols.d0, cols.vp
    steps = []
    i, j = len(a), len(b)
    while True:
        while i and j and a[i - 1] == b[j - 1]:
            i -= 1
            j -= 1
        if not (i or j):
            break
        if i and j and not d0[j] >> (i - 1) & 1:
            kind, di, dj = SUBSTITUTE, 1, 1
        elif (
            i > 1 and j > 1
            and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]
            and not d0[j - 1] >> (i - 2) & 1
        ):
            kind, di, dj = TRANSPOSE, 2, 2
        elif i and vp[j] >> (i - 1) & 1:
            kind, di, dj = DELETE, 1, 0
        else:
            kind, di, dj = INSERT, 0, 1
        i -= di
        j -= dj
        steps.append((kind, i, j, di, dj))
    steps.reverse()
    return steps, cols.distance


def align(a: str, b: str) -> AlignmentScript:
    """Minimum-cost edit script turning ``a`` into ``b``."""
    steps, cost = _backtrace(a, b)
    ops: list[AlignOp] = []
    i = j = 0
    # An empty step at the end closes the last run of matches.
    for kind, si, sj, di, dj in [*steps, (MATCH, len(a), len(b), 0, 0)]:
        ops.extend(AlignOp(MATCH, i + k, j + k, a[i + k], b[j + k]) for k in range(si - i))
        if di or dj:
            ops.append(AlignOp(kind, si, sj, a[si:si + di], b[sj:sj + dj]))
        i, j = si + di, sj + dj
    return AlignmentScript(tuple(ops), cost)


def replay(script: AlignmentScript, a: str) -> str:
    """Apply a script to its source string; yields the aligned target."""
    out: list[str] = []
    pos = 0
    for op in script.ops:
        if op.src_text:
            if a[pos:pos + len(op.src_text)] != op.src_text:
                raise ValueError(f"script does not fit source at offset {pos}")
            pos += len(op.src_text)
        out.append(op.dst_text)
    if pos != len(a):
        raise ValueError("script does not consume the whole source")
    return "".join(out)


def extract_edits(source: str, hypothesis: str) -> list[Edit]:
    """Span edits on ``source`` whose application yields ``hypothesis``.

    Maximal runs of adjacent non-match operations merge into one edit, so the
    result is a sorted list of disjoint spans with their replacement texts.
    Categories are left unset; see evaluator.classify_edit.
    """
    # Matches move i and j together, so a step that starts where the last
    # run ends in the source follows it with no match between.
    runs: list[list[int]] = []
    for _, i, j, di, dj in _backtrace(source, hypothesis)[0]:
        if runs and runs[-1][1] == i:
            runs[-1][1] += di
            runs[-1][3] += dj
        else:
            runs.append([i, i + di, j, j + dj])
    return [Edit(i0, i1, hypothesis[j0:j1]) for i0, i1, j0, j1 in runs]
