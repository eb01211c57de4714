"""Character alignment between two strings and span-edit extraction.

The cost model is Damerau-Levenshtein with unit costs and adjacent
transposition. Ties in the backtrace resolve by a fixed operation preference
(match > substitute > transpose > delete > insert), so scripts are canonical
and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _encode(text: str) -> np.ndarray:
    return np.array([ord(ch) for ch in text], dtype=np.int32)


def align(a: str, b: str) -> AlignmentScript:
    """Minimum-cost edit script turning ``a`` into ``b``."""
    cols = dl_matrix(_encode(a), _encode(b))
    # Each bit test below is the DP equality test it stands for: diagonal
    # deltas are 0 or 1, so d0 decides d[i-1][j-1] (+1) == d[i][j], and the
    # transposition cost d[i][j] - d[i-2][j-2] is 2 minus two d0 bits.
    d0, vp = cols.d0, cols.vp
    ops: list[AlignOp] = []
    i, j = len(a), len(b)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and a[i - 1] == b[j - 1] and d0[j] >> (i - 1) & 1:
            ops.append(AlignOp(MATCH, i - 1, j - 1, a[i - 1], b[j - 1]))
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and a[i - 1] != b[j - 1] and not d0[j] >> (i - 1) & 1:
            ops.append(AlignOp(SUBSTITUTE, i - 1, j - 1, a[i - 1], b[j - 1]))
            i -= 1
            j -= 1
        elif (
            i > 1 and j > 1
            and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]
            and (d0[j] >> (i - 1) & 1) + (d0[j - 1] >> (i - 2) & 1) == 1
        ):
            ops.append(AlignOp(TRANSPOSE, i - 2, j - 2, a[i - 2:i], b[j - 2:j]))
            i -= 2
            j -= 2
        elif i > 0 and vp[j] >> (i - 1) & 1:
            ops.append(AlignOp(DELETE, i - 1, j, a[i - 1], ""))
            i -= 1
        else:
            ops.append(AlignOp(INSERT, i, j - 1, "", b[j - 1]))
            j -= 1
    ops.reverse()
    return AlignmentScript(tuple(ops), cols.distance)


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
    script = align(source, hypothesis)
    edits: list[Edit] = []
    run_start = -1
    run_end = -1
    run_repl: list[str] = []
    for op in script.ops:
        if op.kind == MATCH:
            if run_start >= 0:
                edits.append(Edit(run_start, run_end, "".join(run_repl)))
                run_start = -1
                run_repl = []
            continue
        if run_start < 0:
            run_start = op.src_pos
            run_end = op.src_pos
        run_end += len(op.src_text)
        run_repl.append(op.dst_text)
    if run_start >= 0:
        edits.append(Edit(run_start, run_end, "".join(run_repl)))
    return edits
