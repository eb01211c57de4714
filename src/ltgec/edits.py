"""Edit spans over corrupted text, parallel pairs, and span application.

An Edit says: the corrupted text's half-open span [start, end) should read
``replacement`` in the corrected text. Applying a pair's edits right to left
therefore reconstructs the reference exactly. A corruption plan is an Edit
in the other direction: a span of the clean text and the corruption that
replaces it.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence, TextIO

from .corpus import read_numbered, record_id


class ErrorCategory(Enum):
    TYPOGRAPHICAL = "typographical"
    PUNCTUATION = "punctuation"
    SIMILAR_SOUNDING = "similar-sounding"
    SPACES = "spaces"
    ASSIMILATION_GEMINATION = "assimilation-gemination"
    CASING = "casing"
    OTHER = "other"


CATEGORY_BY_VALUE = {cat.value: cat for cat in ErrorCategory}


@dataclass(frozen=True, order=True, slots=True)
class Edit:
    start: int
    end: int
    replacement: str
    category: ErrorCategory | None = None

    def __post_init__(self):
        if not (0 <= self.start <= self.end):
            raise ValueError(f"bad edit span [{self.start}, {self.end})")


@dataclass(frozen=True, slots=True)
class ParallelPair:
    """A (corrupted source, reference target) pair with gold edits."""

    id: str
    source: str
    target: str
    edits: tuple[Edit, ...]


def check_edits_sorted_disjoint(edits: Sequence[Edit], text_len: int) -> None:
    prev_end = -1
    prev_start = -1
    for e in edits:
        if e.end > text_len:
            raise ValueError(f"edit {e} extends past text of length {text_len}")
        if e.start < prev_start or (e.start == prev_start and e.end < prev_end):
            raise ValueError("edits not sorted")
        if e.start < prev_end:
            raise ValueError(f"edit {e} overlaps a previous edit")
        prev_start, prev_end = e.start, e.end


def apply_edits(text: str, edits: Sequence[Edit]) -> str:
    """Replace each edit span with its replacement, right to left."""
    ordered = sorted(edits, key=lambda e: (e.start, e.end))
    check_edits_sorted_disjoint(ordered, len(text))
    for e in reversed(ordered):
        text = text[:e.start] + e.replacement + text[e.end:]
    return text


# ---------------------------------------------------------------------------
# Corruption plans. A plan is an Edit on the clean text: it replaces span
# [start, end) with ``replacement`` and carries the error family's category.
# apply_plans applies the plans that conflict with nothing, turning them into
# inverse edits on the corrupted text and shifting earlier edits as needed.

def _intersects(s1: int, e1: int, s2: int, e2: int) -> bool:
    # Half-open spans; zero-width points touching a boundary do not intersect.
    if s1 == e1:
        return s2 < s1 < e2
    if s2 == e2:
        return s1 < s2 < e1
    return s1 < e2 and s2 < e1


def drop_conflicting(plans: Sequence[Edit], blocked: Sequence[Edit]) -> list[Edit]:
    """Keep plans in planning order, dropping any that intersect a
    ``blocked`` span or an earlier kept plan.

    ``blocked`` must be pairwise non-intersecting, as apply_plans' edits are.
    Kept plans join the blocked spans in one sorted list, so the list stays
    pairwise non-intersecting, and a span that intersects any member then
    intersects one of the two neighbours of its insertion point.
    """
    spans = sorted((e.start, e.end) for e in blocked)
    kept: list[Edit] = []
    for p in plans:
        span = (p.start, p.end)
        i = bisect.bisect_left(spans, span)
        if any(_intersects(p.start, p.end, s, e) for s, e in spans[max(i - 1, 0):i + 1]):
            continue
        spans.insert(i, span)
        kept.append(p)
    return kept


def apply_plans(text: str, edits: Sequence[Edit], plans: Sequence[Edit]) -> tuple[str, list[Edit]]:
    """Apply the plans that drop_conflicting keeps against ``edits`` to
    ``text``; return the new text and the full edit list (old edits shifted
    + inverse edits of the plans), sorted."""
    ordered = sorted(drop_conflicting(plans, edits), key=lambda p: (p.start, p.end))
    segments: list[str] = []
    new_edits: list[Edit] = []
    pos = 0
    delta = 0
    deltas: list[tuple[int, int]] = []  # (plan end, cumulative delta after it)
    for p in ordered:
        segments.append(text[pos:p.start])
        segments.append(p.replacement)
        shifted = p.start + delta
        new_edits.append(Edit(shifted, shifted + len(p.replacement), text[p.start:p.end], p.category))
        delta += len(p.replacement) - (p.end - p.start)
        deltas.append((p.end, delta))
        pos = p.end
    segments.append(text[pos:])
    new_text = "".join(segments)

    shifted_old: list[Edit] = []
    di = 0
    shift = 0
    for e in sorted(edits, key=lambda e: (e.start, e.end)):
        while di < len(deltas) and deltas[di][0] <= e.start:
            shift = deltas[di][1]
            di += 1
        shifted_old.append(Edit(e.start + shift, e.end + shift, e.replacement, e.category))

    merged = sorted(shifted_old + new_edits, key=lambda e: (e.start, e.end))
    return new_text, merged


# ---------------------------------------------------------------------------
# Parallel corpus JSONL: {"id", "source", "target", "edits": [[s, e, repl, cat], ...]}

def pair_to_json(pair: ParallelPair) -> str:
    edits = [
        [e.start, e.end, e.replacement, e.category.value if e.category else None]
        for e in pair.edits
    ]
    return json.dumps(
        {"id": pair.id, "source": pair.source, "target": pair.target, "edits": edits},
        ensure_ascii=False,
    )


def _category(value) -> ErrorCategory | None:
    if not value:
        return None
    if value not in CATEGORY_BY_VALUE:
        raise ValueError(f"unknown edit category {value!r}")
    return CATEGORY_BY_VALUE[value]


def _span_index(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"edit spans must be integers, got {value!r}")


def pair_from_json(line: str) -> ParallelPair:
    """Parse one record; as for M2 gold, its edits must be sorted, disjoint,
    inside the source, and turn the source into the target."""
    record = json.loads(line)
    edits = tuple(
        Edit(_span_index(s), _span_index(e), repl, _category(cat))
        for s, e, repl, cat in record["edits"]
    )
    pair = ParallelPair(record_id(record), record["source"], record["target"], edits)
    check_edits_sorted_disjoint(edits, len(pair.source))
    if apply_edits(pair.source, edits) != pair.target:
        raise ValueError("edits do not turn the source into the target")
    return pair


def read_pairs(fp: TextIO) -> Iterator[ParallelPair]:
    return (pair for _, pair in read_numbered(fp, pair_from_json, "pair"))


def write_pairs(pairs: Iterable[ParallelPair], fp: TextIO) -> int:
    count = 0
    for pair in pairs:
        fp.write(pair_to_json(pair) + "\n")
        count += 1
    return count
