"""M2-style serialization of parallel pairs.

Each entry is one `S <source>` line followed by `A <start> <end>|||<category>
|||<replacement>|||<annotator>` lines and a blank separator. Spans are
character offsets into the source. Pairs without edits carry the noop marker
`A -1 -1|||noop|||-NONE-|||0`. The format has no id field, so reading assigns
sequential ids starting at "0".
"""

from __future__ import annotations

from typing import Iterable, Iterator, TextIO

from .edits import (
    CATEGORY_BY_VALUE,
    Edit,
    ErrorCategory,
    ParallelPair,
    apply_edits,
    check_edits_sorted_disjoint,
)

NOOP_CATEGORY = "noop"
NOOP_REPLACEMENT = "-NONE-"
_SEP = "|||"


def _one_line(text: str) -> bool:
    """True when ``text`` holds no line break that a reader would split on."""
    return "\n" not in text and "\r" not in text


def write_m2(pairs: Iterable[ParallelPair], fp: TextIO, annotator: int = 0) -> int:
    count = 0
    for pair in pairs:
        if not _one_line(pair.source):
            raise ValueError(f"pair {pair.id}: source must be a single line")
        fp.write(f"S {pair.source}\n")
        if not pair.edits:
            fp.write(f"A -1 -1{_SEP}{NOOP_CATEGORY}{_SEP}{NOOP_REPLACEMENT}{_SEP}{annotator}\n")
        for edit in pair.edits:
            category = (edit.category or ErrorCategory.OTHER).value
            if _SEP in edit.replacement or not _one_line(edit.replacement):
                raise ValueError(f"pair {pair.id}: replacement not representable")
            fp.write(
                f"A {edit.start} {edit.end}{_SEP}{category}{_SEP}"
                f"{edit.replacement}{_SEP}{annotator}\n"
            )
        fp.write("\n")
        count += 1
    return count


def _parse_a_line(line: str, lineno: int) -> tuple[int, int, str, str]:
    fields = line[2:].split(_SEP)
    if len(fields) != 4:
        raise ValueError(f"m2 line {lineno}: expected 4 |||-separated fields")
    span, category, replacement, annotator = fields
    parts = span.split()
    if len(parts) != 2:
        raise ValueError(f"m2 line {lineno}: bad span {span!r}")
    try:
        start, end = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"m2 line {lineno}: bad span {span!r}") from None
    try:
        int(annotator)
    except ValueError:
        raise ValueError(f"m2 line {lineno}: bad annotator id {annotator!r}") from None
    return start, end, category, replacement


def read_m2(fp: TextIO) -> Iterator[ParallelPair]:
    source: str | None = None
    source_line = 0
    edits: list[Edit] = []
    saw_annotation = False
    index = 0

    def finish(lineno: int) -> ParallelPair:
        nonlocal source, edits, saw_annotation, index
        if not saw_annotation:
            raise ValueError(f"m2 line {source_line}: source without annotation lines")
        for edit in edits:
            if edit.end > len(source):
                raise ValueError(
                    f"m2 line {source_line}: edit span {edit.start}..{edit.end} "
                    f"exceeds source length {len(source)}"
                )
        try:
            check_edits_sorted_disjoint(edits, len(source))
            target = apply_edits(source, edits)
        except ValueError as exc:
            raise ValueError(f"m2 line {source_line}: {exc}") from None
        pair = ParallelPair(str(index), source, target, tuple(edits))
        index += 1
        source, edits, saw_annotation = None, [], False
        return pair

    for lineno, raw in enumerate(fp, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            if source is not None:
                yield finish(lineno)
            continue
        if line.startswith("S "):
            if source is not None:
                yield finish(lineno)
            source = line[2:]
            source_line = lineno
        elif line.startswith("A "):
            if source is None:
                raise ValueError(f"m2 line {lineno}: annotation before any source")
            start, end, category, replacement = _parse_a_line(line, lineno)
            saw_annotation = True
            if category == NOOP_CATEGORY:
                if (start, end, replacement) != (-1, -1, NOOP_REPLACEMENT):
                    raise ValueError(f"m2 line {lineno}: malformed noop annotation")
                continue
            if category not in CATEGORY_BY_VALUE:
                raise ValueError(f"m2 line {lineno}: unknown category {category!r}")
            if start < 0 or end < start:
                raise ValueError(f"m2 line {lineno}: bad span {start} {end}")
            edits.append(Edit(start, end, replacement, CATEGORY_BY_VALUE[category]))
        else:
            raise ValueError(f"m2 line {lineno}: unexpected line {line[:40]!r}")
    if source is not None:
        yield finish(lineno + 1)
