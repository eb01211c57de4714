"""Scoring of corrections against gold edits.

Hypothesis edits are recovered by aligning each corrupted source against the
corrected text, so matching is exact on (start, end, replacement) spans.
Spurious edits get a category from their shape alone via classify_edit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Iterable

from .alignment import extract_edits
from .confusions import ConfusionGroup, ConfusionTable, default_table
from .edits import Edit, ErrorCategory, ParallelPair
from .families import VOICING_SWAP, assimilation_sites, gemination_sites


def f_beta(precision: float, recall: float, beta: float = 0.5) -> float:
    """Weighted harmonic mean; 0.0 whenever either input is 0."""
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    num = (1.0 + beta * beta) * precision * recall
    if num == 0.0:
        return 0.0
    return num / (beta * beta * precision + recall)


def _expanded_sides(edit: Edit, source: str):
    """Candidate (span, replacement) readings of an edit.

    Pure insertions and deletions are also read with one character of source
    context on either side, so e.g. inserting "u" before "o" can be matched
    against a pattern that needs the full "uo"."""
    span = source[edit.start:edit.end]
    repl = edit.replacement
    yield span, repl
    if span and repl:
        return
    left = source[edit.start - 1] if edit.start > 0 else None
    right = source[edit.end] if edit.end < len(source) else None
    if left is not None:
        yield left + span, left + repl
    if right is not None:
        yield span + right, repl + right
    if left is not None and right is not None:
        yield left + span + right, left + repl + right


def _matches_group(edit: Edit, source: str, groups: Iterable[ConfusionGroup]) -> bool:
    for span, repl in _expanded_sides(edit, source):
        for g in groups:
            if g.regex.fullmatch(span) and g.regex.fullmatch(repl):
                return True
    return False


def _is_gemination_shape(edit: Edit, source: str) -> bool:
    """One letter inserted or dropped where, next to a neighbour, it forms a
    gemination site."""
    span = source[edit.start:edit.end]
    repl = edit.replacement
    letter = repl or span
    if (span and repl) or len(letter) != 1:
        return False
    left = source[edit.start - 1:edit.start]
    right = source[edit.end:edit.end + 1]
    return bool(gemination_sites(left + letter) or gemination_sites(letter + right))


def _is_assimilation_shape(edit: Edit, source: str) -> bool:
    """A voicing swap that agrees with the next letter, as assimilation makes
    it: its correction forms an assimilation site."""
    span = source[edit.start:edit.end]
    repl = edit.replacement
    if len(span) != 1 or len(repl) != 1 or VOICING_SWAP.get(span.lower()) != repl.lower():
        return False
    return bool(assimilation_sites(repl + source[edit.end:edit.end + 1]))


def classify_edit(edit: Edit, source: str, table: ConfusionTable | None = None) -> ErrorCategory:
    """Assign an error category to an edit from its shape in context."""
    table = table if table is not None else default_table()
    span = source[edit.start:edit.end]
    repl = edit.replacement
    if span == repl:
        return ErrorCategory.OTHER
    if "".join(span.split()) == "".join(repl.split()):
        return ErrorCategory.SPACES
    if span.lower() == repl.lower():
        return ErrorCategory.CASING
    punct = table.by_category({ErrorCategory.PUNCTUATION})
    if _matches_group(edit, source, punct):
        return ErrorCategory.PUNCTUATION
    if _is_gemination_shape(edit, source) or _is_assimilation_shape(edit, source):
        return ErrorCategory.ASSIMILATION_GEMINATION
    letters = table.by_category({ErrorCategory.SIMILAR_SOUNDING})
    if _matches_group(edit, source, letters):
        return ErrorCategory.SIMILAR_SOUNDING
    return ErrorCategory.TYPOGRAPHICAL


@dataclass(slots=True)
class CategoryScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    samples: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0


@dataclass(slots=True)
class EvalReport:
    beta: float
    pairs: int
    samples_affected: int
    tp: int
    fp: int
    fn: int
    per_category: dict = field(default_factory=dict)

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0

    @property
    def f_score(self) -> float:
        if self.tp + self.fp == 0 and self.tp + self.fn == 0:
            return 1.0
        return f_beta(self.precision, self.recall, self.beta)

    def to_dict(self) -> dict:
        def cat_dict(s: CategoryScore) -> dict:
            return {
                "tp": s.tp, "fp": s.fp, "fn": s.fn, "samples": s.samples,
                "precision": s.precision, "recall": s.recall,
                "f_beta": f_beta(s.precision, s.recall, self.beta),
            }

        return {
            "beta": self.beta,
            "pairs": self.pairs,
            "samples_affected": self.samples_affected,
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f_beta": self.f_score,
            "per_category": {
                name: cat_dict(s) for name, s in sorted(self.per_category.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)

    def render(self) -> str:
        header = (
            f"{'category':<26} {'tp':>7} {'fp':>7} {'fn':>7} "
            f"{'prec':>7} {'rec':>7} {f'f{self.beta:g}':>7} {'samples':>8}"
        )
        lines = [header, "-" * len(header)]
        for name, s in sorted(self.per_category.items()):
            f = f_beta(s.precision, s.recall, self.beta)
            lines.append(
                f"{name:<26} {s.tp:>7} {s.fp:>7} {s.fn:>7} "
                f"{s.precision:>7.4f} {s.recall:>7.4f} {f:>7.4f} {s.samples:>8}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'overall':<26} {self.tp:>7} {self.fp:>7} {self.fn:>7} "
            f"{self.precision:>7.4f} {self.recall:>7.4f} {self.f_score:>7.4f} "
            f"{self.samples_affected:>8}"
        )
        return "\n".join(lines)


_MISSING = object()  # fill value marking the shorter of pairs and hypotheses


def _category_name(category: ErrorCategory | None) -> str:
    return (category or ErrorCategory.OTHER).value


def score(pairs: Iterable[ParallelPair], hypotheses: Iterable[str],
          beta: float = 0.5, table: ConfusionTable | None = None) -> EvalReport:
    """Score corrected texts against gold pairs, matched positionally.

    A hypothesis edit counts as a true positive only when its span and
    replacement both equal a gold edit's exactly."""
    table = table if table is not None else default_table()
    report = EvalReport(beta=beta, pairs=0, samples_affected=0, tp=0, fp=0, fn=0)
    cats: dict[str, CategoryScore] = report.per_category

    def cat(name: str) -> CategoryScore:
        entry = cats.get(name)
        if entry is None:
            entry = cats[name] = CategoryScore()
        return entry

    for pair, hyp in zip_longest(pairs, hypotheses, fillvalue=_MISSING):
        if pair is _MISSING or hyp is _MISSING:
            raise ValueError("gold pair and hypothesis counts differ")
        report.pairs += 1
        if pair.edits:
            report.samples_affected += 1
        for name in {_category_name(e.category) for e in pair.edits}:
            cat(name).samples += 1
        gold = {(e.start, e.end, e.replacement): e.category for e in pair.edits}
        matched = set()
        for he in extract_edits(pair.source, hyp):
            key = (he.start, he.end, he.replacement)
            if key in gold:
                matched.add(key)
                report.tp += 1
                cat(_category_name(gold[key])).tp += 1
            else:
                report.fp += 1
                cat(classify_edit(he, pair.source, table).value).fp += 1
        for key, category in gold.items():
            if key not in matched:
                report.fn += 1
                cat(_category_name(category)).fn += 1
    return report
