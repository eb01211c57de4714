"""Correctness checks behind ``attempted``/``failed`` and ``failed_share``."""

from __future__ import annotations

import hashlib
from pathlib import Path

from ltgec import apply_edits, extract_edits, score
from ltgec.edits import check_edits_sorted_disjoint


class Checks:
    """Counts checks attempted and failed, keeping the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _spans(edits) -> list[tuple[int, int, str]]:
    return [(e.start, e.end, e.replacement) for e in edits]


def check_pairs(pairs, checks: Checks) -> None:
    """Gold edits reproduce the target, are sorted and disjoint, equal the
    canonical alignment edits, and a perfect hypothesis scores P = R = F = 1."""
    for p in pairs:
        try:
            applied = apply_edits(p.source, p.edits)
        except ValueError:
            applied = None
        checks.expect(applied == p.target, f"{p.id}: apply_edits(source, gold) != target")
        try:
            check_edits_sorted_disjoint(p.edits, len(p.source))
            ordered = True
        except ValueError:
            ordered = False
        checks.expect(ordered, f"{p.id}: gold edits not sorted and disjoint")
        checks.expect(_spans(p.edits) == _spans(extract_edits(p.source, p.target)),
                      f"{p.id}: gold edits differ from extract_edits(source, target)")
    report = score(pairs, [p.target for p in pairs])
    checks.expect(report.precision == report.recall == report.f_score == 1.0,
                  "perfect hypothesis does not score P = R = F = 1")


def check_coverage(names, required, what: str, checks: Checks) -> None:
    """Each of ``required`` is among ``names`` (a set, or a Counter of
    positive counts)."""
    for name in required:
        checks.expect(name in names, f"{what} {name} never fired")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
