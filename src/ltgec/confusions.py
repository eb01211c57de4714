"""Confusion groups: patterns of interchangeable character sequences.

Each group holds a regex and the corpus occurrence counts of its variant
surfaces. The shipped default table covers Lithuanian similar-sounding letter
confusions plus punctuation, punctuation-with-space and quote-style groups;
derive_confusion_stats recomputes the counts from any corpus.
"""

from __future__ import annotations

import functools
import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .corpus import TextSample
from .edits import CATEGORY_BY_VALUE, ErrorCategory


@functools.lru_cache(maxsize=256)
def _compile(pattern: str) -> re.Pattern:
    return re.compile(pattern)


@dataclass(frozen=True)
class ConfusionGroup:
    pattern: str
    variants: tuple[tuple[str, int], ...]
    category: ErrorCategory = ErrorCategory.SIMILAR_SOUNDING

    @property
    def regex(self) -> re.Pattern:
        return _compile(self.pattern)

    def sites(self, text: str) -> list[re.Match]:
        """Leftmost non-overlapping non-empty matches: the group's sites."""
        return [m for m in self.regex.finditer(text) if m.end() > m.start()]

    def replacement_counts(self, surface: str) -> tuple[list[str], list[int]]:
        """Replacement candidates for a matched surface: the group's *other*
        variants with their counts, or none if the counts sum to zero."""
        options = [(v, c) for v, c in self.variants if v != surface]
        if sum(c for _, c in options) <= 0:
            return [], []
        return [v for v, _ in options], [c for _, c in options]

    def replacement_options(self, surface: str) -> tuple[list[str], list[float]]:
        """The replacement candidates, weighted by how frequent they are."""
        options, counts = self.replacement_counts(surface)
        total = sum(counts)
        return options, [c / total for c in counts]


@dataclass(frozen=True)
class ConfusionTable:
    groups: tuple[ConfusionGroup, ...]

    def by_category(self, enabled: Iterable[ErrorCategory]) -> tuple[ConfusionGroup, ...]:
        wanted = set(enabled)
        return tuple(g for g in self.groups if g.category in wanted)


_P = ErrorCategory.PUNCTUATION
_S = ErrorCategory.SIMILAR_SOUNDING

# Variant occurrence counts measured on a large Lithuanian news corpus.
_DEFAULT_GROUPS: tuple[tuple[str, ErrorCategory, tuple[tuple[str, int], ...]], ...] = (
    (r"[,\.–]{0,1} ", _P, ((" ", 79695056), (". ", 5125941), (", ", 9876726), ("– ", 1347515))),
    (r"[\.,;:\–\-?!\(\)\[\]\<\>/]", _P, (
        (",", 10072919), (".", 7976435), ("–", 1453095), (")", 665253), ("(", 655651),
        ("-", 546698), ("?", 300962), (":", 519928), ("!", 106333), (";", 105526),
        ("/", 90778), ("[", 34295), ("]", 34283), (">", 5759), ("<", 4457))),
    (r"u{0,1}ou{0,1}", _S, (("o", 33058916), ("ou", 41509), ("uo", 3355463), ("uou", 34))),
    (r"ia|e", _S, (("ia", 6733731), ("e", 35509427))),
    (r"[scz]", _S, (("s", 47349069), ("c", 2645328), ("z", 1646823))),
    (r"[ščž]", _S, (("š", 7002598), ("č", 2619317), ("ž", 5044500))),
    (r"[eęė]", _S, (("e", 35509427), ("ę", 1336170), ("ė", 9781460))),
    (r"[iįy]", _S, (("į", 3490952), ("y", 8347510), ("i", 82431807))),
    (r"[uųū]", _S, (("ū", 2795974), ("ų", 7826828), ("u", 28978236))),
    (r"[aą]", _S, (("a", 68291558), ("ą", 4471872))),
    (r"[cč]", _S, (("c", 2645328), ("č", 2619317))),
    (r"[zž]", _S, (("z", 1646823), ("ž", 5044500))),
    (r"[td]", _S, (("t", 35864854), ("d", 14822144))),
    (r"[kg]", _S, (("k", 26461947), ("g", 10626341))),
    (r"[pb]", _S, (("p", 16187509), ("b", 8148725))),
    ("‘‘|,,|[„“\"”]|''", _P, (('"', 436378), ("”", 46847), (",,", 11777), ("‘‘", 817), ("''", 87))),
)

_PUNCTUATION_PATTERNS = frozenset(p for p, cat, _ in _DEFAULT_GROUPS if cat is _P)


@functools.cache
def default_table() -> ConfusionTable:
    """The shipped table, built once per process. The returned object is
    shared by every caller, so it must not be mutated."""
    return ConfusionTable(tuple(
        ConfusionGroup(pattern, variants, category)
        for pattern, category, variants in _DEFAULT_GROUPS
    ))


def derive_confusion_stats(
    samples: Iterable[TextSample | str],
    patterns: Sequence[str] | None = None,
) -> ConfusionTable:
    """Count the sites of each pattern over a corpus: its leftmost
    non-overlapping non-empty matches, as ConfusionGroup.sites finds them.

    Returns a table whose variants are the observed surfaces with their
    counts, ordered by descending count. Patterns default to the shipped
    table's; their categories carry over (unknown patterns are treated as
    similar-sounding letter groups).
    """
    if patterns is None:
        patterns = [p for p, _, _ in _DEFAULT_GROUPS]
    sites = [ConfusionGroup(p, ()).sites for p in patterns]
    counters: list[Counter] = [Counter() for _ in patterns]
    for sample in samples:
        text = sample.text if isinstance(sample, TextSample) else sample
        for group_sites, counter in zip(sites, counters):
            counter.update(m.group() for m in group_sites(text))
    groups = []
    for pattern, counter in zip(patterns, counters):
        category = _P if pattern in _PUNCTUATION_PATTERNS else _S
        variants = tuple(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))
        groups.append(ConfusionGroup(pattern, variants, category))
    return ConfusionTable(tuple(groups))


# ---------------------------------------------------------------------------
# Table file format: tab-separated blocks, strings JSON-quoted so variants
# containing spaces survive the round trip.
#
#   group  "<pattern>"  <category>
#          "<variant>"  <count>

def write_table(table: ConfusionTable, fp: TextIO) -> None:
    fp.write("# confusion table\n")
    for g in table.groups:
        fp.write(f"group\t{json.dumps(g.pattern, ensure_ascii=False)}\t{g.category.value}\n")
        for variant, count in g.variants:
            fp.write(f"\t{json.dumps(variant, ensure_ascii=False)}\t{count}\n")


def read_table(fp: TextIO) -> ConfusionTable:
    groups: list[ConfusionGroup] = []
    pattern: str | None = None
    category = _S
    variants: list[tuple[str, int]] = []

    def flush():
        if pattern is not None:
            groups.append(ConfusionGroup(pattern, tuple(variants), category))

    for lineno, line in enumerate(fp, 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.rstrip("\n").split("\t")
        try:
            if fields[0] == "group":
                flush()
                pattern = json.loads(fields[1])
                category = CATEGORY_BY_VALUE[fields[2]]
                variants = []
                _compile(pattern)
            elif fields[0] == "" and pattern is not None:
                count = int(fields[2])
                if count < 0:
                    raise ValueError(f"negative count {count}")
                variants.append((json.loads(fields[1]), count))
            else:
                raise ValueError("unrecognised line")
        except (IndexError, ValueError, KeyError, json.JSONDecodeError, re.error) as exc:
            raise ValueError(f"confusion table line {lineno}: {exc}") from exc
    flush()
    return ConfusionTable(tuple(groups))
