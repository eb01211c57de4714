"""Seeded synthetic error injection producing parallel pairs with gold edits.

Six error families run in a fixed order (typos, confusions, gemination,
assimilation, casing, spaces), each driven by its own RNG stream derived from
(seed, sample id, family index), so output is reproducible and independent of
worker scheduling or which other families are enabled. A stream is a
standard-library random.Random seeded from a SHA-256 digest (stream version
2). Each family is one public op, corrupt_<family>, which corrupt calls with
the edits of the families before it. A struck site that has options takes
one of them by one more uniform draw on the same stream (_pick).

Gold edits are expressed in corrupted-text coordinates and canonicalized
through the same alignment the evaluator uses, so scoring a hypothesis equal
to the reference yields exact precision/recall 1.0.

The family definitions that draw nothing (typo operations and mix, rate
checks, letter sets and site functions) live in families.py, which the
corrector and the evaluator read too.
"""

from __future__ import annotations

import functools
import hashlib
import random
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .alignment import extract_edits
from .confusions import ConfusionTable, default_table
from .corpus import TextSample, _L, _U
from .edits import Edit, ErrorCategory, ParallelPair, apply_plans
from .families import (
    ALL_GROUPS,
    DEFAULT_TYPO_MIX,
    DELETION,
    INSERTION,
    TRANSPOSITION,
    TYPO_OPS,
    VOICING_SWAP,
    assimilation_sites,
    casing_sites,
    check_rate,
    check_rates,
    gemination_sites,
    space_sites,
)
from .keyboard import KeyboardModel, default_keyboard


@dataclass(frozen=True)
class CorruptionConfig:
    typo_rate: float = 0.02
    typo_mix: dict = field(default_factory=lambda: dict(DEFAULT_TYPO_MIX))
    confusion_rate: float = 0.02
    other_rate: float = 0.02
    enabled_groups: frozenset = ALL_GROUPS
    seed: int = 0

    def __post_init__(self):
        check_rates(self)
        bad = set(self.enabled_groups) - ALL_GROUPS
        if bad:
            raise ValueError(f"unsupported groups: {sorted(c.value for c in bad)}")


def sample_rng(seed: int, sample_id: str, family_index: int) -> random.Random:
    """Per-(sample, family) RNG stream; stable across runs, worker counts and
    Python versions, which keep random() fixed for an int seed."""
    digest = hashlib.sha256(f"{seed}:{family_index}:{sample_id}".encode()).digest()
    return random.Random(int.from_bytes(digest, "little"))


# ---------------------------------------------------------------------------
# Single-family ops. Each corrupts ``text`` with one family, keeping the
# ``edits`` of earlier families: plans are forward Edits on the text in a
# fixed planning order, and apply_plans drops those that conflict. Each
# returns the new text and the exact inverse edits, earlier ones shifted.

def _strike(sites, rate: float, rng: random.Random) -> list:
    """The draw rule of every family: one uniform draw per site, in site
    order, and the sites whose draw falls below ``rate`` are struck."""
    if not sites or rate <= 0.0:
        return []
    draw = rng.random
    return [site for site in sites if draw() < rate]


def _cumulative(weights) -> list[float]:
    """The table that _pick draws an option through: the running sums of the
    weights divided by their total, so it never falls and ends at 1.0. It
    refuses negative, NaN or infinite weights and an all-zero total."""
    w = [float(x) for x in weights]
    sums = list(accumulate(w))
    if not (sums and 0.0 < sums[-1] < float("inf") and all(x >= 0 for x in w)):
        raise ValueError(f"draw weights must be finite, non-negative and not all zero, "
                         f"got {w}")
    return [c / sums[-1] for c in sums]


def _pick(cumulative: list[float], rng: random.Random) -> int:
    """The option a struck site takes: one uniform draw in [0, 1) placed
    among the cumulative weights, so a zero weight is never taken."""
    return bisect_right(cumulative, rng.random())


_LINE_BREAKS = frozenset("\n\r")


def corrupt_typos(text: str, cfg: CorruptionConfig, kbd: KeyboardModel,
                  rng: random.Random, edits=()) -> tuple[str, list[Edit]]:
    """Each struck character draws an operation from cfg.typo_mix; a
    substitution or an insertion also draws the key typed."""
    n = len(text)
    ops = _cumulative([cfg.typo_mix[op] for op in TYPO_OPS])
    keys: dict[str, tuple[list[str], list[float]]] = {}
    plans: list[Edit] = []
    cat = ErrorCategory.TYPOGRAPHICAL
    for i in _strike(range(n), cfg.typo_rate, rng):
        ch = text[i]
        if ch in _LINE_BREAKS:
            continue
        op = TYPO_OPS[_pick(ops, rng)]
        if op == DELETION:
            plans.append(Edit(i, i + 1, "", cat))
        elif op == TRANSPOSITION:
            lo = i if i + 1 < n else i - 1
            if lo >= 0 and text[lo] != text[lo + 1]:
                plans.append(Edit(lo, lo + 2, text[lo + 1] + text[lo], cat))
        else:
            if ch not in keys:
                chars, ws = kbd.substitution_options(ch)
                keys[ch] = chars, chars and _cumulative(ws)
            chars, cumulative = keys[ch]
            if not chars:
                continue
            typed = chars[_pick(cumulative, rng)]
            if op == INSERTION:
                plans.append(Edit(i + 1, i + 1, typed, cat))
            elif typed != ch:
                plans.append(Edit(i, i + 1, typed, cat))
    return apply_plans(text, edits, plans)


def corrupt_confusions(text: str, table: ConfusionTable, rate: float,
                       rng: random.Random, edits=()) -> tuple[str, list[Edit]]:
    """Each struck site of a group takes one of the group's other variants,
    drawn by their counts."""
    plans: list[Edit] = []
    for g in table.groups:
        variants: dict[str, tuple[list[str], list[float]]] = {}
        for m in _strike(g.sites(text), rate, rng):
            surface = m.group()
            if surface not in variants:
                options, counts = g.replacement_counts(surface)
                variants[surface] = options, options and _cumulative(counts)
            options, cumulative = variants[surface]
            if options:
                plans.append(Edit(m.start(), m.end(), options[_pick(cumulative, rng)],
                                  g.category))
    return apply_plans(text, edits, plans)


def corrupt_gemination(text: str, rate: float, rng: random.Random,
                       edits=()) -> tuple[str, list[Edit]]:
    cat = ErrorCategory.ASSIMILATION_GEMINATION
    plans = [Edit(i, i + 1, "", cat) for i in _strike(gemination_sites(text), rate, rng)]
    return apply_plans(text, edits, plans)


def corrupt_assimilation(text: str, rate: float, rng: random.Random,
                         edits=()) -> tuple[str, list[Edit]]:
    plans: list[Edit] = []
    for i in _strike(assimilation_sites(text), rate, rng):
        ch = text[i]
        swapped = VOICING_SWAP[ch.lower()]
        if ch.isupper():
            swapped = swapped.upper()
        plans.append(Edit(i, i + 1, swapped, ErrorCategory.ASSIMILATION_GEMINATION))
    return apply_plans(text, edits, plans)


def corrupt_casing(text: str, rate: float, rng: random.Random,
                   edits=()) -> tuple[str, list[Edit]]:
    cat = ErrorCategory.CASING
    plans = [Edit(i, i + 1, text[i].swapcase(), cat)
             for i in _strike(casing_sites(text), rate, rng)]
    return apply_plans(text, edits, plans)


def corrupt_spaces(text: str, rate: float, rng: random.Random,
                   edits=()) -> tuple[str, list[Edit]]:
    dels, ins = space_sites(text)
    cat = ErrorCategory.SPACES
    plans = [Edit(i, i + 1, "", cat) for i in _strike(dels, rate, rng)]
    plans.extend(Edit(i, i, " ", cat) for i in _strike(ins, rate, rng))
    return apply_plans(text, edits, plans)


# ---------------------------------------------------------------------------
# Full corruption of a sample: all enabled families in order, then gold edits
# canonicalized through alignment extraction with categories mapped back from
# the raw corruption spans.

def _categorize_canonical(canonical: list[Edit], raw: list[Edit]) -> list[Edit]:
    """Give each canonical edit the category of the first raw edit, in list
    order, with the least gap to it.

    Raw edits are sorted and disjoint, so their starts and ends never fall.
    Against an edit [s, t), the gap is s - r.end while r.end < s, which never
    rises, then max(r.start - t, 0) from the first raw edit with r.end >= s
    on, which never falls. So the least gap lies at that raw edit or at the
    first raw edit sharing its predecessor's end (zero-width raw edits can
    repeat an end).
    """
    if not raw:
        return canonical
    ends = [r.end for r in raw]
    out: list[Edit] = []
    for e in canonical:
        k = bisect_left(ends, e.start)
        best = None
        if k < len(raw):
            best, gap = raw[k], max(raw[k].start - e.end, 0)
        if k and (best is None or e.start - ends[k - 1] <= gap):
            best = raw[bisect_left(ends, ends[k - 1], 0, k)]
        out.append(Edit(e.start, e.end, e.replacement, best.category))
    return out


def _gold_pair(sample: TextSample, text: str, raw: list[Edit]) -> ParallelPair:
    gold = _categorize_canonical(extract_edits(text, sample.text), raw)
    return ParallelPair(sample.id, text, sample.text, tuple(gold))


def corrupt(sample: TextSample, cfg: CorruptionConfig,
            table: ConfusionTable | None = None,
            kbd: KeyboardModel | None = None) -> ParallelPair:
    """Corrupt one sample with every enabled family; deterministic in
    (cfg.seed, sample.id)."""
    table = table if table is not None else default_table()
    kbd = kbd if kbd is not None else default_keyboard()
    enabled = cfg.enabled_groups
    confusions = ConfusionTable(table.by_category(
        enabled & {ErrorCategory.PUNCTUATION, ErrorCategory.SIMILAR_SOUNDING}
    ))

    def stream(family_index: int) -> random.Random:
        return sample_rng(cfg.seed, sample.id, family_index)

    text, raw = sample.text, []
    if ErrorCategory.TYPOGRAPHICAL in enabled:
        text, raw = corrupt_typos(text, cfg, kbd, stream(0), raw)
    if confusions.groups:
        text, raw = corrupt_confusions(text, confusions, cfg.confusion_rate, stream(1), raw)
    if ErrorCategory.ASSIMILATION_GEMINATION in enabled:
        text, raw = corrupt_gemination(text, cfg.other_rate, stream(2), raw)
        text, raw = corrupt_assimilation(text, cfg.other_rate, stream(3), raw)
    if ErrorCategory.CASING in enabled:
        text, raw = corrupt_casing(text, cfg.other_rate, stream(4), raw)
    if ErrorCategory.SPACES in enabled:
        text, raw = corrupt_spaces(text, cfg.other_rate, stream(5), raw)
    return _gold_pair(sample, text, raw)


# ---------------------------------------------------------------------------
# Rule-invertible errors: the exact inverses of the three cleanup fixers.
# Useful for benchmarking the rule-based corrector on errors it can undo.

_RULE_ERROR_STREAM = 6  # family index reserved for the rule-error generator
_QUOTE_GLYPHS = frozenset("„“")
_MISSING_INVERSES = (
    re.compile(r"(?<=\d) (?=[md]\.)"),
    re.compile(rf"(?<![{_L}{_U}])[{_U}]\. (?=[{_U}][{_L}])"),
    re.compile(rf"(?<![{_L}{_U}])[{_L}{_U}]\. (?=[{_L}{_U}]\.)"),
)
_PUNCT_AFTER = frozenset(",.;:!?)]}")


@functools.cache
def _quote_styles() -> tuple[list[str], list[float]]:
    """The variants of the default table's quote-style group, and the table
    _pick draws them through."""
    variants = default_table().groups[-1].variants
    return [v for v, _ in variants], _cumulative([c for _, c in variants])


def corrupt_rule_errors(sample: TextSample, rate: float = 0.02,
                        seed: int = 0) -> ParallelPair:
    """Corrupt with quote-style swaps and the space errors the cleanup fixers
    undo; every emitted error is rule-invertible."""
    check_rate("rate", rate)
    rng = sample_rng(seed, sample.id, _RULE_ERROR_STREAM)
    text = sample.text
    quotes = [i for i, ch in enumerate(text) if ch in _QUOTE_GLYPHS]
    styles, cumulative = _quote_styles()
    plans = [Edit(i, i + 1, styles[_pick(cumulative, rng)], ErrorCategory.PUNCTUATION)
             for i in _strike(quotes, rate, rng)]

    spaces = sorted({m.end() - 1 for regex in _MISSING_INVERSES for m in regex.finditer(text)})
    plans.extend(Edit(i, i + 1, "", ErrorCategory.SPACES) for i in _strike(spaces, rate, rng))

    punct = [
        i for i, ch in enumerate(text)
        if ch in _PUNCT_AFTER and i > 0 and not text[i - 1].isspace()
    ]
    plans.extend(Edit(i, i, " ", ErrorCategory.SPACES) for i in _strike(punct, rate, rng))
    text, raw = apply_plans(text, (), plans)
    return _gold_pair(sample, text, raw)
