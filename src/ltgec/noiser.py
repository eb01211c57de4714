"""Seeded synthetic error injection producing parallel pairs with gold edits.

Six error families run in a fixed order (typos, confusions, gemination,
assimilation, casing, spaces), each driven by its own RNG stream derived from
(seed, sample id, family index), so output is reproducible and independent of
worker scheduling or which other families are enabled.

Gold edits are expressed in corrupted-text coordinates and canonicalized
through the same alignment the evaluator uses, so scoring a hypothesis equal
to the reference yields exact precision/recall 1.0.

The family definitions that draw nothing (typo operations and mix, rate
checks, letter sets and site functions) live in families.py, so the
corrector and the evaluator read them without loading numpy; this module
imports them back under their old names.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .alignment import extract_edits
from .confusions import ConfusionGroup, ConfusionTable, default_table
from .corpus import TextSample, _L, _U
from .edits import Edit, ErrorCategory, ParallelPair, apply_plans
from .families import (
    ALL_GROUPS,
    DEFAULT_TYPO_MIX,
    DELETION,
    INSERTION,
    SUBSTITUTION,
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


def sample_rng(seed: int, sample_id: str, family_index: int) -> np.random.Generator:
    """Per-(sample, family) RNG stream; stable across runs and worker counts."""
    digest = hashlib.sha256(sample_id.encode("utf-8")).digest()
    words = [int.from_bytes(digest[k:k + 8], "little") for k in range(0, 32, 8)]
    entropy = [seed % (1 << 64), family_index, *words]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# ---------------------------------------------------------------------------
# Family planners. Each returns corruption plans, forward Edits on the given
# text, in a fixed planning order; apply_plans drops later-planned overlaps.

def _strike(sites, rate: float, rng: np.random.Generator) -> list:
    """The draw rule of every family: one uniform draw per site, in site
    order, and the sites whose draw falls below ``rate`` are struck."""
    if not sites or rate <= 0.0:
        return []
    u = rng.random(len(sites))
    return [site for site, x in zip(sites, u) if x < rate]


_LINE_BREAKS = frozenset("\n\r")


def _plan_typos(text: str, cfg: CorruptionConfig, kbd: KeyboardModel,
                rng: np.random.Generator) -> list[Edit]:
    n = len(text)
    mix = np.array([cfg.typo_mix[op] for op in TYPO_OPS], dtype=np.float64)
    mix = mix / mix.sum()
    sub_cache: dict[str, tuple[list[str], np.ndarray]] = {}

    def options_for(ch: str):
        cached = sub_cache.get(ch)
        if cached is None:
            chars, ws = kbd.substitution_options(ch)
            probs = np.array(ws, dtype=np.float64)
            if probs.size:
                probs = probs / probs.sum()
            cached = (chars, probs)
            sub_cache[ch] = cached
        return cached

    plans: list[Edit] = []
    cat = ErrorCategory.TYPOGRAPHICAL
    for i in _strike(range(n), cfg.typo_rate, rng):
        if text[i] in _LINE_BREAKS:
            continue
        op = TYPO_OPS[int(rng.choice(4, p=mix))]
        if op == SUBSTITUTION:
            chars, probs = options_for(text[i])
            if not chars:
                continue
            repl = chars[int(rng.choice(len(chars), p=probs))]
            if repl == text[i]:
                continue
            plans.append(Edit(i, i + 1, repl, cat))
        elif op == DELETION:
            plans.append(Edit(i, i + 1, "", cat))
        elif op == INSERTION:
            chars, probs = options_for(text[i])
            if not chars:
                continue
            ins = chars[int(rng.choice(len(chars), p=probs))]
            plans.append(Edit(i + 1, i + 1, ins, cat))
        else:
            j = i + 1 if i + 1 < n else i - 1
            if j < 0:
                continue
            lo = min(i, j)
            if text[lo] == text[lo + 1]:
                continue
            plans.append(Edit(lo, lo + 2, text[lo + 1] + text[lo], cat))
    return plans


def _plan_confusions(text: str, groups: tuple[ConfusionGroup, ...], rate: float,
                     rng: np.random.Generator) -> list[Edit]:
    plans: list[Edit] = []
    option_cache: dict[tuple[str, str], tuple[list[str], np.ndarray]] = {}
    for g in groups:
        for m in _strike(g.sites(text), rate, rng):
            key = (g.pattern, m.group())
            cached = option_cache.get(key)
            if cached is None:
                options, probs = g.replacement_options(m.group())
                cached = (options, np.array(probs, dtype=np.float64))
                option_cache[key] = cached
            options, probs = cached
            if not options:
                continue
            repl = options[int(rng.choice(len(options), p=probs))]
            plans.append(Edit(m.start(), m.end(), repl, g.category))
    return plans


def _plan_gemination(text: str, rate: float, rng: np.random.Generator) -> list[Edit]:
    cat = ErrorCategory.ASSIMILATION_GEMINATION
    return [Edit(i, i + 1, "", cat) for i in _strike(gemination_sites(text), rate, rng)]


def _plan_assimilation(text: str, rate: float, rng: np.random.Generator) -> list[Edit]:
    plans: list[Edit] = []
    cat = ErrorCategory.ASSIMILATION_GEMINATION
    for i in _strike(assimilation_sites(text), rate, rng):
        ch = text[i]
        swapped = VOICING_SWAP[ch.lower()]
        if ch.isupper():
            swapped = swapped.upper()
        plans.append(Edit(i, i + 1, swapped, cat))
    return plans


def _plan_casing(text: str, rate: float, rng: np.random.Generator) -> list[Edit]:
    cat = ErrorCategory.CASING
    return [Edit(i, i + 1, text[i].swapcase(), cat)
            for i in _strike(casing_sites(text), rate, rng)]


def _plan_spaces(text: str, rate: float, rng: np.random.Generator) -> list[Edit]:
    dels, ins = space_sites(text)
    cat = ErrorCategory.SPACES
    plans = [Edit(i, i + 1, "", cat) for i in _strike(dels, rate, rng)]
    plans.extend(Edit(i, i, " ", cat) for i in _strike(ins, rate, rng))
    return plans


# ---------------------------------------------------------------------------
# Rule-invertible errors: the exact inverses of the three cleanup fixers.
# Useful for benchmarking the rule-based corrector on errors it can undo.

_QUOTE_GLYPHS = frozenset("„“")
_MISSING_INVERSES = (
    re.compile(r"(?<=\d) (?=[md]\.)"),
    re.compile(rf"(?<![{_L}{_U}])[{_U}]\. (?=[{_U}][{_L}])"),
    re.compile(rf"(?<![{_L}{_U}])[{_L}{_U}]\. (?=[{_L}{_U}]\.)"),
)
_PUNCT_AFTER = frozenset(",.;:!?)]}")


def _quote_style_options() -> tuple[list[str], np.ndarray]:
    group = default_table().groups[-1]
    options = [v for v, _ in group.variants]
    probs = np.array([c for _, c in group.variants], dtype=np.float64)
    return options, probs / probs.sum()


def _plan_rule_errors(text: str, rate: float, rng: np.random.Generator) -> list[Edit]:
    quotes = [i for i, ch in enumerate(text) if ch in _QUOTE_GLYPHS]
    options, probs = _quote_style_options()
    plans = [
        Edit(i, i + 1, options[int(rng.choice(len(options), p=probs))], ErrorCategory.PUNCTUATION)
        for i in _strike(quotes, rate, rng)
    ]

    seen: set[int] = set()
    for regex in _MISSING_INVERSES:
        for m in regex.finditer(text):
            seen.add(m.end() - 1)
    spaces = sorted(seen)
    plans.extend(Edit(i, i + 1, "", ErrorCategory.SPACES) for i in _strike(spaces, rate, rng))

    punct = [
        i for i, ch in enumerate(text)
        if ch in _PUNCT_AFTER and i > 0 and not text[i - 1].isspace()
    ]
    plans.extend(Edit(i, i, " ", ErrorCategory.SPACES) for i in _strike(punct, rate, rng))
    return plans


# ---------------------------------------------------------------------------
# Public single-family ops: corrupt text with one family, returning the new
# text and the exact inverse edits.

def corrupt_typos(text: str, cfg: CorruptionConfig, kbd: KeyboardModel,
                  rng: np.random.Generator) -> tuple[str, list[Edit]]:
    return apply_plans(text, (), _plan_typos(text, cfg, kbd, rng))


def corrupt_confusions(text: str, table: ConfusionTable, rate: float,
                       rng: np.random.Generator) -> tuple[str, list[Edit]]:
    return apply_plans(text, (), _plan_confusions(text, table.groups, rate, rng))


def corrupt_gemination(text: str, rate: float, rng: np.random.Generator) -> tuple[str, list[Edit]]:
    return apply_plans(text, (), _plan_gemination(text, rate, rng))


def corrupt_assimilation(text: str, rate: float, rng: np.random.Generator) -> tuple[str, list[Edit]]:
    return apply_plans(text, (), _plan_assimilation(text, rate, rng))


def corrupt_casing(text: str, rate: float, rng: np.random.Generator) -> tuple[str, list[Edit]]:
    return apply_plans(text, (), _plan_casing(text, rate, rng))


def corrupt_spaces(text: str, rate: float, rng: np.random.Generator) -> tuple[str, list[Edit]]:
    return apply_plans(text, (), _plan_spaces(text, rate, rng))


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
    confusion_groups = table.by_category(
        enabled & {ErrorCategory.PUNCTUATION, ErrorCategory.SIMILAR_SOUNDING}
    )

    text = sample.text
    raw: list[Edit] = []
    families = (
        (ErrorCategory.TYPOGRAPHICAL in enabled,
         lambda t, r: _plan_typos(t, cfg, kbd, r)),
        (bool(confusion_groups),
         lambda t, r: _plan_confusions(t, confusion_groups, cfg.confusion_rate, r)),
        (ErrorCategory.ASSIMILATION_GEMINATION in enabled,
         lambda t, r: _plan_gemination(t, cfg.other_rate, r)),
        (ErrorCategory.ASSIMILATION_GEMINATION in enabled,
         lambda t, r: _plan_assimilation(t, cfg.other_rate, r)),
        (ErrorCategory.CASING in enabled,
         lambda t, r: _plan_casing(t, cfg.other_rate, r)),
        (ErrorCategory.SPACES in enabled,
         lambda t, r: _plan_spaces(t, cfg.other_rate, r)),
    )
    for index, (on, planner) in enumerate(families):
        if not on:
            continue
        rng = sample_rng(cfg.seed, sample.id, index)
        text, raw = apply_plans(text, raw, planner(text, rng))
    return _gold_pair(sample, text, raw)


_RULE_ERROR_STREAM = 6  # family index reserved for the rule-error generator


def corrupt_rule_errors(sample: TextSample, rate: float = 0.02,
                        seed: int = 0) -> ParallelPair:
    """Corrupt with quote-style swaps and the space errors the cleanup fixers
    undo; every emitted error is rule-invertible."""
    check_rate("rate", rate)
    rng = sample_rng(seed, sample.id, _RULE_ERROR_STREAM)
    text, raw = apply_plans(sample.text, (), _plan_rule_errors(sample.text, rate, rng))
    return _gold_pair(sample, text, raw)
