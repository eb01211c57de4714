"""Error-family definitions shared by the noiser, the corrector and the
evaluator: the typo operations and their mix, the rate checks, the letter
sets and the site functions that say where each family can strike.

Nothing here draws random numbers; the ops that draw on these sites live
in noiser.py. The module stands apart from the noiser because the corrector
and the evaluator read it, and it is where one table of whole family
definitions (sites, op, inverse routes, shape) would go.
"""

from __future__ import annotations

import re

from .edits import ErrorCategory

SUBSTITUTION = "substitution"
DELETION = "deletion"
INSERTION = "insertion"
TRANSPOSITION = "transposition"
TYPO_OPS = (SUBSTITUTION, DELETION, INSERTION, TRANSPOSITION)

DEFAULT_TYPO_MIX = {
    SUBSTITUTION: 0.361,
    DELETION: 0.317,
    INSERTION: 0.178,
    TRANSPOSITION: 0.144,
}

ALL_GROUPS = frozenset(ErrorCategory) - {ErrorCategory.OTHER}


def check_rate(name: str, rate: float, allow_one: bool = True) -> None:
    """Reject a rate outside [0, 1], or outside [0, 1) without ``allow_one``,
    for callers that divide by 1 - rate."""
    if not (0.0 <= rate <= 1.0 and (allow_one or rate < 1.0)):
        raise ValueError(f"{name} must be in [0, 1{']' if allow_one else ')'}, got {rate}")


def check_rates(params, allow_one: bool = True) -> None:
    """Validate the three family rates and the typo mix of ``params``, a
    CorruptionConfig or a channel model."""
    for name in ("typo_rate", "confusion_rate", "other_rate"):
        check_rate(name, getattr(params, name), allow_one)
    if set(params.typo_mix) != set(TYPO_OPS):
        raise ValueError(f"typo_mix must have exactly the keys {TYPO_OPS}")
    if any(w < 0 for w in params.typo_mix.values()):
        raise ValueError("typo_mix weights must be non-negative")
    if abs(sum(params.typo_mix.values()) - 1.0) > 1e-6:
        raise ValueError("typo_mix weights must sum to 1")


_CONSONANTS = frozenset("bcčdfghjklmnprsštvzžqwx")
_SIBILANTS = frozenset("cčsšzž")


def gemination_sites(text: str) -> list[int]:
    """Leftmost non-overlapping doubled consonants or sibilant pairs."""
    sites: list[int] = []
    i = 0
    n = len(text)
    while i < n - 1:
        c1 = text[i].lower()
        c2 = text[i + 1].lower()
        if (c1 == c2 and c1 in _CONSONANTS) or (c1 in _SIBILANTS and c2 in _SIBILANTS):
            sites.append(i)
            i += 2
        else:
            i += 1
    return sites


_VOICELESS = frozenset("ptksš")
_VOICED = frozenset("bdgzž")
VOICING_SWAP = {"p": "b", "b": "p", "t": "d", "d": "t", "k": "g", "g": "k",
                "s": "z", "z": "s", "š": "ž", "ž": "š"}


def assimilation_sites(text: str) -> list[int]:
    """Positions where a voiceless consonant precedes a voiced one or vice versa."""
    sites: list[int] = []
    for i in range(len(text) - 1):
        c1 = text[i].lower()
        c2 = text[i + 1].lower()
        if (c1 in _VOICELESS and c2 in _VOICED) or (c1 in _VOICED and c2 in _VOICELESS):
            sites.append(i)
    return sites


_WORD = re.compile(r"\w+")
_CASING_SKIP = frozenset(" \t\n\r\"„“”'‘’«»()[]{}—–-")
_SENTENCE_END = frozenset(".!?…")


def casing_sites(text: str) -> list[int]:
    """Start offsets of words eligible for a first-letter case flip.

    Sentence-initial words (the first word, or one following ., ! or ? plus
    whitespace and any quotes or brackets) are excluded.
    """
    sites: list[int] = []
    for m in _WORD.finditer(text):
        start = m.start()
        ch = text[start]
        if not ch.isalpha():
            continue
        flipped = ch.swapcase()
        if flipped == ch or len(flipped) != 1:
            continue
        k = start - 1
        while k >= 0 and text[k] in _CASING_SKIP:
            k -= 1
        if k < 0 or text[k] in _SENTENCE_END:
            continue
        sites.append(start)
    return sites


def space_sites(text: str) -> tuple[list[int], list[int]]:
    """(deletable space positions, intra-word insertion points)."""
    dels = [i for i, ch in enumerate(text) if ch == " "]
    ins = [
        i for i in range(1, len(text))
        if text[i - 1].isalpha() and text[i].isalpha()
    ]
    return dels, ins
