"""Baseline correctors: deterministic cleanup rules and a noisy-channel
unigram speller.

A candidate correction is scored by the probability that corrupting it
yields the observed word, using the noiser's per-family error rates, keyboard
adjacency and confusion weights, and the typo mix, rate checks and site
functions that families.py defines for both. The channel does not mirror
the corruption process fully: it has no gemination, assimilation or space
routes, and it counts a casing site at every word start, where the noiser
skips sentence starts.

The speller scores only candidates that can win. A route c with channel
weight q scores prior(c) + log(identity(c) * q), and identity(c) <= 1, so
prior(c) + log(q) bounds its score from above. The observed word's exact
score is the first best; a candidate whose bound falls strictly below the
best so far can neither win nor tie, and is skipped without computing its
identity probability. The output equals scoring every candidate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, TextIO

from .confusions import ConfusionTable, default_table
from .corpus import TextSample, preprocess
from .keyboard import KeyboardModel, default_keyboard
from .families import (
    DEFAULT_TYPO_MIX,
    DELETION,
    INSERTION,
    SUBSTITUTION,
    TRANSPOSITION,
    assimilation_sites,
    check_rates,
    gemination_sites,
    space_sites,
)
from .tokenstats import EmptyCorpusError, tokenize_words


def rule_correct(text: str) -> str:
    """Deterministic cleanup: quote normalization and spacing fixes."""
    return preprocess(text)


@dataclass(frozen=True)
class UnigramModel:
    counts: dict
    total: int

    @property
    def vocab_size(self) -> int:
        return len(self.counts)

    def log_prob(self, word: str) -> float:
        # add-one smoothing keeps unseen words scorable
        return math.log(
            (self.counts.get(word, 0) + 1) / (self.total + self.vocab_size)
        )


def build_unigram(corpus: Iterable[TextSample | str]) -> UnigramModel:
    counts: dict[str, int] = {}
    total = 0
    for sample in corpus:
        text = sample.text if isinstance(sample, TextSample) else sample
        for word in tokenize_words(text):
            counts[word] = counts.get(word, 0) + 1
            total += 1
    if total == 0:
        raise EmptyCorpusError("language model needs a non-empty corpus")
    return UnigramModel(counts, total)


def save_model(model: UnigramModel, fp: TextIO) -> None:
    fp.write(f"# unigram total={model.total} vocab={model.vocab_size}\n")
    for word in sorted(model.counts):
        fp.write(f"{word}\t{model.counts[word]}\n")


def load_model(fp: TextIO) -> UnigramModel:
    counts: dict[str, int] = {}
    total = 0
    for lineno, raw in enumerate(fp, start=1):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"model line {lineno}: expected 'word<TAB>count'")
        word, count_text = parts
        try:
            count = int(count_text)
        except ValueError:
            raise ValueError(f"model line {lineno}: bad count {count_text!r}") from None
        if count <= 0:
            raise ValueError(f"model line {lineno}: count must be positive")
        if word in counts:
            raise ValueError(f"model line {lineno}: duplicate word {word!r}")
        counts[word] = count
        total += count
    if not counts:
        raise ValueError("model file has no entries")
    return UnigramModel(counts, total)


@dataclass(frozen=True)
class ChannelModel:
    typo_rate: float = 0.02
    confusion_rate: float = 0.02
    other_rate: float = 0.02
    typo_mix: dict = field(default_factory=lambda: dict(DEFAULT_TYPO_MIX))

    def __post_init__(self):
        check_rates(self, allow_one=False)


_WORD = re.compile(r"\w+")


def _identity_prob(word: str, channel: ChannelModel, table: ConfusionTable) -> float:
    """Probability the corruption process leaves this word untouched."""
    p = (1.0 - channel.typo_rate) ** len(word)
    for g in table.groups:
        p *= (1.0 - channel.confusion_rate) ** len(g.sites(word))
    # Casing counts every word start, sentence starts included, where the
    # noiser never flips: the known deviation of ROADMAP open item 3.
    other_sites = (len(gemination_sites(word)) + len(assimilation_sites(word))
                   + len(space_sites(word)[1]) + word[:1].isalpha())
    return p * (1.0 - channel.other_rate) ** other_sites


def _normalized_options(kbd: KeyboardModel, ch: str) -> tuple[list[str], list[float]]:
    chars, weights = kbd.substitution_options(ch)
    total = sum(weights)
    if not chars or total <= 0:
        return [], []
    return chars, [w / total for w in weights]


def _routes(word: str, channel: ChannelModel, table: ConfusionTable,
            kbd: KeyboardModel) -> dict[str, float]:
    """Candidate corrections mapped to the summed probability q of one
    corruption step turning them into the observed word, scaled by rate."""
    mix = channel.typo_mix
    routes: dict[str, float] = {}

    def add(cand: str, rate: float, q: float):
        if cand == word or q <= 0 or rate <= 0:
            return
        routes[cand] = routes.get(cand, 0.0) + rate * q / (1.0 - rate)

    for g in table.groups:
        for m in g.sites(word):
            options, probs = g.replacement_options(m.group())
            for variant, q in zip(options, probs):
                add(word[:m.start()] + variant + word[m.end():],
                    channel.confusion_rate, q)

    for i, ch in enumerate(word):
        chars, probs = _normalized_options(kbd, ch)
        for o, q in zip(chars, probs):
            if o != ch:
                add(word[:i] + o + word[i + 1:], channel.typo_rate,
                    mix[SUBSTITUTION] * q)
        # observed char may be a stray insertion next to its left neighbor
        if i > 0:
            left_chars, left_probs = _normalized_options(kbd, word[i - 1])
            if ch in left_chars:
                q = left_probs[left_chars.index(ch)]
                add(word[:i] + word[i + 1:], channel.typo_rate,
                    mix[INSERTION] * q)
        # or a char may have been deleted right after this one
        for o, _ in zip(chars, probs):
            add(word[:i + 1] + o + word[i + 1:], channel.typo_rate,
                mix[DELETION])
        if i + 1 < len(word) and word[i] != word[i + 1]:
            add(word[:i] + word[i + 1] + word[i] + word[i + 2:],
                channel.typo_rate, mix[TRANSPOSITION])

    if word and word[0].isalpha():
        flipped = word[0].swapcase()
        if flipped != word[0] and len(flipped) == 1:
            add(flipped + word[1:], channel.other_rate, 1.0)
    return routes


def candidates(word: str, table: ConfusionTable | None = None,
               kbd: KeyboardModel | None = None) -> list[str]:
    """All corrections considered for a word, the word itself first."""
    table = table if table is not None else default_table()
    kbd = kbd if kbd is not None else default_keyboard()
    return [word, *_routes(word, ChannelModel(), table, kbd)]


def _log_or_ninf(p: float) -> float:
    return math.log(p) if p > 0 else float("-inf")


def _best_candidate(word: str, model: UnigramModel, channel: ChannelModel,
                    table: ConfusionTable, kbd: KeyboardModel) -> str:
    """The argmax of prior + log(identity * q) over the word (identity
    route, wins ties) and its routes, ties then broken by the smaller
    candidate. A route whose bound prior + log(q) is strictly below the best
    score so far is skipped unscored: identity <= 1, so it can neither win
    nor tie."""
    best = (-(model.log_prob(word) + _log_or_ninf(_identity_prob(word, channel, table))),
            0, word)
    for cand, q in _routes(word, channel, table, kbd).items():
        prior = model.log_prob(cand)
        if prior + _log_or_ninf(q) < -best[0]:
            continue
        key = (-(prior + _log_or_ninf(_identity_prob(cand, channel, table) * q)), 1, cand)
        if key < best:
            best = key
    return best[2]


def noisy_channel_correct(text: str, model: UnigramModel,
                          channel: ChannelModel | None = None,
                          table: ConfusionTable | None = None,
                          kbd: KeyboardModel | None = None) -> str:
    """Rule pass, then per-word argmax of unigram prior times channel prob."""
    channel = channel if channel is not None else ChannelModel()
    table = table if table is not None else default_table()
    kbd = kbd if kbd is not None else default_keyboard()
    text = rule_correct(text)
    cache: dict[str, str] = {}
    out: list[str] = []
    last = 0
    for m in _WORD.finditer(text):
        word = m.group()
        best = cache.get(word)
        if best is None:
            best = _best_candidate(word, model, channel, table, kbd)
            cache[word] = best
        out.append(text[last:m.start()])
        out.append(best)
        last = m.end()
    out.append(text[last:])
    return "".join(out)
