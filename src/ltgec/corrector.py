"""Baseline correctors: deterministic cleanup rules and a noisy-channel
unigram speller.

A candidate correction is scored by the probability that corrupting it
yields the observed word, using the noiser's per-family error rates, keyboard
adjacency and confusion weights, and the typo mix, rate checks and site
functions that families.py defines for both. The channel does not mirror
the corruption process fully: it has no gemination, assimilation or space
routes, and it counts a casing site at every word start, where the noiser
skips sentence starts.

A Speller holds one model, channel, confusion table and keyboard, and is
built once to correct many texts. It fills its keyboard and confusion
options on first use, finds a word's confusion sites once for both its
identity probability and its routes, and keeps a word -> best memo across
texts. A memo entry is a pure function of its word, so outputs do not depend
on which texts one Speller saw before, nor on how the memo was cleared; each
pool worker of ``ltgec correct`` keeps its own. noisy_channel_correct
corrects one text through a fresh Speller.

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

# Memo entries kept before the memo is cleared. Each entry is a pure function
# of its word, so clearing changes no output; it only bounds memory.
MEMO_SIZE = 1 << 16


class Speller:
    """The noisy-channel speller over one model, channel, confusion table and
    keyboard, built once and reused across texts.

    Building one costs O(1): keyboard options per character, replacement
    options per confusion surface and the best correction per word are filled
    on first use and kept. The word memo is cleared whenever it reaches
    MEMO_SIZE entries.
    """

    def __init__(self, model: UnigramModel, channel: ChannelModel | None = None,
                 table: ConfusionTable | None = None, kbd: KeyboardModel | None = None):
        self.model = model
        self.channel = channel if channel is not None else ChannelModel()
        self.table = table if table is not None else default_table()
        self.kbd = kbd if kbd is not None else default_keyboard()
        # The prior's denominator as an int, not its log: log(a / b) and
        # log(a) - log(b) can differ in the last bit and move a tie. The
        # prior of an unseen word is log(1 / denominator), as log_prob has it.
        self.denominator = model.total + model.vocab_size
        self.unseen_prior = math.log(1 / self.denominator)
        self._keyboard_options: dict[str, tuple[list[str], list[float]]] = {}
        self._confusion_options: dict[tuple[int, str], tuple[list[str], list[float]]] = {}
        self._memo: dict[str, str] = {}

    def prior(self, word: str) -> float:
        """UnigramModel.log_prob, computed the same way."""
        count = self.model.counts.get(word)
        if count is None:
            return self.unseen_prior
        return math.log((count + 1) / self.denominator)

    def keyboard_options(self, ch: str) -> tuple[list[str], list[float]]:
        """The keyboard's substitution options for ch, weights summing to 1."""
        options = self._keyboard_options.get(ch)
        if options is None:
            chars, weights = self.kbd.substitution_options(ch)
            total = sum(weights)
            options = ([], []) if not chars or total <= 0 else (
                chars, [w / total for w in weights])
            self._keyboard_options[ch] = options
        return options

    def confusion_options(self, k: int, surface: str) -> tuple[list[str], list[float]]:
        """Replacement options of a surface matched by the table's group k."""
        options = self._confusion_options.get((k, surface))
        if options is None:
            options = self.table.groups[k].replacement_options(surface)
            self._confusion_options[k, surface] = options
        return options

    def sites(self, word: str) -> list[list[re.Match]]:
        """Each confusion group's sites in the word, in table order."""
        return [g.sites(word) for g in self.table.groups]

    def identity(self, word: str, sites: list[list[re.Match]]) -> float:
        """Probability the corruption process leaves this word untouched."""
        channel = self.channel
        p = (1.0 - channel.typo_rate) ** len(word)
        for found in sites:
            p *= (1.0 - channel.confusion_rate) ** len(found)
        # Casing counts every word start, sentence starts included, where the
        # noiser never flips: the known deviation of ROADMAP open item 3.
        other_sites = (len(gemination_sites(word)) + len(assimilation_sites(word))
                       + len(space_sites(word)[1]) + word[:1].isalpha())
        return p * (1.0 - channel.other_rate) ** other_sites

    def correct(self, text: str) -> str:
        """Rule pass, then per-word argmax of unigram prior times channel
        prob."""
        text = rule_correct(text)
        memo = self._memo
        out: list[str] = []
        last = 0
        for m in _WORD.finditer(text):
            word = m.group()
            best = memo.get(word)
            if best is None:
                if len(memo) >= MEMO_SIZE:
                    memo.clear()
                best = memo[word] = _best_candidate(word, self)
            out.append(text[last:m.start()])
            out.append(best)
            last = m.end()
        out.append(text[last:])
        return "".join(out)


def _routes(word: str, speller: Speller, sites: list[list[re.Match]]) -> dict[str, float]:
    """Candidate corrections mapped to the summed probability q of one
    corruption step turning them into the observed word, scaled by rate.
    ``sites`` are the word's confusion sites, as Speller.sites finds them."""
    channel, keyboard = speller.channel, speller.keyboard_options
    mix = channel.typo_mix
    routes: dict[str, float] = {}

    def add(cand: str, rate: float, q: float):
        if cand == word or q <= 0 or rate <= 0:
            return
        routes[cand] = routes.get(cand, 0.0) + rate * q / (1.0 - rate)

    for k, found in enumerate(sites):
        for m in found:
            options, probs = speller.confusion_options(k, m.group())
            for variant, q in zip(options, probs):
                add(word[:m.start()] + variant + word[m.end():],
                    channel.confusion_rate, q)

    for i, ch in enumerate(word):
        chars, probs = keyboard(ch)
        for o, q in zip(chars, probs):
            if o != ch:
                add(word[:i] + o + word[i + 1:], channel.typo_rate,
                    mix[SUBSTITUTION] * q)
        # observed char may be a stray insertion next to its left neighbor
        if i > 0:
            left_chars, left_probs = keyboard(word[i - 1])
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
    speller = Speller(UnigramModel({}, 1), table=table, kbd=kbd)  # routes read no model
    return [word, *_routes(word, speller, speller.sites(word))]


def _log_or_ninf(p: float) -> float:
    return math.log(p) if p > 0 else float("-inf")


def _best_candidate(word: str, speller: Speller) -> str:
    """The argmax of prior + log(identity * q) over the word (identity
    route, wins ties) and its routes, ties then broken by the smaller
    candidate. A route whose bound prior + log(q) is strictly below the best
    score so far is skipped unscored: identity <= 1, so it can neither win
    nor tie."""
    prior, identity = speller.prior, speller.identity
    sites = speller.sites(word)
    best = (-(prior(word) + _log_or_ninf(identity(word, sites))), 0, word)
    for cand, q in _routes(word, speller, sites).items():
        cand_prior = prior(cand)
        if cand_prior + _log_or_ninf(q) < -best[0]:
            continue
        key = (-(cand_prior + _log_or_ninf(identity(cand, speller.sites(cand)) * q)),
               1, cand)
        if key < best:
            best = key
    return best[2]


def noisy_channel_correct(text: str, model: UnigramModel,
                          channel: ChannelModel | None = None,
                          table: ConfusionTable | None = None,
                          kbd: KeyboardModel | None = None) -> str:
    """Correct one text through a fresh Speller. To correct many texts,
    build one Speller and call its ``correct``: its tables and word memo
    then live across the texts."""
    return Speller(model, channel, table, kbd).correct(text)
