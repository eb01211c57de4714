"""Golden outputs and reference predicates.

The digests below are SHA-256 sums of ``corrupt``, ``corrupt_rule_errors``,
``noisy_channel_correct`` and ``score`` outputs on fixed inputs. Those whose
inputs come from ``corrupt`` or ``corrupt_rule_errors`` were recorded for RNG
stream version 2 (``random.Random`` streams). The fixed-slips speller digest
draws no stream: it was recorded while the speller still scored every
candidate, and it held across the switch of streams. A refactor that keeps
behaviour keeps every digest. The evaluator's old
gemination and assimilation shape tests are kept here verbatim as the
reference for the site-function versions, and so is the noiser's old
nested-loop category mapping as the reference for its bisecting version.
"""

import hashlib
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PARAGRAPHS, make_corpus
from ltgec.corpus import TextSample
from ltgec.corrector import ChannelModel, build_unigram, noisy_channel_correct
from ltgec.edits import Edit, ErrorCategory, pair_to_json
from ltgec.evaluator import _is_assimilation_shape, _is_gemination_shape, score
from ltgec.noiser import (
    CorruptionConfig,
    _categorize_canonical,
    corrupt,
    corrupt_rule_errors,
)

# Pseudo-sentences, the real paragraphs (quotes, abbreviations, dates) and
# one multi-line sample, so line-break skipping is exercised too.
SAMPLES = (
    make_corpus(200, seed=3)
    + [TextSample(f"p{k}", text) for k, text in enumerate(PARAGRAPHS)]
    + [TextSample("lines", "\n".join(PARAGRAPHS[:3]))]
)

CONFIGS = {
    "default-seed0": CorruptionConfig(seed=0),
    "default-seed42": CorruptionConfig(seed=42),
    "rate0.3": CorruptionConfig(typo_rate=0.3, confusion_rate=0.3, other_rate=0.3),
    "assimilation-gemination": CorruptionConfig(
        other_rate=0.3,
        enabled_groups=frozenset({ErrorCategory.ASSIMILATION_GEMINATION}),
    ),
}

DIGESTS = {
    "corrupt/default-seed0":
        "c4b9e353e4480573b80c9bdb4505d99204c106bcdea59887e30323b5e2caac6a",
    "corrupt/default-seed42":
        "3c7c5303f16595f5b476f8c3dd0698b650e60dc4e6f5e407a4f50496809248c7",
    "corrupt/rate0.3":
        "593436783c35acb55ca0632414af381f9beee328410a08043934290ab14628b1",
    "corrupt/assimilation-gemination":
        "0e9558f0c58bbe5545b2a0f4700460223ed034c2e41ef2034542a8821e406ac7",
    "corrupt_rule_errors/rate0.4":
        "7748ec612aab667625e43c46f8f6347dc70306acdef3e615bb3264639a2ee582",
    "noisy_channel_correct":
        "03b2b598695ba1584dee92e92b010c51588a029628b6a034511396ef8f06889b",
    "noisy_channel_correct/fixed-slips":
        "0b31a58e35a82e2a72909d93f53788b5b5e3c07eb166f1089039092fc9b00d27",
    "score/noisy":
        "9badc967c216b514ae80a8b546b072b52563d3cc7684bfad54e7abc4562f277f",
    "score/cross-seed":
        "ced2ce4876077073d0232ab69777db850f1acc4935c25f7102f4395579da45b3",
}


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corrupted():
    return {name: [corrupt(s, cfg) for s in SAMPLES] for name, cfg in CONFIGS.items()}


@pytest.fixture(scope="module")
def noisy():
    """Twenty moderately corrupted samples and their noisy-channel fixes."""
    cfg = CorruptionConfig(typo_rate=0.05, confusion_rate=0.05, other_rate=0.05)
    pairs = [corrupt(s, cfg) for s in SAMPLES[:20]]
    model = build_unigram([s.text for s in make_corpus(1000, seed=9)])
    return pairs, [noisy_channel_correct(p.source, model) for p in pairs]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_corrupt(corrupted, name):
    assert digest(map(pair_to_json, corrupted[name])) == DIGESTS[f"corrupt/{name}"]


def test_corrupt_rule_errors():
    pairs = [corrupt_rule_errors(s, rate=0.4) for s in SAMPLES]
    assert digest(map(pair_to_json, pairs)) == DIGESTS["corrupt_rule_errors/rate0.4"]


def test_noisy_channel_correct(noisy):
    pairs, hyps = noisy
    assert sum(h != p.source for p, h in zip(pairs, hyps)) > 10
    assert digest(hyps) == DIGESTS["noisy_channel_correct"]
    assert digest([score(pairs, hyps).to_json()]) == DIGESTS["score/noisy"]


_PLAIN = str.maketrans("ąčęėįšųūžĄČĘĖĮŠŲŪŽ", "aceeisuuzACEEISUUZ")


def _slip(word: str, k: int) -> str:
    """A fixed misspelling of the k-th word: none, lost diacritics, a
    transposition, a deleted or a doubled letter. No RNG stream is drawn."""
    mid = len(word) // 2
    kind = k % 5
    if kind == 1:
        return word.translate(_PLAIN)
    if kind == 2 and len(word) > 2:
        return word[0] + word[2] + word[1] + word[3:]
    if kind == 3 and len(word) > 1:
        return word[:mid] + word[mid + 1:]
    if kind == 4:
        return word[:mid + 1] + word[mid:]
    return word


def test_noisy_channel_correct_fixed_slips():
    # pins the speller alone: its inputs come from no corruption stream
    counter = itertools.count()
    texts = [re.sub(r"\w+", lambda m: _slip(m.group(), next(counter)), s.text)
             for s in SAMPLES[:30] + SAMPLES[-8:]]
    model = build_unigram([s.text for s in make_corpus(1000, seed=9)])
    hyps = [noisy_channel_correct(t, model, channel=channel) for channel in (
        ChannelModel(), ChannelModel(typo_rate=0.3, confusion_rate=0.3, other_rate=0.3))
        for t in texts]
    assert sum(h != t for h, t in zip(hyps, texts + texts)) > 30
    assert digest(texts + hyps) == DIGESTS["noisy_channel_correct/fixed-slips"]


def test_score_cross_seed(corrupted):
    # another seed's corruption as the hypothesis: every spurious edit shape
    # goes through classify_edit
    hyps = [p.source for p in corrupted["default-seed42"]]
    report = score(corrupted["default-seed0"], hyps)
    assert digest([report.to_json()]) == DIGESTS["score/cross-seed"]


# ---------------------------------------------------------------------------
# The evaluator's shape tests as they were written against the noiser's
# private letter sets, kept verbatim as the reference.

_CONSONANTS = frozenset("bcčdfghjklmnprsštvzžqwx")
_SIBILANTS = frozenset("cčsšzž")
_VOICELESS = frozenset("ptksš")
_VOICED = frozenset("bdgzž")
VOICING_SWAP = {"p": "b", "b": "p", "t": "d", "d": "t", "k": "g", "g": "k",
                "s": "z", "z": "s", "š": "ž", "ž": "š"}


def _ref_gemination_shape(edit: Edit, source: str) -> bool:
    span = source[edit.start:edit.end]
    repl = edit.replacement
    if span and repl:
        return False
    letter = repl or span
    if len(letter) != 1 or letter.lower() not in _CONSONANTS:
        return False
    lo = letter.lower()
    left = source[edit.start - 1] if edit.start > 0 else ""
    right = source[edit.end] if edit.end < len(source) else ""
    for neighbor in (left, right):
        if not neighbor:
            continue
        nb = neighbor.lower()
        if nb == lo or (nb in _SIBILANTS and lo in _SIBILANTS):
            return True
    return False


def _ref_assimilation_shape(edit: Edit, source: str) -> bool:
    span = source[edit.start:edit.end]
    repl = edit.replacement
    if len(span) != 1 or len(repl) != 1:
        return False
    x = span.lower()
    y = repl.lower()
    if VOICING_SWAP.get(x) != y:
        return False
    if edit.end >= len(source):
        return False
    trigger = source[edit.end].lower()
    # the corrupted letter must agree in voicing with what follows it, which
    # is what assimilation produces and a plain letter swap usually does not
    if x in _VOICELESS:
        return trigger in _VOICELESS
    return trigger in _VOICED


def assert_shapes_agree(edit: Edit, source: str) -> None:
    assert _is_gemination_shape(edit, source) == _ref_gemination_shape(edit, source)
    assert _is_assimilation_shape(edit, source) == _ref_assimilation_shape(edit, source)


SHAPE_ALPHABET = "ssSšzbpPtdgkaAxž čİ"


@st.composite
def edits_in_context(draw):
    source = draw(st.text(SHAPE_ALPHABET, max_size=5))
    start = draw(st.integers(0, len(source)))
    end = draw(st.integers(start, min(len(source), start + 2)))
    return Edit(start, end, draw(st.text(SHAPE_ALPHABET, max_size=2))), source


@settings(max_examples=500)
@given(edits_in_context())
def test_shapes_match_reference(case):
    assert_shapes_agree(*case)


def test_shapes_match_reference_exhaustively():
    # every edit of at most one character over every source of up to three
    # characters drawn from letters that cover each branch of both tests
    letters = "sSšzbtaž"
    for n in range(4):
        for chars in itertools.product(letters, repeat=n):
            source = "".join(chars)
            for start in range(n + 1):
                for end in range(start, min(n, start + 1) + 1):
                    for repl in ("", *letters):
                        assert_shapes_agree(Edit(start, end, repl), source)


# ---------------------------------------------------------------------------
# The noiser's category mapping as it scanned every raw edit for every
# canonical edit, kept verbatim as the reference.

def _span_gap(a_start: int, a_end: int, b_start: int, b_end: int) -> int:
    return max(b_start - a_end, a_start - b_end, 0)


def _ref_categorize_canonical(canonical: list[Edit], raw: list[Edit]) -> list[Edit]:
    if not raw:
        return canonical
    out: list[Edit] = []
    for e in canonical:
        best = None
        best_gap = None
        for r in raw:
            gap = _span_gap(e.start, e.end, r.start, r.end)
            if best_gap is None or gap < best_gap:
                best, best_gap = r, gap
                if gap == 0:
                    break
        out.append(Edit(e.start, e.end, e.replacement, best.category))
    return out


@st.composite
def raw_and_canonical(draw):
    """Sorted, disjoint raw edits, often zero-width or touching, and spans
    anywhere around them."""
    raw, pos = [], 0
    for gap, width, category in draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2), st.sampled_from(ErrorCategory)),
            max_size=8)):
        pos += gap
        raw.append(Edit(pos, pos + width, "", category))
        pos += width
    spans = draw(st.lists(st.tuples(st.integers(0, pos + 3), st.integers(0, 3)), max_size=6))
    return [Edit(s, s + w, "x") for s, w in spans], raw


@settings(max_examples=1000)
@given(raw_and_canonical())
def test_categorize_matches_reference(case):
    assert _categorize_canonical(*case) == _ref_categorize_canonical(*case)


def test_categorize_takes_first_of_a_plateau():
    # a zero-width raw edit repeats its neighbour's end, so both lie 3 away
    raw = [Edit(2, 5, "", ErrorCategory.SPACES), Edit(5, 5, "", ErrorCategory.CASING)]
    canonical = [Edit(8, 9, "x")]
    assert _categorize_canonical(canonical, raw)[0].category == ErrorCategory.SPACES
    assert _categorize_canonical(canonical, raw) == _ref_categorize_canonical(canonical, raw)
