"""Corpus cleaning, statistical filtering, deduplication and splitting.

Operates on TextSample records. The cleanup fixers target the error styles
common in scraped Lithuanian text: wrong quote glyphs, missing spaces after
abbreviation periods, stray spaces before punctuation.
"""

from __future__ import annotations

import json
import math
import re
import string
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TextIO


@dataclass(frozen=True, slots=True)
class TextSample:
    """One corpus sample; ``source`` optionally names where it came from."""

    id: str
    text: str
    source: str | None = None


# Filter rejection reasons, in the order the checks run.
TOO_SHORT = "TooShort"
LOW_LETTER_FRACTION = "LowLetterFraction"
SPACE_RATIO = "SpaceRatio"
DUPLICATE = "Duplicate"
KEPT = "Kept"

FILTER_REASONS = (TOO_SHORT, LOW_LETTER_FRACTION, SPACE_RATIO, DUPLICATE, KEPT)


@dataclass(frozen=True)
class FilterConfig:
    min_chars: int = 20
    min_letter_fraction: float = 0.98
    space_fraction_bound: float = 0.02
    # "minimum" discards below the bound (spaceless junk such as URLs),
    # "maximum" discards above it.
    space_fraction_mode: str = "minimum"
    extra_allowed_chars: str = "€₤$%wx"

    def __post_init__(self):
        if self.space_fraction_mode not in ("minimum", "maximum"):
            raise ValueError(
                f"space_fraction_mode must be 'minimum' or 'maximum', "
                f"got {self.space_fraction_mode!r}"
            )


@dataclass(frozen=True)
class FilterVerdict:
    keep: bool
    reason: str


LITHUANIAN_DIACRITICS = "ąčęėįšųūžĄČĘĖĮŠŲŪŽ"
_LETTERS = string.ascii_letters + LITHUANIAN_DIACRITICS
_STANDARD_PUNCT = '.,;:!?()[]"„“–-\'/%'
_BASE_ALLOWED = frozenset(_LETTERS + string.digits + _STANDARD_PUNCT)

# Quote tokens recognised by normalize_quotes. Two-char styles first so the
# scanner prefers them over their single-char prefixes.
_QUOTE_TOKEN = re.compile("``|''|‘‘|,,|[\"“”„]")

_L = "a-ząčęėįšųūž"
_U = "A-ZĄČĘĖĮŠŲŪŽ"
# digit glued to an m./d. abbreviation: 1918m. -> 1918 m.
_MISSING_AFTER_DIGIT = re.compile(r"(?<=\d)(?=[md]\.)")
# single-letter initial glued to a capitalised word: A.Sabonis -> A. Sabonis
_MISSING_AFTER_INITIAL = re.compile(rf"(?<![{_L}{_U}])([{_U}])\.(?=[{_U}][{_L}])")
# run-together abbreviation periods: t.t. -> t. t.
_MISSING_BETWEEN_ABBREV = re.compile(rf"(?<![{_L}{_U}])([{_L}{_U}])\.(?=[{_L}{_U}]\.)")
# horizontal whitespace before punctuation or a closing bracket
_EXTRA_SPACE = re.compile(r"[ \t]+(?=[,.;:!?)\]}])")

_PREPROCESS_MAX_ROUNDS = 16


def normalize_quotes(text: str) -> str:
    """Rewrite paired quote marks of any common style to Lithuanian „...“.

    Quote tokens are paired up left to right; an unpaired trailing token is
    left untouched. Everything outside the tokens is preserved byte for byte.
    """
    matches = list(_QUOTE_TOKEN.finditer(text))
    if len(matches) < 2:
        return text
    out = []
    pos = 0
    paired = len(matches) - (len(matches) % 2)
    for k in range(paired):
        m = matches[k]
        out.append(text[pos:m.start()])
        out.append("„" if k % 2 == 0 else "“")
        pos = m.end()
    out.append(text[pos:])
    return "".join(out)


def fix_missing_space(text: str) -> str:
    """Insert the space dropped after abbreviation periods (1918m., A.Sabonis, t.t.)."""
    text = _MISSING_AFTER_DIGIT.sub(" ", text)
    text = _MISSING_AFTER_INITIAL.sub(r"\1. ", text)
    text = _MISSING_BETWEEN_ABBREV.sub(r"\1. ", text)
    return text


def fix_extra_space(text: str) -> str:
    """Drop whitespace wedged before punctuation: `darbui ,` -> `darbui,`."""
    return _EXTRA_SPACE.sub("", text)


def preprocess(text: str) -> str:
    """Apply all three fixers (quotes, missing space, extra space) to a fixed point.

    One round is almost always enough; the loop guards the idempotence
    guarantee on inputs where one fixer exposes work for another.
    """
    for _ in range(_PREPROCESS_MAX_ROUNDS):
        fixed = fix_extra_space(fix_missing_space(normalize_quotes(text)))
        if fixed == text:
            return text
        text = fixed
    return text


def preprocess_sample(sample: TextSample) -> TextSample:
    return TextSample(sample.id, preprocess(sample.text), sample.source)


def letter_fraction(text: str, extra: str = FilterConfig.extra_allowed_chars) -> float:
    """Fraction of non-space characters drawn from the allowed Lithuanian set.

    Allowed: Latin and Lithuanian letters, digits, standard punctuation, plus
    ``extra``. Returns 1.0 for empty or all-space text.
    """
    allowed = _BASE_ALLOWED | set(extra)
    total = 0
    ok = 0
    for ch in text:
        if ch.isspace():
            continue
        total += 1
        if ch in allowed:
            ok += 1
    return ok / total if total else 1.0


def space_ratio(text: str) -> float:
    """Ratio of space characters to non-space characters (0 for empty text)."""
    spaces = sum(1 for ch in text if ch.isspace())
    rest = len(text) - spaces
    if rest == 0:
        return 0.0 if spaces == 0 else math.inf
    return spaces / rest


def filter_sample(sample: TextSample, cfg: FilterConfig = FilterConfig()) -> FilterVerdict:
    """Run the statistical filters in fixed order; the first failure wins."""
    if len(sample.text) < cfg.min_chars:
        return FilterVerdict(False, TOO_SHORT)
    if letter_fraction(sample.text, cfg.extra_allowed_chars) < cfg.min_letter_fraction:
        return FilterVerdict(False, LOW_LETTER_FRACTION)
    ratio = space_ratio(sample.text)
    if cfg.space_fraction_mode == "minimum":
        if ratio < cfg.space_fraction_bound:
            return FilterVerdict(False, SPACE_RATIO)
    else:
        if ratio > cfg.space_fraction_bound:
            return FilterVerdict(False, SPACE_RATIO)
    return FilterVerdict(True, KEPT)


def dedupe(samples: Iterable[TextSample]) -> Iterator[TextSample]:
    """Drop exact duplicates (whitespace-trimmed text); first occurrence wins."""
    seen = set()
    for sample in samples:
        key = sample.text.strip()
        if key in seen:
            continue
        seen.add(key)
        yield sample


def split_long_parts(text: str, max_chars: int) -> tuple[list[str], list[str]]:
    """Split into pieces of at most ``max_chars``, recording removed separators.

    Split points fall on the last whitespace at or before the limit; a word
    longer than the limit is split mid-word with an empty separator. Joining
    pieces[i] + seps[i] in order reproduces the input exactly.
    """
    if max_chars < 1:
        raise ValueError("max_chars must be >= 1")
    pieces: list[str] = []
    seps: list[str] = []
    pos = 0
    n = len(text)
    while n - pos > max_chars:
        limit = pos + max_chars
        if text[limit].isspace():
            cut, resume = limit, limit + 1
        else:
            ws = -1
            for j in range(limit - 1, pos, -1):
                if text[j].isspace():
                    ws = j
                    break
            if ws > pos:
                cut, resume = ws, ws + 1
            else:
                cut, resume = limit, limit
        pieces.append(text[pos:cut])
        seps.append(text[cut:resume])
        pos = resume
    pieces.append(text[pos:])
    seps.append("")
    return pieces, seps


def split_long(text: str, max_chars: int) -> list[str]:
    """Like split_long_parts but returns only the pieces."""
    return split_long_parts(text, max_chars)[0]


# ---------------------------------------------------------------------------
# Corpus I/O: JSONL records {"id", "text", "source"?} and plain-text ingestion.

def sample_to_json(sample: TextSample) -> str:
    record: dict = {"id": sample.id, "text": sample.text}
    if sample.source is not None:
        record["source"] = sample.source
    return json.dumps(record, ensure_ascii=False)


def record_id(record: dict) -> str:
    """A JSONL record's id: a string, or an integer read in decimal."""
    rid = record["id"]
    if isinstance(rid, str):
        return rid
    if isinstance(rid, int) and not isinstance(rid, bool):
        return str(rid)
    raise TypeError(f"id must be a string or an integer, got {type(rid).__name__}")


def sample_from_json(line: str) -> TextSample:
    """One JSONL record; a null ``source`` reads as an absent one."""
    record = json.loads(line)
    text, source = record["text"], record.get("source")
    if not isinstance(text, str):
        raise TypeError(f"text must be a string, got {type(text).__name__}")
    if not isinstance(source, (str, type(None))):
        raise TypeError(f"source must be a string, got {type(source).__name__}")
    return TextSample(record_id(record), text, source)


def read_numbered(fp: TextIO, parse: Callable[[str], object],
                  what: str) -> Iterator[tuple[int, object]]:
    """JSONL records read by ``parse``, each with the number of the line it
    was read from; blank lines are skipped. A record ``parse`` rejects is a
    ValueError that names ``what`` and the line."""
    for lineno, line in enumerate(fp, 1):
        line = line.strip()
        if not line:
            continue
        try:
            yield lineno, parse(line)
        except KeyError as exc:
            raise ValueError(f"bad {what} record on line {lineno}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad {what} record on line {lineno}: {exc}") from exc


def read_samples(fp: TextIO) -> Iterator[TextSample]:
    return (sample for _, sample in read_numbered(fp, sample_from_json, "sample"))


def write_samples(samples: Iterable[TextSample], fp: TextIO) -> int:
    count = 0
    for sample in samples:
        fp.write(sample_to_json(sample) + "\n")
        count += 1
    return count


_BLANK_LINES = re.compile(r"\n\s*\n")


def read_text_paragraphs(fp: TextIO, source: str | None = None) -> Iterator[TextSample]:
    """Ingest plain text: paragraphs split on blank lines, sequential ids.

    Lines inside a paragraph are joined with single spaces so samples stay
    single-line (the M2 writer requires that).
    """
    raw = fp.read()
    index = 0
    for block in _BLANK_LINES.split(raw):
        text = " ".join(block.split())
        if not text:
            continue
        yield TextSample(str(index), text, source)
        index += 1
