"""Seeded input generator for the pipeline benchmark.

Everything here is a pure function of the seed: the same seed gives
byte-identical JSONL files. Words are drawn Zipf-distributed from a
vocabulary of inflected Lithuanian forms (stems x endings, prefixed verbs),
so words repeat across texts the way they do in news corpora. Raw lines
carry the dirt ``ltgec preprocess`` exists to clean: mixed quote styles,
missing spaces after abbreviations, stray spaces before commas, exact
duplicates, too-short lines, symbol-heavy lines and spaceless URLs, plus one
line longer than the default ``--max-chars`` so the splitter runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Vocabulary. Classes pair stems with their inflection endings.

_MASC_AS = (
    "darb", "miest", "laik", "rajon", "projekt", "sprendim", "klausim",
    "tyrim", "gyvenim", "bank", "centr", "universitet", "dokument",
    "prezident", "student", "profesor", "kaim", "tilt", "ežer", "krašt",
    "mišk", "gydytoj", "mokytoj", "gyventoj", "vadov", "ministr", "teism",
    "įstatym", "biudžet", "rinkim", "atsakym", "pasiūlym", "susitarim",
    "dalyv", "sportinink", "žurnalist", "autobus", "traukin", "laišk",
    "skaičiavim", "pastat", "turt", "mokslinink", "tėv", "brol", "sod",
)
_MASC_AS_END = ("as", "o", "ui", "ą", "u", "e", "ai", "ų", "ams", "us", "uose")

_FEM_E = (
    "gatv", "up", "prek", "savait", "valstyb", "vyriausyb", "savivaldyb",
    "visuomen", "bendruomen", "taisykl", "pusseser", "įmon", "ligonin",
    "nuomon", "kėd", "žol", "egl", "pamok", "tiekėj",
)
_FEM_E_END = ("ė", "ės", "ei", "ę", "e", "ių", "ėms", "es", "ėse")

_FEM_A = (
    "mokykl", "knyg", "kalb", "program", "bibliotek", "ministerij",
    "technologij", "kultūr", "sveikat", "rink", "kain", "paslaug", "tvark",
    "situacij", "informacij", "organizacij", "istorij", "kompanij",
    "strategij", "muzik", "šeim", "galimyb", "vald", "mergait", "žiem",
)
_FEM_A_END = ("a", "os", "ai", "ą", "oje", "ų", "oms", "as", "ose")

_ADJ_AS = (
    "nauj", "did", "maž", "ger", "sen", "jaun", "graž", "stipr", "svarb",
    "aišk", "šilt", "šalt", "greit", "lėt", "aukšt", "žem",
)
_ADJ_AS_END = ("as", "a", "o", "os", "ą", "ų", "i", "iems", "oms", "ame", "oje", "ai")

_ADJ_INIS = (
    "nacional", "tarptaut", "ekonom", "valstyb", "kultūr", "istor",
    "technolog", "region", "pagrind", "šiuolaik", "visuomen", "mokykl",
)
_ADJ_INIS_END = ("inis", "inė", "inio", "inės", "inį", "inių", "iniai", "iniame", "inėje", "iniams")

_VERB = (
    "dirb", "bėg", "daryt", "kalb", "rašy", "skaity", "gyven", "ved", "neš",
    "žiūr", "sak", "tvarky", "gamin", "siunt", "žin", "ieško", "laik", "moky",
)
# voiceless/voiced prefix+stem joins (išd-, atb-, užs-) feed the assimilation
# and gemination families
_VERB_PREFIX = ("", "iš", "už", "at", "ap", "pa", "su", "per", "nu", "pri")
_VERB_END = ("a", "o", "ti", "s", "davo", "tų", "ome")

_FUNCTION = (
    "ir", "kad", "bet", "o", "su", "be", "į", "iš", "per", "apie", "prie",
    "nuo", "dėl", "tai", "jis", "ji", "jie", "buvo", "yra", "bus", "nėra",
    "taip", "pat", "dar", "jau", "labai", "tik", "net", "kaip", "kai", "kur",
    "šis", "ši", "tas", "ta", "mes", "jūs", "savo", "visi", "daug", "mažai",
    "kiekvienas", "pagal", "tarp", "po", "prieš", "iki", "už", "ant", "ar",
    "nes", "todėl", "aukščiausias", "mokesčiai", "iššūkis",
)
_PROPER = (
    "Vilniaus", "Kauno", "Lietuvos", "Klaipėdos", "Šiaulių", "Panevėžio",
    "Europos", "Seimo", "Vilnius", "Lietuva",
)
_QUOTED = (
    "Swedbank", "Lietuvos rytas", "Žalgiris", "Maxima", "Telia", "Iššūkis",
    "Rimi", "Vakarų ekspresas", "Lietuvos paštas", "Oscar", "Achema",
)
_INITIALS = ("A. Smetona", "J. Basanavičius", "V. Adamkus", "D. Grybauskaitė",
             "G. Nausėda", "M. K. Čiurlionis", "S. Nėris")
# Every paired quote style normalize_quotes rewrites to „...“.
_QUOTE_STYLES = (("„", "“"), ('"', '"'), ("“", "”"), (",,", "“"), ("``", "''"))


def _forms(stems, endings) -> list[str]:
    return [s + e for s in stems for e in endings]


def vocabulary() -> list[str]:
    """Distinct word forms, function words first; order is fixed."""
    words: list[str] = list(_FUNCTION)
    words += _forms(_MASC_AS, _MASC_AS_END)
    words += _forms(_FEM_E, _FEM_E_END)
    words += _forms(_FEM_A, _FEM_A_END)
    words += _forms(_ADJ_AS, _ADJ_AS_END)
    words += _forms(_ADJ_INIS, _ADJ_INIS_END)
    words += [p + v + e for v in _VERB for p in _VERB_PREFIX for e in _VERB_END]
    return list(dict.fromkeys(words))


class _Zipf:
    """Rank-frequency sampler: p(rank r) proportional to 1/(r + 2.7).

    The ranking is fixed, like a language's word frequencies; seeds only
    change which texts are sampled from it."""

    def __init__(self, words: list[str]):
        content = words[len(_FUNCTION):]
        random.Random(0).shuffle(content)
        self.words = words[:len(_FUNCTION)] + content
        self.cum: list[float] = []
        total = 0.0
        for r in range(len(self.words)):
            total += 1.0 / (r + 2.7)
            self.cum.append(total)

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


# ---------------------------------------------------------------------------
# Sentences and lines

@dataclass(frozen=True)
class Dirt:
    """Per-line probabilities of each kind of dirt (0 disables)."""

    quote: float = 0.5
    abbrev: float = 0.5
    extra_space: float = 0.1


CLEAN = Dirt(0.0, 0.0, 0.0)


def _sentence(rng: random.Random, zipf: _Zipf, n_words: int, dirt: Dirt) -> str:
    words = zipf.draw(rng, n_words)
    if rng.random() < 0.3:
        words[rng.randrange(len(words))] = rng.choice(_PROPER)
    tokens: list[str] = []
    for w in words:
        tokens.append(w)
        if rng.random() < 0.08:
            tokens[-1] += " ," if rng.random() < dirt.extra_space else ","
    if rng.random() < 0.35:
        open_q, close_q = ("„", "“")
        if rng.random() < dirt.quote:
            open_q, close_q = rng.choice(_QUOTE_STYLES)
        tokens.insert(rng.randrange(1, len(tokens) + 1),
                      f"{open_q}{rng.choice(_QUOTED)}{close_q}")
    if rng.random() < 0.2:
        year = f"{rng.randrange(1900, 2025)}"
        glued = rng.random() < dirt.abbrev
        tokens.insert(rng.randrange(1, len(tokens) + 1),
                      f"{year}m." if glued else f"{year} m.")
    if rng.random() < 0.15:
        name = rng.choice(_INITIALS)
        if rng.random() < dirt.abbrev:
            name = name.replace(". ", ".")
        tokens.insert(rng.randrange(1, len(tokens) + 1), name)
    tokens[-1] = tokens[-1].rstrip(",").rstrip()
    if rng.random() < 0.05:
        tokens.append("t.t." if rng.random() < dirt.abbrev else "t. t.")
    text = " ".join(tokens)
    text = text[0].upper() + text[1:]
    end = rng.choices((".", "?", "!"), weights=(0.9, 0.06, 0.04))[0]
    return text.rstrip(".") + end


def _line(rng: random.Random, zipf: _Zipf, lo: int, hi: int, dirt: Dirt) -> str:
    total = rng.randint(lo, hi)
    first = total if total < 24 or rng.random() < 0.5 else total // 2
    parts = [_sentence(rng, zipf, first, dirt)]
    if total > first:
        parts.append(_sentence(rng, zipf, total - first, dirt))
    return " ".join(parts)


def _paragraph(rng: random.Random, zipf: _Zipf, min_chars: int, dirt: Dirt) -> str:
    parts: list[str] = []
    size = 0
    while size < min_chars:
        s = _sentence(rng, zipf, rng.randint(10, 24), dirt)
        parts.append(s)
        size += len(s) + 1
    return " ".join(parts)


_TOO_SHORT = ("Komentarai (12)", "Daugiau skaitykite", "Foto: ELTA", "Reklama", "Skelbimai")
_SYMBOL_JUNK = (
    "© {y} UAB „Naujienos“ – visos teisės saugomos *** #naujienos @portalas",
    "Kaina: {y} € • Tel. +370 612 {y} • #akcija • @parduotuve ★★★★",
    "→ Prenumeruokite naujienlaiškį ↓↓↓ {y} ♥ #sekite @mus",
)
_URLS = (
    "https://www.naujienos.lt/straipsnis/{y}/vilniaus-universitetas-tyrimai",
    "www.lrt.lt/naujienos/lietuvoje/{y}/mokyklos-ir-mokytojai",
)


def _junk(rng: random.Random, kind: str) -> str:
    y = str(rng.randrange(1000, 9999))
    if kind == "short":
        return rng.choice(_TOO_SHORT)
    if kind == "symbols":
        return rng.choice(_SYMBOL_JUNK).format(y=y)
    return rng.choice(_URLS).format(y=y)


def _with_junk(rng: random.Random, lines: list[str], junk_each: int) -> list[str]:
    """Insert ``junk_each`` lines of every junk kind and as many exact
    duplicates of earlier lines, at seeded positions."""
    out = list(lines)
    for _ in range(junk_each):
        k = rng.randrange(1, len(out) + 1)
        out.insert(k, out[rng.randrange(k)])
    for kind in ("short", "symbols", "url"):
        for _ in range(junk_each):
            out.insert(rng.randrange(len(out) + 1), _junk(rng, kind))
    return out


def _samples(prefix: str, texts: list[str]) -> list[dict]:
    return [{"id": f"{prefix}{k}", "text": t} for k, t in enumerate(texts)]


@dataclass(frozen=True)
class Inputs:
    """Generated records (dicts with id/text) for one workload."""

    raw: list[dict]
    lm: list[dict]


def news_inputs(seed: int, n_lines: int = 170, lm_lines: int = 1500) -> Inputs:
    """Short news-style lines (24-44 words, about 240 characters) with dirt,
    one over-long line, and a clean LM corpus from the same vocabulary."""
    rng = random.Random(seed)
    zipf = _Zipf(vocabulary())
    lines = [_line(rng, zipf, 24, 44, Dirt()) for _ in range(n_lines)]
    lines[rng.randrange(len(lines))] = _paragraph(rng, zipf, 2110, Dirt())[:2300]
    lines = _with_junk(rng, lines, max(1, n_lines // 25))
    lm_rng = random.Random(seed + 2)
    lm = [_line(lm_rng, zipf, 24, 44, CLEAN) for _ in range(lm_lines)]
    return Inputs(_samples("n", lines), _samples("lm", lm))


def long_inputs(seed: int, n_paragraphs: int = 4, lm_lines: int = 300) -> Inputs:
    """Few paragraphs of about 8k characters, which --max-chars 2100 splits
    into four pieces of 1.6-2.1k characters each, plus the same junk kinds.
    Keeping the pieces near full size keeps per-piece cost alike across seeds."""
    rng = random.Random(seed)
    zipf = _Zipf(vocabulary())
    paragraphs = [_paragraph(rng, zipf, rng.randint(7900, 8100), Dirt())
                  for _ in range(n_paragraphs)]
    lines = _with_junk(rng, paragraphs, 1)
    lm_rng = random.Random(seed + 2)
    lm = [_line(lm_rng, zipf, 24, 44, CLEAN) for _ in range(lm_lines)]
    return Inputs(_samples("p", lines), _samples("lm", lm))


def to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
