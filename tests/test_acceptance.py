"""End-to-end acceptance checks for the toolkit's documented guarantees.

Each test prints exactly one [PASS]/[FAIL] line to the terminal, then asserts.
The checks are statistical where the behaviour is stochastic (calibration of
error rates and confusion weights) and exact where it is not (alignment cost,
round-trip identity, determinism across worker counts).
"""

import functools
import json
import random
import time

from ltgec.cli import main as cli_main
from ltgec.confusions import ConfusionTable, default_table
from ltgec.corpus import TextSample, preprocess, write_samples
from ltgec.corrector import rule_correct
from ltgec.edits import ErrorCategory, apply_edits, read_pairs
from ltgec.evaluator import classify_edit, score
from ltgec.keyboard import default_keyboard
from ltgec.families import (
    DEFAULT_TYPO_MIX,
    DELETION,
    INSERTION,
    SUBSTITUTION,
    TRANSPOSITION,
    assimilation_sites,
    casing_sites,
    gemination_sites,
    space_sites,
)
from ltgec.noiser import (
    CorruptionConfig,
    corrupt,
    corrupt_assimilation,
    corrupt_casing,
    corrupt_confusions,
    corrupt_gemination,
    corrupt_rule_errors,
    corrupt_spaces,
    corrupt_typos,
    sample_rng,
)
from ltgec.tokenstats import compute_stats

from conftest import LONG_WORD_TEXT, PARAGRAPHS, make_corpus


def _report(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. Alignment cost equals a brute-force restricted Damerau-Levenshtein oracle.

def _oracle_distance(a: str, b: str) -> int:
    @functools.lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        best = min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )
        if i >= 2 and j >= 2 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, d(i - 2, j - 2) + 1)
        return best

    return d(len(a), len(b))


def test_criterion_1_alignment_oracle(capsys):
    from ltgec.alignment import align

    rng = random.Random(20240607)
    alphabet = "abą "
    started = time.perf_counter()
    mismatches = 0
    n_pairs = 1200
    for _ in range(n_pairs):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 13)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 13)))
        if align(a, b).cost != _oracle_distance(a, b):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    _report(capsys, 1, ok,
            f"alignment cost matched the brute-force oracle on "
            f"{n_pairs - mismatches}/{n_pairs} random pairs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Corrupt, apply the gold edits, and land back on the original text; a
#    hypothesis equal to the target scores exactly 1.0 throughout.

def test_criterion_2_round_trip_identity(capsys):
    samples = make_corpus(10_000, seed=11)
    cfg = CorruptionConfig(seed=42)
    pairs = [corrupt(s, cfg) for s in samples]
    restored = sum(apply_edits(p.source, p.edits) == p.target for p in pairs)
    report = score(pairs, [p.target for p in pairs])
    exact = (report.precision, report.recall, report.f_score) == (1.0, 1.0, 1.0)
    ok = restored == len(pairs) and exact
    _report(capsys, 2, ok,
            f"gold edits restored {restored}/{len(pairs)} corrupted samples; "
            f"perfect hypothesis scored P={report.precision} R={report.recall} "
            f"F0.5={report.f_score}")


# ---------------------------------------------------------------------------
# 3. At default 0.02 rates each family corrupts between 1.9% and 2.1% of its
#    eligible units over one million units, and typo operations split close
#    to the documented substitution/deletion/insertion/transposition mix.

def test_criterion_3_rate_calibration(capsys):
    cfg = CorruptionConfig(seed=0)
    kbd = default_keyboard()
    table = default_table()
    units = 10 ** 6
    observed: dict[str, float] = {}

    base = "qwertyuiopasdfghjklzxcvbnm "  # no repeated adjacent characters
    text = (base * (units // len(base) + 1))[:units]
    _, typo_edits = corrupt_typos(text, cfg, kbd, sample_rng(0, "cal-typos", 0))
    observed["typos"] = len(typo_edits) / units

    shapes = {SUBSTITUTION: 0, DELETION: 0, INSERTION: 0, TRANSPOSITION: 0}
    for e in typo_edits:
        span, rep = e.end - e.start, len(e.replacement)
        if span == 1 and rep == 1:
            shapes[SUBSTITUTION] += 1
        elif span == 0 and rep == 1:
            shapes[DELETION] += 1
        elif span == 1 and rep == 0:
            shapes[INSERTION] += 1
        elif span == 2 and rep == 2:
            shapes[TRANSPOSITION] += 1
    mix_ok = all(
        abs(shapes[op] / len(typo_edits) - DEFAULT_TYPO_MIX[op]) <= 0.015
        for op in shapes
    )

    text = "įx" * units
    eligible = sum(1 for g in table.groups
                   for m in g.regex.finditer(text) if m.end() > m.start())
    _, edits = corrupt_confusions(text, table, 0.02, sample_rng(0, "cal-conf", 1))
    observed["confusions"] = len(edits) / eligible

    text = "ssx" * units
    _, edits = corrupt_gemination(text, 0.02, sample_rng(0, "cal-gem", 2))
    observed["gemination"] = len(edits) / len(gemination_sites(text))

    text = "btx" * units
    _, edits = corrupt_assimilation(text, 0.02, sample_rng(0, "cal-assim", 3))
    observed["assimilation"] = len(edits) / len(assimilation_sites(text))

    text = "ab " * units
    _, edits = corrupt_casing(text, 0.02, sample_rng(0, "cal-case", 4))
    observed["casing"] = len(edits) / len(casing_sites(text))

    deletions, insertions = space_sites(text)
    _, edits = corrupt_spaces(text, 0.02, sample_rng(0, "cal-space", 5))
    observed["spaces"] = len(edits) / (len(deletions) + len(insertions))

    rates_ok = all(0.019 <= rate <= 0.021 for rate in observed.values())
    summary = " ".join(f"{k}={v:.4f}" for k, v in observed.items())
    mix_summary = " ".join(
        f"{op[:3]}={shapes[op] / len(typo_edits):.3f}" for op in shapes
    )
    _report(capsys, 3, rates_ok and mix_ok,
            f"per-family corruption rates over 1e6 units: {summary}; "
            f"typo mix: {mix_summary}")


# ---------------------------------------------------------------------------
# 4. Replacement draws follow the confusion weights: 1e5 forced replacements
#    per group stay within total-variation 0.01 of the table, and the
#    flagship į->i share lands at 0.908 +- 0.01.

def test_criterion_4_confusion_weights(capsys):
    table = default_table()
    worst_tv = 0.0
    i_share = None
    draws = 10 ** 5
    for gi, group in enumerate(table.groups):
        counts = dict(group.variants)
        surface = max(counts, key=counts.get)
        options, probs = group.replacement_options(surface)
        if not options:
            continue
        text = (surface + "x") * draws
        single = ConfusionTable((group,))
        corrupted, edits = corrupt_confusions(
            text, single, 1.0, sample_rng(0, f"cal4-{gi}", 1))
        tally: dict[str, int] = {}
        for e in edits:
            variant = corrupted[e.start:e.end]
            tally[variant] = tally.get(variant, 0) + 1
        n = sum(tally.values())
        tv = 0.5 * (
            sum(abs(tally.get(o, 0) / n - p) for o, p in zip(options, probs))
            + sum(c / n for v, c in tally.items() if v not in options)
        )
        worst_tv = max(worst_tv, tv)
        if "į" in counts and "i" in counts:
            corrupted, edits = corrupt_confusions(
                "įx" * draws, single, 1.0, sample_rng(0, "cal4-i", 1))
            hits = sum(1 for e in edits if corrupted[e.start:e.end] == "i")
            i_share = hits / len(edits)
    ok = worst_tv <= 0.01 and i_share is not None and abs(i_share - 0.908) <= 0.01
    _report(capsys, 4, ok,
            f"worst replacement-weight TV distance {worst_tv:.4f} over "
            f"{draws} draws per group; į->i share {i_share:.4f}")


# ---------------------------------------------------------------------------
# 5. The documented cleanup examples come out byte-exact, and preprocessing
#    is idempotent on random noisy text.

def test_criterion_5_preprocessing_fixtures(capsys):
    fixtures = [
        ('"ABC"', "„ABC“"),
        ("1918m. vasario 16d.", "1918 m. vasario 16 d."),
        ("ir t.t.", "ir t. t."),
        ("A.Sabonis", "A. Sabonis"),
        ("tik darbui , visiškai pamirštant poilsį ,",
         "tik darbui, visiškai pamirštant poilsį,"),
    ]
    exact = sum(preprocess(raw) == fixed for raw, fixed in fixtures)

    alphabet = "abą ėž„“\"',. \t-–x9"
    rng = random.Random(5)
    violations = 0
    n_texts = 10_000
    for _ in range(n_texts):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 40)))
        once = preprocess(text)
        if preprocess(once) != once:
            violations += 1
    ok = exact == len(fixtures) and violations == 0
    _report(capsys, 5, ok,
            f"{exact}/{len(fixtures)} cleanup fixtures byte-exact; "
            f"{violations} idempotence violations on {n_texts} random texts")


# ---------------------------------------------------------------------------
# 6. Corrupting with one error family at a time, the edit classifier assigns
#    at least 90% of the gold edits back to that family.

_QUOTE_TEXT = (
    "Konferencijoje „nepriklausomybė“ ir „bendradarbiavimas“ buvo "
    "dažniausi žodžiai, o pranešimuose „skaitmeninimas“, „modernizavimas“, "
    "„standartizavimas“ ir „infrastruktūra“ kartojosi nuolat; sekcijoje "
    "„humanitarika“ diskutuota apie „terminologiją“ ir „dokumentaciją“."
)
_AG_TEXT = (
    "Pusseserė užsimerkė ir pasakojo, kaip lipdavome per tvorą, megzti "
    "pradėdavome vakarais, dirbti eidavome anksti, bėgdavome atgal, "
    "iššūkis atrodydavo didžiulis, paskui vėl megzdavome, dirbdavo visi, "
    "užsidegdavo šviesos, pusseserė vėl užsimerkdavo ir t. t."
)


def _family_agreement(text: str, category: ErrorCategory, rate: float,
                      n_samples: int) -> tuple[int, int]:
    cfg = CorruptionConfig(
        typo_rate=rate, confusion_rate=rate, other_rate=rate,
        enabled_groups=frozenset({category}), seed=9,
    )
    agree = total = 0
    for k in range(n_samples):
        pair = corrupt(TextSample(f"f{k}", text), cfg)
        for e in pair.edits:
            total += 1
            agree += classify_edit(e, pair.source) is e.category
    return agree, total


def test_criterion_6_category_fidelity(capsys):
    plan = [
        (ErrorCategory.TYPOGRAPHICAL, LONG_WORD_TEXT, 0.05, 120),
        (ErrorCategory.SIMILAR_SOUNDING, LONG_WORD_TEXT, 0.05, 120),
        (ErrorCategory.PUNCTUATION, _QUOTE_TEXT, 0.1, 400),
        (ErrorCategory.ASSIMILATION_GEMINATION, _AG_TEXT, 0.3, 300),
        (ErrorCategory.CASING, LONG_WORD_TEXT, 0.2, 140),
        (ErrorCategory.SPACES, LONG_WORD_TEXT, 0.05, 120),
    ]
    results = {}
    for category, text, rate, n in plan:
        agree, total = _family_agreement(text, category, rate, n)
        results[category.value] = (agree / total if total else 0.0, total)
    ok = all(share >= 0.90 and total >= 1000
             for share, total in results.values())
    summary = " ".join(f"{name}={share:.3f}(n={total})"
                       for name, (share, total) in results.items())
    _report(capsys, 6, ok, f"per-family classification agreement: {summary}")


# ---------------------------------------------------------------------------
# 7. On a corpus carrying only rule-invertible quote/space errors, the rule
#    corrector scores F0.5 >= 0.90 while the identity corrector scores 0.

def test_criterion_7_baseline_loop(capsys):
    targets = [preprocess(p) for p in PARAGRAPHS]
    pairs = []
    for rep in range(30):
        for i, text in enumerate(targets):
            pairs.append(corrupt_rule_errors(
                TextSample(f"r{rep}-{i}", text), rate=0.4, seed=42))
    with_edits = [p for p in pairs if p.edits]

    rule_report = score(with_edits, [rule_correct(p.source) for p in with_edits])
    identity_report = score(with_edits, [p.source for p in with_edits])
    ok = (
        len(with_edits) >= 100
        and all(p.edits for p in with_edits)
        and rule_report.f_score >= 0.90
        and identity_report.f_score == 0.0
    )
    _report(capsys, 7, ok,
            f"rule corrector F0.5={rule_report.f_score:.4f} and identity "
            f"F0.5={identity_report.f_score} on {len(with_edits)} samples "
            f"with >=1 gold edit each")


# ---------------------------------------------------------------------------
# 8. Tokenizer fixture: chars/bytes/words of the probe sentence.

def test_criterion_8_tokenstats_fixture(capsys):
    got = {
        name: compute_stats(["x"], tokenizer=name).probe_tokens
        for name in ("chars", "bytes", "words")
    }
    want = {"chars": 21, "bytes": 25, "words": 3}
    ok = got == want
    _report(capsys, 8, ok,
            f"probe sentence tokens: chars={got['chars']} bytes={got['bytes']} "
            f"words={got['words']} (expected 21/25/3)")


# ---------------------------------------------------------------------------
# 9. The CLI pipeline gives byte-identical artifacts with 1 and 8 workers,
# the speller's among them: each worker keeps its own word memo.

def _run_pipeline(root, jobs: int) -> dict[str, bytes]:
    workdir = root / f"jobs{jobs}"
    workdir.mkdir()
    raw = root / "raw.jsonl"
    pre = workdir / "pre.jsonl"
    pairs = workdir / "pairs.jsonl"
    sources = workdir / "sources.jsonl"
    corrected = workdir / "corrected.jsonl"
    spelled = workdir / "spelled.jsonl"
    eval_json = workdir / "eval.json"
    stats_json = workdir / "stats.json"

    j = str(jobs)
    assert cli_main(["preprocess", str(raw), str(pre), "--jobs", j]) == 0
    assert cli_main(["corrupt", str(pre), str(pairs),
                     "--seed", "42", "--jobs", j]) == 0
    assert cli_main(["correct", str(pairs.parent / "pre.jsonl"), str(corrected),
                     "--jobs", j]) == 0
    with open(pairs, encoding="utf-8") as fp, open(sources, "w", encoding="utf-8") as out:
        write_samples([TextSample(p.id, p.source) for p in read_pairs(fp)], out)
    assert cli_main(["correct", str(sources), str(spelled), "--lm-corpus", str(pre),
                     "--jobs", j]) == 0
    assert cli_main(["evaluate", str(pairs), str(corrected),
                     "--json", str(eval_json)]) == 0
    assert cli_main(["stats", str(pre), "--json", str(stats_json)]) == 0
    return {
        path.name: path.read_bytes()
        for path in (pre, pairs, corrected, spelled, eval_json, stats_json)
    }


def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    samples = make_corpus(150, seed=3)
    # give the preprocess stage actual work
    noisy = [TextSample(s.id, s.text.replace(" ", " , ", 1)) for s in samples]
    with open(tmp_path / "raw.jsonl", "w", encoding="utf-8") as fp:
        write_samples(noisy, fp)

    single = _run_pipeline(tmp_path, jobs=1)
    pooled = _run_pipeline(tmp_path, jobs=8)
    differing = [name for name in single if single[name] != pooled[name]]
    with open(tmp_path / "jobs1" / "pairs.jsonl", encoding="utf-8") as fp:
        n_pairs = len(list(read_pairs(fp)))
    ok = not differing and n_pairs == len(samples)
    _report(capsys, 9, ok,
            f"pipeline artifacts identical for --jobs 1 vs --jobs 8 "
            f"({len(single)} files, {n_pairs} pairs)"
            + (f"; differing: {differing}" if differing else ""))
