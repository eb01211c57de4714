"""The three benchmark workloads.

news-pipeline and long-paragraphs call the library in-process, one call
after another (a closed loop with one client). cli-jobs2 runs ``ltgec``
subcommands on files with ``--jobs 2`` and checks them against the same
stages run through the library. Each workload returns a ``Result``; run.py
turns it into the printed metrics.

Timed loops repeat whole passes over the generated corpus until the time
budget is spent; per-pass rates are reported as medians over passes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pickle
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gen
from checks import Checks, check_coverage, check_pairs, sha256_file
from spans import NULL, Tracer
from ltgec import (
    CorruptionConfig,
    EvalReport,
    TextSample,
    build_unigram,
    compute_stats,
    corrupt,
    corrupt_rule_errors,
    dedupe,
    default_keyboard,
    default_table,
    filter_sample,
    noisy_channel_correct,
    preprocess_sample,
    read_m2,
    read_pairs,
    read_samples,
    rule_correct,
    score,
    split_long,
    write_m2,
    write_pairs,
    write_samples,
)
from ltgec import alignment, cli, corpus, corrector, evaluator, noiser, tokenstats

MAX_CHARS = 2100  # the CLI's default --max-chars
BETA = 0.5
JOBS = 2
CLI_CHUNK = 16  # cli._map_jobs passes chunksize=16 to Pool.imap
SETUP_PROBES = 9
CLI_LINES = 100  # news-pipeline's line shape; fewer lines keep the library check short
CHECK_S = 1.0
RULES_WINDOW = 8
RULE_ERROR_RATE = 0.1
FAMILIES = tuple(c.value for c in sorted(noiser.ALL_GROUPS, key=lambda c: c.value))
DROP_REASONS = (corpus.TOO_SHORT, corpus.LOW_LETTER_FRACTION, corpus.SPACE_RATIO,
                corpus.DUPLICATE)
_WORD = re.compile(r"\w+")


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    root: Path
    out: Path
    checks: Checks = field(default_factory=Checks)

    @property
    def env(self) -> dict:
        src = str(self.root / "src")
        old = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


@dataclass
class Pass:
    """Stage times (s) and sample counts of one pass over the corpus."""

    times: defaultdict = field(default_factory=lambda: defaultdict(float))
    counts: Counter = field(default_factory=Counter)
    last: dict = field(default_factory=dict)
    latencies_ms: list = field(default_factory=list)
    rates: defaultdict = field(default_factory=lambda: defaultdict(list))
    raw_lines: int = 0
    raw_chars: int = 0
    clean: list = field(default_factory=list)
    dropped: Counter = field(default_factory=Counter)
    split_pieces: int = 0
    pairs: list = field(default_factory=list)
    hyps: list = field(default_factory=list)
    reports: list = field(default_factory=list)

    def stage(self, tr, stage: str, layer: str, fn, *args):
        t0 = time.perf_counter()
        with tr.span("stage." + stage), tr.span(layer):
            result = fn(*args)
        dt = time.perf_counter() - t0
        self.times[stage] += dt
        self.counts[stage] += 1
        self.last[stage] = dt
        return result


@dataclass
class Result:
    setup_probes_s: list
    passes: list
    pipeline: tuple
    peak_rss_mb: float
    f05: float
    sizes: dict
    digests: dict
    per_layer: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Library stages


def preprocess_stage(raw, tr=NULL):
    """What ``ltgec preprocess`` does: clean, filter, dedupe, split."""
    cleaned = []
    for s in raw:
        tr.set_trace(s.id)
        with tr.span("corpus.preprocess"):
            cleaned.append(preprocess_sample(s))
    kept = []
    dropped = Counter()
    for s in cleaned:
        tr.set_trace(s.id)
        with tr.span("corpus.filter"):
            verdict = filter_sample(s)
        if verdict.keep:
            kept.append(s)
        else:
            dropped[verdict.reason] += 1
    tr.set_trace("corpus")
    with tr.span("corpus.dedupe"):
        deduped = list(dedupe(kept))
    dropped[corpus.DUPLICATE] = len(kept) - len(deduped)
    out = []
    pieces = 0
    for s in deduped:
        if len(s.text) > MAX_CHARS:
            tr.set_trace(s.id)
            with tr.span("corpus.split"):
                parts = split_long(s.text, MAX_CHARS)
            pieces += len(parts) - 1
            out.extend(TextSample(f"{s.id}.{k}", p, s.source) for k, p in enumerate(parts))
        else:
            out.append(s)
    return out, dropped, pieces


def _preprocess_timed(raw, tr) -> tuple[tuple, float]:
    t0 = time.perf_counter()
    with tr.span("stage.preprocess"):
        result = preprocess_stage(raw, tr)
    return result, time.perf_counter() - t0


def _time_cheap_stages(p: Pass, raw, tr, preprocess_s: list) -> None:
    """Preprocess and rules-only correction take milliseconds per pass, so
    they are also timed again every CHECK_S seconds through the pass (rules
    over the latest RULES_WINDOW sources); their rates are medians of these
    timings, spread over the run like the other stages' work."""
    _, seconds = _preprocess_timed(raw, tr)
    preprocess_s.append(seconds)
    p.rates["preprocess"].append(len(raw) / seconds)
    window = [pair.source for pair in p.pairs[-RULES_WINDOW:]]
    t0 = time.perf_counter()
    for text in window:
        rule_correct(text)
    p.rates["correct_rules"].append(len(window) / (time.perf_counter() - t0))


def _library_pass(run: Run, raw, model, noisy: bool, tr=NULL, repeat=True) -> Pass:
    """news-pipeline (noisy channel) or long-paragraphs (rules only)."""
    cfg = CorruptionConfig(seed=run.seed)
    p = Pass(raw_lines=len(raw), raw_chars=sum(len(s.text) for s in raw))
    (p.clean, p.dropped, p.split_pieces), seconds = _preprocess_timed(raw, tr)
    preprocess_s = [seconds]
    checked = time.perf_counter()
    for s in p.clean:
        tr.set_trace(s.id)
        pair = p.stage(tr, "corrupt", "noiser.corrupt", corrupt, s, cfg)
        hyp = p.stage(tr, "correct_rules", "corrector.rules", rule_correct, pair.source)
        if noisy:
            hyp = p.stage(tr, "correct_noisy", "corrector.noisy", noisy_channel_correct,
                          pair.source, model)
        report = p.stage(tr, "evaluate", "evaluator.score", score, [pair], [hyp])
        fix = "correct_noisy" if noisy else "correct_rules"
        p.latencies_ms.append(1e3 * (p.last["corrupt"] + p.last[fix] + p.last["evaluate"]))
        p.pairs.append(pair)
        p.hyps.append(hyp)
        p.reports.append(report)
        if repeat and time.perf_counter() - checked >= CHECK_S:
            _time_cheap_stages(p, raw, tr, preprocess_s)
            checked = time.perf_counter()
    p.times["preprocess"] = statistics.median(preprocess_s)
    p.counts["preprocess"] = len(raw)
    if not noisy:
        # Side measurement, outside the pipeline: the speller on one full
        # 2100-character piece, so a change to it shows here too.
        tr.set_trace(p.pairs[0].id)
        p.stage(tr, "correct_noisy", "corrector.noisy", noisy_channel_correct,
                p.pairs[0].source, model)
    return p


def merge_reports(reports) -> EvalReport:
    """Corpus report from per-pair reports; scoring is additive per pair."""
    total = EvalReport(beta=BETA, pairs=0, samples_affected=0, tp=0, fp=0, fn=0)
    for r in reports:
        total.pairs += r.pairs
        total.samples_affected += r.samples_affected
        total.tp += r.tp
        total.fp += r.fp
        total.fn += r.fn
        for name, s in r.per_category.items():
            mine = total.per_category.setdefault(name, evaluator.CategoryScore())
            mine.tp += s.tp
            mine.fp += s.fp
            mine.fn += s.fn
            mine.samples += s.samples
    return total


# ---------------------------------------------------------------------------
# Files, digests and round trips


def _write_jsonl(path: Path, records) -> None:
    path.write_text(gen.to_jsonl(records), encoding="utf-8")


def _samples(records) -> list[TextSample]:
    return [TextSample(r["id"], r["text"]) for r in records]


def _read(path: Path, layer: str, reader, tr) -> list:
    tr.set_trace("corpus")
    with open(path, encoding="utf-8") as fp, tr.span(layer):
        return list(reader(fp))


def _write(path: Path, layer: str, writer, items, tr) -> None:
    tr.set_trace("corpus")
    with open(path, "w", encoding="utf-8") as fp, tr.span(layer):
        writer(items, fp)


def _write_artifacts(out: Path, p: Pass, report: EvalReport, run: Run, tr=NULL) -> dict:
    """Write a library pass's outputs, read them back, return digests."""
    out.mkdir(parents=True, exist_ok=True)
    hyps = [TextSample(pair.id, h) for pair, h in zip(p.pairs, p.hyps)]
    _write(out / "clean.jsonl", "corpus.write", write_samples, p.clean, tr)
    _write(out / "pairs.jsonl", "edits.write", write_pairs, p.pairs, tr)
    _write(out / "pairs.m2", "m2.write", write_m2, p.pairs, tr)
    _write(out / "hyps.jsonl", "corpus.write", write_samples, hyps, tr)
    with tr.span("tokenstats.compute"):
        stats = [compute_stats(p.clean, name) for name in tokenstats.TOKENIZERS]
    (out / "stats.json").write_text(tokenstats.reports_to_json(stats) + "\n", encoding="utf-8")
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")

    run.checks.expect(_read(out / "clean.jsonl", "corpus.read", read_samples, tr) == p.clean,
                      "clean.jsonl does not read back equal")
    run.checks.expect(_read(out / "pairs.jsonl", "edits.read", read_pairs, tr) == p.pairs,
                      "pairs.jsonl does not read back equal")
    back = _read(out / "pairs.m2", "m2.read", read_m2, tr)
    run.checks.expect([(b.source, b.target, b.edits) for b in back]
                      == [(a.source, a.target, a.edits) for a in p.pairs],
                      "pairs.m2 does not read back equal")
    return {f.name: sha256_file(f) for f in sorted(out.iterdir())}


def _check_pass(run: Run, p: Pass) -> None:
    check_pairs(p.pairs, run.checks)
    check_coverage(+p.dropped, DROP_REASONS, "filter reason", run.checks)
    run.checks.expect(p.split_pieces > 0, "--max-chars split never fired")
    families = {e.category.value for pair in p.pairs for e in pair.edits if e.category}
    check_coverage(families, FAMILIES, "error family", run.checks)


def _check_repeat(run: Run, first: Pass, later: Pass) -> None:
    run.checks.expect(later.pairs == first.pairs and later.hyps == first.hyps,
                      "a repeated pass gave different outputs")


# ---------------------------------------------------------------------------
# Processes


def _spawn(run: Run, argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run a child to completion; return (wall s, peak RSS MB, exit code).

    os.wait4 reports the child's peak RSS including its reaped pool workers."""
    with open(log, "w", encoding="utf-8") as fp:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fp, stderr=subprocess.STDOUT,
                                env=run.env, cwd=run.root)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _ltgec(*args) -> list[str]:
    return [sys.executable, "-m", "ltgec", *map(str, args)]


def _setup_probes(run: Run, argv: list[str]) -> list[float]:
    """setup_s: fresh processes doing the workload's set-up, several times."""
    walls = []
    for k in range(SETUP_PROBES):
        wall, _, code = _spawn(run, argv, run.out / f"setup{k}.log")
        run.checks.expect(code == 0, f"set-up probe exited {code}")
        walls.append(wall)
    return walls


def _library_probe(run: Run, lm_path: Path) -> list[str]:
    return [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(lm_path)]


# ---------------------------------------------------------------------------
# Library workloads


def _timed_passes(seconds: float, make_pass) -> list:
    """Call ``make_pass(k)`` for k = 0, 1, ... until less than half a pass
    of the budget is left: the measured time is ``seconds`` to the nearest
    whole pass, and at least one pass."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(make_pass(len(passes)))
        now = time.perf_counter()
        if seconds - (now - start) < (now - t0) / 2:
            return passes


def _library_workload(run: Run, inputs: gen.Inputs, noisy: bool) -> Result:
    run.out.mkdir(parents=True, exist_ok=True)
    lm_path = run.out / "lm.jsonl"
    _write_jsonl(lm_path, inputs.lm)
    probes = [] if run.trace else _setup_probes(run, _library_probe(run, lm_path))
    raw = _samples(inputs.raw)
    model = build_unigram(_samples(inputs.lm))

    per_layer = {}
    if run.trace:
        per_layer, first = _traced_library(run, raw, model, noisy, lm_path)
        passes = [first]
    else:
        passes = _timed_passes(run.seconds, lambda k: _library_pass(run, raw, model, noisy))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = passes[0]
    _check_pass(run, first)
    for later in passes[1:]:
        _check_repeat(run, first, later)
    report = merge_reports(first.reports)
    digests = _write_artifacts(run.out / "artifacts", first, report, run)

    if noisy:
        f05 = report.f_score
    else:
        f05 = _rule_error_quality(run, first)
    fix = "correct_noisy" if noisy else "correct_rules"
    return Result(
        setup_probes_s=probes, passes=passes,
        pipeline=("preprocess", "corrupt", fix, "evaluate"),
        peak_rss_mb=peak, f05=f05,
        sizes={"raw_lines": first.raw_lines, "raw_chars": first.raw_chars,
               "samples": len(first.clean), "lm_lines": len(inputs.lm)},
        digests=digests, per_layer=per_layer,
    )


def _rule_error_quality(run: Run, p: Pass) -> float:
    """f05 of the rules corrector on errors it is built to undo.

    Against six-family gold the rules corrector finds about five true
    positives per corpus, too few for a steady F0.5, so long-paragraphs
    scores it on the library's rule-invertible errors of the same pieces.
    The rules also rewrite a few clean spans (quote pairs cut by the split),
    so the rate is high enough for those to be a steady share."""
    pairs = [corrupt_rule_errors(s, rate=RULE_ERROR_RATE, seed=run.seed) for s in p.clean]
    check_pairs(pairs, run.checks)
    return score(pairs, [rule_correct(x.source) for x in pairs], beta=BETA).f_score


def news_pipeline(run: Run) -> Result:
    return _library_workload(run, gen.news_inputs(run.seed), noisy=True)


def long_paragraphs(run: Run) -> Result:
    return _library_workload(run, gen.long_inputs(run.seed), noisy=False)


# ---------------------------------------------------------------------------
# Traced run: wraps layer entry points, then one traced pass


def _count_cells(tr, args, result) -> None:
    a, b = args
    tr.counts["alignment.dl_matrix_cells"] += (a.shape[0] + 1) * (b.shape[0] + 1)
    tr.counts["alignment.max_matrix_bytes"] = max(
        tr.counts["alignment.max_matrix_bytes"], result.nbytes)


def _count_candidates(tr, args, result) -> None:
    tr.counts["corrector.candidates"] += len(result) + 1  # plus the word itself


def _count_best(tr, args, result) -> None:
    tr.counts["corrector.best_calls"] += 1
    tr.counts["corrector.changed_words"] += result != args[0]


def install_wraps(tr: Tracer) -> None:
    tr.wrap(alignment, "dl_matrix", "alignment.dl_matrix", _count_cells)
    tr.wrap(alignment, "align", "alignment.backtrace")
    tr.wrap(noiser, "extract_edits", "noiser.canonicalize")
    tr.wrap(noiser, "_categorize_canonical", "noiser.canonicalize")
    tr.wrap(evaluator, "extract_edits", "evaluator.align")
    tr.wrap(evaluator, "classify_edit", "evaluator.classify")
    for module in (noiser, corrector, evaluator):
        tr.wrap(module, "default_table", "confusions.default_table")
    for module in (noiser, corrector):
        tr.wrap(module, "default_keyboard", "keyboard.default_keyboard")
    tr.wrap(corrector, "rule_correct", "corrector.rules")
    tr.wrap(corrector, "_routes", "corrector.candidates", _count_candidates)
    tr.wrap(corrector, "_best_candidate", "corrector.score_word", _count_best)


def _traced(body) -> tuple[Tracer, object, float, float]:
    """Run ``body(tracer)`` untraced, traced, and untraced again. Returns the
    tracer, the first untraced result, the mean untraced wall and the traced
    wall; bracketing the traced run cancels a steady drift in machine speed."""
    tr = Tracer()
    walls, results = [], []
    for tracer in (NULL, tr, NULL):
        if tracer is tr:
            install_wraps(tr)
        try:
            t0 = time.perf_counter()
            results.append(body(tracer))
            walls.append(time.perf_counter() - t0)
        finally:
            tr.unwrap_all()
    return tr, results[0], (walls[0] + walls[2]) / 2, walls[1]


def _traced_library(run: Run, raw, model, noisy: bool, lm_path: Path) -> tuple[dict, Pass]:
    """Per-layer metrics, and the first untraced pass for the checks."""
    state = {}

    def body(tr):
        tr.set_trace("setup")
        with tr.span("corrector.model_build"):
            build_unigram(_samples(_read_records(lm_path)))
        p = _library_pass(run, raw, model, noisy, tr, repeat=False)
        if tr.enabled:
            state["report"] = merge_reports(p.reports)
            _write_artifacts(run.out / "traced", p, state["report"], run, tr)
            state["pass"] = p
        return p

    tr, first, untraced, traced = _traced(body)
    tr.write(run.out / "spans.jsonl")
    p = state["pass"]
    texts = [pair.source for pair in p.pairs] if noisy else [p.pairs[0].source]
    m = layer_metrics(tr, p, state["report"], texts, untraced, traced)
    m["cli.startup_s"] = _cli_startup(run)
    return m, first


def _cli_startup(run: Run) -> float:
    """Median wall time of ``ltgec --help``: interpreter, imports, parser."""
    return statistics.median(_spawn(run, _ltgec("--help"), run.out / f"startup{k}.log")[0]
                             for k in range(SETUP_PROBES))


def _read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp]


def layer_metrics(tr: Tracer, p: Pass, report: EvalReport, noisy_texts: list[str],
                  untraced_s: float, traced_s: float) -> dict:
    self_s = tr.self_times()
    incl_s = tr.inclusive_times()
    in_corrupt = tr.span_counts(under="noiser.corrupt")
    in_corrupt_s = tr.inclusive_times(under="noiser.corrupt")
    calls = tr.span_counts()
    corrupt_calls = max(1, calls["noiser.corrupt"])
    words = [w for t in noisy_texts for w in _WORD.findall(t)]
    noisy_calls = max(1, calls["corrector.noisy"])
    stage_wall = sum(v for k, v in incl_s.items() if k.startswith("stage."))
    unattributed = sum(v for k, v in self_s.items() if k.startswith("stage."))

    def ms(x):
        return 1e3 * x

    m = {
        "alignment.dl_matrix_ms": ms(self_s.get("alignment.dl_matrix", 0.0)),
        "alignment.backtrace_ms": ms(self_s.get("alignment.backtrace", 0.0)),
        "alignment.dl_matrix_cells": tr.counts["alignment.dl_matrix_cells"],
        "alignment.max_matrix_mb": tr.counts["alignment.max_matrix_bytes"] / 2**20,
        "noiser.corrupt_ms": ms(incl_s.get("noiser.corrupt", 0.0)),
        "noiser.plan_ms": ms(self_s.get("noiser.corrupt", 0.0)),
        "noiser.canonicalize_ms": ms(in_corrupt_s.get("noiser.canonicalize", 0.0)),
        "noiser.defaults_ms": ms(in_corrupt_s.get("keyboard.default_keyboard", 0.0)
                                 + in_corrupt_s.get("confusions.default_table", 0.0)),
        "noiser.keyboard_builds": in_corrupt["keyboard.default_keyboard"] / corrupt_calls,
        "noiser.table_builds": in_corrupt["confusions.default_table"] / corrupt_calls,
        "noiser.gold_edits": sum(len(pair.edits) for pair in p.pairs),
        "corrector.rules_ms": ms(incl_s.get("corrector.rules", 0.0)),
        "corrector.noisy_ms": ms(incl_s.get("corrector.noisy", 0.0)),
        "corrector.candidates_ms": ms(incl_s.get("corrector.candidates", 0.0)),
        "corrector.score_ms": ms(self_s.get("corrector.noisy", 0.0)
                                 + self_s.get("corrector.score_word", 0.0)),
        "corrector.words": len(words),
        "corrector.distinct_words_per_text": tr.counts["corrector.best_calls"] / noisy_calls,
        "corrector.distinct_words_corpus": len(set(words)),
        "corrector.candidates_per_word": (tr.counts["corrector.candidates"]
                                          / max(1, calls["corrector.candidates"])),
        "corrector.changed_words": tr.counts["corrector.changed_words"],
        "corrector.model_build_ms": ms(incl_s.get("corrector.model_build", 0.0)),
        "evaluator.score_ms": ms(incl_s.get("evaluator.score", 0.0)),
        "evaluator.align_ms": ms(incl_s.get("evaluator.align", 0.0)),
        "evaluator.classify_ms": ms(incl_s.get("evaluator.classify", 0.0)),
        "evaluator.classify_calls": calls["evaluator.classify"],
        "evaluator.tp": report.tp,
        "evaluator.fp": report.fp,
        "evaluator.fn": report.fn,
        "corpus.preprocess_ms": ms(self_s.get("corpus.preprocess", 0.0)),
        "corpus.filter_ms": ms(self_s.get("corpus.filter", 0.0)),
        "corpus.dedupe_ms": ms(self_s.get("corpus.dedupe", 0.0)),
        "corpus.split_ms": ms(self_s.get("corpus.split", 0.0)),
        "corpus.split_pieces": p.split_pieces,
    }
    for reason in DROP_REASONS:
        m[f"corpus.dropped.{reason}"] = p.dropped[reason]
    for layer in ("corpus.read", "corpus.write", "edits.read", "edits.write",
                  "m2.read", "m2.write", "tokenstats.compute"):
        m[layer + "_ms"] = ms(incl_s.get(layer, 0.0))
    m.update({
        "trace.spans": len(tr.spans),
        "trace.stage_wall_ms": ms(stage_wall),
        "trace.unattributed_ms": ms(unattributed),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return m


# ---------------------------------------------------------------------------
# cli-jobs2


CLI_STEPS = ("preprocess", "corrupt_jsonl", "corrupt_m2", "correct_rules",
             "correct_noisy", "evaluate", "stats")
CLI_REPEATED = tuple(s for s in CLI_STEPS if s != "correct_noisy")
CLI_OUTPUTS = ("clean.jsonl", "pairs.jsonl", "pairs.m2", "rules.jsonl", "fixed.jsonl",
               "report.json", "stats.json")


def _cli_argv(step: str, d: Path, seed: int) -> list[str]:
    jobs = ("--jobs", JOBS)
    return {
        "preprocess": _ltgec("preprocess", d / "raw.jsonl", d / "clean.jsonl", *jobs),
        "corrupt_jsonl": _ltgec("corrupt", d / "clean.jsonl", d / "pairs.jsonl",
                                "--seed", seed, *jobs),
        "corrupt_m2": _ltgec("corrupt", d / "clean.jsonl", d / "pairs.m2",
                             "--seed", seed, *jobs),
        "correct_rules": _ltgec("correct", d / "sources.jsonl", d / "rules.jsonl", *jobs),
        "correct_noisy": _ltgec("correct", d / "sources.jsonl", d / "fixed.jsonl",
                                "--lm-corpus", d / "lm.jsonl", *jobs),
        "evaluate": _ltgec("evaluate", d / "pairs.m2", d / "fixed.txt",
                           "--json", d / "report.json"),
        "stats": _ltgec("stats", d / "clean.jsonl", "--json", d / "stats.json"),
    }[step]


def _glue_sources(d: Path) -> None:
    """``correct`` reads samples, ``corrupt`` writes pairs: keep id and source."""
    with open(d / "pairs.jsonl", encoding="utf-8") as fp:
        records = [json.loads(line) for line in fp]
    _write_jsonl(d / "sources.jsonl", [{"id": r["id"], "text": r["source"]} for r in records])


def _glue_hyps(d: Path) -> None:
    """M2 gold has positional ids, so hypotheses go one text per line."""
    with open(d / "fixed.jsonl", encoding="utf-8") as fp:
        texts = [json.loads(line)["text"] for line in fp]
    (d / "fixed.txt").write_text("".join(t + "\n" for t in texts), encoding="utf-8")


_GLUE_AFTER = {"corrupt_m2": _glue_sources, "correct_noisy": _glue_hyps}


def _cli_pass(run: Run, d: Path, n_samples: int, steps=CLI_STEPS) -> tuple[Pass, float]:
    p = Pass()
    peak = 0.0
    for step in steps:
        wall, rss, code = _spawn(run, _cli_argv(step, d, run.seed), d / f"{step}.log")
        run.checks.expect(code == 0, f"ltgec {step} exited {code}")
        p.times[step] = wall
        peak = max(peak, rss)
        glue = _GLUE_AFTER.get(step)
        if glue is not None:
            t0 = time.perf_counter()
            glue(d)
            p.times["glue"] += time.perf_counter() - t0
    p.counts.update({"corrupt": 2 * n_samples, "correct_rules": n_samples,
                     "correct_noisy": n_samples, "evaluate": n_samples})
    p.times["corrupt"] = p.times["corrupt_jsonl"] + p.times["corrupt_m2"]
    return p, peak


@contextlib.contextmanager
def _step(times: dict, name: str, tr):
    t0 = time.perf_counter()
    with tr.span("stage." + name):
        yield
    times[name] = time.perf_counter() - t0


def _defaults(tr):
    with tr.span("confusions.default_table"):
        table = default_table()
    with tr.span("keyboard.default_keyboard"):
        kbd = default_keyboard()
    return table, kbd


def _reference(run: Run, d: Path, tr=NULL) -> dict:
    """The CLI steps through the library in one process, building table and
    keyboard once per step as the CLI does. Returns per-step times, outputs
    and, untraced, per-sample latencies."""
    times: dict = {}
    ref: dict = {"times": times}
    cfg = CorruptionConfig(seed=run.seed)

    with _step(times, "preprocess", tr):
        ref["raw"] = _read(d / "raw.jsonl", "corpus.read", read_samples, tr)
        ref["clean"], ref["dropped"], ref["split_pieces"] = preprocess_stage(ref["raw"], tr)
        _write(d / "clean.jsonl", "corpus.write", write_samples, ref["clean"], tr)

    for step, name, layer, writer in (("corrupt_jsonl", "pairs.jsonl", "edits.write", write_pairs),
                                      ("corrupt_m2", "pairs.m2", "m2.write", write_m2)):
        with _step(times, step, tr):
            table, kbd = _defaults(tr)
            pairs, dts = [], []
            for s in ref["clean"]:
                tr.set_trace(s.id)
                t0 = time.perf_counter()
                with tr.span("noiser.corrupt"):
                    pairs.append(corrupt(s, cfg, table, kbd))
                dts.append(time.perf_counter() - t0)
            _write(d / name, layer, writer, pairs, tr)
        ref["pairs"], ref["corrupt_s"] = pairs, dts
    _glue_sources(d)

    with _step(times, "correct_rules", tr):
        fixed = []
        for s in _read(d / "sources.jsonl", "corpus.read", read_samples, tr):
            tr.set_trace(s.id)
            with tr.span("corrector.rules"):
                fixed.append(TextSample(s.id, rule_correct(s.text), s.source))
        _write(d / "rules.jsonl", "corpus.write", write_samples, fixed, tr)

    with _step(times, "correct_noisy", tr):
        sources = _read(d / "sources.jsonl", "corpus.read", read_samples, tr)
        lm = _read(d / "lm.jsonl", "corpus.read", read_samples, tr)
        with tr.span("corrector.model_build"):
            model = build_unigram(lm)
        table, kbd = _defaults(tr)
        fixed, dts = [], []
        for s in sources:
            tr.set_trace(s.id)
            t0 = time.perf_counter()
            with tr.span("corrector.noisy"):
                text = noisy_channel_correct(s.text, model, table=table, kbd=kbd)
            dts.append(time.perf_counter() - t0)
            fixed.append(TextSample(s.id, text, s.source))
        _write(d / "fixed.jsonl", "corpus.write", write_samples, fixed, tr)
        ref["hyps"], ref["noisy_s"] = [f.text for f in fixed], dts
    _glue_hyps(d)

    with _step(times, "evaluate", tr):
        gold = _read(d / "pairs.m2", "m2.read", read_m2, tr)
        with open(d / "fixed.txt", encoding="utf-8") as fp:
            hyps = [line.rstrip("\n") for line in fp]
        with tr.span("evaluator.score"):
            ref["report"] = score(gold, hyps, beta=BETA)
        (d / "report.json").write_text(ref["report"].to_json() + "\n", encoding="utf-8")

    with _step(times, "stats", tr):
        texts = [s.text for s in _read(d / "clean.jsonl", "corpus.read", read_samples, tr)]
        with tr.span("tokenstats.compute"):
            reports = [compute_stats(texts, name) for name in tokenstats.TOKENIZERS]
        (d / "stats.json").write_text(tokenstats.reports_to_json(reports) + "\n",
                                      encoding="utf-8")

    ref["latencies_ms"] = []
    if not tr.enabled:
        # per-pair scoring, only to time each sample through all three stages
        for pair, hyp, c, n in zip(ref["pairs"], ref["hyps"], ref["corrupt_s"],
                                   ref["noisy_s"]):
            t0 = time.perf_counter()
            score([pair], [hyp], beta=BETA)
            ref["latencies_ms"].append(1e3 * (c + n + time.perf_counter() - t0))
    return ref


def _cli_inputs(run: Run, inputs: gen.Inputs, d: Path) -> None:
    d.mkdir(parents=True, exist_ok=True)
    _write_jsonl(d / "raw.jsonl", inputs.raw)
    _write_jsonl(d / "lm.jsonl", inputs.lm)


def _bytes_to_workers(ref: dict, run: Run) -> int:
    """Pickled (worker, chunk) task payloads that Pool.imap sends, summed over
    the pool steps of one pass; mirrors how cli.py builds its workers."""
    table, kbd = default_table(), default_keyboard()
    cfg = CorruptionConfig(seed=run.seed)
    sources = [TextSample(p.id, p.source) for p in ref["pairs"]]
    model = build_unigram(_samples(_read_records(run.out / "ref" / "lm.jsonl")))
    steps = (
        (corpus.preprocess_sample, ref["raw"]),
        (functools.partial(cli._corrupt_one, cfg=cfg, table=table, kbd=kbd), ref["clean"]),
        (functools.partial(cli._corrupt_one, cfg=cfg, table=table, kbd=kbd), ref["clean"]),
        (cli._correct_rules_one, sources),
        (functools.partial(cli._correct_noisy_one, model=model, table=table, kbd=kbd),
         sources),
    )
    total = 0
    for worker, items in steps:
        for k in range(0, len(items), CLI_CHUNK):
            total += len(pickle.dumps((worker, items[k:k + CLI_CHUNK])))
    return total


def cli_jobs2(run: Run) -> Result:
    inputs = gen.news_inputs(run.seed, n_lines=CLI_LINES)
    run.out.mkdir(parents=True, exist_ok=True)
    cli_dir, ref_dir = run.out / "cli", run.out / "ref"
    _cli_inputs(run, inputs, cli_dir)
    _cli_inputs(run, inputs, ref_dir)
    (run.out / "empty.jsonl").write_text("", encoding="utf-8")
    probe = _ltgec("correct", run.out / "empty.jsonl", run.out / "empty.out.jsonl",
                   "--lm-corpus", cli_dir / "lm.jsonl")
    probes = [] if run.trace else _setup_probes(run, probe)

    ref = _reference(run, ref_dir)
    n = len(ref["clean"])
    def cli_round(k):
        # The first pass runs every step; later ones repeat all but the
        # noisy-channel step, which alone takes longer than the others
        # together, so the start-up-bound steps get a median over several runs.
        p, peak = _cli_pass(run, cli_dir, n, CLI_STEPS if k == 0 else CLI_REPEATED)
        p.raw_lines = len(ref["raw"])
        p.raw_chars = sum(len(s.text) for s in ref["raw"])
        p.counts["preprocess"] = p.raw_lines
        return p, peak, {name: sha256_file(cli_dir / name) for name in CLI_OUTPUTS}

    rounds = _timed_passes(0 if run.trace else run.seconds, cli_round)
    passes = [p for p, _, _ in rounds]
    digests = rounds[0][2]
    for _, _, later in rounds[1:]:
        run.checks.expect(later == digests, "a repeated CLI pass gave different outputs")
    want = {name: sha256_file(ref_dir / name) for name in CLI_OUTPUTS}
    for name in CLI_OUTPUTS:
        run.checks.expect(digests[name] == want[name], f"ltgec output {name} differs "
                          "from the library's")
    check_pairs(ref["pairs"], run.checks)
    check_coverage(+ref["dropped"], DROP_REASONS, "filter reason", run.checks)
    run.checks.expect(ref["split_pieces"] > 0, "--max-chars split never fired")
    families = {e.category.value for pair in ref["pairs"] for e in pair.edits if e.category}
    check_coverage(families, FAMILIES, "error family", run.checks)
    passes[0].latencies_ms = ref["latencies_ms"]

    with open(cli_dir / "report.json", encoding="utf-8") as fp:
        f05 = json.load(fp)["f_beta"]
    result = Result(
        setup_probes_s=probes, passes=passes,
        pipeline=("preprocess", "corrupt", "correct_noisy", "evaluate", "stats", "glue"),
        peak_rss_mb=max(peak for _, peak, _ in rounds), f05=f05,
        sizes={"raw_lines": len(ref["raw"]), "raw_chars": passes[0].raw_chars,
               "samples": n, "lm_lines": len(inputs.lm), "jobs": JOBS},
        digests=digests,
    )
    if run.trace:
        result.per_layer = _traced_cli(run, ref, passes[0])
    return result


def _traced_cli(run: Run, ref: dict, cli_pass: Pass) -> dict:
    state = {}

    def body(tr):
        result = _reference(run, run.out / "ref", tr)
        if tr.enabled:
            state["ref"] = result

    tr, _, untraced, traced = _traced(body)
    tr.write(run.out / "spans.jsonl")
    traced_ref = state["ref"]
    p = Pass(clean=traced_ref["clean"], dropped=traced_ref["dropped"],
             split_pieces=traced_ref["split_pieces"], pairs=traced_ref["pairs"])
    m = layer_metrics(tr, p, traced_ref["report"],
                      [pair.source for pair in traced_ref["pairs"]], untraced, traced)
    cli_total = sum(cli_pass.times[s] for s in CLI_STEPS)
    lib_total = sum(ref["times"][s] for s in CLI_STEPS)
    m["cli.startup_s"] = _cli_startup(run)
    for sub in ("preprocess", "corrupt", "correct", "evaluate", "stats"):
        m[f"cli.{sub}_s"] = sum(cli_pass.times[s] for s in CLI_STEPS if s.startswith(sub))
    m["cli.overhead_share"] = (cli_total - lib_total) / cli_total
    m["cli.bytes_to_workers"] = _bytes_to_workers(ref, run)
    return m


WORKLOADS = {
    "news-pipeline": news_pipeline,
    "long-paragraphs": long_paragraphs,
    "cli-jobs2": cli_jobs2,
}
