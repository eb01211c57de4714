"""Command-line interface.

Subcommands cover the full corpus pipeline: preprocess, corrupt, evaluate,
stats, correct and derive-stats. A --config file supplies defaults in
``key = value`` form; explicit flags win. Failures print one line of the form
``error E_CODE: message`` to stderr and exit non-zero.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Iterable

from . import confusions, corpus, corrector, evaluator, m2, tokenstats
from .edits import CATEGORY_BY_VALUE, ErrorCategory, ParallelPair, read_pairs, write_pairs
from .families import ALL_GROUPS, check_rate
from .keyboard import KeyboardModel, default_keyboard, load_keyboard_weights

E_IO = "E_IO"
E_INPUT = "E_INPUT"
E_CONFIG = "E_CONFIG"
E_EMPTY = "E_EMPTY"


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Input handling

def _detect_format(path: str, fmt: str) -> str:
    if fmt != "auto":
        return fmt
    return "jsonl" if path.endswith(".jsonl") else "text"


def _read_sample_file(path: str, fmt: str) -> list[corpus.TextSample]:
    resolved = _detect_format(path, fmt)
    with open(path, encoding="utf-8") as fp:
        if resolved == "jsonl":
            return list(corpus.read_samples(fp))
        return list(corpus.read_text_paragraphs(fp, source=Path(path).name))


def _read_pair_file(path: str) -> list[ParallelPair]:
    with open(path, encoding="utf-8") as fp:
        if path.endswith(".m2"):
            return list(m2.read_m2(fp))
        return list(read_pairs(fp))


def _parse_groups(raw: str) -> frozenset[ErrorCategory]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise CliError(E_INPUT, "--groups must name at least one error category")
    groups = set()
    for name in names:
        category = CATEGORY_BY_VALUE.get(name)
        if category is None or category not in ALL_GROUPS:
            known = ", ".join(sorted(c.value for c in ALL_GROUPS))
            raise CliError(E_INPUT, f"unknown error category {name!r} (known: {known})")
        groups.add(category)
    return frozenset(groups)


def _map_jobs(fn, items: list, jobs: int) -> Iterable:
    # checked here rather than by argparse, which leaves the int and float
    # defaults a --config file supplies unconverted
    if type(jobs) is not int or jobs < 1:
        raise CliError(E_INPUT, f"--jobs must be a positive integer, got {jobs!r}")
    if jobs == 1:
        return map(fn, items)

    def run():
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            yield from pool.imap(fn, items, chunksize=16)

    return run()


# ---------------------------------------------------------------------------
# Subcommand implementations

def _cmd_preprocess(args) -> int:
    samples = _read_sample_file(args.input, args.format)
    cfg = corpus.FilterConfig(
        min_chars=args.min_chars,
        min_letter_fraction=args.min_letter_fraction,
        space_fraction_bound=args.space_bound,
        space_fraction_mode=args.space_mode,
        extra_allowed_chars=args.extra_chars,
    )
    cleaned = list(_map_jobs(corpus.preprocess_sample, samples, args.jobs))

    counts = {reason: 0 for reason in corpus.FILTER_REASONS}
    kept: list[corpus.TextSample] = []
    for sample in cleaned:
        verdict = corpus.filter_sample(sample, cfg)
        counts[verdict.reason] += 1
        if verdict.keep:
            kept.append(sample)

    deduped = list(corpus.dedupe(kept))
    counts[corpus.DUPLICATE] = len(kept) - len(deduped)
    counts[corpus.KEPT] = len(deduped)

    out: list[corpus.TextSample] = []
    split_extra = 0
    for sample in deduped:
        if args.max_chars and len(sample.text) > args.max_chars:
            pieces = corpus.split_long(sample.text, args.max_chars)
            split_extra += len(pieces) - 1
            for k, piece in enumerate(pieces):
                out.append(corpus.TextSample(f"{sample.id}.{k}", piece, sample.source))
        else:
            out.append(sample)

    with open(args.output, "w", encoding="utf-8") as fp:
        written = corpus.write_samples(out, fp)

    print(f"read {len(samples)} samples, wrote {written}")
    for reason in corpus.FILTER_REASONS:
        print(f"  {reason}: {counts[reason]}")
    if args.max_chars:
        print(f"  SplitPieces: {split_extra}")
    return 0


def _load_table(path: str | None) -> confusions.ConfusionTable:
    if path is None:
        return confusions.default_table()
    with open(path, encoding="utf-8") as fp:
        return confusions.read_table(fp)


def _load_keyboard(path: str | None) -> KeyboardModel:
    if path is None:
        return default_keyboard()
    return KeyboardModel(weights=load_keyboard_weights(path))


# The noiser, and numpy with it, loads only for corrupt: _cmd_corrupt imports
# it before a pool forks, so workers inherit it.

def _corrupt_one(sample, cfg, table, kbd):
    from . import noiser

    return noiser.corrupt(sample, cfg, table, kbd)


def _corrupt_rule_one(sample, rate, seed):
    from . import noiser

    return noiser.corrupt_rule_errors(sample, rate=rate, seed=seed)


def _cmd_corrupt(args) -> int:
    from . import noiser

    samples = _read_sample_file(args.input, args.format)
    if args.rule_errors:
        check_rate("--rate", args.rate)
        worker = functools.partial(_corrupt_rule_one, rate=args.rate, seed=args.seed)
    else:
        cfg = noiser.CorruptionConfig(
            typo_rate=args.typo_rate,
            confusion_rate=args.confusion_rate,
            other_rate=args.other_rate,
            enabled_groups=_parse_groups(args.groups),
            seed=args.seed,
        )
        worker = functools.partial(
            _corrupt_one, cfg=cfg,
            table=_load_table(args.table),
            kbd=_load_keyboard(args.keyboard_weights),
        )
    pairs = _map_jobs(worker, samples, args.jobs)
    with open(args.output, "w", encoding="utf-8") as fp:
        if args.output.endswith(".m2"):
            written = m2.write_m2(pairs, fp)
        else:
            written = write_pairs(pairs, fp)
    print(f"corrupted {written} samples")
    return 0


def _cmd_evaluate(args) -> int:
    gold = _read_pair_file(args.gold)
    if args.hypothesis.endswith(".jsonl"):
        hyp_samples = _read_sample_file(args.hypothesis, "jsonl")
        by_id = {s.id: s.text for s in hyp_samples}
        if len(by_id) != len(hyp_samples):
            raise CliError(E_INPUT, "hypothesis file repeats sample ids")
        missing = [p.id for p in gold if p.id not in by_id]
        if missing:
            raise CliError(
                E_INPUT,
                f"hypothesis file lacks {len(missing)} gold ids (first: {missing[0]})",
            )
        hyps = [by_id[p.id] for p in gold]
    else:
        with open(args.hypothesis, encoding="utf-8") as fp:
            hyps = [line.rstrip("\n") for line in fp]
        if len(hyps) != len(gold):
            raise CliError(
                E_INPUT,
                f"{len(gold)} gold pairs but {len(hyps)} hypothesis lines",
            )
    report = evaluator.score(gold, hyps, beta=args.beta)
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            fp.write(report.to_json() + "\n")
    return 0


def _cmd_stats(args) -> int:
    samples = _read_sample_file(args.input, args.format)
    texts: list[str] = []
    for sample in samples:
        if args.split_max:
            texts.extend(corpus.split_long(sample.text, args.split_max))
        else:
            texts.append(sample.text)
    names = list(tokenstats.TOKENIZERS) if args.tokenizer == "all" else [args.tokenizer]
    reports = [tokenstats.compute_stats(texts, name) for name in names]
    print(tokenstats.render_reports(reports))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            fp.write(tokenstats.reports_to_json(reports) + "\n")
    return 0


def _correct_rules_one(sample):
    return corpus.TextSample(sample.id, corrector.rule_correct(sample.text), sample.source)


def _correct_noisy_one(sample, model, table, kbd):
    fixed = corrector.noisy_channel_correct(sample.text, model, table=table, kbd=kbd)
    return corpus.TextSample(sample.id, fixed, sample.source)


def _cmd_correct(args) -> int:
    samples = _read_sample_file(args.input, args.format)
    model = None
    if args.model and args.lm_corpus:
        raise CliError(E_CONFIG, "--model and --lm-corpus are mutually exclusive")
    if args.model:
        with open(args.model, encoding="utf-8") as fp:
            model = corrector.load_model(fp)
    elif args.lm_corpus:
        model = corrector.build_unigram(_read_sample_file(args.lm_corpus, "auto"))
    if args.save_model:
        if model is None:
            raise CliError(E_CONFIG, "--save-model needs --model or --lm-corpus")
        with open(args.save_model, "w", encoding="utf-8") as fp:
            corrector.save_model(model, fp)
    if model is None:
        worker = _correct_rules_one
    else:
        worker = functools.partial(
            _correct_noisy_one, model=model,
            table=_load_table(args.table),
            kbd=_load_keyboard(args.keyboard_weights),
        )
    corrected = _map_jobs(worker, samples, args.jobs)
    with open(args.output, "w", encoding="utf-8") as fp:
        written = corpus.write_samples(corrected, fp)
    print(f"corrected {written} samples")
    return 0


def _cmd_derive_stats(args) -> int:
    samples = _read_sample_file(args.input, args.format)
    patterns = None
    if args.patterns:
        with open(args.patterns, encoding="utf-8") as fp:
            patterns = [line.strip() for line in fp if line.strip() and not line.startswith("#")]
    table = confusions.derive_confusion_stats(samples, patterns)
    with open(args.output, "w", encoding="utf-8") as fp:
        confusions.write_table(table, fp)
    print(f"derived {len(table.groups)} confusion groups from {len(samples)} samples")
    return 0


# ---------------------------------------------------------------------------
# Parser construction and config handling

def _add_common(parser, jobs=True):
    parser.add_argument("--config", help="key = value file supplying defaults")
    parser.add_argument("--format", choices=("auto", "jsonl", "text"), default="auto",
                        help="input format (auto: by file extension)")
    if jobs:
        parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes (default 1)")


def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltgec",
        description="Corpus tooling for Lithuanian grammatical error correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean, filter, dedupe and split a corpus")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--min-chars", type=int, default=corpus.FilterConfig.min_chars)
    p.add_argument("--min-letter-fraction", type=float,
                   default=corpus.FilterConfig.min_letter_fraction)
    p.add_argument("--space-bound", type=float,
                   default=corpus.FilterConfig.space_fraction_bound)
    p.add_argument("--space-mode", choices=("minimum", "maximum"),
                   default=corpus.FilterConfig.space_fraction_mode)
    p.add_argument("--extra-chars", default=corpus.FilterConfig.extra_allowed_chars)
    p.add_argument("--max-chars", type=int, default=2100,
                   help="split longer samples (0 disables)")
    _add_common(p)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("corrupt", help="inject synthetic errors, emitting gold edits")
    p.add_argument("input")
    p.add_argument("output", help=".jsonl for parallel records, .m2 for M2")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--groups", default=",".join(sorted(c.value for c in ALL_GROUPS)),
                   help="comma-separated error categories to enable")
    p.add_argument("--typo-rate", type=float, default=0.02)
    p.add_argument("--confusion-rate", type=float, default=0.02)
    p.add_argument("--other-rate", type=float, default=0.02)
    p.add_argument("--table", help="confusion statistics file (default: built in)")
    p.add_argument("--keyboard-weights", help="pairwise substitution weight file")
    p.add_argument("--rule-errors", action="store_true",
                   help="emit only errors the rule corrector can undo")
    p.add_argument("--rate", type=float, default=0.02,
                   help="error rate for --rule-errors")
    _add_common(p)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("evaluate", help="score corrections against gold edits")
    p.add_argument("gold", help="gold pairs (.jsonl or .m2)")
    p.add_argument("hypothesis", help=".jsonl with ids, or one text line per pair")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("stats", help="token-count statistics per tokenizer")
    p.add_argument("input")
    p.add_argument("--tokenizer", choices=(*tokenstats.TOKENIZERS, "all"), default="all")
    p.add_argument("--split-max", type=int, default=0,
                   help="apply long-sample splitting first (0 disables)")
    p.add_argument("--json", help="also write reports as JSON to this path")
    _add_common(p, jobs=False)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("correct", help="rule cleanup, optionally noisy-channel spelling")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--model", help="unigram model file")
    p.add_argument("--lm-corpus", help="build the unigram model from this corpus")
    p.add_argument("--save-model", help="persist the model after building")
    p.add_argument("--table", help="confusion statistics file (default: built in)")
    p.add_argument("--keyboard-weights", help="pairwise substitution weight file")
    _add_common(p)
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("derive-stats", help="count confusion-pattern occurrences")
    p.add_argument("input")
    p.add_argument("output", help="confusion table file to write")
    p.add_argument("--patterns", help="file with one regex per line")
    _add_common(p, jobs=False)
    p.set_defaults(func=_cmd_derive_stats)

    if config_defaults:
        for action_parser in sub.choices.values():
            known = {a.dest for a in action_parser._actions}
            action_parser.set_defaults(
                **{k: v for k, v in config_defaults.items() if k in known}
            )
    return parser


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for caster in (int, float):
        try:
            return caster(value)
        except ValueError:
            pass
    return value


def load_config(path: str, known_keys: dict[str, type | None]) -> dict:
    """Defaults from a ``key = value`` file; ``known_keys`` maps each key to
    its option's type. A value that reads as no number for an int or float
    option is an input error here, as argparse would print its usage for it."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fp:
            for lineno, raw in enumerate(fp, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(E_CONFIG, f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in known_keys:
                    raise CliError(E_CONFIG, f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _coerce(value.strip())
                if isinstance(values[key], str) and known_keys[key] in (int, float):
                    raise CliError(E_INPUT, f"{path}:{lineno}: {key} needs a number, "
                                            f"got {values[key]!r}")
    except OSError as exc:
        raise CliError(E_IO, f"cannot read config {path}: {exc}") from exc
    return values


def _known_config_keys(parser: argparse.ArgumentParser) -> dict[str, type | None]:
    keys: dict[str, type | None] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                keys.update(
                    (a.dest, a.type) for a in sp._actions
                    if a.dest not in ("help", "config", "func")
                    and not a.required and a.option_strings
                )
    return keys


def _parse_args(argv) -> argparse.Namespace:
    first = build_parser().parse_args(argv)
    config_path = getattr(first, "config", None)
    if not config_path:
        return first
    defaults = load_config(config_path, _known_config_keys(build_parser()))
    return build_parser(defaults).parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1
    except tokenstats.EmptyCorpusError as exc:
        print(f"error {E_EMPTY}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error {E_IO}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error {E_INPUT}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
