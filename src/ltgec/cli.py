"""Command-line interface.

Subcommands cover the full corpus pipeline: preprocess, corrupt, evaluate,
stats, correct and derive-stats. A --config file supplies defaults in
``key = value`` form; explicit flags win. Failures print one line of the form
``error E_CODE: message`` to stderr and exit non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from . import corpus, tokenstats
from .edits import CATEGORY_BY_VALUE, ErrorCategory, ParallelPair, pair_from_json, write_pairs
from .families import ALL_GROUPS, check_rate

# The noiser, the evaluator, the speller and their tables are imported inside
# the commands that run them: preprocess, stats and rules-only correct load
# none of them.
if TYPE_CHECKING:
    from . import confusions, corrector
    from .keyboard import KeyboardModel

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

_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


@contextlib.contextmanager
def _reading(path: str):
    """Open an input as UTF-8 text. Bad UTF-8 in it is one E_INPUT line that
    names the file, the line and the byte."""
    with open(path, encoding="utf-8") as fp:
        try:
            yield fp
        except UnicodeDecodeError as exc:
            raise CliError(E_INPUT, _not_utf8(path, exc)) from None


def _not_utf8(path: str, exc: UnicodeDecodeError) -> str:
    # read again with bad bytes escaped to U+DC80..U+DCFF, which strict UTF-8
    # never yields, so the first escape is the first bad byte
    with open(path, encoding="utf-8", errors="surrogateescape") as fp:
        for lineno, line in enumerate(fp, 1):
            m = _ESCAPED_BYTE.search(line)
            if m:
                return (f"{path}:{lineno}: not UTF-8: byte {ord(m.group()) - 0xDC00:#04x} "
                        f"at column {m.start() + 1}")
    return f"{path}: not UTF-8: {exc.reason}"


@contextlib.contextmanager
def _writing(path: str):
    """Open an output as UTF-8 text. If the block fails, the half-written
    output is removed, but only if it is a regular file: a symlink, a device
    or /dev/stdout stays."""
    fp = open(path, "w", encoding="utf-8")
    try:
        with fp:
            yield fp
    except BaseException:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise


def _detect_format(path: str, fmt: str) -> str:
    if fmt != "auto":
        return fmt
    return "jsonl" if path.endswith(".jsonl") else "text"


def _read_sample_file(path: str, fmt: str) -> list[corpus.TextSample]:
    resolved = _detect_format(path, fmt)
    with _reading(path) as fp:
        if resolved == "jsonl":
            return list(corpus.read_samples(fp))
        return list(corpus.read_text_paragraphs(fp, source=Path(path).name))


def _unique_ids(path: str, numbered: Iterable[tuple[int, object]]) -> list:
    """The records of an input keyed by id, where an id may appear once."""
    records = []
    lines: dict[str, int] = {}
    for lineno, record in numbered:
        if record.id in lines:
            raise CliError(E_INPUT, f"{path}:{lineno}: sample id {record.id!r} "
                                    f"repeats line {lines[record.id]}")
        lines[record.id] = lineno
        records.append(record)
    return records


def _read_keyed_samples(path: str, fmt: str) -> list[corpus.TextSample]:
    """The samples of an input keyed by id. Plain-text paragraphs are
    numbered, so never repeat one."""
    if _detect_format(path, fmt) != "jsonl":
        return _read_sample_file(path, fmt)
    with _reading(path) as fp:
        return _unique_ids(path, corpus.read_numbered(fp, corpus.sample_from_json, "sample"))


def _read_pair_file(path: str) -> list[ParallelPair]:
    """Gold pairs. JSONL pairs are keyed by id; M2 pairs are numbered by
    position, so never repeat one."""
    with _reading(path) as fp:
        if path.endswith(".m2"):
            from . import m2

            return list(m2.read_m2(fp))
        return _unique_ids(path, corpus.read_numbered(fp, pair_from_json, "pair"))


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


def _map_jobs(fn, items: list, jobs: int, initializer=None, initargs=()) -> Iterable:
    """``fn`` over the items in order, in ``jobs`` processes. Each process
    runs ``initializer(*initargs)`` once before its first item; it must not
    raise, or the pool would restart its workers forever."""
    if jobs < 1:
        raise CliError(E_INPUT, f"--jobs must be a positive integer, got {jobs!r}")
    if jobs == 1:
        if initializer is not None:
            initializer(*initargs)
        return map(fn, items)

    def run():
        import multiprocessing

        with multiprocessing.Pool(jobs, initializer, initargs) as pool:
            yield from pool.imap(fn, items, chunksize=16)

    return run()


# ---------------------------------------------------------------------------
# Subcommand implementations

def _cmd_preprocess(args) -> int:
    samples = _read_keyed_samples(args.input, args.format)
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

    def too_long(sample: corpus.TextSample) -> bool:
        return bool(args.max_chars) and len(sample.text) > args.max_chars

    unsplit_ids = {sample.id for sample in deduped if not too_long(sample)}
    out: list[corpus.TextSample] = []
    split_extra = 0
    for sample in deduped:
        if too_long(sample):
            pieces = corpus.split_long(sample.text, args.max_chars)
            split_extra += len(pieces) - 1
            for k, piece in enumerate(pieces):
                piece_id = f"{sample.id}.{k}"
                if piece_id in unsplit_ids:
                    raise CliError(E_INPUT, f"{args.input}: piece {k} of the split sample "
                                            f"{sample.id!r} would take the id {piece_id!r} "
                                            f"of another sample")
                out.append(corpus.TextSample(piece_id, piece, sample.source))
        else:
            out.append(sample)

    with _writing(args.output) as fp:
        written = corpus.write_samples(out, fp)

    print(f"read {len(samples)} samples, wrote {written}")
    for reason in corpus.FILTER_REASONS:
        print(f"  {reason}: {counts[reason]}")
    if args.max_chars:
        print(f"  SplitPieces: {split_extra}")
    return 0


def _load_table(path: str | None) -> confusions.ConfusionTable:
    from . import confusions

    if path is None:
        return confusions.default_table()
    with _reading(path) as fp:
        return confusions.read_table(fp)


def _load_keyboard(path: str | None) -> KeyboardModel:
    from .keyboard import KeyboardModel, default_keyboard, load_keyboard_weights

    if path is None:
        return default_keyboard()
    with _reading(path):  # load_keyboard_weights opens the file itself
        return KeyboardModel(weights=load_keyboard_weights(path))


def _corrupt_one(sample, cfg, table, kbd):
    from . import noiser

    return noiser.corrupt(sample, cfg, table, kbd)


def _cmd_corrupt(args) -> int:
    from . import m2, noiser

    samples = _read_keyed_samples(args.input, args.format)
    if args.rule_errors:
        check_rate("--rate", args.rate)
        worker = functools.partial(noiser.corrupt_rule_errors, rate=args.rate, seed=args.seed)
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
    with _writing(args.output) as fp:
        if args.output.endswith(".m2"):
            written = m2.write_m2(pairs, fp)
        else:
            written = write_pairs(pairs, fp)
    print(f"corrupted {written} samples")
    return 0


def _cmd_evaluate(args) -> int:
    from . import evaluator

    gold = _read_pair_file(args.gold)
    if args.hypothesis.endswith(".jsonl"):
        hyp_samples = _read_keyed_samples(args.hypothesis, "jsonl")
        by_id = {s.id: s.text for s in hyp_samples}
        missing = [p.id for p in gold if p.id not in by_id]
        if missing:
            raise CliError(
                E_INPUT,
                f"hypothesis file lacks {len(missing)} gold ids (first: {missing[0]})",
            )
        hyps = [by_id[p.id] for p in gold]
    else:
        with _reading(args.hypothesis) as fp:
            hyps = [line.rstrip("\n") for line in fp]
        if len(hyps) != len(gold):
            raise CliError(
                E_INPUT,
                f"{len(gold)} gold pairs but {len(hyps)} hypothesis lines",
            )
    report = evaluator.score(gold, hyps, beta=args.beta)
    print(report.render())
    if args.json:
        with _writing(args.json) as fp:
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
        with _writing(args.json) as fp:
            fp.write(tokenstats.reports_to_json(reports) + "\n")
    return 0


def _correct_rules_one(sample):
    # corrector.rule_correct is corpus.preprocess; calling the latter keeps the
    # speller's modules unloaded
    return corpus.preprocess_sample(sample)


# This process's speller: set once per worker by _use_speller, so its tables
# and word memo live across every chunk the worker corrects.
_speller: corrector.Speller | None = None


def _use_speller(speller: corrector.Speller) -> None:
    global _speller
    _speller = speller


def _correct_noisy_one(sample):
    return corpus.TextSample(sample.id, _speller.correct(sample.text), sample.source)


def _build_speller(args) -> corrector.Speller:
    """The speller over the --model or --lm-corpus model, saved first if
    --save-model asks."""
    from . import corrector

    if args.model:
        with _reading(args.model) as fp:
            model = corrector.load_model(fp)
    else:
        model = corrector.build_unigram(_read_sample_file(args.lm_corpus, "auto"))
    if args.save_model:
        with _writing(args.save_model) as fp:
            corrector.save_model(model, fp)
    return corrector.Speller(model, table=_load_table(args.table),
                             kbd=_load_keyboard(args.keyboard_weights))


def _cmd_correct(args) -> int:
    samples = _read_keyed_samples(args.input, args.format)
    if args.model and args.lm_corpus:
        raise CliError(E_CONFIG, "--model and --lm-corpus are mutually exclusive")
    if args.model or args.lm_corpus:
        corrected = _map_jobs(_correct_noisy_one, samples, args.jobs,
                              _use_speller, (_build_speller(args),))
    elif args.save_model:
        raise CliError(E_CONFIG, "--save-model needs --model or --lm-corpus")
    else:
        corrected = _map_jobs(_correct_rules_one, samples, args.jobs)
    with _writing(args.output) as fp:
        written = corpus.write_samples(corrected, fp)
    print(f"corrected {written} samples")
    return 0


def _read_patterns(path: str) -> list[str]:
    """One regex per line; blank lines and lines starting with # are skipped."""
    patterns = []
    with _reading(path) as fp:
        for lineno, line in enumerate(fp, 1):
            pattern = line.strip()
            if not pattern or line.startswith("#"):
                continue
            try:
                re.compile(pattern)
            except re.error as exc:
                raise CliError(E_INPUT,
                               f"{path}:{lineno}: bad pattern {pattern!r}: {exc}") from None
            patterns.append(pattern)
    return patterns


def _cmd_derive_stats(args) -> int:
    from . import confusions

    samples = _read_sample_file(args.input, args.format)
    patterns = _read_patterns(args.patterns) if args.patterns else None
    table = confusions.derive_confusion_stats(samples, patterns)
    with _writing(args.output) as fp:
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


def build_parser() -> argparse.ArgumentParser:
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

    return parser


def _subparsers(parser: argparse.ArgumentParser) -> list[argparse.ArgumentParser]:
    return [sp for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
            for sp in action.choices.values()]


def _config_actions(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The keys a --config file may set, each with an action that declares it.
    Every subcommand that declares a key reads it alike, so any one will do."""
    return {
        a.dest: a
        for sp in _subparsers(parser) for a in sp._actions
        if a.dest not in ("help", "config") and not a.required and a.option_strings
    }


_FLAG_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _config_value(action: argparse.Action, value: str):
    """``value`` as the flag of ``action`` reads it. A ValueError says what
    the flag needs."""
    if action.nargs == 0:  # an on/off flag such as --rule-errors
        if value.lower() not in _FLAG_WORDS:
            raise ValueError("true or false")
        return _FLAG_WORDS[value.lower()]
    kind = action.type or str
    try:
        read = kind(value)
    except ValueError:
        raise ValueError("a whole number" if kind is int and _is_float(value)
                         else "a number") from None
    if action.choices is not None and read not in action.choices:
        raise ValueError("one of " + ", ".join(action.choices))
    return read


def _is_float(value: str) -> bool:
    try:
        float(value)
    except ValueError:
        return False
    return True


def load_config(path: str, actions: dict[str, argparse.Action]) -> dict:
    """Defaults from a ``key = value`` file; ``actions`` maps each known key
    to an option that declares it, and each value is read as that option
    reads its argument."""
    values: dict = {}
    try:
        with _reading(path) as fp:
            for lineno, raw in enumerate(fp, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(E_CONFIG, f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key, value = key.strip().replace("-", "_"), value.strip()
                if key not in actions:
                    raise CliError(E_CONFIG, f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _config_value(actions[key], value)
                except ValueError as exc:
                    raise CliError(E_INPUT, f"{path}:{lineno}: {key} needs {exc}, "
                                            f"got {value!r}") from None
    except OSError as exc:
        raise CliError(E_IO, f"cannot read config {path}: {exc}") from exc
    return values


def _parse_args(argv) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    defaults = load_config(args.config, _config_actions(parser))
    for sp in _subparsers(parser):
        known = {a.dest for a in sp._actions}
        sp.set_defaults(**{k: v for k, v in defaults.items() if k in known})
    return parser.parse_args(argv)


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
