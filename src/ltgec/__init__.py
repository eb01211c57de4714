"""Corpus engineering toolkit for Lithuanian grammatical error correction.

No module of the package needs numpy or any other third-party package.
"""

from .alignment import AlignmentScript, AlignOp, align, extract_edits, replay
from .confusions import (
    ConfusionGroup,
    ConfusionTable,
    default_table,
    derive_confusion_stats,
    read_table,
    write_table,
)
from .corpus import (
    FilterConfig,
    FilterVerdict,
    TextSample,
    dedupe,
    filter_sample,
    letter_fraction,
    preprocess,
    preprocess_sample,
    read_samples,
    space_ratio,
    split_long,
    write_samples,
)
from .corrector import (
    ChannelModel,
    Speller,
    UnigramModel,
    build_unigram,
    candidates,
    load_model,
    noisy_channel_correct,
    rule_correct,
    save_model,
)
from .edits import Edit, ErrorCategory, ParallelPair, apply_edits, read_pairs, write_pairs
from .evaluator import EvalReport, classify_edit, f_beta, score
from .keyboard import KeyboardModel, default_keyboard, load_keyboard_weights
from .m2 import read_m2, write_m2
from .noiser import (
    CorruptionConfig,
    corrupt,
    corrupt_assimilation,
    corrupt_casing,
    corrupt_confusions,
    corrupt_gemination,
    corrupt_rule_errors,
    corrupt_spaces,
    corrupt_typos,
)
from .tokenstats import (
    EmptyCorpusError,
    TokenStatsReport,
    compute_stats,
    tokenize_bytes,
    tokenize_chars,
    tokenize_words,
)

__version__ = "0.1.0"

__all__ = [
    "AlignOp",
    "AlignmentScript",
    "ChannelModel",
    "ConfusionGroup",
    "ConfusionTable",
    "CorruptionConfig",
    "Edit",
    "EmptyCorpusError",
    "ErrorCategory",
    "EvalReport",
    "FilterConfig",
    "FilterVerdict",
    "KeyboardModel",
    "ParallelPair",
    "Speller",
    "TextSample",
    "TokenStatsReport",
    "UnigramModel",
    "align",
    "apply_edits",
    "build_unigram",
    "candidates",
    "classify_edit",
    "compute_stats",
    "corrupt",
    "corrupt_assimilation",
    "corrupt_casing",
    "corrupt_confusions",
    "corrupt_gemination",
    "corrupt_rule_errors",
    "corrupt_spaces",
    "corrupt_typos",
    "dedupe",
    "default_keyboard",
    "default_table",
    "derive_confusion_stats",
    "extract_edits",
    "f_beta",
    "filter_sample",
    "letter_fraction",
    "load_keyboard_weights",
    "load_model",
    "noisy_channel_correct",
    "preprocess",
    "preprocess_sample",
    "read_m2",
    "read_pairs",
    "read_samples",
    "read_table",
    "replay",
    "rule_correct",
    "save_model",
    "score",
    "space_ratio",
    "split_long",
    "tokenize_bytes",
    "tokenize_chars",
    "tokenize_words",
    "write_m2",
    "write_pairs",
    "write_samples",
    "write_table",
]
