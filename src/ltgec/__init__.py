"""Corpus engineering toolkit for Lithuanian grammatical error correction.

No module of the package needs numpy or any other third-party package.

``import ltgec`` loads no submodule. Each public name below loads its module
on first use (PEP 562) and is then a plain attribute, so a process pays only
for the modules it touches: ``ltgec preprocess`` never compiles the noiser.
"""

import importlib

__version__ = "0.1.0"

_MODULE_NAMES = {
    "alignment": ("AlignmentScript", "AlignOp", "align", "extract_edits", "replay"),
    "confusions": ("ConfusionGroup", "ConfusionTable", "default_table",
                   "derive_confusion_stats", "read_table", "write_table"),
    "corpus": ("FilterConfig", "FilterVerdict", "TextSample", "dedupe", "filter_sample",
               "letter_fraction", "preprocess", "preprocess_sample", "read_samples",
               "space_ratio", "split_long", "write_samples"),
    "corrector": ("ChannelModel", "Speller", "UnigramModel", "build_unigram", "candidates",
                  "load_model", "noisy_channel_correct", "rule_correct", "save_model"),
    "edits": ("Edit", "ErrorCategory", "ParallelPair", "apply_edits", "read_pairs",
              "write_pairs"),
    "evaluator": ("EvalReport", "classify_edit", "f_beta", "score"),
    "keyboard": ("KeyboardModel", "default_keyboard", "load_keyboard_weights"),
    "m2": ("read_m2", "write_m2"),
    "noiser": ("CorruptionConfig", "corrupt", "corrupt_assimilation", "corrupt_casing",
               "corrupt_confusions", "corrupt_gemination", "corrupt_rule_errors",
               "corrupt_spaces", "corrupt_typos"),
    "tokenstats": ("EmptyCorpusError", "TokenStatsReport", "compute_stats", "tokenize_bytes",
                   "tokenize_chars", "tokenize_words"),
}

# each public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
