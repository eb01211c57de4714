"""No path loads numpy, --jobs 1 starts no pool, each subcommand loads only
the modules it runs, and every public name resolves to its module.

The module checks run in a fresh interpreter, because this suite's conftest
imports numpy and its tests import every module of the package.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltgec
from ltgec.alignment import extract_edits
from ltgec.corpus import TextSample, write_samples
from ltgec.edits import ParallelPair, write_pairs

SRC = str(Path(ltgec.__file__).resolve().parent.parent)

PIPELINE_WITHOUT_CORRUPT = r"""
import json, sys
from pathlib import Path

import ltgec
import ltgec.cli
from ltgec.alignment import extract_edits
from ltgec.cli import main
from ltgec.edits import ParallelPair, write_pairs

d = Path(sys.argv[1])
texts = ["Vakar bare grojo gera muzika.", "Šiandien lyja, todėl liekame namie."]
with open(d / "raw.jsonl", "w", encoding="utf-8") as fp:
    for k, text in enumerate(texts):
        fp.write(json.dumps({"id": str(k), "text": text}, ensure_ascii=False) + "\n")
sources = ["Vakar bare grojo gera muzka.", "Šiandien lyja todėl liekame namie."]
pairs = [ParallelPair(str(k), s, t, tuple(extract_edits(s, t)))
         for k, (s, t) in enumerate(zip(sources, texts))]
with open(d / "gold.jsonl", "w", encoding="utf-8") as fp:
    write_pairs(pairs, fp)
(d / "hyp.txt").write_text("".join(t + "\n" for t in texts), encoding="utf-8")

runs = [
    ["preprocess", d / "raw.jsonl", d / "clean.jsonl"],
    ["correct", d / "clean.jsonl", d / "rules.jsonl"],
    ["correct", d / "clean.jsonl", d / "noisy.jsonl", "--lm-corpus", d / "raw.jsonl"],
    ["evaluate", d / "gold.jsonl", d / "hyp.txt"],
    ["stats", d / "clean.jsonl"],
]
codes = [main([str(a) for a in argv]) for argv in runs]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules,
                  "multiprocessing": "multiprocessing" in sys.modules}))
"""

CORRUPT = r"""
import json, sys
from pathlib import Path

from ltgec import CorruptionConfig, TextSample, corrupt, corrupt_rule_errors
from ltgec.cli import main

d = Path(sys.argv[1])
sample = TextSample("0", "Vakar bare „Oscar“ grojo gera muzika.")
corrupt(sample, CorruptionConfig(seed=1, typo_rate=0.3))
corrupt_rule_errors(sample, rate=0.5)
with open(d / "clean.jsonl", "w", encoding="utf-8") as fp:
    fp.write(json.dumps({"id": "0", "text": sample.text}, ensure_ascii=False) + "\n")
codes = [main(["corrupt", str(d / "clean.jsonl"), str(d / name), "--seed", "3", *extra])
         for name, extra in (("pairs.jsonl", []), ("pairs.m2", []),
                             ("rules.jsonl", ["--rule-errors"]))]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def run_fresh(code: str, *args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_pipeline_without_corrupt_leaves_numpy_unloaded(tmp_path):
    seen = run_fresh(PIPELINE_WITHOUT_CORRUPT, tmp_path)
    assert seen == {"codes": [0] * 5, "numpy": False, "multiprocessing": False}


def test_corrupt_leaves_numpy_unloaded(tmp_path):
    seen = run_fresh(CORRUPT, tmp_path)
    assert seen == {"codes": [0] * 3, "numpy": False}


STAR_IMPORT = r"""
import json

import ltgec
from ltgec import *

print(json.dumps([n for n in ltgec.__all__ if globals().get(n) is not getattr(ltgec, n)]))
"""


def test_public_names_resolve_to_their_modules():
    assert ltgec.__all__ == sorted(ltgec._MODULE_OF)
    for name in ltgec.__all__:
        module = importlib.import_module(f"ltgec.{ltgec._MODULE_OF[name]}")
        value = getattr(ltgec, name)
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert set(ltgec.__all__) <= set(dir(ltgec))
    with pytest.raises(AttributeError, match="no_such_name"):
        ltgec.no_such_name


def test_star_import_binds_every_public_name():
    assert run_fresh(STAR_IMPORT) == []


# Modules that the first four steps below never run; the last two run no noiser.
HEAVY = ("noiser", "alignment", "_kernels", "evaluator", "m2", "corrector", "confusions",
         "keyboard")

CLI_STEP = r"""
import json, sys

from ltgec.cli import main

try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print(json.dumps({"code": code,
                  "loaded": sorted(m[6:] for m in sys.modules if m.startswith("ltgec."))}))
"""


def test_each_subcommand_loads_only_its_modules(tmp_path):
    text = "Vakar bare grojo gera muzika, o „Oscar“ laimėjo."
    with open(tmp_path / "in.jsonl", "w", encoding="utf-8") as fp:
        write_samples([TextSample("0", text)], fp)
    source = "Vakar bare grojo gera muzka, o „Oscar“ laimėjo."
    with open(tmp_path / "gold.jsonl", "w", encoding="utf-8") as fp:
        write_pairs([ParallelPair("0", source, text, tuple(extract_edits(source, text)))], fp)
    (tmp_path / "hyp.txt").write_text(text + "\n", encoding="utf-8")
    d = str(tmp_path)
    light = [["--help"],
             ["preprocess", f"{d}/in.jsonl", f"{d}/clean.jsonl"],
             ["stats", f"{d}/in.jsonl"],
             ["correct", f"{d}/in.jsonl", f"{d}/rules.jsonl"]]
    heavy = [["correct", f"{d}/in.jsonl", f"{d}/noisy.jsonl", "--lm-corpus", f"{d}/in.jsonl"],
             ["evaluate", f"{d}/gold.jsonl", f"{d}/hyp.txt"]]
    for argv in light + heavy:
        seen = run_fresh(CLI_STEP, *argv)
        assert seen["code"] == 0, argv
        unloaded = HEAVY if argv in light else ("noiser",)
        assert [m for m in unloaded if m in seen["loaded"]] == [], argv
