"""No path loads numpy, --jobs 1 starts no pool, and the package's names
are plain module attributes.

The numpy and pool checks run in a fresh interpreter, because this suite's
conftest imports numpy itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ltgec

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


def test_package_names_are_plain_attributes():
    names = vars(ltgec)
    assert [n for n in ltgec.__all__ if n not in names] == []
    assert "__getattr__" not in names
