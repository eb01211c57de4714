"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import workloads  # noqa: E402
from checks import Checks, check_pairs  # noqa: E402
from ltgec import CorruptionConfig, Edit, ParallelPair, TextSample, corrupt  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("make", [gen.news_inputs, gen.long_inputs])
def test_generator_is_deterministic_in_its_seed(make):
    a, b, other = make(7), make(7), make(8)
    assert gen.to_jsonl(a.raw) == gen.to_jsonl(b.raw)
    assert gen.to_jsonl(a.lm) == gen.to_jsonl(b.lm)
    assert gen.to_jsonl(a.raw) != gen.to_jsonl(other.raw)


@pytest.mark.parametrize("make", [gen.news_inputs, gen.long_inputs])
@pytest.mark.parametrize("seed", range(1, 6))
def test_every_filter_reason_and_the_split_fire(make, seed):
    raw = [TextSample(r["id"], r["text"]) for r in make(seed).raw]
    _, dropped, pieces = workloads.preprocess_stage(raw)
    assert all(dropped[reason] > 0 for reason in workloads.DROP_REASONS)
    assert pieces > 0


def test_a_wrong_gold_edit_raises_failed_share():
    pair = corrupt(TextSample("s1", "Vakar bare „Oscar“ buvo gera muzika ir daug žmonių."),
                   CorruptionConfig(seed=42, typo_rate=0.2))
    good = Checks()
    check_pairs([pair], good)
    assert good.attempted > 0 and good.failed_share == 0
    first = pair.edits[0]
    wrong = Edit(first.start, first.end, first.replacement + "x", first.category)
    bad = Checks()
    check_pairs([ParallelPair(pair.id, pair.source, pair.target,
                              (wrong, *pair.edits[1:]))], bad)
    assert bad.failed_share > 0


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, key):
    done = _run(ROOT, "--workload", "long-paragraphs", "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC[key]]


def test_fails_without_the_program_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run(bare, "--workload", "news-pipeline", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
