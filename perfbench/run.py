"""Pipeline benchmark for ltgec: runs one workload and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload news-pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload once untraced and once traced and reports the per-layer
metrics. The metric names and units are those of BENCHMARK.json. Output is a
table, the environment, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans, artifacts and a
full result record go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("news-pipeline", "long-paragraphs", "cli-jobs2")


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end(result, checks) -> dict:
    passes = result.passes

    def seconds(stage):
        """Median over the passes that ran the stage."""
        return statistics.median(p.times[stage] for p in passes if stage in p.times)

    def rate(stage):
        repeated = [r for p in passes for r in p.rates[stage]]
        if repeated:
            return statistics.median(repeated)
        return passes[0].counts[stage] / seconds(stage)

    latencies = [x for p in passes for x in p.latencies_ms]
    return {
        "setup_s": statistics.median(result.setup_probes_s),
        "preprocess_samples_per_s": rate("preprocess"),
        "corrupt_samples_per_s": rate("corrupt"),
        "correct_rules_samples_per_s": rate("correct_rules"),
        "correct_noisy_samples_per_s": rate("correct_noisy"),
        "evaluate_pairs_per_s": rate("evaluate"),
        "pipeline_chars_per_s": passes[0].raw_chars / sum(map(seconds, result.pipeline)),
        "sample_ms_p50": statistics.median(latencies),
        "sample_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": result.peak_rss_mb,
        "f05": result.f05,
        "failed_share": checks.failed_share,
    }


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "ltgec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, sizes: dict) -> dict:
    import numpy

    from ltgec import _kernels

    return {
        "backend": _kernels.active_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(ROOT),
        "source_sha256": _source_sha256(SRC),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def _table(title: str, rows) -> str:
    lines = [title]
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<40} {shown:>14} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ltgec pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ltgec" / "__init__.py").is_file():
        print(f"error: no ltgec sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(SRC))
    import workloads

    out = ROOT / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), ROOT, out)
    result = workloads.WORKLOADS[args.workload](run)
    checks = run.checks

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: result.per_layer.get(m["name"], 0) for m in wanted}
        rows = [(m["name"], result.per_layer.get(m["name"]), m["unit"]) for m in wanted]
        print(_table(f"{args.workload}: per-layer metrics, traced run "
                     "(n/a: layer not run, reported as 0)", rows))
    else:
        e2e = end_to_end(result, checks)
        wanted = spec["end_to_end"]
        values = {m["name"]: e2e[m["name"]] for m in wanted}
        units = {m["name"]: m["unit"] for m in wanted} | {"failed_share": "ratio"}
        samples = sum(len(p.latencies_ms) for p in result.passes)
        print(_table(f"{args.workload}: end-to-end metrics, {len(result.passes)} pass(es), "
                     f"{samples} samples in the latency percentiles",
                     [(name, value, units[name]) for name, value in e2e.items()]))
    env = environment(args, result.sizes)
    print("environment: " + json.dumps(env, sort_keys=True))
    if checks.failures:
        print("failed checks:\n  " + "\n  ".join(checks.failures))
    record = {
        "environment": env,
        "metrics": values,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "digests": result.digests,
        "setup_probes_s": result.setup_probes_s,
        "passes": [dict(p.times) for p in result.passes],
    }
    (out / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
