"""Run workloads over several seeds and summarise each end-to-end metric.

Usage (from the repository root):

    python3 perfbench/collect.py --seeds 1-10 [--workloads news-pipeline,...] [--out FILE]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time, and
prints per metric the median, the quartiles, and the spread (quartile
distance over median) next to the metric's bound in BENCHMARK.json. With
``--out`` it writes the summary, the environment and each run's artifact
digests as JSON (``baseline.json`` is such a file).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOAD_NAMES, load_spec


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            last = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= last["correct"]
            for name, metric in last["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            record = json.loads((ROOT / ".perfbench_out" / f"{workload}-s{seed}-t0"
                                 / "result.json").read_text(encoding="utf-8"))
            runs.append({"seed": seed, "correct": last["correct"],
                         "attempted": last["attempted"], "failed": last["failed"],
                         "digests": record["digests"]})
            print(f"{workload} seed {seed}: correct={last['correct']}", flush=True)
        metrics = {name: _summary(v) for name, v in values.items()}
        print(f"{workload}:")
        for name, s in metrics.items():
            print(f"  {name:<30} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]})")
        summary["workloads"][workload] = {
            "environment": record["environment"], "metrics": metrics, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
