#!/usr/bin/env python3
"""Repeat the benchmark over seeds and record the spread of every metric.

    python3 benchmarks/collect.py --runs 10 --out benchmarks/BENCH_0.json

For each workload in BENCHMARK.json it makes --runs untraced runs with
seeds 1..runs at the committed run length, and one traced run with
seed 1.  It writes each end-to-end metric's values, median, quartiles
and spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives them), the traced run's
per-layer metrics, the output digests and the machine record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        digests, failed, attempted = set(), 0, 0
        for seed in range(1, args.runs + 1):
            result, report = bench(name, seed, seconds, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            if seed == 1:
                digests.add(next(ln for ln in report if ln.startswith("digest ")))
                record["machine"] = next(ln for ln in report if ln.startswith("machine: "))
            print(f"{name} seed {seed}: {result['metrics']['op_ms.p50']['value']:.3f} ms p50",
                  flush=True)
        traced, report = bench(name, 1, seconds, 1)
        digests.add(next(ln for ln in report if ln.startswith("digest ")))
        record["workloads"][name] = {
            "end_to_end": {metric: spread(v) for metric, v in values.items()},
            "error_rate": failed / attempted,
            "traced_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_correct": traced["correct"],
            "digest_seed1": sorted(digests),
        }
        for metric, s in record["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f}",
                  flush=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
