#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 benchmarks/selftest.py

1. Runs every workload for one second, untraced and traced, and checks
   that the result line carries exactly the metrics BENCHMARK.json
   names, with their units, that every op passed, and that the traced
   run's output digest equals the untraced run's.
2. Runs mazur-train in-process against a deliberately wrong golden
   trace line and checks that the ops are counted as failed.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   the benchmark's files, where it must exit non-zero without a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def digest_line(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith("digest "))


def check_emitted(spec: dict, failures: list[str]) -> None:
    for w in spec["workloads"]:
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{w['name']} --trace {trace}"
            proc = bench(ROOT, w["name"], trace)
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{where}: ops failed: {proc.stdout[-2000:]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            for name, m in result["metrics"].items():
                v = m["value"]
                if not math.isfinite(v) or (key == "end_to_end" and v <= 0):
                    failures.append(f"{where}: {name} = {v}")
            digests.append(digest_line(proc.stdout))
        if len(digests) == 2 and digests[0] != digests[1]:
            failures.append(f"{w['name']}: traced digest differs: {digests}")
        print(f"emitted: {w['name']} checked", flush=True)


def check_wrong_golden(failures: list[str]) -> None:
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    workloads.MAZUR_TRACE_LINE1 = "1,0.14918556"  # one digit off Mazur's value
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = run.main(["--workload", "mazur-train", "--seed", "3",
                       "--seconds", SECONDS, "--trace", "0"])
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    if rc != 0 or result["correct"] or result["failed"] == 0:
        failures.append(f"wrong golden not counted as failed: {result}")
    rate = next(ln for ln in buf.getvalue().splitlines() if ln.startswith("error_rate"))
    if not float(rate.split()[2]) > 0:
        failures.append(f"wrong golden left {rate}")
    print(f"wrong golden: {rate}", flush=True)


def check_bare_directory(spec: dict, failures: list[str]) -> None:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        print(f"bare directory: exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(bare)
        try:
            work.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check_emitted(spec, failures)
    check_bare_directory(spec, failures)
    check_wrong_golden(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
