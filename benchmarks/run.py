#!/usr/bin/env python3
"""Benchmark of the nncat engine, one workload per process.

    python3 benchmarks/run.py --workload wide-sgd --seed 1 --seconds 20 --trace 0

Imports nncat from this checkout's src/, sets the workload up from the
seed several times (set-up time is the median), runs ops one after
another on one thread for the given seconds and checks every op's
output.  It prints a report and, as its last line, one JSON object:
the end-to-end metrics with --trace 0, or with --trace 1 the per-layer
metrics of an outside-in trace (see tracer.py), taken after an untraced
half run so that the tracing overhead is reported too.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracer as tracing  # noqa: E402  (sibling module of this script)
import workloads  # noqa: E402

NNCAT_MODULES = (
    "activation", "algebra", "network", "loss", "backward", "backprop",
    "oracle", "fileio", "randnet", "demo", "cli",
)
SETUP_REPEATS = 5
# Fixed so the metric means the same thing whatever the op rate; every
# workload runs well over 100 ops at the committed run length, so at
# least ten samples lie beyond it.
TAIL_PERCENTILE = 90


def load_nncat() -> SimpleNamespace:
    """Import nncat afresh from the checkout, so every set-up pays the import."""
    for name in [m for m in sys.modules if m == "nncat" or m.startswith("nncat.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"nncat.{name}") for name in NNCAT_MODULES}
    origin = Path(sys.modules["nncat"].__file__).resolve().parent
    if origin != SRC / "nncat":
        raise RuntimeError(f"imported nncat from {origin}, not from {SRC / 'nncat'}")
    return SimpleNamespace(**mods)


def machine_record() -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"machine: nproc={os.cpu_count()} cpu={cpu!r} "
        f"python={platform.python_version()} platform={platform.platform()}"
    )


class Phase:
    """Latencies and failed ops of one stretch of consecutive ops."""

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.spans: tuple[int, list] | None = None

    def fail(self, i: int, problems: list[str]) -> None:
        if problems:
            self.failed.add(i)
            self.problems += problems


def run_phase(w, first: int, seconds: float, tracer=None, between=None) -> tuple[Phase, int]:
    """Ops first, first+1, ... until `seconds` have passed and at least
    w.min_ops ran; only the op itself is timed (and traced).  `between(i)`
    runs after op i is checked."""
    phase = Phase()
    deadline = perf_counter() + seconds
    i = first
    while i - first < w.min_ops or perf_counter() < deadline:
        if tracer is not None:
            tracer.active = True
        start = perf_counter_ns()
        try:
            out = w.op(i)
            error = None
        except (Exception, SystemExit) as exc:  # an op that dies is a failed op
            error = f"op {i}: {type(exc).__name__}: {exc}"
        end = perf_counter_ns()
        if tracer is not None:
            tracer.active = False
            if tracer.spans is not None:
                phase.spans, tracer.spans = (i, tracer.spans), None
        phase.latencies_ns.append(end - start)
        phase.fail(i, [error] if error else w.check(i, out))
        if between is not None:
            between(i)
        i += 1
    return phase, i


def p50_ms(latencies_ns: list[int]) -> float:
    return statistics.median(latencies_ns) / 1e6


def tail_ms(latencies_ns: list[int]) -> tuple[float, int]:
    """Latency at TAIL_PERCENTILE and the number of samples beyond it."""
    if len(latencies_ns) < 2:
        value = max(latencies_ns)
    else:
        cuts = statistics.quantiles(latencies_ns, n=100, method="inclusive")
        value = cuts[TAIL_PERCENTILE - 1]
    return value / 1e6, sum(v > value for v in latencies_ns)


def end_to_end(w, setup_s: float, phase: Phase) -> dict:
    lat = phase.latencies_ns
    busy_s = sum(lat) / 1e9
    tail, beyond = tail_ms(lat)
    print(f"op_ms.tail is p{TAIL_PERCENTILE} of {len(lat)} samples, {beyond} beyond it")
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (p50_ms(lat), "ms"),
        "op_ms.tail": (tail, "ms"),
        "steps_per_s": (len(lat) * w.steps_per_op / busy_s, "1/s"),
        "entries_per_s": (len(lat) * w.entries_per_op / busy_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(agg, ops: int) -> dict:
    metrics = {}
    for name in tracing.SPAN_NAMES:
        calls, self_ns, _ = agg.stats.get(name, (0, 0, 0))
        metrics[f"{name}.calls_per_op"] = (calls / ops, "count")
        metrics[f"{name}.self_ms_per_op"] = (self_ns / ops / 1e6, "ms")
    for name in tracing.COUNTER_NAMES:
        metrics[f"{name}_per_op"] = (agg.counts.get(name, 0) / ops, "count")
    return metrics


def step_forward(step_ns: list[int], forward_ns: list[int]) -> dict:
    step_ms = statistics.median(step_ns) / 1e6
    forward_ms = statistics.median(forward_ns) / 1e6
    print(
        f"step_forward_ratio = {step_ms / forward_ms:.3f} "
        f"(backprop_step {step_ms:.4f} ms over net_forward {forward_ms:.4f} ms, medians)"
    )
    return {
        "backprop.backprop_step.median_ms": (step_ms, "ms"),
        "network.net_forward.median_ms": (forward_ms, "ms"),
        "step_forward_ratio": (step_ms / forward_ms, "ratio"),
    }


def overhead(untraced: Phase, traced: Phase) -> dict:
    base, with_trace = p50_ms(untraced.latencies_ns), p50_ms(traced.latencies_ns)
    return {
        "trace.untraced_op_ms.p50": (base, "ms"),
        "trace.traced_op_ms.p50": (with_trace, "ms"),
        "trace.overhead_ms_per_op": (with_trace - base, "ms"),
    }


def write_spans(path: Path, spans: tuple[int, list]) -> None:
    """One JSON line per span of one traced op, times relative to its first span."""
    op, records = spans
    t0 = min(r[3] for r in records)
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as out:
        for span_id, parent, name, start, end in records:
            out.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                  "start_ns": start - t0, "end_ns": end - t0}) + "\n")
    print(f"spans of traced op {op} written to {path.relative_to(ROOT)}")


def run(args, workdir: Path) -> int:
    print(machine_record())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    cls = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        w = cls(load_nncat(), args.seed, workdir)
        setup_times.append(perf_counter() - start)
    setup_problems = w.setup_problems()

    if args.trace:
        untraced, nxt = run_phase(w, 0, args.seconds / 2)
        ops = tracing.Aggregate(keep_durations=("backprop.backprop_step",))
        probe = tracing.Aggregate(keep_durations=("network.net_forward",))
        tracer = tracing.Tracer(ops)
        tracer.install()
        tracer.spans = []  # kept for the first traced op only
        net, inputs = w.forward_probe()

        def forward(i: int) -> None:
            # One traced forward after each op, into its own aggregate, so
            # both sides of the step/forward ratio see the same machine.
            tracer.into, tracer.active = probe, True
            w.nn.network.net_forward(net, inputs[i % len(inputs)])
            tracer.into, tracer.active = ops, False

        traced, end = run_phase(w, nxt, args.seconds / 2, tracer, between=forward)
        phases = [untraced, traced]
        metrics = per_layer(ops, len(traced.latencies_ns))
        metrics.update(step_forward(ops.durations["backprop.backprop_step"],
                                    probe.durations["network.net_forward"]))
        metrics.update(overhead(untraced, traced))
        if traced.spans[1]:
            write_spans(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl",
                        traced.spans)
    else:
        phase, end = run_phase(w, 0, args.seconds)
        phases = [phase]
        metrics = end_to_end(w, statistics.median(setup_times), phase)

    # Set-up checks count against the first op, end-of-run checks the last.
    phases[0].fail(0, setup_problems)
    phases[-1].fail(end - 1, w.finish())
    attempted = sum(len(p.latencies_ns) for p in phases)
    failed = sum(len(p.failed) for p in phases)
    problems = [m for p in phases for m in p.problems]
    for message in problems[:20]:
        print(f"problem: {message}")
    print(f"error_rate = {failed / attempted} ({failed} of {attempted} ops failed)")
    print(f"digest {args.workload} {w.digest()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nncat" / "__init__.py").is_file():
        print(f"run.py: no nncat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
