#!/usr/bin/env python3
"""pdakit benchmark: one workload per process, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {color,train,simulate} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; pdakit is imported from src/.
The load is a closed loop with one client and one thread, with BLAS
pinned to one thread.  --trace 0 reports the end-to-end metrics;
--trace 1 wraps pdakit's public functions, reports per-layer metrics
and then measures the same phase untraced for the tracing overhead.
--smoke shrinks every workload to a few small inputs.  Progress and
provenance go to the lines before the last; the last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "greedy_load": "S/F",
    "neural_load": "S/F",
    "train_nll": "nat",
}

TRACE_NOTE = (
    "spans are recorded from outside pdakit: neural.supervised_loss and "
    "neural.reinforce_objective_and_grad each cover forward and backward "
    "passes together; their split needs spans inside the library"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["color", "train", "simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    return parser.parse_args(argv)


def percentiles(ms):
    ms = sorted(ms)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90


def summarize(timing):
    """Throughput and op-time percentiles, all at the reference speed."""
    p50, p90 = percentiles(timing.scaled_ms)
    return {"ops_per_s": timing.units * 1000.0 / timing.scaled_busy_ms,
            "op_ms_p50": p50, "op_ms_p90": p90}


def provenance(args, workload):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs": workload.provenance(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "setup_repeats": SETUP_REPEATS,
        "load": "closed loop, 1 client, 1 thread",
    }


def untraced(args, cls, workdir):
    from workloads import probe, to_reference

    setups, raw_setups = [], []
    before = probe()
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        workload = None    # drop the previous set-up before building the next
        t0 = time.perf_counter()
        workload = cls(args.seed, args.smoke, workdir)
        workload.generate()
        workload.prepare()
        raw_setups.append(time.perf_counter() - t0)
        after = probe()
        setups.append(to_reference(raw_setups[-1], before, after))
        before = after
    timing = workload.run(args.seconds)
    quality, quality_ok = workload.quality()
    metrics = {
        "setup_s": statistics.median(setups),
        **summarize(timing),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - timing.failed / len(timing.op_ms),
        **quality,
    }
    raw_p50, raw_p90 = percentiles(timing.op_ms)
    print(f"{args.workload}: {len(timing.op_ms)} ops, {timing.failed} failed; at reference speed: "
          f"set-up {metrics['setup_s']:.4f} s (median of {len(setups)}), "
          f"p50 {metrics['op_ms_p50']:.3f} ms, p90 {metrics['op_ms_p90']:.3f} ms "
          f"over {len(timing.op_ms)} samples; raw: set-up {statistics.median(raw_setups):.4f} s, "
          f"p50 {raw_p50:.3f} ms, p90 {raw_p90:.3f} ms")
    return workload, [timing], quality_ok, {k: (metrics[k], u) for k, u in E2E_UNITS.items()}


def traced(args, cls, workdir):
    import tracing

    workload = cls(args.seed, args.smoke, workdir)
    workload.generate()
    tracer = tracing.Tracer()
    tracer.start()
    try:
        workload.prepare()
        with_trace = workload.run(args.seconds, tracer)
    finally:
        tracer.restore()
    without = workload.run(args.seconds)
    _, quality_ok = workload.quality()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (
        summarize(with_trace)["ops_per_s"] / summarize(without)["ops_per_s"])
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans)
    print(f"{args.workload}: {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    print(f"note: {TRACE_NOTE}")
    units = tracing.metric_units()
    return workload, [with_trace, without], quality_ok, {k: (metrics[k], u) for k, u in units.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pdakit" / "__init__.py").is_file():
        print(f"error: no pdakit sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import pdakit

    if Path(pdakit.__file__).resolve().parent != SRC / "pdakit":
        print(f"error: pdakit imported from {pdakit.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    import checks
    import workloads

    checks.self_test()
    workdir = WORK / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else untraced
        workload, timings, quality_ok, metrics = run(args, workloads.WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(t.op_ms) for t in timings)
    failed = sum(t.failed for t in timings)
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    if not finite:    # only when every op of a kind failed; keep the line valid JSON
        metrics = {k: (v if math.isfinite(v) else 0.0, u) for k, (v, u) in metrics.items()}
    print(json.dumps({"provenance": provenance(args, workload)}))
    print(json.dumps({
        "correct": failed == 0 and quality_ok and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
