#!/usr/bin/env python3
"""End-to-end timed-release benchmark: one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload cold_flow --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload catch_up --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --quick            # toy64, every workload once

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it is a JSON report with the run context, the wire digest, the
per-unit operation counts and the tail percentile behind ``flow_tail_ms``.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

# Set-up is repeated so setup_s is a median: at least MIN_SETUPS times
# and until SETUP_BUDGET_S seconds have gone into it, at most MAX_SETUPS.
MIN_SETUPS = 3
MAX_SETUPS = 10
SETUP_BUDGET_S = 2.5
# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

OP_COUNTERS = ("pairing", "miller_loop", "final_exp", "scalar_mult",
               "fixed_base_mult", "hash_to_group", "gt_exp", "gt_fixed_base",
               "pairing_precomp", "multi_pair")

# Per-layer span metrics: span name -> fields reported per unit of work.
SPAN_FIELDS = {
    "math.gt_table_exp": ("calls", "self_ms"),
    "ec.scalar_mult": ("calls", "self_ms"),
    "ec.fixed_base_mult": ("calls", "self_ms"),
    "pairing.hash_to_g1": ("calls", "self_ms", "total_ms"),
    "pairing.tate_pair": ("calls", "self_ms"),
    "pairing.tate_multi_pair": ("calls", "self_ms"),
    "pairing.miller_eval": ("calls", "self_ms"),
    "pairing.miller_record": ("calls", "self_ms"),
    "pairing.final_exp": ("calls", "self_ms"),
    "pairing.gt_exp": ("calls", "self_ms"),
    "pairing.mask_bytes": ("calls", "self_ms"),
    "crypto.aead_encrypt": ("calls", "self_ms"),
    "crypto.aead_decrypt": ("calls", "self_ms"),
    "core.keygen": ("total_ms",),
    "core.keycheck": ("total_ms",),
    "core.encrypt": ("total_ms",),
    "core.publish": ("total_ms",),
    "core.verify_update": ("total_ms",),
    "core.decrypt": ("total_ms",),
    "core.precompute_sender": ("total_ms",),
    "core.decrypt_batch": ("total_ms",),
    "core.verify_archive": ("total_ms",),
    "parallel.map": ("calls", "total_ms"),
    "service.handle_request": ("calls", "total_ms"),
    "service.wire.decode": ("total_ms",),
}
# Spans of the (traced) set-up, reported per set-up rather than per unit.
SETUP_SPANS = {
    "core.keygen": "total_ms",
    "core.keycheck": "total_ms",
    "core.publish": "total_ms",
    "core.precompute_sender": "total_ms",
    "core.encrypt": "total_ms",
    "pairing.miller_record": "self_ms",
    "ec.table_build": "total_ms",
    "math.gt_table_build": "total_ms",
}
SERVICE_STATS = ("attempts", "retries", "rejected", "failovers")
FIELD_UNITS = {"calls": "count", "self_ms": "ms", "total_ms": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="cold_flow")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="toy64, every workload once, all checks on")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------


def tail(samples):
    """``(value, percentile, n)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples above it; the maximum when the sample is
    too small for that percentile to reach the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return ordered[-1], 100.0, n
    index = n - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * index / (n - 1), n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fp_mul_ns(backend, rounds: int = 5, count: int = 5000) -> float:
    """Median ns per chained Fp multiplication on fixed inputs."""
    x, y = backend.p // 3, backend.p - 5
    fp_mul = backend.fp_mul
    samples = []
    for _ in range(rounds):
        value = x
        start = time.perf_counter_ns()
        for _ in range(count):
            value = fp_mul(value, y)
        samples.append((time.perf_counter_ns() - start) / count)
    return statistics.median(samples)


def counter_totals(groups) -> dict[str, int]:
    totals: dict[str, int] = {}
    for group in groups:
        for name, value in group.counters.snapshot().items():
            totals[name] = totals.get(name, 0) + value
    return totals


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Running a workload.
# ----------------------------------------------------------------------


def run_step(workload, step) -> float:
    """One step, timed; a step that raises counts its operations failed."""
    before = workload.attempted
    gc.collect()  # garbage from earlier steps is not this step's cost
    start = time.perf_counter()
    try:
        workload.run_step(step)
    except Exception:  # a failed step is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        missing = max(0, workload.ops_per_step - (workload.attempted - before))
        workload.attempted += missing
        workload.failed += missing
        workload.check_failures.append(f"step {step} raised")
    return time.perf_counter() - start


def measure(workload, seconds, recorder=None, max_steps=None):
    """Closed loop: steps back to back until ``seconds`` have passed.

    With a recorder every other step is traced, so host drift hits the
    traced and the untraced steps alike.  Returns the untraced and the
    traced step times, and the operation counts and service statistics
    of the counted steps (the traced ones when tracing, else all).
    """
    groups = workload.groups()
    deadline = time.perf_counter() + seconds
    times: dict[bool, list[float]] = {False: [], True: []}
    counts: Counter = Counter()
    stats: Counter = Counter()
    step = 0
    while True:
        traced = recorder is not None and step % 2 == 1
        counted = recorder is None or traced
        if counted:
            counts.subtract(counter_totals(groups))
            stats.subtract(workload.service_stats)
        if traced:
            recorder.unit = step
            recorder.install()
        try:
            times[traced].append(run_step(workload, step))
        finally:
            if traced:
                recorder.uninstall()
        if counted:
            counts.update(counter_totals(groups))
            stats.update(workload.service_stats)
        step += 1
        if max_steps is not None:
            if step >= max_steps:
                break
        elif step >= (2 if recorder else 1) and time.perf_counter() >= deadline:
            break
    return times[False], times[True], dict(counts), dict(stats)


def set_up(cls, params, seed, repeat):
    """Set up ``repeat`` times (``None``: the median rule above); keep the
    last state.  Returns the workload and every set-up time."""
    times = []
    samples: dict[str, list[float]] = {}
    workload = None
    spent = 0.0
    while True:
        if workload is not None:
            workload.close()
        workload = cls(params, seed)
        elapsed = workload.setup()
        times.append(elapsed)
        spent += elapsed
        for key, values in workload.setup_samples.items():
            samples.setdefault(key, []).extend(values)
        if repeat is not None:
            if len(times) >= repeat:
                break
        elif len(times) >= MAX_SETUPS or (
            len(times) >= MIN_SETUPS and spent >= SETUP_BUDGET_S
        ):
            break
    workload.setup_samples = samples
    return workload, times


def context(workload, args) -> dict:
    group = workload.groups()[0]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "params": group.params.name,
        "backend": group.backend_name,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(workload, setup_times) -> dict:
    flow_tail, _, _ = tail(workload.flow_ms)
    encrypt = workload.setup_samples.get("encrypt_per_s") or workload.encrypt_rates
    values = {
        "flow_p50_ms": (statistics.median(workload.flow_ms), "ms"),
        "flow_tail_ms": (flow_tail, "ms"),
        "encrypt_per_s": (statistics.median(encrypt), "1/s"),
        "decrypt_per_s": (statistics.median(workload.decrypt_rates), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(workload, recorder, units, counts, stats, setup_summary,
              untraced_step_s, traced_step_s) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    summary = recorder.summary()
    for span, fields in SPAN_FIELDS.items():
        entry = summary.get(span, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        for field in fields:
            name = "service.wire.decode_ms" if span == "service.wire.decode" \
                else f"{span}.{field}"
            metrics[name] = (entry[field] / units, FIELD_UNITS[field])
    metrics["math.fp_mul_ns"] = (fp_mul_ns(workload.groups()[0].backend), "ns")
    for name in OP_COUNTERS:
        metrics[f"pairing.count.{name}"] = (counts.get(name, 0) / units, "count")
    metrics["ec.fixed_base_hit_ratio"] = (
        ratio(counts.get("fixed_base_mult", 0), counts.get("scalar_mult", 0)), "ratio")
    metrics["pairing.line_cache_hit_ratio"] = (
        ratio(counts.get("pairing_precomp", 0), counts.get("miller_loop", 0)), "ratio")
    metrics["pairing.gt_table_hit_ratio"] = (
        ratio(counts.get("gt_fixed_base", 0), counts.get("gt_exp", 0)), "ratio")
    metrics["pairing.final_exp_per_miller_loop"] = (
        ratio(counts.get("final_exp", 0), counts.get("miller_loop", 0)), "ratio")
    metrics["crypto.dem_bytes"] = (recorder.counts["crypto.dem_bytes"] / units, "B")
    metrics["parallel.items"] = (recorder.counts["parallel.items"] / units, "count")
    choices = recorder.worker_choices
    metrics["parallel.workers"] = (
        float(statistics.mean(choices)) if choices else 0.0, "count")
    for key in SERVICE_STATS:
        metrics[f"service.{key}"] = (stats.get(key, 0) / units, "count")
    core_ms = recorder.root_total_ms(
        name for name in SPAN_FIELDS if name.startswith("core."))
    metrics["core.cover_pct"] = (100.0 * core_ms / 1000.0 / sum(traced_step_s), "%")
    metrics["trace.overhead_pct"] = (100.0 * (
        statistics.mean(traced_step_s) / statistics.mean(untraced_step_s) - 1.0), "%")
    for span, field in SETUP_SPANS.items():
        entry = setup_summary.get(span, {"self_ms": 0.0, "total_ms": 0.0})
        metrics[f"setup.{span}.{field}"] = (entry[field], "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(cls, args):
    params = "toy64" if args.quick else "ss512"
    recorder = SpanRecorder() if args.trace else None
    if recorder is None:
        workload, setup_times = set_up(cls, params, args.seed, 1 if args.quick else None)
    else:
        # One traced set-up: its spans show where set-up time goes.
        recorder.install()
        try:
            workload, setup_times = set_up(cls, params, args.seed, 1)
        finally:
            recorder.uninstall()
        setup_summary = recorder.summary()
        recorder.reset()
    try:
        if recorder is None:
            max_steps = 1 if args.quick else None
        else:
            max_steps = 2 if args.quick else None
        untraced_step_s, traced_step_s, counts, stats = measure(
            workload, args.seconds, recorder, max_steps)
        steps = len(untraced_step_s) + len(traced_step_s)
        counted_steps = len(traced_step_s) if recorder else steps
        units = counted_steps * workload.units_per_step
        workload.final_checks()
        if recorder is None:
            metrics = end_to_end(workload, setup_times)
        else:
            metrics = per_layer(workload, recorder, units, counts, stats, setup_summary,
                                untraced_step_s, traced_step_s)
            OUT_DIR.mkdir(exist_ok=True)
            recorder.write(OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl")
        _, tail_pct, samples = tail(workload.flow_ms)
        report = {
            "context": context(workload, args),
            "setup_runs": len(setup_times),
            "steps": steps,
            "flow_samples": samples,
            "flow_tail_percentile": tail_pct,
            "failed_frac": ratio(workload.failed, workload.attempted),
            "wire_digest": workload.wire_digest,
            "op_counts_per_unit": {
                name: counts.get(name, 0) / units for name in OP_COUNTERS
            },
            "unit": workload.unit_name,
            "check_failures": workload.check_failures[:5],
        }
        if workload.service_stats:
            report["service_stats"] = workload.service_stats
        if hasattr(workload, "stage_ms"):
            report["stage_p50_ms"] = {
                stage: statistics.median(values)
                for stage, values in workload.stage_ms.items()
            }
    finally:
        workload.close()
    result = {
        "correct": not workload.check_failures and workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.quick:
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    all_correct = True
    for name in names:
        report, result = run(WORKLOADS[name], args)
        all_correct = all_correct and result["correct"]
        print(json.dumps({"report": report}))
        print(json.dumps(result), flush=True)
    return 0 if all_correct or not args.quick else 1


if __name__ == "__main__":
    sys.exit(main())
