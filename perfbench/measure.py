"""The two kinds of run: end-to-end metrics untraced, per-layer metrics traced."""

from __future__ import annotations

import itertools
import statistics
import time

from harness import (
    OUT_DIR, Calibrator, Samples, chunked_percentile, cold_import_seconds, run_window,
)
from tracing import TRACED, Tracer, span_name
from workloads import CliSession


def end_to_end(workload, args) -> tuple:
    """Set up ``setup_repeats`` times, run the untraced loop with calibration
    between steps, return the end-to-end metrics and the tally of checks.

    Latencies are reported in runs of the calibration kernel measured next
    to them (unit ``cal``, see harness.Calibrator); the same latencies in
    milliseconds are printed as detail lines.  ``setup_s`` stays in seconds.
    """
    samples = Samples(Calibrator())
    setups = []
    state = None
    for _ in range(workload.setup_repeats):
        if state is not None:
            workload.close(state)
        seconds = cold_import_seconds()
        start = time.perf_counter()
        state = workload.setup(args.seed, samples)
        setups.append(seconds + time.perf_counter() - start)
    guard = Samples()
    try:
        elapsed = run_window(lambda i: workload.step(state, i, samples), args.seconds, samples)
        workload.guard(state, guard)
    finally:
        workload.close(state)
    samples.absorb(guard)
    for line in samples.summary():
        print(line)
    print(f"throughput {len(samples.times['op']) / elapsed:.6g} ops/s over {elapsed:.4g} s "
          f"({100 * sum(samples.calibrator.times) / elapsed:.3g}% of it calibrating)")
    ops = samples.cal("op")
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": workload.peak_rss_mib(),
        "ops_per_kcal": 1e3 * len(ops) / sum(ops),
        "op_p50_cal": statistics.median(ops),
        "op_tail_cal": chunked_percentile(ops, workload.tail_pct),
        "sign_p50_cal": statistics.median(samples.cal("sign")),
        "verify_p50_cal": statistics.median(samples.cal("verify")),
    }
    return metrics, samples


TIMED_WITH_CALLS = ("mat_mul", "mat_pow", "mat_inv", "det", "mat_vec", "vec_mat")
CLI_SUBCOMMANDS = ("keygen", "sync", "sign", "verify", "params", "attack")
PHASES = ("keygen", "signer_setup", "sign", "verify", "sync")
TRACE_STRETCHES = 8


def per_layer(workload, args, record) -> tuple:
    """Set up once, then alternate untraced and traced stretches of the loop
    (so drift in machine speed hits both alike); return the per-layer metrics
    and the tally of checks.  Spans go to OUT_DIR."""
    samples = Samples()
    state = workload.setup(args.seed, samples)
    untraced = Samples()
    traced = Samples()
    tracer = Tracer()
    steps = itertools.count()
    try:
        for k in range(TRACE_STRETCHES):
            part = traced if k % 2 else untraced
            if part is traced:
                tracer.install()
            try:
                run_window(lambda _: workload.step(state, next(steps), part),
                           args.seconds / TRACE_STRETCHES, part)
            finally:
                tracer.uninstall()
        counts = workload.guard(state, samples)
    finally:
        workload.close(state)
    samples.absorb(untraced)
    samples.absorb(traced)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl", record)

    ops = len(traced.times["op"]) or 1
    self_times = tracer.self_times()
    metrics = {}
    for module, attrs in TRACED.items():
        for attr in attrs:
            name = span_name(module, attr)
            calls, self_wall, self_cpu = self_times.get(name, (0, 0.0, 0.0))
            if name == "sync.recv_frame":  # blocked waiting for the peer's frame
                metrics["sync.recv_wait_s"] = (self_wall - self_cpu) / ops
                continue
            metrics[f"{name}.self_s"] = self_cpu / ops
            if attr in TIMED_WITH_CALLS:
                metrics[f"{name}.calls"] = calls / ops
    metrics["sync.wire_bytes"] = sum(c["wire_bytes"] for c in counts)
    metrics["sync.frames"] = sum(c["frames"] for c in counts)
    for phase in PHASES:
        for op in ("muls", "adds", "subs", "invs"):
            metrics[f"field.{op}.{phase}"] = sum(c["ops"][phase][op] for c in counts)
    is_cli = isinstance(workload, CliSession)
    metrics["cli.startup_s"] = workload.startup_seconds() if is_cli else 0.0
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.s"] = statistics.median(traced.times[sub] or [0.0]) if is_cli else 0.0
    metrics["trace.overhead_pct"] = 100 * (
        statistics.median(traced.times["op"]) / statistics.median(untraced.times["op"]) - 1
    )
    return metrics, samples
