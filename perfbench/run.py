"""nnsig benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload sign-verify --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``sign-verify`` and ``cli-session``.
Metric names and units come from BENCHMARK.json at the repository root.

``--trace 0`` repeats the workload's set-up (each time a fresh interpreter
importing nnsig, then the in-process set-up; ``setup_s`` is the median, in
seconds), runs the closed loop for ``--seconds`` and reports the end-to-end
metrics.  Between steps it runs a fixed calibration kernel for a fifth of the
time, and reports latencies in runs of that kernel (unit ``cal``) and
throughput in ops per 1000 of them (``1/kcal``), which cancels the swings in
CPU speed of a shared host (see harness.Calibrator).  The same latencies in
milliseconds are printed as detail lines.  The whole benchmark runs on one
CPU (see ``pin_to_one_cpu``).

``--trace 1`` sets up once, runs the loop for ``--seconds`` in eight
stretches that are alternately untraced and traced, and reports the
per-layer metrics: per-op calls and self CPU time of each wrapped function
(see tracing.py), exact field-op counts and sync frame sizes from the
fixed-seed pipeline, CLI start-up and per-subcommand times, and the tracing
overhead (traced against untraced median op).  Spans of the latest traced run
of each workload are written to ``perfbench/out/trace-<workload>.jsonl``.

Both modes check every op and run the fixed-seed output-identity guard; a
failed check or an op that raised counts in ``failed``.  The last line of
stdout is the JSON result.  The benchmark imports nnsig from ``src/`` of the
checkout it sits in and exits 2 when that is missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_nnsig():
    """Import nnsig from this checkout's src/, never from anywhere else."""
    package = SRC / "nnsig"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from a checkout of the nnsig repository",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import nnsig

    if Path(nnsig.__file__).resolve().parent != package:
        print(f"error: imported nnsig from {nnsig.__file__}, expected {package}", file=sys.stderr)
        raise SystemExit(2)
    return nnsig


def pin_to_one_cpu():
    """Run this process and every child it starts on one CPU.

    The calibration (harness.Calibrator) measures the speed of the CPU it
    runs on; with the whole benchmark on that CPU, the CLI children and both
    sync threads run at the speed it measured, and the interpreter lock never
    has to wait for a thread on the other CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "numpy": numpy_version,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    import_nnsig()
    import measure
    import workloads

    record = run_record(args)
    print("record " + json.dumps(record, sort_keys=True))
    workload = workloads.make(args.workload, traced=bool(args.trace))
    if args.trace:
        metrics, samples = measure.per_layer(workload, args, record)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, samples = measure.end_to_end(workload, args)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        print(f"{name:<36s} {metrics[name]:>14.6g} {unit}")
    error_ratio = samples.failed / samples.attempted if samples.attempted else 1.0
    print(f"error_ratio {error_ratio:.6g} ({samples.failed} failed of {samples.attempted} attempted)")
    result = {
        "correct": samples.failed == 0 and samples.attempted > 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
