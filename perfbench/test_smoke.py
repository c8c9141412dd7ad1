"""Smoke test for the benchmark itself: every workload at --seconds 1, both modes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("sync.wire_bytes", "sync.frames")


def bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0  # error_ratio is 0
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = bench(workload, trace=0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_exact_counts_repeat(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [n for n in units(first) if n.startswith("field.") or n in EXACT]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact
    }
    assert first["metrics"]["sync.frames"]["value"] > 0
    assert first["metrics"]["matrix.mat_vec.calls"]["value"] > 0


def test_corrupted_signature_is_scored_as_a_correct_rejection():
    sys.path.insert(0, str(HERE))
    from run import import_nnsig

    nnsig = import_nnsig()
    from harness import Samples
    from workloads import verdict_ok

    field = nnsig.Field(257)
    config = nnsig.NetworkConfig(n=8, field=field, rho=3, seed=b"smoke")
    rng = random.Random(5)
    pk, sk = nnsig.keygen(config, rng)
    theta = field.sample_vector(rng, 8)
    message = b"smoke message"
    signature = nnsig.sign(sk, theta, message, rng)
    blob = nnsig.serialize_signature(signature, field)
    changed = nnsig.Signature(
        sigma0=((signature.sigma0[0] + 1) % 257,) + signature.sigma0[1:], sigma1=signature.sigma1
    )
    corrupted = [nnsig.serialize_signature(changed, field), blob[:-1]]

    samples = Samples()
    samples.check(verdict_ok(pk, theta, message, blob, expect_accept=True), "honest")
    for bad in corrupted:
        samples.check(verdict_ok(pk, theta, message, bad, expect_accept=False), "corrupted")
    assert (samples.attempted, samples.failed) == (3, 0)
    assert not verdict_ok(pk, theta, message, corrupted[0], expect_accept=True)


def test_calibrated_latencies_follow_the_host_speed_measured_near_them():
    sys.path.insert(0, str(HERE))
    from run import import_nnsig

    import_nnsig()
    from harness import Calibrator, Samples, chunked_percentile

    calibrator = Calibrator()
    calibrator.mids.extend(float(t) for t in range(100))  # one calibration a second
    calibrator.times.extend([0.001] * 50 + [0.002] * 50)  # the host halves its speed at t=50
    samples = Samples(calibrator)
    samples.times["op"].extend([0.004, 0.004, 0.004])
    samples.mids["op"].extend([10.0, 90.0, 0.0])
    samples.parts["op", 2] = [(0.002, 10.0), (0.002, 90.0)]  # one op in two timed parts
    assert samples.cal("op") == pytest.approx([4.0, 2.0, 3.0])

    steady = [1.0] * 3000
    burst = [100.0] * 100 + steady[100:]  # one burst of interference
    assert chunked_percentile(burst, 99) == chunked_percentile(steady, 99) == 1.0
