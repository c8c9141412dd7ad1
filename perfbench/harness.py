"""Pieces shared by the workloads: seeding, the closed-loop timer, sample
statistics, the fixed-seed pipeline behind the output-identity guard and the
exact op counts, and the environment for ``python -m nnsig`` subprocesses."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import defaultdict
from pathlib import Path

import nnsig

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "digests.json"
OUT_DIR = HERE / "out"

# Parameter sets as (p, n, rho).  SV_PARAMS is the 128-bit row of
# nnsig.metrics.REPORTED_PROFILES.
SV_PARAMS = (257, 43, 10)
CLI_PARAMS = (257, 26, 10)

# Seed of the output-identity guard; digests.json holds its outputs.
GUARD_SEED = "guard"


def derive(seed, *tags) -> bytes:
    """32 bytes that depend only on the seed and the tags."""
    text = ":".join(str(part) for part in (seed,) + tags)
    return hashlib.sha256(text.encode()).digest()


def rng_for(seed, *tags) -> random.Random:
    return random.Random(int.from_bytes(derive(seed, *tags), "big"))


def sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def params_key(params) -> str:
    p, n, rho = params
    return f"p={p},n={n},rho={rho}"


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# --- host-speed calibration ---------------------------------------------------------

# Fixed data for the calibration kernel: a 43x43 matrix and a vector over Z_257,
# the sizes of SV_PARAMS.
_CAL_P = 257
_CAL_ROWS = tuple(tuple((31 * r + 17 * c + 5) % _CAL_P for c in range(43)) for r in range(43))
_CAL_VECTOR = tuple((7 * c + 3) % _CAL_P for c in range(43))
CAL_SHARE = 0.2  # share of a run's time spent calibrating


def calibration_kernel() -> int:
    """A fixed piece of pure-Python modular arithmetic, about half a
    millisecond on a 2-vCPU Xeon VM: four 43x43 matrix-vector products over
    Z_257, in the style of mat_vec."""
    p = _CAL_P
    v = _CAL_VECTOR
    for _ in range(4):
        v = tuple(sum(x * y for x, y in zip(row, v)) % p for row in _CAL_ROWS)
    return v[0]


class Calibrator:
    """Measures the host's current speed between the workload's steps.

    On a shared 2-vCPU VM the CPU's speed was seen to swing by up to a factor
    of two within a minute, for the workload and for any fixed loop alike, so
    a latency in seconds says as much about the neighbours as about nnsig.
    ``tick()`` runs the fixed kernel often enough that it takes CAL_SHARE of
    the run's time; ``near(t, seconds)`` is the median kernel time of the
    calibrations run around an interval.  A latency divided by it is a latency
    in kernel runs, which follows the code under test and not the host's
    current speed.  The kernel does not call nnsig, so a change to nnsig moves
    the latency and not the unit.
    """

    NEAREST = 15
    WARMUP_S = 0.05

    def __init__(self) -> None:
        self.mids = array("d")
        self.times = array("d")
        self._debt = 0.0
        self._last = time.perf_counter()

    def begin(self) -> None:
        """Start of a timed window: calibrate for a while so the first steps
        have calibrations close by, and owe nothing for the time before."""
        self._last = time.perf_counter()
        self._debt = self.WARMUP_S
        self.tick()

    def tick(self) -> None:
        now = time.perf_counter()
        self._debt += CAL_SHARE / (1 - CAL_SHARE) * (now - self._last)
        while self._debt > 0:
            start = time.perf_counter()
            calibration_kernel()
            end = time.perf_counter()
            self.mids.append((start + end) / 2)
            self.times.append(end - start)
            self._debt -= end - start
        self._last = time.perf_counter()

    def near(self, t: float, seconds: float) -> float:
        """Median kernel time of the calibrations run near an interval of
        ``seconds`` whose midpoint is t.

        Those are the calibrations within 1.5 x ``seconds`` of t, so a long
        interval is set against the host's speed over a span a little wider
        than itself, or, when fewer than NEAREST fall there, the NEAREST
        calibrations closest to t.
        """
        lo = bisect.bisect_left(self.mids, t - 1.5 * seconds)
        hi = bisect.bisect_right(self.mids, t + 1.5 * seconds)
        if hi - lo < self.NEAREST:
            lo = hi = bisect.bisect_left(self.mids, t)
            while hi - lo < self.NEAREST and (lo > 0 or hi < len(self.mids)):
                if hi >= len(self.mids) or (lo > 0 and t - self.mids[lo - 1] <= self.mids[hi] - t):
                    lo -= 1
                else:
                    hi += 1
        return statistics.median(self.times[lo:hi])


def chunked_percentile(values, q: float) -> float:
    """q-th percentile taken in consecutive chunks just large enough to hold
    ten samples beyond it, then the median over the chunks.

    A burst of interference that slows a few hundred steps lands in one or
    two chunks and moves this much less than the percentile of the whole run.
    With fewer samples than one chunk, or q=100, it is the plain percentile.
    """
    if q >= 100:
        return max(values)
    size = math.ceil(10 / (1 - q / 100))
    chunks = [values[i:i + size] for i in range(0, len(values) - size + 1, size)]
    if not chunks:
        return percentile(values, q)
    return statistics.median(percentile(chunk, q) for chunk in chunks)


class Samples:
    """Latencies by kind plus the attempted/failed tally of correctness checks.

    With a Calibrator, ``tick()`` calibrates between steps and ``cal(kind)``
    gives the latencies in calibration-kernel runs (see Calibrator).
    """

    def __init__(self, calibrator: "Calibrator | None" = None) -> None:
        # Flat arrays of floats, so that the samples add little to peak RSS.
        self.times = defaultdict(lambda: array("d"))
        self.mids = defaultdict(lambda: array("d"))
        self.parts = {}
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0

    def add(self, kind: str, seconds: float, parts=None) -> None:
        """A latency that has just ended.  When it is the sum of separately
        timed parts with calibration run between them, ``parts`` lists their
        (seconds, midpoint) pairs."""
        self.times[kind].append(seconds)
        self.mids[kind].append(time.perf_counter() - seconds / 2)
        if parts is not None:
            self.parts[kind, len(self.times[kind]) - 1] = parts

    def begin(self) -> None:
        if self.calibrator is not None:
            self.calibrator.begin()

    def tick(self) -> None:
        if self.calibrator is not None:
            self.calibrator.tick()

    def cal(self, kind: str) -> list:
        """Latencies of one kind, each part divided by the kernel time
        measured nearest to it."""
        near = self.calibrator.near
        return [
            sum(s / near(t, s) for s, t in self.parts.get((kind, i), [(seconds, mid)]))
            for i, (seconds, mid) in enumerate(zip(self.times[kind], self.mids[kind]))
        ]

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def absorb(self, other: "Samples") -> None:
        """Add another tally's checks to this one (its latencies stay apart)."""
        self.attempted += other.attempted
        self.failed += other.failed

    def summary(self) -> list:
        """One line per latency kind: sample count, median and tail percentiles."""
        lines = []
        for kind, values in sorted(self.times.items()):
            ms = [1e3 * v for v in values]
            lines.append(
                f"latency {kind:<8s} n={len(ms):<6d} p50={statistics.median(ms):.4g} ms "
                f"p90={percentile(ms, 90):.4g} ms p99={percentile(ms, 99):.4g} ms max={max(ms):.4g} ms"
            )
        if self.calibrator is not None and self.calibrator.times:
            ms = [1e3 * v for v in self.calibrator.times]
            lines.append(
                f"calibration kernel n={len(ms)} p50={statistics.median(ms):.4g} ms "
                f"min={min(ms):.4g} ms max={max(ms):.4g} ms"
            )
        return lines

    def error(self, what: str) -> None:
        """An op that raised: one failed attempt, traceback on stderr."""
        self.attempted += 1
        self.failed += 1
        print(f"op raised: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def run_window(step, seconds: float, samples: Samples) -> float:
    """Closed loop: call ``step(i)`` until ``seconds`` have passed.

    One client; the next step starts when the previous one returns, after
    the calibration that ``samples.tick()`` may run.  Returns the time from
    the first step's start to the last step's end.
    """
    samples.begin()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    end = start
    while end < deadline:
        try:
            step(i)
        except Exception:  # keep measuring; the failure is counted
            samples.error(f"step {i}")
        i += 1
        end = time.perf_counter()
        samples.tick()
    return end - start


# --- fixed-seed pipeline: output identity and exact op counts ----------------------


def pipeline(params, seed) -> tuple:
    """keygen, signer setup, one in-process sync, one sign and one verify.

    Everything is drawn from ``seed``, so the outputs are a pure function of
    it.  Returns (digests, counts): SHA-256 of the public key, secret key,
    synced theta and signature bytes; field operations per phase, read through
    ``nnsig.count_ops()``; and the frames and wire bytes the two sync sessions
    sent, plus whether the two thetas and the verify verdict came out right.
    """
    p, n, rho = params
    field = nnsig.Field(p)
    config = nnsig.NetworkConfig(n=n, field=field, rho=rho, seed=derive(seed, "net"))
    ops = {}
    with nnsig.count_ops() as c:
        pk, sk = nnsig.keygen(config, rng_for(seed, "keys"))
    ops["keygen"] = c
    with nnsig.count_ops() as c:
        sk.signing_matrix()
    ops["signer_setup"] = c
    sync_config = nnsig.SyncConfig(weights=sk.weights, q=field.sample_vector(rng_for(seed, "q"), n))
    a = nnsig.SyncSession.create(sync_config, rng_for(seed, "party-a"))
    b = nnsig.SyncSession.create(sync_config, rng_for(seed, "party-b"))
    with nnsig.count_ops() as c:
        theta_a, theta_b = nnsig.run_pair(a, b)
    ops["sync"] = c
    message = b"nnsig benchmark guard message"
    with nnsig.count_ops() as c:
        signature = nnsig.sign(sk, theta_a, message, rng_for(seed, "sign"))
    ops["sign"] = c
    with nnsig.count_ops() as c:
        accepted = nnsig.verify(pk, theta_b, message, signature)
    ops["verify"] = c
    sent = [blob for s in (a, b) for direction, blob in s.transcript if direction == "send"]
    digests = {
        "pk": sha(nnsig.serialize_public_key(pk)),
        "sk": sha(nnsig.serialize_secret_key(sk)),
        "theta": sha(nnsig.sync.encode_theta(field, theta_a)),
        "signature": sha(nnsig.serialize_signature(signature, field)),
    }
    counts = {
        "ops": {phase: {k: getattr(c, k) for k in ("muls", "adds", "subs", "invs")}
                for phase, c in ops.items()},
        "frames": len(sent),
        "wire_bytes": sum(len(blob) for blob in sent),
        "thetas_equal": theta_a == theta_b,
        "accepted": accepted,
    }
    return digests, counts


def load_digests() -> dict:
    return json.loads(DIGESTS_FILE.read_text())


def guard_pipeline(params, samples: Samples) -> dict:
    """Run the pipeline at GUARD_SEED, check it against digests.json, return counts."""
    digests, counts = pipeline(params, GUARD_SEED)
    key = params_key(params)
    samples.check(counts["thetas_equal"], f"guard thetas differ at {key}")
    samples.check(counts["accepted"], f"guard signature rejected at {key}")
    samples.check(digests == load_digests()["library"][key], f"guard digests changed at {key}")
    return counts


# --- subprocesses ------------------------------------------------------------------


def cli_env() -> dict:
    """Environment for ``python -m nnsig``: an absolute PYTHONPATH to the package
    that was imported here, so a child running in another directory finds it."""
    env = dict(os.environ)
    env.pop("NNSIG_SEED", None)
    env["PYTHONPATH"] = str(Path(nnsig.__file__).resolve().parent.parent)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def timed_run(argv, timeout: float = 120) -> tuple:
    """Run a child to completion; returns (seconds, returncode, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=cli_env(), timeout=timeout)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def cold_import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import nnsig."""
    seconds, code, _ = timed_run([sys.executable, "-c", "import nnsig"])
    if code != 0:
        raise RuntimeError("a fresh interpreter could not import nnsig")
    return seconds
