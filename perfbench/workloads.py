"""The two benchmark workloads.  Each is one process with one closed-loop client.

``setup(seed, samples)`` builds everything the timed steps need and returns a
state object; ``step(state, i, samples)`` runs one closed-loop step and adds
its latencies; ``guard(state, samples)`` runs the fixed-seed output-identity
checks after the timed window and returns the exact counts of
``harness.pipeline`` for the workload's parameter sets.

Every step adds its unit latency under the kind ``op`` (a signed and
verified message, a CLI session) and its signing and verifying latencies
under ``sign`` and ``verify``; other kinds (``command`` and one per CLI
subcommand) are printed as detail.
"""

from __future__ import annotations

import io
import re
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import nnsig
import nnsig.cli

from harness import (
    CLI_PARAMS,
    GUARD_SEED,
    OUT_DIR,
    SV_PARAMS,
    cli_env,
    derive,
    guard_pipeline,
    load_digests,
    rng_for,
    sha,
    timed_run,
)

SOCKET_TIMEOUT = 60


def _flip_one_byte(message: bytes, rng) -> bytes:
    pos = rng.randrange(len(message))
    return message[:pos] + bytes([message[pos] ^ 0x01]) + message[pos + 1:]


def _self_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def verdict_ok(pk, theta, message: bytes, blob: bytes, expect_accept: bool) -> bool:
    """Parse and verify a signature; True when the verdict is the expected one.

    Bytes that do not parse as a signature are a rejection, and a signature
    that should be refused and is refused is a success.
    """
    try:
        accepted = nnsig.verify(pk, theta, message, nnsig.parse_signature(blob, pk.field))
    except nnsig.MalformedEncoding:
        accepted = False
    return accepted == expect_accept


# --- sign-verify ---------------------------------------------------------------------


@dataclass
class SignVerifyState:
    field: object
    pk: object
    sk: object
    thetas: list
    messages: list
    tampered: list
    rng: object


class SignVerify:
    """Steady-state signer and verifier at the 128-bit parameter set.

    One keypair and four thetas synced in-process in set-up; the theta rotates
    every 64 messages.  Messages cycle through 32 B, 1 KiB and 16 KiB, and every
    4th verify gets a message with one byte flipped and must reject.  The
    per-message path (mat_vec, hash_to_field, the signature codec) does nearly
    all the work here; the O(n^3) kernels run only in set-up.
    """

    name = "sign-verify"
    setup_repeats = 5
    tail_pct = 99
    THETAS = 4
    ROTATE_EVERY = 64
    SIZES = (32, 1024, 16384)
    POOL = 96
    TAMPER_EVERY = 4

    def setup(self, seed, samples) -> SignVerifyState:
        p, n, rho = SV_PARAMS
        field = nnsig.Field(p)
        config = nnsig.NetworkConfig(n=n, field=field, rho=rho, seed=derive(seed, "net"))
        pk, sk = nnsig.keygen(config, rng_for(seed, "keys"))
        sk.signing_matrix()
        sync_config = nnsig.SyncConfig(weights=sk.weights, q=field.sample_vector(rng_for(seed, "q"), n))
        thetas = []
        for t in range(self.THETAS):
            a = nnsig.SyncSession.create(sync_config, rng_for(seed, "sync", t, "a"))
            b = nnsig.SyncSession.create(sync_config, rng_for(seed, "sync", t, "b"))
            theta_a, theta_b = nnsig.run_pair(a, b)
            samples.check(theta_a == theta_b, f"set-up sync {t}: thetas differ")
            thetas.append(theta_a)
        rng = rng_for(seed, "messages")
        messages = [rng.randbytes(self.SIZES[i % len(self.SIZES)]) for i in range(self.POOL)]
        tampered = [_flip_one_byte(m, rng) for m in messages]
        return SignVerifyState(field, pk, sk, thetas, messages, tampered, rng_for(seed, "sign"))

    def step(self, s: SignVerifyState, i: int, samples) -> None:
        theta = s.thetas[(i // self.ROTATE_EVERY) % self.THETAS]
        k = i % self.POOL
        tamper = i % self.TAMPER_EVERY == self.TAMPER_EVERY - 1
        message = s.tampered[k] if tamper else s.messages[k]
        start = time.perf_counter()
        blob = nnsig.serialize_signature(nnsig.sign(s.sk, theta, s.messages[k], s.rng), s.field)
        signed = time.perf_counter()
        ok = verdict_ok(s.pk, theta, message, blob, expect_accept=not tamper)
        end = time.perf_counter()
        samples.add("sign", signed - start)
        samples.add("verify", end - signed)
        samples.add("op", end - start)
        samples.check(ok, f"message {i}: wrong verdict (tampered={tamper})")

    def guard(self, s, samples) -> list:
        return [guard_pipeline(SV_PARAMS, samples)]

    def close(self, s) -> None:
        pass

    def peak_rss_mib(self) -> float:
        return _self_rss_mib()


# --- cli-session ---------------------------------------------------------------------

_LISTENING = re.compile(r"listening on (\S+):(\d+)")


def _find(pattern: str, text: str):
    m = re.search(pattern, text)
    return m.group(1) if m else None


class SubprocessCli:
    """Runs ``python -m nnsig`` children, as a CLI user does."""

    base = [sys.executable, "-m", "nnsig"]

    def run(self, argv) -> tuple:
        return timed_run(self.base + argv)

    def sync_pair(self, listen_argv, connect_argv) -> tuple:
        """Listener on port 0, connector on the port it prints; waits for both."""
        start = time.perf_counter()
        listener = subprocess.Popen(
            self.base + listen_argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=cli_env(),
        )
        watchdog = threading.Timer(4 * SOCKET_TIMEOUT, listener.kill)
        watchdog.start()
        try:
            first = listener.stdout.readline()
            m = _LISTENING.search(first)
            if m is None:
                raise RuntimeError(f"listener printed {first!r} instead of its port")
            _, code_b, out_b = timed_run(self.base + connect_argv + ["--connect", f"{m[1]}:{m[2]}"])
            rest, _ = listener.communicate(timeout=2 * SOCKET_TIMEOUT)
        finally:
            watchdog.cancel()
            if listener.poll() is None:
                listener.kill()
            listener.communicate()
        return time.perf_counter() - start, (listener.returncode, first + rest), (code_b, out_b)


class ThreadOutput(io.TextIOBase):
    """Stands in for sys.stdout and keeps what each thread prints apart."""

    def __init__(self) -> None:
        self._parts = defaultdict(list)
        self._cond = threading.Condition()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        with self._cond:
            self._parts[threading.get_ident()].append(text)
            self._cond.notify_all()
        return len(text)

    def take(self, ident=None) -> str:
        with self._cond:
            return "".join(self._parts.pop(ident or threading.get_ident(), []))

    def wait_for(self, ident, pattern, timeout: float):
        with self._cond:
            found = self._cond.wait_for(
                lambda: pattern.search("".join(self._parts[ident])), timeout
            )
        return found or None


class InProcessCli:
    """Drives ``nnsig.cli.main(argv)`` in this process, so the tracer sees
    inside each command; the sync listener runs on a second thread."""

    def __init__(self) -> None:
        self.out = ThreadOutput()

    @staticmethod
    def _main(argv):
        try:
            return nnsig.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            return exc.code

    def run(self, argv) -> tuple:
        saved, sys.stdout = sys.stdout, self.out
        try:
            start = time.perf_counter()
            code = self._main(argv)
            return time.perf_counter() - start, code, self.out.take()
        finally:
            sys.stdout = saved

    def sync_pair(self, listen_argv, connect_argv) -> tuple:
        saved, sys.stdout = sys.stdout, self.out
        try:
            return self._sync_pair(listen_argv, connect_argv)
        finally:
            sys.stdout = saved

    def _sync_pair(self, listen_argv, connect_argv) -> tuple:
        start = time.perf_counter()
        result = {}
        listener = threading.Thread(target=lambda: result.setdefault("code", self._main(listen_argv)))
        listener.start()
        m = self.out.wait_for(listener.ident, _LISTENING, SOCKET_TIMEOUT)
        code_b, out_b = None, ""
        if m is not None:
            code_b = self._main(connect_argv + ["--connect", f"{m[1]}:{m[2]}"])
            out_b = self.out.take()
            if code_b != 0 and listener.is_alive():
                # release a listener still blocked in accept()
                socket.create_connection((m[1], int(m[2])), timeout=SOCKET_TIMEOUT).close()
        listener.join(4 * SOCKET_TIMEOUT)
        out_a = self.out.take(listener.ident)
        return time.perf_counter() - start, (result.get("code"), out_a), (code_b, out_b)


@dataclass
class CliState:
    workdir: Path
    seed: object
    messages: list
    tampered: Path


class CliSession:
    """``python -m nnsig`` sessions at p=257, n=26, each under its own --seed.

    A session runs keygen --export-shared, a sync --listen/--connect pair,
    sign and verify on three message files, a verify of a tampered file that
    must exit 5, params and attack.  Each command pays interpreter start-up
    and imports, and ``nnsig sign`` re-derives the key on every call.  This is
    the only workload that reaches cli, the file codecs and hardness.  The op
    is one session: its eleven commands, the sync pair counted as one.  A
    single command is not the op because their times fall in two clusters,
    start-up alone (verify, params, attack) and start-up plus key derivation
    (keygen, sync, sign), and a median or p90 over the mix lands on the edge
    between them.
    """

    name = "cli-session"
    setup_repeats = 9
    tail_pct = 90
    SIZES = (32, 1024, 16384)

    def __init__(self, in_process: bool) -> None:
        self.in_process = in_process
        self.runner = InProcessCli() if in_process else SubprocessCli()

    def _workspace(self, seed) -> CliState:
        """A fresh directory holding the three message files and a tampered copy."""
        workdir = OUT_DIR / f"cli-{seed}-{id(self)}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        rng = rng_for(seed, "messages")
        messages = []
        for size in self.SIZES:
            path = workdir / f"msg-{size}.bin"
            path.write_bytes(rng.randbytes(size))
            messages.append(path)
        tampered = workdir / "tampered.bin"
        tampered.write_bytes(_flip_one_byte(messages[0].read_bytes(), rng))
        return CliState(workdir, seed, messages, tampered)

    def setup(self, seed, samples) -> CliState:
        state = self._workspace(seed)
        if not self.in_process:
            _, code, _ = self.runner.run(["--help"])  # compiles and caches bytecode
            samples.check(code == 0, "nnsig --help failed")
        return state

    def _command(self, samples, kind: str, argv, expect: int = 0) -> str:
        seconds, code, out = self.runner.run(argv)
        samples.add(kind, seconds)
        samples.add("command", seconds)
        samples.check(code == expect, f"nnsig {kind} exited {code}, expected {expect}")
        samples.tick()
        return out

    def session(self, s: CliState, seed_hex: str, samples) -> dict:
        """One CLI session; returns digests of every file it wrote and the
        fingerprints it printed (the guard compares them)."""
        d = s.workdir / f"session-{seed_hex}"
        d.mkdir()
        pk, sk, setup = str(d / "key.pk"), str(d / "key.sk"), str(d / "setup.bin")
        p, n, rho = CLI_PARAMS
        seed = ["--seed", seed_hex]
        out = self._command(samples, "keygen", [
            "keygen", "--p", str(p), "--n", str(n), "--rho", str(rho),
            "--pk-out", pk, "--sk-out", sk, "--export-shared", setup, *seed,
        ])
        theta_a, theta_b = str(d / "a.theta"), str(d / "b.theta")
        seconds, (code_a, out_a), (code_b, out_b) = self.runner.sync_pair(
            ["sync", "--config", setup, "--listen", "127.0.0.1:0", "--theta-out", theta_a,
             "--seed", seed_hex + "a1"],
            ["sync", "--config", setup, "--theta-out", theta_b, "--seed", seed_hex + "b2"],
        )
        samples.add("sync", seconds)
        samples.add("command", seconds)
        samples.tick()
        fp_a = _find(r"theta fingerprint (\w+)", out_a)
        fp_b = _find(r"theta fingerprint (\w+)", out_b)
        samples.check(code_a == 0 and code_b == 0, f"sync exited {code_a}/{code_b}")
        samples.check(fp_a is not None and fp_a == fp_b, f"sync fingerprints {fp_a} != {fp_b}")
        sigs = []
        for k, message in enumerate(s.messages):
            sig = str(d / f"msg{k}.sig")
            self._command(samples, "sign", [
                "sign", "--sk", sk, "--theta", theta_a, "--in", str(message), "--sig-out", sig, *seed,
            ])
            sigs.append(sig)
        for message, sig in zip(s.messages, sigs):
            self._command(samples, "verify", [
                "verify", "--pk", pk, "--theta", theta_b, "--in", str(message), "--sig", sig,
            ])
        self._command(samples, "verify", [
            "verify", "--pk", pk, "--theta", theta_b, "--in", str(s.tampered), "--sig", sigs[0],
        ], expect=5)
        self._command(samples, "params", ["params", "--n", "43", "--p", "257"])
        attack = self._command(samples, "attack", ["attack", "--n", "4", "--p", "31", *seed])
        samples.check("planted recovered: True" in attack, "attack did not recover the plant")
        artifacts = {"pk_fingerprint": _find(r"pk fingerprint (\w+)", out), "theta_fingerprint": fp_a}
        for path in (pk, sk, setup, theta_a, theta_b, *sigs):
            p_ = Path(path)
            artifacts[p_.name] = sha(p_.read_bytes()) if p_.exists() else None
        shutil.rmtree(d)
        return artifacts

    def step(self, s: CliState, i: int, samples) -> None:
        """One session; its time is the sum of its commands' times, which
        leaves out the calibration run between them."""
        done = len(samples.times["command"])
        self.session(s, derive(s.seed, "session", i).hex()[:16], samples)
        parts = list(zip(samples.times["command"][done:], samples.mids["command"][done:]))
        samples.add("op", sum(seconds for seconds, _ in parts), parts)

    def guard_artifacts(self, samples) -> dict:
        """Outputs of one session whose messages and --seed come from GUARD_SEED."""
        state = self._workspace(GUARD_SEED)
        try:
            return self.session(state, derive(GUARD_SEED, "cli").hex()[:16], samples)
        finally:
            self.close(state)

    def guard(self, s: CliState, samples) -> list:
        artifacts = self.guard_artifacts(samples)
        samples.check(artifacts == load_digests()["cli"], "guard CLI outputs changed")
        return [guard_pipeline(CLI_PARAMS, samples)]

    def close(self, s: CliState) -> None:
        shutil.rmtree(s.workdir, ignore_errors=True)

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def startup_seconds(self, repeats: int = 5) -> float:
        """Median `nnsig --help` minus median bare interpreter start."""
        bare = [timed_run([sys.executable, "-c", "pass"])[0] for _ in range(repeats)]
        helps = [timed_run(SubprocessCli.base + ["--help"])[0] for _ in range(repeats)]
        return statistics.median(helps) - statistics.median(bare)


def make(name: str, traced: bool):
    if name == "sign-verify":
        return SignVerify()
    return CliSession(in_process=traced)
