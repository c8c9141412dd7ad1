"""Command-line front end.

Subcommands: keygen, sync, sign, verify, params, attack, bench.

Exit codes: 0 success (verify: accepted), 1 parameter rejection or guardrail,
2 I/O failure, 3 protocol violation, 4 connection failure or timeout, 5
signature rejected, 6 malformed key/signature/vector encoding.  Under
``--json`` a caught error is one JSON object on stderr:
``{"error": kind, "message": text, "exit": code}``.

Every subcommand that consumes randomness is deterministic under ``--seed
<hex>`` (fallback: the NNSIG_SEED environment variable); without a seed it
draws from the operating system's CSPRNG.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import time
from typing import Optional

# Each subcommand imports what only it uses, so a `python -m nnsig` child pays
# for its own subcommand alone (see README § Performance, cold start).
from .errors import (
    DimensionMismatch,
    InvalidStateError,
    LimitExceeded,
    MalformedEncoding,
    MalformedFrame,
    ParameterError,
)
from .field import Field, is_prime, system_rng

EXIT_OK = 0
EXIT_PARAMS = 1
EXIT_IO = 2
EXIT_PROTOCOL = 3
EXIT_CONNECT = 4
EXIT_REJECTED = 5
EXIT_ENCODING = 6

# Upper bound on --timeout (a day): above any real wait, and far inside the
# range socket.settimeout accepts, which raises OverflowError beyond it.
MAX_TIMEOUT = 86400.0
# Upper bound on params --p-bits: the prime search below 2^bits takes seconds above it.
MAX_P_BITS = 1024


def _say(args, text: str) -> None:
    if not args.json:
        print(text)


def _emit_json(args, payload: dict) -> None:
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))


def _master_seed(args) -> Optional[bytes]:
    raw = args.seed if args.seed is not None else os.environ.get("NNSIG_SEED")
    if raw is None:
        return None
    try:
        return bytes.fromhex(raw)
    except ValueError as exc:
        raise ParameterError(f"seed must be a hex string: {exc}") from exc


def _rng_for(master: Optional[bytes], tag: bytes):
    if master is None:
        return system_rng()
    from .network import _sub_rng

    return _sub_rng(master, tag)


def _net_seed(master: Optional[bytes]) -> bytes:
    return os.urandom(32) if master is None else master + b":net"

def _fingerprint(blob: bytes) -> str:
    import hashlib

    return hashlib.sha256(blob).hexdigest()[:16]


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_file(path: str, blob: bytes, private: bool = False) -> None:
    """Write blob to path; a private file is readable by its owner only."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600 if private else 0o666)
    with open(fd, "wb") as fh:
        if private and stat.S_ISREG(os.fstat(fd).st_mode):
            os.fchmod(fd, 0o600)  # an existing file keeps its mode through O_CREAT
        fh.write(blob)


def _parse_endpoint(text: str):
    host, sep, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not sep or not host:
        raise ParameterError(f"endpoint must look like HOST:PORT, got {text!r}")
    try:
        number = int(port)
    except ValueError as exc:
        raise ParameterError(f"bad port in {text!r}") from exc
    if not 0 <= number <= 65535:
        raise ParameterError(f"port must be 0-65535, got {number} in {text!r}")
    return host, number


class _Deadline:
    """A connected socket's ``sendall`` and ``recv``, each waiting at most the
    time left before one deadline, so a trickling peer cannot stretch the run."""

    def __init__(self, sock, seconds: float) -> None:
        self._sock, self._until = sock, time.monotonic() + seconds

    def _armed(self):
        left = self._until - time.monotonic()
        if left <= 0:
            raise TimeoutError("timed out")
        self._sock.settimeout(left)
        return self._sock

    def sendall(self, data: bytes) -> None:
        self._armed().sendall(data)

    def recv(self, count: int) -> bytes:
        return self._armed().recv(count)


# --- subcommands -----------------------------------------------------------


def cmd_keygen(args) -> int:
    from .network import NetworkConfig
    from .scheme import keygen, serialize_public_key, serialize_secret_key

    master = _master_seed(args)
    field = Field(args.p)
    config = NetworkConfig(n=args.n, field=field, rho=args.rho, seed=_net_seed(master))
    rng = _rng_for(master, b"keys")
    pk, sk = keygen(config, rng, split_index=args.l)
    pk_blob = serialize_public_key(pk)
    sk_blob = serialize_secret_key(sk)
    _write_file(args.pk_out, pk_blob)
    _write_file(args.sk_out, sk_blob, private=True)
    fingerprint = _fingerprint(pk_blob)
    shared_path = None
    if args.export_shared:
        from .sync import encode_shared_setup

        q = field.sample_vector(rng, args.n)
        _write_file(args.export_shared, encode_shared_setup(sk.weights, q))
        shared_path = args.export_shared
    _say(args, f"p={args.p} n={args.n} rho={args.rho} l={pk.l}")
    _say(args, f"public key   -> {args.pk_out} ({len(pk_blob)} bytes)")
    _say(args, f"secret key   -> {args.sk_out} ({len(sk_blob)} bytes)")
    if shared_path:
        _say(args, f"shared setup -> {shared_path}")
    _say(args, f"pk fingerprint {fingerprint}")
    _emit_json(
        args,
        {
            "p": args.p,
            "n": args.n,
            "rho": args.rho,
            "l": pk.l,
            "pk": args.pk_out,
            "sk": args.sk_out,
            "shared": shared_path,
            "pk_bytes": len(pk_blob),
            "sk_bytes": len(sk_blob),
            "fingerprint": fingerprint,
        },
    )
    return EXIT_OK


def cmd_sync(args) -> int:
    import socket

    from .sync import SyncConfig, SyncSession, decode_shared_setup, encode_theta, run_over_socket

    if bool(args.listen) == bool(args.connect):
        raise ParameterError("pick exactly one of --listen or --connect")
    if not 0 < args.timeout <= MAX_TIMEOUT:
        raise ParameterError(f"--timeout must lie in (0, {MAX_TIMEOUT:g}] seconds")
    weights, q = decode_shared_setup(_read_file(args.config))
    config = SyncConfig(weights=weights, q=q, u=args.u)
    session = SyncSession.create(config, _rng_for(_master_seed(args), b"sync"))
    if args.listen:
        host, port = _parse_endpoint(args.listen)
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        with socket.create_server((host, port), backlog=1, family=family) as server:
            server.settimeout(args.timeout)
            shown = args.listen.rpartition(":")[0]  # an IPv6 host keeps its brackets
            _say(args, f"listening on {shown}:{server.getsockname()[1]}")
            conn, _ = server.accept()
    else:
        conn = socket.create_connection(_parse_endpoint(args.connect), timeout=args.timeout)
    with conn:
        theta = run_over_socket(session, _Deadline(conn, args.timeout))
    blob = encode_theta(config.field, theta)
    _write_file(args.theta_out, blob, private=True)
    digest = _fingerprint(blob)
    _say(args, f"synchronized theta -> {args.theta_out}")
    _say(args, f"theta fingerprint {digest}")
    _emit_json(args, {"theta": args.theta_out, "fingerprint": digest, "n": config.n, "p": config.field.p})
    return EXIT_OK


def cmd_sign(args) -> int:
    from .scheme import decode_theta, parse_secret_key, serialize_signature, sign

    sk = parse_secret_key(_read_file(args.sk))
    theta = decode_theta(sk.field, _read_file(args.theta))
    message = _read_file(args.infile)
    rng = _rng_for(_master_seed(args), b"sign")
    signature = sign(sk, theta, message, rng)
    blob = serialize_signature(signature, sk.field)
    _write_file(args.sig_out, blob)
    _say(args, f"signature -> {args.sig_out} ({len(blob)} bytes)")
    _emit_json(args, {"sig": args.sig_out, "sig_bytes": len(blob)})
    return EXIT_OK


def cmd_verify(args) -> int:
    from .scheme import decode_theta, parse_public_key, parse_signature, verify

    pk = parse_public_key(_read_file(args.pk))
    theta = decode_theta(pk.field, _read_file(args.theta))
    signature = parse_signature(_read_file(args.sig), pk.field)
    message = _read_file(args.infile)
    ok = verify(pk, theta, message, signature, literal_form=args.literal_verify)
    _emit_json(args, {"accepted": ok})
    if ok:
        _say(args, "signature OK")
        return EXIT_OK
    _say(args, "signature REJECTED")
    return EXIT_REJECTED


def _resolve_params_p(args) -> int:
    if (args.p is None) == (args.p_bits is None):
        raise ParameterError("pick exactly one of --p or --p-bits")
    if args.p is not None:
        if not is_prime(args.p):
            raise ParameterError(f"p={args.p} is not prime")
        return args.p
    if args.p_bits < 2:
        raise ParameterError("--p-bits must be at least 2")
    if args.p_bits > MAX_P_BITS:
        raise LimitExceeded(f"--p-bits {args.p_bits} is above the limit of {MAX_P_BITS}")
    candidate = (1 << args.p_bits) - 1
    while not is_prime(candidate):  # stops at 3 at the latest
        candidate -= 2
    return candidate


def cmd_params(args) -> int:
    from .hardness import estimate

    p = _resolve_params_p(args)
    est = estimate(args.n, p, args.level)
    _say(args, f"n={est.n} p={p} level={est.level}")
    _say(args, f"classical search bits : {est.classical_bits:.4f}")
    _say(args, f"keyspace bits         : {est.keyspace_bits:.4f}")
    _say(args, f"classical >= {est.level:<4d}     : {'PASS' if est.classical_ok else 'FAIL'}")
    _say(args, f"quantum grover (>= {2 * est.level}): {'PASS' if est.quantum_ok_grover else 'FAIL'}")
    _say(args, f"quantum doubled-log (2x >= {est.level}): "
               f"{'PASS' if est.quantum_ok_doubled_log else 'FAIL'}")
    _emit_json(args, est._asdict())
    return EXIT_OK


def cmd_attack(args) -> int:
    from .hardness import (
        SOLVER_N_LIMIT, SOLVER_P_LIMIT, _check_limits, brute_force_solve, make_instance,
    )

    field = Field(args.p)
    # Refuse before planting: the plant alone is an O(n^3) draw and a mat_pow.
    _check_limits(args.n, args.p, SOLVER_N_LIMIT, SOLVER_P_LIMIT)
    rng = _rng_for(_master_seed(args), b"attack")
    instance, planted = make_instance(args.n, field, rng)
    start = time.perf_counter()
    solutions = brute_force_solve(instance)
    elapsed = time.perf_counter() - start
    recovered = planted in solutions
    _say(args, f"planted: a={planted.exponent} perm={list(planted.perm.perm)}")
    _say(args, f"search space: (p-1) * n! = {(args.p - 1)} * {math.factorial(args.n)} candidates")
    for s in solutions:
        marker = "  <- planted" if s == planted else ""
        _say(args, f"solution: a={s.exponent} perm={list(s.perm.perm)}{marker}")
    _say(args, f"{len(solutions)} solution(s) in {elapsed:.3f}s; planted recovered: {recovered}")
    _emit_json(
        args,
        {
            "n": args.n,
            "p": args.p,
            "planted": {"a": planted.exponent, "perm": list(planted.perm.perm)},
            "solutions": [{"a": s.exponent, "perm": list(s.perm.perm)} for s in solutions],
            "elapsed_s": elapsed,
            "recovered": recovered,
        },
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    from .metrics import (
        REPORTED_PROFILES,
        discrepancies,
        formula_sizes,
        instrumented_counts,
        measured_sizes,
        op_count_report,
    )
    from .network import NetworkConfig
    from .scheme import keygen, sign

    profile = formula_sizes(args.n, args.p, args.rho)
    master = _master_seed(args)
    field = Field(args.p)
    config = NetworkConfig(n=args.n, field=field, rho=args.rho, seed=_net_seed(master))
    rng = _rng_for(master, b"bench")
    pk, sk = keygen(config, rng)
    theta = field.sample_vector(rng, args.n)
    signature = sign(sk, theta, b"bench message", rng)
    actual = measured_sizes(pk, sk, signature)
    ops = op_count_report(args.n, args.p)
    flagged = discrepancies(profile)

    _say(args, f"parameters: p={args.p} n={args.n} rho={args.rho}")
    _say(args, "sizes (formula):")
    _say(args, f"  pk  {profile.pk_bytes} bytes | sk {profile.sk_bytes} bytes | "
               f"sig {profile.sig_bits} bits | hash {profile.hash_bits} bits")
    _say(args, "sizes (measured, headers included):")
    _say(args, f"  pk  {actual.pk_bytes} bytes | sk {actual.sk_bytes} bytes | "
               f"sig {actual.sig_bytes} bytes = {actual.sig_bits} bits")
    _say(args, "field operations (closed form):")
    _say(args, f"  sign {ops.sign_ops:.2f} | verify {ops.verify_ops} | "
               f"keygen ~ {ops.keygen_bound:.0f}")
    instrumented = None
    if args.instrument:
        instrumented = instrumented_counts(args.n, args.p, args.rho)
        _say(args, "field operations (instrumented tallies):")
        for phase in ("keygen", "sign", "verify"):
            _say(args, f"  {phase:<6s} {instrumented[phase]['total']}")
    _say(args, "reported reference rows:")
    for (rp, rn, rrho), row in sorted(REPORTED_PROFILES.items(), key=lambda kv: kv[0][1]):
        _say(args, f"  (p={rp}, n={rn}, rho={rrho}) level {row['level']}: "
                   f"hash {row['hash_bits']} bits, sig {row['sig_bits']} bits, "
                   f"pk {row['pk_bytes']} B, sk {row['sk_bytes']} B")
    if flagged:
        _say(args, "formula vs reported mismatches for this parameter set:")
        for key, pair in sorted(flagged.items()):
            _say(args, f"  {key}: formula {pair['formula']} != reported {pair['reported']}")
    payload = {
        "p": args.p,
        "n": args.n,
        "rho": args.rho,
        "formula": {
            "pk_bytes": profile.pk_bytes,
            "sk_bytes": profile.sk_bytes,
            "sig_bits": profile.sig_bits,
            "hash_bits": profile.hash_bits,
        },
        "measured": {
            "pk_bytes": actual.pk_bytes,
            "sk_bytes": actual.sk_bytes,
            "sig_bytes": actual.sig_bytes,
            "sig_bits": actual.sig_bits,
        },
        "ops": {
            "sign": ops.sign_ops,
            "verify": ops.verify_ops,
            "keygen_bound": ops.keygen_bound,
        },
        "reported": {f"{k[0]},{k[1]},{k[2]}": v for k, v in REPORTED_PROFILES.items()},
        "mismatches": flagged,
    }
    if instrumented is not None:
        payload["instrumented"] = instrumented
    _emit_json(args, payload)
    return EXIT_OK


# --- parser and dispatch ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nnsig", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", help="hex seed for deterministic output (env: NNSIG_SEED)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    kg = sub.add_parser("keygen", help="generate a keypair")
    kg.add_argument("--p", type=int, default=257)
    kg.add_argument("--n", type=int, default=26)
    kg.add_argument("--rho", type=int, default=10)
    kg.add_argument("--l", type=int, default=None, help="digest split (default n//2)")
    kg.add_argument("--pk-out", default="nnsig.pk")
    kg.add_argument("--sk-out", default="nnsig.sk")
    kg.add_argument("--export-shared", metavar="PATH",
                    help="also write a shared setup file (base matrix W and vector Q)")
    common(kg)
    kg.set_defaults(func=cmd_keygen)

    sy = sub.add_parser("sync", help="synchronize theta with a peer over TCP")
    sy.add_argument("--config", required=True, help="shared setup file from keygen --export-shared")
    sy.add_argument("--listen", metavar="HOST:PORT")
    sy.add_argument("--connect", metavar="HOST:PORT")
    sy.add_argument("--theta-out", default="nnsig.theta")
    sy.add_argument("--u", type=int, default=2, help="number of mix exponents")
    sy.add_argument("--timeout", type=float, default=60.0, metavar="SECONDS",
                    help="give up when connect or accept waits this long, or when the "
                         "exchange after it takes longer (exit 4)")
    common(sy)
    sy.set_defaults(func=cmd_sync)

    sg = sub.add_parser("sign", help="sign a message file")
    sg.add_argument("--sk", required=True)
    sg.add_argument("--theta", required=True)
    sg.add_argument("--in", dest="infile", required=True)
    sg.add_argument("--sig-out", default="nnsig.sig")
    common(sg)
    sg.set_defaults(func=cmd_sign)

    vf = sub.add_parser("verify", help="verify a signature file")
    vf.add_argument("--pk", required=True)
    vf.add_argument("--theta", required=True)
    vf.add_argument("--in", dest="infile", required=True)
    vf.add_argument("--sig", required=True)
    vf.add_argument("--literal-verify", action="store_true",
                    help="use the uncorrected check that subtracts the bias before the "
                         "public map; rejects signatures this signer produces (analysis only)")
    common(vf)
    vf.set_defaults(func=cmd_verify)

    pr = sub.add_parser("params", help="security estimates for (n, p)")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--p", type=int)
    pr.add_argument("--p-bits", type=int, help="use the largest prime below 2^BITS")
    pr.add_argument("--level", type=int, default=128)
    common(pr)
    pr.set_defaults(func=cmd_params)

    at = sub.add_parser("attack", help="plant and brute-force a toy instance")
    at.add_argument("--n", type=int, default=3)
    at.add_argument("--p", type=int, default=7)
    common(at)
    at.set_defaults(func=cmd_attack)

    bn = sub.add_parser("bench", help="size/op-count report")
    bn.add_argument("--p", type=int, default=257)
    bn.add_argument("--n", type=int, default=26)
    bn.add_argument("--rho", type=int, default=10)
    bn.add_argument("--instrument", action="store_true",
                    help="also run keygen/sign/verify under the op counter")
    common(bn)
    bn.set_defaults(func=cmd_bench)

    return parser


def _fail(args, exc: Exception, code: int, kind: str, prefix: str) -> int:
    """Report a caught error on stderr, as a JSON object under --json."""
    if args.json:
        import json

        text = json.dumps({"error": kind, "message": str(exc), "exit": code}, sort_keys=True)
    else:
        text = f"{prefix}: {exc}"
    print(text, file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, LimitExceeded) as exc:
        return _fail(args, exc, EXIT_PARAMS, "parameter", "error")
    except (MalformedFrame, InvalidStateError) as exc:
        return _fail(args, exc, EXIT_PROTOCOL, "protocol", "protocol error")
    except (MalformedEncoding, DimensionMismatch) as exc:
        return _fail(args, exc, EXIT_ENCODING, "encoding", "encoding error")
    # Only cmd_sync, which imports socket, can raise gaierror; this lookup
    # runs only once an exception has reached this clause.
    except (ConnectionError, TimeoutError,
            getattr(sys.modules.get("socket"), "gaierror", ConnectionError)) as exc:
        return _fail(args, exc, EXIT_CONNECT, "connection", "connection failed")
    except OSError as exc:
        return _fail(args, exc, EXIT_IO, "io", "i/o error")


def entry() -> None:
    sys.exit(main())
