"""Command-line front end.

Subcommands: keygen, sync, sign, verify, params, attack, bench.

Exit codes: 0 success (verify: accepted), 1 parameter rejection, CLI bound or
guardrail, 2 I/O failure, 3 protocol violation, 4 connection failure or
timeout, 5 signature rejected, 6 malformed key/signature/vector encoding.
Under ``--json`` a caught error is one JSON object on stderr:
``{"error": kind, "message": text, "exit": code}``.

Every subcommand that consumes randomness is deterministic under ``--seed
<hex>`` (fallback: the NNSIG_SEED environment variable); without a seed it
draws from the operating system's CSPRNG.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import stat
import sys
from typing import Optional

# Each subcommand imports what only it uses, and the sync, params, attack and
# bench handlers live in modules of their own (_cli_sync, _cli_analysis), so a
# `python -m nnsig` child pays for its own subcommand alone (see README § Cold start).
from .errors import (
    DimensionMismatch,
    InvalidStateError,
    LimitExceeded,
    MalformedEncoding,
    MalformedFrame,
    ParameterError,
)
from .field import Field, _sub_rng, system_rng

EXIT_OK = 0
EXIT_PARAMS = 1
EXIT_IO = 2
EXIT_PROTOCOL = 3
EXIT_CONNECT = 4
EXIT_REJECTED = 5
EXIT_ENCODING = 6


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
    return system_rng() if master is None else _sub_rng(master, tag)


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


# --- subcommands -----------------------------------------------------------


def cmd_keygen(args) -> int:
    from .network import NetworkConfig, encode_shared_setup
    from .scheme import keygen, serialize_secret_key
    from ._public import serialize_public_key

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


def cmd_sign(args) -> int:
    from .scheme import parse_secret_key, sign
    from ._public import decode_theta, serialize_signature

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
    from ._public import decode_theta, parse_public_key, parse_signature, verify

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


# --- parser and dispatch ------------------------------------------------------

# The network options of keygen and bench. A keygen child took 0.34 s at --n 128,
# 1.8-2.2 s at --n 256 (its matrix products are O(n^3)) and 2.3-2.6 s at --rho
# 10,000; a bench --instrument child took 2.1-3.3 s at either bound.
_NETWORK_OPTIONS = (
    ("--p", dict(type=int, default=257)),
    ("--n", dict(type=int, default=26), 256),
    ("--rho", dict(type=int, default=10), 10_000),
)
# name -> (help, module that defines cmd_<name>, arguments as (flag, add_argument
# keywords[, upper bound, which main checks before it imports the module])); every
# subcommand also takes --seed and --json.
COMMANDS = {
    "keygen": ("generate a keypair", __name__, (
        *_NETWORK_OPTIONS,
        ("--l", dict(type=int, default=None, help="digest split (default n//2)")),
        ("--pk-out", dict(default="nnsig.pk")),
        ("--sk-out", dict(default="nnsig.sk")),
        ("--export-shared", dict(metavar="PATH", help="also write a shared setup file "
                                                     "(base matrix W and vector Q)")),
    )),
    "sync": ("synchronize theta with a peer over TCP", f"{__package__}._cli_sync", (
        ("--config", dict(required=True, help="shared setup file from keygen --export-shared")),
        ("--listen", dict(metavar="HOST:PORT")),
        ("--connect", dict(metavar="HOST:PORT")),
        ("--theta-out", dict(default="nnsig.theta")),
        # Each mix exponent costs a vector power: a sync child at p = 2^61 - 1,
        # n = 26 took 0.95 s at u = 1,000 and 8.4 s at u = 10,000.
        ("--u", dict(type=int, default=2, help="number of mix exponents"), 1000),
        # A day: above any real wait, and far inside the range socket.settimeout
        # accepts, which raises OverflowError beyond it.
        ("--timeout", dict(type=float, default=60.0, metavar="SECONDS",
                           help="give up when connect or accept waits this long, or when the "
                                "exchange after it takes longer (exit 4)"), 86400.0),
    )),
    "sign": ("sign a message file", __name__, (
        ("--sk", dict(required=True)),
        ("--theta", dict(required=True)),
        ("--in", dict(dest="infile", required=True)),
        ("--sig-out", dict(default="nnsig.sig")),
    )),
    "verify": ("verify a signature file", __name__, (
        ("--pk", dict(required=True)),
        ("--theta", dict(required=True)),
        ("--in", dict(dest="infile", required=True)),
        ("--sig", dict(required=True)),
        ("--literal-verify", dict(action="store_true",
                                  help="use the uncorrected check that subtracts the bias before "
                                       "the public map; rejects signatures this signer produces "
                                       "(analysis only)")),
    )),
    "params": ("security estimates for (n, p)", f"{__package__}._cli_analysis", (
        # The estimates loop n times, 0.1 s at 2^20.
        ("--n", dict(type=int, required=True), 1 << 20),
        ("--p", dict(type=int)),
        # Also the bound on the bit length of --p: the prime search below 2^bits
        # takes seconds above it, and one Miller-Rabin round about 7 s at the
        # 14,000 bits argparse's int accepts.
        ("--p-bits", dict(type=int, help="use the largest prime below 2^BITS"), 1024),
        ("--level", dict(type=int, default=128)),
    )),
    "attack": ("plant and brute-force a toy instance", f"{__package__}._cli_analysis", (
        ("--n", dict(type=int, default=3)),
        ("--p", dict(type=int, default=7)),
    )),
    "bench": ("size/op-count report", f"{__package__}._cli_analysis", (
        *_NETWORK_OPTIONS,
        ("--instrument", dict(action="store_true",
                              help="also run keygen/sign/verify under the op counter")),
    )),
}
_COMMON = (
    ("--seed", dict(help="hex seed for deterministic output (env: NNSIG_SEED)")),
    ("--json", dict(action="store_true", help="machine-readable output")),
)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """Every subcommand with its help; arguments only for the first one argv
    names, or for all of them when it names none."""
    parser = argparse.ArgumentParser(prog="nnsig", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((word for word in argv if word in COMMANDS), None)
    for name, (text, _, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=text, add_help=named in (None, name))
        if named in (None, name):
            for flag, keywords, *_ in (*arguments, *_COMMON):
                sp.add_argument(flag, **keywords)
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
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        for flag, keywords, *bound in COMMANDS[args.command][2]:
            value = getattr(args, keywords.get("dest", flag[2:].replace("-", "_")))
            if bound and value is not None and not value <= bound[0]:
                raise LimitExceeded(f"{flag} {value} is above the limit of {bound[0]}")
        home = importlib.import_module(COMMANDS[args.command][1])
        return getattr(home, f"cmd_{args.command}")(args)
    except (ParameterError, LimitExceeded) as exc:
        return _fail(args, exc, EXIT_PARAMS, "parameter", "error")
    except (MalformedFrame, InvalidStateError) as exc:
        return _fail(args, exc, EXIT_PROTOCOL, "protocol", "protocol error")
    except (MalformedEncoding, DimensionMismatch) as exc:
        return _fail(args, exc, EXIT_ENCODING, "encoding", "encoding error")
    # Only the sync handler, whose module imports socket, can raise gaierror;
    # this lookup runs only once an exception has reached this clause.
    except (ConnectionError, TimeoutError,
            getattr(sys.modules.get("socket"), "gaierror", ConnectionError)) as exc:
        return _fail(args, exc, EXIT_CONNECT, "connection", "connection failed")
    except OSError as exc:
        return _fail(args, exc, EXIT_IO, "io", "i/o error")


def entry() -> None:
    """The console script and ``python -m nnsig``: exit with :func:`main`'s code.

    However the process leaves (a code, ``--help``, a usage error or an
    uncaught exception), ``gc.freeze()`` first moves every live object out of
    the collector's reach, so the interpreter's final collection does not
    free, one cycle at a time, what the OS reclaims at exit anyway.  Under
    ``python -X dev`` that collection runs, as it does after an in-process
    :func:`main`: it is what reports a file leaked in a reference cycle.
    """
    try:
        sys.exit(main())
    finally:
        if not sys.flags.dev_mode:
            gc.freeze()
