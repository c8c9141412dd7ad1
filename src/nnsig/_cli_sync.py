"""The ``nnsig sync`` handler, imported only by a sync child (see ``cli``)."""

from __future__ import annotations

import socket
import time

from .cli import (EXIT_OK, _emit_json, _fingerprint, _master_seed, _read_file, _rng_for, _say,
                  _write_file)
from .errors import ParameterError
from .network import decode_shared_setup
from .sync import SyncConfig, SyncSession, run_over_socket
from ._public import encode_theta


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


def cmd_sync(args) -> int:
    if bool(args.listen) == bool(args.connect):
        raise ParameterError("pick exactly one of --listen or --connect")
    if not args.timeout > 0:  # main has refused one above its bound, and nan
        raise ParameterError("--timeout must be above 0 seconds")
    weights, q = decode_shared_setup(_read_file(args.config))
    config = SyncConfig(weights=weights, q=q, u=args.u)
    session = SyncSession.create(config, _rng_for(_master_seed(args), b"sync"))
    if args.listen:
        host, port = _parse_endpoint(args.listen)
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        try:
            server = socket.create_server((host, port), backlog=1, family=family)
        except OSError as exc:  # a busy or foreign address: no peer can reach this end
            raise ConnectionError(*exc.args) from exc
        with server:
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
