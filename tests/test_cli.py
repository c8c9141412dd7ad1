"""Command-line interface: exit codes, determinism, and the TCP sync path."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import nnsig
from nnsig._cli_sync import _parse_endpoint
from nnsig.cli import COMMANDS, main
from nnsig.errors import ParameterError
from nnsig.metrics import measured_sizes

# (command, flag) -> the upper bound its COMMANDS entry carries.
BOUNDS = {(command, entry[0]): entry[2] for command, (_, _, arguments) in COMMANDS.items()
          for entry in arguments if len(entry) == 3}
MAX_U = BOUNDS["sync", "--u"]


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NNSIG_SEED", raising=False)
    return tmp_path


def _json_lines(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def _keygen(tmp_path, seed="00ff", n=6, extra=()):
    args = [
        "keygen",
        "--p", "257",
        "--n", str(n),
        "--rho", "4",
        "--seed", seed,
        "--pk-out", str(tmp_path / "k.pk"),
        "--sk-out", str(tmp_path / "k.sk"),
    ]
    args.extend(extra)
    return main(args)


def _free_port(host: str = "127.0.0.1") -> int:
    with socket.socket(socket.AF_INET6 if ":" in host else socket.AF_INET) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _sync_pair(tmp_path, setup_a, setup_b, n_out=("a.theta", "b.theta"), u="2",
               host="127.0.0.1"):
    """Run listener and client CLI syncs against each other; returns exit codes."""
    port = _free_port(host)
    endpoint = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
    listener = {}

    def serve():
        listener["code"] = main([
            "sync",
            "--config", str(setup_a),
            "--listen", endpoint,
            "--theta-out", str(tmp_path / n_out[0]),
            "--seed", "aa",
            "--json",
        ])

    t = threading.Thread(target=serve)
    t.start()
    client = 4
    try:
        for _ in range(100):
            client = main([
                "sync",
                "--config", str(setup_b),
                "--connect", endpoint,
                "--theta-out", str(tmp_path / n_out[1]),
                "--seed", "bb",
                "--u", u,
                "--json",
            ])
            if client != 4 or not t.is_alive():
                break  # retry only while the listener is still coming up
            time.sleep(0.05)
    finally:
        t.join(timeout=20)
    assert not t.is_alive()
    return listener["code"], client


def test_keygen_writes_parsable_keys(tmp_path, capsys):
    assert _keygen(tmp_path, extra=("--json",)) == 0
    payload = _json_lines(capsys)[0]
    assert payload["p"] == 257 and payload["n"] == 6
    from nnsig._public import parse_public_key
    from nnsig.scheme import parse_secret_key

    pk = parse_public_key((tmp_path / "k.pk").read_bytes())
    sk = parse_secret_key((tmp_path / "k.sk").read_bytes())
    assert sk.public_key() == pk
    assert payload["pk_bytes"] == (tmp_path / "k.pk").stat().st_size


def test_keygen_writes_the_secret_key_owner_only(tmp_path):
    sk_path = tmp_path / "k.sk"
    assert _keygen(tmp_path) == 0
    assert sk_path.stat().st_mode & 0o077 == 0
    # An existing, world-readable file is narrowed before the key is written.
    sk_path.chmod(0o644)
    assert _keygen(tmp_path) == 0
    assert sk_path.stat().st_mode & 0o077 == 0


def test_keygen_seed_determinism(tmp_path):
    assert _keygen(tmp_path) == 0
    first = ((tmp_path / "k.pk").read_bytes(), (tmp_path / "k.sk").read_bytes())
    assert _keygen(tmp_path) == 0
    assert ((tmp_path / "k.pk").read_bytes(), (tmp_path / "k.sk").read_bytes()) == first
    assert _keygen(tmp_path, seed="01ff") == 0
    assert (tmp_path / "k.pk").read_bytes() != first[0]


def test_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NNSIG_SEED", "c0ffee")
    args = ["keygen", "--p", "257", "--n", "4", "--rho", "3",
            "--pk-out", str(tmp_path / "e.pk"), "--sk-out", str(tmp_path / "e.sk")]
    assert main(args) == 0
    blob = (tmp_path / "e.pk").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "e.pk").read_bytes() == blob


def test_keygen_rejects_bad_params(tmp_path):
    assert main(["keygen", "--p", "4", "--n", "4"]) == 1
    assert main(["keygen", "--p", "257", "--n", "1"]) == 1
    assert main(["keygen", "--p", "257", "--n", "4", "--seed", "zz"]) == 1


def test_sign_verify_pipeline(tmp_path, capsys):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "setup.bin"))) == 0
    codes = _sync_pair(tmp_path, tmp_path / "setup.bin", tmp_path / "setup.bin")
    assert codes == (0, 0)
    # Both sides better have landed on the same bias vector.
    assert (tmp_path / "a.theta").read_bytes() == (tmp_path / "b.theta").read_bytes()
    msg = tmp_path / "msg.txt"
    msg.write_bytes(b"hello from the command line")
    assert main([
        "sign",
        "--sk", str(tmp_path / "k.sk"),
        "--theta", str(tmp_path / "a.theta"),
        "--in", str(msg),
        "--sig-out", str(tmp_path / "m.sig"),
        "--seed", "5151",
    ]) == 0
    verify_args = [
        "verify",
        "--pk", str(tmp_path / "k.pk"),
        "--theta", str(tmp_path / "b.theta"),
        "--in", str(msg),
        "--sig", str(tmp_path / "m.sig"),
        "--json",
    ]
    assert main(verify_args) == 0
    assert _json_lines(capsys)[-1] == {"accepted": True}
    # Literal reconstruction order rejects honest signatures.
    assert main(verify_args + ["--literal-verify"]) == 5


def test_verify_rejects_tampering(tmp_path):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "setup.bin"))) == 0
    codes = _sync_pair(tmp_path, tmp_path / "setup.bin", tmp_path / "setup.bin")
    assert codes == (0, 0)
    msg = tmp_path / "msg.txt"
    msg.write_bytes(b"original")
    assert main([
        "sign", "--sk", str(tmp_path / "k.sk"), "--theta", str(tmp_path / "a.theta"),
        "--in", str(msg), "--sig-out", str(tmp_path / "m.sig"), "--seed", "07",
    ]) == 0

    def check(path):
        return main([
            "verify", "--pk", str(tmp_path / "k.pk"), "--theta", str(tmp_path / "a.theta"),
            "--in", str(msg), "--sig", str(path),
        ])

    assert check(tmp_path / "m.sig") == 0
    # Flip the message: rejection, exit 5.
    msg.write_bytes(b"originaL")
    assert check(tmp_path / "m.sig") == 5
    msg.write_bytes(b"original")
    # Perturb one signature element but keep it in range: still exit 5.
    blob = bytearray((tmp_path / "m.sig").read_bytes())
    for off in range(13, len(blob), 2):
        (val,) = struct.unpack_from("<H", blob, off)
        if val < 256:
            struct.pack_into("<H", blob, off, val + 1)
            break
    (tmp_path / "bad.sig").write_bytes(bytes(blob))
    assert check(tmp_path / "bad.sig") == 5
    # Corrupt the encoding itself: exit 6.
    (tmp_path / "trunc.sig").write_bytes(bytes(blob[:-3]))
    assert check(tmp_path / "trunc.sig") == 6


def test_missing_files_exit_two(tmp_path):
    assert main(["sign", "--sk", str(tmp_path / "nope.sk"),
                 "--theta", str(tmp_path / "nope.theta"), "--in", str(tmp_path / "nope.txt")]) == 2
    assert main(["sync", "--config", str(tmp_path / "nope.bin"),
                 "--listen", "127.0.0.1:1"]) == 2


def test_malformed_key_files_exit_six(tmp_path):
    assert _keygen(tmp_path) == 0
    pk = bytearray((tmp_path / "k.pk").read_bytes())
    pk[0] ^= 0x55
    (tmp_path / "bad.pk").write_bytes(bytes(pk))
    theta = tmp_path / "t.theta"
    theta.write_bytes(b"NNSIGTH1" + b"\x00" * 12)
    msg = tmp_path / "m.txt"
    msg.write_bytes(b"x")
    assert main(["verify", "--pk", str(tmp_path / "bad.pk"), "--theta", str(theta),
                 "--in", str(msg), "--sig", str(theta)]) == 6
    sk = bytearray((tmp_path / "k.sk").read_bytes())
    sk[9] = 2  # version byte
    (tmp_path / "bad.sk").write_bytes(bytes(sk))
    # version check fires before anything else is read
    code = main(["sign", "--sk", str(tmp_path / "bad.sk"), "--theta", str(theta),
                 "--in", str(msg)])
    assert code == 6


def test_sync_flag_validation(tmp_path):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    setup = str(tmp_path / "s.bin")
    assert main(["sync", "--config", setup]) == 1
    assert main(["sync", "--config", setup, "--listen", "h:1", "--connect", "h:1"]) == 1
    assert main(["sync", "--config", setup, "--listen", "badendpoint"]) == 1
    assert main(["sync", "--config", setup, "--connect", "127.0.0.1:1", "--u", "0"]) == 1


def test_sync_refuses_u_above_the_limit_before_creating_a_session(tmp_path, monkeypatch, capsys):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    capsys.readouterr()

    def create(config, rng):
        raise AssertionError(f"created a session with u={config.u}")

    monkeypatch.setattr("nnsig.sync.SyncSession.create", create)
    argv = ["sync", "--connect", "127.0.0.1:1", "--json", "--u"]
    assert main(argv + [str(MAX_U + 1), "--config", str(tmp_path / "s.bin")]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "parameter", "exit": 1,
                     "message": f"--u {MAX_U + 1} is above the limit of {MAX_U}"}
    # Refused before the config file is read: a missing one is no i/o error.
    assert main(argv + [str(MAX_U + 1), "--config", str(tmp_path / "missing.bin")]) == 1
    with pytest.raises(AssertionError, match=f"u={MAX_U}$"):
        main(argv + [str(MAX_U), "--config", str(tmp_path / "s.bin")])


def test_sync_listen_on_a_busy_port_exits_four(tmp_path, capsys):
    """An address that cannot be bound is a connection failure, not file i/o."""
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    capsys.readouterr()
    with socket.create_server(("127.0.0.1", 0)) as busy:
        argv = ["sync", "--config", str(tmp_path / "s.bin"), "--json",
                "--listen", f"127.0.0.1:{busy.getsockname()[1]}"]
        assert main(argv) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "connection" and error["exit"] == 4
    assert error["message"].startswith(f"[Errno {errno.EADDRINUSE}] ")


@pytest.mark.parametrize("mode", ["--listen", "--connect"])
@pytest.mark.parametrize("port", ["-1", "65536", "99999"])
def test_sync_port_out_of_range_exits_one(tmp_path, capsys, mode, port):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    capsys.readouterr()
    assert main(["sync", "--config", str(tmp_path / "s.bin"), mode, f"127.0.0.1:{port}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: port must be 0-65535")


def test_parse_endpoint_port_range():
    assert _parse_endpoint("127.0.0.1:0") == ("127.0.0.1", 0)
    assert _parse_endpoint("localhost:65535") == ("localhost", 65535)
    assert _parse_endpoint("[::1]:7700") == ("::1", 7700)
    for text in ("127.0.0.1:-1", "127.0.0.1:65536", "[]:7700", "127.0.0.1:http"):
        with pytest.raises(ParameterError):
            _parse_endpoint(text)


def _ipv6_loopback() -> bool:
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _ipv6_loopback(), reason="no IPv6 loopback")
def test_sync_over_ipv6_loopback(tmp_path):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    assert _sync_pair(tmp_path, tmp_path / "s.bin", tmp_path / "s.bin", host="::1") == (0, 0)
    assert (tmp_path / "a.theta").read_bytes() == (tmp_path / "b.theta").read_bytes()


def test_sync_writes_theta_owner_only(tmp_path):
    """Theta is the shared secret: both ends write it owner-only, under a
    permissive umask and over an existing world-readable file alike."""
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    (tmp_path / "a.theta").write_bytes(b"")
    (tmp_path / "a.theta").chmod(0o644)
    umask = os.umask(0o022)
    try:
        assert _sync_pair(tmp_path, tmp_path / "s.bin", tmp_path / "s.bin") == (0, 0)
    finally:
        os.umask(umask)
    for name in ("a.theta", "b.theta"):
        assert (tmp_path / name).stat().st_mode & 0o077 == 0, name


def test_sync_connection_refused(tmp_path):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    port = _free_port()  # nothing is listening there
    assert main(["sync", "--config", str(tmp_path / "s.bin"),
                 "--connect", f"127.0.0.1:{port}"]) == 4


def test_sync_garbage_peer_exits_protocol(tmp_path):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]

    def feed_garbage():
        conn, _ = server.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(b"\x7f" + b"\x00" * 64)

    t = threading.Thread(target=feed_garbage)
    t.start()
    try:
        code = main(["sync", "--config", str(tmp_path / "s.bin"),
                     "--connect", f"127.0.0.1:{port}"])
    finally:
        t.join(timeout=10)
        server.close()
    assert code == 3


def _connect_when_listening(port):
    """Connect to port, retrying while the listener comes up; None if it never does."""
    for _ in range(200):
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=5)
        except ConnectionRefusedError:
            time.sleep(0.02)
    return None


def _hold_silent_connection(port, connected, release):
    """Connect to port (retrying while the listener comes up), then send nothing."""
    conn = _connect_when_listening(port)
    if conn is None:
        return
    with conn:
        connected.set()
        release.wait(20)


@pytest.mark.parametrize("silent", ["client", "server", "nobody"])
def test_sync_silent_peer_times_out(tmp_path, capsys, silent):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    capsys.readouterr()
    connected, release = threading.Event(), threading.Event()
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    port = server.getsockname()[1]
    if silent == "server":
        server.listen(1)  # the kernel completes the handshake; nobody ever reads
        mode = ["--connect", f"127.0.0.1:{port}"]
    else:
        server.close()  # free the port for the CLI's listener
        mode = ["--listen", f"127.0.0.1:{port}"]
    peer = threading.Thread(target=_hold_silent_connection, args=(port, connected, release))
    if silent == "client":
        peer.start()
    start = time.monotonic()
    try:
        code = main(["sync", "--config", str(tmp_path / "s.bin"), *mode,
                     "--timeout", "0.5", "--json"])
    finally:
        elapsed = time.monotonic() - start
        release.set()
        if peer.is_alive():
            peer.join(timeout=20)
        server.close()
    assert code == 4
    assert 0.4 < elapsed < 10
    assert connected.is_set() == (silent == "client")
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "connection" and error["exit"] == 4
    assert "timed out" in error["message"]


def _trickle_dh_frame(port, stop):
    """Connect to port, send a DH frame header, then one payload byte every 0.2 s."""
    conn = _connect_when_listening(port)
    if conn is None:
        return
    with conn:
        try:
            conn.sendall(struct.pack("<BI", 0x01, 8 + 36 * 2))
            while not stop.wait(0.2):
                conn.sendall(b"\x00")
        except OSError:
            pass


def test_sync_trickling_peer_hits_the_exchange_deadline(tmp_path, capsys):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    capsys.readouterr()
    port = _free_port()
    stop = threading.Event()
    peer = threading.Thread(target=_trickle_dh_frame, args=(port, stop))
    peer.start()
    start = time.monotonic()
    try:
        code = main(["sync", "--config", str(tmp_path / "s.bin"),
                     "--listen", f"127.0.0.1:{port}", "--timeout", "1", "--json"])
    finally:
        elapsed = time.monotonic() - start
        stop.set()
        peer.join(timeout=20)
    assert not peer.is_alive()
    assert code == 4
    assert elapsed < 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "connection" and "timed out" in error["message"]


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "1e9"])
def test_sync_rejects_bad_timeouts(tmp_path, timeout):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    assert main(["sync", "--config", str(tmp_path / "s.bin"), "--connect", "127.0.0.1:1",
                 "--timeout", timeout]) == 1


@pytest.mark.parametrize("argv, code, kind", [
    (["keygen", "--p", "4", "--n", "4"], 1, "parameter"),
    (["sign", "--sk", "nope.sk", "--theta", "nope.theta", "--in", "nope.txt"], 2, "io"),
    (["verify", "--pk", "junk", "--theta", "junk", "--in", "junk", "--sig", "junk"], 6,
     "encoding"),
])
def test_json_errors_are_one_json_object(tmp_path, capsys, argv, code, kind):
    (tmp_path / "junk").write_bytes(b"not a key")
    assert main([*argv, "--json"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    error = json.loads(err)
    assert set(error) == {"error", "message", "exit"}
    assert error["error"] == kind and error["exit"] == code and error["message"]
    # Without --json the same failure is one plain-text line.
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and not err.startswith("{")


def test_sync_mismatched_moduli(tmp_path):
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "a.bin"))) == 0
    assert main([
        "keygen", "--p", "7919", "--n", "6", "--rho", "4", "--seed", "beef",
        "--pk-out", str(tmp_path / "o.pk"), "--sk-out", str(tmp_path / "o.sk"),
        "--export-shared", str(tmp_path / "b.bin"),
    ]) == 0
    listener, client = _sync_pair(tmp_path, tmp_path / "a.bin", tmp_path / "b.bin")
    # The listener decodes entries >= 257 in the peer's DH share: protocol
    # failure.  The client just sees the connection die, which lands on the
    # protocol or connection code depending on whether the close was a reset.
    assert listener == 3
    assert client in (3, 4)


def test_params_output_and_validation(capsys):
    assert main(["params", "--n", "26", "--p", "257", "--json"]) == 0
    payload = _json_lines(capsys)[-1]
    floats = {"classical_bits": 113.48428643869417,
              "quantum_bits": 226.96857287738834,
              "keyspace_bits": 429.18112543422818}
    for key, want in floats.items():
        assert payload.pop(key) == pytest.approx(want, rel=1e-12)
    assert payload == {
        "n": 26,
        "p": 257,
        "level": 128,
        "classical_ok": False,
        "quantum_ok_grover": False,
        "quantum_ok_doubled_log": True,
    }
    assert main(["params", "--n", "26", "--p", "256"]) == 1
    assert main(["params", "--n", "26"]) == 1
    assert main(["params", "--n", "26", "--p", "257", "--p-bits", "8"]) == 1
    assert main(["params", "--n", "26", "--p-bits", "1"]) == 1
    assert main(["params", "--n", "26", "--p-bits", "8", "--json"]) == 0
    assert _json_lines(capsys)[-1]["p"] == 251


# Numeric options that COMMANDS leaves unbounded, each with where its bound lives.
LIBRARY_BOUNDED = {
    ("keygen", "--p"), ("bench", "--p"),  # Field's 61 bits, checked before is_prime
    ("keygen", "--l"),  # below n
    ("attack", "--n"), ("attack", "--p"),  # the solver guardrails, checked before planting
    ("params", "--p"),  # the --p-bits bound, in bits
    ("params", "--level"),  # only compared, so it costs nothing
}

# For each bound: the rest of an otherwise valid command line, and the
# command's first costly call.
BOUND_CASES = {
    ("keygen", "--n"): ((), "nnsig.scheme.build_network"),
    ("keygen", "--rho"): ((), "nnsig.scheme.build_network"),
    ("bench", "--n"): ((), "nnsig.scheme.build_network"),
    ("bench", "--rho"): ((), "nnsig.scheme.build_network"),
    ("sync", "--u"): (("--connect", "127.0.0.1:1", "--config", "s.bin"),
                      "nnsig.sync.SyncSession.create"),
    ("sync", "--timeout"): (("--connect", "127.0.0.1:1", "--config", "s.bin"),
                            "nnsig.sync.SyncSession.create"),
    ("params", "--n"): (("--p", "257"), "nnsig.hardness.estimate"),
    ("params", "--p-bits"): (("--n", "26"), "nnsig._cli_analysis.is_prime"),
}


def test_every_numeric_option_is_bounded():
    numeric = {(command, entry[0]) for command, (_, _, arguments) in COMMANDS.items()
               for entry in arguments if entry[1].get("type") in (int, float)}
    assert set(BOUNDS) <= numeric
    assert numeric - set(BOUNDS) == LIBRARY_BOUNDED
    assert set(BOUND_CASES) == set(BOUNDS)
    # The ROADMAP's largest set, n=128 with rho=10, stays far inside.
    assert BOUNDS["keygen", "--n"] >= 2 * 128 and BOUNDS["keygen", "--rho"] >= 100 * 10


@pytest.mark.parametrize("command, flag", sorted(BOUND_CASES))
def test_a_value_above_its_bound_exits_one_before_the_first_costly_call(
        tmp_path, monkeypatch, capsys, command, flag):
    rest, costly = BOUND_CASES[command, flag]
    bound = BOUNDS[command, flag]
    assert _keygen(tmp_path, extra=("--export-shared", str(tmp_path / "s.bin"))) == 0
    capsys.readouterr()

    def reached(*args, **kwargs):
        raise AssertionError(f"reached {costly}")

    monkeypatch.setattr(costly, reached)
    argv = [command, *rest, "--json", flag]
    assert main(argv + [str(bound + 1)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "parameter", "exit": 1,
        "message": f"{flag} {bound + 1} is above the limit of {bound}"}
    with pytest.raises(AssertionError, match=f"reached {costly}$"):
        main(argv + [str(bound)])


def test_params_refuses_p_bits_above_the_limit(monkeypatch, capsys):
    def searched(candidate):
        raise AssertionError(f"searched from {candidate}")

    monkeypatch.setattr("nnsig._cli_analysis.is_prime", searched)
    assert main(["params", "--n", "26", "--p-bits", "1025", "--json"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "parameter" and "limit of 1024" in error["message"]


def test_params_refuses_p_above_the_limit_before_testing_it(monkeypatch, capsys):
    def tested(candidate):
        raise AssertionError(f"tested {candidate.bit_length()} bits")

    monkeypatch.setattr("nnsig._cli_analysis.is_prime", tested)
    assert main(["params", "--n", "26", "--p", str(2**1024 + 1), "--json"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "parameter", "exit": 1,
                     "message": "--p has 1025 bits, above the limit of 1024"}
    with pytest.raises(AssertionError, match="tested 1024 bits"):
        main(["params", "--n", "26", "--p", str(2**1024 - 1)])


def test_params_refuses_n_above_the_limit(monkeypatch, capsys):
    def estimated(*args):
        raise AssertionError(f"estimated {args}")

    monkeypatch.setattr("nnsig.hardness.estimate", estimated)
    assert main(["params", "--n", str(2**20 + 1), "--p", "257", "--json"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "parameter" and "limit of 1048576" in error["message"]


def test_params_human_output(capsys):
    assert main(["params", "--n", "128", "--p-bits", "128", "--level", "128"]) == 0
    out = capsys.readouterr().out
    assert "classical search bits : 872.1617" in out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_params_rejects_a_strong_pseudoprime_modulus(capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin to the first 12 prime bases.
    assert main(["params", "--n", "26", "--p", "318665857834031151167461"]) == 1
    assert "not prime" in capsys.readouterr().err


def test_attack_recovers_plant(capsys):
    assert main(["attack", "--n", "2", "--p", "5", "--seed", "0123", "--json"]) == 0
    payload = _json_lines(capsys)[-1]
    assert payload["recovered"] is True
    assert payload["planted"] in payload["solutions"]
    assert main(["attack", "--n", "10"]) == 1  # guardrail


@pytest.mark.parametrize("n, p, reason", [("400", "7", "n=400 above"), ("3", "37", "p=37 above")])
def test_attack_refuses_before_planting(monkeypatch, capsys, n, p, reason):
    def plant(*args):
        raise AssertionError("planted an instance the guardrail refuses")

    monkeypatch.setattr("nnsig.hardness.make_instance", plant)
    assert main(["attack", "--n", n, "--p", p]) == 1
    assert f"{reason} solver guardrail" in capsys.readouterr().err


def test_bench_report(capsys):
    assert main(["bench", "--p", "257", "--n", "26", "--rho", "10",
                 "--seed", "42", "--json", "--instrument"]) == 0
    payload = _json_lines(capsys)[-1]
    assert payload["formula"] == {
        "pk_bytes": 1353, "sk_bytes": 973, "sig_bits": 1534, "hash_bits": 208,
    }
    assert payload["measured"]["pk_bytes"] == 2745
    assert payload["ops"]["verify"] == 2002
    assert set(payload["mismatches"]) == {"pk_bytes", "sk_bytes", "sig_bits"}
    assert payload["instrumented"]["accepted"] is True
    assert payload["reported"]["257,43,10"]["level"] == 128


def test_bench_clean_row_has_no_mismatches(capsys):
    assert main(["bench", "--p", "257", "--n", "33", "--rho", "10",
                 "--seed", "43", "--json"]) == 0
    assert _json_lines(capsys)[-1]["mismatches"] == {}


def test_bench_instrument_derives_one_keypair(monkeypatch, capsys):
    import nnsig.metrics
    import nnsig.scheme

    calls = []

    def counted(*args, keygen=nnsig.scheme.keygen, **kwargs):
        calls.append(args[0].n)
        return keygen(*args, **kwargs)

    # Every binding a bench child can reach keygen through: scheme's and metrics' own.
    for home in (nnsig.scheme, nnsig.metrics):
        monkeypatch.setattr(home, "keygen", counted)
    assert main(["bench", "--n", "26", "--rho", "10", "--instrument"]) == 0
    assert calls == [26]


@pytest.mark.parametrize("instrument", [[], ["--instrument"]])
def test_bench_prints_the_same_bytes_under_any_seed(capsys, instrument):
    outputs = set()
    for seed in (["--seed", "01"], ["--seed", "02"], []):
        assert main(["bench", "--n", "26", "--rho", "10", "--json"] + instrument + seed) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    # The seed changes nothing bench prints, but a malformed one is still refused.
    assert main(["bench", "--n", "26", "--rho", "10", "--seed", "zz"] + instrument) == 1
    assert capsys.readouterr().err.startswith("error: seed must be a hex string")


def test_bench_sizes_and_tallies_come_from_one_run(monkeypatch, capsys):
    import nnsig.metrics

    runs = []

    def recorded(*args, run=nnsig.metrics._instrumented_run):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(nnsig.metrics, "_instrumented_run", recorded)
    assert main(["bench", "--n", "26", "--rho", "10", "--instrument", "--json"]) == 0
    payload = _json_lines(capsys)[-1]
    [(counts, pk, sk, signature)] = runs
    sizes = measured_sizes(pk, sk, signature)
    assert payload["measured"] == {"pk_bytes": sizes.pk_bytes, "sk_bytes": sizes.sk_bytes,
                                   "sig_bytes": sizes.sig_bytes, "sig_bits": sizes.sig_bits}
    assert payload["instrumented"] == counts


def test_module_entry_point(tmp_path):
    # _isolate changes into tmp_path, where a relative PYTHONPATH such as "src"
    # points nowhere; the children must import the nnsig this process imported.
    env = dict(os.environ)
    root = str(Path(nnsig.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nnsig", "params", "--n", "26", "--p", "257", "--json"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["classical_ok"] is False
    proc = subprocess.run(
        [sys.executable, "-m", "nnsig", "params", "--n", "26", "--p", "256"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr


HELP_TEXTS = Path(__file__).with_name("cli_help_texts.json")


def _full_parser_output(argv) -> dict:
    """What a parser holding every subcommand's arguments prints for argv."""
    from nnsig.cli import build_parser

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            build_parser().parse_args(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_help_and_usage_texts_are_unchanged(monkeypatch):
    """``nnsig --help``, ``nnsig X --help`` for each X, and one usage error, run
    as ``python -m nnsig``: each prints what the parser holding every
    subcommand's arguments prints and, under the Python version that recorded
    them, the texts that nnsig printed before it built only the named
    subcommand's arguments (argparse's wording differs between versions)."""
    recorded = json.loads(HELP_TEXTS.read_text())
    monkeypatch.setenv("COLUMNS", str(recorded["columns"]))
    env = dict(os.environ, PYTHONPATH=str(Path(nnsig.__file__).resolve().parent.parent))
    same_python = recorded["python"] == "%d.%d" % sys.version_info[:2]
    for case in recorded["cases"]:
        proc = subprocess.run([sys.executable, "-m", "nnsig", *case["argv"]],
                              capture_output=True, text=True, timeout=60, env=env)
        got = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        assert got == _full_parser_output(case["argv"]), case["argv"]
        if same_python:
            assert got == {key: case[key] for key in got}, case["argv"]


def _singular_secret_key(tmp_path) -> Path:
    """A keygen secret key with every weight bit cleared: all weights 1, rank 1."""
    from nnsig.field import Field
    from nnsig._public import encode_theta

    assert _keygen(tmp_path) == 0
    blob = bytearray((tmp_path / "k.sk").read_bytes())
    weights = len(b"NNSIGSK1") + 1 + 48 + 8 * 6  # magic, version, header, permutations
    blob[weights : weights + 5] = bytes(5)  # 36 weight bits in 5 bytes
    (tmp_path / "singular.sk").write_bytes(bytes(blob))
    (tmp_path / "t.theta").write_bytes(encode_theta(Field(257), (1, 2, 3, 4, 5, 6)))
    (tmp_path / "m.txt").write_bytes(b"x")
    return tmp_path / "singular.sk"


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_sign_with_singular_weights_exits_six(tmp_path, capsys, json_flag):
    argv = ["sign", "--sk", str(_singular_secret_key(tmp_path)), "--theta",
            str(tmp_path / "t.theta"), "--in", str(tmp_path / "m.txt"), *json_flag]
    capsys.readouterr()
    assert main(argv) == 6
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    if json_flag:
        error = json.loads(err)
        assert error["error"] == "encoding" and "singular" in error["message"]
    else:
        assert "singular" in err and not err.startswith("{")
    assert not (tmp_path / "nnsig.sig").exists()
