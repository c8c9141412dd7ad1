"""Acceptance gate: nine numbered criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py`` (the report lines bypass pytest's
capture, so they always appear) or with ``-s`` for raw output.
"""

from __future__ import annotations

import random
import socket
import sys
import threading
import time

import mpmath as mp

from nnsig._packed import encode_matrix, vec_add, vec_mat
from nnsig._public import (
    Signature,
    decode_theta,
    encode_theta,
    hash_to_field,
    parse_public_key,
    parse_signature,
    serialize_public_key,
    serialize_signature,
    verify,
)
from nnsig.errors import (
    LengthOverflow,
    MalformedEncoding,
    MalformedFrame,
    UnknownTag,
    UnsupportedVersion,
)
from nnsig.field import Field
from nnsig.hardness import (
    brute_force_solve,
    classical_security_bits,
    classical_security_ok,
    make_instance,
    quantum_security_ok,
)
from nnsig.matrix import mat_pow
from nnsig.metrics import (
    REPORTED_PROFILES,
    discrepancies,
    formula_sizes,
    instrumented_counts,
    op_count_report,
)
from nnsig.network import (
    NetworkConfig,
    build_network,
    decode_shared_setup,
    encode_shared_setup,
    evolve_iterative,
    forward,
    unroll,
)
from nnsig.scheme import keygen, parse_secret_key, serialize_secret_key, sign
from nnsig.sync import (
    DhMatrixMessage,
    PublicVectorMessage,
    SyncConfig,
    SyncSession,
    run_over_socket,
    run_pair,
    wire_decode,
    wire_encode,
)
from oracles import mat_add

P128 = 2**128 - 159


def _report(index: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{index}/9] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _reference_keypair(rng_seed: int, net_seed: bytes):
    config = NetworkConfig(n=26, field=Field(257), rho=10, seed=net_seed)
    return keygen(config, random.Random(rng_seed), split_index=13)


def test_criterion_1_roundtrip_completeness():
    start = time.perf_counter()
    pk, sk = _reference_keypair(1001, b"acceptance-1")
    rng = random.Random(1002)
    theta = pk.field.sample_vector(rng, 26)
    failures = 0
    for _ in range(1000):
        message = rng.randbytes(rng.randrange(0, 64))
        signature = sign(sk, theta, message, rng)
        if not verify(pk, theta, message, signature):
            failures += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "roundtrip completeness (p=257, n=26, rho=10, l=13)",
        failures == 0 and elapsed < 60.0,
        f"{failures} failures in 1000 roundtrips, {elapsed:.1f}s",
    )


def test_criterion_2_tamper_rejection():
    pk, sk = _reference_keypair(2001, b"acceptance-2")
    pk2, _ = _reference_keypair(2002, b"acceptance-2-other")
    rng = random.Random(2003)
    field = pk.field
    theta = field.sample_vector(rng, 26)
    accepted = {"coordinate": 0, "message": 0, "cross-key": 0}
    for _ in range(1000):
        message = rng.randbytes(32)
        signature = sign(sk, theta, message, rng)

        half = rng.randrange(2)
        idx = rng.randrange(26)
        delta = rng.randrange(1, 257)
        vec = signature.sigma0 if half == 0 else signature.sigma1
        bumped = vec[:idx] + (field.add(vec[idx], delta),) + vec[idx + 1 :]
        mauled = Signature(bumped, signature.sigma1) if half == 0 else Signature(signature.sigma0, bumped)
        if verify(pk, theta, message, mauled):
            accepted["coordinate"] += 1

        flipped = bytearray(message)
        flipped[rng.randrange(32)] ^= 1 << rng.randrange(8)
        if verify(pk, theta, bytes(flipped), signature):
            accepted["message"] += 1

        if verify(pk2, theta, message, signature):
            accepted["cross-key"] += 1
    _report(
        2,
        "tamper rejection",
        all(v == 0 for v in accepted.values()),
        f"acceptances per 1000: {accepted['coordinate']} coordinate, "
        f"{accepted['message']} message, {accepted['cross-key']} cross-key",
    )


def test_criterion_3_closed_form_exactness():
    rng = random.Random(3001)
    primes = [p for p in range(3, 98) if all(p % k for k in range(2, p))]
    mismatches = 0
    for trial in range(200):
        field = Field(rng.choice(primes))
        n = rng.randrange(2, 7)
        rho = rng.randrange(1, 9)
        config = NetworkConfig(n=n, field=field, rho=rho, seed=b"acc3-%d" % trial)
        weights, schedule = build_network(config)
        s0 = field.sample_vector(rng, n)
        theta = field.sample_vector(rng, n)
        iterated = evolve_iterative(weights, schedule, s0, theta)
        composed = forward(unroll(weights, schedule), s0, theta)
        if iterated != composed:
            mismatches += 1
    _report(
        3,
        "closed form equals iteration",
        mismatches == 0,
        f"{mismatches} mismatches in 200 random configs (n<=6, rho<=8, p<=97)",
    )


def test_criterion_4_planted_search_recovery():
    rng = random.Random(4001)
    missed = 0
    worst = 0.0
    for _ in range(100):
        n = rng.choice((2, 3))
        field = Field(rng.choice((3, 5, 7, 11)))
        instance, planted = make_instance(n, field, rng)
        begin = time.perf_counter()
        hits = brute_force_solve(instance)
        worst = max(worst, time.perf_counter() - begin)
        if not any(
            h.exponent == planted.exponent and h.perm.perm == planted.perm.perm
            for h in hits
        ):
            missed += 1
    _report(
        4,
        "planted-instance recovery",
        missed == 0 and worst < 5.0,
        f"{missed} misses in 100 instances (n<=3, p<=11), worst search {worst * 1000:.1f}ms",
    )


def _replay_theta(config, session_a, session_b):
    """Recompute theta from A's wire transcript and both exponent sets."""
    field = config.field
    peer_dh = wire_decode(session_a.transcript[1][1], field)
    shared = mat_pow(peer_dh.matrix, session_a.dh_exponent)
    r = hash_to_field(encode_matrix(shared), config.n, field)
    mix = None
    for alpha in session_a.mix_exponents + session_b.mix_exponents:
        term = mat_pow(shared, alpha)
        mix = term if mix is None else mat_add(mix, term)
    return vec_add(field, vec_add(field, vec_mat(config.q, mix), r), r)


def test_criterion_5_sync_protocol():
    rng = random.Random(5001)
    field = Field(257)
    disagreements = 0
    replay_breaks = 0
    for trial in range(100):
        n = rng.randrange(2, 7)
        net = NetworkConfig(n=n, field=field, rho=3, seed=b"acc5-%d" % trial)
        weights, _ = build_network(net)
        config = SyncConfig(weights=weights, q=field.sample_vector(rng, n))
        a = SyncSession.create(config, random.Random(rng.random()))
        b = SyncSession.create(config, random.Random(rng.random()))
        ta, tb = run_pair(a, b)
        if ta != tb:
            disagreements += 1
        if ta != _replay_theta(config, a, b):
            replay_breaks += 1

    socket_disagreements = 0
    for trial in range(10):
        net = NetworkConfig(n=4, field=field, rho=3, seed=b"acc5s-%d" % trial)
        weights, _ = build_network(net)
        config = SyncConfig(weights=weights, q=field.sample_vector(rng, 4))
        a = SyncSession.create(config, random.Random(rng.random()))
        b = SyncSession.create(config, random.Random(rng.random()))
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            port = server.getsockname()[1]
            result = {}

            def serve():
                conn, _ = server.accept()
                with conn:
                    result["theta"] = run_over_socket(b, conn)

            t = threading.Thread(target=serve)
            t.start()
            with socket.create_connection(("127.0.0.1", port), timeout=10) as client:
                theta_a = run_over_socket(a, client)
            t.join(timeout=10)
        if theta_a != result["theta"] or theta_a != _replay_theta(config, a, b):
            socket_disagreements += 1
    _report(
        5,
        "bias synchronization",
        disagreements == 0 and replay_breaks == 0 and socket_disagreements == 0,
        f"100 in-process + 10 loopback sessions; {disagreements} disagreements, "
        f"{replay_breaks} replay-identity breaks, {socket_disagreements} socket failures",
    )


def test_criterion_6_security_estimator_fidelity():
    mp.mp.dps = 60
    grid = [
        (2, 3), (2, 5), (3, 7), (4, 11), (5, 31), (8, 97), (8, 257),
        (12, 257), (16, 521), (20, 257), (26, 257), (33, 257), (43, 257),
        (50, 7919), (64, 65537), (80, 2**31 - 1), (100, 7919),
        (128, P128), (150, P128), (200, 2**61 - 1),
    ]
    assert len(grid) == 20
    worst_rel = 0.0
    for n, p in grid:
        want = mp.log(p - 1, 2) + 3 * mp.log(n, 2) + mp.log(mp.log(p, 2), 2)
        for k in range(2, n + 1):
            want += mp.log(k, 2)
        got = classical_security_bits(n, p)
        worst_rel = max(worst_rel, abs(got - float(want)) / float(want))
    reference_ok = classical_security_ok(128, P128, 128)
    grover_ok = quantum_security_ok(128, P128, 128, style="grover")
    bits = classical_security_bits(128, P128)
    _report(
        6,
        "security estimator fidelity",
        worst_rel < 1e-9 and reference_ok and grover_ok,
        f"20-point grid worst relative error {worst_rel:.2e}; "
        f"classical {bits:.4f} >= 128 and >= 256 at (n=128, p=2^128-159)",
    )


def test_criterion_7_size_formula_fidelity():
    mp.mp.dps = 60
    rows = [(257, 26, 10), (257, 33, 10), (257, 43, 10)]
    exact = True
    for p, n, rho in rows:
        lg = mp.log(p, 2)
        prof = formula_sizes(n, p, rho)
        exact = exact and prof.pk_bytes == int(mp.ceil(2 * n * n * lg / 8))
        exact = exact and prof.sk_bytes == int(
            mp.ceil(2 * n * mp.log(n, 2) / 8)
            + mp.ceil(3 * lg / 8)
            + mp.ceil(n * n * lg / 8)
            + mp.ceil(rho * n * lg / 8)
        )
        exact = exact and prof.sig_bits == 2 * n * n + 7 * n
        exact = exact and prof.hash_bits == n * int(mp.floor(lg))
    flags = discrepancies(formula_sizes(26, 257, 10))
    documented = (
        flags.get("pk_bytes") == {"formula": 1353, "reported": 1570}
        and flags.get("sig_bits") == {"formula": 1534, "reported": 1764}
    )
    clean = not discrepancies(formula_sizes(33, 257, 10)) and not discrepancies(
        formula_sizes(43, 257, 10)
    )
    side_by_side = "; ".join(
        f"n={n}: formula pk {formula_sizes(n, 257, 10).pk_bytes}B vs reported "
        f"{REPORTED_PROFILES[(257, n, 10)]['pk_bytes']}B"
        for n in (26, 33, 43)
    )
    _report(
        7,
        "size formulas integer-exact (reported table shown, not enforced)",
        exact and documented and clean,
        side_by_side,
    )


def test_criterion_8_operation_count_sanity():
    ratios = {}
    ok = True
    for n in (8, 26):
        counts = instrumented_counts(n, 257, 10, seed=b"acc8")
        closed = op_count_report(n, 257).verify_ops
        ratios[n] = counts["verify"]["total"] / closed
        ok = ok and counts["accepted"] and ratios[n] <= 3.0
    _report(
        8,
        "instrumented verify within 3x of 3n^2-n",
        ok,
        f"ratio {ratios[8]:.2f} at n=8, {ratios[26]:.2f} at n=26",
    )


def _corruption_catalogue(pk_blob, sk_blob, sig_blob, setup_blob, theta_blob, field):
    """(mutation, parser, expected error) triples covering every malformed class."""
    frame = wire_encode(PublicVectorMessage(field, (1, 2, 3)))
    yield pk_blob[:7], parse_public_key, MalformedEncoding  # truncated magic
    yield b"XXXXXXXX" + pk_blob[8:], parse_public_key, MalformedEncoding
    yield pk_blob[:8] + b"\x02" + pk_blob[9:], parse_public_key, UnsupportedVersion
    yield pk_blob[:-1], parse_public_key, MalformedEncoding
    yield pk_blob + b"\x00", parse_public_key, MalformedEncoding
    yield pk_blob[:-2] + b"\xff\xff", parse_public_key, MalformedEncoding  # entry >= p
    yield sk_blob[:8] + b"\x03" + sk_blob[9:], parse_secret_key, UnsupportedVersion
    yield sk_blob[: len(sk_blob) // 2], parse_secret_key, MalformedEncoding
    yield sk_blob[:-2] + b"\x00\x00", parse_secret_key, MalformedEncoding  # zero schedule entry
    yield sig_blob[:8] + b"\x09" + sig_blob[9:], lambda d: parse_signature(d, field), UnsupportedVersion
    yield sig_blob[:-1], lambda d: parse_signature(d, field), MalformedEncoding
    yield sig_blob[:-2] + b"\xff\xff", lambda d: parse_signature(d, field), MalformedEncoding
    yield b"\x7f" + frame[1:], lambda d: wire_decode(d, field), UnknownTag
    yield b"\x01\xff\xff\xff\xff" + frame[5:], lambda d: wire_decode(d, field), LengthOverflow
    yield frame[:4], lambda d: wire_decode(d, field), MalformedFrame
    yield frame + b"\x00", lambda d: wire_decode(d, field), MalformedFrame
    yield frame[:-2] + b"\xff\xff", lambda d: wire_decode(d, field), MalformedFrame
    yield b"XXXXXXXX" + theta_blob[8:], lambda d: decode_theta(field, d), MalformedEncoding
    yield theta_blob + b"\x00", lambda d: decode_theta(field, d), MalformedEncoding
    yield b"XXXXXXXX" + setup_blob[8:], decode_shared_setup, MalformedEncoding
    yield setup_blob[:-1], decode_shared_setup, MalformedEncoding


def test_criterion_9_serialization_roundtrips_and_rejection():
    rng = random.Random(9001)
    roundtrips = 0
    exact = True
    for trial in range(250):
        p = rng.choice((5, 257, 7919, 2**61 - 1))
        n = rng.randrange(2, 8)
        config = NetworkConfig(n=n, field=Field(p), rho=rng.randrange(1, 5), seed=b"acc9-%d" % trial)
        pk, sk = keygen(config, rng)
        theta = pk.field.sample_vector(rng, n)
        signature = sign(sk, theta, rng.randbytes(16), rng)
        for blob, parser, reencode in (
            (serialize_public_key(pk), parse_public_key, serialize_public_key),
            (serialize_secret_key(sk), parse_secret_key, serialize_secret_key),
            (
                serialize_signature(signature, pk.field),
                lambda d: parse_signature(d, pk.field),
                lambda s: serialize_signature(s, pk.field),
            ),
        ):
            exact = exact and reencode(parser(blob)) == blob
            roundtrips += 1
        msg = (
            DhMatrixMessage(sk.unrolled_maps().w_x)
            if trial % 2
            else PublicVectorMessage(pk.field, theta)
        )
        exact = exact and wire_encode(wire_decode(wire_encode(msg), pk.field)) == wire_encode(msg)
        roundtrips += 1

    field = Field(257)
    config = NetworkConfig(n=5, field=field, rho=3, seed=b"acc9-cat")
    pk, sk = keygen(config, random.Random(9002))
    theta = field.sample_vector(random.Random(9003), 5)
    signature = sign(sk, theta, b"catalogue", random.Random(9004))
    setup = encode_shared_setup(sk.weights, theta)
    catalogue_ok = True
    cases = 0
    for blob, parser, expected in _corruption_catalogue(
        serialize_public_key(pk),
        serialize_secret_key(sk),
        serialize_signature(signature, field),
        setup,
        encode_theta(field, theta),
        field,
    ):
        cases += 1
        try:
            parser(blob)
        except expected:
            continue
        except Exception:  # noqa: BLE001 -- wrong error class is a failure
            catalogue_ok = False
        else:
            catalogue_ok = False
    _report(
        9,
        "serialization bit-exact + malformed inputs rejected",
        exact and roundtrips == 1000 and catalogue_ok,
        f"{roundtrips} bit-exact roundtrips; {cases} corruption classes each "
        f"raising its designated error: {catalogue_ok}",
    )
