"""The algebraic shortcuts in sign, verify, mat_pow and sync against the
direct formulas they replace: same bytes, same verdicts, same thetas."""

from __future__ import annotations

import random
import socket
import sys
import threading

import pytest

from nnsig._packed import mat_vec, vec_add, vec_mat, vec_sub
from nnsig._public import Signature, hash_to_field, parse_public_key, serialize_public_key, verify
from nnsig.errors import DimensionMismatch
from nnsig.field import Field, count_ops
from nnsig.matrix import (
    SquaringTable,
    from_rows,
    identity,
    mat_inv,
    mat_mul,
    mat_pow,
    random_matrix,
)
from nnsig.network import NetworkConfig, build_network
from nnsig.scheme import keygen, sign
from nnsig.sync import SyncConfig, SyncSession, run_over_socket, run_pair

KEY_SETS = [(257, 5), (257, 26), (2**61 - 1, 6)]


def _keypair(p, n):
    config = NetworkConfig(n=n, field=Field(p), rho=4, seed=b"shortcuts")
    return keygen(config, random.Random(p + n))


def _oracle_sign(sk, theta, message, rng):
    """w_x^{-a} @ L_x^{-1} @ (x - Wbar_theta @ theta), every factor rebuilt."""
    field, n, l = sk.field, sk.n, sk.l
    h = hash_to_field(message, n, field)
    x0 = field.sample_vector(rng, n - l) + h[:l]
    x1 = field.sample_vector(rng, l) + h[l:]
    bias = mat_vec(sk.public_key().w_theta_bar, theta)
    s_mat = mat_pow(mat_inv(sk.unrolled_maps().w_x), sk.a)
    unmask = sk.l_x.inverse()
    return Signature(
        sigma0=mat_vec(s_mat, unmask.apply(vec_sub(field, x0, bias))),
        sigma1=mat_vec(s_mat, unmask.apply(vec_sub(field, x1, bias))),
    )


def _oracle_verify(pk, theta, message, signature, literal_form=False):
    """All n rows of both reconstructions, then the digest tails."""
    field, n, l = pk.field, pk.n, pk.l
    h = hash_to_field(message, n, field)
    bias = mat_vec(pk.w_theta_bar, theta)

    def reconstruct(sigma):
        if literal_form:
            return mat_vec(pk.w_x_bar, vec_sub(field, sigma, bias))
        return vec_add(field, mat_vec(pk.w_x_bar, sigma), bias)

    return (
        reconstruct(signature.sigma0)[n - l :] == h[:l]
        and reconstruct(signature.sigma1)[l:] == h[l:]
    )


# --- (a) one-inverse signer and the per-theta bias memo ------------------------


@pytest.mark.parametrize("p,n", KEY_SETS)
def test_sign_matches_direct_formula_through_the_bias_memo(p, n):
    pk, sk = _keypair(p, n)
    field = pk.field
    theta_a = field.sample_vector(random.Random(1), n)
    theta_b = field.sample_vector(random.Random(2), n)
    sk.signing_matrix()  # one-time set-up, kept out of the per-message tallies
    bias_muls = n * n
    muls = []
    for step, (theta, hit) in enumerate(
        ((theta_a, False), (theta_a, True), (theta_b, False), (theta_a, False))
    ):
        message = b"memo step %d" % step
        with count_ops() as c:
            got = sign(sk, theta, message, random.Random(step))
        assert got == _oracle_sign(sk, theta, message, random.Random(step))
        # The signer reads its bias through its own public key, and warms it.
        assert pk._bias[0] == tuple(theta)
        muls.append((c.muls, hit))
    miss = {m for m, hit in muls if not hit}
    hits = {m for m, hit in muls if hit}
    assert len(miss) == 1 and hits == {miss.pop() - bias_muls}


@pytest.mark.parametrize("p,n", KEY_SETS)
def test_sign_list_theta_equals_tuple_and_never_goes_stale(p, n):
    pk, sk = _keypair(p, n)
    field = pk.field
    theta = list(field.sample_vector(random.Random(3), n))
    as_list = sign(sk, theta, b"m", random.Random(4))
    assert as_list == sign(sk, tuple(theta), b"m", random.Random(4))
    theta[0] = (theta[0] + 1) % field.p
    moved = sign(sk, theta, b"m", random.Random(4))
    assert moved != as_list
    assert moved == _oracle_sign(sk, theta, b"m", random.Random(4))
    assert verify(pk, theta, b"m", moved)
    theta[0] = (theta[0] - 1) % field.p
    assert not verify(pk, theta, b"m", moved)
    assert verify(pk, theta, b"m", as_list)


def test_signing_matrix_is_the_inverse_public_matrix():
    pk, sk = _keypair(257, 26)
    assert sk.signing_matrix() == mat_inv(pk.w_x_bar)
    assert sk.signing_matrix() == mat_mul(
        mat_pow(mat_inv(sk.unrolled_maps().w_x), sk.a),
        sk.l_x.inverse().to_matrix(pk.field),
    )


# --- (b) tail-row verify -----------------------------------------------------------


@pytest.mark.parametrize("p,n", KEY_SETS)
def test_tail_row_verify_matches_full_reconstruction(p, n):
    pk, sk = _keypair(p, n)
    field = pk.field
    rng = random.Random(5)
    theta = field.sample_vector(rng, n)
    other_theta = field.sample_vector(rng, n)
    inv = mat_inv(pk.w_x_bar)
    bias = mat_vec(pk.w_theta_bar, theta)
    seen = set()
    for trial in range(12):
        message = b"verdict %d" % trial
        honest = sign(sk, theta, message, rng)
        # Accepted by the literal form only: sigma = Wbar_x^{-1} x + bias.
        h = hash_to_field(message, n, field)
        literal = Signature(
            sigma0=vec_add(field, mat_vec(inv, field.sample_vector(rng, n - pk.l) + h[: pk.l]), bias),
            sigma1=vec_add(field, mat_vec(inv, field.sample_vector(rng, pk.l) + h[pk.l :]), bias),
        )
        i = rng.randrange(n)

        def bump(v):
            return v[:i] + ((v[i] + 1) % field.p,) + v[i + 1 :]

        candidates = [
            honest,
            literal,
            Signature(bump(honest.sigma0), honest.sigma1),
            Signature(honest.sigma0, bump(honest.sigma1)),
            Signature(field.sample_vector(rng, n), field.sample_vector(rng, n)),
        ]
        for sig in candidates:
            for th in (theta, other_theta, theta):
                for literal_form in (False, True):
                    want = _oracle_verify(pk, th, message, sig, literal_form)
                    assert verify(pk, th, message, sig, literal_form=literal_form) == want
                    seen.add((literal_form, want))
    assert seen == {(False, True), (False, False), (True, True), (True, False)}


def test_verify_tally_is_four_n_squared_on_a_miss_and_two_on_a_hit():
    n = 26
    signer_pk, sk = _keypair(257, n)
    theta = signer_pk.field.sample_vector(random.Random(6), n)
    sig = sign(sk, theta, b"m", random.Random(7))
    # The literal form rejects an honest signature after the h0 half: n subs
    # and l rows of the tail product.  A memo miss adds the 2n^2 - n of the bias.
    literal_hit = n + signer_pk.l * (2 * n - 1)
    for literal_form, verdict, hit in ((False, True, 2 * n * n), (True, False, literal_hit)):
        pk = parse_public_key(serialize_public_key(signer_pk))  # the verifier's own copy
        totals = []
        for _ in range(2):
            with count_ops() as c:
                assert verify(pk, theta, b"m", sig, literal_form=literal_form) is verdict
            totals.append(c.total)
        assert totals == [hit + 2 * n * n - n, hit]


# --- (c) squaring table ------------------------------------------------------------


def test_table_powers_match_repeated_multiplication():
    field = Field(257)
    rng = random.Random(8)
    for n in (1, 3, 5):
        a = random_matrix(field, n, n, rng)
        v = field.sample_vector(rng, n)
        shared = SquaringTable(a)
        naive = identity(field, n)
        exponents = list(range(71))
        for e in exponents:
            assert mat_pow(a, e) == naive
            assert SquaringTable(a).mat_pow(e) == naive
            assert SquaringTable(a).vec_pow(v, e) == vec_mat(v, naive)
            naive = mat_mul(naive, a)
        rng.shuffle(exponents)
        for e in exponents:
            assert shared.mat_pow(e) == mat_pow(a, e)
            assert shared.vec_pow(v, e) == vec_mat(v, mat_pow(a, e))


def test_table_power_pays_no_identity_multiply():
    field = Field(257)
    n = 4
    a = random_matrix(field, n, n, random.Random(9))
    for e in (1, 2, 5, 64, 70):
        with count_ops() as c:
            mat_pow(a, e)
        products = e.bit_length() - 1 + bin(e).count("1") - 1
        assert c.muls == products * n**3
    table = SquaringTable(a)
    want = table.mat_pow(64)
    with count_ops() as c:
        assert table.mat_pow(64) == want
    assert c.muls == 0  # the squares are already in the table


def test_table_rejects_bad_shapes_and_exponents():
    field = Field(7)
    square = from_rows(field, [[1, 2], [3, 4]])
    wide = from_rows(field, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        mat_pow(square, -1)
    with pytest.raises(ValueError):
        SquaringTable(square).vec_pow((1, 2), -1)
    with pytest.raises(DimensionMismatch):
        mat_pow(wide, 2)
    with pytest.raises(DimensionMismatch):
        SquaringTable(wide)
    with pytest.raises(DimensionMismatch):
        SquaringTable(square).vec_pow((1, 2, 3), 0)
    assert SquaringTable(square).vec_pow((8, 9), 0) == (1, 2)


# --- (d) one table of W shared across sessions and threads -------------------------


def _sync_config(n=10):
    field = Field(257)
    weights, _ = build_network(NetworkConfig(n=n, field=field, rho=3, seed=b"shared table"))
    return SyncConfig(weights=weights, q=field.sample_vector(random.Random(10), n))


def test_threads_sharing_a_fresh_config_get_the_serial_thetas():
    pairs = [(11, 12), (13, 14)]
    serial_config = _sync_config()
    serial = [
        run_pair(
            SyncSession.create(serial_config, random.Random(sa)),
            SyncSession.create(serial_config, random.Random(sb)),
        )
        for sa, sb in pairs
    ]
    config = _sync_config()  # fresh: its table of W holds no squares yet
    results = {}
    sockets = []
    threads = []
    for k, seeds in enumerate(pairs):
        ends = socket.socketpair()
        sockets.extend(ends)
        for side, (seed, sock) in enumerate(zip(seeds, ends)):
            session = SyncSession.create(config, random.Random(seed))

            def run(key=(k, side), session=session, sock=sock):
                results[key] = run_over_socket(session, sock)

            threads.append(threading.Thread(target=run))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for sock in sockets:
            sock.close()
    assert not any(t.is_alive() for t in threads)
    assert [(results[(k, 0)], results[(k, 1)]) for k in range(len(pairs))] == serial
    table = config.base_powers
    squares = [table.mat_pow(1 << k) for k in range(len(table._squares))]
    assert len(table._squares) == len(squares)
    assert squares[0] == config.weights.w
    assert all(mat_mul(s, s) == t for s, t in zip(squares, squares[1:]))
