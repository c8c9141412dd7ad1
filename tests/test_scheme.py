"""Keygen, sign, verify, and the wire formats."""

from __future__ import annotations

import hashlib
import itertools
import random
import secrets
import struct
import types

import pytest

from nnsig import cli
from nnsig._packed import MatrixZp, PackedMatVec, mat_vec, vec_add, vec_sub
from nnsig._public import (
    PublicKey,
    Signature,
    hash_to_field,
    parse_public_key,
    parse_signature,
    serialize_public_key,
    serialize_signature,
    verify,
)
from nnsig.errors import (
    DimensionMismatch,
    MalformedEncoding,
    ParameterError,
    SingularWeightsError,
    UnsupportedVersion,
)
from nnsig.field import Field, count_ops, is_prime
from nnsig.matrix import PermutationMatrix, det, mat_pow
from nnsig.network import NetworkConfig, SynapticWeights, build_network
from nnsig.scheme import (
    derive_keypair,
    keygen,
    parse_secret_key,
    serialize_secret_key,
    sign,
    sign_with,
)
from nnsig.sync import PublicVectorMessage, SyncConfig, SyncSession, run_pair, wire_decode


def _keypair(p=257, n=8, rho=4, seed=b"k", rng_seed=7, l=None):
    config = NetworkConfig(n=n, field=Field(p), rho=rho, seed=seed)
    return keygen(config, random.Random(rng_seed), split_index=l)


def _theta(field, n, seed=99):
    return field.sample_vector(random.Random(seed), n)


# --- message digest -----------------------------------------------------------


def _digest_oracle(message: bytes, n: int, field: Field):
    """Re-derive the digest from a raw SHAKE-128 bit string, MSB first."""
    shake = hashlib.shake_128(
        b"nnsig-v1" + struct.pack("<Q", field.p) + struct.pack("<I", n) + message
    )
    bits = "".join(f"{byte:08b}" for byte in shake.digest(1 << 14))
    width = field.bits_per_element
    out = []
    pos = 0
    while len(out) < n:
        chunk = int(bits[pos : pos + width], 2)
        pos += width
        if chunk < field.p:
            out.append(chunk)
    return tuple(out)


# The smallest prime of each element width from 2 to 61 bits: about half of
# its chunks are rejected, so the scan skips as often as it can.
WIDTH_PRIMES = [next(q for q in itertools.count((1 << bits - 1) + 1) if is_prime(q))
                for bits in range(2, 62)]


def test_hash_matches_bitstring_oracle():
    for p in (5, 7919, 2**61 - 1, *WIDTH_PRIMES):
        field = Field(p)
        for msg in (b"", b"a", b"hello world", bytes(range(200))):
            assert hash_to_field(msg, 12, field) == _digest_oracle(msg, 12, field)
    assert [Field(p).bits_per_element for p in WIDTH_PRIMES] == list(range(2, 62))


@pytest.mark.parametrize("n", [2, 26, 43, 128])
@pytest.mark.parametrize("p", [257, 7919, 65537, 2**61 - 1])
def test_hash_matches_one_long_squeeze(p, n):
    # The oracle reads one 16 KiB digest, far more than any first squeeze.
    field = Field(p)
    for i in range(8):
        msg = b"squeeze %d" % i
        assert hash_to_field(msg, n, field) == _digest_oracle(msg, n, field)


@pytest.fixture
def squeezes(monkeypatch):
    """The number of digests each ``hash_to_field`` call takes, in call order."""
    counts = []

    class CountingShake:
        def __init__(self, data):
            self._xof = hashlib.shake_128(data)
            counts.append(0)

        def digest(self, length):
            counts[-1] += 1
            return self._xof.digest(length)

    monkeypatch.setattr("nnsig._public.hashlib", types.SimpleNamespace(shake_128=CountingShake))
    return counts


def test_first_squeeze_rarely_falls_short(f257, squeezes):
    for i in range(3000):
        hash_to_field(b"message %d" % i, 43, f257)
    assert sum(count > 1 for count in squeezes) < 30  # under 1% squeeze twice


def test_short_first_squeeze_matches_the_oracle(f257, squeezes):
    """b"message 112" is the first of b"message %d", i = 0, 1, ..., whose first
    squeeze at p = 257, n = 43 accepts only 42 chunks: the second squeeze
    re-reads the first's chunks and takes the 43rd after them."""
    message = b"message 112"
    assert hash_to_field(message, 43, f257) == _digest_oracle(message, 43, f257)
    assert squeezes == [2]


def test_hash_deterministic_and_message_sensitive(f257):
    a = hash_to_field(b"msg", 26, f257)
    assert a == hash_to_field(b"msg", 26, f257)
    assert a != hash_to_field(b"msg2", 26, f257)
    assert len(a) == 26


def test_hash_domain_separation(f257):
    # Same message, different modulus or length: unrelated streams.
    assert hash_to_field(b"m", 8, f257) != hash_to_field(b"m", 8, Field(263))[:8]
    assert hash_to_field(b"m", 8, f257) != hash_to_field(b"m", 16, f257)[:8]


def test_hash_rejection_keeps_range_and_balance(f257):
    out = hash_to_field(b"bulk", 100_000, f257)
    assert len(out) == 100_000
    assert all(0 <= x <= 256 for x in out)
    high = sum(1 for x in out if x >= 128)
    assert 45_000 < high < 55_000


def test_hash_wide_modulus():
    field = Field(2**61 - 1)
    out = hash_to_field(b"wide", 64, field)
    assert all(0 <= x < field.p for x in out)
    assert max(out) > 2**52  # top bits are actually populated


def test_hash_length_validation(f257):
    with pytest.raises(ParameterError):
        hash_to_field(b"x", 0, f257)


# --- keygen -------------------------------------------------------------------


def test_keygen_mask_structure():
    pk, sk = _keypair()
    maps = sk.unrolled_maps()
    assert pk.w_x_bar == sk.l_x.permute_rows(mat_pow(maps.w_x, sk.a))
    assert pk.w_theta_bar == sk.l_theta.permute_rows(mat_pow(maps.w_theta, sk.b))
    assert pk.l == sk.n // 2
    assert 2 <= sk.a <= 255 and 2 <= sk.b <= 255


def test_identity_permutations_expose_bare_powers(f257):
    config = NetworkConfig(n=6, field=f257, rho=4, seed=b"bare")
    weights, schedule = build_network(config)
    ident = PermutationMatrix(tuple(range(6)))
    pk, sk = derive_keypair(config, weights, schedule, 3, 5, ident, ident)
    from nnsig.network import unroll

    maps = unroll(weights, schedule)
    assert pk.w_x_bar == mat_pow(maps.w_x, 3)
    assert pk.w_theta_bar == mat_pow(maps.w_theta, 5)


def test_keygen_seed_sensitivity():
    seen = set()
    for i in range(100):
        pk, _ = _keypair(seed=b"s%d" % i, rng_seed=1)
        seen.add(pk.w_x_bar.rows)
    assert len(seen) == 100


def test_keygen_rng_sensitivity():
    seen = set()
    for i in range(50):
        pk, _ = _keypair(seed=b"fixed", rng_seed=i)
        seen.add((pk.w_x_bar.rows, pk.w_theta_bar.rows))
    assert len(seen) == 50


def test_keygen_rejects_tiny_modulus():
    config = NetworkConfig(n=4, field=Field(3), rho=2, seed=b"t")
    with pytest.raises(ParameterError):
        keygen(config, random.Random(0))


def test_derive_keypair_validation(f257):
    config = NetworkConfig(n=4, field=f257, rho=2, seed=b"v")
    weights, schedule = build_network(config)
    ident = PermutationMatrix(tuple(range(4)))
    with pytest.raises(ParameterError):
        derive_keypair(config, weights, schedule, 1, 5, ident, ident)
    with pytest.raises(ParameterError):
        derive_keypair(config, weights, schedule, 3, 256, ident, ident)
    with pytest.raises(ParameterError):
        derive_keypair(config, weights, schedule, 3, 5, ident, ident, split_index=4)
    with pytest.raises(DimensionMismatch):
        derive_keypair(config, weights, schedule, 3, 5, PermutationMatrix((0, 1, 2)), ident)


def test_derive_keypair_refuses_weights_the_secret_key_file_cannot_hold(f257):
    """Every weight is stored as one bit (1 or p-1); any other entry, shape or
    field would be written as a different key."""
    config = NetworkConfig(n=4, field=f257, rho=2, seed=b"w")
    weights, schedule = build_network(config)
    ident = PermutationMatrix(tuple(range(4)))
    rows = [list(row) for row in weights.w.rows]
    rows[0][0] = 2
    three = [row[:3] for row in weights.w.rows[:3]]
    for bad in (
        MatrixZp(f257, tuple(map(tuple, rows))),
        MatrixZp(f257, tuple(map(tuple, three))),
        MatrixZp(Field(263), tuple(tuple(262 if x == 256 else x for x in row)
                                   for row in weights.w.rows)),
    ):
        with pytest.raises(ParameterError):
            derive_keypair(config, SynapticWeights(bad), schedule, 3, 5, ident, ident)
    with pytest.raises(DimensionMismatch):
        derive_keypair(config, SynapticWeights(MatrixZp(f257, weights.w.rows[:3])), schedule,
                       3, 5, ident, ident)
    _, sk = derive_keypair(config, weights, schedule, 3, 5, ident, ident)
    assert parse_secret_key(serialize_secret_key(sk)) == sk


def test_derive_keypair_refuses_schedules_and_weights_no_key_holds(f257):
    """Schedule entries outside [1, p-1], a step of the wrong length and
    singular +-1 weights are refused before any map is built."""
    from nnsig.matrix import from_rows
    from nnsig.network import AttentionSchedule

    config = NetworkConfig(n=4, field=f257, rho=2, seed=b"s")
    weights, schedule = build_network(config)
    ident = PermutationMatrix(tuple(range(4)))
    first, second = schedule.vectors
    for bad in ((0,) + first[1:], (257,) + first[1:], first[:3]):
        with pytest.raises(ParameterError):
            derive_keypair(config, weights, AttentionSchedule((bad, second)), 3, 5, ident, ident)
    with pytest.raises(SingularWeightsError):
        SynapticWeights(from_rows(f257, [[1, 256, 1, 1]] * 2 + [[1, 1, 256, 1]] * 2))


def test_keygen_proves_the_weights_invertible_once(monkeypatch):
    """The weights type runs the one det of a keygen whose first weight draw
    is nonsingular; the secret key does not run it again."""
    calls = []

    def counted(a):
        calls.append(a)
        return det(a)

    monkeypatch.setattr("nnsig.network.det", counted)
    _, sk = keygen(NetworkConfig(n=8, field=Field(257), rho=3, seed=b"once"), random.Random(2))
    assert calls == [sk.weights.w]


def test_parse_secret_key_refuses_singular_weights():
    _, sk = _keypair(n=6)
    blob = bytearray(serialize_secret_key(sk))
    weights = len(b"NNSIGSK1") + 1 + 48 + 8 * 6  # after magic, version, header, permutations
    blob[weights : weights + 5] = bytes(5)  # every weight 1: rank 1
    with pytest.raises(MalformedEncoding, match="singular"):
        parse_secret_key(bytes(blob))


# --- sign / verify ------------------------------------------------------------


def test_sign_verify_grid():
    grid = [
        (257, 8, 4),
        (257, 8, 10),
        (257, 26, 4),
        (257, 26, 10),
        (7919, 8, 4),
        (7919, 8, 10),
        (7919, 26, 4),
        (7919, 26, 10),
        (7919, 43, 10),
    ]
    for p, n, rho in grid:
        pk, sk = _keypair(p=p, n=n, rho=rho, seed=b"grid", rng_seed=p + n)
        theta = _theta(pk.field, n)
        sig = sign(sk, theta, b"grid message", random.Random(5))
        assert verify(pk, theta, b"grid message", sig)
        assert not verify(pk, theta, b"grid messagf", sig)


def test_signature_reconstructs_padded_digest():
    # Replaying the signing rng exposes x0 = r0 || h0 and x1 = r1 || h1;
    # pushing sigma back through the public matrix must recover them exactly.
    pk, sk = _keypair(n=10)
    field, n, l = pk.field, pk.n, pk.l
    theta = _theta(field, n)
    msg = b"replay"
    sig = sign(sk, theta, msg, random.Random(42))
    replay = random.Random(42)
    r0 = field.sample_vector(replay, n - l)
    r1 = field.sample_vector(replay, l)
    h = hash_to_field(msg, n, field)
    bias = mat_vec(pk.w_theta_bar, theta)
    got0 = vec_add(field, mat_vec(pk.w_x_bar, sig.sigma0), bias)
    got1 = vec_add(field, mat_vec(pk.w_x_bar, sig.sigma1), bias)
    assert got0 == r0 + h[:l]
    assert got1 == r1 + h[l:]


def test_signatures_randomized_but_all_valid():
    pk, sk = _keypair()
    theta = _theta(pk.field, pk.n)
    s1 = sign(sk, theta, b"m", random.Random(1))
    s2 = sign(sk, theta, b"m", random.Random(2))
    assert s1 != s2
    assert verify(pk, theta, b"m", s1)
    assert verify(pk, theta, b"m", s2)


def test_unseeded_calls_draw_from_the_system_csprng(monkeypatch):
    made = []

    class Recording(secrets.SystemRandom):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(secrets, "SystemRandom", Recording)
    config = NetworkConfig(n=6, field=Field(257), rho=3, seed=b"csprng")
    pk, sk = keygen(config)
    assert len(made) == 1
    theta = _theta(pk.field, pk.n)
    s1, s2 = sign(sk, theta, b"m"), sign(sk, theta, b"m")
    assert len(made) == 3
    assert s1 != s2
    assert verify(pk, theta, b"m", s1) and verify(pk, theta, b"m", s2)
    SyncSession.create(SyncConfig(weights=sk.weights, q=theta))
    assert len(made) == 4
    assert isinstance(cli._rng_for(None, b"sign"), Recording)
    assert not isinstance(cli._rng_for(b"seed", b"sign"), Recording)


def test_tamper_scan_every_coordinate():
    pk, sk = _keypair(n=8)
    field = pk.field
    theta = _theta(field, 8)
    sig = sign(sk, theta, b"tamper", random.Random(3))
    for half in (0, 1):
        vec = sig.sigma0 if half == 0 else sig.sigma1
        for i in range(8):
            bumped = vec[:i] + (field.add(vec[i], 1),) + vec[i + 1 :]
            cand = Signature(bumped, sig.sigma1) if half == 0 else Signature(sig.sigma0, bumped)
            assert not verify(pk, theta, b"tamper", cand)


def test_cross_key_and_wrong_theta_reject():
    pk, sk = _keypair(seed=b"one", rng_seed=1)
    pk2, _ = _keypair(seed=b"two", rng_seed=2)
    theta = _theta(pk.field, pk.n)
    sig = sign(sk, theta, b"m", random.Random(4))
    assert verify(pk, theta, b"m", sig)
    assert not verify(pk2, theta, b"m", sig)
    other = _theta(pk.field, pk.n, seed=123)
    assert not verify(pk, other, b"m", sig)


def test_literal_reconstruction_rejects_honest_signature():
    # The subtract-then-multiply orientation is kept only as a diagnostic;
    # it disagrees with the signing map whenever the bias is nonzero.
    pk, sk = _keypair()
    theta = _theta(pk.field, pk.n)
    bias = mat_vec(pk.w_theta_bar, theta)
    assert any(x != 0 for x in bias)
    sig = sign(sk, theta, b"m", random.Random(5))
    assert verify(pk, theta, b"m", sig)
    assert not verify(pk, theta, b"m", sig, literal_form=True)


def test_linear_solve_passes_tail_check():
    # The acceptance predicate is linear in sigma once the public matrices are
    # known, so the signing kernel, which reads only the public key, signs
    # without the secret key.  This pins the case where the forger knows
    # theta; the next tests show that one honest signature stands in for it.
    pk, _ = _keypair(n=6)
    theta = _theta(pk.field, pk.n)
    bias = mat_vec(pk.w_theta_bar, theta)
    assert verify(pk, theta, b"probe", sign_with(pk, bias, b"probe", random.Random(6)))


# (p, n, l): both moduli of the benchmark sets, and splits with l < n-l, the
# default l = n//2, and l > n-l.
KERNEL_CASES = [(p, n, l) for p, n in ((257, 26), (257, 43), (2**61 - 1, 26))
                for l in (1, n // 2, n - 1)]


@pytest.mark.parametrize("p, n, l", KERNEL_CASES)
def test_sign_is_the_kernel_under_the_theta_bias(p, n, l):
    pk, sk = _keypair(p=p, n=n, rho=10, seed=b"kernel", rng_seed=n + l, l=l)
    public = parse_public_key(serialize_public_key(pk))  # shares no memo with sk
    theta = _theta(pk.field, n)
    for k in range(3):
        message = b"kernel message %d" % k
        assert (sign_with(public, public.theta_bias(theta), message, random.Random(k))
                == sign(sk, theta, message, random.Random(k)))


@pytest.mark.parametrize("p, n, l", KERNEL_CASES)
def test_forgery_from_one_signature_without_theta(p, n, l):
    # verify compares only tail rows, (W̄_x·σ0)[n−l:] + bias[n−l:] against h0
    # and (W̄_x·σ1)[l:] + bias[l:] against h1, so one honest signature gives
    # away exactly the bias entries verify reads.  The forger below holds the
    # public key and one (message, signature) pair, never theta or the whole
    # bias: the head of its bias is zero, which only shifts the random head
    # of x, and the signing kernel does the rest.
    pk, sk = _keypair(p=p, n=n, rho=10, seed=b"forge", rng_seed=n + l, l=l)
    theta = _theta(pk.field, n, seed=12)
    honest = sign(sk, theta, b"an honest message", random.Random(13))
    assert verify(pk, theta, b"an honest message", honest)

    public = parse_public_key(serialize_public_key(pk))
    field = public.field
    h = hash_to_field(b"an honest message", n, field)
    bias = [0] * n
    bias[l:] = vec_sub(field, h[l:], mat_vec(public.w_x_bar, honest.sigma1)[l:])
    bias[n - l:] = vec_sub(field, h[:l], mat_vec(public.w_x_bar, honest.sigma0)[n - l:])
    rng = random.Random(14)
    for k in range(20):
        message = b"forged message %d" % k
        assert verify(pk, theta, message, sign_with(public, bias, message, rng))


def test_passive_eavesdropper_recovers_theta_and_signs():
    # theta = P_a + P_b, and both public vectors cross the wire in clear: an
    # eavesdropper on one sync reads theta off the transcript, and with the
    # public key alone signs anything through the signing kernel.
    pk, sk = _keypair(p=257, n=26, rho=10, seed=b"eavesdrop", rng_seed=21)
    field, n = pk.field, pk.n
    config = SyncConfig(weights=sk.weights, q=_theta(field, n, seed=22))
    a = SyncSession.create(config, random.Random(23))
    b = SyncSession.create(config, random.Random(24))
    theta_a, theta_b = run_pair(a, b)
    shares = [wire_decode(frame, field) for _, frame in a.transcript[2:]]
    assert all(isinstance(share, PublicVectorMessage) for share in shares)
    theta = vec_add(field, shares[0].vector, shares[1].vector)
    assert theta == theta_a == theta_b

    message = b"never signed by the key owner"
    forged = sign_with(pk, pk.theta_bias(theta), message, random.Random(25))
    assert verify(pk, theta, message, forged)


def test_random_signatures_never_accept():
    pk, _ = _keypair(n=8)
    field = pk.field
    theta = _theta(field, 8)
    rng = random.Random(7)
    hits = 0
    for _ in range(100_000):
        cand = Signature(
            sigma0=field.sample_vector(rng, 8),
            sigma1=field.sample_vector(rng, 8),
        )
        if verify(pk, theta, b"m", cand):
            hits += 1
    assert hits == 0


def test_split_index_edges():
    for l in (1, 4, 7):
        pk, sk = _keypair(n=8, l=l)
        assert pk.l == l
        theta = _theta(pk.field, 8)
        sig = sign(sk, theta, b"edge", random.Random(8))
        assert verify(pk, theta, b"edge", sig)
    # A public key refuses a split that leaves a half with no rows to compare,
    # and matrices of any other size than n x n.
    pk, _ = _keypair(n=6)
    w_x, w_theta = pk.w_x_bar, pk.w_theta_bar
    for l in (0, 6):
        with pytest.raises(ParameterError, match="1 <= l < n"):
            PublicKey(pk.field, 6, l, w_x, w_theta)
    five = MatrixZp(pk.field, tuple(row[:5] for row in w_theta.rows[:5]))
    with pytest.raises(DimensionMismatch, match="6x6"):
        PublicKey(pk.field, 6, 3, w_x, five)


def _verify_oracle(pk, theta, message, sig):
    """verify through ``mat_vec`` over row slices of the public map."""
    n, l, field = pk.n, pk.l, pk.field
    h = hash_to_field(message, n, field)
    bias = mat_vec(pk.w_theta_bar, theta)

    def tail(sigma, first):
        rows = MatrixZp(field, pk.w_x_bar.rows[first:])
        return vec_add(field, mat_vec(rows, sigma), bias[first:])

    return tail(sig.sigma0, n - l) == h[:l] and tail(sig.sigma1, l) == h[l:]


def _shift(v, by):
    return tuple(x + by for x in v)


@pytest.mark.parametrize("p,l", [
    *(pytest.param(257, l, id=str(l)) for l in (1, 6, 12)),
    pytest.param(2**61 - 1, 6, id="p=2^61-1"),
])
def test_verify_matches_the_mat_vec_reconstruction(p, l):
    """Same verdicts and same field-op tallies at an odd n, where the packed
    tail rows are one row more than one half reads; for signatures shifted by
    p and by -p, whose entries lie outside [0, p) and must be reduced before
    they meet the packed bias; and at p = 2^61 - 1, whose 16-byte slots take
    the per-entry codec path."""
    signer_pk, sk = _keypair(p=p, n=13, l=l)
    pk = parse_public_key(serialize_public_key(signer_pk))  # warmed by verify alone
    field = pk.field
    thetas = [_theta(field, 13, seed) for seed in (1, 2, 3)]
    rng = random.Random(l)
    seen = set()
    for k in range(16):
        message = b"oracle %d" % k
        sig = sign(sk, thetas[k % 3], message, rng)
        if k % 4 == 3:
            sig = Signature(field.sample_vector(rng, 13), sig.sigma1)
        checked = message if k % 8 < 4 else message + b"!"
        candidates = (sig, Signature(_shift(sig.sigma0, p), _shift(sig.sigma1, -p)),
                      Signature(_shift(sig.sigma0, -p), _shift(sig.sigma1, p)))
        for j, candidate in enumerate(candidates):
            theta = thetas[j]  # a new theta every call, so each call pays its bias
            with count_ops() as got:
                verdict = verify(pk, theta, checked, candidate)
            with count_ops() as want:
                assert verdict == _verify_oracle(pk, theta, checked, candidate)
            assert got == want
            seen.add((j, verdict))
    assert seen == {(j, verdict) for j in range(3) for verdict in (True, False)}


def test_rotating_thetas_packs_each_key_once(monkeypatch):
    """Four thetas in turn over many signatures: the key pair packs the tail
    rows of Wbar_x and Wbar_theta once, when its public key is built, and
    signer and verifier share them."""
    packed = []

    class Counted(PackedMatVec):
        def __init__(self, a):
            packed.append(a)
            super().__init__(a)

    monkeypatch.setattr("nnsig._public.PackedMatVec", Counted)
    pk, sk = _keypair(n=9)
    thetas = [_theta(pk.field, 9, seed) for seed in range(4)]
    rng = random.Random(4)
    for k in range(48):
        theta = thetas[k // 3 % 4]
        sig = sign(sk, theta, b"rotate %d" % k, rng)
        assert verify(pk, theta, b"rotate %d" % k, sig)
    first = min(pk.l, pk.n - pk.l)
    assert packed == [MatrixZp(pk.field, pk.w_x_bar.rows[first:]), pk.w_theta_bar]


def test_shape_errors():
    pk, sk = _keypair(n=6)
    theta = _theta(pk.field, 6)
    sig = sign(sk, theta, b"m", random.Random(9))
    with pytest.raises(DimensionMismatch):
        sign(sk, theta[:5], b"m", random.Random(9))
    with pytest.raises(DimensionMismatch):
        verify(pk, theta[:5], b"m", sig)
    with pytest.raises(DimensionMismatch):
        verify(pk, theta, b"m", Signature(sig.sigma0[:5], sig.sigma1))
    with pytest.raises(DimensionMismatch, match="different lengths"):
        serialize_signature(Signature(sig.sigma0[:5], sig.sigma1), pk.field)


# --- serialization ------------------------------------------------------------


def test_public_key_roundtrip():
    pk, _ = _keypair(p=7919, n=9, rho=5)
    blob = serialize_public_key(pk)
    back = parse_public_key(blob)
    assert back == pk
    assert blob[:8] == b"NNSIGPK1"


def test_secret_key_roundtrip_preserves_behaviour():
    pk, sk = _keypair(n=9)
    blob = serialize_secret_key(sk)
    back = parse_secret_key(blob)
    assert back.public_key() == pk
    theta = _theta(pk.field, 9)
    assert sign(back, theta, b"m", random.Random(10)) == sign(
        sk, theta, b"m", random.Random(10)
    )


def test_signature_roundtrip():
    pk, sk = _keypair()
    theta = _theta(pk.field, pk.n)
    sig = sign(sk, theta, b"m", random.Random(11))
    blob = serialize_signature(sig, pk.field)
    assert parse_signature(blob, pk.field) == sig


def test_roundtrips_bit_exact_many():
    rng = random.Random(12)
    for i in range(25):
        pk, sk = _keypair(n=rng.randrange(4, 10), seed=b"rt%d" % i, rng_seed=i)
        pb = serialize_public_key(pk)
        sb = serialize_secret_key(sk)
        assert serialize_public_key(parse_public_key(pb)) == pb
        assert serialize_secret_key(parse_secret_key(sb)) == sb
        theta = _theta(pk.field, pk.n, seed=i)
        sig = sign(sk, theta, b"x", random.Random(i))
        gb = serialize_signature(sig, pk.field)
        assert serialize_signature(parse_signature(gb, pk.field), pk.field) == gb


def test_parse_rejects_bad_magic():
    pk, _ = _keypair()
    blob = bytearray(serialize_public_key(pk))
    blob[0] ^= 0xFF
    with pytest.raises(MalformedEncoding):
        parse_public_key(bytes(blob))


def test_parse_rejects_unknown_version():
    pk, sk = _keypair()
    for blob, parser in (
        (serialize_public_key(pk), parse_public_key),
        (serialize_secret_key(sk), parse_secret_key),
    ):
        raised = bytearray(blob)
        raised[8] = 2
        with pytest.raises(UnsupportedVersion):
            parser(bytes(raised))
    sig = sign(sk, _theta(pk.field, pk.n), b"m", random.Random(13))
    raised = bytearray(serialize_signature(sig, pk.field))
    raised[8] = 9
    with pytest.raises(UnsupportedVersion):
        parse_signature(bytes(raised), pk.field)


def test_parse_rejects_truncation_everywhere():
    pk, sk = _keypair(n=5)
    sig = sign(sk, _theta(pk.field, 5), b"m", random.Random(14))
    for blob, parser in (
        (serialize_public_key(pk), parse_public_key),
        (serialize_secret_key(sk), parse_secret_key),
        (serialize_signature(sig, pk.field), lambda d: parse_signature(d, pk.field)),
    ):
        for cut in (0, 5, 9, 15, len(blob) // 2, len(blob) - 1):
            with pytest.raises(MalformedEncoding):
                parser(blob[:cut])
        with pytest.raises(MalformedEncoding):
            parser(blob + b"\x00")


def test_parse_rejects_out_of_range_entries():
    pk, sk = _keypair()  # p = 257, elements are 2 bytes little-endian
    blob = bytearray(serialize_public_key(pk))
    struct.pack_into("<H", blob, len(blob) - 2, 300)
    with pytest.raises(MalformedEncoding):
        parse_public_key(bytes(blob))
    sig = sign(sk, _theta(pk.field, pk.n), b"m", random.Random(15))
    sblob = bytearray(serialize_signature(sig, pk.field))
    struct.pack_into("<H", sblob, len(sblob) - 2, 257)
    with pytest.raises(MalformedEncoding):
        parse_signature(bytes(sblob), pk.field)
    for n in (0, 1):  # a signature needs n >= 2, as a key does
        short = sblob[:9] + struct.pack("<I", n) + bytes(2 * 2 * n)
        with pytest.raises(MalformedEncoding, match=f"length n={n}"):
            parse_signature(short, pk.field)


def test_parse_rejects_composite_modulus():
    pk, _ = _keypair()
    blob = bytearray(serialize_public_key(pk))
    struct.pack_into("<Q", blob, 9, 256)  # 256 is not prime
    with pytest.raises(MalformedEncoding):
        parse_public_key(bytes(blob))


def test_parse_rejects_broken_permutation():
    _, sk = _keypair(n=5)
    blob = bytearray(serialize_secret_key(sk))
    off = 9 + 48  # first permutation starts after magic|version|six u64 fields
    struct.pack_into("<5I", blob, off, 0, 0, 1, 2, 3)
    with pytest.raises(MalformedEncoding):
        parse_secret_key(bytes(blob))


def test_parse_rejects_bad_exponent_and_schedule():
    _, sk = _keypair(n=5)
    blob = bytearray(serialize_secret_key(sk))
    struct.pack_into("<Q", blob, 9 + 32, 1)  # exponent a = 1 is outside [2, p-2]
    with pytest.raises(MalformedEncoding):
        parse_secret_key(bytes(blob))
    blob2 = bytearray(serialize_secret_key(sk))
    struct.pack_into("<H", blob2, len(blob2) - 2, 0)  # schedule entries must be nonzero
    with pytest.raises(MalformedEncoding):
        parse_secret_key(bytes(blob2))
    # n = 0 leaves nothing to read after the header; rho = 2^63 empty schedule
    # rows must not be built.
    empty = blob[:9] + struct.pack("<6Q", 257, 0, 0, 2**63, 2, 2)
    with pytest.raises(MalformedEncoding, match="n=0"):
        parse_secret_key(empty)
