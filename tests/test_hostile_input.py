"""Hostile input: fuzzed file and wire blobs, degenerate DH shares, bad versions.

Every parser may reject a blob only with an ``NnsigError`` subclass, and every
valid blob must survive a parse and re-encode unchanged.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nnsig.errors import MalformedFrame, NnsigError, UnsupportedVersion
from nnsig.field import Field
from nnsig.matrix import MatrixZp, from_rows, identity
from nnsig.network import NetworkConfig
from nnsig.scheme import (
    keygen,
    parse_public_key,
    parse_secret_key,
    parse_signature,
    serialize_public_key,
    serialize_secret_key,
    serialize_signature,
    sign,
)
from nnsig.sync import (
    DhMatrixMessage,
    SessionState,
    SyncConfig,
    SyncSession,
    decode_shared_setup,
    decode_theta,
    encode_shared_setup,
    encode_theta,
    run_pair,
    wire_decode,
    wire_encode,
)

FIELD = Field(257)
N = 5


def _valid_blobs() -> dict:
    """One valid blob per format, with its parser and encoder."""
    pk, sk = keygen(NetworkConfig(n=N, field=FIELD, rho=3, seed=b"fuzz"), random.Random(1))
    theta = FIELD.sample_vector(random.Random(2), N)
    signature = sign(sk, theta, b"fuzzed message", random.Random(3))
    config = SyncConfig(weights=sk.weights, q=FIELD.sample_vector(random.Random(4), N))
    a = SyncSession.create(config, random.Random(5))
    b = SyncSession.create(config, random.Random(6))
    run_pair(a, b)
    dh_frame, vector_frame = (blob for direction, blob in a.transcript if direction == "send")
    return {
        "public-key": (serialize_public_key(pk), parse_public_key, serialize_public_key),
        "secret-key": (serialize_secret_key(sk), parse_secret_key, serialize_secret_key),
        "signature": (
            serialize_signature(signature, FIELD),
            lambda data: parse_signature(data, FIELD),
            lambda sig: serialize_signature(sig, FIELD),
        ),
        "theta": (
            encode_theta(FIELD, theta),
            lambda data: decode_theta(FIELD, data),
            lambda vec: encode_theta(FIELD, vec),
        ),
        "shared-setup": (
            encode_shared_setup(config.weights, config.q),
            decode_shared_setup,
            lambda parsed: encode_shared_setup(*parsed),
        ),
        "dh-frame": (dh_frame, lambda data: wire_decode(data, FIELD), wire_encode),
        "vector-frame": (vector_frame, lambda data: wire_decode(data, FIELD), wire_encode),
    }


BLOBS = _valid_blobs()


@st.composite
def _mutations(draw, blob: bytes) -> bytes:
    how = draw(st.sampled_from(("flip", "truncate", "extend")))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if how == "extend":
        return blob + draw(st.binary(min_size=1, max_size=16))
    out = bytearray(blob)
    flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
    for pos, mask in draw(st.lists(flips, min_size=1, max_size=4)):
        out[pos] ^= mask
    return bytes(out)


@pytest.mark.parametrize("kind", sorted(BLOBS))
def test_valid_blobs_roundtrip(kind):
    blob, parse, encode = BLOBS[kind]
    assert encode(parse(blob)) == blob


@pytest.mark.parametrize("kind", sorted(BLOBS))
def test_mutated_blobs_raise_only_nnsig_errors(kind):
    blob, parse, _ = BLOBS[kind]

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_mutations(blob))
    def check(data):
        try:
            parse(data)
        except NnsigError:
            pass

    check()


def _armed_session() -> SyncSession:
    config = SyncConfig(weights=decode_shared_setup(BLOBS["shared-setup"][0])[0], q=(1,) * N)
    session = SyncSession.create(config, random.Random(7))
    session.dh_message()
    return session


def _assert_share_rejected(share):
    session = _armed_session()
    transcript = list(session.transcript)
    with pytest.raises(MalformedFrame):
        session.receive_dh(DhMatrixMessage(share))
    assert session.state is SessionState.SENT_DH
    assert session.transcript == transcript
    assert session.shared_matrix is None and session.mask is None


@pytest.mark.parametrize(
    "share",
    [
        MatrixZp(FIELD, ((0,) * N,) * N),
        from_rows(FIELD, [[i * j for j in range(1, N + 1)] for i in range(1, N + 1)]),
    ],
    ids=["zero", "rank-one"],
)
def test_receive_dh_rejects_singular_shares(share):
    _assert_share_rejected(share)


def test_receive_dh_rejects_identity_share():
    _assert_share_rejected(identity(FIELD, N))


def test_shared_setup_bad_version_is_unsupported_version():
    blob = bytearray(BLOBS["shared-setup"][0])
    blob[len(b"NNSIGSH1")] = 7
    with pytest.raises(UnsupportedVersion):
        decode_shared_setup(bytes(blob))
