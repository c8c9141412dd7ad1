"""Hostile input: fuzzed file and wire blobs, degenerate DH shares, bad versions.

Every parser may reject a blob only with an ``NnsigError`` subclass, and every
valid blob must survive a parse and re-encode unchanged.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nnsig._packed
from nnsig._packed import MatrixZp
from nnsig._public import (
    decode_theta,
    encode_theta,
    parse_public_key,
    parse_signature,
    serialize_public_key,
    serialize_signature,
)
from nnsig.errors import MalformedEncoding, MalformedFrame, NnsigError, UnsupportedVersion
from nnsig.field import Field
from nnsig.matrix import from_rows, identity
from nnsig.network import NetworkConfig, decode_shared_setup, encode_shared_setup
from nnsig.scheme import keygen, parse_secret_key, serialize_secret_key, sign
from nnsig.sync import (
    TAG_DH_MATRIX,
    TAG_PUBLIC_VECTOR,
    DhMatrixMessage,
    PublicVectorMessage,
    SessionState,
    SyncConfig,
    SyncSession,
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


def _armed_session(state: SessionState = SessionState.SENT_DH) -> SyncSession:
    """A session waiting for the peer's DH frame, or with ``SENT_PUBLIC`` for
    the peer's public-vector frame."""
    config = SyncConfig(weights=decode_shared_setup(BLOBS["shared-setup"][0])[0], q=(1,) * N)
    session = SyncSession.create(config, random.Random(7))
    session.dh_message()
    if state is SessionState.SENT_PUBLIC:
        session.receive_dh(BLOBS["dh-frame"][0])
        session.public_vector()
    return session


def _snapshot(session: SyncSession) -> tuple:
    return (session.state, list(session.transcript), session.shared_matrix, session.mask,
            session.theta)


def _assert_share_rejected(share, reason):
    session = _armed_session()
    before = _snapshot(session)
    with pytest.raises(MalformedFrame, match=reason):
        session.receive_dh(wire_encode(DhMatrixMessage(share)))
    assert _snapshot(session) == before
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
    _assert_share_rejected(share, "singular")


def test_receive_dh_rejects_identity_share():
    _assert_share_rejected(identity(FIELD, N), "the identity")


@pytest.mark.parametrize(
    "kind, state, receive",
    [
        ("dh-frame", SessionState.SENT_DH, SyncSession.receive_dh),
        ("vector-frame", SessionState.SENT_PUBLIC, SyncSession.finalize),
    ],
    ids=["receive_dh", "finalize"],
)
def test_mutated_frames_leave_a_refusing_session_untouched(kind, state, receive):
    """A session that refuses a frame keeps its state; one that accepts it
    records exactly the bytes it received."""

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_mutations(BLOBS[kind][0]))
    def check(data):
        session = _armed_session(state)
        before = _snapshot(session)
        try:
            receive(session, data)
        except NnsigError:
            assert _snapshot(session) == before
        else:
            assert session.state is not state
            assert session.transcript == before[1] + [("recv", data)]

    check()


def _frame(tag: int, payload: bytes) -> bytes:
    return bytes([tag]) + len(payload).to_bytes(4, "little") + payload


def _dh_frame(rows: int, cols: int) -> bytes:
    return wire_encode(DhMatrixMessage(MatrixZp(FIELD, ((1,) * cols,) * rows)))


def _vector_frame(length: int) -> bytes:
    return wire_encode(PublicVectorMessage(FIELD, (1,) * length))


@pytest.mark.parametrize(
    "state, frame, message",
    [
        (SessionState.SENT_DH, _dh_frame(N + 1, N + 1), f"is {N + 1}x{N + 1}, expected {N}x{N}"),
        (SessionState.SENT_DH, _dh_frame(N, N + 1), f"is {N}x{N + 1}, expected {N}x{N}"),
        (SessionState.SENT_DH, _dh_frame(1, N * N), f"is 1x{N * N}, expected {N}x{N}"),
        (SessionState.SENT_DH, _frame(TAG_DH_MATRIX, _dh_frame(N, N)[5:] + bytes(2 * N)),
         "trailing bytes after matrix"),
        (SessionState.SENT_PUBLIC, _vector_frame(N + 1), f"length {N + 1}, expected {N}"),
        (SessionState.SENT_PUBLIC, _vector_frame(N - 1), f"length {N - 1}, expected {N}"),
        (SessionState.SENT_PUBLIC, _frame(TAG_PUBLIC_VECTOR, _vector_frame(N)[5:] + bytes(2)),
         "trailing bytes after vector"),
    ],
    ids=["dh-larger", "dh-wider", "dh-one-row", "dh-longer-payload", "vector-longer",
         "vector-shorter", "vector-longer-payload"],
)
def test_a_frame_of_another_shape_is_refused_before_any_entry_is_decoded(
    monkeypatch, state, frame, message
):
    """A session knows the one frame length its n allows, so a peer cannot make
    it decode a frame of any other shape (up to the 16 MiB frame cap)."""
    session = _armed_session(state)
    before = _snapshot(session)

    def decode_uints(buf, width):
        raise AssertionError(f"decoded {len(buf) // width} entries of a refused frame")

    monkeypatch.setattr(nnsig._packed, "decode_uints", decode_uints)
    receive = SyncSession.receive_dh if state is SessionState.SENT_DH else SyncSession.finalize
    with pytest.raises(MalformedFrame, match=message):
        receive(session, frame)
    assert _snapshot(session) == before


def test_shared_setup_bad_version_is_unsupported_version():
    blob = bytearray(BLOBS["shared-setup"][0])
    blob[len(b"NNSIGSH1")] = 7
    with pytest.raises(UnsupportedVersion):
        decode_shared_setup(bytes(blob))


def _file_blobs(n: int) -> dict:
    """One valid blob per file format at p=257 and dimension n, with its parser."""
    pk, sk = keygen(NetworkConfig(n=n, field=FIELD, rho=3, seed=b"edges"), random.Random(8))
    theta = FIELD.sample_vector(random.Random(9), n)
    signature = sign(sk, theta, b"edge message", random.Random(10))
    return {
        "public-key": (serialize_public_key(pk), parse_public_key),
        "secret-key": (serialize_secret_key(sk), parse_secret_key),
        "signature": (
            serialize_signature(signature, FIELD), lambda data: parse_signature(data, FIELD)
        ),
        "theta": (encode_theta(FIELD, theta), lambda data: decode_theta(FIELD, data)),
        "shared-setup": (
            encode_shared_setup(sk.weights, FIELD.sample_vector(random.Random(11), n)),
            decode_shared_setup,
        ),
    }


EDGE_BLOBS = _file_blobs(4)


@pytest.mark.parametrize("kind", sorted(EDGE_BLOBS))
def test_every_prefix_and_one_extra_byte_raise_malformed_encoding(kind):
    blob, parse = EDGE_BLOBS[kind]
    parse(blob)
    for end in range(len(blob)):
        with pytest.raises(MalformedEncoding):
            parse(blob[:end])
    with pytest.raises(MalformedEncoding, match="trailing bytes"):
        parse(blob + b"\x00")


# The name each file parser gives its end of input in "trailing bytes after <name>".
END_NAMES = {
    "public-key": "public key",
    "secret-key": "secret key",
    "signature": "signature",
    "theta": "theta vector",
    "shared-setup": "shared setup",
}


@pytest.mark.parametrize("kind", sorted(EDGE_BLOBS))
def test_trailing_bytes_are_refused_before_the_last_run_is_decoded(kind):
    """A last entry of 0xFFFF (out of range at p=257) followed by one extra
    byte reports the extra byte: the end check runs before any entry of the
    file's last run is decoded."""
    blob, parse = EDGE_BLOBS[kind]
    bad_last = blob[:-2] + b"\xff\xff"
    with pytest.raises(MalformedEncoding, match="entry 65535 out of range"):
        parse(bad_last)
    with pytest.raises(MalformedEncoding, match=f"^trailing bytes after {END_NAMES[kind]}$"):
        parse(bad_last + b"\x00")


def test_secret_key_padding_bits_are_rejected():
    _, sk = keygen(NetworkConfig(n=26, field=FIELD, rho=3, seed=b"pad"), random.Random(12))
    blob = bytearray(serialize_secret_key(sk))
    # 676 weight bits fill 85 bytes and leave 4 padding bits at the top of the last.
    last_weight_byte = len(b"NNSIGSK1") + 1 + 48 + 8 * 26 + 85 - 1
    blob[last_weight_byte] |= 0x80
    with pytest.raises(MalformedEncoding, match="padding"):
        parse_secret_key(bytes(blob))
