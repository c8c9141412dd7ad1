"""Two-party bias synchronization: algebra, state machine, wire frames."""

from __future__ import annotations

import random
import socket
import struct
import threading

import pytest

from nnsig._packed import MatrixZp, encode_matrix, encode_vector, vec_add, vec_mat
from nnsig._public import decode_theta, encode_theta, hash_to_field
from nnsig.errors import (
    InvalidStateError,
    LengthOverflow,
    MalformedEncoding,
    MalformedFrame,
    ParameterError,
    SingularWeightsError,
    UnknownTag,
)
from nnsig.field import Field
from nnsig.matrix import from_rows, identity, mat_pow
from nnsig.network import (
    SETUP_MAGIC,
    SETUP_VERSION,
    NetworkConfig,
    SynapticWeights,
    build_network,
    decode_shared_setup,
    encode_shared_setup,
)
from nnsig.sync import (
    MAX_PAYLOAD,
    DhMatrixMessage,
    PublicVectorMessage,
    SessionState,
    SyncConfig,
    SyncSession,
    recv_frame,
    run_over_socket,
    run_pair,
    wire_decode,
    wire_encode,
)
from oracles import mat_add


def _setup(p=257, n=6, seed=b"sync", q_seed=21, u=2):
    field = Field(p)
    config = NetworkConfig(n=n, field=field, rho=3, seed=seed)
    weights, _ = build_network(config)
    q = field.sample_vector(random.Random(q_seed), n)
    return SyncConfig(weights=weights, q=q, u=u)


def test_both_parties_agree():
    rng = random.Random(31)
    for trial in range(20):
        config = _setup(seed=b"agree%d" % trial, n=rng.randrange(2, 7))
        a = SyncSession.create(config, random.Random(rng.random()))
        b = SyncSession.create(config, random.Random(rng.random()))
        ta, tb = run_pair(a, b)
        assert ta == tb
        assert len(ta) == config.n
        assert a.state is SessionState.DONE and b.state is SessionState.DONE


class _ScriptedRandom(random.Random):
    """An rng whose randrange calls return the given values in order."""

    def __init__(self, draws):
        super().__init__(0)
        self._draws = iter(draws)

    def randrange(self, *args):
        return next(self._draws)


def test_create_redraws_a_dh_exponent_whose_share_is_the_identity():
    field = Field(257)
    w = from_rows(field, [[1, 1], [256, 1]])
    assert mat_pow(w, 32) == identity(field, 2) != mat_pow(w, 16)
    config = SyncConfig(weights=SynapticWeights(w=w), q=(3, 5), u=2)
    # 64 and 96 are multiples of ord(W) = 32, so both draws give W^d = I.
    a = SyncSession.create(config, _ScriptedRandom([64, 96, 5, 11, 13]))
    b = SyncSession.create(config, random.Random(8))
    assert a.dh_exponent == 5 and a.mix_exponents == (11, 13)
    ta, tb = run_pair(a, b)
    sent_share = wire_decode(a.transcript[0][1], field).matrix
    assert sent_share == mat_pow(w, 5) != identity(field, 2)
    assert ta == tb
    with pytest.raises(ParameterError):
        SyncSession.create(SyncConfig(weights=SynapticWeights(w=identity(field, 2)), q=(3, 5)))


def test_create_refuses_the_identity_base_matrix():
    """At n = 1, W = [[1]] is valid +-1 weights and the identity, so every
    DH share would be the identity too."""
    config = SyncConfig(SynapticWeights(from_rows(Field(257), [[1]])), (3,), u=1)
    with pytest.raises(ParameterError, match="identity"):
        SyncSession.create(config, random.Random(1))


def test_unit_dh_exponents_share_the_base_matrix():
    config = _setup()
    a = SyncSession(config=config, dh_exponent=1, mix_exponents=(2, 3))
    b = SyncSession(config=config, dh_exponent=1, mix_exponents=(4, 5))
    run_pair(a, b)
    assert a.shared_matrix == config.weights.w
    assert b.shared_matrix == config.weights.w


def test_zero_mix_exponent_gives_masked_q():
    config = _setup(u=1)
    a = SyncSession(config=config, dh_exponent=3, mix_exponents=(0,))
    b = SyncSession(config=config, dh_exponent=5, mix_exponents=(7,))
    run_pair(a, b)
    # W_s^0 = I, so A's share is Q + r.
    assert a.local_public == vec_add(config.field, config.q, a.mask)


def test_scalar_hand_oracle():
    # n = 1 over Z_7 keeps every step bare integer arithmetic.
    f7 = Field(7)
    weights = SynapticWeights(w=from_rows(f7, [[6]]))
    config = SyncConfig(weights=weights, q=(4,), u=1)
    a = SyncSession(config=config, dh_exponent=1, mix_exponents=(2,))
    b = SyncSession(config=config, dh_exponent=1, mix_exponents=(3,))
    ta, tb = run_pair(a, b)
    shared = 6  # 6^1 then ^1 again
    r = hash_to_field(encode_matrix(from_rows(f7, [[shared]])), 1, f7)[0]
    p_a = (4 * pow(shared, 2, 7) + r) % 7
    p_b = (4 * pow(shared, 3, 7) + r) % 7
    assert ta == tb == ((p_a + p_b) % 7,)


def test_transcript_replay_identity():
    # Reconstruct theta from the wire transcript plus both parties' exponents:
    # theta = Q (H_a + H_b) + 2r.
    config = _setup(n=5)
    field = config.field
    a = SyncSession.create(config, random.Random(32))
    b = SyncSession.create(config, random.Random(33))
    ta, tb = run_pair(a, b)
    kinds = [k for k, _ in a.transcript]
    assert kinds == ["send", "recv", "send", "recv"]
    peer_dh = wire_decode(a.transcript[1][1], field)
    shared = mat_pow(peer_dh.matrix, a.dh_exponent)
    r = hash_to_field(encode_matrix(shared), config.n, field)
    mix = None
    for alpha in a.mix_exponents + b.mix_exponents:
        term = mat_pow(shared, alpha)
        mix = term if mix is None else mat_add(mix, term)
    expected = vec_add(field, vec_add(field, vec_mat(config.q, mix), r), r)
    assert ta == expected == tb


def test_state_machine_rejects_out_of_order_calls():
    config = _setup(n=3)
    donor_a = SyncSession.create(config, random.Random(34))
    donor_b = SyncSession.create(config, random.Random(35))
    dh_frame = donor_a.dh_message()
    donor_b.dh_message()
    donor_b.receive_dh(dh_frame)
    pub_frame = donor_b.public_vector()

    def fresh(state):
        s = SyncSession.create(config, random.Random(36))
        if state is SessionState.INIT:
            return s
        s.dh_message()
        if state is SessionState.SENT_DH:
            return s
        s.receive_dh(dh_frame)
        if state is SessionState.HAVE_SHARED:
            return s
        s.public_vector()
        if state is SessionState.SENT_PUBLIC:
            return s
        s.finalize(pub_frame)
        return s

    calls = {
        "dh_message": lambda s: s.dh_message(),
        "receive_dh": lambda s: s.receive_dh(dh_frame),
        "public_vector": lambda s: s.public_vector(),
        "finalize": lambda s: s.finalize(pub_frame),
    }
    allowed = {
        SessionState.INIT: "dh_message",
        SessionState.SENT_DH: "receive_dh",
        SessionState.HAVE_SHARED: "public_vector",
        SessionState.SENT_PUBLIC: "finalize",
        SessionState.DONE: None,
    }
    for state, ok_call in allowed.items():
        for name, invoke in calls.items():
            if name == ok_call:
                continue
            session = fresh(state)
            before_transcript = len(session.transcript)
            with pytest.raises(InvalidStateError):
                invoke(session)
            assert session.state is state
            assert len(session.transcript) == before_transcript


def test_receive_dh_validates_the_peer_share():
    config = _setup(n=3)
    field = config.field

    def armed():
        s = SyncSession.create(config, random.Random(37))
        s.dh_message()
        return s

    vector = wire_encode(PublicVectorMessage(field, (1, 2, 3)))
    with pytest.raises(MalformedFrame, match="expected a DH matrix frame"):
        armed().receive_dh(vector)
    wrong_size = wire_encode(DhMatrixMessage(MatrixZp(field, ((1, 0), (0, 1)))))
    with pytest.raises(MalformedFrame, match="is 2x2, expected 3x3"):
        armed().receive_dh(wrong_size)
    # A frame carries no modulus: an entry that only a wider field holds is
    # refused by the payload decode under this session's field.
    share = bytearray(wire_encode(DhMatrixMessage(mat_pow(config.weights.w, 5))))
    share[-2:] = (257).to_bytes(2, "little")
    with pytest.raises(MalformedFrame, match="bad frame payload: matrix entry 257 out of range"):
        armed().receive_dh(bytes(share))


def test_finalize_validates_the_peer_share():
    config = _setup(n=3)
    a = SyncSession.create(config, random.Random(38))
    b = SyncSession.create(config, random.Random(39))
    dh_a, dh_b = a.dh_message(), b.dh_message()
    a.receive_dh(dh_b)
    b.receive_dh(dh_a)
    a.public_vector()
    b.public_vector()
    with pytest.raises(MalformedFrame, match="expected a public-vector frame"):
        a.finalize(dh_a)
    with pytest.raises(MalformedFrame, match="length 2, expected 3"):
        a.finalize(wire_encode(PublicVectorMessage(config.field, (1, 2))))


def test_session_parameter_validation():
    config = _setup(n=3)
    with pytest.raises(ParameterError):
        SyncSession(config=config, dh_exponent=0, mix_exponents=(1, 2))
    with pytest.raises(ParameterError):
        SyncSession(config=config, dh_exponent=257, mix_exponents=(1, 2))
    with pytest.raises(ParameterError):
        SyncSession(config=config, dh_exponent=3, mix_exponents=(1,))
    with pytest.raises(ParameterError):
        SyncSession(config=config, dh_exponent=3, mix_exponents=(1, 257))
    with pytest.raises(ParameterError):
        SyncConfig(weights=config.weights, q=config.q, u=0)
    with pytest.raises(ParameterError):
        SyncConfig(weights=config.weights, q=config.q[:2])


# --- wire frames ----------------------------------------------------------------


def test_wire_roundtrip_both_kinds():
    config = _setup(n=4)
    field = config.field
    dh = DhMatrixMessage(mat_pow(config.weights.w, 5))
    assert wire_decode(wire_encode(dh), field) == dh
    pv = PublicVectorMessage(field, (0, 1, 255, 256))
    assert wire_decode(wire_encode(pv), field) == pv
    blob = wire_encode(dh) + wire_encode(pv)
    cut = len(wire_encode(dh))
    assert (wire_decode(blob[:cut], field), wire_decode(blob[cut:], field)) == (dh, pv)


def test_wire_rejects_unknown_tag(f257):
    with pytest.raises(UnknownTag):
        wire_decode(b"\x7f\x04\x00\x00\x00abcd", f257)


def test_wire_rejects_oversized_declared_length(f257):
    header = struct.pack("<BI", 0x01, MAX_PAYLOAD + 1)
    with pytest.raises(LengthOverflow):
        wire_decode(header, f257)


def test_wire_rejects_truncation_and_trailing(f257):
    good = wire_encode(PublicVectorMessage(f257, (1, 2, 3)))
    with pytest.raises(MalformedFrame):
        wire_decode(good[:3], f257)  # header cut short
    with pytest.raises(MalformedFrame):
        wire_decode(good[:-1], f257)  # payload cut short
    with pytest.raises(MalformedFrame):
        wire_decode(good + b"!", f257)


def test_wire_rejects_bad_payload(f257):
    good = bytearray(wire_encode(PublicVectorMessage(f257, (1, 2, 3))))
    struct.pack_into("<H", good, len(good) - 2, 500)  # 500 >= 257
    with pytest.raises(MalformedFrame):
        wire_decode(bytes(good), f257)


def _frames(session, kind):
    return [frame for k, frame in session.transcript if k == kind]


def test_each_sent_frame_is_encoded_once(monkeypatch):
    """The sessions hand out the frames they record and record the frames they
    receive: one encoding per message sent, none on the receiving side."""
    encoded = []
    real = wire_encode

    def counted(msg):
        encoded.append(msg)
        return real(msg)

    monkeypatch.setattr("nnsig.sync.wire_encode", counted)
    config = _setup(n=4)
    a = SyncSession.create(config, random.Random(42))
    b = SyncSession.create(config, random.Random(43))
    run_pair(a, b)
    assert len(encoded) == 4
    assert _frames(a, "send") == _frames(b, "recv") and _frames(b, "send") == _frames(a, "recv")


def test_socket_loopback_run():
    config = _setup(n=4)
    a = SyncSession.create(config, random.Random(40))
    b = SyncSession.create(config, random.Random(41))
    left, right = socket.socketpair()
    result = {}

    def peer():
        result["b"] = run_over_socket(b, right)

    t = threading.Thread(target=peer)
    t.start()
    try:
        theta_a = run_over_socket(a, left)
    finally:
        t.join(timeout=10)
        left.close()
        right.close()
    assert not t.is_alive()
    assert theta_a == result["b"]
    assert _frames(a, "send") == _frames(b, "recv") and _frames(b, "send") == _frames(a, "recv")


def test_recv_frame_on_closed_socket():
    left, right = socket.socketpair()
    left.close()
    try:
        with pytest.raises(MalformedFrame, match="closed mid-frame"):
            recv_frame(right)
    finally:
        right.close()


@pytest.mark.parametrize(
    "sent, close, error",
    [
        # The peer stays connected and silent after the header, so only a
        # refusal made from the header alone can end these two.
        (struct.pack("<BI", 0x01, MAX_PAYLOAD + 1), False, LengthOverflow),
        (b"\x7f\x04\x00\x00\x00", False, UnknownTag),
        # A vector frame announcing 10 payload bytes, cut after 5, then a close.
        (wire_encode(PublicVectorMessage(Field(257), (1, 2, 3)))[:10], True, MalformedFrame),
    ],
    ids=["oversized-length", "unknown-tag", "truncated-payload"],
)
def test_recv_frame_refuses_a_hostile_peer(sent, close, error):
    left, right = socket.socketpair()
    right.settimeout(5.0)  # a regression that waits for more bytes fails, not hangs
    try:
        left.sendall(sent)
        if close:
            left.close()
        with pytest.raises(error):
            recv_frame(right)
    finally:
        left.close()
        right.close()


# --- theta and shared-setup files -------------------------------------------------


def test_theta_file_roundtrip(f257):
    theta = (0, 5, 200, 256)
    blob = encode_theta(f257, theta)
    assert blob.startswith(b"NNSIGTH1")
    assert decode_theta(f257, blob) == theta
    with pytest.raises(MalformedEncoding):
        decode_theta(f257, b"NNSIGTX1" + blob[8:])
    with pytest.raises(MalformedEncoding):
        decode_theta(f257, blob + b"\x00")
    with pytest.raises(MalformedEncoding):
        decode_theta(f257, blob[:-1])


def test_shared_setup_roundtrip():
    config = _setup(n=5)
    blob = encode_shared_setup(config.weights, config.q)
    weights, q = decode_shared_setup(blob)
    assert weights == SynapticWeights(w=config.weights.w)
    assert q == config.q


def test_shared_setup_rejects_corruption(f257):
    config = _setup(n=3)
    blob = encode_shared_setup(config.weights, config.q)
    with pytest.raises(MalformedEncoding):
        decode_shared_setup(b"NNSIGXX1" + blob[8:])
    bad_version = bytearray(blob)
    bad_version[8] = 7
    with pytest.raises(MalformedEncoding):
        decode_shared_setup(bytes(bad_version))
    with pytest.raises(MalformedEncoding):
        decode_shared_setup(blob[:-1])
    with pytest.raises(MalformedEncoding):
        decode_shared_setup(blob + b"\x00")
    composite = bytearray(blob)
    struct.pack_into("<Q", composite, 9, 256)
    with pytest.raises(MalformedEncoding):
        decode_shared_setup(bytes(composite))
    wrong_n = bytearray(blob)
    struct.pack_into("<I", wrong_n, 17, 4)
    with pytest.raises(MalformedEncoding):
        decode_shared_setup(bytes(wrong_n))


def test_shared_setup_rejects_non_sign_entries_and_singular():
    f257 = Field(257)

    # SynapticWeights refuses both bad matrices, so their files are built by
    # hand; a valid matrix checks that the layout is the encoder's.
    def setup_file(rows):
        return (SETUP_MAGIC + bytes([SETUP_VERSION]) + struct.pack("<QI", 257, 2)
                + encode_matrix(from_rows(f257, rows)) + encode_vector(f257, (1, 2)))

    valid = SynapticWeights(from_rows(f257, [[1, 256], [1, 1]]))
    assert setup_file([[1, 256], [1, 1]]) == encode_shared_setup(valid, (1, 2))
    with pytest.raises(MalformedEncoding, match="every entry 1 or 256"):
        decode_shared_setup(setup_file([[1, 2], [1, 256]]))
    with pytest.raises(MalformedEncoding, match="singular"):
        decode_shared_setup(setup_file([[1, 1], [1, 1]]))


def test_sync_config_refuses_weights_no_setup_file_holds():
    f257 = Field(257)
    with pytest.raises(ParameterError):
        SyncConfig(SynapticWeights(from_rows(f257, [[2, 3], [5, 7]])), (1, 2))
    with pytest.raises(SingularWeightsError):
        SyncConfig(SynapticWeights(from_rows(f257, [[1, 1], [1, 1]])), (1, 2))
