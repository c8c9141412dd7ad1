"""Two-party synchronization of the shared bias vector theta.

Both parties hold the same base matrix W and public row vector Q.  Each picks
a Diffie-Hellman exponent d and mix exponents alpha_1..alpha_u, exchanges
``W^d``, and derives the shared matrix ``W_s = (peer share)^d``.  From it both
compute the mask ``r = hash_to_field(encode(W_s))`` and publish
``P = Q @ (W_s^{alpha_1} + ... + W_s^{alpha_u}) + r``; the synchronized bias
is ``theta = P_own + P_peer``, identical on both ends.

Powers come from squaring tables (``matrix.SquaringTable``).  The table of W
lives on the ``SyncConfig`` and serves every session run on it, so a DH share
costs only its multiplies.  ``P`` is computed as ``r + sum_i Q @ W_s^{alpha_i}``:
each term is a chain of vector-matrix products over one table of ``W_s``,
never a full matrix power.

A peer share that is singular or the identity is refused, since either one
fixes ``W_s`` (and with it the mask) whatever our exponent is; ``create``
redraws d while ``W^d`` is the identity, so an honest party never sends it.

Wire frames are ``u8 tag | u32le length | payload`` with tag 0x01 carrying a
matrix (the DH share) and 0x02 a vector (the public share).  Sessions are
strict state machines — any out-of-order call raises InvalidStateError and
leaves the session untouched.
"""

from __future__ import annotations

import enum
import functools
import random
import secrets
import struct
from typing import List, NamedTuple, Optional, Tuple, Union

from .errors import (
    InvalidStateError,
    LengthOverflow,
    MalformedEncoding,
    MalformedFrame,
    ParameterError,
    UnknownTag,
)
from .field import Field, FrozenValue, Value
from .matrix import (
    MatrixZp,
    SquaringTable,
    decode_matrix,
    decode_vector,
    det,
    encode_matrix,
    encode_vector,
    expect_end,
    field_from_wire,
    is_identity,
    mat_pow,
    read_header,
    read_matrix,
    read_vector,
    vec_add,
)
from .network import SynapticWeights
# The theta file codec lives in scheme, beside the other file codecs; sync
# re-exports it.
from .scheme import THETA_MAGIC, decode_theta, encode_theta, hash_to_field  # noqa: F401

TAG_DH_MATRIX = 0x01
TAG_PUBLIC_VECTOR = 0x02
MAX_PAYLOAD = 1 << 24  # 16 MiB: far above any real frame, low enough to stop bombs

SETUP_MAGIC = b"NNSIGSH1"
SETUP_VERSION = 1

_HDR = struct.Struct("<BI")
_SETUP_HEADER = struct.Struct("<QI")  # p, n


# --- wire codec ---------------------------------------------------------------


class DhMatrixMessage(NamedTuple):
    matrix: MatrixZp


class PublicVectorMessage(NamedTuple):
    field: Field
    vector: tuple


SyncMessage = Union[DhMatrixMessage, PublicVectorMessage]


def wire_encode(msg: SyncMessage) -> bytes:
    if isinstance(msg, DhMatrixMessage):
        tag, payload = TAG_DH_MATRIX, encode_matrix(msg.matrix)
    elif isinstance(msg, PublicVectorMessage):
        tag, payload = TAG_PUBLIC_VECTOR, encode_vector(msg.field, msg.vector)
    else:
        raise TypeError(f"not a sync message: {msg!r}")
    if len(payload) > MAX_PAYLOAD:
        raise LengthOverflow(f"payload of {len(payload)} bytes exceeds cap {MAX_PAYLOAD}")
    return _HDR.pack(tag, len(payload)) + payload


def _frame_header(data: bytes, offset: int) -> Tuple[int, int]:
    """Check the frame header at offset; returns (tag, payload length)."""
    if len(data) < offset + _HDR.size:
        raise MalformedFrame("truncated frame header")
    tag, length = _HDR.unpack_from(data, offset)
    if tag not in (TAG_DH_MATRIX, TAG_PUBLIC_VECTOR):
        raise UnknownTag(f"unknown frame tag 0x{tag:02x}")
    if length > MAX_PAYLOAD:
        raise LengthOverflow(f"declared payload of {length} bytes exceeds cap {MAX_PAYLOAD}")
    return tag, length


def _decode_payload(tag: int, payload: bytes, field: Field) -> SyncMessage:
    """The message a checked header's tag announces, decoded from its payload."""
    try:
        if tag == TAG_DH_MATRIX:
            return DhMatrixMessage(decode_matrix(field, payload))
        return PublicVectorMessage(field, decode_vector(field, payload))
    except MalformedEncoding as exc:
        raise MalformedFrame(f"bad frame payload: {exc}") from exc


def read_frame(data: bytes, field: Field, offset: int = 0) -> Tuple[SyncMessage, int]:
    """Decode one frame at offset; returns (message, next_offset)."""
    tag, length = _frame_header(data, offset)
    offset += _HDR.size
    end = offset + length
    if len(data) < end:
        raise MalformedFrame("truncated frame payload")
    return _decode_payload(tag, data[offset:end], field), end


def wire_decode(data: bytes, field: Field) -> SyncMessage:
    msg, end = read_frame(data, field, 0)
    if end != len(data):
        raise MalformedFrame("trailing bytes after frame")
    return msg


# --- session ------------------------------------------------------------------


class SessionState(enum.Enum):
    INIT = "init"
    SENT_DH = "sent_dh"
    HAVE_SHARED = "have_shared"
    SENT_PUBLIC = "sent_public"
    DONE = "done"


class SyncConfig(FrozenValue):
    """Shared setup both parties must agree on out of band; W is a checked SynapticWeights."""

    _fields = ("weights", "q", "u")

    def __init__(self, weights: SynapticWeights, q: tuple, u: int = 2) -> None:
        if u < 1:
            raise ParameterError(f"need at least one mix exponent, got u={u}")
        if len(q) != weights.n:
            raise ParameterError("Q length does not match the base matrix")
        vars(self).update(weights=weights, q=q, u=u)

    @property
    def field(self) -> Field:
        return self.weights.w.field

    @property
    def n(self) -> int:
        return self.weights.n

    @functools.cached_property
    def base_powers(self) -> SquaringTable:
        """Squaring table of W, shared by every session on this setup."""
        return SquaringTable(self.weights.w)


class SyncSession(Value):
    """One party's view of a run; drive it dh_message -> receive_dh ->
    public_vector -> finalize."""

    _fields = ("config", "dh_exponent", "mix_exponents", "state", "transcript",
               "shared_matrix", "mask", "local_public", "theta")
    # W^d, when create() already computed it to check it is not the identity.
    _dh_share: Optional[MatrixZp] = None

    def __init__(self, config: SyncConfig, dh_exponent: int, mix_exponents: tuple) -> None:
        p = config.field.p
        if not 1 <= dh_exponent <= p - 1:
            raise ParameterError(f"DH exponent must lie in [1, {p - 1}]")
        if len(mix_exponents) != config.u:
            raise ParameterError("need exactly u mix exponents")
        if any(not 0 <= alpha <= p - 1 for alpha in mix_exponents):
            raise ParameterError(f"mix exponents must lie in [0, {p - 1}]")
        self.config, self.dh_exponent, self.mix_exponents = config, dh_exponent, mix_exponents
        self.state = SessionState.INIT
        self.transcript: List[Tuple[str, bytes]] = []
        self.shared_matrix: Optional[MatrixZp] = None
        self.mask = self.local_public = self.theta = None

    @classmethod
    def create(cls, config: SyncConfig, rng: Optional[random.Random] = None) -> "SyncSession":
        """A session with fresh exponents, drawn from the operating system's
        CSPRNG unless an rng is passed.

        d is redrawn while ``W^d`` is the identity: that share would make
        ``W_s = I`` and the mask public, and the peer rejects it.
        """
        rng = rng or secrets.SystemRandom()
        p = config.field.p
        if is_identity(config.weights.w):
            raise ParameterError("the base matrix is the identity, so every DH share would be")
        while True:
            dh_exponent = rng.randrange(1, p)
            share = config.base_powers.mat_pow(dh_exponent)
            if not is_identity(share):
                break
        session = cls(
            config=config,
            dh_exponent=dh_exponent,
            mix_exponents=tuple(rng.randrange(0, p) for _ in range(config.u)),
        )
        session._dh_share = share
        return session

    def _expect(self, state: SessionState, call: str) -> None:
        if self.state is not state:
            raise InvalidStateError(
                f"{call}() is only valid in state {state.value}, session is {self.state.value}"
            )

    def dh_message(self) -> DhMatrixMessage:
        """Our DH share W^d."""
        self._expect(SessionState.INIT, "dh_message")
        share = self._dh_share
        if share is None:
            share = self.config.base_powers.mat_pow(self.dh_exponent)
        msg = DhMatrixMessage(share)
        self.transcript.append(("send", wire_encode(msg)))
        self.state = SessionState.SENT_DH
        return msg

    def receive_dh(self, msg: DhMatrixMessage) -> None:
        """Absorb the peer's DH share and derive W_s and the mask r."""
        self._expect(SessionState.SENT_DH, "receive_dh")
        if not isinstance(msg, DhMatrixMessage):
            raise MalformedFrame(f"expected a DH matrix frame, got {type(msg).__name__}")
        peer = msg.matrix
        n = self.config.n
        if peer.n_rows != n or peer.n_cols != n:
            raise MalformedFrame(f"peer DH share is {peer.n_rows}x{peer.n_cols}, expected {n}x{n}")
        if peer.field.p != self.config.field.p:
            raise MalformedFrame("peer DH share uses a different modulus")
        # A singular share (all-zero, say) gives a singular W_s whatever our
        # exponent is: the all-zero share fixes W_s = 0 and with it the mask.
        if det(peer) == 0:
            raise MalformedFrame("peer DH share is singular")
        # The identity share fixes W_s = I, whatever our exponent is.
        if is_identity(peer):
            raise MalformedFrame("peer DH share is the identity")
        self.transcript.append(("recv", wire_encode(msg)))
        shared = mat_pow(peer, self.dh_exponent)
        self.shared_matrix = shared
        self.mask = hash_to_field(encode_matrix(shared), n, self.config.field)
        self.state = SessionState.HAVE_SHARED

    def public_vector(self) -> PublicVectorMessage:
        """Our masked public share P = Q @ sum_i W_s^alpha_i + r."""
        self._expect(SessionState.HAVE_SHARED, "public_vector")
        field = self.config.field
        powers = SquaringTable(self.shared_matrix)
        p_vec = self.mask
        for alpha in self.mix_exponents:
            p_vec = vec_add(field, p_vec, powers.vec_pow(self.config.q, alpha))
        self.local_public = p_vec
        msg = PublicVectorMessage(field, p_vec)
        self.transcript.append(("send", wire_encode(msg)))
        self.state = SessionState.SENT_PUBLIC
        return msg

    def finalize(self, msg: PublicVectorMessage) -> tuple:
        """Combine shares: theta = P_own + P_peer."""
        self._expect(SessionState.SENT_PUBLIC, "finalize")
        if not isinstance(msg, PublicVectorMessage):
            raise MalformedFrame(f"expected a public-vector frame, got {type(msg).__name__}")
        if len(msg.vector) != self.config.n:
            raise MalformedFrame(
                f"peer public share has length {len(msg.vector)}, expected {self.config.n}"
            )
        self.transcript.append(("recv", wire_encode(msg)))
        self.theta = vec_add(self.config.field, self.local_public, msg.vector)
        self.state = SessionState.DONE
        return self.theta


# --- transports ----------------------------------------------------------------


def _frame(session: SyncSession, send) -> bytes:
    """Run one of the session's sending steps; returns the frame its transcript
    recorded, which a transport sends as it is rather than encode it again."""
    send()
    return session.transcript[-1][1]


def run_pair(a: SyncSession, b: SyncSession) -> Tuple[tuple, tuple]:
    """Drive two in-process sessions to completion; returns (theta_a, theta_b).

    Every message goes through the wire codec, as it would between hosts.
    """
    field = a.config.field

    def ship(session, send):
        return wire_decode(_frame(session, send), field)

    da, db = ship(a, a.dh_message), ship(b, b.dh_message)
    a.receive_dh(db)
    b.receive_dh(da)
    pa, pb = ship(a, a.public_vector), ship(b, b.public_vector)
    return a.finalize(pb), b.finalize(pa)


def _recv_exact(sock, count: int) -> bytes:
    chunks = []
    got = 0
    while got < count:
        part = sock.recv(count - got)
        if not part:
            raise MalformedFrame("connection closed mid-frame")
        chunks.append(part)
        got += len(part)
    return b"".join(chunks)


def recv_frame(sock, field: Field) -> SyncMessage:
    """Read one frame; a bad header is refused before any payload is read."""
    tag, length = _frame_header(_recv_exact(sock, _HDR.size), 0)
    return _decode_payload(tag, _recv_exact(sock, length), field)


def run_over_socket(session: SyncSession, sock) -> tuple:
    """Run a full session over a connected stream socket; returns theta.

    Both ends send before they read; the frames are tiny, so full-duplex
    buffering makes the symmetric order deadlock-free.
    """
    field = session.config.field
    sock.sendall(_frame(session, session.dh_message))
    session.receive_dh(recv_frame(sock, field))
    sock.sendall(_frame(session, session.public_vector))
    return session.finalize(recv_frame(sock, field))


# --- shared-setup file ---------------------------------------------------------


def encode_shared_setup(weights: SynapticWeights, q: tuple) -> bytes:
    field = weights.w.field
    return (
        SETUP_MAGIC
        + bytes([SETUP_VERSION])
        + _SETUP_HEADER.pack(field.p, weights.n)
        + encode_matrix(weights.w)
        + encode_vector(field, q)
    )


def decode_shared_setup(data: bytes) -> Tuple[SynapticWeights, tuple]:
    (p, n), off = read_header(data, SETUP_MAGIC, SETUP_VERSION, "shared-setup", _SETUP_HEADER)
    field = field_from_wire(p)
    w, off = read_matrix(field, data, off)
    q, off = read_vector(field, data, off)
    expect_end(data, off, "shared setup")
    if len(q) != n or w.n_rows != n or w.n_cols != n:
        raise MalformedEncoding("shared-setup dimensions are inconsistent")
    try:
        return SynapticWeights(w), q
    except ParameterError as exc:
        raise MalformedEncoding(f"bad shared-setup base matrix: {exc}") from exc
