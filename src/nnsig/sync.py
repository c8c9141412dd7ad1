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
matrix (the DH share) and 0x02 a vector (the public share).  A session is the
only code that encodes or decodes them: its sending steps return frame bytes
and its receiving steps take frame bytes, so a transport only moves bytes, and
the transcript holds exactly what crossed the wire.  A receiving step knows
the one frame length its n allows and refuses any other before it decodes an
entry.  Sessions are strict state machines — any out-of-order call raises
InvalidStateError and leaves the session untouched, as does any frame it
refuses.

The theta codec lives in ``_public`` and the shared-setup codec in
``network``; ``encode_theta`` is bound here only for perfbench's harness.
"""

from __future__ import annotations

import enum
import functools
import random
import struct
from typing import List, NamedTuple, Optional, Tuple, Union

from .errors import (
    DimensionMismatch,
    InvalidStateError,
    LengthOverflow,
    MalformedEncoding,
    MalformedFrame,
    ParameterError,
    UnknownTag,
)
from .field import Field, FrozenValue, Value, system_rng
from .matrix import SquaringTable, det, is_identity, mat_pow
from ._packed import MatrixZp, encode_matrix, encode_vector, read_matrix, read_vector, vec_add
from .network import SynapticWeights
from ._public import hash_to_field
from ._public import encode_theta  # noqa: F401

TAG_DH_MATRIX = 0x01
TAG_PUBLIC_VECTOR = 0x02
MAX_PAYLOAD = 1 << 24  # 16 MiB: far above any real frame, low enough to stop bombs

_HDR = struct.Struct("<BI")


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


def _frame_header(data: bytes) -> Tuple[int, int]:
    """Check the frame header data starts with; returns (tag, payload length)."""
    if len(data) < _HDR.size:
        raise MalformedFrame("truncated frame header")
    tag, length = _HDR.unpack_from(data)
    if tag not in (TAG_DH_MATRIX, TAG_PUBLIC_VECTOR):
        raise UnknownTag(f"unknown frame tag 0x{tag:02x}")
    if length > MAX_PAYLOAD:
        raise LengthOverflow(f"declared payload of {length} bytes exceeds cap {MAX_PAYLOAD}")
    return tag, length


def wire_decode(data: bytes, field: Field, n: Optional[int] = None) -> SyncMessage:
    """Decode one whole frame, which must end where its payload does.

    Given n, a payload of another shape than an n x n matrix or a length-n
    vector raises DimensionMismatch before any entry is decoded.
    """
    tag, length = _frame_header(data)
    end = _HDR.size + length
    if len(data) < end:
        raise MalformedFrame("truncated frame payload")
    if len(data) > end:
        raise MalformedFrame("trailing bytes after frame")
    try:
        if tag == TAG_DH_MATRIX:
            return DhMatrixMessage(read_matrix(field, data, _HDR.size, n and (n, n), end="matrix")[0])
        return PublicVectorMessage(field, read_vector(field, data, _HDR.size, n, end="vector")[0])
    except MalformedEncoding as exc:
        raise MalformedFrame(f"bad frame payload: {exc}") from exc


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
    public_vector -> finalize.

    The sending steps return the frame to send and the receiving steps take
    the frame received; ``transcript`` lists each as ("send" or "recv", bytes).
    """

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
        rng = rng or system_rng()
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

    def _send(self, msg: SyncMessage, state: SessionState) -> bytes:
        frame = wire_encode(msg)
        self.transcript.append(("send", frame))
        self.state = state
        return frame

    def dh_message(self) -> bytes:
        """The frame of our DH share W^d."""
        self._expect(SessionState.INIT, "dh_message")
        share = self._dh_share
        if share is None:
            share = self.config.base_powers.mat_pow(self.dh_exponent)
        return self._send(DhMatrixMessage(share), SessionState.SENT_DH)

    def receive_dh(self, frame: bytes) -> None:
        """Absorb the frame of the peer's DH share and derive W_s and the mask r."""
        self._expect(SessionState.SENT_DH, "receive_dh")
        n = self.config.n
        if _frame_header(frame)[0] != TAG_DH_MATRIX:
            raise MalformedFrame("expected a DH matrix frame, got PublicVectorMessage")
        try:
            peer = wire_decode(frame, self.config.field, n).matrix
        except DimensionMismatch as exc:
            raise MalformedFrame(f"peer DH share is {exc}") from exc
        # A singular share (all-zero, say) gives a singular W_s whatever our
        # exponent is: the all-zero share fixes W_s = 0 and with it the mask.
        if det(peer) == 0:
            raise MalformedFrame("peer DH share is singular")
        # The identity share fixes W_s = I, whatever our exponent is.
        if is_identity(peer):
            raise MalformedFrame("peer DH share is the identity")
        self.transcript.append(("recv", frame))
        shared = mat_pow(peer, self.dh_exponent)
        self.shared_matrix = shared
        self.mask = hash_to_field(encode_matrix(shared), n, self.config.field)
        self.state = SessionState.HAVE_SHARED

    def public_vector(self) -> bytes:
        """The frame of our masked public share P = Q @ sum_i W_s^alpha_i + r."""
        self._expect(SessionState.HAVE_SHARED, "public_vector")
        field = self.config.field
        powers = SquaringTable(self.shared_matrix)
        p_vec = self.mask
        for alpha in self.mix_exponents:
            p_vec = vec_add(field, p_vec, powers.vec_pow(self.config.q, alpha))
        self.local_public = p_vec
        return self._send(PublicVectorMessage(field, p_vec), SessionState.SENT_PUBLIC)

    def finalize(self, frame: bytes) -> tuple:
        """Combine our share with the peer's, from its frame: theta = P_own + P_peer."""
        self._expect(SessionState.SENT_PUBLIC, "finalize")
        if _frame_header(frame)[0] != TAG_PUBLIC_VECTOR:
            raise MalformedFrame("expected a public-vector frame, got DhMatrixMessage")
        try:
            peer = wire_decode(frame, self.config.field, self.config.n).vector
        except DimensionMismatch as exc:
            raise MalformedFrame(f"peer public share has {exc}") from exc
        self.transcript.append(("recv", frame))
        self.theta = vec_add(self.config.field, self.local_public, peer)
        self.state = SessionState.DONE
        return self.theta


# --- transports ----------------------------------------------------------------


def run_pair(a: SyncSession, b: SyncSession) -> Tuple[tuple, tuple]:
    """Drive two in-process sessions to completion; returns (theta_a, theta_b).

    Each session receives the frames the other sent, as it would between hosts.
    """
    da, db = a.dh_message(), b.dh_message()
    a.receive_dh(db)
    b.receive_dh(da)
    pa, pb = a.public_vector(), b.public_vector()
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


def recv_frame(sock) -> bytes:
    """Read one whole frame; a bad header is refused before any payload is read."""
    header = _recv_exact(sock, _HDR.size)
    _, length = _frame_header(header)
    return header + _recv_exact(sock, length)


def run_over_socket(session: SyncSession, sock) -> tuple:
    """Run a full session over a connected stream socket; returns theta.

    Both ends send before they read; the frames are tiny, so full-duplex
    buffering makes the symmetric order deadlock-free.
    """
    sock.sendall(session.dh_message())
    session.receive_dh(recv_frame(sock))
    sock.sendall(session.public_vector())
    return session.finalize(recv_frame(sock))
