"""Signature scheme over the unrolled network maps.

Key generation unrolls a seeded binary-weight network into (w_x, w_theta),
then masks both with secret row permutations and matrix powers:
``Wbar_x = L_x @ w_x^a`` and ``Wbar_theta = L_theta @ w_theta^b``.  Signing
embeds the message digest in the tail of two preimage vectors and pulls them
back through ``Wbar_x^{-1} = w_x^{-a} @ L_x^{-1}``, inverted once per key;
verification pushes the signature through only the rows of the public map
that hold the digest tails and compares them.  Both sides keep the bias
``Wbar_theta @ theta`` of the last theta they saw.

Verification adds the bias term after applying the public map — the variant
that subtracts it first (kept behind ``literal_form=True``) does not invert
the signing equation and rejects honestly produced signatures.

File formats (all little-endian, fixed element width from the field):

=========  ==========  =====================================================
object     magic       layout after the magic
=========  ==========  =====================================================
public     NNSIGPK1    u8 version | u64 p | u32 n | u32 l | Wbar_x | Wbar_th
secret     NNSIGSK1    u8 version | u64 p,n,l,rho,a,b | perms | W bits | sched
signature  NNSIGSG1    u8 version | u32 n | sigma0 | sigma1
=========  ==========  =====================================================

The secret file stores the permutations as u32 index arrays, the weight
matrix bit-packed one bit per entry (0 -> 1, 1 -> p-1), and the attention
schedule as rho raw element vectors.
"""

from __future__ import annotations

import hashlib
import random
import secrets
import struct
from dataclasses import dataclass, field as dc_field
from typing import Optional, Tuple

from .errors import DimensionMismatch, MalformedEncoding, ParameterError
from .field import Field
from .matrix import (
    MatrixZp,
    PermutationMatrix,
    encode_elements,
    encode_matrix,
    field_from_wire,
    mat_inv,
    mat_pow,
    mat_vec,
    read_elements,
    read_header,
    read_matrix,
    vec_add,
    vec_sub,
)
from .network import AttentionSchedule, NetworkConfig, SynapticWeights, build_network, unroll

PK_MAGIC = b"NNSIGPK1"
SK_MAGIC = b"NNSIGSK1"
SIG_MAGIC = b"NNSIGSG1"
FORMAT_VERSION = 1

_DOMAIN = b"nnsig-v1"
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


# --- hashing ----------------------------------------------------------------


def hash_to_field(message: bytes, n: int, field: Field) -> tuple:
    """Map a message to n field elements via SHAKE-128.

    The XOF input is domain-separated with the modulus and output length;
    output bits are consumed most-significant-first in chunks of
    ``bits_per_element``, rejecting chunks >= p so the result is uniform.
    """
    if n < 1:
        raise ParameterError("digest length must be positive")
    shake = hashlib.shake_128(
        _DOMAIN + _U64.pack(field.p) + _U32.pack(n) + message
    )
    bits = field.bits_per_element
    p = field.p
    mask = (1 << bits) - 1
    nbytes = max(32, (n * bits) // 4)
    buf = shake.digest(nbytes)
    out = []
    pos = 0
    while len(out) < n:
        if pos + bits > 8 * len(buf):
            nbytes *= 2
            buf = shake.digest(nbytes)
        start, end = pos // 8, (pos + bits + 7) // 8
        window = int.from_bytes(buf[start:end], "big")
        chunk = (window >> (8 * end - pos - bits)) & mask
        pos += bits
        if chunk < p:
            out.append(chunk)
    return tuple(out)


# --- key objects ------------------------------------------------------------


@dataclass(frozen=True)
class PublicKey:
    field: Field
    n: int
    l: int
    w_x_bar: MatrixZp
    w_theta_bar: MatrixZp
    _bias: Optional[tuple] = dc_field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Signature:
    sigma0: tuple
    sigma1: tuple


@dataclass
class SecretKey:
    """Private material; everything public is rebuilt from it on demand."""

    field: Field
    n: int
    l: int
    l_x: PermutationMatrix
    l_theta: PermutationMatrix
    a: int
    b: int
    rho: int
    weights: SynapticWeights
    schedule: AttentionSchedule
    _maps: Optional[object] = dc_field(default=None, compare=False, repr=False)
    _public: Optional[PublicKey] = dc_field(default=None, compare=False, repr=False)
    _sign_mat: Optional[MatrixZp] = dc_field(default=None, compare=False, repr=False)
    _bias: Optional[tuple] = dc_field(default=None, compare=False, repr=False)

    def unrolled_maps(self):
        if self._maps is None:
            self._maps = unroll(self.weights, self.schedule)
        return self._maps

    def public_key(self) -> PublicKey:
        if self._public is None:
            maps = self.unrolled_maps()
            self._public = PublicKey(
                field=self.field,
                n=self.n,
                l=self.l,
                w_x_bar=self.l_x.permute_rows(mat_pow(maps.w_x, self.a)),
                w_theta_bar=self.l_theta.permute_rows(mat_pow(maps.w_theta, self.b)),
            )
        return self._public

    def signing_matrix(self) -> MatrixZp:
        """Wbar_x^{-1} = w_x^{-a} @ L_x^{-1}; cached across signatures.

        It is the inverse of a public matrix: anyone holding the public key
        can compute it (see the README caveats).
        """
        if self._sign_mat is None:
            self._sign_mat = mat_inv(self.public_key().w_x_bar)
        return self._sign_mat


def _theta_bias(owner, w_theta_bar: MatrixZp, theta) -> tuple:
    """Wbar_theta @ theta, memoised for the last theta on owner.

    The memo is one ``(theta, bias)`` tuple, replaced whole, so a race between
    threads costs a recomputation and never pairs a theta with another's bias.
    Keying on ``tuple(theta)`` keeps a caller's later edit of a list theta from
    hitting a stale entry.
    """
    key = tuple(theta)
    memo = owner._bias
    if memo is not None and memo[0] == key:
        return memo[1]
    bias = mat_vec(w_theta_bar, key)
    object.__setattr__(owner, "_bias", (key, bias))
    return bias


def derive_keypair(
    config: NetworkConfig,
    weights: SynapticWeights,
    schedule: AttentionSchedule,
    a: int,
    b: int,
    l_x: PermutationMatrix,
    l_theta: PermutationMatrix,
    split_index: Optional[int] = None,
) -> Tuple[PublicKey, SecretKey]:
    """Deterministic keypair from explicit secret components."""
    p = config.field.p
    n = config.n
    if not (2 <= a <= p - 2 and 2 <= b <= p - 2):
        raise ParameterError(f"mask exponents must lie in [2, {p - 2}]")
    if l_x.n != n or l_theta.n != n:
        raise DimensionMismatch("permutation size does not match n")
    l = n // 2 if split_index is None else split_index
    if not 1 <= l < n:
        raise ParameterError(f"digest split must satisfy 1 <= l < n, got l={l}")
    sk = SecretKey(
        field=config.field,
        n=n,
        l=l,
        l_x=l_x,
        l_theta=l_theta,
        a=a,
        b=b,
        rho=schedule.rho,
        weights=weights,
        schedule=schedule,
    )
    return sk.public_key(), sk


def keygen(
    config: NetworkConfig,
    rng: Optional[random.Random] = None,
    split_index: Optional[int] = None,
) -> Tuple[PublicKey, SecretKey]:
    """Sample a keypair: network from config.seed, masks from rng.

    Without an rng the masks come from the operating system's CSPRNG.
    """
    if config.field.p < 5:
        raise ParameterError("keygen needs p >= 5 so the exponent range [2, p-2] is nonempty")
    rng = rng or secrets.SystemRandom()
    weights, schedule = build_network(config)
    p = config.field.p
    a = rng.randrange(2, p - 1)
    b = rng.randrange(2, p - 1)
    l_x = PermutationMatrix.random(config.n, rng)
    l_theta = PermutationMatrix.random(config.n, rng)
    return derive_keypair(config, weights, schedule, a, b, l_x, l_theta, split_index)


# --- sign / verify ----------------------------------------------------------


def sign(
    sk: SecretKey,
    theta,
    message: bytes,
    rng: Optional[random.Random] = None,
) -> Signature:
    """Sign a message under the synchronized bias vector theta.

    Randomizer sampling order is part of the contract (tests replay it):
    first the n-l entries of r0, then the l entries of r1, each in index
    order from the supplied rng.  Without an rng they come from the
    operating system's CSPRNG: anyone holding the public key and theta can
    recover them, and enough Mersenne Twister outputs give away its state.
    """
    n, l, field = sk.n, sk.l, sk.field
    if len(theta) != n:
        raise DimensionMismatch(f"theta has length {len(theta)}, expected {n}")
    rng = rng or secrets.SystemRandom()
    h = hash_to_field(message, n, field)
    h0, h1 = h[:l], h[l:]
    r0 = field.sample_vector(rng, n - l)
    r1 = field.sample_vector(rng, l)
    x0 = r0 + h0
    x1 = r1 + h1
    bias = _theta_bias(sk, sk.public_key().w_theta_bar, theta)
    s_mat = sk.signing_matrix()
    sigma0 = mat_vec(s_mat, vec_sub(field, x0, bias))
    sigma1 = mat_vec(s_mat, vec_sub(field, x1, bias))
    return Signature(sigma0=sigma0, sigma1=sigma1)


def verify(
    pk: PublicKey,
    theta,
    message: bytes,
    signature: Signature,
    literal_form: bool = False,
) -> bool:
    """Check a signature; True/False for well-formed inputs, raises on bad shapes."""
    n, l, field = pk.n, pk.l, pk.field
    if len(theta) != n:
        raise DimensionMismatch(f"theta has length {len(theta)}, expected {n}")
    if len(signature.sigma0) != n or len(signature.sigma1) != n:
        raise DimensionMismatch("signature vector length does not match n")
    h = hash_to_field(message, n, field)
    h0, h1 = h[:l], h[l:]
    bias = _theta_bias(pk, pk.w_theta_bar, theta)

    def reconstruct(sigma, first_row):
        """Rows first_row.. of the public map applied to sigma, with the bias."""
        rows = MatrixZp(field, pk.w_x_bar.rows[first_row:])
        if literal_form:
            return mat_vec(rows, vec_sub(field, sigma, bias))
        return vec_add(field, mat_vec(rows, sigma), bias[first_row:])

    if reconstruct(signature.sigma0, n - l) != h0:
        return False
    return reconstruct(signature.sigma1, l) == h1


# --- serialization ----------------------------------------------------------


def serialize_public_key(pk: PublicKey) -> bytes:
    return (
        PK_MAGIC
        + bytes([FORMAT_VERSION])
        + _U64.pack(pk.field.p)
        + _U32.pack(pk.n)
        + _U32.pack(pk.l)
        + encode_matrix(pk.w_x_bar)
        + encode_matrix(pk.w_theta_bar)
    )


def parse_public_key(data: bytes) -> PublicKey:
    off = read_header(data, PK_MAGIC, FORMAT_VERSION, "public-key")
    if len(data) < off + 16:
        raise MalformedEncoding("public-key file truncated in header")
    (p,) = _U64.unpack_from(data, off)
    (n,) = _U32.unpack_from(data, off + 8)
    (l,) = _U32.unpack_from(data, off + 12)
    off += 16
    field = field_from_wire(p)
    if n < 2 or not 1 <= l < n:
        raise MalformedEncoding(f"bad public-key dimensions n={n}, l={l}")
    w_x_bar, off = read_matrix(field, data, off)
    w_theta_bar, off = read_matrix(field, data, off)
    if off != len(data):
        raise MalformedEncoding("trailing bytes after public key")
    for m, name in ((w_x_bar, "w_x"), (w_theta_bar, "w_theta")):
        if m.n_rows != n or m.n_cols != n:
            raise MalformedEncoding(f"{name} matrix is {m.n_rows}x{m.n_cols}, expected {n}x{n}")
    return PublicKey(field=field, n=n, l=l, w_x_bar=w_x_bar, w_theta_bar=w_theta_bar)


def serialize_secret_key(sk: SecretKey) -> bytes:
    n = sk.n
    out = [
        SK_MAGIC,
        bytes([FORMAT_VERSION]),
        _U64.pack(sk.field.p),
        _U64.pack(n),
        _U64.pack(sk.l),
        _U64.pack(sk.rho),
        _U64.pack(sk.a),
        _U64.pack(sk.b),
    ]
    for perm in (sk.l_x, sk.l_theta):
        out.extend(_U32.pack(t) for t in perm.perm)
    packed = bytearray((n * n + 7) // 8)
    idx = 0
    for row in sk.weights.w.rows:
        for x in row:
            if x != 1:
                packed[idx >> 3] |= 1 << (idx & 7)
            idx += 1
    out.append(bytes(packed))
    out.append(encode_elements(sk.field, [x for vec in sk.schedule.vectors for x in vec]))
    return b"".join(out)


def parse_secret_key(data: bytes) -> SecretKey:
    off = read_header(data, SK_MAGIC, FORMAT_VERSION, "secret-key")
    if len(data) < off + 48:
        raise MalformedEncoding("secret-key file truncated in header")
    p, n, l, rho, a, b = struct.unpack_from("<6Q", data, off)
    off += 48
    field = field_from_wire(p)
    if n < 2 or not 1 <= l < n or rho < 1:
        raise MalformedEncoding(f"bad secret-key dimensions n={n}, l={l}, rho={rho}")
    if not (2 <= a <= p - 2 and 2 <= b <= p - 2):
        raise MalformedEncoding("mask exponent out of range in secret key")
    perms = []
    for _ in range(2):
        if len(data) < off + 4 * n:
            raise MalformedEncoding("secret-key file truncated in permutations")
        idx = struct.unpack_from(f"<{n}I", data, off)
        off += 4 * n
        try:
            perms.append(PermutationMatrix(idx))
        except DimensionMismatch as exc:
            raise MalformedEncoding(f"bad permutation in secret key: {exc}") from exc
    packed_len = (n * n + 7) // 8
    if len(data) < off + packed_len:
        raise MalformedEncoding("secret-key file truncated in weights")
    packed = data[off : off + packed_len]
    off += packed_len
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            idx = r * n + c
            bit = (packed[idx >> 3] >> (idx & 7)) & 1
            row.append(p - 1 if bit else 1)
        rows.append(tuple(row))
    weights = SynapticWeights(w=MatrixZp(field, tuple(rows)))
    flat, off = read_elements(field, data, off, rho * n, "schedule")
    if 0 in flat:
        raise MalformedEncoding("schedule entry 0 outside [1, p-1]")
    if off != len(data):
        raise MalformedEncoding("trailing bytes after secret key")
    return SecretKey(
        field=field,
        n=n,
        l=l,
        l_x=perms[0],
        l_theta=perms[1],
        a=a,
        b=b,
        rho=rho,
        weights=weights,
        schedule=AttentionSchedule(tuple(flat[i : i + n] for i in range(0, len(flat), n))),
    )


def serialize_signature(sig: Signature, field: Field) -> bytes:
    n = len(sig.sigma0)
    if len(sig.sigma1) != n:
        raise DimensionMismatch("signature halves have different lengths")
    return (
        SIG_MAGIC
        + bytes([FORMAT_VERSION])
        + _U32.pack(n)
        + encode_elements(field, (*sig.sigma0, *sig.sigma1))
    )


def parse_signature(data: bytes, field: Field) -> Signature:
    off = read_header(data, SIG_MAGIC, FORMAT_VERSION, "signature")
    if len(data) < off + 4:
        raise MalformedEncoding("signature file truncated in header")
    (n,) = _U32.unpack_from(data, off)
    off += 4
    if n < 2:
        raise MalformedEncoding(f"bad signature length n={n}")
    flat, off = read_elements(field, data, off, 2 * n, "signature")
    if off != len(data):
        raise MalformedEncoding("trailing bytes after signature")
    return Signature(sigma0=flat[:n], sigma1=flat[n:])
