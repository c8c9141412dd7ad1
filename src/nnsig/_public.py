"""The public half of :mod:`nnsig.scheme`, what a ``verify`` child and
``nnsig.verify`` load: ``hash_to_field``, ``PublicKey``, ``Signature``,
``verify`` and the public-key, signature and theta codecs.  ``scheme``'s
docstring describes the scheme and the file formats.
"""

from __future__ import annotations

import hashlib
import struct
from typing import NamedTuple

from .errors import DimensionMismatch, MalformedEncoding, ParameterError
from .field import Field, FrozenValue
from ._packed import (
    MatrixZp, PackedMatVec, encode_elements, encode_matrix, encode_vector, field_from_wire,
    read_elements, read_header, read_matrix, read_vector, vec_sub,
)

PK_MAGIC = b"NNSIGPK1"
SIG_MAGIC = b"NNSIGSG1"
THETA_MAGIC = b"NNSIGTH1"
FORMAT_VERSION = 1

# The fixed header fields after each file's magic and version byte.
_PK_HEADER = struct.Struct("<QII")  # p, n, l
_SIG_HEADER = struct.Struct("<I")  # n

_DOMAIN = b"nnsig-v1"
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


# --- hashing ----------------------------------------------------------------


def hash_to_field(message: bytes, n: int, field: Field) -> tuple:
    """Map a message to n field elements via SHAKE-128.

    The XOF input is domain-separated with the modulus and output length.
    The digest is read as one big-endian int and cut into chunks of
    ``bits_per_element``, most significant first, rejecting chunks >= p so
    the result is uniform.  A chunk is accepted with probability p / 2^bits,
    so the first squeeze holds 1.25 times the expected number of chunks for
    n acceptances, plus 8: a second squeeze is then rare (under 1% of
    messages at p = 257, n = 43).  Too few accepted chunks double the digest
    length; SHAKE's longer output starts with the shorter one, so the scan
    accepts the same chunks again, then more, and the output does not depend
    on the first length.
    """
    if n < 1:
        raise ParameterError("digest length must be positive")
    shake = hashlib.shake_128(
        _DOMAIN + _U64.pack(field.p) + _U32.pack(n) + message
    )
    bits, p = field.bits_per_element, field.p
    mask = (1 << bits) - 1
    chunks = -(-(5 * n << bits) // (4 * p)) + 8
    nbytes = -(-(chunks * bits) // 8)
    while True:
        digest = int.from_bytes(shake.digest(nbytes), "big")
        out = [c for shift in range(8 * nbytes - bits, -1, -bits)
               if (c := digest >> shift & mask) < p]
        if len(out) >= n:
            return tuple(out[:n])
        nbytes *= 2


# --- key objects ------------------------------------------------------------


def _check_split(n: int, l: int) -> None:
    """The digest split of both key types: the verifier compares rows n-l.. and l.."""
    if not 1 <= l < n:
        raise ParameterError(f"digest split must satisfy 1 <= l < n, got l={l}, n={n}")


class PublicKey(FrozenValue):
    """The public map, checked when built (``1 <= l < n``; both matrices n x n
    over ``field``).  ``Wbar_theta`` and rows ``_first..`` of ``Wbar_x``, the
    rows verification reads, are packed once; ``_bias`` memoises ``_bias_entry``."""

    _fields = ("field", "n", "l", "w_x_bar", "w_theta_bar")
    _bias = None

    def __init__(self, field: Field, n: int, l: int, w_x_bar: MatrixZp,
                 w_theta_bar: MatrixZp) -> None:
        _check_split(n, l)
        if any(m.field != field or m.n_rows != n or m.n_cols != n for m in (w_x_bar, w_theta_bar)):
            raise DimensionMismatch(f"w_x and w_theta must be {n}x{n} over Z_{field.p}")
        first = min(l, n - l)
        vars(self).update(field=field, n=n, l=l, w_x_bar=w_x_bar, w_theta_bar=w_theta_bar,
                          _first=first, _tail=PackedMatVec(MatrixZp(field, w_x_bar.rows[first:])),
                          _theta_product=PackedMatVec(w_theta_bar))

    def theta_bias(self, theta) -> tuple:
        """Wbar_theta @ theta, memoised for the last theta."""
        return self._bias_entry(theta)[1]

    def _bias_entry(self, theta) -> tuple:
        """``(theta, bias, packed)`` for the last theta: ``packed`` holds the
        bias rows of ``_tail`` in its slots, the addend of ``verify``'s products.

        The memo is that one tuple, replaced whole, so a race between threads
        costs a recomputation and never pairs a theta with another's bias.
        Keying on ``tuple(theta)`` keeps a caller's later edit of a list theta
        from hitting a stale entry.
        """
        key = tuple(theta)
        memo = self._bias
        if memo is not None and memo[0] == key:
            return memo
        if len(key) != self.n:
            raise DimensionMismatch(f"theta has length {len(key)}, expected {self.n}")
        bias = self._theta_product(key)
        memo = (key, bias, self._tail.pack(bias[self._first:]))
        object.__setattr__(self, "_bias", memo)
        return memo


class Signature(NamedTuple):
    sigma0: tuple
    sigma1: tuple


# --- verify -----------------------------------------------------------------


def verify(
    pk: PublicKey,
    theta,
    message: bytes,
    signature: Signature,
    literal_form: bool = False,
) -> bool:
    """Check a signature; True/False for well-formed inputs, raises on bad shapes.

    Each half is one call of the packed tail product, with the packed bias
    added before its one reduction, and one tuple compare; a mismatch in the
    h0 half returns before the h1 half is computed.  ``literal_form``
    subtracts the bias from sigma instead and runs the same product with no
    addend, with the same early exit.
    """
    n, l, field, first = pk.n, pk.l, pk.field, pk._first
    if len(signature.sigma0) != n or len(signature.sigma1) != n:
        raise DimensionMismatch("signature vector length does not match n")
    h = hash_to_field(message, n, field)
    if literal_form:
        bias = pk.theta_bias(theta)
        return all(
            pk._tail(vec_sub(field, sigma, bias), n - len(half) - first) == half
            for sigma, half in ((signature.sigma0, h[:l]), (signature.sigma1, h[l:]))
        )
    packed = pk._bias_entry(theta)[2]
    if pk._tail(signature.sigma0, n - l - first, packed) != h[:l]:
        return False
    return pk._tail(signature.sigma1, l - first, packed) == h[l:]


# --- serialization ----------------------------------------------------------


def serialize_public_key(pk: PublicKey) -> bytes:
    return (
        PK_MAGIC
        + bytes([FORMAT_VERSION])
        + _PK_HEADER.pack(pk.field.p, pk.n, pk.l)
        + encode_matrix(pk.w_x_bar)
        + encode_matrix(pk.w_theta_bar)
    )


def parse_public_key(data: bytes) -> PublicKey:
    """Decode a public-key file; ``PublicKey`` checks what the bytes hold."""
    (p, n, l), off = read_header(data, PK_MAGIC, FORMAT_VERSION, "public-key", _PK_HEADER)
    field = field_from_wire(p)
    w_x_bar, off = read_matrix(field, data, off)
    w_theta_bar, _ = read_matrix(field, data, off, end="public key")
    try:
        return PublicKey(field=field, n=n, l=l, w_x_bar=w_x_bar, w_theta_bar=w_theta_bar)
    except (ParameterError, DimensionMismatch) as exc:
        raise MalformedEncoding(f"bad public key: {exc}") from exc


def serialize_signature(sig: Signature, field: Field) -> bytes:
    n = len(sig.sigma0)
    if len(sig.sigma1) != n:
        raise DimensionMismatch("signature halves have different lengths")
    return (
        SIG_MAGIC
        + bytes([FORMAT_VERSION])
        + _SIG_HEADER.pack(n)
        + encode_elements(field, (*sig.sigma0, *sig.sigma1))
    )


def parse_signature(data: bytes, field: Field) -> Signature:
    (n,), off = read_header(data, SIG_MAGIC, FORMAT_VERSION, "signature", _SIG_HEADER)
    if n < 2:
        raise MalformedEncoding(f"bad signature length n={n}")
    flat, _ = read_elements(field, data, off, 2 * n, "signature", end="signature")
    return Signature(sigma0=flat[:n], sigma1=flat[n:])


def encode_theta(field: Field, theta) -> bytes:
    return THETA_MAGIC + encode_vector(field, theta)


def decode_theta(field: Field, data: bytes) -> tuple:
    _, off = read_header(data, THETA_MAGIC, None, "theta")
    return read_vector(field, data, off, end="theta vector")[0]
