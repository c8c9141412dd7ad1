"""Signature scheme over the unrolled network maps.

Key generation unrolls a seeded binary-weight network into (w_x, w_theta),
then masks both with secret row permutations and matrix powers:
``Wbar_x = L_x @ w_x^a`` and ``Wbar_theta = L_theta @ w_theta^b``.  Signing
embeds the message digest in the tail of two preimage vectors and pulls them
back through ``Wbar_x^{-1} = w_x^{-a} @ L_x^{-1}``, inverted once per key;
verification pushes the signature through only the rows of the public map
that hold the digest tails and compares them.  The public key packs
(``matrix.PackedMatVec``) ``Wbar_theta`` and the rows of ``Wbar_x`` that
verification reads once, when it is built, and keeps the bias
``Wbar_theta @ theta`` of the last theta either side asked it for, so a new
theta costs one packed product; the signer reads its bias through its own
public key.  The same memo entry holds the bias's tail rows packed in the
slots of the ``Wbar_x`` tail product, so each verification half is one
packed pass: the products and the bias are summed in one big int, unpacked
and reduced once.  These attributes stay out of ``==`` and ``repr``.

Verification adds the bias term after applying the public map — the variant
that subtracts it first (kept behind ``literal_form=True``) does not invert
the signing equation and rejects honestly produced signatures.

File formats (all little-endian, fixed element width from the field):

=========  ========  =======  ==========================  ======================
object     magic     version  fixed header                body
=========  ========  =======  ==========================  ======================
public     NNSIGPK1  u8       ``<QII`` p, n, l            Wbar_x | Wbar_theta
secret     NNSIGSK1  u8       ``<6Q`` p, n, l, rho, a, b  perms | W bits | sched
signature  NNSIGSG1  u8       ``<I`` n                    sigma0 | sigma1
theta      NNSIGTH1  (none)   (none)                      theta vector
=========  ========  =======  ==========================  ======================

Each fixed header is one ``struct.Struct`` below, shared by the serializer
and the parser.  The secret file stores both permutations as one run of 2n
u32 indices, the weight matrix as one little-endian integer of
``ceil(n^2 / 8)`` bytes whose bit ``r*n + c`` is entry (r, c) (0 -> 1,
1 -> p-1; the padding bits above bit n^2 must be zero), and the attention
schedule as rho raw element vectors.
"""

from __future__ import annotations

import hashlib
import random
import secrets
import struct
from typing import NamedTuple, Optional, Tuple

from .errors import DimensionMismatch, MalformedEncoding, ParameterError
from .field import Field, FrozenValue, Value
from .matrix import (
    MatrixZp,
    PackedMatVec,
    PermutationMatrix,
    decode_uints,
    encode_elements,
    encode_matrix,
    encode_uints,
    encode_vector,
    expect_end,
    field_from_wire,
    mat_inv,
    mat_pow,
    mat_vec,
    read_elements,
    read_header,
    read_matrix,
    read_vector,
    split_rows,
    vec_sub,
)
from .network import AttentionSchedule, NetworkConfig, SynapticWeights, build_network, unroll

PK_MAGIC = b"NNSIGPK1"
SK_MAGIC = b"NNSIGSK1"
SIG_MAGIC = b"NNSIGSG1"
THETA_MAGIC = b"NNSIGTH1"
FORMAT_VERSION = 1

# The fixed header fields after each file's magic and version byte.
_PK_HEADER = struct.Struct("<QII")  # p, n, l
_SK_HEADER = struct.Struct("<6Q")  # p, n, l, rho, a, b
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


class PublicKey(FrozenValue):
    """The public map, with ``Wbar_theta`` and rows ``min(l, n - l)..`` of
    ``Wbar_x`` packed once; ``_bias`` is the memo of ``_bias_entry``."""

    _fields = ("field", "n", "l", "w_x_bar", "w_theta_bar")
    _bias = None

    def __init__(self, field: Field, n: int, l: int, w_x_bar: MatrixZp,
                 w_theta_bar: MatrixZp) -> None:
        tail = MatrixZp(field, w_x_bar.rows[min(l, n - l):])
        vars(self).update(field=field, n=n, l=l, w_x_bar=w_x_bar, w_theta_bar=w_theta_bar,
                          _tail=PackedMatVec(tail), _theta_product=PackedMatVec(w_theta_bar))

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
        bias = self._theta_product(key)
        memo = (key, bias, self._tail.pack(bias[min(self.l, self.n - self.l):]))
        object.__setattr__(self, "_bias", memo)
        return memo


class Signature(NamedTuple):
    sigma0: tuple
    sigma1: tuple


class SecretKey(Value):
    """Private material, checked when built; everything public is rebuilt from it on demand.

    The underscored attributes are memos, left out of ``==`` and ``repr``.
    """

    _fields = ("field", "n", "l", "l_x", "l_theta", "a", "b", "weights", "schedule")
    _public = _sign_mat = None

    def __init__(self, field: Field, n: int, l: int, l_x: PermutationMatrix,
                 l_theta: PermutationMatrix, a: int, b: int,
                 weights: SynapticWeights, schedule: AttentionSchedule) -> None:
        p = field.p
        if not 1 <= l < n:
            raise ParameterError(f"digest split must satisfy 1 <= l < n, got l={l}, n={n}")
        if not (2 <= a <= p - 2 and 2 <= b <= p - 2):
            raise ParameterError(f"mask exponents must lie in [2, {p - 2}]")
        if l_x.n != n or l_theta.n != n:
            raise DimensionMismatch("permutation size does not match n")
        if weights.w.field.p != p or weights.n != n:
            raise ParameterError(f"weights must be {n}x{n} over Z_{p}")
        steps = schedule.vectors
        if (not steps or any(len(step) != n for step in steps)
                or not 0 < min(map(min, steps)) <= max(map(max, steps)) < p):
            raise ParameterError(f"schedule must be rho >= 1 steps of {n} entries in [1, {p - 1}]")
        vars(self).update(field=field, n=n, l=l, l_x=l_x, l_theta=l_theta, a=a, b=b,
                          weights=weights, schedule=schedule)

    @property
    def rho(self) -> int:
        return self.schedule.rho

    def unrolled_maps(self):
        return unroll(self.weights, self.schedule)

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
    """Deterministic keypair from explicit secret components; ``SecretKey``
    refuses any component its file could not hold."""
    n = config.n
    sk = SecretKey(field=config.field, n=n, l=n // 2 if split_index is None else split_index,
                   l_x=l_x, l_theta=l_theta, a=a, b=b, weights=weights, schedule=schedule)
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
    bias = sk.public_key().theta_bias(theta)
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
    """Check a signature; True/False for well-formed inputs, raises on bad shapes.

    Each half is one call of the packed tail product, with the packed bias
    added before its one reduction, and one tuple compare; a mismatch in the
    h0 half returns before the h1 half is computed.  ``literal_form``
    subtracts the bias from sigma instead and runs the same product with no
    addend, with the same early exit.
    """
    n, l, field = pk.n, pk.l, pk.field
    if len(theta) != n:
        raise DimensionMismatch(f"theta has length {len(theta)}, expected {n}")
    if len(signature.sigma0) != n or len(signature.sigma1) != n:
        raise DimensionMismatch("signature vector length does not match n")
    h = hash_to_field(message, n, field)
    first = min(l, n - l)
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
    (p, n, l), off = read_header(data, PK_MAGIC, FORMAT_VERSION, "public-key", _PK_HEADER)
    field = field_from_wire(p)
    if n < 2 or not 1 <= l < n:
        raise MalformedEncoding(f"bad public-key dimensions n={n}, l={l}")
    w_x_bar, off = read_matrix(field, data, off)
    w_theta_bar, off = read_matrix(field, data, off)
    expect_end(data, off, "public key")
    for m, name in ((w_x_bar, "w_x"), (w_theta_bar, "w_theta")):
        if m.n_rows != n or m.n_cols != n:
            raise MalformedEncoding(f"{name} matrix is {m.n_rows}x{m.n_cols}, expected {n}x{n}")
    return PublicKey(field=field, n=n, l=l, w_x_bar=w_x_bar, w_theta_bar=w_theta_bar)


def serialize_secret_key(sk: SecretKey) -> bytes:
    n = sk.n
    # Weight entry k = r*n + c is bit k of one little-endian int: 0 for 1, 1 for p-1.
    bits = "".join(["0" if x == 1 else "1" for row in sk.weights.w.rows for x in row])
    return b"".join([
        SK_MAGIC,
        bytes([FORMAT_VERSION]),
        _SK_HEADER.pack(sk.field.p, n, sk.l, sk.rho, sk.a, sk.b),
        encode_uints((*sk.l_x.perm, *sk.l_theta.perm), 4),
        int(bits[::-1], 2).to_bytes((n * n + 7) // 8, "little"),
        encode_elements(sk.field, [x for vec in sk.schedule.vectors for x in vec]),
    ])


def parse_secret_key(data: bytes) -> SecretKey:
    """Decode a secret-key file; ``SecretKey`` checks what the bytes hold."""
    (p, n, l, rho, a, b), off = read_header(
        data, SK_MAGIC, FORMAT_VERSION, "secret-key", _SK_HEADER
    )
    field = field_from_wire(p)
    if n == 0:  # the schedule would take no bytes, and rho empty rows no bound
        raise MalformedEncoding("secret key of size n=0")
    perms_end = off + 8 * n
    weights_end = perms_end + (n * n + 7) // 8
    if len(data) < weights_end:
        raise MalformedEncoding("secret-key file truncated in permutations or weights")
    idx = decode_uints(data[off:perms_end], 4)
    bits = int.from_bytes(data[perms_end:weights_end], "little")
    if bits >> n * n:
        raise MalformedEncoding("nonzero padding bits after the secret-key weights")
    entry = {"0": 1, "1": p - 1}.__getitem__
    weights = map(entry, format(bits, f"0{n * n}b")[::-1])
    flat, off = read_elements(field, data, weights_end, rho * n, "schedule")
    expect_end(data, off, "secret key")
    try:
        return SecretKey(
            field=field, n=n, l=l, l_x=PermutationMatrix(idx[:n]),
            l_theta=PermutationMatrix(idx[n:]), a=a, b=b,
            weights=SynapticWeights(MatrixZp(field, split_rows(weights, n, n))),
            schedule=AttentionSchedule(split_rows(flat, rho, n)),
        )
    except (ParameterError, DimensionMismatch) as exc:
        raise MalformedEncoding(f"bad secret key: {exc}") from exc


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
    flat, off = read_elements(field, data, off, 2 * n, "signature")
    expect_end(data, off, "signature")
    return Signature(sigma0=flat[:n], sigma1=flat[n:])


def encode_theta(field: Field, theta) -> bytes:
    return THETA_MAGIC + encode_vector(field, theta)


def decode_theta(field: Field, data: bytes) -> tuple:
    _, off = read_header(data, THETA_MAGIC, None, "theta")
    vec, off = read_vector(field, data, off)
    expect_end(data, off, "theta vector")
    return vec
