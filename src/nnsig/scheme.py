"""Signature scheme over the unrolled network maps.

Key generation unrolls a seeded binary-weight network into (w_x, w_theta),
then masks both with secret row permutations and matrix powers:
``Wbar_x = L_x @ w_x^a`` and ``Wbar_theta = L_theta @ w_theta^b``.  Signing
embeds the message digest in the tail of two preimage vectors and pulls them
back through ``Wbar_x^{-1} = w_x^{-a} @ L_x^{-1}``, inverted once per key;
verification pushes the signature through only the rows of the public map
that hold the digest tails and compares them.  The public key packs
(``_packed.PackedMatVec``) ``Wbar_theta`` and the rows of ``Wbar_x`` that
verification reads once, when it is built, and keeps one memo entry for the
last theta either side asked it for: the bias ``Wbar_theta @ theta`` and its
tail rows packed in the slots of the ``Wbar_x`` tail product, so a new theta
costs one packed product and one pack; the signer reads its bias through its
own public key.  Each verification half is then one packed pass: products
and bias are summed in one big int, unpacked and reduced once.  These
attributes stay out of ``==`` and ``repr``.

Verification adds the bias term after applying the public map — the variant
that subtracts it first (kept behind ``literal_form=True``) does not invert
the signing equation and rejects honestly produced signatures.

File formats (all little-endian, fixed element width from the field):

=========  ========  =======  ==========================  ======================  ==========
object     magic     version  fixed header                body                    codec in
=========  ========  =======  ==========================  ======================  ==========
public     NNSIGPK1  u8       ``<QII`` p, n, l            Wbar_x | Wbar_theta     ``_public``
secret     NNSIGSK1  u8       ``<6Q`` p, n, l, rho, a, b  perms | W bits | sched  this module
signature  NNSIGSG1  u8       ``<I`` n                    sigma0 | sigma1         ``_public``
theta      NNSIGTH1  (none)   (none)                      theta vector            ``_public``
shared     NNSIGSH1  u8       ``<QI`` p, n                base matrix W | Q       ``network``
=========  ========  =======  ==========================  ======================  ==========

Each fixed header is one ``struct.Struct`` beside its codec, shared by the
serializer and the parser.  The key parsers only decode; a key its class
refuses is a ``MalformedEncoding``.  The secret file stores both permutations
as one run of 2n u32 indices, the weight matrix as one little-endian integer
of ``ceil(n^2 / 8)`` bytes whose bit ``r*n + c`` is entry (r, c) (0 -> 1, 1
-> p-1; the padding bits above bit n^2 must be zero), and the attention
schedule as rho raw element vectors.
"""

from __future__ import annotations

import random
import struct
from typing import Optional, Tuple

from .errors import DimensionMismatch, MalformedEncoding, ParameterError
from .field import Field, Value, system_rng
from .matrix import PermutationMatrix, mat_inv, mat_pow
from .network import AttentionSchedule, NetworkConfig, SynapticWeights, build_network, unroll
from ._packed import (
    MatrixZp, decode_uints, encode_elements, encode_uints, field_from_wire, mat_vec,
    read_elements, read_header, split_rows, vec_sub,
)
from ._public import FORMAT_VERSION, PublicKey, Signature, _check_split, hash_to_field
# Read here only from outside src: by tests and by perfbench/tracing.py's TRACED table.
from ._public import (  # noqa: F401
    THETA_MAGIC, decode_theta, encode_theta, parse_public_key, parse_signature,
    serialize_public_key, serialize_signature, verify,
)

SK_MAGIC = b"NNSIGSK1"
_SK_HEADER = struct.Struct("<6Q")  # p, n, l, rho, a, b: the fixed header after magic and version


# --- key objects ------------------------------------------------------------


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
        _check_split(n, l)
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
    rng = rng or system_rng()
    weights, schedule = build_network(config)
    p = config.field.p
    a = rng.randrange(2, p - 1)
    b = rng.randrange(2, p - 1)
    l_x = PermutationMatrix.random(config.n, rng)
    l_theta = PermutationMatrix.random(config.n, rng)
    return derive_keypair(config, weights, schedule, a, b, l_x, l_theta, split_index)


# --- sign -------------------------------------------------------------------


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
    rng = rng or system_rng()
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


# --- serialization ----------------------------------------------------------


def serialize_secret_key(sk: SecretKey) -> bytes:
    n = sk.n
    # Weight entry k = r*n + c is bit k of one little-endian int: 0 for 1, 1 for p-1.
    bits = "".join(["0" if x == 1 else "1" for row in sk.weights.w.rows for x in row])
    return b"".join([
        SK_MAGIC,
        bytes([FORMAT_VERSION]),
        _SK_HEADER.pack(sk.field.p, n, sk.l, sk.schedule.rho, sk.a, sk.b),
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
    flat, _ = read_elements(field, data, weights_end, rho * n, "schedule", end="secret key")
    try:
        return SecretKey(
            field=field, n=n, l=l, l_x=PermutationMatrix(idx[:n]),
            l_theta=PermutationMatrix(idx[n:]), a=a, b=b,
            weights=SynapticWeights(MatrixZp(field, split_rows(weights, n, n))),
            schedule=AttentionSchedule(split_rows(flat, rho, n)),
        )
    except (ParameterError, DimensionMismatch) as exc:
        raise MalformedEncoding(f"bad secret key: {exc}") from exc
