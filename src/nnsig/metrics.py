"""Size formulas, operation counts, and instrumented measurements.

Two kinds of numbers live here and are deliberately kept apart:

* closed-form predictions — key/signature sizes and field-operation counts
  as functions of (n, p, rho);
* measurements — byte lengths of actually serialized objects and operation
  tallies from running keygen/sign/verify under the thread-local counter.

``REPORTED_PROFILES`` pins previously published reference figures for three
parameter sets so the report can show formula vs reported side by side; the
(257, 26, 10) row is known not to match the formulas (its byte figures are
consistent with n=28) and is flagged, never reconciled.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

from .errors import ParameterError
from .field import Field, count_ops
from .network import NetworkConfig
from .scheme import (
    keygen,
    parse_public_key,
    serialize_public_key,
    serialize_secret_key,
    serialize_signature,
    sign,
    verify,
)

# Published reference figures, keyed by (p, n, rho): security level, hash bits,
# signature bits, public/secret key bytes.
REPORTED_PROFILES = {
    (257, 26, 10): {"level": 80, "hash_bits": 208, "sig_bits": 1764, "pk_bytes": 1570, "sk_bytes": 1104},
    (257, 33, 10): {"level": 100, "hash_bits": 264, "sig_bits": 2409, "pk_bytes": 2180, "sk_bytes": 1467},
    (257, 43, 10): {"level": 128, "hash_bits": 344, "sig_bits": 3999, "pk_bytes": 3701, "sk_bytes": 2345},
}


class SchemeProfile(NamedTuple):
    """Closed-form size predictions for one parameter set."""

    n: int
    p: int
    rho: int
    pk_bytes: int
    sk_bytes: int
    sig_bits: int
    hash_bits: int


class OpCountReport(NamedTuple):
    """Closed-form field-operation counts; keygen is an order bound, not exact."""

    n: int
    p: int
    keygen_bound: float
    sign_ops: float
    verify_ops: int


def _validate(n: int, p: int, rho: int = 1) -> None:
    if n < 2 or p < 3 or rho < 1:
        raise ParameterError(f"need n >= 2, p >= 3, rho >= 1; got n={n}, p={p}, rho={rho}")


def formula_sizes(n: int, p: int, rho: int) -> SchemeProfile:
    """Predicted sizes: pk = ceil(2*n^2*log2(p)/8) bytes, sk adds the
    permutation, exponent, weight and schedule terms, sig = 2*n^2 + 7*n bits."""
    _validate(n, p, rho)
    lg = math.log2(p)
    pk_bytes = math.ceil(2 * n * n * lg / 8)
    sk_bytes = (
        math.ceil(2 * n * math.log2(n) / 8)
        + math.ceil(3 * lg / 8)
        + math.ceil(n * n * lg / 8)
        + math.ceil(rho * n * lg / 8)
    )
    sig_bits = 2 * n * n + 7 * n
    # floor(log2 p) == bit_length - 1 exactly; float log2 rounds up near 2^k
    hash_bits = n * (p.bit_length() - 1)
    return SchemeProfile(
        n=n, p=p, rho=rho, pk_bytes=pk_bytes, sk_bytes=sk_bytes,
        sig_bits=sig_bits, hash_bits=hash_bits,
    )


class MeasuredSizes(NamedTuple):
    pk_bytes: int
    sk_bytes: int
    sig_bytes: int

    @property
    def sig_bits(self) -> int:
        return 8 * self.sig_bytes


def measured_sizes(pk, sk, signature) -> MeasuredSizes:
    """Byte lengths of the actual serialized objects."""
    return MeasuredSizes(
        pk_bytes=len(serialize_public_key(pk)),
        sk_bytes=len(serialize_secret_key(sk)),
        sig_bytes=len(serialize_signature(signature, pk.field)),
    )


def op_count_report(n: int, p: int) -> OpCountReport:
    """sign = (2/3)n^3 + 6n^2 - n, verify = 3n^2 - n, keygen ~ n^3*log2(p)."""
    _validate(n, p)
    return OpCountReport(
        n=n,
        p=p,
        keygen_bound=n**3 * math.log2(p),
        sign_ops=2 * n**3 / 3 + 6 * n * n - n,
        verify_ops=3 * n * n - n,
    )


def instrumented_counts(n: int, p: int, rho: int, seed: bytes = b"instrumented",
                        rng: Optional[random.Random] = None) -> dict:
    """Run one keygen/sign/verify with the op counter on; returns the tallies.

    Verify runs on a parsed copy of the public key, as a second party would,
    so its tally includes the bias ``Wbar_theta @ theta`` (2n^2 - n) on top
    of the n compared rows (2n^2 - n) and their bias adds (n): 4n^2 - n in
    all, about 1.34 times the closed form 3n^2 - n at n = 8 and n = 26.
    """
    field = Field(p)
    config = NetworkConfig(n=n, field=field, rho=rho, seed=seed)
    rng = rng or random.Random(0xC0FFEE)
    message = b"instrumented message"
    with count_ops() as c_key:
        pk, sk = keygen(config, rng)
        sk.signing_matrix()  # signer's one-time setup belongs to keygen cost
    theta = field.sample_vector(rng, n)
    with count_ops() as c_sign:
        signature = sign(sk, theta, message, rng)
    verifier_pk = parse_public_key(serialize_public_key(pk))
    with count_ops() as c_verify:
        ok = verify(verifier_pk, theta, message, signature)
    return {
        "accepted": ok,
        "keygen": c_key.as_dict(),
        "sign": c_sign.as_dict(),
        "verify": c_verify.as_dict(),
    }


def discrepancies(profile: SchemeProfile) -> dict:
    """Formula-vs-reported deltas for a pinned parameter set ({} if none pinned)."""
    reported = REPORTED_PROFILES.get((profile.p, profile.n, profile.rho))
    if reported is None:
        return {}
    out = {}
    for key, ours in (
        ("pk_bytes", profile.pk_bytes),
        ("sk_bytes", profile.sk_bytes),
        ("sig_bits", profile.sig_bits),
        ("hash_bits", profile.hash_bits),
    ):
        if reported[key] != ours:
            out[key] = {"formula": ours, "reported": reported[key]}
    return out
