"""Prime-field scalar arithmetic over Z_p.

Field elements are plain Python ints in ``[0, p)``; the :class:`Field` object
carries the modulus and derived encoding widths.  Plain ints keep products
exact for any modulus up to the 61-bit cap: a 61x61-bit product needs 122
bits, more than int64 or float64 hold, so the matrix kernels pack rows into
arbitrary-precision ints instead (see :mod:`nnsig.matrix`).

Field operations are counted at one point: every kernel reports its work
through :func:`tally`, which adds it to the counter that :func:`count_ops`
installed on the calling thread, if any.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from typing import Iterator

from .errors import ParameterError

# Largest modulus accepted for element arithmetic.  Estimator code paths work
# on raw integers and are not bound by this cap.
MAX_MODULUS_BITS = 61

# Deterministic Miller-Rabin witness set for n < 3.3e24 (covers the 61-bit cap
# with a wide margin); the extended set is used above that bound so primality
# stays a pure function of the input.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_WITNESSES_WIDE = _MR_WITNESSES + (
    41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality check; deterministic for every modulus we accept."""
    if n < 2:
        return False
    witnesses = _MR_WITNESSES if n < 3_317_044_064_679_887_385_961_981 else _MR_WITNESSES_WIDE
    for q in witnesses:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass
class OpCounter:
    """Tally of field operations executed while the counter was active."""

    muls: int = 0
    adds: int = 0
    subs: int = 0
    invs: int = 0

    @property
    def total(self) -> int:
        return self.muls + self.adds + self.subs + self.invs

    def as_dict(self) -> dict:
        return {
            "muls": self.muls,
            "adds": self.adds,
            "subs": self.subs,
            "invs": self.invs,
            "total": self.total,
        }


_tls = threading.local()


def tally(muls: int = 0, adds: int = 0, subs: int = 0, invs: int = 0) -> None:
    """Add one kernel's field operations to this thread's counter, if one is installed."""
    c = getattr(_tls, "counter", None)
    if c is not None:
        c.muls += muls
        c.adds += adds
        c.subs += subs
        c.invs += invs


@contextmanager
def count_ops() -> Iterator[OpCounter]:
    """Install a fresh thread-local OpCounter for the duration of the block."""
    prev = getattr(_tls, "counter", None)
    counter = OpCounter()
    _tls.counter = counter
    try:
        yield counter
    finally:
        _tls.counter = prev


@dataclass(frozen=True)
class Field:
    """Parameters of Z_p plus element-level helpers.

    ``bits_per_element`` is the width needed for the largest element (p-1);
    ``element_size`` is that width rounded up to whole bytes, used by every
    fixed-width codec in the package.
    """

    p: int
    bits_per_element: int = dc_field(init=False, compare=False, repr=False)
    element_size: int = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p < 3:
            raise ParameterError(f"modulus must be an odd prime >= 3, got {self.p!r}")
        if self.p.bit_length() > MAX_MODULUS_BITS:
            raise ParameterError(
                f"modulus has {self.p.bit_length()} bits; element arithmetic is capped "
                f"at {MAX_MODULUS_BITS} bits"
            )
        if not is_prime(self.p):
            raise ParameterError(f"modulus {self.p} is not prime")
        object.__setattr__(self, "bits_per_element", (self.p - 1).bit_length())
        object.__setattr__(self, "element_size", (self.bits_per_element + 7) // 8)

    # --- element arithmetic ------------------------------------------------

    def f_activate(self, x: int) -> int:
        """Canonical least non-negative residue of x mod p (the network activation)."""
        return x % self.p

    def add(self, a: int, b: int) -> int:
        tally(adds=1)
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        tally(subs=1)
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        tally(muls=1)
        return a * b % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse mod p")
        tally(invs=1)
        return pow(a, self.p - 2, self.p)

    # --- sampling ----------------------------------------------------------

    def sample(self, rng, nonzero: bool = False) -> int:
        """Uniform element from [0, p), or [1, p) when nonzero is set."""
        lo = 1 if nonzero else 0
        return rng.randrange(lo, self.p)

    def sample_vector(self, rng, length: int, nonzero: bool = False) -> tuple:
        lo = 1 if nonzero else 0
        p = self.p
        return tuple(rng.randrange(lo, p) for _ in range(length))
