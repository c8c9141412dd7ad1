"""Prime-field scalar arithmetic over Z_p.

Field elements are plain Python ints in ``[0, p)``; the :class:`Field` object
carries the modulus and derived encoding widths.  Plain ints keep products
exact for any modulus up to the 61-bit cap: a 61x61-bit product needs 122
bits, more than int64 or float64 hold, so the matrix kernels pack rows into
arbitrary-precision ints instead (see :mod:`nnsig.matrix`).

Field operations are counted at one point: every kernel reports its work
through :func:`tally`, which adds it to the counter that :func:`count_ops`
installed on the calling thread, if any.

Also home to :class:`Value` and :class:`FrozenValue`, the base of the
package's value classes that validate, memoise or mutate; the plain records
are ``typing.NamedTuple``s.  Both are cheap to import and to build, a cost
that every ``python -m nnsig`` child pays before it does any work.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from .errors import ParameterError

# Largest modulus accepted for element arithmetic.  Estimator code paths work
# on raw integers and are not bound by this cap.
MAX_MODULUS_BITS = 61

# The first 13 primes are a deterministic Miller-Rabin witness set below
# psi_13 ~ 3.3e24 (Sorenson & Webster, 2015), which covers the 61-bit cap; the
# wider set above it keeps primality a pure function of the input.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_WITNESSES_WIDE = _MR_WITNESSES + (
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def is_prime(n: int) -> bool:
    """Miller-Rabin: deterministic below psi_13, which covers every modulus the
    field accepts; a 30-base strong-probable-prime test above it."""
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


class Value:
    """Equality and repr over the attributes named in ``_fields``, in order.

    Any other attribute is a memo and takes part in neither.  A mutable value
    is unhashable; see :class:`FrozenValue`.
    """

    _fields: tuple = ()
    __hash__ = None

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenValue(Value):
    """A :class:`Value` that refuses attribute assignment, and so hashes.

    ``__init__`` sets the fields through ``vars(self)``; a memo is written
    with ``object.__setattr__``.
    """

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class OpCounter(Value):
    """Tally of field operations executed while the counter was active."""

    _fields = ("muls", "adds", "subs", "invs")

    def __init__(self, muls: int = 0, adds: int = 0, subs: int = 0, invs: int = 0) -> None:
        self.muls, self.adds, self.subs, self.invs = muls, adds, subs, invs

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


class Field(FrozenValue):
    """Parameters of Z_p plus element-level helpers.

    ``bits_per_element`` is the width needed for the largest element (p-1);
    ``element_size`` is that width rounded up to whole bytes, used by every
    fixed-width codec in the package.  Only ``p`` takes part in ``==``.
    """

    _fields = ("p",)

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or p < 3:
            raise ParameterError(f"modulus must be an odd prime >= 3, got {p!r}")
        if p.bit_length() > MAX_MODULUS_BITS:
            raise ParameterError(
                f"modulus has {p.bit_length()} bits; element arithmetic is capped "
                f"at {MAX_MODULUS_BITS} bits"
            )
        if not is_prime(p):
            raise ParameterError(f"modulus {p} is not prime")
        bits = (p - 1).bit_length()
        vars(self).update(p=p, bits_per_element=bits, element_size=(bits + 7) // 8)

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

    def sample(self, rng) -> int:
        """Uniform element from [0, p)."""
        return rng.randrange(self.p)

    def sample_vector(self, rng, length: int) -> tuple:
        p = self.p
        return tuple(rng.randrange(p) for _ in range(length))
