"""The permuted-matrix-power problem: planted instances, exhaustive search,
and parameter estimates.

Given an invertible matrix A over Z_p and B = L @ A^a for a hidden row
permutation L and exponent a, recover (a, L).  Exhaustive search costs
(p-1) * n! matrix comparisons on top of the incremental powers.  The
security estimate counts exhaustive search only, and cheaper attacks exist:
one signature and the public key forge any message without theta
(``tests/test_scheme.py::test_forgery_from_one_signature_without_theta``),
and det(B) = +-det(A)^a reduces the instance to a discrete log in Z_p^*
(Menezes & Wu, "The discrete logarithm problem in GL(n, q)", 1997).  The
one solver here, ``brute_force_solve``, runs that exhaustive search as a
reference oracle and is guardrailed to toy sizes.

Estimates work on raw integers in the log domain, so they are not bound by
the 61-bit element-arithmetic cap.  ``matrix`` is imported by the functions
that use it, so ``import nnsig`` and the ``params`` command never load it.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import TYPE_CHECKING, List, NamedTuple, Tuple

from .errors import LimitExceeded, ParameterError

if TYPE_CHECKING:
    from .field import Field
    from .matrix import MatrixZp, PermutationMatrix

# Exhaustive-search guardrails: (p-1) * n! candidates stays below 750 here.
SOLVER_N_LIMIT = 4
SOLVER_P_LIMIT = 31


class MatrixPowerInstance(NamedTuple):
    """Public pair (A, B) with B = L @ A^a for some hidden (a, L)."""

    a_mat: MatrixZp
    b_mat: MatrixZp

    @property
    def field(self) -> Field:
        return self.a_mat.field

    @property
    def n(self) -> int:
        return self.a_mat.n_rows


class MatrixPowerSolution(NamedTuple):
    exponent: int
    perm: PermutationMatrix


def make_instance(n: int, field: Field, rng) -> Tuple[MatrixPowerInstance, MatrixPowerSolution]:
    """Plant a uniform (a, L) into a fresh invertible A."""
    from .matrix import PermutationMatrix, mat_pow, random_invertible

    if n < 2:
        raise ParameterError("instances need n >= 2")
    a_mat = random_invertible(field, n, rng)
    exponent = rng.randrange(1, field.p)
    perm = PermutationMatrix.random(n, rng)
    b_mat = perm.permute_rows(mat_pow(a_mat, exponent))
    return (
        MatrixPowerInstance(a_mat=a_mat, b_mat=b_mat),
        MatrixPowerSolution(exponent=exponent, perm=perm),
    )


def verify_solution(instance: MatrixPowerInstance, solution: MatrixPowerSolution) -> bool:
    from .matrix import mat_pow

    candidate = solution.perm.permute_rows(mat_pow(instance.a_mat, solution.exponent))
    return candidate.rows == instance.b_mat.rows


def _check_limits(n: int, p: int, n_limit: int, p_limit: int) -> None:
    """Refuse a search over n x n instances mod p beyond the guardrails."""
    if n > n_limit:
        raise LimitExceeded(f"n={n} above solver guardrail {n_limit}")
    if p > p_limit:
        raise LimitExceeded(f"p={p} above solver guardrail {p_limit}")


def brute_force_solve(
    instance: MatrixPowerInstance,
    n_limit: int = SOLVER_N_LIMIT,
    p_limit: int = SOLVER_P_LIMIT,
) -> List[MatrixPowerSolution]:
    """Every (a, L) in [1, p-1] x S_n whose rows of A^a, picked in L's order, give B.

    A^1 is one mat_pow and each later power a single mat_mul.  Hits come in
    the order of exponents, then of permutations.  Refuses instances past the
    guardrails before it builds anything.
    """
    from .matrix import PermutationMatrix, mat_mul, mat_pow

    _check_limits(instance.n, instance.field.p, n_limit, p_limit)
    perms = tuple(permutations(range(instance.n)))
    a_mat, target = instance.a_mat, instance.b_mat.rows
    hits = []
    power = None
    for exponent in range(1, instance.field.p):
        power = mat_pow(a_mat, exponent) if power is None else mat_mul(power, a_mat)
        rows = power.rows
        hits.extend(
            MatrixPowerSolution(exponent=exponent, perm=PermutationMatrix(perm))
            for perm in perms if tuple(rows[t] for t in perm) == target
        )
    return hits


# --- parameter estimates ------------------------------------------------------


def _validate_np(n: int, p: int) -> None:
    if n < 2 or p < 3:
        raise ParameterError(f"estimates need n >= 2 and p >= 3, got n={n}, p={p}")


def classical_security_bits(n: int, p: int) -> float:
    """log2 of the exhaustive-search cost (p-1) * n! * n^3 * log2(p).

    Evaluated entirely in the log domain so 128-bit moduli and n! for large n
    never materialize.
    """
    _validate_np(n, p)
    bits = math.log2(p - 1)
    for k in range(2, n + 1):
        bits += math.log2(k)
    bits += 3 * math.log2(n)
    bits += math.log2(math.log2(p))
    return bits


def keyspace_bits(n: int, p: int) -> float:
    """log2 of the private-key space size (n!)^2 * n^(2n) * (p-2)."""
    _validate_np(n, p)
    log_fact = 0.0
    for k in range(2, n + 1):
        log_fact += math.log2(k)
    return 2 * log_fact + 2 * n * math.log2(n) + math.log2(p - 2)


# The quantum brute-force condition circulates in two inequivalent
# orientations, so both are exposed rather than silently picking one:
#   "grover":      classical_bits >= 2*level  (attacker halves the exponent,
#                  so the >=256-for-128 reading)
#   "doubled_log": 2*classical_bits >= level  (the doubled-log reading)
QUANTUM_STYLES = ("grover", "doubled_log")


def classical_security_ok(n: int, p: int, level: int) -> bool:
    return classical_security_bits(n, p) >= level


def quantum_security_ok(n: int, p: int, level: int, style: str = "grover") -> bool:
    if style not in QUANTUM_STYLES:
        raise ParameterError(f"unknown quantum style {style!r}; pick from {QUANTUM_STYLES}")
    bits = classical_security_bits(n, p)
    if style == "grover":
        return bits >= 2 * level
    return 2 * bits >= level


class SecurityEstimate(NamedTuple):
    """Classical/quantum summary for one (n, p) at a target level.

    quantum_bits doubles the classical log (the doubled_log orientation);
    the two boolean fields report both orientations side by side.
    """

    n: int
    p: int
    level: int
    classical_bits: float
    quantum_bits: float
    keyspace_bits: float
    classical_ok: bool
    quantum_ok_grover: bool
    quantum_ok_doubled_log: bool


def estimate(n: int, p: int, level: int) -> SecurityEstimate:
    bits = classical_security_bits(n, p)
    return SecurityEstimate(
        n=n,
        p=p,
        level=level,
        classical_bits=bits,
        quantum_bits=2 * bits,
        keyspace_bits=keyspace_bits(n, p),
        classical_ok=bits >= level,
        quantum_ok_grover=bits >= 2 * level,
        quantum_ok_doubled_log=2 * bits >= level,
    )
