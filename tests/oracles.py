"""Reference helpers that only the tests read: a diagonal matrix, the sum of
two matrices, and the check of a permuted-matrix-power solution."""

from __future__ import annotations

from nnsig._packed import MatrixZp
from nnsig.errors import DimensionMismatch
from nnsig.field import Field
from nnsig.hardness import MatrixPowerInstance, MatrixPowerSolution
from nnsig.matrix import mat_pow


def diag_from_vector(field: Field, v) -> MatrixZp:
    """Diagonal matrix with v on the diagonal."""
    n = len(v)
    return MatrixZp(
        field, tuple(tuple(v[i] % field.p if i == j else 0 for j in range(n)) for i in range(n))
    )


def mat_add(a: MatrixZp, b: MatrixZp) -> MatrixZp:
    if a.field.p != b.field.p or a.n_rows != b.n_rows or a.n_cols != b.n_cols:
        raise DimensionMismatch("matrix addition needs equal shapes over one field")
    p = a.field.p
    return MatrixZp(a.field, tuple(
        tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)
    ))


def verify_solution(instance: MatrixPowerInstance, solution: MatrixPowerSolution) -> bool:
    """Whether the solution's permuted power of A is B."""
    candidate = solution.perm.permute_rows(mat_pow(instance.a_mat, solution.exponent))
    return candidate.rows == instance.b_mat.rows
