"""The packed-integer kernels against the plain loops they replaced.

``mat_mul``, ``mat_inv`` and ``det`` in ``nnsig.matrix`` run on rows packed
into single ints.  The reference versions below are the entry-by-entry loops
they replaced, op counting included; every kernel must return the same
entries, raise at the same point and count the same field operations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnsig.errors import ParameterError, SingularMatrixError
from nnsig.field import Field, count_ops, tally
from nnsig.matrix import MatrixZp, det, from_rows, identity, mat_inv, mat_mul

PRIMES = [3, 7, 257, 65521, 2**31 - 1, 2**61 - 1]


# --- reference kernels ---------------------------------------------------------


def oracle_mat_mul(a, b):
    p = a.field.p
    bcols = tuple(zip(*b.rows))
    out = tuple(
        tuple(sum(x * y for x, y in zip(arow, bcol)) % p for bcol in bcols) for arow in a.rows
    )
    tally(muls=a.n_rows * b.n_cols * a.n_cols, adds=a.n_rows * b.n_cols * (a.n_cols - 1))
    return MatrixZp(a.field, out)


def oracle_mat_inv(a):
    n = a.n_rows
    p = a.field.p
    work = [list(row) for row in a.rows]
    aug = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows_done = 0
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            tally(muls=2 * n * (col + rows_done), subs=2 * n * rows_done, invs=col)
            raise SingularMatrixError(f"no pivot in column {col}")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = pow(work[col][col], p - 2, p)
        work[col] = [x * inv_p % p for x in work[col]]
        aug[col] = [x * inv_p % p for x in aug[col]]
        wc, ac = work[col], aug[col]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor == 0:
                continue
            wr, ar = work[r], aug[r]
            for j in range(n):
                wr[j] = (wr[j] - factor * wc[j]) % p
                ar[j] = (ar[j] - factor * ac[j]) % p
            rows_done += 1
    tally(muls=2 * n * (n + rows_done), subs=2 * n * rows_done, invs=n)
    return MatrixZp(a.field, tuple(tuple(row) for row in aug))


def oracle_det(a):
    n = a.n_rows
    p = a.field.p
    work = [list(row) for row in a.rows]
    sign = 1
    rows_done = subs = 0
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            tally(muls=rows_done + subs, subs=subs, invs=col)
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        inv_p = pow(work[col][col], p - 2, p)
        eliminated = 0
        for r in range(col + 1, n):
            factor = work[r][col] * inv_p % p
            if factor == 0:
                continue
            wr, wc = work[r], work[col]
            for j in range(col, n):
                wr[j] = (wr[j] - factor * wc[j]) % p
            eliminated += 1
        rows_done += eliminated
        subs += eliminated * (n - col)
    d = sign
    for i in range(n):
        d = d * work[i][i]
    tally(muls=rows_done + subs + n, subs=subs, invs=n)
    return d % p


# --- comparison helpers --------------------------------------------------------


def _run(kernel, *args):
    """(result or exception type, op counts) of one call."""
    with count_ops() as c:
        try:
            result = kernel(*args)
        except SingularMatrixError:
            result = SingularMatrixError
    return result, (c.muls, c.adds, c.subs, c.invs)


def _same(kernel, oracle, *args):
    assert _run(kernel, *args) == _run(oracle, *args)


def _matrix(field, rows, cols, draw):
    entries = st.integers(0, field.p - 1)
    return from_rows(field, draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                          min_size=rows, max_size=rows)))


@st.composite
def _product_operands(draw):
    field = Field(draw(st.sampled_from(PRIMES)))
    rows, inner, cols = (draw(st.integers(1, 12)) for _ in range(3))
    return _matrix(field, rows, inner, draw), _matrix(field, inner, cols, draw)


@st.composite
def _square(draw):
    """A square matrix, often low-rank: a few rows repeat scaled copies of others."""
    field = Field(draw(st.sampled_from(PRIMES)))
    n = draw(st.integers(1, 12))
    rows = [list(row) for row in _matrix(field, n, n, draw).rows]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        scale = draw(st.integers(0, field.p - 1))
        rows[i] = [scale * x % field.p for x in rows[draw(st.integers(0, n - 1))]]
    return from_rows(field, rows)


# --- agreement with the reference ----------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_product_operands())
def test_mat_mul_matches_the_reference(operands):
    _same(mat_mul, oracle_mat_mul, *operands)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_square())
def test_mat_inv_and_det_match_the_reference(a):
    _same(mat_inv, oracle_mat_inv, a)
    _same(det, oracle_det, a)


@pytest.mark.parametrize("p,n", [(257, 64), (2**61 - 1, 12), (2**61 - 1, 65)])
def test_fullest_slots(p, n):
    """Every entry p-1 puts the largest possible sum in every slot; at
    p = 2^61 - 1 and n = 65 that sum no longer fits 16 bytes."""
    field = Field(p)
    full = from_rows(field, [[p - 1] * n for _ in range(n)])
    _same(mat_mul, oracle_mat_mul, full, full)
    # p-1 off the diagonal and p-2 on it is -(J + I) for the all-ones J,
    # invertible because p does not divide n + 1.
    near_full = from_rows(field, [[p - 2 if i == j else p - 1 for j in range(n)] for i in range(n)])
    _same(mat_inv, oracle_mat_inv, near_full)
    _same(det, oracle_det, near_full)
    assert mat_mul(near_full, mat_inv(near_full)) == identity(field, n)


@pytest.mark.parametrize("p", PRIMES)
def test_zero_and_rank_deficient_matrices(p):
    field = Field(p)
    zero = from_rows(field, [[0] * 5 for _ in range(5)])
    repeated = from_rows(field, [[1, 2, 3, 4], [p - 1, 0, 2, 1], [1, 2, 3, 4], [0, 0, 1, 0]])
    for a in (zero, repeated):
        assert _run(det, a)[0] == 0
        assert _run(mat_inv, a)[0] is SingularMatrixError
        _same(det, oracle_det, a)
        _same(mat_inv, oracle_mat_inv, a)


@pytest.mark.parametrize("bad", [-1, 257, 10**30])
def test_entries_outside_the_field_are_refused(bad):
    field = Field(257)
    good = from_rows(field, [[1, 2], [3, 4]])
    off = MatrixZp(field, ((1, 2), (bad, 4)))
    for call in (
        lambda: mat_mul(off, good),
        lambda: mat_mul(good, off),
        lambda: mat_inv(off),
        lambda: det(off),
    ):
        with pytest.raises(ParameterError):
            call()
