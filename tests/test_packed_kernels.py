"""The packed-integer kernels against the plain loops they replaced.

``mat_mul``, ``mat_inv``, ``det``, ``SquaringTable.mat_pow`` and
``SquaringTable.vec_pow`` in ``nnsig.matrix`` and ``unroll`` in
``nnsig.network`` (through ``matrix.scaled_chain``) run on rows packed into
single ints, and ``PackedMatVec`` on packed columns.  The reference
versions below are the entry-by-entry loops they replaced, op counting
included (``mat_vec`` is ``PackedMatVec``'s); every kernel must return the
same entries, raise at the same point and count the same field operations.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from nnsig.errors import (
    DimensionMismatch,
    ParameterError,
    SingularMatrixError,
    SingularWeightsError,
)
from nnsig.field import Field, count_ops, tally
from nnsig.matrix import (
    MatrixZp,
    PackedMatVec,
    SquaringTable,
    det,
    from_rows,
    identity,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_vec,
    random_matrix,
    scaled_chain,
    vec_add,
)
from nnsig.network import AttentionSchedule, SynapticWeights, UnrolledMaps, unroll

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


def oracle_vec_mat(v, a):
    p = a.field.p
    out = tuple(sum(x * y for x, y in zip(v, col)) % p for col in zip(*a.rows))
    tally(muls=a.n_rows * a.n_cols, adds=a.n_cols * (a.n_rows - 1))
    return out


def _oracle_powers(a, e):
    """(k, a^(2^k)) for each set bit k of e, squaring with the reference product."""
    square = a
    for k in range(e.bit_length()):
        if k:
            square = oracle_mat_mul(square, square)
        if e >> k & 1:
            yield square


def oracle_mat_pow(a, e):
    result = None
    for square in _oracle_powers(a, e):
        result = square if result is None else oracle_mat_mul(result, square)
    return identity(a.field, a.n_rows) if result is None else result


def oracle_vec_pow(a, v, e):
    out = tuple(x % a.field.p for x in v)
    for square in _oracle_powers(a, e):
        out = oracle_vec_mat(out, square)
    return out


def oracle_unroll(weights, schedule):
    return oracle_chain(weights.w, schedule.vectors)


def oracle_chain(w, vectors):
    """rho step matrices W @ diag(A_j), rho products from the identity, rho - 1 sums."""
    p, n = w.field.p, w.n_rows
    steps = []
    for att in vectors:
        steps.append(MatrixZp(w.field, tuple(
            tuple(x * y % p for x, y in zip(row, att)) for row in w.rows)))
        tally(muls=n * n)
    suffix = w_theta = identity(w.field, n)
    for k in range(len(steps) - 2, -1, -1):
        suffix = oracle_mat_mul(suffix, steps[k + 1])
        w_theta = MatrixZp(w.field, tuple(
            tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(w_theta.rows, suffix.rows)))
        tally(adds=n * n)
    return UnrolledMaps(w_x=oracle_mat_mul(suffix, steps[0]), w_theta=w_theta)


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


@st.composite
def _power_operands(draw):
    """A square matrix, a vector and an exponent, often the fullest entry p - 1."""
    field = Field(draw(st.sampled_from(PRIMES)))
    n = draw(st.integers(1, 8))
    a = _matrix(field, n, n, draw)
    if draw(st.booleans()):
        a = from_rows(field, [[field.p - 1] * n] * n)
    v = draw(st.lists(st.integers(-field.p, 2 * field.p), min_size=n, max_size=n))
    return a, v, draw(st.integers(0, 300))


def _draw_chain(draw, entries):
    """A square matrix with ``entries(p)`` and rho attention vectors: tiny p
    with deep rho (the w_theta accumulator bound) or the 61-bit prime (wide
    slots)."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 6))
    rho = draw(st.integers(1, 300 if p < 10 else 12))
    w = from_rows(Field(p), draw(st.lists(st.lists(entries(p), min_size=n, max_size=n),
                                          min_size=n, max_size=n)))
    attention = st.lists(st.integers(1, p - 1), min_size=n, max_size=n).map(tuple)
    return w, tuple(draw(st.lists(attention, min_size=rho, max_size=rho)))


@st.composite
def _chain(draw):
    """Any entries in [0, p), as ``scaled_chain`` takes them."""
    return _draw_chain(draw, lambda p: st.integers(0, p - 1))


@st.composite
def _network(draw):
    """Checked weights, every entry 1 or p - 1, and a schedule."""
    w, vectors = _draw_chain(draw, lambda p: st.sampled_from((1, p - 1)))
    try:
        return SynapticWeights(w), AttentionSchedule(vectors)
    except SingularWeightsError:
        reject()


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
        lambda: SquaringTable(off),
        lambda: mat_pow(off, 0),
        lambda: mat_pow(off, 1),
        lambda: mat_pow(off, 5),
        lambda: SynapticWeights(off),  # so no such weights reach unroll
        lambda: scaled_chain(off, ((1, 2),)),
        lambda: PackedMatVec(off),
    ):
        with pytest.raises(ParameterError):
            call()


@st.composite
def _mat_vec_operands(draw):
    """A matrix, a vector of any ints and a first row.  At p = 7, 257, 65537
    and 2^61 - 1 with up to 6 columns a slot takes 1, 4 and 8 bytes and,
    at 2^61 - 1, more than 8 (one ``int.from_bytes`` per slot)."""
    field = Field(draw(st.sampled_from([7, 257, 65537, 2**61 - 1])))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    v = draw(st.lists(st.integers(0, field.p - 1) | st.integers(), min_size=cols, max_size=cols))
    u = draw(st.lists(st.integers(0, field.p - 1), min_size=rows, max_size=rows))
    return _matrix(field, rows, cols, draw), tuple(v), draw(st.integers(0, rows - 1)), tuple(u)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mat_vec_operands())
def test_packed_mat_vec_matches_mat_vec(operands):
    """Alone, and with a packed addend u as ``vec_add`` adds it afterwards."""
    a, v, first, u = operands
    product = PackedMatVec(a)
    rows = MatrixZp(a.field, a.rows[first:])
    _same(lambda: product(v, first), lambda: mat_vec(rows, v))
    _same(lambda: product(v, first, product.pack(u)),
          lambda: vec_add(a.field, mat_vec(rows, v), u[first:]))


@pytest.mark.parametrize("p", [7, 257, 65537, 2**61 - 1])
def test_packed_mat_vec_reduces_entries_outside_the_field(p):
    field = Field(p)
    a = random_matrix(field, 43, 43, random.Random(p))
    product = PackedMatVec(a)
    rng = random.Random(p + 1)
    v = tuple(rng.choice((-1, -p, p, 2 * p + 3, -(10**30), 10**30 + 7)) for _ in range(43))
    assert product(v) == mat_vec(a, v)
    assert product(v, 21) == mat_vec(a, v)[21:]


@pytest.mark.parametrize("p", [7, 257, 65537, 2**61 - 1])
def test_packed_addend_fills_the_slot_bound(p):
    """Every entry p - 1, the largest slot sum, plus an addend of p - 1s: no
    carry crosses a slot.  ``pack`` refuses what would break the bound."""
    field = Field(p)
    top = (p - 1,) * 43
    a = MatrixZp(field, (top,) * 43)
    product = PackedMatVec(a)
    for first in (0, 21):
        _same(lambda: product(top, first, product.pack(top)),
              lambda: vec_add(field, mat_vec(MatrixZp(field, a.rows[first:]), top), top[first:]))
    with pytest.raises(DimensionMismatch):
        product.pack(top[1:])
    for bad in (p, -1):
        with pytest.raises(ParameterError):
            product.pack((bad,) + top[1:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_power_operands())
def test_table_powers_match_the_reference(operands):
    a, v, e = operands
    _same(lambda: SquaringTable(a).mat_pow(e), lambda: oracle_mat_pow(a, e))
    _same(lambda: SquaringTable(a).vec_pow(v, e), lambda: oracle_vec_pow(a, v, e))
    table = SquaringTable(a)
    table.mat_pow(e)
    want = oracle_vec_pow(a, v, e)
    with count_ops() as c:  # the squares are kept: only the multiplies are paid again
        assert table.vec_pow(v, e) == want
    assert c.muls == bin(e).count("1") * a.n_rows ** 2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_network())
def test_unroll_matches_the_reference(network):
    _same(unroll, oracle_unroll, *network)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_chain())
def test_scaled_chain_matches_the_reference(chain):
    """Untallied, so only the entries are compared; the scales run newest first."""
    w, vectors = chain
    assert scaled_chain(w, vectors[::-1]) == tuple(oracle_chain(w, vectors))


@pytest.mark.parametrize("p,rho", [(3, 127), (3, 128), (3, 129), (3, 400), (5, 64), (5, 65)])
def test_fullest_w_theta_accumulator(p, rho):
    """W = (p-1) I with A = 1 at the newest step and p-1 before it makes
    every suffix product (p-1) I, so each diagonal slot of the w_theta
    accumulator reaches 1 + (rho - 1)(p - 1): past one byte at p = 3 from
    rho = 128, and at p = 5 from rho = 65.  Such a W is no +-1 weights, so
    the chain runs on ``scaled_chain`` itself."""
    field = Field(p)
    n = 3
    w = from_rows(field, [[p - 1 if i == j else 0 for j in range(n)] for i in range(n)])
    vectors = ((p - 1,) * n,) * (rho - 1) + ((1,) * n,)
    w_x, w_theta = scaled_chain(w, vectors[::-1])
    assert (w_x, w_theta) == tuple(oracle_chain(w, vectors))
    diagonal = (1 + (rho - 1) * (p - 1)) % p
    assert w_theta == from_rows(
        field, [[diagonal if i == j else 0 for j in range(n)] for i in range(n)])
