"""Dense matrix and vector algebra over Z_p.

Matrices are immutable row-major tuples of plain ints in ``[0, p)``; vectors
are plain tuples.  Inner products accumulate exact integer sums and reduce
once at the end.

``mat_mul``, ``mat_inv``, ``det`` and the powers of :class:`SquaringTable`
work on packed rows (Kronecker substitution): a row of entries becomes one
Python int with a fixed number of bytes per entry ("slot"), so one big-int
multiply-add updates a whole row.  :class:`PackedMatVec` packs a matrix's
columns the same way, so ``A·v`` is one multiply-add per column.  A slot is
sized by :func:`_slot_width` to hold ``terms * (p - 1)**2 + p``, rounded up
to 1, 2, 4 or 8 bytes where that suffices so that ``struct`` packs and
unpacks it.  A product sums ``n_cols`` products per slot (a
``PackedMatVec`` may add one packed entry more); elimination adds
``(p - f) * pivot_row`` (never a negative slot) and reduces a row only when
it becomes the pivot, so a slot takes at most ``n - 1`` additions of at most
``(p - 1)**2`` between reductions.  Both stay inside the slot, so no carry
crosses into the next entry.  A product's rows are unpacked together,
through one :func:`decode_uints` call.

The bound holds only for entries in ``[0, p)``.  The range check runs once,
where a matrix comes in from a caller: both operands of ``mat_mul``, the
operand of ``mat_inv`` and ``det``, the base of a ``SquaringTable`` (and so
of ``mat_pow``), the matrix of :func:`scaled_chain` (the weights of
``network.unroll``) and that of a ``PackedMatVec``.  Any other entry raises
``ParameterError`` rather than give a wrong result.  Products a kernel takes
of its own reduced output (the squares and multiplies inside a table, the
steps of ``scaled_chain``) go through the unchecked :func:`_product` and
never through the public ``mat_mul``; the slot layout is known to this
module and ``_packed`` only.

This module holds the set-up kernels, ``PermutationMatrix`` and the
constructors.  The per-message half, which a ``verify`` child imports alone,
lives in ``_packed``: ``MatrixZp`` and its range check, the slot rule,
``PackedMatVec``, ``mat_vec``, ``vec_mat``, ``vec_add``, ``vec_sub``, and the
fixed-width little-endian codecs shared by key files, signature files and
wire frames.  There a matrix is ``u32 rows | u32 cols | entries`` and a
vector is ``u32 len | entries``, each entry ``field.element_size`` bytes.
Every fixed-width integer run, in a format or a packed kernel, goes through
``encode_uints`` and ``decode_uints``, every element run through
``encode_elements`` and ``read_elements``, and rows are cut from a flat run
by ``split_rows``; every file starts with a magic (and, except the theta
file, a version byte) and its fixed header fields, checked and unpacked by
``read_header``, and its last run, read with ``end=``, refuses trailing
bytes; a modulus read from a file becomes a ``Field`` through
``field_from_wire``.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Tuple

from .errors import DimensionMismatch, ParameterError, SingularMatrixError
from .field import Field, FrozenValue, tally
from ._packed import (
    MatrixZp, _check_entries, _check_shape, _pack, _slot_width, _slots, _unpack, _width_for,
    split_rows,
)
# Read here only from outside src: by tests, perfbench/tracing.py's TRACED table and CI.
from ._packed import (  # noqa: F401
    PackedMatVec, decode_uints, encode_matrix, encode_uints, encode_vector, mat_vec, read_matrix,
    read_vector, vec_add, vec_mat, vec_sub,
)


def from_rows(field: Field, rows) -> MatrixZp:
    """Checked constructor; reduces arbitrary ints mod p."""
    p = field.p
    reduced = tuple(tuple(int(x) % p for x in row) for row in rows)
    _check_shape(reduced)
    return MatrixZp(field, reduced)


def identity(field: Field, n: int) -> MatrixZp:
    return MatrixZp(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def is_identity(a: MatrixZp) -> bool:
    """Whether a matrix is the identity, without building one to compare with."""
    n = a.n_rows
    return a.n_cols == n and all(r[i] == 1 and r.count(0) == n - 1 for i, r in enumerate(a.rows))


def diag_from_vector(field: Field, v) -> MatrixZp:
    """Diagonal matrix with v on the diagonal."""
    n = len(v)
    return MatrixZp(
        field, tuple(tuple(v[i] % field.p if i == j else 0 for j in range(n)) for i in range(n))
    )


def random_matrix(field: Field, n_rows: int, n_cols: int, rng) -> MatrixZp:
    p = field.p
    return MatrixZp(
        field, tuple(tuple(rng.randrange(p) for _ in range(n_cols)) for _ in range(n_rows))
    )


def random_invertible(field: Field, n: int, rng) -> MatrixZp:
    """Rejection-sample a uniform invertible matrix."""
    while True:
        m = random_matrix(field, n, n, rng)
        if det(m) != 0:
            return m


def _same_field(a: MatrixZp, b: MatrixZp) -> None:
    if a.field.p != b.field.p:
        raise DimensionMismatch("operands live in different fields")


def _product(rows, packed, cols: int, width: int, p: int, scale=None) -> tuple:
    """``rows`` times the matrix whose rows are ``packed``, reduced; with
    ``scale``, column j of the product is multiplied by ``scale[j]`` first.

    Unchecked and untallied: the callers check their operands once, where
    they come in, and count the product themselves.
    """
    # Row i is sum_k rows[i][k] * packed[k]: one multiply-add per k updates
    # every slot at once, carry-free because every slot sum fits its width.
    sums = _slots([sum(map(operator.mul, row, packed)) for row in rows], cols, width)
    if scale is not None:
        sums = map(operator.mul, sums, scale * len(rows))
    return split_rows([x % p for x in sums], len(rows), cols)


def _tally_product(n_rows: int, inner: int, n_cols: int) -> None:
    tally(muls=n_rows * n_cols * inner, adds=n_rows * n_cols * (inner - 1))


def mat_mul(a: MatrixZp, b: MatrixZp) -> MatrixZp:
    _same_field(a, b)
    if a.n_cols != b.n_rows:
        raise DimensionMismatch(f"cannot multiply {a.n_rows}x{a.n_cols} by {b.n_rows}x{b.n_cols}")
    p = a.field.p
    _check_entries(a)
    _check_entries(b)
    width = _slot_width(p, a.n_cols)
    out = _product(a.rows, [_pack(row, width) for row in b.rows], b.n_cols, width, p)
    _tally_product(a.n_rows, a.n_cols, b.n_cols)
    return MatrixZp(a.field, out)


def mat_add(a: MatrixZp, b: MatrixZp) -> MatrixZp:
    _same_field(a, b)
    if a.n_rows != b.n_rows or a.n_cols != b.n_cols:
        raise DimensionMismatch("matrix addition needs equal shapes")
    p = a.field.p
    out = tuple(
        tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)
    )
    tally(adds=a.n_rows * a.n_cols)
    return MatrixZp(a.field, out)


class SquaringTable:
    """The squares ``a, a^2, a^4, ...`` of one square matrix, grown on demand.

    Any power of the base is then the product of the squares picked by the
    set bits of its exponent, so a table kept across calls pays each squaring
    once.  Each square is kept as its packed rows only, which serve its own
    squaring, every product ``mat_pow`` takes with it and every step of a
    ``vec_pow`` chain; its entries are unpacked only where a square is the
    left operand.  The base is range-checked once, here; the squares are
    the kernels' own reduced output.  A table may be shared between threads:
    growth builds a new tuple and publishes it with one assignment, so a race
    at worst squares twice.
    """

    def __init__(self, base: MatrixZp) -> None:
        if base.n_rows != base.n_cols:
            raise DimensionMismatch("only square matrices have powers")
        _check_entries(base)
        self.base = base
        self._width = _slot_width(base.field.p, base.n_rows)
        self._squares = (self._packed(base.rows),)

    def _packed(self, rows) -> tuple:
        return tuple([_pack(row, self._width) for row in rows])

    def _rows(self, packed) -> tuple:
        """The rows of a square from its packed rows (whose slots are reduced)."""
        n = self.base.n_rows
        return split_rows(_slots(packed, n, self._width), n, n)

    def _times(self, rows, packed) -> tuple:
        """rows @ the square whose rows are ``packed``; unchecked, tallied."""
        n = self.base.n_rows
        _tally_product(len(rows), n, n)
        return _product(rows, packed, n, self._width, self.base.field.p)

    def _factors(self, e: int) -> list:
        """Packed rows of the squares whose product is base^e, one per set bit of e."""
        if e < 0:
            raise ValueError("negative exponents are not defined here; invert first")
        squares = self._squares
        if len(squares) < e.bit_length():
            grown = list(squares)
            rows = self._rows(grown[-1])
            while len(grown) < e.bit_length():
                rows = self._times(rows, grown[-1])
                grown.append(self._packed(rows))
            squares = tuple(grown)
            self._squares = squares
        return [squares[k] for k in range(e.bit_length()) if e >> k & 1]

    def mat_pow(self, e: int) -> MatrixZp:
        """base^e; e must be a non-negative integer."""
        factors = self._factors(e)
        if not factors:
            return identity(self.base.field, self.base.n_rows)
        rows = self._rows(factors[0])
        for packed in factors[1:]:
            rows = self._times(rows, packed)
        return MatrixZp(self.base.field, rows)

    def vec_pow(self, v, e: int) -> tuple:
        """Row-vector product v*base^e, one packed multiply-add per factor."""
        n = self.base.n_rows
        if len(v) != n:
            raise DimensionMismatch(f"length-{len(v)} vector times {n}x{n} matrix")
        p = self.base.field.p
        rows = (tuple(x % p for x in v),)
        for packed in self._factors(e):
            rows = self._times(rows, packed)
        return rows[0]


def mat_pow(a: MatrixZp, e: int) -> MatrixZp:
    """Square-and-multiply; e must be a non-negative integer."""
    return SquaringTable(a).mat_pow(e)


def scaled_chain(a: MatrixZp, scales) -> Tuple[MatrixZp, MatrixZp]:
    """``(P_m, I + P_1 + ... + P_{m-1})`` for ``m = len(scales)``, where
    ``P_1 = a @ diag(scales[0])`` and ``P_k = P_{k-1} @ a @ diag(scales[k-1])``.

    ``a`` is range-checked and packed once.  Each ``diag`` is applied to a
    product's slots as they are reduced, so no scaled copy of ``a`` is
    built, and the sum is kept in one packed int whose slots hold
    ``m * (p - 1)``, reduced once.  Untallied: the caller counts the work.
    """
    if a.n_rows != a.n_cols:
        raise DimensionMismatch("only square matrices chain")
    n, p = a.n_rows, a.field.p
    if not scales:
        raise ParameterError("a chain needs at least one scale vector")
    if any(len(scale) != n for scale in scales):
        raise DimensionMismatch(f"scale vectors must have length {n}")
    _check_entries(a)
    width = _slot_width(p, n)
    packed = [_pack(row, width) for row in a.rows]
    sum_width = _width_for(len(scales) * (p - 1))
    total = sum(1 << 8 * sum_width * (n + 1) * i for i in range(n))  # the identity
    rows = tuple(tuple([x * s % p for x, s in zip(row, scales[0])]) for row in a.rows)
    for scale in scales[1:]:
        total += _pack(list(chain.from_iterable(rows)), sum_width)
        rows = _product(rows, packed, n, width, p, scale)
    total = split_rows([x % p for x in _slots((total,), n * n, sum_width)], n, n)
    return MatrixZp(a.field, rows), MatrixZp(a.field, total)


def mat_inv(a: MatrixZp) -> MatrixZp:
    """Gauss-Jordan inverse; raises SingularMatrixError when rank-deficient."""
    if a.n_rows != a.n_cols:
        raise DimensionMismatch("only square matrices are invertible")
    n = a.n_rows
    p = a.field.p
    _check_entries(a)
    width = _slot_width(p, n)
    bits = 8 * width
    mask = (1 << bits) - 1
    # Row i of [A | I], packed: slots 0..n-1 hold A's row, slot n+i holds the 1.
    work = [_pack(row, width) | 1 << bits * (n + i) for i, row in enumerate(a.rows)]
    # Counted in locals and tallied once, on the way out or before the raise.
    rows_done = 0
    for col in range(n):
        shift = bits * col
        pivot = next((r for r in range(col, n) if (work[r] >> shift & mask) % p), None)
        if pivot is None:
            tally(muls=2 * n * (col + rows_done), subs=2 * n * rows_done, invs=col)
            raise SingularMatrixError(f"no pivot in column {col}")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
        pivot_row = _unpack(work[col], 2 * n, width, p)
        inv_p = pow(pivot_row[col], p - 2, p)
        wc = work[col] = _pack([x * inv_p % p for x in pivot_row], width)
        for r in range(n):
            if r == col:
                continue
            factor = (work[r] >> shift & mask) % p
            if factor == 0:
                continue
            work[r] += (p - factor) * wc
            rows_done += 1
    tally(muls=2 * n * (n + rows_done), subs=2 * n * rows_done, invs=n)
    inverse = [x % p for x in _slots([row >> bits * n for row in work], n, width)]
    return MatrixZp(a.field, split_rows(inverse, n, n))


def det(a: MatrixZp) -> int:
    """Determinant via elimination with row-swap sign tracking."""
    if a.n_rows != a.n_cols:
        raise DimensionMismatch("determinant needs a square matrix")
    n = a.n_rows
    p = a.field.p
    _check_entries(a)
    width = _slot_width(p, n)
    bits = 8 * width
    mask = (1 << bits) - 1
    work = [_pack(row, width) for row in a.rows]
    d = 1
    # Counted in locals and tallied once, on the way out or before the early return.
    rows_done = subs = 0
    for col in range(n):
        shift = bits * col
        pivot = next((r for r in range(col, n) if (work[r] >> shift & mask) % p), None)
        if pivot is None:
            tally(muls=rows_done + subs, subs=subs, invs=col)
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            d = -d
        pivot_row = _unpack(work[col], n, width, p)
        d = d * pivot_row[col] % p
        inv_p = pow(pivot_row[col], p - 2, p)
        wc = _pack(pivot_row, width)
        eliminated = 0
        for r in range(col + 1, n):
            factor = (work[r] >> shift & mask) * inv_p % p
            if factor == 0:
                continue
            work[r] += (p - factor) * wc
            eliminated += 1
        rows_done += eliminated
        subs += eliminated * (n - col)
    tally(muls=rows_done + subs + n, subs=subs, invs=n)
    return d


class PermutationMatrix(FrozenValue):
    """Row permutation stored as an index array: applying it maps v[i] <- v[perm[i]]."""

    _fields = ("perm",)

    def __init__(self, perm: tuple) -> None:
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise DimensionMismatch(f"{perm!r} is not a permutation of 0..{n - 1}")
        vars(self).update(perm=perm)

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def random(cls, n: int, rng) -> "PermutationMatrix":
        idx = list(range(n))
        rng.shuffle(idx)
        return cls(tuple(idx))

    def to_matrix(self, field: Field) -> MatrixZp:
        n = self.n
        return MatrixZp(
            field,
            tuple(tuple(1 if j == self.perm[i] else 0 for j in range(n)) for i in range(n)),
        )

    def inverse(self) -> "PermutationMatrix":
        inv = [0] * self.n
        for i, t in enumerate(self.perm):
            inv[t] = i
        return PermutationMatrix(tuple(inv))

    def apply(self, v) -> tuple:
        if len(v) != self.n:
            raise DimensionMismatch("permutation size does not match vector length")
        return tuple(v[t] for t in self.perm)

    def permute_rows(self, a: MatrixZp) -> MatrixZp:
        if a.n_rows != self.n:
            raise DimensionMismatch("permutation size does not match row count")
        return MatrixZp(a.field, tuple(a.rows[t] for t in self.perm))
