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
module only.

Also home to the fixed-width little-endian codecs shared by key files,
signature files and wire frames: a matrix is ``u32 rows | u32 cols | entries``
and a vector is ``u32 len | entries``, each entry ``field.element_size`` bytes.
Every fixed-width integer run, in a format or a packed kernel, goes through
:func:`encode_uints` and :func:`decode_uints`, every element run through
:func:`encode_elements` and :func:`read_elements`, and rows are cut from a
flat run by :func:`split_rows`; every file starts with a magic (and, except
the theta file, a version byte) and its fixed header fields, checked and
unpacked by :func:`read_header`, and ends where :func:`expect_end` says; a
modulus read from a file becomes a :class:`Field` through
:func:`field_from_wire`.
"""

from __future__ import annotations

import operator
import struct
from itertools import chain
from typing import NamedTuple, Optional, Tuple

from .errors import (
    DimensionMismatch,
    MalformedEncoding,
    ParameterError,
    SingularMatrixError,
    UnsupportedVersion,
)
from .field import Field, FrozenValue, tally

# Decoders refuse dimensions above this (allocation guard, not a math limit).
MAX_DECODE_DIM = 1 << 20

_DIMS = struct.Struct("<II")
_LEN = struct.Struct("<I")
_NO_FIELDS = struct.Struct("<")


class MatrixZp(NamedTuple):
    """Immutable dense matrix over a prime field; every entry lies in [0, p).

    The constructor does not reduce or check entries (``from_rows`` does);
    ``mat_mul``, ``mat_inv``, ``det``, ``SquaringTable`` and ``mat_pow``
    refuse a matrix that breaks the range.
    """

    field: Field
    rows: tuple

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0


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


def _check_shape(rows) -> None:
    """Refuse rows of different lengths, or of length 0."""
    if rows and (not rows[0] or any(len(row) != len(rows[0]) for row in rows)):
        raise DimensionMismatch("ragged or empty rows")


def _check_entries(a: MatrixZp) -> None:
    """Refuse a ragged shape, and entries outside [0, p): they would borrow
    or carry across slots."""
    _check_shape(a.rows)
    if a.rows and (min(map(min, a.rows)) < 0 or max(map(max, a.rows)) >= a.field.p):
        raise ParameterError(f"matrix entries must lie in [0, {a.field.p})")


# struct codes of the widths encoded and decoded in one C call; any other
# width goes through one int.from_bytes/to_bytes per entry.
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def encode_uints(values, width: int) -> bytes:
    """A sequence of non-negative ints, ``width`` little-endian bytes each, back to back."""
    code = _STRUCT_CODES.get(width)
    if code:
        return struct.pack(f"<{len(values)}{code}", *values)
    return b"".join([x.to_bytes(width, "little") for x in values])


def decode_uints(buf, width: int) -> tuple:
    """The ``width``-byte little-endian ints that ``buf`` holds back to back."""
    code = _STRUCT_CODES.get(width)
    if code:
        return struct.unpack(f"<{len(buf) // width}{code}", buf)
    return tuple([int.from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width)])


def split_rows(flat, n_rows: int, n_cols: int) -> tuple:
    """Row-major entries as a tuple of ``n_rows`` row tuples."""
    flat = tuple(flat)
    return tuple([flat[i * n_cols : (i + 1) * n_cols] for i in range(n_rows)])


def _width_for(bound: int) -> int:
    """Bytes per slot for values up to ``bound``, rounded up to a struct width where one fits."""
    need = (bound.bit_length() + 7) // 8
    return next((width for width in _STRUCT_CODES if width >= need), need)


def _slot_width(p: int, terms: int) -> int:
    """Bytes per slot for a sum of ``terms`` products of two entries plus one entry."""
    return _width_for(terms * (p - 1) ** 2 + p)


def _pack(values, width: int) -> int:
    """Entries as one int, ``width`` bytes per slot, the first in the lowest slot."""
    return int.from_bytes(encode_uints(values, width), "little")


def _slots(values, count: int, width: int) -> tuple:
    """The ``count`` slots of each packed int in ``values``, back to back and
    unreduced: one ``encode_uints`` and one ``decode_uints`` call for the lot."""
    return decode_uints(encode_uints(values, count * width), width)


def _unpack(value: int, count: int, width: int, p: int) -> tuple:
    """The ``count`` slots of a packed int, each reduced mod p."""
    return tuple([x % p for x in _slots((value,), count, width)])


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


class PackedMatVec:
    """``A·v`` for one fixed matrix A and many vectors v: A is range-checked
    and its columns packed once, here, so a product is one multiply-add per
    column.  v is reduced first, so any int vector gives what ``mat_vec``
    gives, and each call tallies what ``mat_vec`` tallies.  An addend packed
    by :meth:`pack` joins the sum before its one reduction: the slot bound
    leaves room for one entry in ``[0, p)``."""

    def __init__(self, a: MatrixZp) -> None:
        _check_entries(a)
        self.matrix = a
        self._width = _slot_width(a.field.p, a.n_cols)
        self._cols = tuple([_pack(col, self._width) for col in zip(*a.rows)])

    def pack(self, u) -> int:
        """A vector of ``n_rows`` entries in ``[0, p)`` as an addend of :meth:`__call__`."""
        a = self.matrix
        if len(u) != a.n_rows:
            raise DimensionMismatch(f"addend of length {len(u)} for {a.n_rows} rows")
        if min(u) < 0 or max(u) >= a.field.p:  # would borrow or carry across slots
            raise ParameterError(f"addend entries must lie in [0, {a.field.p})")
        return _pack(u, self._width)

    def __call__(self, v, first: int = 0, addend: Optional[int] = None) -> tuple:
        """Rows ``first..`` of ``A·v``, as ``mat_vec`` gives them for those rows
        of A; with ``addend``, rows ``first..`` of ``A·v + u`` for the ``u`` it packs,
        as ``vec_add`` gives them and tallies."""
        a = self.matrix
        if a.n_cols != len(v):
            raise DimensionMismatch(f"{a.n_rows}x{a.n_cols} matrix times length-{len(v)} vector")
        p, count = a.field.p, a.n_rows - first
        total = sum(map(operator.mul, [x % p for x in v], self._cols))
        adds = count * (a.n_cols - 1)
        if addend is not None:
            total += addend
            adds += count
        tally(muls=count * a.n_cols, adds=adds)
        return _unpack(total >> 8 * self._width * first, count, self._width, p)


def mat_vec(a: MatrixZp, v) -> tuple:
    """Column-vector product A*v."""
    if a.n_cols != len(v):
        raise DimensionMismatch(f"{a.n_rows}x{a.n_cols} matrix times length-{len(v)} vector")
    p = a.field.p
    out = tuple(sum(x * y for x, y in zip(row, v)) % p for row in a.rows)
    tally(muls=a.n_rows * a.n_cols, adds=a.n_rows * (a.n_cols - 1))
    return out


def vec_mat(v, a: MatrixZp) -> tuple:
    """Row-vector product v*A."""
    if a.n_rows != len(v):
        raise DimensionMismatch(f"length-{len(v)} vector times {a.n_rows}x{a.n_cols} matrix")
    p = a.field.p
    out = tuple(sum(x * y for x, y in zip(v, col)) % p for col in zip(*a.rows))
    tally(muls=a.n_rows * a.n_cols, adds=a.n_cols * (a.n_rows - 1))
    return out


def vec_add(field: Field, u, v) -> tuple:
    if len(u) != len(v):
        raise DimensionMismatch("vector addition needs equal lengths")
    p = field.p
    tally(adds=len(u))
    return tuple((x + y) % p for x, y in zip(u, v))


def vec_sub(field: Field, u, v) -> tuple:
    if len(u) != len(v):
        raise DimensionMismatch("vector subtraction needs equal lengths")
    p = field.p
    tally(subs=len(u))
    return tuple((x - y) % p for x, y in zip(u, v))


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


# --- fixed-width little-endian codecs ---------------------------------------


def field_from_wire(p: int) -> Field:
    """The field of a modulus read from a file or frame; a bad one is an encoding error."""
    try:
        return Field(p)
    except ParameterError as exc:
        raise MalformedEncoding(f"bad modulus in file: {exc}") from exc


def read_header(data: bytes, magic: bytes, version: Optional[int], kind: str,
                fields: struct.Struct = _NO_FIELDS) -> Tuple[tuple, int]:
    """Check a file's magic and version byte, then unpack its fixed ``fields``.

    Returns (fields, offset after them); ``version=None`` means the format has
    no version byte.  The version is checked first: another version's header
    may have another length.
    """
    start = len(magic) + (version is not None)
    if data[: len(magic)] != magic:
        raise MalformedEncoding(f"bad {kind} magic {data[:len(magic)]!r}")
    if version is not None and len(data) > len(magic) and data[len(magic)] != version:
        raise UnsupportedVersion(f"{kind} format version {data[len(magic)]} not supported")
    if len(data) < start + fields.size:
        raise MalformedEncoding(f"{kind} file truncated in header")
    return fields.unpack_from(data, start), start + fields.size


def expect_end(data: bytes, offset: int, what: str) -> None:
    """Refuse any bytes after the last field of a file or payload."""
    if offset != len(data):
        raise MalformedEncoding(f"trailing bytes after {what}")


def encode_elements(field: Field, values) -> bytes:
    """Field elements back to back, ``field.element_size`` bytes each."""
    return encode_uints(values, field.element_size)


def read_elements(field: Field, buf: bytes, offset: int, count: int, what: str):
    """Decode count elements at offset; returns (tuple, next_offset).

    The length is checked before anything is decoded, and any entry >= p is
    rejected.
    """
    size = field.element_size
    end = offset + count * size
    if len(buf) < end:
        raise MalformedEncoding(f"truncated {what} payload")
    out = decode_uints(buf[offset:end], size)
    if out and max(out) >= field.p:
        raise MalformedEncoding(f"{what} entry {max(out)} out of range for p={field.p}")
    return out, end


def encode_vector(field: Field, v) -> bytes:
    return _LEN.pack(len(v)) + encode_elements(field, v)


def read_vector(field: Field, buf: bytes, offset: int = 0) -> tuple:
    """Decode one vector at offset; returns (vector, next_offset)."""
    if len(buf) < offset + _LEN.size:
        raise MalformedEncoding("truncated vector length")
    (length,) = _LEN.unpack_from(buf, offset)
    if length > MAX_DECODE_DIM:
        raise MalformedEncoding(f"vector length {length} above decode cap")
    return read_elements(field, buf, offset + _LEN.size, length, "vector")


def decode_vector(field: Field, buf: bytes) -> tuple:
    v, end = read_vector(field, buf, 0)
    expect_end(buf, end, "vector")
    return v


def encode_matrix(a: MatrixZp) -> bytes:
    flat = [x for row in a.rows for x in row]
    return _DIMS.pack(a.n_rows, a.n_cols) + encode_elements(a.field, flat)


def read_matrix(field: Field, buf: bytes, offset: int = 0):
    """Decode one matrix at offset; returns (matrix, next_offset)."""
    if len(buf) < offset + _DIMS.size:
        raise MalformedEncoding("truncated matrix header")
    n_rows, n_cols = _DIMS.unpack_from(buf, offset)
    if n_rows == 0 or n_cols == 0 or n_rows > MAX_DECODE_DIM or n_cols > MAX_DECODE_DIM:
        raise MalformedEncoding(f"bad matrix dimensions {n_rows}x{n_cols}")
    flat, end = read_elements(field, buf, offset + _DIMS.size, n_rows * n_cols, "matrix")
    return MatrixZp(field, split_rows(flat, n_rows, n_cols)), end


def decode_matrix(field: Field, buf: bytes) -> MatrixZp:
    m, end = read_matrix(field, buf, 0)
    expect_end(buf, end, "matrix")
    return m
