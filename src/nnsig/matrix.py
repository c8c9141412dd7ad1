"""Dense matrix and vector algebra over Z_p.

Matrices are immutable row-major tuples of plain ints in ``[0, p)``; vectors
are plain tuples.  Inner products accumulate exact integer sums and reduce
once at the end.

``mat_mul``, ``mat_inv`` and ``det`` work on packed rows (Kronecker
substitution): a row of entries becomes one Python int with a fixed number of
bytes per entry ("slot"), so one big-int multiply-add updates a whole row.
A slot is sized by :func:`_slot_width` to hold ``terms * (p - 1)**2 + p``,
rounded up to 1, 2, 4 or 8 bytes where that suffices so that ``struct``
packs and unpacks it.  ``mat_mul`` sums ``n_cols`` products per slot;
elimination adds ``(p - f) * pivot_row`` (never a negative slot) and reduces
a row only when it becomes the pivot, so a slot takes at most ``n - 1``
additions of at most ``(p - 1)**2`` between reductions.  Both stay inside the
slot, so no carry crosses into the next entry.  The bound holds only for
entries in ``[0, p)``; the kernels check it and raise ``ParameterError`` for
any other entry rather than return a wrong result.

Also home to the fixed-width little-endian codecs shared by key files,
signature files and wire frames: a matrix is ``u32 rows | u32 cols | entries``
and a vector is ``u32 len | entries``, each entry ``field.element_size`` bytes.
Every element run in every format goes through :func:`encode_elements` and
:func:`read_elements`; every file starts with a magic (and, except the theta
file, a version byte) checked by :func:`read_header`; a modulus read from a
file becomes a :class:`Field` through :func:`field_from_wire`.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DimensionMismatch,
    MalformedEncoding,
    ParameterError,
    SingularMatrixError,
    UnsupportedVersion,
)
from .field import Field, tally

# Decoders refuse dimensions above this (allocation guard, not a math limit).
MAX_DECODE_DIM = 1 << 20

_DIMS = struct.Struct("<II")
_LEN = struct.Struct("<I")


@dataclass(frozen=True)
class MatrixZp:
    """Immutable dense matrix over a prime field; every entry lies in [0, p).

    The constructor does not reduce or check entries (``from_rows`` does);
    ``mat_mul``, ``mat_inv`` and ``det`` refuse a matrix that breaks the range.
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
    if reduced:
        width = len(reduced[0])
        if width == 0 or any(len(r) != width for r in reduced):
            raise DimensionMismatch("ragged or empty rows")
    return MatrixZp(field, reduced)


def identity(field: Field, n: int) -> MatrixZp:
    return MatrixZp(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


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


def _check_entries(a: MatrixZp) -> None:
    """Refuse entries outside [0, p): they would borrow or carry across slots."""
    if a.rows and (min(map(min, a.rows)) < 0 or max(map(max, a.rows)) >= a.field.p):
        raise ParameterError(f"matrix entries must lie in [0, {a.field.p})")


# struct codes of the slot widths packed and unpacked in C; wider slots (large
# p) go through one int.from_bytes/to_bytes per entry.
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_width(p: int, terms: int) -> int:
    """Bytes per slot for a sum of ``terms`` products of two entries plus one entry."""
    need = ((terms * (p - 1) ** 2 + p).bit_length() + 7) // 8
    return next((width for width in _SLOT_CODES if width >= need), need)


def _pack(values, width: int) -> int:
    """Entries as one int, ``width`` bytes per slot, the first in the lowest slot."""
    code = _SLOT_CODES.get(width)
    if code:
        data = struct.pack(f"<{len(values)}{code}", *values)
    else:
        data = b"".join([x.to_bytes(width, "little") for x in values])
    return int.from_bytes(data, "little")


def _unpack(value: int, count: int, width: int, p: int) -> tuple:
    """The ``count`` slots of a packed int, each reduced mod p."""
    buf = value.to_bytes(count * width, "little")
    code = _SLOT_CODES.get(width)
    if code:
        slots = struct.unpack(f"<{count}{code}", buf)
    else:
        slots = [int.from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width)]
    return tuple([x % p for x in slots])


def mat_mul(a: MatrixZp, b: MatrixZp) -> MatrixZp:
    _same_field(a, b)
    if a.n_cols != b.n_rows:
        raise DimensionMismatch(f"cannot multiply {a.n_rows}x{a.n_cols} by {b.n_rows}x{b.n_cols}")
    p = a.field.p
    _check_entries(a)
    _check_entries(b)
    width = _slot_width(p, a.n_cols)
    packed_b = [_pack(row, width) for row in b.rows]
    # Output row i is sum_k a[i][k] * (row k of B): one multiply-add per k, all
    # n_cols slots at once, carry-free because every slot sum fits its width.
    out = tuple(
        _unpack(sum(map(operator.mul, arow, packed_b)), b.n_cols, width, p) for arow in a.rows
    )
    tally(muls=a.n_rows * b.n_cols * a.n_cols, adds=a.n_rows * b.n_cols * (a.n_cols - 1))
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
    once.  A table may be shared between threads: growth builds a new tuple
    and publishes it with one assignment, so a race at worst squares twice.
    """

    def __init__(self, base: MatrixZp) -> None:
        if base.n_rows != base.n_cols:
            raise DimensionMismatch("only square matrices have powers")
        self.base = base
        self._squares = (base,)

    def _factors(self, e: int) -> list:
        """The squares whose product is base^e, one per set bit of e."""
        if e < 0:
            raise ValueError("negative exponents are not defined here; invert first")
        squares = self._squares
        if len(squares) < e.bit_length():
            grown = list(squares)
            while len(grown) < e.bit_length():
                grown.append(mat_mul(grown[-1], grown[-1]))
            squares = tuple(grown)
            self._squares = squares
        return [squares[k] for k in range(e.bit_length()) if e >> k & 1]

    def mat_pow(self, e: int) -> MatrixZp:
        """base^e; e must be a non-negative integer."""
        factors = self._factors(e)
        if not factors:
            return identity(self.base.field, self.base.n_rows)
        result = factors[0]
        for square in factors[1:]:
            result = mat_mul(result, square)
        return result

    def vec_pow(self, v, e: int) -> tuple:
        """Row-vector product v*base^e as a chain of vector-matrix products."""
        if len(v) != self.base.n_rows:
            raise DimensionMismatch(
                f"length-{len(v)} vector times {self.base.n_rows}x{self.base.n_cols} matrix"
            )
        p = self.base.field.p
        out = tuple(x % p for x in v)
        for square in self._factors(e):
            out = vec_mat(out, square)
        return out


def mat_pow(a: MatrixZp, e: int) -> MatrixZp:
    """Square-and-multiply; e must be a non-negative integer."""
    return SquaringTable(a).mat_pow(e)


def transpose(a: MatrixZp) -> MatrixZp:
    return MatrixZp(a.field, tuple(zip(*a.rows)))


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
    return MatrixZp(a.field, tuple(_unpack(row >> bits * n, n, width, p) for row in work))


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


@dataclass(frozen=True)
class PermutationMatrix:
    """Row permutation stored as an index array: applying it maps v[i] <- v[perm[i]]."""

    perm: tuple

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise DimensionMismatch(f"{self.perm!r} is not a permutation of 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "PermutationMatrix":
        return cls(tuple(range(n)))

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

    def compose(self, other: "PermutationMatrix") -> "PermutationMatrix":
        """self ∘ other, matching to_matrix(self) @ to_matrix(other)."""
        if self.n != other.n:
            raise DimensionMismatch("permutation sizes differ")
        return PermutationMatrix(tuple(other.perm[t] for t in self.perm))


# --- fixed-width little-endian codecs ---------------------------------------


def field_from_wire(p: int) -> Field:
    """The field of a modulus read from a file or frame; a bad one is an encoding error."""
    try:
        return Field(p)
    except ParameterError as exc:
        raise MalformedEncoding(f"bad modulus in file: {exc}") from exc


def read_header(data: bytes, magic: bytes, version: Optional[int], kind: str) -> int:
    """Check a file's magic and version byte; returns the offset after them.

    ``version=None`` means the format has no version byte.
    """
    end = len(magic) + (version is not None)
    if len(data) < end:
        raise MalformedEncoding(f"{kind} file shorter than its header")
    if data[: len(magic)] != magic:
        raise MalformedEncoding(f"bad {kind} magic {data[:len(magic)]!r}")
    if version is not None and data[len(magic)] != version:
        raise UnsupportedVersion(f"{kind} format version {data[len(magic)]} not supported")
    return end


def encode_elements(field: Field, values) -> bytes:
    """Field elements back to back, ``field.element_size`` bytes each."""
    size = field.element_size
    return b"".join([x.to_bytes(size, "little") for x in values])


def read_elements(field: Field, buf: bytes, offset: int, count: int, what: str):
    """Decode count elements at offset; returns (tuple, next_offset).

    The length is checked before anything is decoded, and any entry >= p is
    rejected.
    """
    size = field.element_size
    end = offset + count * size
    if len(buf) < end:
        raise MalformedEncoding(f"truncated {what} payload")
    out = tuple([int.from_bytes(buf[i : i + size], "little") for i in range(offset, end, size)])
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
    if end != len(buf):
        raise MalformedEncoding("trailing bytes after vector")
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
    rows = tuple(flat[i : i + n_cols] for i in range(0, len(flat), n_cols))
    return MatrixZp(field, rows), end


def decode_matrix(field: Field, buf: bytes) -> MatrixZp:
    m, end = read_matrix(field, buf, 0)
    if end != len(buf):
        raise MalformedEncoding("trailing bytes after matrix")
    return m
