"""The per-message half of :mod:`nnsig.matrix`, the part a ``verify`` child runs.

``matrix`` imports every name here; its docstring lists them and states the
slot bound they keep and the codec layout.
"""

from __future__ import annotations

import operator
import struct
from typing import NamedTuple, Optional, Tuple

from .errors import DimensionMismatch, MalformedEncoding, ParameterError, UnsupportedVersion
from .field import Field, tally

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


# struct codes of the widths encoded and decoded in one C call; 16-byte slots
# decode in one call too, any other width through one int.from_bytes/to_bytes
# per entry.
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
    if width == 16:  # the product slots at p = 2^61 - 1: two Qs per slot
        halves = struct.unpack(f"<{len(buf) // 16 * 2}Q", buf)
        return tuple([lo | hi << 64 for lo, hi in zip(halves[::2], halves[1::2])])
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


def encode_elements(field: Field, values) -> bytes:
    """Field elements back to back, ``field.element_size`` bytes each."""
    return encode_uints(values, field.element_size)


def read_elements(field: Field, buf: bytes, offset: int, count: int, what: str,
                  end: Optional[str] = None):
    """Decode count elements at offset; returns (tuple, next_offset).

    The length is checked before anything is decoded: given ``end``, the name
    of the file or payload this run closes, the elements must end buf or raise
    "trailing bytes after <end>".  Any entry >= p is rejected.
    """
    size = field.element_size
    stop = offset + count * size
    if len(buf) < stop:
        raise MalformedEncoding(f"truncated {what} payload")
    if end is not None and len(buf) > stop:
        raise MalformedEncoding(f"trailing bytes after {end}")
    out = decode_uints(buf[offset:stop], size)
    if out and max(out) >= field.p:
        raise MalformedEncoding(f"{what} entry {max(out)} out of range for p={field.p}")
    return out, stop


def encode_vector(field: Field, v) -> bytes:
    return _LEN.pack(len(v)) + encode_elements(field, v)


def read_vector(field: Field, buf: bytes, offset: int = 0, length: Optional[int] = None,
                end: Optional[str] = None) -> tuple:
    """Decode one vector at offset; returns (vector, next_offset).

    Given length, a vector that declares another raises DimensionMismatch
    ("length L, expected N") before any entry is decoded; end is as for
    read_elements.
    """
    if len(buf) < offset + _LEN.size:
        raise MalformedEncoding("truncated vector length")
    (declared,) = _LEN.unpack_from(buf, offset)
    if declared > MAX_DECODE_DIM:
        raise MalformedEncoding(f"vector length {declared} above decode cap")
    if length is not None and declared != length:
        raise DimensionMismatch(f"length {declared}, expected {length}")
    return read_elements(field, buf, offset + _LEN.size, declared, "vector", end)


def encode_matrix(a: MatrixZp) -> bytes:
    flat = [x for row in a.rows for x in row]
    return _DIMS.pack(a.n_rows, a.n_cols) + encode_elements(a.field, flat)


def read_matrix(field: Field, buf: bytes, offset: int = 0, shape: Optional[tuple] = None,
                end: Optional[str] = None):
    """Decode one matrix at offset; returns (matrix, next_offset).

    Given shape (rows, cols), a matrix that declares another raises
    DimensionMismatch ("RxC, expected RxC") before any entry is decoded; end
    is as for read_elements.
    """
    if len(buf) < offset + _DIMS.size:
        raise MalformedEncoding("truncated matrix header")
    n_rows, n_cols = _DIMS.unpack_from(buf, offset)
    if n_rows == 0 or n_cols == 0 or n_rows > MAX_DECODE_DIM or n_cols > MAX_DECODE_DIM:
        raise MalformedEncoding(f"bad matrix dimensions {n_rows}x{n_cols}")
    if shape is not None and (n_rows, n_cols) != shape:
        raise DimensionMismatch(f"{n_rows}x{n_cols}, expected {shape[0]}x{shape[1]}")
    flat, stop = read_elements(field, buf, offset + _DIMS.size, n_rows * n_cols, "matrix", end)
    return MatrixZp(field, split_rows(flat, n_rows, n_cols)), stop
