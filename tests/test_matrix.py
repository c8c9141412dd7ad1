"""Matrix algebra over Z_p: hand oracles, algebraic laws, codecs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nnsig.errors import DimensionMismatch, MalformedEncoding, SingularMatrixError
from nnsig.field import Field
from nnsig.matrix import (
    MatrixZp,
    PermutationMatrix,
    det,
    diag_from_vector,
    encode_matrix,
    encode_vector,
    from_rows,
    identity,
    is_identity,
    mat_add,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_vec,
    random_invertible,
    random_matrix,
    read_matrix,
    read_vector,
    vec_add,
    vec_mat,
    vec_sub,
)


def test_is_identity_checks_every_entry(f7):
    def eye(n):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    stray, two = eye(4), eye(4)
    stray[2][0] = 1
    two[3][3] = 2
    assert is_identity(identity(f7, 4)) and is_identity(from_rows(f7, eye(1)))
    assert not is_identity(from_rows(f7, stray))
    assert not is_identity(from_rows(f7, two))
    assert not is_identity(from_rows(f7, eye(3)[:2]))  # not square


def test_identity_is_neutral(f7):
    rng = random.Random(1)
    a = random_matrix(f7, 3, 3, rng)
    i = identity(f7, 3)
    assert mat_mul(i, a) == a
    assert mat_mul(a, i) == a


def test_hand_product(f5):
    a = from_rows(f5, [[1, 1], [0, 1]])
    assert mat_mul(a, a).rows == ((1, 2), (0, 1))


def test_mul_associativity(f257):
    rng = random.Random(2)
    for _ in range(25):
        a = random_matrix(f257, 4, 4, rng)
        b = random_matrix(f257, 4, 4, rng)
        c = random_matrix(f257, 4, 4, rng)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_mul_shape_mismatch(f5):
    a = from_rows(f5, [[1, 2, 3], [4, 0, 1]])
    with pytest.raises(DimensionMismatch):
        mat_mul(a, a)
    with pytest.raises(DimensionMismatch, match="different fields"):
        mat_mul(a, from_rows(Field(7), [[1, 0], [0, 1], [0, 0]]))


def test_pow_trivial_exponents(f7):
    rng = random.Random(3)
    a = random_matrix(f7, 3, 3, rng)
    assert mat_pow(a, 0) == identity(f7, 3)
    assert mat_pow(a, 1) == a


def test_pow_matches_repeated_multiplication(f5):
    # Oracle: naive repeated multiplication.
    a = from_rows(f5, [[1, 1], [0, 1]])
    naive = a
    for _ in range(2):
        naive = mat_mul(naive, a)
    assert naive.rows == ((1, 3), (0, 1))
    assert mat_pow(a, 3).rows == ((1, 3), (0, 1))


def test_pow_exponent_additivity():
    f = Field(97)
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randrange(2, 6)
        a = random_matrix(f, n, n, rng)
        e1, e2 = rng.randrange(0, 51), rng.randrange(0, 51)
        assert mat_mul(mat_pow(a, e1), mat_pow(a, e2)) == mat_pow(a, e1 + e2)


def test_inverse_roundtrip(f257):
    rng = random.Random(5)
    for _ in range(20):
        a = random_invertible(f257, 4, rng)
        assert mat_mul(a, mat_inv(a)) == identity(f257, 4)
        assert mat_mul(mat_inv(a), a) == identity(f257, 4)


def test_inverse_anti_homomorphism(f257):
    rng = random.Random(6)
    for _ in range(10):
        a = random_invertible(f257, 3, rng)
        b = random_invertible(f257, 3, rng)
        assert mat_inv(mat_mul(a, b)) == mat_mul(mat_inv(b), mat_inv(a))


def test_permutation_inverse_is_transpose(f5):
    perm = PermutationMatrix((2, 0, 1))
    m = perm.to_matrix(f5)
    transpose = MatrixZp(f5, tuple(zip(*m.rows)))
    assert mat_inv(m) == transpose
    assert perm.inverse().to_matrix(f5) == transpose


def test_singular_matrix_rejected(f5):
    ones = from_rows(f5, [[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        mat_inv(ones)
    assert det(ones) == 0


def test_det_hand_value(f5):
    assert det(from_rows(f5, [[2, 1], [1, 2]])) == 3


def test_det_multiplicative(f257):
    rng = random.Random(7)
    for _ in range(20):
        a = random_matrix(f257, 3, 3, rng)
        b = random_matrix(f257, 3, 3, rng)
        assert det(mat_mul(a, b)) == det(a) * det(b) % 257


def test_det_of_identity_and_swap(f7):
    assert det(identity(f7, 4)) == 1
    swapped = PermutationMatrix((1, 0, 2, 3)).to_matrix(f7)
    assert det(swapped) == 7 - 1  # one transposition flips the sign


def test_det_zero_iff_no_inverse(f7):
    rng = random.Random(8)
    for _ in range(50):
        a = random_matrix(f7, 3, 3, rng)
        if det(a) == 0:
            with pytest.raises(SingularMatrixError):
                mat_inv(a)
        else:
            mat_inv(a)


def test_diag_examples(f5):
    assert diag_from_vector(f5, (1, 1, 1)) == identity(f5, 3)
    assert diag_from_vector(f5, (2, 3)).rows == ((2, 0), (0, 3))
    assert det(diag_from_vector(f5, (2, 0))) == 0
    assert det(diag_from_vector(f5, (2, 3))) == 6 % 5


def test_vector_products(f5):
    a = from_rows(f5, [[1, 1], [0, 1]])
    assert vec_mat((1, 2), a) == (1, 3)
    assert mat_vec(a, (1, 2)) == (3, 2)
    q = (3, 4, 2)
    assert vec_mat(q, identity(f5, 3)) == q


def test_vector_add_sub_roundtrip(f257):
    rng = random.Random(9)
    for _ in range(50):
        u = tuple(rng.randrange(257) for _ in range(6))
        v = tuple(rng.randrange(257) for _ in range(6))
        assert vec_sub(f257, vec_add(f257, u, v), v) == u


def test_vector_shape_mismatch(f5):
    with pytest.raises(DimensionMismatch):
        vec_add(f5, (1, 2), (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        mat_vec(identity(f5, 2), (1, 2, 3))


def test_permutation_validation():
    with pytest.raises(DimensionMismatch):
        PermutationMatrix((0, 0, 1))


def test_permutation_apply_matches_matrix(f7):
    rng = random.Random(10)
    for _ in range(20):
        perm = PermutationMatrix.random(5, rng)
        v = tuple(rng.randrange(7) for _ in range(5))
        assert perm.apply(v) == mat_vec(perm.to_matrix(f7), v)
        m = random_matrix(f7, 5, 5, rng)
        assert perm.permute_rows(m) == mat_mul(perm.to_matrix(f7), m)
        assert perm.inverse().apply(perm.apply(v)) == v


def test_matrix_codec_roundtrip(f257):
    rng = random.Random(12)
    for _ in range(20):
        m = random_matrix(f257, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        assert read_matrix(f257, encode_matrix(m), end="matrix")[0] == m


def test_vector_codec_roundtrip():
    f = Field((1 << 61) - 1)
    rng = random.Random(13)
    v = tuple(rng.randrange(f.p) for _ in range(9))
    assert read_vector(f, encode_vector(f, v), end="vector")[0] == v


def test_matrix_codec_rejects_corruption(f257):
    blob = encode_matrix(identity(f257, 3))
    with pytest.raises(MalformedEncoding):
        read_matrix(f257, blob[:-1], end="matrix")  # truncated payload
    with pytest.raises(MalformedEncoding, match="trailing bytes after matrix"):
        read_matrix(f257, blob + b"\x00", end="matrix")  # trailing junk
    with pytest.raises(MalformedEncoding):
        read_matrix(f257, blob[:3], end="matrix")  # truncated header
    # entry out of range: 257 <= value < 2^16
    bad = blob[:8] + (500).to_bytes(2, "little") + blob[10:]
    with pytest.raises(MalformedEncoding):
        read_matrix(f257, bad, end="matrix")


def test_vector_codec_rejects_oversized_length(f257):
    blob = (1 << 24).to_bytes(4, "little")
    with pytest.raises(MalformedEncoding):
        read_vector(f257, blob, end="vector")


def test_mat_add_and_shapes(f7):
    a = from_rows(f7, [[1, 2], [3, 4]])
    b = from_rows(f7, [[6, 6], [6, 6]])
    assert mat_add(a, b).rows == ((0, 1), (2, 3))
    with pytest.raises(DimensionMismatch):
        mat_add(a, identity(f7, 3))


# --- shape checks and the fixed-width codec -------------------------------------


@pytest.mark.parametrize("rows", [((1, 2), (3,)), ((), ()), ((1,), (2, 3))])
def test_ragged_or_empty_rows_are_refused(f7, rows):
    from nnsig.matrix import SquaringTable

    bad = MatrixZp(f7, rows)
    good = identity(f7, 2)
    for call in (lambda: mat_mul(bad, good), lambda: mat_mul(good, bad), lambda: mat_inv(bad),
                 lambda: det(bad), lambda: SquaringTable(bad)):
        with pytest.raises(DimensionMismatch):
            call()
    with pytest.raises(DimensionMismatch):
        mat_mul(bad, from_rows(f7, []))
    with pytest.raises(DimensionMismatch):
        from_rows(f7, rows)


def _uints_oracle(values, width):
    return b"".join(x.to_bytes(width, "little") for x in values)


@given(st.data(), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 16]))
def test_uints_codec_matches_the_per_entry_oracle(data, width):
    from nnsig.matrix import decode_uints, encode_uints

    values = data.draw(st.lists(st.integers(0, (1 << 8 * width) - 1), max_size=40))
    encoded = encode_uints(values, width)
    assert encoded == _uints_oracle(values, width)
    assert decode_uints(encoded, width) == tuple(values)


@pytest.mark.parametrize("width", [3, 5, 16])
def test_decode_uints_reads_random_buffers_as_the_per_entry_path(width):
    """Width 16, the product slots at p = 2^61 - 1, is read as pairs of
    struct Qs; 3 and 5 have no struct code and read one slot at a time."""
    from nnsig.matrix import decode_uints

    rng = random.Random(width)
    for count in (0, 1, 2, 26, 676):
        buf = rng.randbytes(count * width)
        per_entry = tuple(int.from_bytes(buf[i : i + width], "little")
                          for i in range(0, len(buf), width))
        assert decode_uints(buf, width) == per_entry


def test_element_codec_roundtrip_at_a_three_byte_modulus():
    field = Field(65539)
    assert field.element_size == 3
    rng = random.Random(5)
    v = tuple([0, 1, 65538] + [rng.randrange(65539) for _ in range(40)])
    blob = encode_vector(field, v)
    assert len(blob) == 4 + 3 * len(v)
    assert read_vector(field, blob, end="vector")[0] == v
    a = random_matrix(field, 3, 5, rng)
    assert read_matrix(field, encode_matrix(a), end="matrix")[0] == a
    over = blob[:-3] + (65539).to_bytes(3, "little")
    with pytest.raises(MalformedEncoding):
        read_vector(field, over, end="vector")
