"""Exact field-op counts of the elimination kernels on their early-exit paths.

``det`` and ``mat_inv`` count in locals and report once; these literals pin
that the work done before an early ``return 0`` or a ``SingularMatrixError``
is still counted, and that rows skipped for a zero factor are not.
"""

from __future__ import annotations

import pytest

from nnsig.errors import SingularMatrixError
from nnsig.field import Field, count_ops
from nnsig.matrix import det, from_rows, mat_inv

F7 = Field(7)
# Column 0 eliminates both rows below it; column 1 pivots on a swapped row and
# meets a zero factor; column 2 has no pivot.
SINGULAR = from_rows(F7, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
# Upper triangular: every factor below the diagonal is zero.
TRIANGULAR = from_rows(F7, [[2, 1, 0], [0, 3, 1], [0, 0, 4]])


def _counts(counter):
    return (counter.muls, counter.adds, counter.subs, counter.invs)


def test_det_of_singular_matrix_counts_the_columns_before_the_early_return():
    with count_ops() as c:
        assert det(SINGULAR) == 0
    assert _counts(c) == (8, 0, 6, 2)


def test_mat_inv_of_singular_matrix_counts_the_work_before_the_raise():
    with count_ops() as c:
        with pytest.raises(SingularMatrixError):
            mat_inv(SINGULAR)
    assert _counts(c) == (30, 0, 18, 2)


def test_zero_elimination_factors_are_not_counted():
    with count_ops() as c:
        assert det(TRIANGULAR) == 3
    assert _counts(c) == (3, 0, 0, 3)
    with count_ops() as c:
        inverse = mat_inv(TRIANGULAR)
    assert inverse.rows == ((4, 1, 5), (0, 5, 4), (0, 0, 2))
    assert _counts(c) == (36, 0, 18, 3)
