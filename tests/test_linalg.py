from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from thetaforge.linalg import (
    bareiss_det, fraction_inverse, rank_f2, row_reduce_mod_p,
)


def square(entries):
    return st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def rectangular(entries):
    return st.integers(1, 8).flatmap(lambda cols: st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=1, max_size=8))


@settings(max_examples=100, deadline=None)
@given(rectangular(st.integers(0, 1)))
def test_f2_echelon_rank_equals_bitmask_rank(rows):
    basis, pivots = row_reduce_mod_p(rows, 2)
    masks = [sum(bit << j for j, bit in enumerate(row)) for row in rows]
    assert len(basis) == len(pivots) == rank_f2(masks)


@settings(max_examples=60, deadline=None)
@given(square(st.integers(-9, 9)))
def test_fraction_inverse_times_matrix_is_identity(mat):
    assume(bareiss_det(mat) != 0)
    inv = fraction_inverse(mat)
    n = len(mat)
    prod = [[sum(inv[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == [[Fraction(int(i == j)) for j in range(n)]
                    for i in range(n)]
