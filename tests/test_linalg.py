from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from thetaforge.linalg import fraction_inverse, integral_gso, row_reduce_mod_p


def square(entries):
    return st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def rectangular(entries):
    return st.integers(1, 8).flatmap(lambda cols: st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=1, max_size=8))


def rank_f2(rows):
    """Reference: rank over F_2 of rows given as integer bitmasks."""
    rows = [r for r in rows if r]
    rank = 0
    for bit in range(max(rows).bit_length() if rows else 0):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i] >> bit & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> bit & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def fraction_det(mat):
    """Reference: determinant by Fraction elimination with row swaps."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


@settings(max_examples=100, deadline=None)
@given(rectangular(st.integers(0, 1)))
def test_f2_echelon_rank_equals_bitmask_rank(rows):
    basis, pivots = row_reduce_mod_p(rows, 2)
    masks = [sum(bit << j for j, bit in enumerate(row)) for row in rows]
    assert len(basis) == len(pivots) == rank_f2(masks)


@settings(max_examples=60, deadline=None)
@given(square(st.integers(-9, 9)))
def test_fraction_inverse_times_matrix_is_identity(mat):
    try:
        inv = fraction_inverse(mat)
    except ValueError:
        assert fraction_det(mat) == 0
        reject()
    n = len(mat)
    prod = [[sum(inv[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == [[Fraction(int(i == j)) for j in range(n)]
                    for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(rectangular(st.integers(-4, 4)))
def test_integral_gso_minors_are_fraction_determinants(b):
    """For B with independent rows, d[i] of B B^T is the leading minor of
    order i; for dependent rows the Gram is singular and is refused."""
    gram = [[sum(x * y for x, y in zip(u, v)) for v in b] for u in b]
    if fraction_det(gram) == 0:
        with pytest.raises(ValueError):
            integral_gso(gram)
        return
    d, _ = integral_gso(gram)
    assert d == [fraction_det([row[:i] for row in gram[:i]])
                 for i in range(len(gram) + 1)]
