from collections import Counter
from fractions import Fraction

import pytest

from thetaforge.codelattice import (
    box_count_by_norm, count_by_norm, discriminant, is_even, lattice_info,
    lattice_of_code, lift_word, minimal_norm, short_vectors,
    standard_lattice, theta_series,
)
from thetaforge.cyclotomic import trace_pairing
from thetaforge.fpcode import make_code, standard_codes, zero_code
from thetaforge.linalg import bareiss_det, integer_row_basis
from thetaforge.qexp import QSeries


def loeschian_counts(limit):
    """Brute force r(k) = #{(x,y) in Z^2 : x^2 - xy + y^2 = k}, k <= limit."""
    counts = Counter()
    box = 2 * limit + 2
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            k = x * x - x * y + y * y
            if k <= limit:
                counts[k] += 1
    return counts


def test_linear_algebra_helpers():
    assert bareiss_det([[2, -1], [-1, 2]]) == 3
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    basis = integer_row_basis([[2, 4], [3, 6], [0, 5]])
    assert len(basis) == 2
    assert bareiss_det(basis) in (5, -5)


def test_rank_two_block_gram_and_counts():
    lat = standard_lattice(3, 1)
    assert lat.gram == ((2, -1), (-1, 2))
    assert discriminant(lat) == 3
    vecs = short_vectors(lat, 2)
    assert len(vecs) == 7
    norms = sorted(v.norm for v in vecs)
    assert norms == [0] + [2] * 6
    coords = {v.coords for v in vecs}
    assert all(tuple(-c for c in v) in coords for v in coords)


def test_block_lattice_discriminants():
    assert discriminant(standard_lattice(3, 2)) == 9
    lat5 = standard_lattice(5, 1)
    assert lat5.rank == 4
    assert lat5.gram == ((2, -1, 0, 0), (-1, 2, -1, 0),
                         (0, -1, 2, -1), (0, 0, -1, 2))
    assert discriminant(lat5) == 5


def test_vector_norms_match_cyclotomic_pairing():
    lat = standard_lattice(5, 1)
    for v in short_vectors(lat, 4):
        els = v.elements()
        norm = sum((trace_pairing(e, e) for e in els), Fraction(0))
        assert norm == v.norm


def test_lattice_requires_self_orthogonal_linear_odd():
    with pytest.raises(ValueError):
        lattice_of_code(standard_codes("hamming8"))      # p = 2
    with pytest.raises(ValueError):
        lattice_of_code(make_code(3, 2, generators=[(1, 0)]))
    nonlinear = make_code(3, 2, words=[(0, 0), (1, 1), (2, 0)])
    with pytest.raises(ValueError):
        lattice_of_code(nonlinear)


def test_tetracode_lattice_is_unimodular_rank_eight():
    lat = lattice_of_code(standard_codes("tetracode"))
    assert lat.rank == 8
    assert discriminant(lat) == 1
    assert is_even(lat)
    assert minimal_norm(lat) == 2
    counts = count_by_norm(lat, 2)
    assert counts == {Fraction(0): 1, Fraction(2): 240}


def test_tetracode_theta_matches_known_expansion():
    lat = lattice_of_code(standard_codes("tetracode"))
    th = theta_series(lat, 3)
    expected = QSeries.from_exponents(
        3, {0: 1, 1: 240, 2: 2160, 3: 6720}, 3)
    assert th == expected


def test_box_oracle_agrees_with_recursive_enumeration():
    lat = standard_lattice(3, 1)
    assert box_count_by_norm(lat, 8) == count_by_norm(lat, 8)
    assert (box_count_by_norm(lat, 8, shift_word=(1,))
            == count_by_norm(lat, 8, shift_word=(1,)))
    lat5 = standard_lattice(5, 1)
    assert (box_count_by_norm(lat5, 4, shift_word=(2,))
            == count_by_norm(lat5, 4, shift_word=(2,)))
    big = lattice_of_code(standard_codes("golay12"))
    with pytest.raises(ValueError):
        box_count_by_norm(big, 2)


def test_shifted_counts_are_negation_symmetric():
    lat = standard_lattice(3, 2)
    a = count_by_norm(lat, 4, shift_word=(1, 2))
    b = count_by_norm(lat, 4, shift_word=(2, 1))
    assert a == b


def test_theta_of_shifted_block_lattice():
    lat = standard_lattice(3, 1)
    th = theta_series(lat, Fraction(13, 3), shift_word=(1,))
    want = {Fraction(1, 3): 3, Fraction(4, 3): 3, Fraction(7, 3): 6,
            Fraction(10, 3): 0, Fraction(13, 3): 6}
    for e, c in want.items():
        assert th.coeff(e).as_fraction() == c
    assert th.valuation() == Fraction(1, 3)


def test_theta_zero_class_matches_quadratic_form_count():
    # independent oracle: direct count of x^2 - xy + y^2 representations
    oracle = loeschian_counts(7)
    th = theta_series(standard_lattice(3, 1), 7)
    for k in range(8):
        assert th.coeff(k).as_fraction() == oracle.get(k, 0)
    # frozen values, misprint-corrected: no q^2 term, q^3 present
    assert [th.coeff(k).as_fraction() for k in range(8)] == \
        [1, 6, 0, 6, 6, 0, 0, 12]


def test_coset_decomposition_sums_to_code_lattice_theta():
    code = standard_codes("tetracode")
    lat = lattice_of_code(code)
    block = standard_lattice(3, 4)
    total = None
    for w in code.words:
        part = theta_series(block, 2, shift_word=w)
        total = part if total is None else total + part
    assert total == theta_series(lat, 2)


def test_lattice_info_shape():
    info = lattice_info(lattice_of_code(standard_codes("tetracode")))
    assert info == {"rank": 8, "discriminant": 1, "even": True,
                    "minimal_norm": 2}


def test_enumeration_cap(monkeypatch):
    lat = standard_lattice(3, 1)
    monkeypatch.setenv("THETA_FORGE_MAX_NORM", "6")
    with pytest.raises(ValueError):
        count_by_norm(lat, 8)
    monkeypatch.setenv("THETA_FORGE_MAX_NORM", "8")
    assert count_by_norm(lat, 8)[Fraction(8)] == 6


def test_golay_lattice_smoke():
    lat = lattice_of_code(standard_codes("golay12"))
    assert lat.rank == 24
    assert is_even(lat)
    assert discriminant(lat) == 1
    assert count_by_norm(lat, 2) == {Fraction(0): 1, Fraction(2): 72}
