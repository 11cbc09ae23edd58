from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thetaforge.cyclotomic import CycInt, CycRat
from thetaforge.fpcode import standard_codes, weight_enumerator
from thetaforge.qexp import QSeries, compose_enumerator, eta, t_shift, to_json_obj


def S(terms, cutoff, p=3, N=1):
    return QSeries.from_exponents(p, terms, cutoff, N=N)


def test_difference_of_squares_at_tight_cutoff():
    a = S({0: 1, 1: 1}, 2)
    b = S({0: 1, 1: -1}, 2)
    prod = a * b
    assert prod.cutoff == 2
    assert prod.coeff(0).as_fraction() == 1
    assert prod.coeff(1).is_zero()
    assert prod.coeff(2).as_fraction() == -1
    with pytest.raises(ValueError):
        prod.coeff(3)


def test_cutoff_is_pessimistic_under_multiplication():
    a = S({0: 1, 1: 1}, 2)
    c = S({1: 5}, 4)           # valuation 1
    assert (a * c).cutoff == 3  # min(2 + 1, 4 + 0)


def test_geometric_series_inverse():
    one_minus_q = S({0: 1, 1: -1}, 3)
    inv = one_minus_q.inverse()
    assert inv == S({0: 1, 1: 1, 2: 1, 3: 1}, 3)
    assert inv * one_minus_q == S({0: 1}, 3)


def test_inverse_shifts_valuation():
    a = S({1: 2, 2: 2}, 4)      # 2q(1+q)
    inv = a.inverse()
    assert inv.valuation() == -1
    assert inv.cutoff == 2
    assert (inv * a) == S({0: 1}, 2)


def test_power_including_negative():
    a = S({0: 1, 1: 1}, 4)
    assert a ** 3 == S({0: 1, 1: 3, 2: 3, 3: 1}, 4)
    assert a ** 0 == S({0: 1}, 4)
    b = a ** -2
    assert b == S({0: 1, 1: -2, 2: 3, 3: -4, 4: 5}, 4)


def _repeated_power(series, e):
    """x^e by e-1 successive products, the reference for __pow__."""
    if e < 0:
        series, e = series.inverse(), -e
    if e == 0:
        return series ** 0
    out = series
    for _ in range(e - 1):
        out = out * series
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_power_matches_repeated_products(p):
    zeta = CycInt.zeta_pow(p, 1)
    series = (eta(p, 2),
              S({Fraction(-1, 3): 1, 0: zeta, Fraction(2, 3): 2 - zeta}, 2,
                p=p, N=3))
    for x in series:
        for e in list(range(-6, 25)) + [47]:
            assert (to_json_obj(x ** e)
                    == to_json_obj(_repeated_power(x, e))), (p, e)
            assert (x ** e).cutoff == _repeated_power(x, e).cutoff, (p, e)


def test_eta_leading_and_pentagonal_terms():
    e = eta(3, Fraction(1, 24))
    assert e.items() == [(Fraction(1, 24), CycRat.from_rational(3, 1))]
    e = eta(3, 3)
    assert e.coeff(Fraction(1, 24)).as_fraction() == 1
    assert e.coeff(Fraction(25, 24)).as_fraction() == -1
    assert e.coeff(Fraction(49, 24)).as_fraction() == -1
    assert e.coeff(3).is_zero()
    with pytest.raises(ValueError):
        eta(3, Fraction(1, 48))


def test_eta_24th_power_is_discriminant_series():
    d = eta(3, 2) ** 24
    assert d.valuation() == 1
    assert d.coeff(1).as_fraction() == 1
    assert d.coeff(2).as_fraction() == -24
    assert d.cutoff == 2 + Fraction(23, 24)


def test_mixed_denominator_addition():
    a = S({Fraction(1, 3): 3}, 2, N=3)
    b = S({0: 1, 1: 1}, 2)
    tot = a + b
    assert tot.coeff(Fraction(1, 3)).as_fraction() == 3
    assert tot.coeff(1).as_fraction() == 1
    assert tot.N == 3


def test_t_shift_rotates_fractional_exponents():
    zeta = CycInt.zeta_pow(3, 1)
    a = S({0: 1, Fraction(1, 3): 2, 1: 5}, 2, N=3)
    sh = t_shift(a)
    assert sh.coeff(0).as_fraction() == 1
    assert sh.coeff(1).as_fraction() == 5          # integer exponents fixed
    assert sh.coeff(Fraction(1, 3)) == CycRat(2 * zeta)
    # period p, and multiplicativity
    assert t_shift(t_shift(sh)) == a
    b = S({Fraction(2, 3): 1, 1: -1}, 2, N=3)
    assert t_shift(a * b) == t_shift(a) * t_shift(b)
    with pytest.raises(ValueError):
        t_shift(eta(3, 1))


def test_compose_enumerator_mass_at_one():
    w = weight_enumerator(standard_codes("hamming8"))
    one = QSeries.one(2, 5)
    out = compose_enumerator(w, [one, one])
    assert out.coeff(0).as_fraction() == 16


def test_compose_enumerator_arity_check():
    w = weight_enumerator(standard_codes("tetracode"))
    with pytest.raises(ValueError):
        compose_enumerator(w, [QSeries.one(3, 2)])


def test_json_serialization_shape():
    a = S({Fraction(1, 3): CycRat(CycInt(3, [1, 2]), 2), 1: -1}, 2, N=3)
    obj = to_json_obj(a)
    assert obj == [
        {"exp": "1/3", "coef": {"coeffs": [1, 2], "den": 2}},
        {"exp": "1", "coef": {"coeffs": [-1, 0], "den": 1}},
    ]


def test_equality_is_cutoff_relative():
    assert S({0: 1}, 2) == S({0: 1, 3: 9}, 3)      # differ beyond min cutoff
    assert S({0: 1}, 2) != S({0: 1, 2: 9}, 3)


coef = st.integers(min_value=-5, max_value=5)
poly = st.lists(coef, min_size=1, max_size=5)


def _mk(c):
    return S(dict(enumerate(c)), 6)


@settings(max_examples=50, deadline=None)
@given(poly, poly, poly)
def test_series_ring_laws(a, b, c):
    x, y, z = _mk(a), _mk(b), _mk(c)
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
