import time
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from thetaforge.cyclotomic import CycRat
from thetaforge.fpcode import standard_codes, weight_enumerator
from thetaforge.qexp import (
    QSeries, _digits_bound, compose_enumerator, eta_power, to_json_obj,
)

from test_cyclotomic import as_fraction, inverse, zeta_pow


def eta(p, cutoff):
    """Dedekind eta = q^(1/24) * prod(1 - q^n), via the pentagonal sparse form:
    the reference whose QSeries powers eta_power is checked against.

    The cutoff must be at least 1/24 so the leading term is representable.
    """
    cutoff = Fraction(cutoff)
    if cutoff < Fraction(1, 24):
        raise ValueError("cutoff below the leading exponent 1/24")
    terms = {}
    limit = cutoff * 24 - 1          # offsets above q^(1/24)
    k = 0
    while True:
        hit = False
        for kk in ([0] if k == 0 else [k, -k]):
            off = kk * (3 * kk - 1) * 12    # 24 * k(3k-1)/2
            if off <= limit:
                terms[1 + off] = 1 if kk % 2 == 0 else -1
                hit = True
        if not hit and k > 0:
            break
        k += 1
    return QSeries(p, 24, terms, cutoff)


def S(terms, cutoff, p=3, N=1):
    """A series in q^(1/N) from a map Fraction exponent -> coefficient."""
    scaled = {}
    for e, v in terms.items():
        k = Fraction(e) * N
        assert k.denominator == 1
        scaled[int(k)] = v
    return QSeries(p, N, scaled, cutoff)


def t_shift(series):
    """Send q^(k/N) to e^(2 pi i k / N) q^(k/N); needs N | p (or N = 1).
    A reference helper: no command needs it, so it lives here and not in
    qexp."""
    p = series.p
    if series.N not in (1, p):
        raise ValueError("t_shift needs exponent denominator 1 or p")
    if series.N == 1:
        return series
    terms = {k: c * zeta_pow(p, k)
             for k, c in series.terms.items()}
    return QSeries(p, series.N, terms, series.cutoff)


def series_inverse(x):
    """Reference inverse of a series whose leading coefficient is nonzero,
    by the triangular recurrence on the unit part; eta_power's powers
    below 1 are checked against powers of it."""
    if not x.terms:
        raise ZeroDivisionError("inverse of the zero series")
    v = x.valuation()
    kv = min(x.terms)
    m = int((x.cutoff - v) * x.N)    # largest offset the precision allows
    if m < 0:
        raise ValueError("no usable precision for inverse")
    u = {k - kv: c for k, c in x.terms.items()}   # unit part, u[0] = lead
    lead_inv = inverse(u[0])
    b = {0: lead_inv}
    for j in range(1, m + 1):
        acc = None
        for i in range(0, j):
            if i in b and (j - i) in u:
                t = b[i] * u[j - i]
                acc = t if acc is None else acc + t
        if acc is not None and not acc.is_zero():
            b[j] = -(lead_inv * acc)
    return QSeries(x.p, x.N, {j - kv: c for j, c in b.items()},
                   x.cutoff - 2 * v)


def test_difference_of_squares_at_tight_cutoff():
    a = S({0: 1, 1: 1}, 2)
    b = S({0: 1, 1: -1}, 2)
    prod = a * b
    assert prod.cutoff == 2
    # 1 - q^2 through the cutoff: no q term
    assert prod.items() == [(0, 1), (2, -1)]


def test_cutoff_is_pessimistic_under_multiplication():
    a = S({0: 1, 1: 1}, 2)
    c = S({1: 5}, 4)           # valuation 1
    assert (a * c).cutoff == 3  # min(2 + 1, 4 + 0)


def test_geometric_series_inverse():
    one_minus_q = S({0: 1, 1: -1}, 3)
    inv = series_inverse(one_minus_q)
    assert inv == S({0: 1, 1: 1, 2: 1, 3: 1}, 3)
    assert inv * one_minus_q == S({0: 1}, 3)


def test_inverse_shifts_valuation():
    a = S({1: 2, 2: 2}, 4)      # 2q(1+q)
    inv = series_inverse(a)
    assert inv.valuation() == -1
    assert inv.cutoff == 2
    assert (inv * a) == S({0: 1}, 2)


def test_power_including_negative():
    a = S({0: 1, 1: 1}, 4)
    assert a ** 3 == S({0: 1, 1: 3, 2: 3, 3: 1}, 4)
    assert a ** 0 == S({0: 1}, 4)
    b = series_inverse(a) ** 2
    assert b == S({0: 1, 1: -2, 2: 3, 3: -4, 4: 5}, 4)
    # a negative power raises instead of looping in square-and-multiply
    with pytest.raises(ValueError):
        a ** -2


def _repeated_power(series, e):
    """x^e by e-1 successive products, the reference for __pow__."""
    if e < 0:
        series, e = series_inverse(series), -e
    if e == 0:
        return series ** 0
    out = series
    for _ in range(e - 1):
        out = out * series
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_power_matches_repeated_products(p):
    zeta = zeta_pow(p, 1)
    series = (eta(p, 2),
              S({Fraction(-1, 3): 1, 0: zeta, Fraction(2, 3): 2 - zeta}, 2,
                p=p, N=3))
    for x in series:
        with pytest.raises(ValueError):
            x ** -1
        for e in list(range(-6, 25)) + [47]:
            got = series_inverse(x) ** -e if e < 0 else x ** e
            assert to_json_obj(got) == to_json_obj(_repeated_power(x, e)), (
                p, e)
            assert got.cutoff == _repeated_power(x, e).cutoff, (p, e)


def test_eta_leading_and_pentagonal_terms():
    e = eta(3, Fraction(1, 24))
    assert e.items() == [(Fraction(1, 24), CycRat.from_int(3, 1))]
    e = eta(3, 3)
    # q^(1/24) (1 - q - q^2 + q^5 + ...) through q^3: nothing at q^3
    assert e.items() == [(Fraction(1, 24), 1), (Fraction(25, 24), -1),
                         (Fraction(49, 24), -1)]
    with pytest.raises(ValueError):
        eta(3, Fraction(1, 48))


def partition_numbers(m):
    """p(0), ..., p(m) by the standard recurrence over parts of size k."""
    counts = [1] + [0] * m
    for k in range(1, m + 1):
        for n in range(k, m + 1):
            counts[n] += counts[n - k]
    return counts


def test_eta_inverse_is_partition_generating_function():
    # eta^-1 = q^(-1/24) sum_n p(n) q^n, through the inclusive cutoff
    parts = partition_numbers(6)
    for cutoff in (Fraction(1, 24), Fraction(23, 24), 1, 3, Fraction(145, 24)):
        series = eta_power(3, -1, cutoff)
        assert series.cutoff == cutoff
        want = [(n - Fraction(1, 24), parts[n]) for n in range(7)
                if n - Fraction(1, 24) <= cutoff]
        assert [(e, as_fraction(c)) for e, c in series.items()] == want
    # other powers e < 1: eta^e eta^-e = 1 through the cutoff
    for power in (-3, -2, 0):
        series = eta_power(3, power, 2)
        assert series.cutoff == 2
        product = series * eta(3, 4) ** -power
        assert product.cutoff >= 2 and product == S({0: 1}, 2)
    assert eta_power(3, 2, 1) == eta(3, 1) ** 2
    with pytest.raises(ValueError):
        eta_power(3, -1, 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-30, 30),
       st.fractions(Fraction(1, 24), 5, max_denominator=30))
def test_eta_power_recurrence_matches_series_power(power, cutoff):
    # Miller's recurrence against QSeries.__pow__ on eta (on its
    # series_inverse for negative powers), with the old reach rule for
    # powers below 1: the same terms, N and cutoff
    if power >= 1:
        want = eta(5, cutoff) ** power
    else:
        base = eta(5, cutoff + Fraction(1 - power, 24))
        if power < 0:
            base = series_inverse(base)
        want = (base ** abs(power)).truncate(cutoff)
    got = eta_power(5, power, cutoff)
    assert (got.N, got.cutoff, got.terms) == (want.N, want.cutoff, want.terms)


@pytest.mark.parametrize("power", [1, -1, 5, -7, -24, 3000, 10 ** 8,
                                   10 ** 20])
def test_digits_bound_holds(power):
    # the refusal of large powers reads this bound, never the series
    for cutoff in (3, 20, 60):
        series = eta_power(3, power, cutoff)
        n = (max(series.terms) - power) // 24
        digits = max(len(str(abs(as_fraction(c)))) for _, c in series.items())
        bound = _digits_bound(abs(power), n)
        assert digits <= bound
        if power >= 3000:   # close when the power is large against n
            assert bound - digits <= 3


def test_eta_power_large_positive_power_is_fast():
    # eta^(10^8) through q^100: the recurrence does about 100 steps, where
    # square-and-multiply took seconds; its leading terms are
    # q^(10^8/24) (1 - 10^8 q + ...)
    start = time.perf_counter()
    series = eta_power(3, 10 ** 8, 100)
    assert time.perf_counter() - start < 1
    assert series.cutoff == 100 + Fraction(10 ** 8 - 1, 24)
    items = series.items()
    assert len(items) == 100     # q^(10^8/24 + n), n = 0 .. 99
    assert [(e, as_fraction(c)) for e, c in items[:2]] == [
        (Fraction(10 ** 8, 24), 1), (Fraction(10 ** 8, 24) + 1, -10 ** 8)]


def test_eta_24th_power_is_discriminant_series():
    d = eta(3, 2) ** 24
    assert d.valuation() == 1
    coeffs = dict(d.items())
    assert as_fraction(coeffs[1]) == 1
    assert as_fraction(coeffs[2]) == -24
    assert d.cutoff == 2 + Fraction(23, 24)


def test_mixed_denominator_addition():
    a = S({Fraction(1, 3): 3}, 2, N=3)
    b = S({0: 1, 1: 1}, 2)
    tot = a + b
    coeffs = dict(tot.items())
    assert as_fraction(coeffs[Fraction(1, 3)]) == 3
    assert as_fraction(coeffs[1]) == 1
    assert tot.N == 3


def test_t_shift_rotates_fractional_exponents():
    zeta = zeta_pow(3, 1)
    a = S({0: 1, Fraction(1, 3): 2, 1: 5}, 2, N=3)
    sh = t_shift(a)
    coeffs = dict(sh.items())
    assert as_fraction(coeffs[0]) == 1
    assert as_fraction(coeffs[1]) == 5            # integer exponents fixed
    assert coeffs[Fraction(1, 3)] == 2 * zeta
    # period p, and multiplicativity
    assert t_shift(t_shift(sh)) == a
    b = S({Fraction(2, 3): 1, 1: -1}, 2, N=3)
    assert t_shift(a * b) == t_shift(a) * t_shift(b)
    with pytest.raises(ValueError):
        t_shift(eta(3, 1))


def test_compose_enumerator_mass_at_one():
    w = weight_enumerator(standard_codes("hamming8"))
    one = S({0: 1}, 5, p=2)
    out = compose_enumerator(w, [one, one])
    assert out.items() == [(0, 16)]


def test_compose_enumerator_arity_check():
    w = weight_enumerator(standard_codes("tetracode"))
    with pytest.raises(ValueError, match="need 2 component series, got 1"):
        compose_enumerator(w, [S({0: 1}, 2)])
    with pytest.raises(ValueError, match="need 2 component series, got 3"):
        compose_enumerator(w, [S({0: 1}, 2)] * 3)


def test_json_serialization_shape():
    a = S({Fraction(1, 3): CycRat(3, [1, 2], 2), 1: -1}, 2, N=3)
    obj = to_json_obj(a)
    assert obj == [
        {"exp": "1/3", "coef": {"coeffs": [1, 2], "den": 2}},
        {"exp": "1", "coef": {"coeffs": [-1, 0], "den": 1}},
    ]


def test_equality_is_cutoff_relative():
    assert S({0: 1}, 2) == S({0: 1, 3: 9}, 3)      # differ beyond min cutoff
    assert S({0: 1}, 2) != S({0: 1, 2: 9}, 3)
    # the term at exactly the smaller cutoff is compared, one past it not,
    # also when that cutoff lies off the exponent grid
    a = S({0: 1, Fraction(2, 3): 2}, Fraction(2, 3), N=3)
    assert a != S({0: 1, Fraction(2, 3): 3}, 1, N=3)
    assert a == S({0: 1, Fraction(2, 3): 2, 1: 5}, 1, N=3)
    assert a == S({0: 1, Fraction(2, 3): 2}, Fraction(5, 7), N=3)
    assert a != 1 and S({0: 1, 1: 4}, Fraction(1, 2)) == 1


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


def reference_eq(x, y):
    """The subtraction-based equality that QSeries.__eq__ replaced: every
    exponent up to the smaller cutoff, a coefficient missing on one side
    read as zero, and each pair compared through its difference."""
    try:
        a, b = x._common(y)
    except ValueError:
        return NotImplemented
    lim = min(a.cutoff, b.cutoff) * a.N
    for k in set(a.terms) | set(b.terms):
        if k <= lim:
            ca = a.terms.get(k)
            cb = b.terms.get(k)
            if ca is None or cb is None:
                if not (ca or cb).is_zero():
                    return False
            elif not (ca - cb).is_zero():
                return False
    return True


def coefficients(p):
    digits = st.lists(st.integers(-2, 2), min_size=p - 1, max_size=p - 1)
    return st.builds(lambda cs, d: CycRat(p, cs, d), digits,
                     st.integers(1, 3))


@st.composite
def series_pairs(draw, foreign=True):
    """A series and something to compare it with: an unrelated series, a
    rescaled and recut copy, such a copy with one term changed (often at or
    just past the smaller cutoff), a scalar (half the time equal to x, made
    the constant series of that scalar), or (when foreign) a value of
    another prime or no number at all."""
    p = draw(st.sampled_from((2, 3, 5)))
    coef = coefficients(p)

    def cutoff(N):              # in [-1, 3], on the grid or off it
        d = draw(st.sampled_from((1, N, 7)))
        return Fraction(draw(st.integers(-d, 3 * d)), d)

    def series(N):
        terms = draw(st.dictionaries(st.integers(-N, 3 * N), coef,
                                     max_size=5))
        return QSeries(p, N, terms, cutoff(N))

    x = series(draw(st.sampled_from((1, p, 24))))
    how = draw(st.sampled_from(("unrelated", "copy", "edited", "scalar")
                               + ("foreign",) * foreign))
    if how == "scalar":
        c = draw(st.one_of(
            st.integers(-2, 2), coef,
            coef.map(lambda c: CycRat(c.p, c.coeffs)),     # den 1
            st.fractions(max_denominator=3).filter(lambda f: abs(f) < 3)))
        if draw(st.booleans()):     # often equal: x as the constant c
            x = QSeries(p, x.N, {0: c}, x.cutoff)
        return x, c
    if how == "foreign":          # another prime, or no number at all
        q = 7 if p == 2 else 2
        return x, draw(st.one_of(
            st.just(QSeries(q, 1, {0: 1}, 1)), coefficients(q),
            st.sampled_from(("x", None, 1j))))
    if how == "unrelated":
        return x, series(draw(st.sampled_from((1, p, 24))))
    M = x.N * draw(st.sampled_from((1, 2, p)))
    # a cutoff a few grid steps from x's, or anywhere
    near = x.cutoff + Fraction(draw(st.integers(-2, 2)), M)
    y_cutoff = draw(st.one_of(st.just(near), st.just(cutoff(M))))
    terms = dict(x.with_N(M).terms)
    if how == "edited":       # at the smaller cutoff, or one step past it
        lim = floor(min(x.cutoff, y_cutoff) * M)
        terms[lim + draw(st.integers(0, 1))] = draw(
            st.one_of(st.just(0), coef))
    y = QSeries(p, M, terms, y_cutoff)
    return (y, x) if draw(st.booleans()) else (x, y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(series_pairs())
def test_equality_matches_subtraction_reference(pair):
    x, y = pair
    want = reference_eq(x, y)        # NotImplemented for a foreign operand
    assert x.__eq__(y) is want
    assert (x == y) is (want is True) and (x != y) is (want is not True)
    # the reflected order, for every operand type: a scalar declines a
    # series, so Python asks the series
    assert (y == x) is (want is True) and (y != x) is (want is not True)


def snapshot(series):
    return series.N, series.cutoff, series.terms, dict(series.terms)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(series_pairs(foreign=False))
def test_ring_operations_leave_their_operands_alone(pair):
    x, y = pair
    assert x.with_N(x.N) is x
    before = [snapshot(s) for s in pair if isinstance(s, QSeries)]
    assert isinstance(x == y, bool)
    results = [x + y, x - y, x.__rsub__(y), x * y, -x, x.scale(2), x ** 2,
               x.with_N(2 * x.N), x.truncate(x.cutoff - 1)]
    # y on the left: a scalar (int, Fraction or CycRat) declines a
    # series, so Python asks x for the reflected operation
    left = [y + x, y - x, y * x]
    assert left[0] == results[0] and left[2] == results[3]
    assert left[1] == -results[1]
    results += left
    try:
        results.append(series_inverse(x))
    except (ValueError, ZeroDivisionError):
        pass
    # the canonical form equality relies on: no zero and nothing past the
    # cutoff is stored
    for r in results:
        assert all(Fraction(k, r.N) <= r.cutoff and not c.is_zero()
                   for k, c in r.terms.items())
    after = [snapshot(s) for s in pair if isinstance(s, QSeries)]
    for (N, cutoff, terms, copy), (N2, cutoff2, terms2, _) in zip(before,
                                                                  after):
        assert (N2, cutoff2) == (N, cutoff)
        assert terms2 is terms and terms == copy
