import cmath
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thetaforge.cyclotomic import (
    CycRat, _convolve, _reduce_top, as_cycrat, check_prime,
)
from thetaforge.qexp import QSeries

PRIMES = [3, 5, 7]


# Reference helpers.  No command needs them, so they live here and not in
# cyclotomic; the other test files import them from this one.

def zeta_pow(p, k):
    """zeta^k as a basis element (k reduced mod p; zeta^(p-1) expanded)."""
    check_prime(p)
    acc = [0] * p
    acc[k % p] = 1
    return CycRat(p, _reduce_top(p, acc))


def is_rational(x):
    return not any(x.coeffs[1:])


def as_fraction(x):
    """The value of a rational element as a Fraction."""
    if not is_rational(x):
        raise ValueError("not a rational element: %r" % (x,))
    return Fraction(x.coeffs[0], x.den)


def inverse(x):
    """Multiplicative inverse: the cofactor prod_{r=2}^{p-1} sigma_r(x)
    of the numerator x over its norm, the rational constant of
    x * cofactor."""
    if x.is_zero():
        raise ZeroDivisionError("inverse of zero")
    p = x.p
    cofactor = (1,) + (0,) * (p - 2)
    for r in range(2, p):
        cofactor = _convolve(p, cofactor, x.galois(r).coeffs)
    norm = _convolve(p, x.coeffs, cofactor)[0]
    return CycRat(p, [c * x.den for c in cofactor], norm)


def embed(x, r):
    """Complex embedding zeta -> exp(2*pi*i*r/p), 1 <= r <= p-1."""
    if not 1 <= r <= x.p - 1:
        raise ValueError("embedding index out of range")
    z = 0j
    for k, a in enumerate(x.coeffs):
        if a:
            z += a * cmath.exp(2j * cmath.pi * k * r / x.p)
    return z / x.den


def trace_pairing(x, y):
    """The positive definite pairing Tr(x * conj(y)) / p, as a Fraction."""
    if x.p != y.p:
        raise ValueError("mixed primes")
    return Fraction((x * y.conj()).trace(), x.p)


def one_minus_zeta(p):
    """Generator of the ramified prime ideal, 1 - zeta."""
    return CycRat.from_int(p, 1) - zeta_pow(p, 1)


def rho(x):
    """x mod the ramified prime (1 - zeta), found by division: the one r in
    0..p-1 for which (x - r) / (1 - zeta) is a cyclotomic integer."""
    lam = one_minus_zeta(x.p)
    found = [r for r in range(x.p) if ((x - r) * inverse(lam)).den == 1]
    assert len(found) == 1, (x, found)
    return found[0]


def real_embed_pair(x, l):
    """Reference: sigma_l(x * conj(x)) as a float, real and nonnegative by
    construction.  l runs over 1..(p-1)/2, one representative per conjugate
    pair of embeddings."""
    r = (x.p - 1) // 2
    if not 1 <= l <= max(r, 1):
        raise ValueError("real embedding index out of range")
    v = embed(x * x.conj(), l)
    assert abs(v.imag) < 1e-9 * (1 + abs(v.real))
    return v.real


def test_check_prime_rejects_composites():
    for bad in (1, 4, 6, 9, 0, -3):
        with pytest.raises(ValueError):
            check_prime(bad)
    for ok in (2, 3, 5, 7, 11, 13):
        check_prime(ok)


def test_zeta_power_relation():
    # 1 + zeta + ... + zeta^(p-1) = 0
    for p in PRIMES:
        s = CycRat.from_int(p, 0)
        for k in range(p):
            s = s + zeta_pow(p, k)
        assert s.is_zero()


def test_multiplication_reduces_top_power():
    z = zeta_pow(3, 1)
    assert z * z == CycRat(3, [-1, -1])          # zeta^2 = -1 - zeta
    assert z * z * z == CycRat.from_int(3, 1)    # zeta^3 = 1
    z5 = zeta_pow(5, 1)
    assert z5 * zeta_pow(5, 4) == CycRat.from_int(5, 1)


def test_trace_values():
    for p in PRIMES:
        assert CycRat.from_int(p, 1).trace() == p - 1
        assert zeta_pow(p, 1).trace() == -1
        for k in range(1, p - 1):
            assert zeta_pow(p, k).trace() == -1


def test_trace_matches_embedding_sum():
    for p in PRIMES:
        x = CycRat(p, range(1, p))
        total = sum(embed(x, r) for r in range(1, p))
        assert abs(total.imag) < 1e-9
        assert abs(total.real - x.trace()) < 1e-9


def test_conj_is_involution_and_trace_invariant():
    for p in PRIMES:
        x = CycRat(p, [k * k - 3 for k in range(p - 1)])
        assert x.conj().conj() == x
        assert x.conj().trace() == x.trace()


def test_rho_is_ring_homomorphism():
    for p in PRIMES:
        x = CycRat(p, [2 * k + 1 for k in range(p - 1)])
        y = CycRat(p, [5 - k for k in range(p - 1)])
        assert rho(x + y) == (rho(x) + rho(y)) % p
        assert rho(x * y) == (rho(x) * rho(y)) % p
    # zeta == 1 mod (1 - zeta)
    assert rho(zeta_pow(5, 1)) == 1


def test_ramified_generator():
    for p in PRIMES:
        lam = one_minus_zeta(p)
        assert rho(lam) == 0
        # its norm, the product of its p - 1 Galois conjugates, is p
        norm = lam
        for r in range(2, p):
            norm = norm * lam.galois(r)
        assert norm == p
        # so 1/lam is that cofactor over p
        inv = inverse(lam)
        assert inv.den == p and inv * lam == 1
        # pairing of the generator with itself is 2 for every p
        assert trace_pairing(lam, lam) == 2


def test_pairing_positive_definite_and_even_on_kernel():
    for p in PRIMES:
        seen_nonzero = False
        for seed in range(40):
            coeffs = [((seed + 3) ** (k + 2)) % 7 - 3 for k in range(p - 1)]
            x = CycRat(p, coeffs)
            q = trace_pairing(x, x)
            if x.is_zero():
                assert q == 0
                continue
            seen_nonzero = True
            assert q > 0
            if rho(x) == 0:
                assert q.denominator == 1 and q.numerator % 2 == 0
        assert seen_nonzero


def test_pairing_is_symmetric_and_bilinear():
    p = 5
    x = CycRat(p, [1, 2, 0, -1])
    y = CycRat(p, [0, 1, 1, 3])
    z = CycRat(p, [2, -2, 1, 0])
    assert trace_pairing(x, y) == trace_pairing(y, x)
    assert trace_pairing(x + z, y) == trace_pairing(x, y) + trace_pairing(z, y)


def test_real_embed_pair_nonnegative_and_matches_pairing():
    # sum over l of sigma_l(x conj(x)) / p equals pairing(x, x) / 2
    for p in PRIMES:
        r = (p - 1) // 2
        x = CycRat(p, [k + 1 for k in range(p - 1)])
        vals = [real_embed_pair(x, l) for l in range(1, r + 1)]
        assert all(v >= 0 for v in vals)
        lhs = sum(vals) / p
        rhs = trace_pairing(x, x) / 2
        assert abs(lhs - float(rhs)) < 1e-9


def test_cycrat_reduction_and_inverse():
    p = 3
    x = CycRat(p, [2, 4], 6)
    assert x.coeffs == (1, 2) and x.den == 3
    assert CycRat(p, [2, 4], -6) == -x and CycRat(p, [0, 0], 6).den == 1
    inv = inverse(x)
    assert x * inv == 1
    with pytest.raises(ZeroDivisionError):
        inverse(as_cycrat(p, 0))


def test_cycrat_rational_detection():
    x = as_cycrat(5, Fraction(-7, 3))
    assert is_rational(x)
    assert as_fraction(x) == Fraction(-7, 3)
    y = zeta_pow(5, 1)
    assert not is_rational(y)
    with pytest.raises(ValueError):
        as_fraction(y)


def test_as_cycrat_coerces_coefficients_for_one_prime():
    half = CycRat(5, [1, 0, 0, 0], 2)
    assert as_cycrat(5, half) is half
    zeta = zeta_pow(5, 1)
    assert as_cycrat(5, zeta) is zeta
    assert as_cycrat(5, Fraction(1, 2)) == half
    assert as_cycrat(5, 3) == CycRat.from_int(5, 3)
    # only a cyclotomic number of the same prime or a numbers.Rational:
    # text and floats are refused, although Fraction() would take them
    for bad in (zeta_pow(3, 1), CycRat(7, [0, 1, 0, 0, 0, 0], 2), None,
                1j, float("inf"), "x", "1/2", 0.5):
        with pytest.raises(ValueError):
            as_cycrat(5, bad)
    assert half != None  # noqa: E711  equality declines foreign operands
    assert half != as_cycrat(3, Fraction(1, 2))
    assert half != "1/2" and "1/2" != half
    assert half != 0.5 and 0.5 != half
    with pytest.raises(ValueError):
        QSeries(3, 1, {0: "1/2"}, 2)


def test_foreign_operands_are_left_to_the_other_operand():
    """+, - and * of a CycRat, integral or not, return NotImplemented for
    an operand that is no number here, so a series on either side gets the
    operation; another prime still raises ValueError."""
    x = CycRat(3, [1, 2])
    s = QSeries(3, 1, {0: 1, 1: 2}, 2)
    ops = (operator.add, operator.sub, operator.mul)
    for a in (x, CycRat(3, [1, 2], 2)):
        for name in ("add", "radd", "sub", "rsub", "mul", "rmul"):
            for b in (s, "1/2", 0.5, None):
                assert getattr(a, "__%s__" % name)(b) is NotImplemented
        assert (a + s, a - s, a * s) == (s + a, -(s - a), s * a)
        for op in ops:
            for b in (zeta_pow(5, 1), CycRat(5, [0, 1, 0, 0], 2)):
                for left, right in ((a, b), (b, a)):
                    with pytest.raises(ValueError):
                        op(left, right)
            for left, right in ((a, "1/2"), ("1/2", a), (a, 0.5), (0.5, a)):
                with pytest.raises(TypeError):
                    op(left, right)
    # an integral and a non-integral element of one prime
    half = CycRat(3, [1, 2], 2)
    assert x + half == half + x == CycRat(3, (3 * x).coeffs, 2)
    assert x * half == half * x == CycRat(3, (x * x).coeffs, 2)
    assert x - half == half == -(half - x)


def test_degenerate_p2_ring_is_integers():
    a = CycRat.from_int(2, 5)
    b = CycRat.from_int(2, -3)
    assert (a * b).coeffs == (-15,)
    assert a.conj() == a
    assert a.trace() == 5
    assert rho(a) == 1


coeff = st.integers(min_value=-8, max_value=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff, min_size=4, max_size=4),
       st.lists(coeff, min_size=4, max_size=4),
       st.lists(coeff, min_size=4, max_size=4))
def test_ring_laws_sampled(a, b, c):
    p = 5
    x, y, z = CycRat(p, a), CycRat(p, b), CycRat(p, c)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).galois(2) == x.galois(2) * y.galois(2)


@st.composite
def operands(draw):
    """A small value as an integral CycRat (denominator 1), a CycRat, an
    int, Fraction, float or constant q-series, or something that is no
    number.  The ranges are small, so two draws are often equal across
    types."""
    p = draw(st.sampled_from((2, 3, 5)))
    k = draw(st.integers(-2, 2))
    den = draw(st.integers(1, 2))
    rest = [0] * (p - 2)
    if draw(st.booleans()):
        rest = draw(st.lists(st.integers(-1, 1), min_size=p - 2,
                             max_size=p - 2))
    num = [k] + rest
    kind = draw(st.sampled_from(("integral", "cycrat", "int", "fraction",
                                 "float", "series", "foreign")))
    if kind == "integral":
        return CycRat(p, num)
    if kind == "cycrat":
        return CycRat(p, num, den)
    if kind == "int":
        return k
    if kind == "fraction":
        return Fraction(k, den)
    if kind == "float":
        return k / den
    if kind == "series":
        return QSeries(p, 1, {0: CycRat(p, num, den)}, draw(st.integers(0, 1)))
    return draw(st.sampled_from(("x", None, 1j)))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(operands(), operands())
def test_equality_is_symmetric_and_equal_values_hash_equal(a, b):
    assert (a == b) is (b == a), (a, b)
    assert (a != b) is (b != a) is (not a == b), (a, b)
    if a == b and not isinstance(a, QSeries) and not isinstance(b, QSeries):
        assert hash(a) == hash(b), (a, b)


def test_equality_across_types_fixed_cases():
    x = CycRat(3, [1, 2])
    assert x == CycRat(3, [2, 4], 2) and CycRat(3, [2, 4], 2) == x
    assert x.__eq__(QSeries(3, 1, {0: x}, 1)) is NotImplemented
    assert x == QSeries(3, 1, {0: x}, 1) == x
    five = CycRat.from_int(3, 5)
    assert five == 5 and hash(five) == hash(5)
    assert five == Fraction(5) and hash(five) == hash(Fraction(5))
    half = as_cycrat(5, Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    # rational, but not of a type CycRat compares with
    assert five != 5.0 and five != "5"


def test_rational_elements_equal_and_hash_as_their_value():
    """An element with no zeta terms equals, and hashes as, the int and the
    Fraction of its value, integral or not, both ways round; its trace and
    embeddings are that value scaled by p - 1 and 1."""
    for p in (2, 3, 5, 7):
        for num, den in ((5, 1), (-7, 3), (0, 4), (4, 6)):
            x = CycRat.from_int(p, num, den)
            v = Fraction(num, den)
            values = (v, int(v)) if v.denominator == 1 else (v,)
            for w in values:
                assert x == w and w == x and not x != w and not w != x
                assert hash(x) == hash(w)
            assert as_fraction(x) == v
            assert x.trace() == (p - 1) * v
            assert type(x.trace()) is (int if v.denominator == 1 else Fraction)
            assert all(abs(embed(x, r) - float(v)) < 1e-12
                       for r in range(1, p))
    assert CycRat.from_int(5, 5) != Fraction(5, 2) != CycRat.from_int(5, 5)
