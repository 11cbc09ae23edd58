from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thetaforge.cyclotomic import (
    CycInt, CycRat, as_cycrat, check_prime, trace_pairing, zeta,
)

PRIMES = [3, 5, 7]


def one_minus_zeta(p):
    """Generator of the ramified prime ideal, 1 - zeta."""
    return CycInt.from_int(p, 1) - zeta(p)


def real_embed_pair(x, l):
    """Reference: sigma_l(x * conj(x)) as a float, real and nonnegative by
    construction.  l runs over 1..(p-1)/2, one representative per conjugate
    pair of embeddings."""
    r = (x.p - 1) // 2
    if not 1 <= l <= max(r, 1):
        raise ValueError("real embedding index out of range")
    v = (x * x.conj()).embed(l)
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
        s = CycInt.from_int(p, 0)
        for k in range(p):
            s = s + CycInt.zeta_pow(p, k)
        assert s.is_zero()


def test_multiplication_reduces_top_power():
    z = zeta(3)
    assert z * z == CycInt(3, [-1, -1])          # zeta^2 = -1 - zeta
    assert z * z * z == CycInt.from_int(3, 1)    # zeta^3 = 1
    z5 = zeta(5)
    assert z5 * CycInt.zeta_pow(5, 4) == CycInt.from_int(5, 1)


def test_trace_values():
    for p in PRIMES:
        assert CycInt.from_int(p, 1).trace() == p - 1
        assert zeta(p).trace() == -1
        for k in range(1, p - 1):
            assert CycInt.zeta_pow(p, k).trace() == -1


def test_trace_matches_embedding_sum():
    for p in PRIMES:
        x = CycInt(p, range(1, p))
        total = sum(x.embed(r) for r in range(1, p))
        assert abs(total.imag) < 1e-9
        assert abs(total.real - x.trace()) < 1e-9


def test_conj_is_involution_and_trace_invariant():
    for p in PRIMES:
        x = CycInt(p, [k * k - 3 for k in range(p - 1)])
        assert x.conj().conj() == x
        assert x.conj().trace() == x.trace()


def test_rho_is_ring_homomorphism():
    for p in PRIMES:
        x = CycInt(p, [2 * k + 1 for k in range(p - 1)])
        y = CycInt(p, [5 - k for k in range(p - 1)])
        assert (x + y).rho() == (x.rho() + y.rho()) % p
        assert (x * y).rho() == (x.rho() * y.rho()) % p
    # zeta == 1 mod (1 - zeta)
    assert zeta(5).rho() == 1


def test_ramified_generator():
    for p in PRIMES:
        lam = one_minus_zeta(p)
        assert lam.rho() == 0
        assert lam.norm_int() == p
        # pairing of the generator with itself is 2 for every p
        assert trace_pairing(lam, lam) == 2


def test_pairing_positive_definite_and_even_on_kernel():
    for p in PRIMES:
        seen_nonzero = False
        for seed in range(40):
            coeffs = [((seed + 3) ** (k + 2)) % 7 - 3 for k in range(p - 1)]
            x = CycInt(p, coeffs)
            q = trace_pairing(x, x)
            if x.is_zero():
                assert q == 0
                continue
            seen_nonzero = True
            assert q > 0
            if x.rho() == 0:
                assert q.denominator == 1 and q.numerator % 2 == 0
        assert seen_nonzero


def test_pairing_is_symmetric_and_bilinear():
    p = 5
    x = CycInt(p, [1, 2, 0, -1])
    y = CycInt(p, [0, 1, 1, 3])
    z = CycInt(p, [2, -2, 1, 0])
    assert trace_pairing(x, y) == trace_pairing(y, x)
    assert trace_pairing(x + z, y) == trace_pairing(x, y) + trace_pairing(z, y)


def test_real_embed_pair_nonnegative_and_matches_pairing():
    # sum over l of sigma_l(x conj(x)) / p equals pairing(x, x) / 2
    for p in PRIMES:
        r = (p - 1) // 2
        x = CycInt(p, [k + 1 for k in range(p - 1)])
        vals = [real_embed_pair(x, l) for l in range(1, r + 1)]
        assert all(v >= 0 for v in vals)
        lhs = sum(vals) / p
        rhs = trace_pairing(x, x) / 2
        assert abs(lhs - float(rhs)) < 1e-9


def test_cycrat_reduction_and_inverse():
    p = 3
    x = CycRat(CycInt(p, [2, 4]), 6)
    assert x.num == CycInt(p, [1, 2]) and x.den == 3
    inv = x.inverse()
    assert x * inv == CycRat.from_rational(p, 1)
    with pytest.raises(ZeroDivisionError):
        CycRat.from_rational(p, 0).inverse()


def test_cycrat_rational_detection():
    x = CycRat.from_rational(5, Fraction(-7, 3))
    assert x.is_rational()
    assert x.as_fraction() == Fraction(-7, 3)
    y = CycRat(zeta(5))
    assert not y.is_rational()
    with pytest.raises(ValueError):
        y.as_fraction()


def test_as_cycrat_coerces_coefficients_for_one_prime():
    half = CycRat.from_rational(5, Fraction(1, 2))
    assert as_cycrat(5, half) is half
    assert as_cycrat(5, zeta(5)) == CycRat(zeta(5))
    for value in (Fraction(1, 2), "1/2", 0.5):
        assert as_cycrat(5, value) == half
    assert as_cycrat(5, 3) == CycRat.from_rational(5, 3)
    for bad in (zeta(3), CycRat(zeta(7)), None, 1j, float("inf"), "x"):
        with pytest.raises(ValueError):
            as_cycrat(5, bad)
    assert half != None  # noqa: E711  equality declines foreign operands
    assert half != CycRat.from_rational(3, Fraction(1, 2))


def test_degenerate_p2_ring_is_integers():
    a = CycInt.from_int(2, 5)
    b = CycInt.from_int(2, -3)
    assert (a * b).coeffs == (-15,)
    assert a.conj() == a
    assert a.trace() == 5
    assert a.rho() == 1


coeff = st.integers(min_value=-8, max_value=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff, min_size=4, max_size=4),
       st.lists(coeff, min_size=4, max_size=4),
       st.lists(coeff, min_size=4, max_size=4))
def test_ring_laws_sampled(a, b, c):
    p = 5
    x, y, z = CycInt(p, a), CycInt(p, b), CycInt(p, c)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).galois(2) == x.galois(2) * y.galois(2)
