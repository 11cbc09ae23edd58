import itertools
import random
from fractions import Fraction

import pytest

from thetaforge.codelattice import lattice_of_code, theta_series
from thetaforge.cyclotomic import as_cycrat
from thetaforge.fpcode import standard_codes
from thetaforge.qexp import QSeries, compose_enumerator, eta_power
from thetaforge.voarep import (
    OrbitClass, RepElement, _leading_data, all_orbits, main_theorem_check,
    module_of_code, orbit_of, orbit_size, orbit_theta, z_map, z_tilde,
)

from test_cyclotomic import as_fraction
from test_qexp import series_inverse


def eta(p, cutoff):
    """Dedekind eta through the cutoff: eta_power at k = 1, which
    tests/test_qexp.py checks against the pentagonal series."""
    return eta_power(p, 1, cutoff)


class PartitionMeta:
    """Central charge and conformal weight behind a partition function."""

    __slots__ = ("c", "h")

    def __init__(self, c, h):
        self.c = int(c)
        self.h = Fraction(h)

    @property
    def leading_exponent(self):
        return self.h - Fraction(self.c, 24)

    def __repr__(self):
        return "PartitionMeta(c=%d, h=%s)" % (self.c, self.h)


def partition_function(o, cutoff):
    """Reference: (series, meta), eta^-(n(p-1)) times the orbit's coset
    theta.

    The series is correct up to the requested cutoff; its exponents lie in
    (1/lcm(24, p))Z and its leading exponent is h - c/24.
    """
    p = o.p
    c = o.n * (p - 1)
    h = _leading_data(o)[0]      # half the least norm over the coset
    meta = PartitionMeta(c, h)
    cutoff = Fraction(cutoff)
    if cutoff < meta.leading_exponent:
        raise ValueError("cutoff hides the leading term %s"
                         % meta.leading_exponent)
    if c == 0:
        return QSeries(p, p, {0: 1}, cutoff), meta
    # eta^-c loses (c+1)/24 of cutoff plus the theta valuation shift
    work = cutoff + Fraction(c + 1, 24) + 1
    eta_inv_pow = series_inverse(eta(p, work)) ** c
    theta = orbit_theta(o, cutoff + Fraction(c, 24))
    series = (eta_inv_pow * theta).truncate(cutoff)
    return series, meta


def monomial_series(p, mono, cutoff):
    """Reference: a theta monomial (its exponent tuple) expanded as a
    q-series through the single-digit expansions, the substitution route,
    independent of the direct product-lattice enumeration used by z_map."""
    thetas = [orbit_theta(OrbitClass(p, unit_profile(p, j)), cutoff)
              for j in range(((p - 1) // 2) + 1)]
    return compose_enumerator({mono: 1}, thetas)


def unit_profile(p, j):
    r = (p - 1) // 2
    prof = [0] * (r + 1)
    prof[j] = 1
    return tuple(prof)


def brute_orbit_count(p, n):
    """Independent oracle: orbits of F_p^n under all signed permutations,
    found by closing each word under the full 2^n * n! group."""
    words = list(itertools.product(range(p), repeat=n))
    seen = set()
    orbits = 0
    for w in words:
        if w in seen:
            continue
        orbits += 1
        for signs in itertools.product((1, p - 1), repeat=n):
            for perm in itertools.permutations(range(n)):
                seen.add(tuple((signs[i] * w[perm[i]]) % p
                               for i in range(n)))
    return orbits


def test_orbit_of_examples():
    assert orbit_of(3, (0, 1, 2, 1)).profile == (1, 3)
    assert orbit_of(5, (0, 0)).profile == (2, 0, 0)
    assert orbit_of(5, (4, 3)).profile == (0, 1, 1)
    assert orbit_of(7, (6, 5, 1)).profile == (0, 2, 1, 0)


def test_orbit_class_validation():
    with pytest.raises(ValueError):
        OrbitClass(2, (1, 0))
    with pytest.raises(ValueError):
        OrbitClass(3, (1, 2, 3))
    with pytest.raises(ValueError):
        OrbitClass(5, (1, -1, 0))


def test_profiles_match_group_orbits():
    # the profile is a complete invariant: counts agree with the true
    # group-orbit count computed by closure
    assert brute_orbit_count(3, 4) == len(all_orbits(3, 4)) == 5
    assert brute_orbit_count(5, 2) == len(all_orbits(5, 2)) == 6
    assert brute_orbit_count(5, 3) == len(all_orbits(5, 3)) == 10


def test_orbit_sizes_partition_words():
    for p, n in [(3, 5), (5, 4), (7, 3)]:
        assert sum(orbit_size(o) for o in all_orbits(p, n)) == p ** n


def test_rep_unit_and_concatenation():
    one = RepElement(3, {(0, 0): 1})        # the empty word, grade 0
    a = RepElement.from_orbit(OrbitClass(3, (1, 0)))
    b = RepElement.from_orbit(OrbitClass(3, (0, 1)))
    assert (one * a) == a
    ab = a * b
    assert ab.terms == RepElement(3, {(1, 1): 1}).terms or ab == RepElement(
        3, {(1, 1): 1})
    assert (a * b) == (b * a)


def test_rep_bilinearity_and_associativity():
    rng = random.Random(7)
    orbs = all_orbits(5, 2)
    for _ in range(10):
        x = RepElement(5, {rng.choice(orbs): rng.randrange(-3, 4)
                           for _ in range(2)})
        y = RepElement(5, {rng.choice(orbs): rng.randrange(-3, 4)
                           for _ in range(2)})
        z = RepElement.from_orbit(rng.choice(orbs))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)


def test_rep_coefficients_with_p_inverted():
    half = as_cycrat(5, Fraction(1, 5))
    x = RepElement(5, {(2, 0, 0): half})
    assert x.terms[(2, 0, 0)].den == 5
    assert (x + x + x + x + x).terms == {(2, 0, 0): 1}
    assert RepElement(5, {(2, 0, 0): 1}).terms[(2, 0, 0)].den == 1


def test_partition_function_zero_orbit():
    series, meta = partition_function(OrbitClass(3, (1, 0)), Fraction(2))
    assert meta.c == 2 and meta.h == 0
    assert series.valuation() == Fraction(-1, 12)
    assert meta.leading_exponent == Fraction(-1, 12)
    # multiplying back by eta^2 recovers the bare coset theta
    e2 = eta(3, Fraction(3)) ** 2
    assert series * e2 == orbit_theta(OrbitClass(3, (1, 0)), Fraction(2))


def test_partition_function_nonzero_orbit():
    o = OrbitClass(3, (0, 1))
    # h = 1/3: the least norm 2/3 of the class-1 digit, met 3 times
    assert _leading_data(o) == (Fraction(1, 3), 3)
    series, meta = partition_function(o, Fraction(2))
    assert meta.h == Fraction(1, 3)
    assert meta.leading_exponent == Fraction(1, 4)
    assert series.valuation() == Fraction(1, 4)
    with pytest.raises(ValueError):
        partition_function(o, Fraction(1, 8))


def test_z_map_single_digit_series():
    t0 = z_map(OrbitClass(3, (1, 0)), Fraction(3))
    expect0 = QSeries(3, 1, {0: 1, 1: 6, 3: 6}, Fraction(3))
    assert t0 == expect0
    t1 = z_map(OrbitClass(3, (0, 1)), Fraction(3))
    expect1 = QSeries(3, 3, {1: 3, 4: 3, 7: 6}, Fraction(3))
    assert t1 == expect1


def test_z_map_orbit_invariance_sample():
    # every word of one orbit yields the same coset theta expansion
    for p, n in [(3, 2), (5, 2)]:
        series = {}
        for w in itertools.product(range(p), repeat=n):
            s = orbit_theta_of_word(p, w)
            key = orbit_of(p, w).profile
            if key in series:
                assert series[key] == s, "orbit %s split at word %s" % (
                    key, w)
            else:
                series[key] = s


def orbit_theta_of_word(p, w):
    from thetaforge.codelattice import standard_lattice
    return theta_series(standard_lattice(p, len(w)), Fraction(2),
                        shift_word=w)


def test_z_map_multiplicative_on_pairs():
    rng = random.Random(11)
    pool3 = all_orbits(3, 1) + all_orbits(3, 2)
    for _ in range(6):
        a, b = rng.choice(pool3), rng.choice(pool3)
        lhs = z_map(RepElement.from_orbit(a) * RepElement.from_orbit(b),
                    Fraction(2))
        rhs = z_map(a, Fraction(2)) * z_map(b, Fraction(2))
        assert lhs == rhs


def test_orbit_theta_cache_serves_the_multiplicativity_sweep(monkeypatch):
    """The sweep of `verify orbits` (seed 1, 20 pairs at cutoff 2) asks for
    60 orbit thetas over 11 distinct (orbit, cutoff) keys; with the cache
    each key is enumerated once, and every cached series equals a fresh
    one."""
    from thetaforge import voarep
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return theta_series(*args, **kwargs)

    monkeypatch.setattr(voarep, "theta_series", counted)
    orbit_theta.cache_clear()
    rng = random.Random(1)
    orbits3 = list(all_orbits(3, 1)) + list(all_orbits(3, 2))
    for _ in range(20):
        a = RepElement.from_orbit(rng.choice(orbits3))
        b = RepElement.from_orbit(rng.choice(orbits3))
        lhs = z_map(a * b, Fraction(2))
        rhs = (z_map(a, Fraction(2)) * z_map(b, Fraction(2))).truncate(
            Fraction(2))
        assert lhs == rhs
    info = orbit_theta.cache_info()
    assert len(calls) == info.misses == 11
    assert info.hits + info.misses == 60
    for o in orbits3:
        for cutoff in set(calls):
            assert orbit_theta(o, cutoff) == orbit_theta.__wrapped__(o,
                                                                    cutoff)


def test_z_map_grading_invariant():
    for o in all_orbits(3, 2):
        s = z_map(o, Fraction(2))
        assert s.valuation() >= 0
        if o.profile == (2, 0):
            assert as_fraction(dict(s.items())[0]) == 1
        else:
            assert s.valuation() > 0


def test_z_tilde_examples():
    assert z_tilde(OrbitClass(3, (1, 3))) == (1, 3)
    assert z_tilde(OrbitClass(5, (4, 0, 0))) == (4, 0, 0)
    a, b = OrbitClass(3, (1, 0)), OrbitClass(3, (0, 2))
    prod = RepElement.from_orbit(a) * RepElement.from_orbit(b)
    (only_orbit, coeff), = prod.items()
    # concatenation adds profiles, and so exponents
    assert z_tilde(only_orbit) == tuple(
        x + y for x, y in zip(z_tilde(a), z_tilde(b)))


def test_diagonal_factorization():
    # direct product-lattice enumeration vs substitution into the monomial
    for o in [OrbitClass(3, (1, 1)), OrbitClass(3, (0, 2)),
              OrbitClass(5, (1, 1, 0)), OrbitClass(5, (0, 0, 2))]:
        direct = z_map(o, Fraction(2))
        composed = monomial_series(o.p, z_tilde(o), Fraction(2))
        assert direct == composed


def test_module_of_tetracode():
    code = standard_codes("tetracode")
    m = module_of_code(code)
    assert all(c.den == 1 for c in m.terms.values())
    profs = {o.profile: c for o, c in m.items()}
    assert set(profs) == {(4, 0), (1, 3)}
    assert as_fraction(profs[(4, 0)]) == 1
    assert as_fraction(profs[(1, 3)]) == 8


def test_module_series_is_e8_theta():
    code = standard_codes("tetracode")
    series = z_map(module_of_code(code), Fraction(3))
    lat = lattice_of_code(code)
    assert series == theta_series(lat, Fraction(3))
    assert {e: as_fraction(c) for e, c in series.items()} == {
        0: 1, 1: 240, 2: 2160, 3: 6720}


def test_main_theorem_small_cases():
    rep = main_theorem_check(3, 4)
    assert rep["orbits"] == rep["monomials"] == rep["expected"] == 5
    assert rep["pass"] and rep["bijectivity_asserted"]
    rep = main_theorem_check(5, 3)
    assert rep["expected"] == 10 and rep["pass"]
    rep = main_theorem_check(3, 0)
    assert rep["orbits"] == rep["expected"] == 1 and rep["pass"]


def test_main_theorem_counts_up_to_eight():
    from math import comb
    for p in (3, 5, 7):
        for n in range(9):
            orbs = all_orbits(p, n)
            r = (p - 1) // 2
            assert len(orbs) == comb(n + r, r)
            assert sum(orbit_size(o) for o in orbs) == p ** n


def test_main_theorem_p7_wording():
    rep = main_theorem_check(7, 2)
    assert not rep["bijectivity_asserted"]
    assert "not asserted" in rep["note"]
    assert rep["mass_ok"] and rep["counts_match"]


def test_main_theorem_separates_equal_leading_pairs():
    # p=5 profiles (l1,l2)=(3,0) and (0,2) share the leading exponent but
    # differ in the leading count, so no series fallback is needed there
    rep = main_theorem_check(5, 4, cutoff=Fraction(2))
    assert rep["pass"]
