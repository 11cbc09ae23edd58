"""End-to-end acceptance checks.

One test per criterion.  Each pins its tolerance and asserts a wall-clock
budget; random inputs are seeded.  Where a result has two independent
routes (direct enumeration vs. enumerator composition, box count vs.
Fincke-Pohst, induced character vs. matrix trace) both are exercised here.
"""

import itertools
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from thetaforge.cliffcode import (
    E_MATRICES,
    SignedMatrix,
    beta_form_check,
    bott_check,
    induced_character_check,
    pair_form_sweep,
    pauli_hamming,
    triality_kernels,
    verify_all,
)
from thetaforge.codelattice import (
    box_count_by_norm,
    count_by_norm,
    lattice_info,
    lattice_of_code,
    standard_lattice,
    theta_series,
)
from thetaforge.fpcode import (
    code_predicates,
    hamming_weight,
    make_code,
    standard_codes,
    weight_enumerator,
)
from thetaforge.hilbert_eval import verify_alpbach, verify_sl2f3_action
from thetaforge.octower import (
    crossed_hom_space,
    group_order,
    h_generators,
    is_perfect,
)
from thetaforge.qexp import compose_enumerator
from thetaforge.voarep import RepElement, all_orbits, orbit_of, z_map, z_tilde

from test_cyclotomic import zeta_pow
from test_qexp import t_shift

COMPOSITION_TOL = 1e-8
INVERSION_TOL = 1e-7


@contextmanager
def wall_clock(limit_seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, (
        "budget %.0fs exceeded: %.1fs" % (limit_seconds, elapsed))


def hexagonal_form_counts(digit_class, cutoff):
    """Independent route for the p=3 class expansions: a direct double sum
    over the integer form x^2 - xy + y^2, classes cut out by x + y mod 3."""
    counts = {}
    for x in range(-9, 10):
        for y in range(-9, 10):
            if (x + y) % 3 != digit_class:
                continue
            e = Fraction(x * x - x * y + y * y, 3)
            if e <= cutoff:
                counts[e] = counts.get(e, 0) + 1
    return counts


def coset_sum_theta(code, cutoff):
    lat = standard_lattice(code.p, code.n)
    total = None
    for w in code.words:
        part = theta_series(lat, cutoff, w)
        total = part if total is None else total + part
    return total


def signed_perm_images(p, word):
    members = set()
    for perm in itertools.permutations(range(len(word))):
        base = [word[i] for i in perm]
        for signs in itertools.product((1, -1), repeat=len(word)):
            members.add(tuple((s * d) % p for s, d in zip(signs, base)))
    return sorted(members)


def test_theta_class_expansions_match_pinned_terms():
    with wall_clock(1.0):
        lat = standard_lattice(3, 1)
        t0 = theta_series(lat, Fraction(7), (0,))
        t1 = theta_series(lat, Fraction(13, 3), (1,))
        assert dict(t0.items()) == {
            Fraction(0): 1, Fraction(1): 6, Fraction(3): 6,
            Fraction(4): 6, Fraction(7): 12}
        assert dict(t1.items()) == {
            Fraction(1, 3): 3, Fraction(4, 3): 3,
            Fraction(7, 3): 6, Fraction(13, 3): 6}
        assert dict(t0.items()) == hexagonal_form_counts(0, Fraction(7))
        assert dict(t1.items()) == hexagonal_form_counts(1, Fraction(13, 3))


def test_coset_theta_equals_enumerator_composition_exact():
    with wall_clock(10.0):
        cutoff = Fraction(3)
        rng = random.Random(20260818)
        codes = [standard_codes("tetracode")]
        while len(codes) < 11:
            n = rng.randint(1, 4)
            universe = list(itertools.product(range(3), repeat=n))
            size = rng.randint(2, min(9, len(universe)))
            code = make_code(3, n, words=rng.sample(universe, size))
            if code.is_linear:
                continue
            codes.append(code)
        assert sum(1 for c in codes if not c.is_linear) == 10
        thetas1 = None
        for code in codes:
            lhs = coset_sum_theta(code, cutoff)
            enum = weight_enumerator(code)
            if thetas1 is None:
                thetas1 = [theta_series(standard_lattice(3, 1), cutoff, (j,))
                           for j in range(2)]
            rhs = compose_enumerator(enum, thetas1)
            assert lhs.truncate(cutoff) == rhs.truncate(cutoff)


def test_coset_theta_equals_composition_numerically_p5():
    points = ((1j, 1j), (2j, 1.5j), (0.3 + 1.5j, 1.2j))
    with wall_clock(30.0):
        rng = random.Random(55)
        universe = list(itertools.product(range(5), repeat=2))
        for _ in range(5):
            words = rng.sample(universe, rng.randint(2, 12))
            code = make_code(5, 2, words=words)
            report = verify_alpbach(code, points, tol=COMPOSITION_TOL)
            assert report["pass"]
            for row in report["points"]:
                assert row["residual"] < COMPOSITION_TOL


def test_tetracode_lattice_is_e8():
    with wall_clock(10.0):
        lat = lattice_of_code(standard_codes("tetracode"))
        info = lattice_info(lat)
        assert info["rank"] == 8
        assert info["even"]
        assert info["discriminant"] == 1
        fp = count_by_norm(lat, Fraction(6))
        box = box_count_by_norm(lat, Fraction(6))
        assert fp == box
        assert fp == {0: 1, 2: 240, 4: 2160, 6: 6720}
        series = theta_series(lat, Fraction(3))
        assert dict(series.items()) == {0: 1, 1: 240, 2: 2160, 3: 6720}
        for exponent, coefficient in series.items():
            assert coefficient == fp[2 * exponent]


def test_golay_lattice_is_even_unimodular_rank24():
    with wall_clock(300.0):
        code = standard_codes("golay12")
        assert len(code.words) == 729
        assert code_predicates(code)["self_dual"]
        lat = lattice_of_code(code)
        info = lattice_info(lat)
        assert info["rank"] == 24
        assert info["even"]
        assert info["discriminant"] == 1
        shells = count_by_norm(lat, Fraction(4))
        assert shells == {0: 1, 2: 72, 4: 194832}
        assert box_count_by_norm(lat, 4) == {0: 1, 2: 72, 4: 194832}


def test_orbit_map_invariance_and_ring_properties():
    with wall_clock(60.0):
        cutoff = Fraction(3)
        for p in (3, 5):
            for n in (1, 2, 3):
                lat = standard_lattice(p, n)
                for orbit in all_orbits(p, n):
                    rep_word = orbit.representative()
                    base = theta_series(lat, cutoff, rep_word)
                    for w in signed_perm_images(p, rep_word):
                        assert orbit_of(p, w) == orbit
                        assert theta_series(lat, cutoff, w) == base
        rng = random.Random(1)
        pool = list(all_orbits(3, 1)) + list(all_orbits(3, 2))
        for _ in range(20):
            a = RepElement.from_orbit(rng.choice(pool))
            b = RepElement.from_orbit(rng.choice(pool))
            lhs = z_map(a * b, Fraction(2))
            rhs = (z_map(a, Fraction(2))
                   * z_map(b, Fraction(2))).truncate(Fraction(2))
            assert lhs == rhs
        for p in (3, 5):
            r = (p - 1) // 2
            for n in range(1, 9):
                orbits = list(all_orbits(p, n))
                assert len(orbits) == math.comb(n + r, r)
                monomials = {z_tilde(o) for o in orbits}
                assert len(monomials) == len(orbits)


def test_grade_bases_biject_at_p3():
    with wall_clock(1.0):
        for n in range(1, 9):
            orbits = list(all_orbits(3, n))
            assert len(orbits) == n + 1
            expected = {(n - k, k) for k in range(n + 1)}
            assert {z_tilde(o) for o in orbits} == expected


def test_modular_action_translation_exact_inversion_numerical():
    with wall_clock(10.0):
        lat = standard_lattice(3, 1)
        t0 = theta_series(lat, Fraction(12), (0,))
        t1 = theta_series(lat, Fraction(37, 3), (1,))
        zeta = zeta_pow(3, 1)
        assert t_shift(t0) == t0
        assert dict(t_shift(t1).items()) == {
            e: c * zeta for e, c in t1.items()}
        for z in (1j, 2j, 0.3 + 1.5j):
            report = verify_sl2f3_action(z, tol=INVERSION_TOL)
            assert report["pass"]
            assert report["max_residual"] < INVERSION_TOL


def test_spinor_representation_suite():
    with wall_clock(30.0):
        minus_id = SignedMatrix(tuple(range(8)), (-1,) * 8)
        for i, ei in enumerate(E_MATRICES):
            assert ei * ei == minus_id
            for ej in E_MATRICES[i + 1:]:
                assert ei * ej == minus_id * (ej * ei)
        _, pauli_checks = pauli_hamming()
        assert all(pauli_checks.values())
        characters = induced_character_check()
        assert characters["pass"]
        assert characters["dimension_plus"] == 8
        assert characters["value_at_minus_one"] == -8
        kernels = triality_kernels()
        assert kernels["pass"]
        assert kernels["kernels"] == {"delta_plus": ["1", "omega"],
                                      "delta_minus": ["-omega", "1"],
                                      "pi": ["-1", "1"]}
        periodicity = bott_check()
        assert periodicity["pass"]
        assert periodicity["rank"] == 256
        assert verify_all()["pass"]


def test_hamming8_code_properties():
    with wall_clock(1.0):
        code = standard_codes("hamming8")
        preds = code_predicates(code)
        assert preds["self_dual"]
        assert preds["doubly_even"]
        assert preds["min_distance"] == 4
        spectrum = Counter(hamming_weight(w) for w in code.words)
        assert dict(spectrum) == {0: 1, 4: 14, 8: 1}


def test_tower_perfectness_cohomology_and_commutator_form():
    with wall_clock(120.0):
        h5 = h_generators(5)
        assert group_order(h5) == 960
        assert is_perfect(h5)
        h4 = h_generators(4)
        assert group_order(h4) == 96
        assert not is_perfect(h4)
        for n in (5, 6):
            assert crossed_hom_space(n)["h1_dim"] == 0
        pair_count, pairs_match = pair_form_sweep(8)
        assert pair_count == 28
        assert pairs_match
        assert beta_form_check(8)
