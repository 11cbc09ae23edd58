import hashlib
import json
import os
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetaforge import cli, codelattice
from thetaforge.codelattice import (
    CodeLattice, box_count_by_norm, count_by_norm, discriminant,
    enumerate_coset, is_even, lattice_info, lattice_of_code, lift_word,
    lll_reduce, minimal_norm, ramified_block_rows, standard_lattice,
    theta_series, theta_series_by_word, trace_gram,
)
from thetaforge.cyclotomic import CycRat
from thetaforge.fpcode import make_code, standard_codes, zero_code
from thetaforge.linalg import integer_row_basis, integral_gso
from thetaforge.qexp import QSeries

from test_cyclotomic import as_fraction


def coords_to_elements(coords, p, n):
    d = p - 1
    return tuple(CycRat(p, coords[i * d:(i + 1) * d]) for i in range(n))


class LatticeVector:
    """An element of O^n with its norm; coords are power-basis integers."""

    def __init__(self, p, n, coords, norm):
        self.p = p
        self.n = n
        self.coords = tuple(int(c) for c in coords)
        self.norm = norm

    def elements(self):
        return coords_to_elements(self.coords, self.p, self.n)


def short_vectors(lattice, bound):
    """Reference: all lattice vectors with norm <= bound, as LatticeVectors
    in O^n, from the Fincke-Pohst leaves mapped through the basis."""
    p, n, basis = lattice.p, lattice.n, lattice.basis
    out = []

    def emit(X, scaled, scale):
        for x, norm in zip(X.tolist(), scaled.tolist()):
            coords = [0] * (n * (p - 1))
            for c, row in zip(x, basis):
                if c:
                    for j, rj in enumerate(row):
                        coords[j] += c * rj
            out.append(LatticeVector(p, n, coords, Fraction(norm, scale)))

    enumerate_coset([list(r) for r in lattice.gram],
                    [Fraction(0)] * lattice.rank, bound, emit)
    out.sort(key=lambda v: (v.norm, v.coords))
    return out


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
    assert integral_gso([[2, -1], [-1, 2]])[0][-1] == 3
    with pytest.raises(ValueError):
        integral_gso([[1, 2], [2, 4]])
    basis = integer_row_basis([[2, 4], [3, 6], [0, 5]])
    assert len(basis) == 2
    assert integral_gso([[sum(x * y for x, y in zip(u, v)) for v in basis]
                         for u in basis])[0][-1] == 25


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
        # the trace pairing Tr(e * conj(e)) / p of each block
        norm = sum((Fraction((e * e.conj()).trace(), 5) for e in els),
                   Fraction(0))
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
    expected = QSeries(3, 1, {0: 1, 1: 240, 2: 2160, 3: 6720}, 3)
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
    assert box_count_by_norm(big, 4) == count_by_norm(big, 4)


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
    coeffs = dict(th.items())
    assert th.cutoff == Fraction(13, 3)
    for e, c in want.items():
        assert coeffs.get(e, 0) == c
    assert th.valuation() == Fraction(1, 3)


def test_theta_zero_class_matches_quadratic_form_count():
    # independent oracle: direct count of x^2 - xy + y^2 representations
    oracle = loeschian_counts(7)
    th = theta_series(standard_lattice(3, 1), 7)
    assert th.cutoff == 7 and th.N == 3
    coeffs = {e: as_fraction(c) for e, c in th.items()}
    for k in range(8):
        assert coeffs.get(k, 0) == oracle.get(k, 0)
    # frozen values, misprint-corrected: no q^2 term, q^3 present
    assert [coeffs.get(k, 0) for k in range(8)] == [1, 6, 0, 6, 6, 0, 0, 12]


def test_coset_decomposition_sums_to_code_lattice_theta():
    code = standard_codes("tetracode")
    lat = lattice_of_code(code)
    block = standard_lattice(3, 4)
    total = None
    for w in code.words:
        part = theta_series(block, 2, shift_word=w)
        total = part if total is None else total + part
    assert total == theta_series(lat, 2)


def test_theta_series_by_word_matches_each_coset():
    # one binned run over O^n against one Fincke-Pohst run per coset
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)):
        lat = standard_lattice(p, n)
        for order in (Fraction(1), Fraction(5, 2)):
            table = theta_series_by_word(p, n, order)
            assert list(table) == list(product(range(p), repeat=n))
            for word, series in table.items():
                assert series.cutoff == order
                assert series == theta_series(lat, order, word), (p, word)
    # and against the pruned ambient oracle, norm by norm
    word, order = (1, 3), Fraction(5, 2)
    series = theta_series_by_word(5, 2, order)[word]
    assert {Fraction(2 * k, 5): as_fraction(c)
            for k, c in series.terms.items()} == box_count_by_norm(
        standard_lattice(5, 2), 2 * order, word)


def test_theta_series_by_word_enumeration_cap(monkeypatch):
    monkeypatch.setenv("THETA_FORGE_MAX_NORM", "4")
    assert theta_series_by_word(3, 1, 2)[(0,)] == theta_series(
        standard_lattice(3, 1), 2, (0,))
    with pytest.raises(ValueError) as per_coset:
        theta_series(standard_lattice(3, 1), Fraction(7, 3), (0,))
    with pytest.raises(ValueError) as binned:
        theta_series_by_word(3, 1, Fraction(7, 3))
    assert str(binned.value) == str(per_coset.value)
    assert "THETA_FORGE_MAX_NORM" in str(binned.value)


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
    for bad in ("1/0", "abc", "-1", ""):
        monkeypatch.setenv("THETA_FORGE_MAX_NORM", bad)
        with pytest.raises(ValueError, match="THETA_FORGE_MAX_NORM"):
            count_by_norm(lat, 2)


def test_golay_lattice_smoke():
    lat = lattice_of_code(standard_codes("golay12"))
    assert lat.rank == 24
    assert is_even(lat)
    assert discriminant(lat) == 1
    assert count_by_norm(lat, 2) == {Fraction(0): 1, Fraction(2): 72}


# ---------------------------------------------------------------------------
# Basis reduction
# ---------------------------------------------------------------------------

def trace_form(p):
    """Reference pairing: the trace form on power-basis coordinates, per
    block dot(x, y) - sum(x) sum(y) / p, on ints or Fractions."""
    d = p - 1

    def pairf(u, v):
        return sum(x * y for x, y in zip(u, v)) - sum(
            Fraction(sum(u[i:i + d]) * sum(v[i:i + d]), p)
            for i in range(0, len(u), d))

    return pairf


def fraction_gso_lll(rows, pairf, delta=Fraction(3, 4)):
    """Reference LLL: a full Fraction Gram-Schmidt in ambient coordinates,
    recomputed after every change.  Size reduction rounds mu as it stood
    before the pass, exactly as lll_reduce is specified to."""
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n <= 1:
        return b

    def gso():
        gs, mu, norms = [], [[Fraction(0)] * n for _ in range(n)], []
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                m = pairf(b[i], gs[j]) / norms[j]
                mu[i][j] = m
                v = [a - m * c for a, c in zip(v, gs[j])]
            gs.append(v)
            norms.append(pairf(v, v))
        return gs, mu, norms

    gs, mu, norms = gso()
    k = 1
    while k < n:
        changed = False
        for j in range(k - 1, -1, -1):
            f = mu[k][j]
            q = (2 * f.numerator + f.denominator) // (2 * f.denominator)
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                changed = True
        if changed:
            gs, mu, norms = gso()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            gs, mu, norms = gso()
            k = max(k - 1, 1)
    return b


def gram_schmidt(gram):
    """mu (lower triangle) and squared lengths |b_i*|^2 from a Gram matrix."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (Fraction(gram[i][j]) - sum(
                mu[j][t] * mu[i][t] * norms[t] for t in range(j))) / norms[j]
        norms.append(Fraction(gram[i][i]) - sum(
            mu[i][t] ** 2 * norms[t] for t in range(i)))
    return mu, norms


def assert_lovasz(gram, delta):
    mu, norms = gram_schmidt(gram)
    for k in range(1, len(gram)):
        assert norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1], k


def code_lattice_rows(p, n, generators):
    """The integer row basis lattice_of_code hands to lll_reduce."""
    d = p - 1
    rows = []
    for i in range(n):
        for r in ramified_block_rows(p):
            row = [0] * (n * d)
            row[i * d:(i + 1) * d] = r
            rows.append(row)
    rows += [lift_word(g, p, n) for g in generators]
    return integer_row_basis(rows)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_lll_matches_fraction_gso_reference(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(1, 16 // (p - 1)))
    words = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        max_size=6))
    gens = []
    for w in words:
        if all(sum(x * y for x, y in zip(w, g)) % p == 0
               for g in gens + [w]):
            gens.append(w)
    rows = code_lattice_rows(p, n, gens)
    # a few unimodular row operations, so that every prime gives LLL work
    for i, j, c in data.draw(st.lists(
            st.tuples(st.integers(0, len(rows) - 1),
                      st.integers(0, len(rows) - 1), st.integers(-2, 2)),
            max_size=6)):
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    delta = data.draw(st.sampled_from([Fraction(3, 4), Fraction(99, 100)]))
    out = lll_reduce(rows, trace_gram(rows, p), delta)
    assert out == fraction_gso_lll(rows, trace_form(p), delta)
    assert_lovasz(trace_gram(out, p), delta)


def test_reduced_bases_are_pinned_and_meet_lovasz():
    for name, pin in (("tetracode", "b753b543933c05ec"),
                      ("golay12", "4618a310636b4178")):
        lat = lattice_of_code(standard_codes(name))
        digest = hashlib.sha256(json.dumps(lat.basis).encode()).hexdigest()
        assert digest[:16] == pin, name
        assert_lovasz(lat.gram, Fraction(3, 4))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: lll_reduce rounds "
                   "mu from before the size-reduction pass, so golay keeps "
                   "|mu| up to 4")
def test_golay_basis_is_size_reduced():
    lat = lattice_of_code(standard_codes("golay12"))
    mu, _ = gram_schmidt(lat.gram)
    assert all(abs(mu[i][j]) <= Fraction(1, 2)
               for i in range(lat.rank) for j in range(i))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def recursive_enumerate_coset(gram, shift, bound, emit):
    """Reference enumerator: the depth-first Fincke-Pohst recursion that
    enumerate_coset replaced, one Python call per tree node."""
    rank = len(gram)
    minors, lams = integral_gso(gram)
    D = [Fraction(minors[i + 1], minors[i]) for i in range(rank)]
    L = [[Fraction(x, minors[j + 1]) for j, x in enumerate(row)]
         for row in lams]
    shift = [Fraction(s) for s in shift]
    bound = Fraction(bound)
    q = 1
    for s in shift:
        q = q * s.denominator // gcd(q, s.denominator)
    sv = [int(s * q) for s in shift]

    lam = [None] * rank     # scaled off-diagonal rows of L^T
    Lam = [1] * rank
    for i in range(rank):
        den = 1
        for j in range(i + 1, rank):
            den = den * L[j][i].denominator // gcd(den,
                                                   L[j][i].denominator)
        Lam[i] = den
        lam[i] = [(j, int(L[j][i] * den)) for j in range(i + 1, rank)
                  if L[j][i] != 0]

    gden = 1
    for i in range(rank):
        piece = D[i].denominator * Lam[i] * Lam[i] * q * q
        gden = gden * piece // gcd(gden, piece)
    gi = [gden * D[i].numerator //
          (D[i].denominator * Lam[i] * Lam[i] * q * q) for i in range(rank)]
    budget = (bound.numerator * gden) // bound.denominator

    # cols[i]: updates to deeper levels once n_i is fixed
    cols = [[] for _ in range(rank)]
    for i in range(rank):
        for (j, c) in lam[i]:
            cols[j].append((i, c))

    xs = [0] * rank
    ns = [0] * rank
    acc = [[0] * rank for _ in range(rank + 1)]   # acc[depth] partial sums

    def descend(i, remaining, used):
        a = acc[i + 1]
        lam_i = Lam[i]
        step = lam_i * q
        base = lam_i * sv[i] + a[i]
        cap = remaining // gi[i]
        wmax = isqrt(cap)
        lo = -((wmax + base) // step)
        hi = (wmax - base) // step
        col = cols[i]
        for x in range(lo, hi + 1):
            w = step * x + base
            contrib = gi[i] * w * w
            rem = remaining - contrib
            if rem < 0:
                continue
            xs[i] = x
            ns[i] = q * x + sv[i]
            if i == 0:
                emit(tuple(xs), used + contrib, gden)
            else:
                nxt = acc[i]
                prev = a
                for t in range(i):
                    nxt[t] = prev[t]
                ni = ns[i]
                for (j, c) in col:
                    nxt[j] += c * ni
                descend(i - 1, rem, used + contrib)

    if rank:
        descend(rank - 1, budget, 0)


def both_enumerations(gram, shift, bound):
    """The leaves of enumerate_coset, checked against the reference: the
    blocks, flattened, give the same (x, norm) pairs in the same order, with
    norm = scaled / scale (enumerate_coset reduces the scale, the reference
    does not).  Each block is an int64 or object matrix of at most CHUNK
    rows with one scaled norm per row of the same dtype, all Python ints
    once listed."""
    got, want = [], []

    def emit(X, scaled, scale):
        assert X.dtype == scaled.dtype
        assert X.dtype in (np.int64, object)
        assert X.shape[1:] == (len(gram),)
        assert len(X) == len(scaled) <= codelattice.CHUNK
        for x, norm in zip(X.tolist(), scaled.tolist()):
            assert all(type(v) is int for v in x + [norm, scale])
            got.append((tuple(x), Fraction(norm, scale)))

    enumerate_coset(gram, shift, bound, emit)
    recursive_enumerate_coset(
        gram, shift, bound,
        lambda x, used, scale: want.append((x, Fraction(used, scale))))
    assert got == want
    return got


def skewed_gram(m, big):
    """Gram matrix of the basis (m s + t, s) with |s|^2 = 2, s.t = 1 and
    |t|^2 = big: large minors, but the short vectors of [[2, 1], [1, big]]."""
    return [[2 * m * m + 2 * m + big, 2 * m + 1], [2 * m + 1, 2]]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_enumerate_coset_matches_recursive_reference(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(1, 8 // (p - 1)))
    words = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        max_size=4))
    gens = []
    for w in words:
        if all(sum(x * y for x, y in zip(w, g)) % p == 0
               for g in gens + [w]):
            gens.append(w)
    rows = code_lattice_rows(p, n, gens)
    for i, j, c in data.draw(st.lists(
            st.tuples(st.integers(0, len(rows) - 1),
                      st.integers(0, len(rows) - 1), st.integers(-2, 2)),
            max_size=6)):
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    gram = [[x // p for x in row] for row in trace_gram(rows, p)]
    code = make_code(p, n, generators=gens or [[0] * n])
    lat = CodeLattice(code, rows, gram)
    word = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    bound = Fraction(data.draw(st.integers(0, 6 * p)), p)
    both_enumerations(gram, lat.shift_in_basis(word), bound)


# integral_gso of this Gram has lam_31 = 0 between nonzero lam_30 and
# lam_32, and lam_10 = 0: fixing x_3 updates levels 0 and 2 through a slice
# with a zero inside, and fixing x_1 updates nothing
SLICE_GRAM = [[2, 0, 2, -2], [0, 2, 2, 0], [2, 2, 6, 0], [-2, 0, 0, 6]]
SLICE_SHIFT = [Fraction(1, 2), Fraction(1, 3), 0, Fraction(-1, 2)]


def test_enumerate_coset_fixed_cases():
    golay = lattice_of_code(standard_codes("golay12"))
    gram = [list(r) for r in golay.gram]
    assert len(both_enumerations(gram, [0] * 24, 2)) == 73
    # golay's scale shares a factor of about 4.5 * 10^15 with its unit;
    # reduced, the scaled norms fit in int64
    dtypes = set()
    enumerate_coset(gram, [0] * 24, 2,
                    lambda X, scaled, scale: dtypes.add(
                        (X.dtype, scaled.dtype)))
    assert dtypes == {(np.dtype(np.int64), np.dtype(np.int64))}
    lams = integral_gso(SLICE_GRAM)[1]
    assert [[x != 0 for x in row] for row in lams] == [
        [], [False], [True, True], [True, False, True]]
    assert len(both_enumerations(SLICE_GRAM, SLICE_SHIFT, 12)) == 172
    # minors near 10^18: the norm budget and the coordinates need more
    # than 64 bits, so every array holds Python ints
    assert len(both_enumerations(skewed_gram(10 ** 9, 10 ** 12 + 3),
                                 [0, 0], 6)) == 3
    # a 66-bit budget: Python ints, although the coordinates fit in int64
    assert len(both_enumerations(skewed_gram(2 ** 20 + 1, 2 ** 40 + 5),
                                 [0, 0], 2 ** 24)) == 5793
    # coordinates near 10^15 fail the int64 coordinate bound, so the arrays
    # hold Python ints although the budget is small; near 10^19 they do not
    # fit in int64 at all
    a2 = [[2, -1], [-1, 2]]
    for big in (10 ** 15, 10 ** 19):
        far = [big + Fraction(1, 3), -big + Fraction(2, 3)]
        assert len(both_enumerations(a2, far, 6)) == 12
    # the coset (1/3, 2/3) of A2 has minimum norm 2/3
    assert both_enumerations(a2, far, Fraction(1, 2)) == []
    # a scaled diagonal entry far above the budget
    assert len(both_enumerations([[2, 0], [0, 2 ** 70]], [0, 0], 6)) == 3
    # the budget fits in int64 but the scaled norms, up to 2^66, do not, so
    # every array holds Python ints
    leaves = both_enumerations([[2 ** 60]], [0], 2 ** 66)
    assert [x for (x,), _ in leaves] == list(range(-8, 9))
    assert max(norm for _, norm in leaves) == 2 ** 66
    # an empty budget with a unit of 2^70: the one leaf has norm 0
    assert both_enumerations([[2 ** 70]], [0], 0) == [((0,), 0)]
    # the budget is k^2 - 1, k = 3 * 2^28 + 1, where float sqrt gives k
    k = 3 * 2 ** 28 + 1
    assert [x for (x,), _ in both_enumerations(
        [[1]], [Fraction(1, 2 ** 28)], Fraction(k * k - 1, 2 ** 56))] == [
        -3, -2, -1, 0, 1, 2]
    leaves = []
    enumerate_coset(a2, [0, 0], -1, lambda *leaf: leaves.append(leaf))
    assert leaves == []


def test_enumerate_coset_in_chunks_of_three(monkeypatch):
    monkeypatch.setattr(codelattice, "CHUNK", 3)
    e8 = lattice_of_code(standard_codes("tetracode"))
    assert len(both_enumerations([list(r) for r in e8.gram],
                                 e8.shift_in_basis((1, 0, 2, 1)), 4)) == 1437
    assert len(both_enumerations(skewed_gram(2 ** 20 + 1, 2 ** 40 + 5),
                                 [0, 0], 2 ** 24)) == 5793
    assert len(both_enumerations(
        [[2, -1], [-1, 2]],
        [10 ** 15 + Fraction(1, 3), -10 ** 15 + Fraction(2, 3)], 6)) == 12
    assert len(both_enumerations(SLICE_GRAM, SLICE_SHIFT, 12)) == 172


# ---------------------------------------------------------------------------
# The half-tree of a zero shift
# ---------------------------------------------------------------------------

def leads_positive(x):
    """x is zero, or its first nonzero coordinate in tree order
    (x_{rank-1}, ..., x_0) is positive: one of each +-x pair."""
    return next((c for c in reversed(x) if c), 0) >= 0


def half_enumerations(gram, bound):
    """The half-tree's leaves, checked against the reference: the full
    recursion's leaves filtered by leads_positive, in the same order."""
    rank = len(gram)
    got, want = [], []

    def emit(X, scaled, scale):
        assert X.dtype == scaled.dtype
        assert len(X) == len(scaled) <= codelattice.CHUNK
        for x, norm in zip(X.tolist(), scaled.tolist()):
            got.append((tuple(x), Fraction(norm, scale)))

    codelattice._fincke_pohst(gram, [0] * rank, bound, emit, True)
    recursive_enumerate_coset(
        gram, [0] * rank, bound,
        lambda x, used, scale: leads_positive(x) and want.append(
            (x, Fraction(used, scale))))
    assert got == want
    return got


def leaf_histogram(gram, bound):
    """The zero-shift histogram from the half-tree's coordinate leaves, each
    nonzero leaf counted for itself and its negative.  The coordinate-free
    run count_by_norm makes must hand over the same blocks of norms, with
    None for X."""
    runs = {}
    for coords in (True, False):
        blocks = runs[coords] = []
        codelattice._fincke_pohst(
            gram, [0] * len(gram), bound,
            lambda X, scaled, scale: blocks.append((X, scaled, scale)),
            True, coords=coords)
    assert len(runs[True]) == len(runs[False])
    counts = Counter()
    for (X, scaled, scale), (none, bare, bare_scale) in zip(runs[True],
                                                            runs[False]):
        assert none is None and bare_scale == scale
        assert bare.dtype == scaled.dtype
        assert bare.tolist() == scaled.tolist()
        for x, norm in zip(X.tolist(), scaled.tolist()):
            counts[Fraction(norm, scale)] += 2 if any(x) else 1
    return dict(counts)


def full_count_by_norm(gram, bound, shift=None):
    """Reference histogram: every leaf of the full tree of enumerate_coset,
    one count per vector."""
    counts = Counter()

    def emit(X, scaled, scale):
        counts.update(Fraction(v, scale) for v in scaled.tolist())

    enumerate_coset(gram, shift or [0] * len(gram), bound, emit)
    return dict(counts)


def lattice_theta(lattice, order, word):
    """Reference theta series of one coset from the full tree."""
    counts = full_count_by_norm([list(r) for r in lattice.gram], 2 * order,
                                lattice.shift_in_basis(word))
    return QSeries(lattice.p, lattice.p,
                   {int(norm * lattice.p / 2): c
                    for norm, c in counts.items()}, order)


def test_half_tree_fixed_cases():
    golay = lattice_of_code(standard_codes("golay12"))
    gram = [list(r) for r in golay.gram]
    assert len(half_enumerations(gram, 2)) == 37
    assert count_by_norm(golay, 2) == full_count_by_norm(gram, 2)
    assert len(half_enumerations(SLICE_GRAM, 12)) == 117
    # Python-int arrays: minors near 10^18, a 66-bit budget, a diagonal
    # entry far above the budget, scaled norms up to 2^66
    assert len(half_enumerations(skewed_gram(10 ** 9, 10 ** 12 + 3),
                                 6)) == 2
    assert len(half_enumerations(skewed_gram(2 ** 20 + 1, 2 ** 40 + 5),
                                 2 ** 24)) == 2897
    assert len(half_enumerations([[2, 0], [0, 2 ** 70]], 6)) == 2
    leaves = half_enumerations([[2 ** 60]], 2 ** 66)
    assert [x for (x,), _ in leaves] == list(range(9))
    assert half_enumerations([[2 ** 70]], 0) == [((0,), 0)]
    leaves = []
    codelattice._fincke_pohst([[2, -1], [-1, 2]], [0, 0], -1,
                              lambda *leaf: leaves.append(leaf), True)
    assert leaves == []
    # the doubled histograms equal the full ones
    for lat, bound in ((standard_lattice(3, 1), 8),
                       (standard_lattice(5, 2), 6),
                       (lattice_of_code(standard_codes("tetracode")), 6)):
        gram = [list(r) for r in lat.gram]
        assert count_by_norm(lat, bound) == full_count_by_norm(gram, bound)
        assert count_by_norm(lat, bound, (0,) * lat.n) == \
            full_count_by_norm(gram, bound)
    # a Gram that does not come from its basis: the shift's coordinates
    # have denominator 3, so the norms lie in (1/9)Z, off the (1/3)Z grid
    # of a code's cosets, and are still counted exactly
    a2 = standard_lattice(3, 1)
    square = CodeLattice(a2.code, a2.basis, [[2, 0], [0, 2]])
    assert count_by_norm(square, 4, (1,)) == full_count_by_norm(
        [[2, 0], [0, 2]], 4, a2.shift_in_basis((1,))) == {
        Fraction(4, 9): 1, Fraction(10, 9): 2, Fraction(16, 9): 1,
        Fraction(34, 9): 2}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_half_tree_matches_filtered_reference(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(1, 8 // (p - 1)))
    words = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        max_size=4))
    gens = []
    for w in words:
        if all(sum(x * y for x, y in zip(w, g)) % p == 0
               for g in gens + [w]):
            gens.append(w)
    rows = code_lattice_rows(p, n, gens)
    for i, j, c in data.draw(st.lists(
            st.tuples(st.integers(0, len(rows) - 1),
                      st.integers(0, len(rows) - 1), st.integers(-2, 2)),
            max_size=6)):
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    gram = [[x // p for x in row] for row in trace_gram(rows, p)]
    lat = CodeLattice(make_code(p, n, generators=gens or [[0] * n]), rows,
                      gram)
    bound = Fraction(data.draw(st.integers(0, 6 * p)), p)
    half_enumerations(gram, bound)
    assert count_by_norm(lat, bound) == full_count_by_norm(gram, bound) \
        == leaf_histogram(gram, bound)


def test_coordinate_free_histograms_match_the_leaves():
    golay = lattice_of_code(standard_codes("golay12"))
    e8 = lattice_of_code(standard_codes("tetracode"))
    for lat, bound in ((golay, 2), (e8, 4), (standard_lattice(3, 1), 8),
                       (standard_lattice(5, 2), 6)):
        gram = [list(r) for r in lat.gram]
        assert count_by_norm(lat, bound) == leaf_histogram(gram, bound)
    # Python-int arrays, as in test_half_tree_fixed_cases
    for gram, bound, size in (
            (SLICE_GRAM, 12, 233),
            (skewed_gram(10 ** 9, 10 ** 12 + 3), 6, 3),
            (skewed_gram(2 ** 20 + 1, 2 ** 40 + 5), 2 ** 24, 5793),
            ([[2, 0], [0, 2 ** 70]], 6, 3),
            ([[2 ** 60]], 2 ** 66, 17),
            ([[2 ** 70]], 0, 1),
            ([[2, -1], [-1, 2]], -1, 0)):
        assert sum(leaf_histogram(gram, bound).values()) == size


def test_group_sums_match_the_leaf_matrix():
    # coords as a group per coordinate: each leaf comes as its sums of x
    # over the groups, in the blocks and order of the leaf matrix, for the
    # full tree at a shift and for the half-tree, int64 and Python ints
    golay = [list(r) for r in
             lattice_of_code(standard_codes("golay12")).gram]
    for gram, shift, half, bound, groups in (
            (SLICE_GRAM, SLICE_SHIFT, False, 12, (1, 0, 1, 2)),
            (SLICE_GRAM, [0] * 4, True, 12, (0, 0, 1, 1)),
            (golay, [0] * 24, True, 2, tuple(j // 8 for j in range(24))),
            (skewed_gram(10 ** 9, 10 ** 12 + 3), [0, 0], False, 6, (0, 0))):
        runs = {}
        for coords in (True, groups):
            blocks = runs[coords] = []
            codelattice._fincke_pohst(
                gram, shift, bound,
                lambda X, scaled, scale: blocks.append(
                    (X.tolist(), scaled.tolist(), scale)),
                half, coords)
        assert runs[True]
        assert runs[groups] == [
            ([[sum(v for v, g in zip(x, groups) if g == c)
               for c in range(max(groups) + 1)] for x in X], scaled, scale)
            for X, scaled, scale in runs[True]]


def test_int32_threshold_matches_python_ints(monkeypatch):
    # An integer moved from x_0 into the shift leaves the coset, so its
    # leaves and norms, as they are; it raises reach by 6 per unit, here to
    # just below and just above the largest int32 reach, 2^30 / (CHUNK + 1)
    # rounded down (262,080).  Each run, with or without coordinates, must
    # hand over the same blocks as the run forced onto Python ints.
    true_dtypes = codelattice._dtypes
    chosen = []

    def spied(norm_top, reach):
        chosen.append((reach, true_dtypes(norm_top, reach)))
        return chosen[-1][1]

    def blocks(shift, coords):
        out = []
        codelattice._fincke_pohst(
            SLICE_GRAM, shift, 12,
            lambda X, scaled, scale: out.append((
                None if X is None else X.tolist(), scaled.tolist(), scale)),
            False, coords)
        return out

    assert (1 << 30) // (codelattice.CHUNK + 1) == 262080
    for offset, reach, ct in ((43668, 262076, np.int32),
                              (43669, 262082, np.int64)):
        shift = [SLICE_SHIFT[0] + offset] + SLICE_SHIFT[1:]
        for coords in (True, False):
            monkeypatch.setattr(codelattice, "_dtypes", spied)
            got = blocks(shift, coords)
            assert chosen[-1] == (reach, (np.int64, ct))
            monkeypatch.setattr(codelattice, "_dtypes",
                                lambda norm_top, reach: (object, object))
            assert got == blocks(shift, coords)
            assert sum(len(b[1]) for b in got) == 172


def test_golay_histogram_memory(monkeypatch):
    # numpy reports its buffers to tracemalloc.  Without coordinates the
    # half-tree's blocks hold no x or parent columns and no leaf matrix is
    # stacked, and golay's partial sums, lo and ends fit in int32: about
    # 4.1 MB at the peak, against 7.9 MB with int64 and 10.5-11.0 MB with
    # the coordinate columns as well.  The walk is kept in one process:
    # split, tracemalloc would see only the parent's share (about 3.1 MB).
    monkeypatch.setattr(codelattice, "_can_split", lambda: False)
    golay = lattice_of_code(standard_codes("golay12"))
    tracemalloc.start()
    try:
        counts = count_by_norm(golay, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == {0: 1, 2: 72, 4: 194832}
    assert peak < 5.5e6, peak / 1e6


def test_lattice_rank_is_capped(monkeypatch):
    # the rank n (p - 1) is tested before any basis row or shell table
    assert codelattice.MAX_LATTICE_RANK == 1 << 10
    codelattice._check_rank(3, 512)
    codelattice._check_rank(1021, 1)
    for p, n in ((3, 513), (1031, 1), (2053, 1), (257, 5)):
        with pytest.raises(ValueError, match=r"p = %d, n = %d: the lattice "
                           r"rank n\(p-1\) = %d is above MAX_LATTICE_RANK"
                           % (p, n, n * (p - 1))):
            codelattice._check_rank(p, n)
    # the boundary, with the cap lowered to 8: rank 8 is built, rank 10 not
    monkeypatch.setattr(codelattice, "MAX_LATTICE_RANK", 8)
    assert lattice_of_code(standard_codes("tetracode")).rank == 8
    assert lattice_of_code(zero_code(5, 2)).rank == 8
    assert codelattice.coset_shell_counts(3, 4, (1, 0, 2, 0), 2).sum() > 0
    message = r"p = %d, n = %d: the lattice rank n\(p-1\) = 10 is above " \
              r"MAX_LATTICE_RANK = 8"
    with pytest.raises(ValueError, match=message % (11, 1)):
        lattice_of_code(zero_code(11, 1))
    with pytest.raises(ValueError, match=message % (3, 5)):
        lattice_of_code(zero_code(3, 5))
    with pytest.raises(ValueError, match=message % (3, 5)):
        codelattice.coset_shell_counts(3, 5, (1, 0, 2, 0, 0), 2)
    with pytest.raises(ValueError, match=message % (11, 1)):
        codelattice.coset_shell_counts(11, 1, (1,), 2)


def binned_block_table(p, limit):
    """Reference per-digit shell counts: every vector of one block listed
    by the box oracle's table, binned by (digit, scaled norm)."""
    norms, digits = codelattice._block_table(p, limit)
    return np.bincount(digits * (limit + 1) + norms,
                       minlength=p * (limit + 1)).reshape(p, limit + 1)


@pytest.mark.parametrize("p, limit",
                         [(3, 30), (5, 65), (7, 91), (7, 280), (11, 143)])
def test_digit_counts_match_the_listed_block(p, limit):
    # two counting routes: the (x.x, sum x) histogram and the vector list
    counts = codelattice._digit_counts.__wrapped__(p, limit)
    assert counts.dtype == np.int64 and not counts.flags.writeable
    assert np.array_equal(counts, binned_block_table(p, limit))


def test_digit_counts_memory_and_python_int_entries():
    # (11, 143) is p = 11 at Im z = 1: listing its 3,581,535 vectors peaked
    # at 416 MB under tracemalloc; the histogram stays under 1 MB
    tracemalloc.start()
    try:
        counts = codelattice._digit_counts.__wrapped__(11, 143)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(counts.sum()) == 3581535
    assert peak < 5e6, peak / 1e6
    # at p = 41 the box 13^40 passes 2^63, so the entries are Python ints;
    # below norm 41 lie 0 and the 2p roots of unity +-zeta^k (norm 40),
    # each of digit 1 (zeta^k) or 40 (-zeta^k)
    counts = codelattice._digit_counts.__wrapped__(41, 41)
    assert counts.dtype == object
    nonzero = {(a, k): c for (a, k), c in np.ndenumerate(counts) if c}
    assert nonzero == {(0, 0): 1, (1, 40): 41, (40, 40): 41}

def test_digit_counts_served_as_slices_of_the_largest_table(monkeypatch):
    # the limits sl2f3 asks at p = 3, in its order: 36 and 66 are built,
    # and each smaller limit is read from the largest table so far
    built = lru_cache(maxsize=16)(codelattice._digit_counts.__wrapped__)
    monkeypatch.setattr(codelattice, "_digit_counts", built)
    monkeypatch.setattr(codelattice, "_digit_limits", {})
    for limit in (36, 21, 66, 27, 51):
        counts = codelattice._digit_slice(3, limit)
        assert not counts.flags.writeable
        want = codelattice._digit_counts.__wrapped__(3, limit)
        assert counts.dtype == want.dtype and counts.shape == want.shape
        assert np.array_equal(counts, want)
    assert built.cache_info().misses == 2
    # the stage itself builds each prime's table twice at most
    built.cache_clear()
    monkeypatch.setattr(codelattice, "_digit_limits", {})
    assert dict(cli.VERIFY_STAGES)["sl2f3"]()["pass"]
    assert built.cache_info().misses == 2


def test_theta_series_by_word_matches_full_tree():
    for p, n in ((3, 2), (5, 2)):
        lat = standard_lattice(p, n)
        table = theta_series_by_word(p, n, 2)
        for word, series in table.items():
            assert series == lattice_theta(lat, Fraction(2), word), word
            assert series == theta_series(lat, 2, word), word


def test_half_tree_in_chunks_of_three(monkeypatch):
    # flagged nodes whose children span two chunks: at bound 18 the root
    # of A2 takes x_1 = 0 .. 3, and its child x_1 = 0 takes x_0 = 0 .. 3
    monkeypatch.setattr(codelattice, "CHUNK", 3)
    a2 = [[2, -1], [-1, 2]]
    assert len(half_enumerations(a2, 18)) == 19
    blocks = []
    codelattice._fincke_pohst(a2, [0, 0], 18,
                              lambda X, *_: blocks.append(X.tolist()), True)
    assert blocks[:2] == [[[0, 0], [1, 0], [2, 0]],
                          [[3, 0], [-2, 1], [-1, 1]]]
    e8 = lattice_of_code(standard_codes("tetracode"))
    gram = [list(r) for r in e8.gram]
    assert len(half_enumerations(gram, 4)) == 1201
    assert count_by_norm(e8, 4) == full_count_by_norm(gram, 4) == {
        0: 1, 2: 240, 4: 2160}
    lat = standard_lattice(3, 2)
    for word, series in theta_series_by_word(3, 2, 3).items():
        assert series == lattice_theta(lat, Fraction(3), word), word


# ---------------------------------------------------------------------------
# Zero-shift histograms split across two processes
# ---------------------------------------------------------------------------

def spied_forks(monkeypatch, force=True):
    """List the pid each fork of a split walk gives the parent (0 in the
    child's copy); with force, the wide walks fork whatever the CPU count."""
    if force:
        monkeypatch.setattr(codelattice, "_can_split", lambda: True)
    true_fork = codelattice._fork
    pids = []

    def spied(parts):
        claims, child = true_fork(parts)
        pids.append(child[0])
        return claims, child

    monkeypatch.setattr(codelattice, "_fork", spied)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def series_items(table):
    return [(word, list(series.terms.items()))
            for word, series in table.items()]


def test_split_and_serial_histograms_are_equal(monkeypatch):
    golay = lattice_of_code(standard_codes("golay12"))
    runs = (lambda: list(count_by_norm(golay, 4).items()),
            lambda: series_items(theta_series_by_word(5, 3, 3)),
            lambda: series_items(theta_series_by_word(3, 3, 3)))
    monkeypatch.setattr(codelattice, "_can_split", lambda: False)
    serial = [run() for run in runs]
    assert serial[0] == [(0, 1), (2, 72), (4, 194832)]
    pids = spied_forks(monkeypatch)
    for index, run in enumerate(runs):
        if index == 2:
            # far below the threshold: its widest block has 1102 children
            # one level above the leaves, so it splits only at 1102
            monkeypatch.setattr(codelattice, "SPLIT_WORK", 1102)
        for _ in range(2):
            forks = len(pids)
            assert run() == serial[index], index
            assert len(pids) == forks + 1 and pids[-1] > 0
            assert_no_child_left()


def test_split_below_blocks_with_chunks_left(monkeypatch):
    # in chunks of three, the first block to reach the threshold can lie
    # below blocks whose later chunks are still to expand: the child walks
    # only the segments it claims, and the parent its own and the rest.
    # Shifted cosets walk the full tree and split the same way.
    monkeypatch.setattr(codelattice, "CHUNK", 3)
    e8 = lattice_of_code(standard_codes("tetracode"))
    lat5 = standard_lattice(5, 2)
    shifted = ((e8, (1, 0, 2, 1)), (lat5, (1, 0)))
    runs = [lambda: list(count_by_norm(e8, 4).items()),
            lambda: series_items(theta_series_by_word(3, 2, 3))]
    for lat, word in shifted:
        runs.append(lambda lat=lat, word=word: list(
            count_by_norm(lat, 4, shift_word=word).items()))
    monkeypatch.setattr(codelattice, "_can_split", lambda: False)
    serial = [run() for run in runs]
    for (lat, word), counts in zip(shifted, serial[2:]):
        assert dict(counts) == full_count_by_norm(
            [list(r) for r in lat.gram], 4, lat.shift_in_basis(word))
    assert sum(c for _, c in serial[2]) == 1437
    assert serial[3] == [(Fraction(4, 5), 5), (Fraction(14, 5), 130)]
    pids = spied_forks(monkeypatch)
    for work in (4, 8, 16, 24):
        monkeypatch.setattr(codelattice, "SPLIT_WORK", work)
        for index, run in enumerate(runs):
            forks = len(pids)
            assert run() == serial[index], (work, index)
            assert len(pids) == forks + 1 and pids[-1] > 0
            assert_no_child_left()
    # at 73 the shifted e8 walk first reaches the threshold after 613
    # leaves, so the child must drop the counts it inherited
    monkeypatch.setattr(codelattice, "SPLIT_WORK", 73)
    forks = len(pids)
    assert runs[2]() == serial[2]
    assert len(pids) == forks + 1 and pids[-1] > 0
    assert_no_child_left()


def test_walks_below_the_threshold_never_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(codelattice, "_can_split", lambda: True)
    monkeypatch.setattr(os, "fork", no_fork)
    golay = lattice_of_code(standard_codes("golay12"))
    assert lattice_info(golay)["minimal_norm"] == 2
    assert count_by_norm(golay, 2) == {0: 1, 2: 72}
    lat = standard_lattice(5, 2)
    assert theta_series_by_word(5, 2, 3) == {
        word: theta_series(lat, 3, word)
        for word in product(range(5), repeat=2)}
    assert dict(cli.VERIFY_STAGES)["expansion"]()["pass"]
    # the wide walks do reach the fork, and its failure is raised
    with pytest.raises(AssertionError, match="forked"):
        count_by_norm(golay, 4)


def test_without_fork_or_a_second_cpu_the_walk_stays_serial(monkeypatch):
    golay = lattice_of_code(standard_codes("golay12"))
    pids = spied_forks(monkeypatch, force=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert not codelattice._can_split()
    assert count_by_norm(golay, 4) == {0: 1, 2: 72, 4: 194832}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert codelattice._can_split()
    monkeypatch.delattr(os, "fork", raising=False)
    assert not codelattice._can_split()
    assert count_by_norm(golay, 4) == {0: 1, 2: 72, 4: 194832}
    assert pids == []


def fail_after_fork(monkeypatch, pids, side, exc):
    """_isqrt raises exc in the named process once the walk has forked."""
    parent = os.getpid()
    true_isqrt = codelattice._isqrt

    def failing(cap, top):
        if pids and (os.getpid() == parent) == (side == "parent"):
            raise exc
        return true_isqrt(cap, top)

    monkeypatch.setattr(codelattice, "_isqrt", failing)


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize("side, exc, raised, message", [
    ("child", ValueError("child walk failed"), ValueError,
     "^child walk failed$"),
    ("child", Unpicklable("child walk failed"), RuntimeError,
     "^Unpicklable: child walk failed$"),
    ("parent", KeyError("parent walk failed"), KeyError,
     "parent walk failed"),
])
def test_a_failed_side_is_raised_and_no_child_outlives_it(
        monkeypatch, side, exc, raised, message):
    golay = lattice_of_code(standard_codes("golay12"))
    pids = spied_forks(monkeypatch)
    fail_after_fork(monkeypatch, pids, side, exc)
    with pytest.raises(raised, match=message):
        count_by_norm(golay, 4)
    assert len(pids) == 1 and pids[0] > 0
    assert_no_child_left()
    monkeypatch.undo()
    assert count_by_norm(golay, 4) == {0: 1, 2: 72, 4: 194832}


# ---------------------------------------------------------------------------
# Pruned ambient oracle
# ---------------------------------------------------------------------------

def exhaustive_box_count(lattice, bound, shift_word=None):
    """Reference oracle: the exhaustive coefficient box that the pruned
    box_count_by_norm replaced.  Every ambient vector with all coefficients
    within sqrt(2B) (the dual form of one cyclotomic coordinate has
    diagonal 2) is norm-checked and digit-word-filtered in int64."""
    p, n = lattice.p, lattice.n
    d = p - 1
    rank = n * d
    bound = Fraction(bound)
    if bound < 0:
        return {}
    limit = (bound.numerator * p) // bound.denominator
    w = isqrt((2 * bound.numerator) // bound.denominator)
    size = 2 * w + 1
    shift = ((0,) * n if shift_word is None
             else tuple(int(x) % p for x in shift_word))
    allowed = np.zeros(p ** n, dtype=bool)
    for word in lattice.code.words:
        idx = 0
        for a, b in zip(word, shift):
            idx = idx * p + (a + b) % p
        allowed[idx] = True
    word_pows = np.array([p ** (n - 1 - i) for i in range(n)],
                         dtype=np.int64)
    total = size ** rank
    strides = np.array([size ** (rank - 1 - i) for i in range(rank)],
                       dtype=np.int64)
    counts = Counter()
    for start in range(0, total, 1 << 19):
        idx = np.arange(start, min(start + (1 << 19), total), dtype=np.int64)
        x = (idx[:, None] // strides) % size - w
        blocks = x.reshape(-1, n, d)
        sums = blocks.sum(axis=2)
        # per-block scaled norm: p * dot(x, x) - (sum x)^2
        scaled = (p * (blocks * blocks).sum(axis=2) - sums * sums).sum(axis=1)
        digits = (sums % p) @ word_pows
        keep = (scaled <= limit) & allowed[digits]
        vals, cnts = np.unique(scaled[keep], return_counts=True)
        for v, c in zip(vals.tolist(), cnts.tolist()):
            counts[Fraction(v, p)] += c
    return dict(counts)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_box_oracle_matches_exhaustive_box_and_fincke_pohst(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(1, 8 // (p - 1)))
    words = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        max_size=4))
    gens = []
    for w in words:
        if all(sum(x * y for x, y in zip(w, g)) % p == 0
               for g in gens + [w]):
            gens.append(w)
    lat = lattice_of_code(make_code(p, n, generators=gens or [[0] * n]))
    word = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=n,
                                    max_size=n)))
    bound = Fraction(data.draw(st.integers(0, 6 * p)), p)
    got = box_count_by_norm(lat, bound, shift_word=word)
    assert got == exhaustive_box_count(lat, bound, shift_word=word)
    assert got == count_by_norm(lat, bound, shift_word=word)


def test_box_oracle_fixed_cases(monkeypatch):
    a2 = standard_lattice(3, 1)
    # the coset of the digit 1 has minimum norm 2/3; both routes agree at
    # negative bounds and below the least nonzero norm
    for bound, word, want in (
            (-1, None, {}), (Fraction(-1, 3), (1,), {}),
            (0, None, {0: 1}), (Fraction(1, 4), (0,), {0: 1}),
            (0, (1,), {}), (Fraction(1, 4), (1,), {}),
            (Fraction(1, 2), (1,), {}), (Fraction(2, 3), (1,), {
                Fraction(2, 3): 3})):
        assert box_count_by_norm(a2, bound, shift_word=word) == want
        assert count_by_norm(a2, bound, shift_word=word) == want
    # at p = 47 the norm scale passes 2^63 while every norm below 1 is 0,
    # so the walk holds Python ints and each key stays exact
    lat47 = standard_lattice(47, 1)
    assert count_by_norm(lat47, 0) == box_count_by_norm(lat47, 0) == {0: 1}
    assert count_by_norm(lat47, Fraction(46, 47), shift_word=(1,)) == {
        Fraction(46, 47): 47}
    with pytest.raises(ValueError, match="length"):
        box_count_by_norm(a2, 2, shift_word=(1, 0))
    # 3^40 digit words would wrap the int64 prefix codes
    long = SimpleNamespace(p=3, n=40, code=zero_code(3, 40))
    with pytest.raises(ValueError, match="int64"):
        box_count_by_norm(long, 2)
    # children of one node split across chunks, chunks spanning nodes
    monkeypatch.setattr(codelattice, "CHUNK", 3)
    e8 = lattice_of_code(standard_codes("tetracode"))
    got = box_count_by_norm(e8, 4, shift_word=(1, 0, 2, 1))
    assert sum(got.values()) == 1437
    assert got == exhaustive_box_count(e8, 4, shift_word=(1, 0, 2, 1))
    monkeypatch.setenv("THETA_FORGE_MAX_NORM", "6")
    with pytest.raises(ValueError, match="THETA_FORGE_MAX_NORM"):
        box_count_by_norm(a2, 8)


def test_box_oracle_reads_only_the_code():
    # no gram, no basis: the oracle needs the prime, the length and the words
    code = standard_codes("tetracode")
    bare = SimpleNamespace(p=code.p, n=code.n, code=code)
    assert box_count_by_norm(bare, 6) == {0: 1, 2: 240, 4: 2160, 6: 6720}
