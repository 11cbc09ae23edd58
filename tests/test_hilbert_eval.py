import cmath
import gc
import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from thetaforge import hilbert_eval
from thetaforge.codelattice import (
    CHUNK, coset_shell_counts, enumerate_coset, lift_word, max_norm_cap,
    standard_lattice, theta_series,
)
from thetaforge.fpcode import make_code, standard_codes
from thetaforge.hilbert_eval import (
    HilbertPoint, _coset_arrays, _coset_table, _coset_values,
    _enumerator_value, as_point, galois_permutation, parse_points_text,
    theta_class_eval, theta_code_eval, verify_alpbach, verify_sl2f3_action,
)

from test_cyclotomic import embed


def evaluate_at(series, z, embedding=1):
    """Reference: float value of the truncation at q = exp(2 pi i z),
    Im(z) > 0, with the coefficients sent through the chosen complex
    embedding.  No tail estimate is made; the caller owns the truncation
    error."""
    total = 0j
    for e, c in series.items():
        total += (embed(c, embedding)
                  * cmath.exp(2j * cmath.pi * z * float(e)))
    return total


def test_point_validation():
    with pytest.raises(ValueError):
        HilbertPoint(3, [1j, 1j])          # too many components
    with pytest.raises(ValueError):
        HilbertPoint(5, [1j])
    with pytest.raises(ValueError):
        HilbertPoint(3, [1.0 - 1j])        # lower half plane
    for bad in (complex("nan+1j"), complex("infj"), complex(1, float("nan"))):
        with pytest.raises(ValueError, match="is not finite"):
            HilbertPoint(5, [1j, bad])
    pt = HilbertPoint(5, [1j, 0.5 + 2j])
    assert pt.y_min == 1.0


def test_class_value_matches_exact_series_at_i():
    series = theta_series(standard_lattice(3, 1), 10)
    exact = evaluate_at(series, 1j)
    val = theta_class_eval(3, 0, 1j, tail_tol=1e-11)
    assert abs(val - exact) < 1e-9


def test_nonzero_class_matches_exact_series():
    series = theta_series(standard_lattice(3, 1), Fraction(31, 3),
                          shift_word=(1,))
    exact = evaluate_at(series, 0.2 + 1.1j)
    val = theta_class_eval(3, 1, 0.2 + 1.1j, tail_tol=1e-11)
    assert abs(val - exact) < 1e-9


def test_large_imaginary_part_limits():
    assert abs(theta_class_eval(3, 0, 1e6j) - 1.0) < 1e-12
    assert abs(theta_class_eval(3, 1, 1e6j)) < 1e-12


def test_negated_classes_agree():
    a = theta_class_eval(3, 1, 0.3 + 1.2j)
    b = theta_class_eval(3, 2, 0.3 + 1.2j)
    assert abs(a - b) < 1e-12


def test_diagonal_point_reduces_to_series_for_p5():
    series = theta_series(standard_lattice(5, 1), 8)
    exact = evaluate_at(series, 1j)
    val = theta_class_eval(5, 0, [1j, 1j], tail_tol=1e-11)
    assert abs(val - exact) < 1e-9


def test_code_eval_empty_and_e8():
    tetra = standard_codes("tetracode")
    series = theta_series(
        __import__("thetaforge.codelattice", fromlist=["lattice_of_code"])
        .lattice_of_code(tetra), 10)
    exact = evaluate_at(series, 0.1 + 1j)
    val = theta_code_eval(tetra, 0.1 + 1j, tail_tol=1e-10)
    assert abs(val - exact) < 1e-8


def test_alpbach_report_tetracode():
    report = verify_alpbach(standard_codes("tetracode"), [1j], tol=1e-8)
    assert report["pass"]
    row = report["points"][0]
    assert row["residual"] < 1e-8
    assert row["pass"]


def test_alpbach_report_p5_with_galois_swap():
    code = make_code(5, 2, words=[(0, 0), (1, 2), (3, 3)])
    report = verify_alpbach(code, [HilbertPoint(5, [1j, 1.5j])], tol=1e-8)
    assert report["pass"]
    assert report["points"][0]["galois_residual"] < 1e-8


def test_galois_permutation_shapes():
    assert galois_permutation(5, 2) == [1, 0]
    assert sorted(galois_permutation(7, 2)) == [0, 1, 2]


def test_sl2f3_action_report():
    report = verify_sl2f3_action(1j, tol=1e-7)
    assert report["pass"]
    assert report["max_residual"] < 1e-7


def test_tail_tolerance_refinement_is_monotone():
    z = 0.2 + 1j
    ref = theta_class_eval(3, 0, z, tail_tol=1e-12)
    residuals = []
    tol = 1e-4
    for _ in range(5):
        residuals.append(abs(theta_class_eval(3, 0, z, tail_tol=tol) - ref))
        tol /= 2
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a + 1e-15


def test_enumeration_cap_error(monkeypatch):
    monkeypatch.setenv("THETA_FORGE_MAX_NORM", "4")
    with pytest.raises(ValueError, match="loosen --tol"):
        theta_class_eval(3, 0, 0.3j, tail_tol=1e-10)
    # the message names the point with the smallest Im z that has no stop
    # shell, and the bound its guess asked for
    points = [as_point(5, [1j, 2j]), as_point(5, [0.3j, 0.2 + 0.4j])]
    with pytest.raises(ValueError) as exc:
        _coset_values(5, 2, (0, 0), points, 1e-10)
    assert str(exc.value) == (
        "tail still above 1e-10 at the enumeration cap 4; the point 0.3j "
        "(0.2+0.4j) asks for a norm bound of about 36.9; raise "
        "THETA_FORGE_MAX_NORM or loosen --tol")


def test_non_finite_sum_names_the_point():
    # Re z * sigma overflows: the sum is rejected without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            theta_class_eval(5, 1, [1e308 + 1j, 1j])
    assert str(exc.value) == (
        "the theta sum at the point (1e+308+1j) 1j is not finite")


def test_points_file_parsing():
    pts = parse_points_text("# two points\n1j\n0.3+1.5j\n", 3)
    assert len(pts) == 2 and pts[1].values[0] == 0.3 + 1.5j
    pts5 = parse_points_text("1j 2j\n", 5)
    assert pts5[0].values == (1j, 2j)
    with pytest.raises(ValueError, match="^line 2: expected 2 components"):
        parse_points_text("1j 1j\n1j\n", 5)
    with pytest.raises(ValueError, match="^line 1: 'abc' is not a complex"):
        parse_points_text("abc 1j\n", 5)
    with pytest.raises(ValueError, match="^line 1: component"):
        parse_points_text("nan+1j 1j\n", 5)
    with pytest.raises(ValueError):
        parse_points_text("# nothing\n", 3)


# Reference evaluator: it recomputes the embedding sums, the norm order and
# every row's exponential at each point.  The per-coset table must give the
# same floats bit for bit.

def reference_coset_arrays(p, n, word, bound):
    lat = standard_lattice(p, n)
    shift = lat.shift_in_basis(word)
    rows = []
    norms = []
    scale_box = [1]

    def emit(X, scaled, scale):
        rows.extend(X.tolist())
        norms.extend(scaled.tolist())
        scale_box[0] = scale

    enumerate_coset([list(r) for r in lat.gram], shift, bound, emit)
    d = p - 1
    if not rows:
        return (np.zeros((0, n * d), dtype=np.int64),
                np.zeros(0, dtype=np.int64), 1)
    basis = np.array(lat.basis, dtype=np.int64)
    coords = (np.array(rows, dtype=np.int64) @ basis
              + np.array(lift_word(word, p, n), dtype=np.int64))
    return coords, np.array(norms, dtype=np.int64), scale_box[0]


def reference_shell_sum(p, coords, norms_scaled, scale, point, tail_tol):
    if coords.shape[0] == 0:
        return 0j, False
    d = p - 1
    n = coords.shape[1] // d
    blocks = coords.reshape(-1, n, d).astype(np.float64)
    phase = np.zeros(coords.shape[0], dtype=np.complex128)
    for l, z in enumerate(point.values, start=1):
        w = np.exp((2j * np.pi * l / p) * np.arange(d))
        emb = blocks @ w
        phase += z * (emb.real ** 2 + emb.imag ** 2).sum(axis=1)
    terms = np.exp((2j * np.pi / p) * phase)
    order = np.argsort(norms_scaled, kind="stable")
    uniq, starts, counts = np.unique(norms_scaled[order],
                                     return_index=True, return_counts=True)
    terms = terms[order]
    y_min = point.y_min
    total = 0j
    for u, s0, cnt in zip(uniq.tolist(), starts.tolist(), counts.tolist()):
        est = cnt * math.exp(-math.pi * y_min * (u / scale))
        if est < tail_tol / 10:
            return total, True
        total += complex(terms[s0:s0 + cnt].sum())
    return total, False


def reference_coset_value(p, n, word, point, tail_tol):
    cap = max_norm_cap()
    guess = 1.3 * math.log(10 / tail_tol) / (math.pi * point.y_min) + 2
    bound = Fraction(max(6, math.ceil(guess)))
    word = tuple(int(c) % p for c in word)
    while True:
        use = min(bound, cap)
        coords, norms, scale = reference_coset_arrays(p, n, word, use)
        value, finished = reference_shell_sum(p, coords, norms, scale, point,
                                              tail_tol)
        if finished:
            return value
        if use >= cap:
            raise ValueError(
                "tail still above %g at the enumeration cap %s; raise "
                "THETA_FORGE_MAX_NORM or loosen tail_tol" % (tail_tol, cap))
        bound = bound * 2


@pytest.mark.parametrize("tail_tol", [1e-10, 1e-12])
@pytest.mark.parametrize("z", [1j, 0.3 + 1.5j])
@pytest.mark.parametrize("j", [0, 1])
def test_class_eval_matches_reference_exactly(j, z, tail_tol):
    ref = reference_coset_value(3, 1, (j,), as_point(3, z), tail_tol)
    assert theta_class_eval(3, j, z, tail_tol=tail_tol) == ref


@pytest.mark.parametrize("tail_tol", [1e-10, 1e-12])
@pytest.mark.parametrize("z", [(1j, 1.5j), (0.2 + 1.2j, 1.3j)])
def test_code_eval_matches_reference_exactly(z, tail_tol):
    point = as_point(5, z)
    # (4, 3) and (3, 1) are read from the tables of (1, 2) and (2, 4)
    code = make_code(5, 2, words=[(0, 0), (1, 2), (2, 4), (4, 3), (3, 1)])
    total = 0j
    for w in code.words:
        value = reference_coset_value(5, 2, w, point, tail_tol)
        single = make_code(5, 2, words=[w])
        assert theta_code_eval(single, z, tail_tol=tail_tol) == value
        total += value
    assert theta_code_eval(code, z, tail_tol=tail_tol) == total


def test_cap_error_matches_reference(monkeypatch):
    monkeypatch.delenv("THETA_FORGE_MAX_NORM", raising=False)
    message = "tail still above 1e-10 at the enumeration cap 40"
    with pytest.raises(ValueError, match=message):
        reference_coset_value(3, 1, (0,), as_point(3, 0.2j), 1e-10)
    with pytest.raises(ValueError, match=message):
        theta_class_eval(3, 0, 0.2j, tail_tol=1e-10)


def test_empty_coset_table_matches_reference(monkeypatch):
    # the coset (1, 2) of the p=5, n=2 standard lattice has minimum norm 2
    bound = Fraction(3, 2)
    sigma, shell_norms, shell_ends = _coset_arrays(5, 2, (1, 2), bound)
    assert sigma.shape == (0, 2)
    assert shell_norms.shape == shell_ends.shape == (0,)
    coords, norms, _ = reference_coset_arrays(5, 2, (1, 2), bound)
    assert coords.shape == (0, 8) and norms.shape == (0,)
    # capped below the minimum, every table is empty and no shell stops the
    # sum: both evaluators fail at the cap with the same message
    monkeypatch.setenv("THETA_FORGE_MAX_NORM", "3/2")
    message = "tail still above 1e-10 at the enumeration cap 3/2"
    with pytest.raises(ValueError, match=message):
        reference_coset_value(5, 2, (1, 2), as_point(5, 1j), 1e-10)
    with pytest.raises(ValueError, match=message):
        theta_code_eval(make_code(5, 2, words=[(1, 2)]), 1j, tail_tol=1e-10)


def test_bound_growth_matches_reference():
    # The stop shell at Im z = 0.7 lies past the first bound, so the shell
    # counts are taken again at a larger one; only then is one table
    # enumerated, and the point at Im z = 1.5 reads it too.
    points = [as_point(5, 0.7j), as_point(5, [1.5j, 0.2 + 1.6j])]
    _coset_arrays.cache_clear()
    values = _coset_values(5, 2, (1, 2), points, 1e-10)
    assert _coset_arrays.cache_info().misses == 1
    assert values == [reference_coset_value(5, 2, (1, 2), point, 1e-10)
                      for point in points]


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                                  (5, 3), (7, 1), (7, 2)])
def test_shell_counts_match_the_tables(p, n):
    # the stop shells come from one block's per-digit counts, convolved
    # over the word's digits; every coset table must have exactly those
    # shells
    for bound in (Fraction(4), Fraction(13, 2)):
        for word in product(range(p), repeat=n):
            counts = coset_shell_counts(p, n, word, bound)
            assert len(counts) == int(p * bound) + 1
            _, shell_norms, shell_ends = _coset_table(p, n, word, bound)
            ks = np.flatnonzero(counts)
            assert (ks / p).tolist() == shell_norms.tolist()
            assert counts[ks].tolist() == np.diff(shell_ends,
                                                  prepend=0).tolist()
    _coset_arrays.cache_clear()


def test_one_table_per_pm_pair_at_the_last_summed_norm(monkeypatch):
    built = []

    @lru_cache(maxsize=64)
    def recorded(p, n, word, bound):
        built.append((word, bound))
        return _coset_arrays.__wrapped__(p, n, word, bound)

    monkeypatch.setattr(hilbert_eval, "_coset_arrays", recorded)
    points = [as_point(5, [1j, 1.5j]), as_point(5, 0.7j),
              as_point(5, [0.3 + 2j, 2.2j])]
    tail_tol = 1e-10
    for word in ((1, 2), (4, 3)):
        _coset_values(5, 2, word, points, tail_tol)
    [(word, bound)] = built
    assert word == (1, 2) and bound.denominator in (1, 5)
    # the table ends at the shell of norm bound, and that is the last shell
    # the point at Im z = 0.7 sums: the next one is the first below the
    # stop threshold
    _, norms, ends = _coset_arrays.__wrapped__(5, 2, word, bound + 2)
    counts = np.diff(ends, prepend=0).tolist()
    last = norms.tolist().index(float(bound))
    assert recorded(5, 2, word, bound)[2].tolist() == ends[:last + 1].tolist()
    below = [cnt * math.exp(-math.pi * 0.7 * u) < tail_tol / 10
             for u, cnt in zip(norms.tolist(), counts)]
    assert below.index(True) == last + 1


def test_alpbach_reads_one_table_per_coset():
    code = make_code(5, 2, words=[(0, 0), (1, 2), (3, 3), (2, 4)])
    points = [HilbertPoint(5, [1j, 1.5j]), HilbertPoint(5, [0.3 + 2j, 2.2j]),
              HilbertPoint(5, [0.1 + 1.2j, 1.3j])]
    tol = 1e-8
    _coset_arrays.cache_clear()
    report = verify_alpbach(code, points, tol=tol)
    # k code cosets and r + 1 = 3 class cosets; the Galois sweep hits
    info = _coset_arrays.cache_info()
    assert (info.misses, info.hits) == (len(code.words) + 3, len(code.words))
    assert report["pass"]
    perm = galois_permutation(5, 2)
    for point, row in zip(points, report["points"]):
        lhs = theta_code_eval(code, point, tol / 100)
        rhs = _enumerator_value(code, [theta_class_eval(5, j, point, tol / 100)
                                       for j in range(3)])
        permuted = HilbertPoint(5, [point.values[l] for l in perm])
        assert complex(*row["lhs"]) == lhs
        assert complex(*row["rhs"]) == rhs
        assert row["residual"] == abs(lhs - rhs)
        assert row["galois_residual"] == abs(
            theta_code_eval(code, permuted, tol / 100) - lhs)


def test_alpbach_reads_one_table_per_pm_pair():
    # (1, 2), (4, 3) and (3, 1), (2, 4) are two +- pairs: four code cosets,
    # two tables, and the r + 1 = 3 class cosets
    code = make_code(5, 2, words=[(1, 2), (4, 3), (3, 1), (2, 4)])
    points = [HilbertPoint(5, [1j, 1.5j]), HilbertPoint(5, [0.3 + 2j, 2.2j])]
    _coset_arrays.cache_clear()
    report = verify_alpbach(code, points, tol=1e-8)
    info = _coset_arrays.cache_info()
    assert (info.misses, info.hits) == (2 + 3, 2 + len(code.words))
    assert report["pass"]


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_negated_word_reads_its_own_table_bit_for_bit(p, n):
    # every word, canonical or not, at two bounds: the table _coset_values
    # reads equals the one built for the word itself
    for bound in (Fraction(6), Fraction(21, 2)):
        for word in product(range(p), repeat=n):
            read = _coset_table(p, n, word, bound)
            _coset_arrays.cache_clear()
            direct = _coset_arrays(p, n, word, bound)
            for got, want in zip(read, direct):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (word, bound)


# The whole-coset table builder that the streaming _coset_arrays replaced:
# every block is concatenated, then mapped through the basis, cast to float
# and multiplied by the embeddings in one pass.  The tables must agree bit
# for bit.

def whole_coset_arrays(p, n, word, bound):
    lat = standard_lattice(p, n)
    shift = lat.shift_in_basis(word)
    leaves = [np.zeros((0, lat.rank), dtype=np.int64)]
    norms = [np.zeros(0, dtype=np.int64)]
    scale_box = [1]

    def emit(X, scaled, scale):
        leaves.append(X)
        norms.append(scaled)
        scale_box[0] = scale

    enumerate_coset([list(r) for r in lat.gram], shift, bound, emit)
    d = p - 1
    basis = np.array(lat.basis, dtype=np.int64)
    coords = (np.concatenate(leaves).astype(np.int64, copy=False) @ basis
              + np.array(lift_word(word, p, n), dtype=np.int64))
    norms = np.concatenate(norms).astype(np.int64, copy=False)
    blocks = coords.reshape(-1, n, d).astype(np.float64)
    sigma = np.empty((len(norms), d // 2))
    for l in range(1, d // 2 + 1):
        emb = blocks @ np.exp((2j * np.pi * l / p) * np.arange(d))
        sigma[:, l - 1] = (emb.real ** 2 + emb.imag ** 2).sum(axis=1)
    uniq, counts = np.unique(norms, return_counts=True)
    return (sigma[np.argsort(norms, kind="stable")], uniq / scale_box[0],
            np.cumsum(counts))


@pytest.mark.parametrize("p, n, word, bound", [
    (3, 1, (1,), 60), (3, 2, (1, 2), 24), (3, 3, (0, 1, 2), 12),
    (5, 1, (2,), 24), (5, 2, (1, 3), 10), (5, 3, (1, 0, 4), 6),
    (7, 1, (3,), 16), (7, 2, (2, 5), 6), (7, 3, (1, 2, 3), 5),
    (5, 2, (0, 0), 20),                   # 159,761 rows, many chunks
    (5, 2, (1, 2), Fraction(3, 2)),       # empty: minimum norm 2
])
def test_streamed_table_matches_whole_coset_table(p, n, word, bound):
    _coset_arrays.cache_clear()
    table = _coset_arrays(p, n, word, Fraction(bound))
    reference = whole_coset_arrays(p, n, word, Fraction(bound))
    for got, want in zip(table, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    if (p, n, word) == (5, 2, (0, 0)):
        assert len(table[0]) == 159761 > CHUNK
    if bound == Fraction(3, 2):
        assert table[0].shape == (0, 2)


def test_streamed_table_memory():
    # The table holds 16 bytes of sigma and 8 of norm per row; sorting
    # takes as much again.  The whole-coset builder peaked at about 408
    # bytes per row.
    standard_lattice(5, 2)
    _coset_arrays.cache_clear()
    tracemalloc.start()
    try:
        sigma, _, _ = _coset_arrays(5, 2, (0, 0), Fraction(20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96 * len(sigma) + (2 << 20), peak / len(sigma)


def test_tables_left_by_the_numeric_stage():
    # The cache holds one table per +- pair of code cosets, each enumerated
    # only to the last shell any point sums: about 2.3 MB after the desk
    # stage's five codes, 4.5 MB with each table enumerated to the first
    # bound that holds every stop shell, 7.5 MB with a table per coset.
    from thetaforge.cli import verify_alpbach_random_numerical
    _coset_arrays.cache_clear()
    tracemalloc.start()
    try:
        assert verify_alpbach_random_numerical()["pass"]
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        _coset_arrays.cache_clear()
        gc.collect()
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - left < 3.0e6, (held - left) / 1e6


def test_sigma_rows_sum_to_half_p_times_the_norm():
    # the phase-rounding bound reads the largest norm summed, not the rows
    for p, n, word, bound in ((3, 4, (1, 2, 0, 1), 8), (5, 2, (1, 2), 10),
                              (7, 1, (3,), 12)):
        sigma, norms, ends = _coset_arrays(p, n, word, bound)
        per_row = np.repeat(norms, np.diff(ends, prepend=0))
        assert np.allclose(sigma.sum(axis=1), p * per_row / 2,
                           rtol=1e-12, atol=1e-12)
