"""Fault injection: every check must be able to fail.

Each mutant is patched in with monkeypatch and undone after its test; none
needs a hook in the package.  A mutant runs only the stage it names, and
that stage's report must turn false where the mutant lies.  A negative
control gives a predicate an input on which it must say no.
"""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import thetaforge
from thetaforge import (
    cli, cliffcode, codelattice, hilbert_eval, octower, qexp, voarep,
)
from thetaforge.codelattice import (
    CodeLattice, box_count_by_norm, is_even, lattice_info, lattice_of_code,
)
from thetaforge.cyclotomic import CycRat
from thetaforge.fpcode import (
    code_predicates, make_code, standard_codes, zero_code,
)

from test_hilbert_eval import shell_multiplicities


def run_stage(name):
    return dict(cli.VERIFY_STAGES)[name]()


def fresh_caches(monkeypatch, module, names):
    """Give cached functions a cache of their own for one test, so that no
    value built under a mutant outlives it."""
    for name in names:
        cached = getattr(module, name)
        monkeypatch.setattr(module, name, lru_cache(
            maxsize=cached.cache_info().maxsize)(cached.__wrapped__))


def fresh_clifford_tables(monkeypatch):
    fresh_caches(monkeypatch, cliffcode, ("_spinor_images",))


def fresh_enumeration_caches(monkeypatch):
    """Every cache that holds a value counted by the Fincke-Pohst tree or
    by the one-block digit counts."""
    fresh_caches(monkeypatch, hilbert_eval, ("_coset_arrays",))
    fresh_caches(monkeypatch, voarep, ("_digit_minimum", "orbit_theta"))
    fresh_caches(monkeypatch, codelattice, ("_digit_counts",))


def patch_everywhere(monkeypatch, original, replacement):
    """Replace a function in every thetaforge namespace that holds it, since
    several modules import names by value."""
    for name, module in list(sys.modules.items()):
        if name.startswith("thetaforge."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def test_undoubled_half_tree_counts_fail_e8_and_golay(monkeypatch):
    # count_by_norm as it would be without doubling the nonzero counts of a
    # zero-shift coset, which walks one of each +-x pair
    true_count = codelattice.count_by_norm

    def undoubled(lattice, bound, shift_word=None):
        counts = true_count(lattice, bound, shift_word)
        if shift_word is not None and any(a % lattice.p for a in shift_word):
            return counts
        return {k: c // 2 if k else c for k, c in counts.items()}

    patch_everywhere(monkeypatch, true_count, undoubled)
    e8 = cli.verify_e8()
    assert not e8["theta_matches"] and not e8["routes_agree"]
    assert not e8["pass"]
    golay = cli.verify_golay()
    assert golay["shells"] == {"0": 1, "2": 36, "4": 97416}
    assert not golay["pass"]


def test_least_leaf_dropped_fails_every_enumerating_stage(monkeypatch):
    # every run of the tree loses its least-norm leaf (the first one, at a
    # tie): with X, as enumerate_coset and the Hilbert tables take it, with
    # the group sums that theta_series_by_word takes, and without, as
    # zero-shift histograms do.  A split walk is passed on split, so each
    # of its two processes drops the least leaf of its own share.
    true_tree = codelattice._fincke_pohst
    modes = set()

    def least_leaf_dropped(gram, shift, bound, emit, half, coords=True,
                           split=None):
        blocks = []
        true_tree(gram, shift, bound,
                  lambda X, scaled, scale: blocks.append((X, scaled, scale)),
                  half, coords, split)
        if not blocks:
            return
        X = None
        if coords:
            X = np.concatenate([b[0] for b in blocks])
        scaled = np.concatenate([b[1] for b in blocks])
        keep = np.arange(len(scaled)) != np.argmin(scaled)
        modes.add(coords if isinstance(coords, bool) else "groups")
        if keep.any():
            emit(None if X is None else X[keep], scaled[keep], blocks[0][2])

    monkeypatch.setattr(codelattice, "_fincke_pohst", least_leaf_dropped)
    fresh_enumeration_caches(monkeypatch)
    for name in ("expansion", "alpbach_exact_tetracode",
                 "alpbach_exact_random", "alpbach_numerical", "e8", "golay",
                 "orbits", "sl2f3"):
        assert not run_stage(name)["pass"], name
    assert modes == {True, False, "groups"}


def test_looser_hilbert_stop_rule_fails_the_numeric_stages(monkeypatch):
    # each coset sum stops at a shell 10^4 times heavier than it should
    true_values = hilbert_eval._coset_values

    def loose(p, n, word, points, tail_tol):
        return true_values(p, n, word, points, tail_tol * 1e4)

    monkeypatch.setattr(hilbert_eval, "_coset_values", loose)
    fresh_caches(monkeypatch, hilbert_eval, ("_coset_arrays",))
    assert not run_stage("alpbach_numerical")["pass"]
    assert not run_stage("sl2f3")["pass"]


def test_moved_multiplicity_fails_alpbach_numerical(monkeypatch):
    # every p = 5 table moves one vector between the first two nu of its
    # first shell that holds two: the shell counts stay exact, and so does
    # every value on the diagonal z_1 = z_2, where sigma_1 + sigma_2 =
    # p N / 2 is all a term reads, but the values off it move
    true_arrays = hilbert_eval._coset_arrays.__wrapped__
    moved = []

    @lru_cache(maxsize=64)
    def one_moved(p, n, word, bound):
        nu, mult, sigma, shell_norms, shell_ends = true_arrays(p, n, word,
                                                               bound)
        starts = np.concatenate(([0], shell_ends[:-1]))
        wide = np.flatnonzero(shell_ends - starts > 1)
        if p == 5 and len(wide):
            row = int(starts[wide[0]])
            mult = mult.copy()
            mult[row] -= 1
            mult[row + 1] += 1
            moved.append((n, word, bound, mult, shell_ends))
        return nu, mult, sigma, shell_norms, shell_ends

    monkeypatch.setattr(hilbert_eval, "_coset_arrays", one_moved)
    assert not run_stage("alpbach_numerical")["pass"]
    assert len(moved) == one_moved.cache_info().misses
    for n, word, bound, mult, shell_ends in moved:
        counts = codelattice.coset_shell_counts(5, n, word, bound)
        assert (counts[np.flatnonzero(counts)].tolist()
                == shell_multiplicities(mult, shell_ends).tolist())
    on_diagonal = hilbert_eval.as_point(5, (1.2j, 1.2j))
    code = make_code(5, 2, words=[(0, 0), (1, 2), (3, 3)])
    assert hilbert_eval.verify_alpbach(code, [on_diagonal])["pass"]


def test_last_shell_dropped_fails_sl2f3_and_narrows_alpbach(monkeypatch):
    # every Hilbert table loses its last shell, so each point stops one
    # shell early.  sl2f3's S-residuals grow far past its tolerance of
    # 1e-7; alpbach_numerical still passes its 1e-8, but its largest
    # residual rises from about 2e-11 to about 5e-9, a margin of 2.
    alpbach = run_stage("alpbach_numerical")
    sl2f3 = run_stage("sl2f3")
    assert alpbach["pass"] and sl2f3["pass"]
    assert max(t["max_residual"] for t in alpbach["trials"]) < 1e-10
    true_table = hilbert_eval._coset_table

    def last_shell_dropped(p, n, word, bound):
        nu, mult, sigma, shell_norms, shell_ends = true_table(p, n, word,
                                                              bound)
        keep = shell_ends[-2] if len(shell_ends) > 1 else 0
        return (nu[:keep], mult[:keep], sigma[:keep], shell_norms[:-1],
                shell_ends[:-1])

    monkeypatch.setattr(hilbert_eval, "_coset_table", last_shell_dropped)
    alpbach = run_stage("alpbach_numerical")
    residual = max(t["max_residual"] for t in alpbach["trials"])
    assert alpbach["pass"] and 1e-9 < residual < alpbach["tol"]
    sl2f3 = run_stage("sl2f3")
    assert not any(point["pass"] for point in sl2f3["points"])
    residuals = [r for point in sl2f3["points"] for r in point["s_residuals"]]
    assert 1e-6 < min(residuals) and max(residuals) < 1e-3
    assert not sl2f3["pass"]


def test_child_half_dropped_fails_golay_and_orbits(monkeypatch):
    # a split walk merges nothing from its second process: the zero-shift
    # histograms that reach the split threshold (golay to norm 4, the orbit
    # sweep at p = 5, n = 3) lose the child's segments, and every stage
    # whose walks stay serial still passes
    true_join = codelattice._join
    dropped = []

    def child_half_dropped(pid, read):
        counts = true_join(pid, read)
        dropped.append(int(counts.sum()))
        return np.zeros_like(counts)

    monkeypatch.setattr(codelattice, "_can_split", lambda: True)
    monkeypatch.setattr(codelattice, "_join", child_half_dropped)
    fresh_enumeration_caches(monkeypatch)
    for name, _ in cli.VERIFY_STAGES:
        forks = len(dropped)
        report = run_stage(name)
        assert report["pass"] == (name not in ("golay", "orbits")), name
        assert (len(dropped) > forks) == (name in ("golay", "orbits")), name
    assert all(dropped)


def test_unfolded_word_table_fails_orbit_invariance(monkeypatch):
    # theta_series_by_word without adding each word's counts to -w: a word
    # keeps only the half-tree vectors whose own digit word it is
    monkeypatch.setattr(codelattice, "_fold_negatives",
                        lambda counts, p: counts)
    report = cli.verify_orbits()
    assert not report["invariance"]
    assert not report["pass"]


def test_box_oracle_never_reaches_the_shared_tree(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the oracle ran the Fincke-Pohst tree")

    monkeypatch.setattr(codelattice, "_fincke_pohst", unreachable)
    e8 = lattice_of_code(standard_codes("tetracode"))
    assert box_count_by_norm(e8, 6) == {0: 1, 2: 240, 4: 2160, 6: 6720}
    with pytest.raises(AssertionError, match="Fincke-Pohst"):
        codelattice.count_by_norm(e8, 2)


@pytest.mark.parametrize("fault", ["dropped", "doubled"])
def test_box_table_entry_dropped_or_doubled_fails_e8(monkeypatch, fault):
    # the oracle's single-block table loses, or repeats, its first nonzero
    # vector (the table stays sorted by norm)
    true_table = codelattice._block_table

    def faulty(p, limit):
        norms, digits = true_table(p, limit)
        if fault == "dropped":
            return np.delete(norms, 1), np.delete(digits, 1)
        return np.insert(norms, 1, norms[1]), np.insert(digits, 1, digits[1])

    monkeypatch.setattr(codelattice, "_block_table", faulty)
    fresh_enumeration_caches(monkeypatch)
    report = cli.verify_e8()
    assert report["theta_matches"] and not report["routes_agree"]
    assert not report["pass"]


@pytest.mark.parametrize("pair, times",
                         [("first", 1), ("last", 1), ("last", 2)])
def test_trace_gram_off_diagonal_shift_fails_e8_and_golay(
        monkeypatch, pair, times):
    # times p added to one symmetric off-diagonal pair of every trace Gram,
    # which keeps it integral and even.  On the first pair neither Gram is
    # positive definite any more.  Once p on e8's last pair gives another
    # even unimodular Gram of rank 8, E8 again, so both routes agree and
    # only the Gram recomputed from the basis sees it; twice p keeps e8's
    # Gram positive definite, and its two routes disagree as well.
    true_gram = codelattice.trace_gram

    def shifted(rows, p):
        gram = true_gram(rows, p)
        i, j = (0, 1) if pair == "first" else (len(gram) - 2, len(gram) - 1)
        gram[i][j] += times * p
        gram[j][i] += times * p
        return gram

    monkeypatch.setattr(codelattice, "trace_gram", shifted)
    assert is_even(lattice_of_code(standard_codes("tetracode")))
    if pair == "first":
        for stage in ("e8", "golay"):
            with pytest.raises(ValueError, match="not positive definite"):
                run_stage(stage)
        # the series stages read the p = 3 block, whose norms now leave
        # the grid; a fresh cache keeps a true lattice from hiding that
        fresh_caches(monkeypatch, cli, ("standard_lattice",))
        for stage in ("expansion", "alpbach_exact_tetracode"):
            with pytest.raises(ValueError, match=r"outside the expected "
                               r"\(2/3\)Z grid"):
                run_stage(stage)
        return
    e8 = cli.verify_e8()
    assert not e8["gram_matches_basis"] and not e8["pass"]
    assert e8["theta_matches"] == e8["routes_agree"] == (times == 1)
    assert not cli.verify_golay()["pass"]


def run_on_code(monkeypatch, stage, name, code):
    """A stage run with one built-in code, read through
    cli.standard_codes, replaced by another code."""
    true_codes = cli.standard_codes
    monkeypatch.setattr(cli, "standard_codes",
                        lambda n: code if n == name else true_codes(n))
    return run_stage(stage)


@pytest.mark.parametrize("gens, self_dual, doubly_even, distance", [
    # the [8, 3] subcode of hamming8: not self-dual
    (standard_codes("hamming8").basis[:3], False, True, 4),
    # i2^4, four copies of {00, 11}: self-dual, not doubly even, d = 2
    ([[int(j // 2 == i) for j in range(8)] for i in range(4)], True, False,
     2)], ids=["hamming8_subcode", "i2_4"])
def test_hamming_stage_fails_on_other_binary_codes(
        monkeypatch, gens, self_dual, doubly_even, distance):
    code = make_code(2, 8, generators=gens)
    report = run_on_code(monkeypatch, "hamming", "hamming8", code)
    assert report["predicates"] == {"self_orthogonal": True,
                                    "self_dual": self_dual,
                                    "doubly_even": doubly_even,
                                    "min_distance": distance}
    assert not report["pass"]


def test_golay_stage_fails_on_three_tetracodes(monkeypatch):
    # tetracode^3 is self-dual of length 12 with 729 words and d = 3; its
    # lattice E8^3 is even unimodular of rank 24 too, with 720 roots where
    # golay's has 72
    gens = [(0,) * (4 * i) + g + (0,) * (8 - 4 * i)
            for i in range(3) for g in standard_codes("tetracode").basis]
    code = make_code(3, 12, generators=gens)
    assert code_predicates(code)["min_distance"] == 3
    report = run_on_code(monkeypatch, "golay", "golay12", code)
    assert (report["code_size"], report["self_dual"]) == (729, True)
    lattice = report["lattice"]
    assert (lattice["rank"], lattice["discriminant"], lattice["even"]) == (
        24, 1, True)
    assert report["shells"]["2"] == 720 and not report["pass"]


def test_flipped_cocycle_entry_fails_clifford(monkeypatch):
    fresh_clifford_tables(monkeypatch)
    true_beta = cliffcode._beta

    def flipped(a, b):
        # e_0 e_1 times e_2 e_3 changes sign, and no other product
        return true_beta(a, b) ^ ((a, b) == (0b0011, 0b1100))

    monkeypatch.setattr(cliffcode, "_beta", flipped)
    report = cli.clifford_verify_all()
    assert not report["group"]["commutation_matches_pairing"]
    assert not report["pass"]


def test_minus_table_replaced_by_plus_fails_clifford(monkeypatch):
    fresh_clifford_tables(monkeypatch)
    plus = cliffcode._spinor_images(1)
    monkeypatch.setattr(cliffcode, "_spinor_images", lambda which: plus)
    report = cli.clifford_verify_all()
    assert report["induced_characters"]["plus_matches"]
    assert not report["induced_characters"]["minus_matches"]
    assert not report["pass"]


def test_forced_perfectness_fails_tower(monkeypatch):
    monkeypatch.setattr(octower, "is_perfect", lambda elements: True)
    report = cli.verify_tower()
    assert report["n4"]["perfect"]
    assert not report["pass"]


def test_swapped_fano_lines_fail_clifford(monkeypatch):
    lines = cliffcode.FANO_LINES_FIRST
    monkeypatch.setattr(cliffcode, "FANO_LINES_FIRST",
                        (lines[1], lines[0]) + lines[2:])
    report = cliffcode.verify_all()
    assert report["fano"]["pass"] is False
    assert report["pass"] is False


def test_swapped_fano_lines_fail_clifford_without_asserts():
    # python -O strips assert statements; the laws must still decide
    script = (
        "from thetaforge import cliffcode\n"
        "lines = cliffcode.FANO_LINES_FIRST\n"
        "cliffcode.FANO_LINES_FIRST = (lines[1], lines[0]) + lines[2:]\n"
        "report = cliffcode.verify_all()\n"
        "print(report['fano']['pass'], report['pass'])\n")
    src = os.path.dirname(os.path.dirname(thetaforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "False False\n", "")


def test_enumerator_without_its_last_profile_fails_exact_alpbach(
        monkeypatch):
    true_compose = qexp.compose_enumerator

    def without_last(enum, thetas):
        rest = dict(sorted(enum.items())[:-1])
        if not rest:                       # a one-word code: nothing left
            return qexp.QSeries.zero(thetas[0].p,
                                     min(t.cutoff for t in thetas),
                                     thetas[0].N)
        return true_compose(rest, thetas)

    monkeypatch.setattr(qexp, "compose_enumerator", without_last)
    assert not run_stage("alpbach_exact_tetracode")["pass"]
    report = run_stage("alpbach_exact_random")
    assert not any(row["pass"] for row in report["trials"])
    assert not report["pass"]


def test_cyclotomic_product_off_by_one_fails_the_series_stages(monkeypatch):
    # both sides of the exact identity multiply through CycRat.__mul__, so
    # the mutant corrupts both; each stage below still sees them disagree
    true_mul = CycRat.__mul__

    def off_by_one(a, b):
        prod = true_mul(a, b)
        if prod is NotImplemented:
            return prod
        return CycRat(prod.p, (prod.coeffs[0] + prod.den,) + prod.coeffs[1:],
                      prod.den)

    monkeypatch.setattr(CycRat, "__mul__", off_by_one)
    monkeypatch.setattr(CycRat, "__rmul__", off_by_one)
    assert not run_stage("alpbach_exact_tetracode")["pass"]
    assert not run_stage("alpbach_exact_random")["pass"]
    orbits = run_stage("orbits")
    assert not orbits["multiplicativity"] and not orbits["pass"]
    e8 = run_stage("e8")
    assert not e8["gram_matches_basis"] and not e8["pass"]


def test_is_even_says_no_on_odd_grams():
    code = zero_code(3, 1)
    basis = [[1, 0], [0, 1]]
    odd = CodeLattice(code, basis, [[1, 0], [0, 2]])
    assert not is_even(odd)
    assert lattice_info(odd)["even"] is False
    half = Fraction(1, 2)
    assert not is_even(CodeLattice(code, basis, [[2, half], [half, 2]]))
    assert is_even(CodeLattice(code, basis, [[2, 1], [1, 2]]))
