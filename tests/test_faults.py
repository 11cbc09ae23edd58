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
from types import SimpleNamespace

import pytest

import thetaforge
from thetaforge import cli, cliffcode, codelattice, octower, qexp
from thetaforge.codelattice import (
    CodeLattice, box_count_by_norm, is_even, lattice_info, lattice_of_code,
)
from thetaforge.cyclotomic import CycInt
from thetaforge.fpcode import standard_codes, zero_code


def run_stage(name):
    return dict(cli.VERIFY_STAGES)[name]()


def fresh_clifford_tables(monkeypatch):
    """Give the cached Clifford tables a cache of their own for one test,
    so that no table built under a mutant outlives it."""
    for name in ("_cocycle", "_spinor_images"):
        build = getattr(cliffcode, name).__wrapped__
        monkeypatch.setattr(cliffcode, name, lru_cache(maxsize=None)(build))


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


def test_unfolded_word_table_fails_orbit_invariance(monkeypatch):
    # theta_series_by_word without adding each word's counts to -w: a word
    # keeps only the half-tree vectors whose own digit word it is
    monkeypatch.setattr(codelattice, "_fold_negatives",
                        lambda terms, words, p: terms)
    report = cli.verify_orbits()
    assert not report["invariance"]
    assert not report["pass"]


def test_box_oracle_never_reaches_the_shared_tree(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the oracle ran the Fincke-Pohst tree")

    monkeypatch.setattr(codelattice, "_fincke_pohst", unreachable)
    e8 = lattice_of_code(standard_codes("tetracode"))
    assert box_count_by_norm(e8, 6) == {0: 1, 2: 240, 4: 2160, 6: 6720}
    with pytest.raises(AssertionError, match="Fincke-Pohst"):
        codelattice.count_by_norm(e8, 2)


def test_flipped_cocycle_entry_fails_clifford(monkeypatch):
    fresh_clifford_tables(monkeypatch)
    true_cocycle = cliffcode._cocycle
    beta = true_cocycle(8).copy()
    beta[0b0011, 0b1100] ^= 1          # e_0 e_1 times e_2 e_3 changes sign
    monkeypatch.setattr(cliffcode, "_cocycle",
                        lambda n: beta if n == 8 else true_cocycle(n))
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
        rest = dict(sorted(enum.coefficients.items())[:-1])
        if not rest:                       # a one-word code: nothing left
            return qexp.QSeries.zero(thetas[0].p,
                                     min(t.cutoff for t in thetas),
                                     thetas[0].N)
        return true_compose(SimpleNamespace(r=enum.r, coefficients=rest),
                            thetas)

    monkeypatch.setattr(qexp, "compose_enumerator", without_last)
    assert not run_stage("alpbach_exact_tetracode")["pass"]
    report = run_stage("alpbach_exact_random")
    assert not any(row["pass"] for row in report["trials"])
    assert not report["pass"]


def test_cyclotomic_product_off_by_one_fails_the_series_stages(monkeypatch):
    # both sides of the exact identity multiply through CycInt.__mul__, so
    # the mutant corrupts both; each stage below still sees them disagree
    true_mul = CycInt.__mul__

    def off_by_one(a, b):
        prod = true_mul(a, b)
        return CycInt(prod.p, (prod.coeffs[0] + 1,) + prod.coeffs[1:])

    monkeypatch.setattr(CycInt, "__mul__", off_by_one)
    monkeypatch.setattr(CycInt, "__rmul__", off_by_one)
    assert not run_stage("alpbach_exact_tetracode")["pass"]
    assert not run_stage("alpbach_exact_random")["pass"]
    orbits = run_stage("orbits")
    assert not orbits["multiplicativity"] and not orbits["pass"]


def test_is_even_says_no_on_odd_grams():
    code = zero_code(3, 1)
    basis = [[1, 0], [0, 1]]
    odd = CodeLattice(code, basis, [[1, 0], [0, 2]])
    assert not is_even(odd)
    assert lattice_info(odd)["even"] is False
    half = Fraction(1, 2)
    assert not is_even(CodeLattice(code, basis, [[2, half], [half, 2]]))
    assert is_even(CodeLattice(code, basis, [[2, 1], [1, 2]]))
