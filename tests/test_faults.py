"""Fault injection: every check must be able to fail.

Each mutant is patched in with monkeypatch and undone after its test; none
needs a hook in the package.  A mutant runs only the stage it names, and
that stage's report must turn false where the mutant lies.  A negative
control gives a predicate an input on which it must say no.
"""

from fractions import Fraction
from functools import lru_cache

from thetaforge import cli, cliffcode, octower
from thetaforge.codelattice import CodeLattice, is_even, lattice_info
from thetaforge.fpcode import zero_code


def fresh_clifford_tables(monkeypatch):
    """Give the cached Clifford tables a cache of their own for one test,
    so that no table built under a mutant outlives it."""
    for name in ("_cocycle", "_spinor_images"):
        build = getattr(cliffcode, name).__wrapped__
        monkeypatch.setattr(cliffcode, name, lru_cache(maxsize=None)(build))


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


def test_is_even_says_no_on_odd_grams():
    code = zero_code(3, 1)
    basis = [[1, 0], [0, 1]]
    odd = CodeLattice(code, basis, [[1, 0], [0, 2]])
    assert not is_even(odd)
    assert lattice_info(odd)["even"] is False
    half = Fraction(1, 2)
    assert not is_even(CodeLattice(code, basis, [[2, half], [half, 2]]))
    assert is_even(CodeLattice(code, basis, [[2, 1], [1, 2]]))
