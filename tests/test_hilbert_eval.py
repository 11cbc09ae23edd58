import cmath
from fractions import Fraction

import pytest

from thetaforge.codelattice import standard_lattice, theta_series
from thetaforge.fpcode import make_code, standard_codes
from thetaforge.hilbert_eval import (
    HilbertPoint, galois_permutation, parse_points_text, theta_class_eval,
    theta_code_eval, verify_alpbach, verify_sl2f3_action,
)
from thetaforge.qexp import evaluate_at


def test_point_validation():
    with pytest.raises(ValueError):
        HilbertPoint(3, [1j, 1j])          # too many components
    with pytest.raises(ValueError):
        HilbertPoint(5, [1j])
    with pytest.raises(ValueError):
        HilbertPoint(3, [1.0 - 1j])        # lower half plane
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
    with pytest.raises(ValueError):
        theta_class_eval(3, 0, 0.3j, tail_tol=1e-10)


def test_points_file_parsing():
    pts = parse_points_text("# two points\n1j\n0.3+1.5j\n", 3)
    assert len(pts) == 2 and pts[1].values[0] == 0.3 + 1.5j
    pts5 = parse_points_text("1j 2j\n", 5)
    assert pts5[0].values == (1j, 2j)
    with pytest.raises(ValueError):
        parse_points_text("1j\n", 5)
    with pytest.raises(ValueError):
        parse_points_text("# nothing\n", 3)
