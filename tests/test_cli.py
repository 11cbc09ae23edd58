import json
import subprocess
import sys

import pytest

from thetaforge.cli import main
from thetaforge.cliffcode import E_MATRICES


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_theta_subcommand_matches_printed_terms(capsys):
    code, out = run_main(capsys,
                         ["theta", "--prime", "3", "--class", "0",
                          "--order", "7"])
    assert code == 0
    data = json.loads(out)
    assert [(t["exp"], t["coef"]["coeffs"][0]) for t in data["series"]] == [
        ("0", 1), ("1", 6), ("3", 6), ("4", 6), ("7", 12)]
    code, out = run_main(capsys,
                         ["theta", "--prime", "3", "--class", "1",
                          "--order", "13/3"])
    data = json.loads(out)
    assert [(t["exp"], t["coef"]["coeffs"][0]) for t in data["series"]] == [
        ("1/3", 3), ("4/3", 3), ("7/3", 6), ("13/3", 6)]


def test_verify_alpbach_exact_tetracode(capsys):
    code, out = run_main(capsys,
                         ["verify", "alpbach", "--prime", "3",
                          "--code", "tetracode"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and data["lhs"] == data["rhs"]


def test_verify_alpbach_numerical_with_points_file(capsys, tmp_path):
    pts = tmp_path / "points.txt"
    pts.write_text("# one point per line\n1j\n0.5+2j\n")
    code, out = run_main(capsys,
                         ["verify", "alpbach", "--prime", "3",
                          "--code", "tetracode", "--points", str(pts),
                          "--tol", "1e-8"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"]
    assert all(row["residual"] < 1e-8 for row in data["points"])


def test_tower_check_reports_without_failing(capsys):
    code, out = run_main(capsys, ["tower", "check", "--n", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["perfect"] is False and data["order"] == 96
    code, out = run_main(capsys, ["tower", "check", "--n", "5"])
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 5, "order": 960, "perfect": True, "h1_dim": 0}


def test_lattice_info_builtin_and_file(capsys, tmp_path):
    code, out = run_main(capsys,
                         ["lattice", "--code", "tetracode", "--info"])
    assert code == 0
    assert json.loads(out) == {"rank": 8, "discriminant": 1, "even": True,
                               "minimal_norm": 2}
    src = tmp_path / "repetition.txt"
    src.write_text("3 3\n0 0 0\n1 1 1\n2 2 2\n")
    code, out = run_main(capsys, ["lattice", "--code", str(src), "--info"])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 6 and data["even"]


def test_code_subcommand(capsys):
    code, out = run_main(capsys, ["code", "--code", "hamming8"])
    assert code == 0
    data = json.loads(out)
    assert data["self_dual"] and data["doubly_even"]
    assert data["min_distance"] == 4 and data["size"] == 16
    assert data["weight_enumerator"] == {"8,0": 1, "4,4": 14, "0,8": 1}


def test_qexp_subcommand(capsys):
    code, out = run_main(capsys,
                         ["qexp", "--prime", "3", "--cutoff", "2"])
    assert code == 0
    data = json.loads(out)
    assert data[0] == {"exp": "1/24", "coef": {"coeffs": [1, 0], "den": 1}}
    code, out = run_main(capsys,
                         ["qexp", "--prime", "3", "--cutoff", "1",
                          "--power", "-2"])
    assert code == 0
    data = json.loads(out)
    assert data[0]["exp"] == "-1/12"
    code, out = run_main(capsys,
                         ["qexp", "--prime", "3", "--cutoff", "1",
                          "--power", "100000000"])
    assert code == 0
    assert json.loads(out) == [{"exp": "12500000/3",
                                "coef": {"coeffs": [1, 0], "den": 1}}]


def test_rep_subcommands(capsys):
    code, out = run_main(capsys,
                         ["rep", "zmap", "--prime", "3", "--orbit", "1,3",
                          "--order", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["orbit"] == [1, 1]
    assert data["series"][0] == {"exp": "1/3",
                                 "coef": {"coeffs": [3, 0], "den": 1}}
    code, out = run_main(capsys,
                         ["rep", "check-main", "--prime", "3", "--n", "2"])
    assert code == 0
    assert json.loads(out)["pass"]


def test_clifford_subcommands(capsys):
    code, out = run_main(capsys, ["clifford", "verify"])
    assert code == 0
    assert json.loads(out)["pass"]
    code, out = run_main(capsys, ["clifford", "delta", "--word", "0,1"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 8 and data["rows"] == E_MATRICES[0].rows()
    code, out = run_main(capsys,
                         ["clifford", "delta", "--word", "3", "--full"])
    assert code == 0
    assert json.loads(out)["dim"] == 16


def test_verify_small_reports(capsys):
    for name in ("expansion", "hamming", "grades"):
        code, out = run_main(capsys, ["verify", name])
        assert code == 0
        assert json.loads(out)["pass"]


def test_verify_sl2f3(capsys):
    code, out = run_main(capsys, ["verify", "sl2f3"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and len(data["points"]) == 3


def test_verify_alpbach_rejects_a_prime_that_is_not_the_codes(capsys):
    code = main(["verify", "alpbach", "--prime", "5", "--code", "tetracode"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--prime 5" in captured.err and "prime 3" in captured.err


def test_usage_errors():
    proc = subprocess.run(
        [sys.executable, "-m", "thetaforge.cli", "theta", "--prime", "3",
         "--class", "0", "--order", "7", "--bogus"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "thetaforge.cli", "lattice", "--code",
         "/nonexistent/code.txt"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    for option, argv in (
            ("--order", ["theta", "--prime", "3", "--class", "0",
                         "--order", "1/0"]),
            ("--cutoff", ["qexp", "--prime", "3", "--cutoff", "1/0"]),
            ("--order", ["rep", "zmap", "--prime", "3", "--orbit", "1,3",
                         "--order", "2/0"]),
            ("--order", ["theta", "--prime", "3", "--class", "0",
                         "--order", "-1"]),
            ("--order", ["rep", "zmap", "--prime", "3", "--orbit", "1,3",
                         "--order", "-1"]),
            ("--order", ["verify", "alpbach", "--prime", "3", "--code",
                         "tetracode", "--order", "-1"])):
        proc = subprocess.run(
            [sys.executable, "-m", "thetaforge.cli"] + argv,
            capture_output=True, text=True)
        assert proc.returncode == 2, argv
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith("error: " + option), proc.stderr
    # argparse rejects these itself: usage line, then the option named
    for option, argv in (
            ("--z", ["verify", "sl2f3", "--z", "abc"]),
            ("--orbit", ["rep", "zmap", "--prime", "3", "--orbit", "a",
                         "--order", "1"])):
        proc = subprocess.run(
            [sys.executable, "-m", "thetaforge.cli"] + argv,
            capture_output=True, text=True)
        assert proc.returncode == 2, argv
        assert "error: argument %s: " % option in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["1/0", "abc", "-1"])
def test_malformed_max_norm_exits_2(monkeypatch, value):
    monkeypatch.setenv("THETA_FORGE_MAX_NORM", value)
    proc = subprocess.run(
        [sys.executable, "-m", "thetaforge.cli", "theta", "--prime", "3",
         "--class", "0", "--order", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: THETA_FORGE_MAX_NORM"), proc.stderr


def test_help_lists_every_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "thetaforge.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("code", "lattice", "qexp", "theta", "rep", "verify",
                 "clifford", "tower"):
        assert name in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "thetaforge.cli", "verify", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("alpbach", "sl2f3", "expansion", "e8", "golay", "orbits",
                 "grades", "hamming", "tower", "all"):
        assert name in proc.stdout


def test_output_byte_stable():
    cmd = [sys.executable, "-m", "thetaforge.cli", "theta", "--prime", "5",
           "--class", "2", "--order", "2"]
    first = subprocess.run(cmd, capture_output=True).stdout
    second = subprocess.run(cmd, capture_output=True).stdout
    assert first == second and first
