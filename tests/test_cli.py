import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from thetaforge.cli import _trace_form_gram, main
from thetaforge.cliffcode import E_MATRICES
from thetaforge.codelattice import lattice_of_code, standard_lattice
from thetaforge.cyclotomic import MAX_PRIME, check_prime
from thetaforge.fpcode import standard_codes


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
    # n = 7..12 are in range since the tower runs on a stabilizer chain
    for n, order in ((7, 161280), (12, 490497638400)):
        code, out = run_main(capsys, ["tower", "check", "--n", str(n)])
        assert code == 0
        assert json.loads(out) == {"n": n, "order": order, "perfect": True,
                                   "h1_dim": 0}
    for n in ("2", "13"):
        assert main(["tower", "check", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: supported range is 3 <= n <= 12\n"


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
    # eta^-1 = q^(-1/24) sum_n p(n) q^n through the inclusive cutoff
    for cutoff, last in (("1", ("23/24", 1)), ("3", ("71/24", 3))):
        code, out = run_main(capsys,
                             ["qexp", "--prime", "3", "--cutoff", cutoff,
                              "--power", "-1"])
        assert code == 0
        data = json.loads(out)
        assert (data[-1]["exp"], data[-1]["coef"]["coeffs"][0]) == last
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
    code, out = run_main(capsys, ["clifford", "delta", "--word", ""])
    assert code == 0
    assert json.loads(out) == {
        "dim": 8, "support": [],
        "rows": [[int(i == j) for j in range(8)] for i in range(8)]}


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


def usage_error(capsys, argv):
    """Run main in-process on argv that argparse rejects: it exits 2 through
    SystemExit.  Returns stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2, argv
    return capsys.readouterr().err


def input_error(capsys, argv):
    """Run main in-process on argv that it rejects itself: it returns 2.
    Returns stderr."""
    assert main(argv) == 2, argv
    return capsys.readouterr().err


def test_usage_errors(tmp_path, capsys, monkeypatch):
    # the module entry point, in a fresh interpreter
    proc = subprocess.run(
        [sys.executable, "-m", "thetaforge.cli", "theta", "--prime", "3",
         "--class", "0", "--order", "7", "--bogus"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    # the rest run in-process: an exception escaping main fails the test
    input_error(capsys, ["lattice", "--code", "/nonexistent/code.txt"])
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
                         "tetracode", "--order", "-1"]),
            ("--n", ["rep", "check-main", "--prime", "3", "--n", "-1"]),
            ("--cutoff", ["rep", "check-main", "--prime", "3", "--n", "2",
                          "--cutoff=-5"]),
            ("--word", ["clifford", "delta", "--word", "0,1,2"])):
        err = input_error(capsys, argv)
        assert err.count("\n") == 1, err
        assert err.startswith("error: " + option), err
    # argparse rejects these itself: usage line, then the option named
    for option, argv in (
            ("--z", ["verify", "sl2f3", "--z", "abc"]),
            ("--orbit", ["rep", "zmap", "--prime", "3", "--orbit", "a",
                         "--order", "1"]),
            ("--word", ["clifford", "delta", "--word", "a"]),
            ("--word", ["clifford", "delta", "--word", "-1"]),
            ("--word", ["clifford", "delta", "--word", "9"]),
            ("--minus", ["clifford", "delta", "--word", "0,1,2", "--full",
                         "--minus"]),
            ("--tol", ["verify", "sl2f3", "--tol", "0"]),
            ("--tol", ["verify", "sl2f3", "--tol", "-1"]),
            ("--tol", ["verify", "sl2f3", "--tol", "inf"]),
            ("--tol", ["verify", "sl2f3", "--tol", "nan"]),
            ("--tol", ["verify", "alpbach", "--prime", "5", "--code", "F",
                       "--points", "P", "--tol", "0"]),
            ("--tol", ["verify", "alpbach", "--prime", "5", "--code", "F",
                       "--points", "P", "--tol", "nan"])):
        err = usage_error(capsys, argv)
        assert "error: argument %s: " % option in err, err
        assert "Traceback" not in err
    # the prime is checked before the orbit word is reduced mod it
    for prime in ("0", "-5"):
        assert main(["rep", "zmap", "--prime", prime, "--orbit", "1",
                     "--order", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: p must be a prime integer, got %s\n" % prime)
    # code files: the message names the line and the token at fault
    for name, text, message in (
            ("header.txt", "3 x\n0 0\n", "error: line 1: 'x' "),
            ("digit.txt", "3 2\n# c\n0 0\n1 y\n", "error: line 4: 'y' "),
            ("length.txt", "3 -1\n1\n", "error: line 1: word length n"),
            ("composite.txt", "4 2\n0 0\n",
             "error: line 1: p must be prime, got 4"),
            ("one.txt", "# p = 1\n1 2\n0 0\n",
             "error: line 2: p must be a prime integer, got 1")):
        path = tmp_path / name
        path.write_text(text)
        err = input_error(capsys, ["code", "--code", str(path)])
        assert err.count("\n") == 1, err
        assert err.startswith(message), err
    # points files and --z: non-finite or malformed values name the input
    code = tmp_path / "p5.txt"
    code.write_text("5 2\n0 0\n")
    for name, text, message in (
            ("nan.txt", "nan+1j 1j\n",
             "error: line 1: component (nan+1j) is not finite"),
            ("inf.txt", "# c\n1j 2j\ninfj 1j\n",
             "error: line 3: component infj is not finite"),
            ("abc.txt", "abc 1j\n",
             "error: line 1: 'abc' is not a complex number")):
        path = tmp_path / name
        path.write_text(text)
        err = input_error(capsys, ["verify", "alpbach", "--prime", "5",
                                   "--code", str(code), "--points",
                                   str(path)])
        assert err.count("\n") == 1, err
        assert err.startswith(message), err
    assert input_error(capsys, ["verify", "sl2f3", "--z=nanj"]) == (
        "error: need a finite z with Im(z) > 0, got nanj\n")
    # a tiny Im z or tolerance sends the first enumeration bound to inf;
    # it is capped, and the tail test then fails at the cap
    monkeypatch.delenv("THETA_FORGE_MAX_NORM", raising=False)
    code = tmp_path / "c3.txt"
    code.write_text("3 1\n0\n")
    points = tmp_path / "tiny.txt"
    points.write_text("1e-320j\n")
    for argv in (["verify", "sl2f3", "--z=1e308j"],     # through -1/z
                 ["verify", "sl2f3", "--z=1e-320j"],
                 ["verify", "sl2f3", "--tol", "1e-320"],
                 ["verify", "alpbach", "--prime", "3", "--code", str(code),
                  "--points", str(points)]):
        err = input_error(capsys, argv)
        assert err.count("\n") == 1, err
        assert err.startswith("error: tail still above "), err
        assert " at the enumeration cap 40; " in err, err
    # the cap error names the point, and no cap reaches its bound
    assert input_error(capsys, ["verify", "sl2f3", "--z=1e-320j"]) == (
        "error: tail still above 1e-09 at the enumeration cap 40; the point "
        "1e-320j asks for a norm bound of inf, which no cap reaches\n")
    # Re z * sigma overflows: the sum is not finite, the point is named,
    # and neither a numpy warning nor a NaN report is printed
    points.write_text("1e308+1j\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "alpbach", "--prime", "3", "--code",
                     "tetracode", "--points", str(points)]) == 2
    assert caught == []
    assert capsys.readouterr() == (
        "", "error: the theta sum at the point (1e+308+1j) is not finite\n")
    # a finite sum whose phases float64 cannot resolve: refused, not a
    # false failure
    for z, text in (("1e17+1j", "(1e+17+1j)"), ("1e200+1j", "(1e+200+1j)")):
        points.write_text(z + "\n")
        err = input_error(capsys, ["verify", "alpbach", "--prime", "3",
                                   "--code", "tetracode", "--points",
                                   str(points)])
        assert err.count("\n") == 1, err
        assert err.startswith("error: the point %s lies too far from the "
                              "imaginary axis: " % text), err
    # Im z = 1, but Im(-1/z) underflows to 0: the message names z
    assert input_error(capsys, ["verify", "sl2f3", "--z=1e200+1j"]) == (
        "error: Im(-1/z) underflows to 0 at z = (1e+200+1j)\n")


# Valid, small runs of the series commands; the fuzz below spoils one
# option at a time.
SERIES_COMMANDS = {
    "qexp": ["qexp", "--prime=3", "--cutoff=1", "--power=1"],
    "theta": ["theta", "--prime=3", "--class=0", "--order=1"],
    "rep zmap": ["rep", "zmap", "--prime=3", "--orbit=1", "--order=1"],
    "rep check-main": ["rep", "check-main", "--prime=3", "--n=1",
                       "--cutoff=1"],
}

# no decimal digit, so neither int() nor a/b can read it
garbage = st.text(st.characters(blacklist_categories=("Nd", "Cs")),
                  max_size=6)
decimal = st.integers(-9, 9).map(lambda i: "%d.5" % i)
negative = st.integers(max_value=-1).map(str)
below_zero = st.one_of(
    negative, st.fractions(max_value=-1e-9).map(
        lambda f: "%d/%d" % (f.numerator, f.denominator)),
    st.integers(1, 9).map(lambda i: "%d/-%d" % (i, i + 1)))
zero_den = st.integers().map(lambda i: "%d/0" % i)
not_a_number = st.one_of(garbage, decimal)
not_a_prime = st.one_of(
    st.integers(max_value=1).map(str), not_a_number,
    st.tuples(st.integers(2, 60), st.integers(2, 60)).map(
        lambda ab: str(ab[0] * ab[1])))
MALFORMED = {
    ("qexp", "--prime"): not_a_prime,
    ("qexp", "--cutoff"): st.one_of(
        not_a_number, zero_den, below_zero,
        st.integers(25, 99).map(lambda d: "1/%d" % d)),   # below 1/24
    ("qexp", "--power"): not_a_number,
    ("theta", "--prime"): st.one_of(not_a_prime, st.just("2")),
    ("theta", "--class"): not_a_number,
    ("theta", "--order"): st.one_of(not_a_number, zero_den, below_zero),
    ("rep zmap", "--prime"): st.one_of(not_a_prime, st.just("2")),
    ("rep zmap", "--orbit"): st.one_of(
        garbage, decimal, st.just("1,,2"), st.just(",")),
    ("rep zmap", "--order"): st.one_of(not_a_number, zero_den, below_zero),
    ("rep check-main", "--prime"): st.one_of(not_a_prime, st.just("2")),
    ("rep check-main", "--n"): st.one_of(not_a_number, negative),
    ("rep check-main", "--cutoff"): st.one_of(not_a_number, zero_den,
                                              below_zero),
}


@st.composite
def malformed_argv(draw):
    command, option = draw(st.sampled_from(sorted(MALFORMED)))
    value = draw(MALFORMED[command, option])
    return option, [arg if not arg.startswith(option + "=") else
                    "%s=%s" % (option, value)
                    for arg in SERIES_COMMANDS[command]]


def assert_exit_2_with_one_line(argv, option=None, starts=("error: ",)):
    """main(argv) exits 2 and prints nothing on stdout and no traceback.
    stderr is one error line that starts with one of starts, or argparse's
    usage lines and then one error line that names the option."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = err.getvalue()
    assert text.endswith("\n") and "Traceback" not in text, text
    lines = text[:-1].split("\n")
    if lines[0].startswith("usage: ") and option is not None:
        # argparse: its usage lines, then one error line naming the option
        assert [line for line in lines if ": error: " in line] == lines[-1:]
        assert ": error: argument %s: " % option in lines[-1], lines
    else:
        assert len(lines) == 1 and lines[0].startswith(starts), lines
    assert (code, out.getvalue()) == (2, ""), argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(malformed_argv())
def test_malformed_series_options_exit_2_with_one_line(case):
    option, argv = case
    assert_exit_2_with_one_line(argv, option)


# Valid requests too large to hold or to expand: each is refused before a
# coefficient tuple or a series is built.
TOO_LARGE = {
    "prime_2^61-1": ["qexp", "--prime", "2305843009213693951", "--cutoff",
                     "1"],
    "prime_10^9+7": ["qexp", "--prime", "1000000007", "--cutoff", "1"],
    "cutoff_10^20": ["qexp", "--prime", "3", "--cutoff",
                     "99999999999999999999"],
    "power_-10^5": ["qexp", "--prime", "3", "--cutoff", "1", "--power",
                    "-100000"],
    "power_10^60": ["qexp", "--prime", "3", "--cutoff", "100", "--power",
                    str(10 ** 60)],
}


@pytest.mark.parametrize("argv", TOO_LARGE.values(), ids=TOO_LARGE.keys())
def test_requests_too_large_exit_2_within_a_second(argv):
    start = time.perf_counter()
    assert_exit_2_with_one_line(argv)
    assert time.perf_counter() - start < 1


def test_lattices_above_max_lattice_rank_exit_2(tmp_path):
    # under the 2 GiB address-space limit perfbench gives each command,
    # these ended in a MemoryError traceback (exit 1) before the rank cap
    code = tmp_path / "code.txt"
    code.write_text("2053 1\n0\n")
    points = tmp_path / "points.txt"
    points.write_text(" ".join(["1j"] * 1026) + "\n")
    cases = [
        (["theta", "--prime", "99991", "--class", "1", "--order", "1"],
         (99991, 1, 99990)),
        (["rep", "zmap", "--prime", "65537", "--orbit", "1", "--order", "1"],
         (65537, 1, 65536)),
        (["verify", "alpbach", "--prime", "2053", "--code", str(code),
          "--points", str(points)], (2053, 1, 2052)),
        (["lattice", "--code", str(code)], (2053, 1, 2052)),
    ]

    def limit_address_space():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    for argv, (p, n, rank) in cases:
        run = subprocess.run([sys.executable, "-m", "thetaforge.cli"] + argv,
                             capture_output=True, text=True, timeout=60,
                             preexec_fn=limit_address_space)
        assert (run.returncode, run.stdout) == (2, ""), (argv, run.stderr)
        assert run.stderr == ("error: p = %d, n = %d: the lattice rank "
                              "n(p-1) = %d is above MAX_LATTICE_RANK = 1024\n"
                              % (p, n, rank)), argv


def test_largest_prime_and_series_still_accepted(capsys):
    # 16777213 is the largest prime up to MAX_PRIME = 2^24 and 16777259 the
    # next one; qexp at 16777213 holds 128 MiB per coefficient and takes
    # seconds, so only the check is run on it
    assert MAX_PRIME == 1 << 24
    check_prime(16777213)
    for composite in range(16777214, MAX_PRIME + 1):
        with pytest.raises(ValueError, match="must be prime"):
            check_prime(composite)
    assert input_error(capsys, ["qexp", "--prime", "16777259", "--cutoff",
                                "1"]).startswith("error: p must be at most")
    # eta through q^100 is 2400 slots: eta itself at cutoff 100, whose last
    # term is the pentagonal 1/24 + 8 * 23 / 2, and eta^-1 at 1199/12, which
    # takes eta 2/24 further; eta^-2 there needs one slot more
    last = {"100": "2209/24", "1199/12": "2375/24"}
    for cutoff, power in (("100", "1"), ("1199/12", "-1")):
        code, out = run_main(capsys, ["qexp", "--prime", "3", "--cutoff",
                                      cutoff, "--power", power])
        assert code == 0 and json.loads(out)[-1]["exp"] == last[cutoff]
    # the coefficient of q^(99 - 1/24) in 1/eta is p(99)
    assert json.loads(out)[-1]["coef"]["coeffs"] == [169229875, 0]
    for cutoff, power in (("2401/24", "1"), ("1199/12", "-2")):
        err = input_error(capsys, ["qexp", "--prime", "3", "--cutoff",
                                   cutoff, "--power", power])
        assert "2401 exponent slots" in err and "2400 allowed" in err


def test_power_with_unprintable_coefficients_names_the_option(capsys):
    # eta^(10^60) through q^100 has coefficients near (10^60)^99 / 99!, some
    # 5,800 digits, past the 4,300 Python prints an integer with; 10^8
    # there, about 640 digits, prints (pinned in test_output_byte_stable)
    err = input_error(capsys, ["qexp", "--prime", "3", "--cutoff", "100",
                               "--power", str(10 ** 60)])
    assert err.startswith("error: --power is too large for the cutoff ")
    assert "5786 decimal digits, more than the 4300" in err
    code, out = run_main(capsys, ["qexp", "--prime", "3", "--cutoff", "100",
                                  "--power", str(10 ** 8)])
    assert code == 0
    assert max(len(str(c)) for term in json.loads(out)
               for c in term["coef"]["coeffs"]) == 638


# A valid numerical `verify alpbach` request; the fuzz below spoils one of
# its inputs at a time: --tol, the code file, the points file or
# THETA_FORGE_MAX_NORM.
ALPBACH_CODE = "# p n\n5 2\n0 0\n1 2\n"
ALPBACH_POINTS = ["1j 1.5j", "0.3+2j 2.2j"]


def run_alpbach(run, code_text, points_text, tol="1e-8", max_norm=None):
    """run(argv) on `verify alpbach --prime=5` with the two texts written to
    files and THETA_FORGE_MAX_NORM set to max_norm (unset for None)."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ):
        os.environ.pop("THETA_FORGE_MAX_NORM", None)
        if max_norm is not None:
            os.environ["THETA_FORGE_MAX_NORM"] = max_norm
        paths = []
        for name, text in (("code.txt", code_text),
                           ("points.txt", points_text)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        return run(["verify", "alpbach", "--prime=5", "--code", paths[0],
                    "--points", paths[1], "--tol=" + tol])


def test_valid_alpbach_request_passes(capsys):
    assert run_alpbach(main, ALPBACH_CODE,
                       "\n".join(ALPBACH_POINTS) + "\n") == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def _is_complex(token):
    try:
        complex(token)
    except ValueError:
        return False
    return True


# one whitespace-free token with no decimal digit and no comment sign
token = st.text(st.characters(blacklist_categories=("Nd", "Cs", "Z", "Cc"),
                              blacklist_characters="#"),
                min_size=1, max_size=6)
component = st.sampled_from(["1j", "2j", "0.5+1j", "-1+3j", "1e-3+0.9j"])
SPOILED_POINT_LINES = {
    # the wrong number of components for p = 5, which takes two
    "count": st.lists(component, min_size=1, max_size=4).filter(
        lambda c: len(c) != 2),
    "token": st.tuples(component, token.filter(
        lambda t: not _is_complex(t))),
    "nonfinite": st.tuples(component, st.sampled_from(
        ["nan", "inf", "-inf", "nanj", "infj", "-infj", "1+nanj", "inf+1j",
         "1e999j", "1e999+1j"])),
    "imag": st.tuples(component, st.sampled_from(
        ["1", "0", "0j", "-0j", "-1j", "3-2j", "2+0j", "1e-999j"])),
}
SPOILED_CODE_TEXTS = st.one_of(
    st.just(""), st.just("# no header\n\n"),
    st.just("5\n0 0\n"), st.just("5 2 1\n0 0\n"),
    token.map(lambda t: "%s 2\n0 0\n" % t),
    token.map(lambda t: "5 %s\n0 0\n" % t),
    st.integers(max_value=1).map(lambda p: "%d 2\n0 0\n" % p),
    st.tuples(st.integers(2, 60), st.integers(2, 60)).map(
        lambda ab: "%d 2\n0 0\n" % (ab[0] * ab[1])),
    st.integers(max_value=0).map(lambda n: "5 %d\n0\n" % n),
    st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(
        lambda w: len(w) != 2).map(
        lambda w: "5 2\n0 0\n%s\n" % " ".join(map(str, w))),
    token.map(lambda t: "5 2\n0 0\n1 %s\n" % t),
    st.just("5 2\n# no words\n"),
    st.sampled_from([3, 7, 11]).map(lambda p: "%d 2\n0 0\n" % p))
SPOILED_TOLS = st.one_of(
    token, st.sampled_from(["0", "-0", "-1", "-1e-8", "inf", "nan", "1e999",
                            "1e-999", "0x10", "1,5", "", " "]))
env_text = st.text(st.characters(blacklist_categories=("Nd", "Cs", "Cc")),
                   max_size=6)
SPOILED_MAX_NORMS = st.one_of(
    env_text, st.integers(max_value=-1).map(str),
    st.integers().map(lambda i: "%d/0" % i),
    st.integers(1, 9).map(lambda i: "-%d/%d" % (i, i + 1)),
    st.sampled_from(["nan", "inf", "-inf", "1.5.2", "1/2/3"]))


@st.composite
def spoiled_alpbach(draw):
    """(option named by argparse or None, the starts the error line may
    have, code text, points text, --tol, THETA_FORGE_MAX_NORM), exactly one
    of the inputs spoiled."""
    code, tol, max_norm, option = ALPBACH_CODE, "1e-8", None, None
    lines = list(ALPBACH_POINTS)
    what = draw(st.sampled_from(["code", "points", "empty", "tol",
                                 "max_norm"]))
    if what == "code":
        code = draw(SPOILED_CODE_TEXTS)
        starts = ("error: line ", "error: empty code file",
                  "error: code file lists no words",
                  "error: --prime 5 does not match the prime ")
    elif what == "points":
        bad = draw(SPOILED_POINT_LINES[draw(st.sampled_from(
            sorted(SPOILED_POINT_LINES)))])
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, " ".join(bad))
        starts = ("error: line %d: " % (at + 1),)
    elif what == "empty":
        lines = draw(st.lists(st.sampled_from(["", "  ", "# 1j 1j", "\t#"]),
                              max_size=3))
        starts = ("error: no points in file",)
    elif what == "tol":
        tol, option, starts = draw(SPOILED_TOLS), "--tol", ()
    else:
        max_norm = draw(SPOILED_MAX_NORMS)
        starts = ("error: THETA_FORGE_MAX_NORM must be ",)
    return option, starts, code, "\n".join(lines) + "\n", tol, max_norm


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spoiled_alpbach())
def test_malformed_alpbach_inputs_exit_2_with_one_line(case):
    option, starts, code, points, tol, max_norm = case
    run_alpbach(lambda argv: assert_exit_2_with_one_line(argv, option,
                                                         starts),
                code, points, tol, max_norm)


def test_large_real_part_within_the_rounding_bound_passes(tmp_path, capsys):
    points = tmp_path / "far.txt"
    points.write_text("1000+1j\n-1000+0.5j\n")
    assert main(["verify", "alpbach", "--prime", "3", "--code", "tetracode",
                 "--points", str(points)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tol"] == 1e-8 and report["pass"]


@pytest.mark.parametrize("value", ["1/0", "abc", "-1"])
def test_malformed_max_norm_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("THETA_FORGE_MAX_NORM", value)
    assert main(["theta", "--prime", "3", "--class", "0",
                 "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1, captured.err
    assert captured.err.startswith("error: THETA_FORGE_MAX_NORM"), \
        captured.err


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("code", "lattice", "qexp", "theta", "rep", "verify",
                 "clifford", "tower"):
        assert name in out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("alpbach", "sl2f3", "expansion", "e8", "golay", "orbits",
                 "grades", "hamming", "tower", "all"):
        assert name in out


STARTUP_PROBE = r"""
import contextlib, io, json, sys
from thetaforge import cli
loaded = ["numpy" in sys.modules]
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    loaded.append("numpy" in sys.modules)
print(json.dumps({"codes": codes, "numpy": loaded,
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""


def _startup_probe(commands):
    out = subprocess.run([sys.executable, "-c", STARTUP_PROBE,
                          json.dumps(commands)], capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_exact_commands_start_without_numpy():
    # numpy is imported inside the functions that do array work, so the
    # import of cli and the exact-arithmetic commands never load it
    assert _startup_probe([]) == {"codes": [], "numpy": [False],
                                  "numpy.ma": False}
    commands = [["qexp", "--prime", "3", "--cutoff", "2", "--power", "-24"],
                ["tower", "check", "--n", "5"],
                ["clifford", "delta", "--word", "0,1"],
                ["clifford", "delta", "--word", "0,1,2", "--full"],
                ["clifford", "verify"],
                ["code", "--code", "golay12"], ["verify", "hamming"],
                ["verify", "grades"], ["--help"], ["tower", "check", "--n"]]
    report = _startup_probe(commands)
    assert report["codes"] == [0] * 9 + [2]
    assert report["numpy"] == [False] * (len(commands) + 1)
    # desk does array work, but never a plain np.unique, which would
    # import numpy.ma
    desk = _startup_probe([["verify", "all", "--level", "desk"]])
    assert desk == {"codes": [0], "numpy": [False, True], "numpy.ma": False}


def test_e8_gram_recomputed_from_the_basis():
    for lat in (lattice_of_code(standard_codes("tetracode")),
                standard_lattice(5, 2)):
        assert _trace_form_gram(lat) == [[lat.p * x for x in row]
                                         for row in lat.gram]


def test_output_byte_stable():
    cmd = [sys.executable, "-m", "thetaforge.cli", "theta", "--prime", "5",
           "--class", "2", "--order", "2"]
    first = subprocess.run(cmd, capture_output=True).stdout
    second = subprocess.run(cmd, capture_output=True).stdout
    assert first == second and first
    # exact-integer outputs, pinned by their sha256
    for argv, digest in (
            (cmd[3:], "33358258ab71bdc2ce0afff84a73d138"
                      "e85aa9c2f3199729e5178f54a8d85750"),
            (["lattice", "--code", "golay12", "--info"],
             "24449ee59173e1e5378910540660514"
             "552e70e95db19e6f78e1e8a827e8f7d81"),
            (["clifford", "delta", "--word", "0,1,2", "--full"],
             "df32f2d8ca2ddd63de6521046ef5ca88"
             "a7f7a00851d2bd988a158b24a6306bee"),
            (["clifford", "delta", "--word", "1,2", "--minus"],
             "f1698d845b49c8e3fb75c43332ab48b4"
             "0c3b8371ce70829ca9bfaa9f14f2be1c"),
            (["clifford", "verify"],
             "d992f82a27921f815814094887b5541d"
             "db52ed0779af6b0890c1e4c6fce2decc"),
            (["qexp", "--prime", "3", "--cutoff", "100", "--power",
              "100000000"],
             "df3de1251ec017e5974921a9bf16a8aa"
             "077528114957ff70e9fb53d48bb96383"),
            (["tower", "check", "--n", "5"],
             "9718ceceabd0ac172495fb82babdf2ad"
             "156bb3f623726d5b8a763571dc27fc8f"),
            (["verify", "all", "--level", "desk"],
             "55f3851ff6595bd9636e5087aad1b5e4"
             "dd08b9cfdadf90332a03362a424fe306")):
        out = subprocess.run(cmd[:3] + argv, capture_output=True).stdout
        assert hashlib.sha256(out).hexdigest() == digest, argv
