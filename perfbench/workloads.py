"""The benchmark's workloads: the thetaforge commands each one runs, the
inputs it generates from the seed, and the check applied to each output.

A check returns a list of problems; an empty list means the output is
correct.  Expected values come from references.py, never from thetaforge.
"""

import collections
import itertools
import os
import random

from references import (
    ClassThetaP5, e4, golay_theta, hyperoctahedral_even_order,
)


# One CLI invocation: its arguments and the check for its stdout JSON.
Command = collections.namedtuple("Command", "args check")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _pass_flags(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "pass":
                yield value
            else:
                yield from _pass_flags(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _pass_flags(value)


def _all_pass(report):
    flags = list(_pass_flags(report))
    if not flags:
        return ["no pass flag in the report"]
    if not all(flag is True for flag in flags):
        return ["%d of %d pass flags are not true"
                % (sum(flag is not True for flag in flags), len(flags))]
    return []


def _integer_series(terms):
    """{exponent string: integer} from a printed series, or None when a
    coefficient is not a rational integer."""
    out = {}
    for term in terms:
        coef = term["coef"]
        if coef["den"] != 1 or any(coef["coeffs"][1:]):
            return None
        out[term["exp"]] = coef["coeffs"][0]
    return out


def _expect_series(label, terms, coefficients):
    want = {str(k): c for k, c in enumerate(coefficients) if c}
    got = _integer_series(terms)
    if got != want:
        return ["%s: got %r, want %r" % (label, got, want)]
    return []


# ---------------------------------------------------------------------------
# desk: the paper check users run, every layer mixed
# ---------------------------------------------------------------------------

def check_desk(report):
    problems = _all_pass(report)
    golay = golay_theta(2)
    want_shells = {str(2 * k): c for k, c in enumerate(golay)}
    if report["golay"]["shells"] != want_shells:
        problems.append("golay shells %r, want %r"
                        % (report["golay"]["shells"], want_shells))
    problems += _expect_series("e8 theta", report["e8"]["theta"], e4(3))
    tetra = report["alpbach_exact_tetracode"]
    problems += _expect_series("tetracode lhs", tetra["lhs"], e4(3))
    problems += _expect_series("tetracode rhs", tetra["rhs"], e4(3))
    tower = report["tower"]
    want = (hyperoctahedral_even_order(4), False, hyperoctahedral_even_order(5),
            True, 0, 0)
    got = (tower["n4"]["order"], tower["n4"]["perfect"],
           tower["n5"]["order"], tower["n5"]["perfect"],
           tower["n5"]["h1_dim"], tower["h1_n6"])
    if got != want:
        problems.append("tower %r, want %r" % (got, want))
    return problems


def desk(seed, workdir):
    return [Command(["verify", "all", "--level", "desk"], check_desk)]


# ---------------------------------------------------------------------------
# numeric: seeded p=5, n=2 codes evaluated on the Hilbert upper half plane
# ---------------------------------------------------------------------------

P = 5
N = 2
# Words per code.  With the five imaginary parts below there are five
# enumeration bounds, so a code of k words touches 5 * (k + 3) coset/bound
# pairs: 35 and 60 fit the program's 64-entry coset cache, 85 does not.
CODE_SIZES = (4, 9, 14)
POINTS = 8
# Smallest imaginary part of each point, cycled.  Keeping Im z >= 1 keeps
# the enumeration bound at most 13; the real parts are seeded.
Y_CYCLE = (1.0, 1.3, 1.6, 2.0, 2.5)
SL2_IMAG = (1.0, 1.5, 2.0)


def _profile(word):
    return tuple(sorted(min(d, P - d) for d in word))


def _words_by_profile():
    pools = {}
    for word in itertools.product(range(P), repeat=N):
        pools.setdefault(_profile(word), []).append(word)
    return pools


def _profile_order():
    """Digit-class profiles of all p^n words, round-robin by profile, so
    that any prefix mixes every profile."""
    pools = _words_by_profile()
    order = []
    while len(order) < P ** N:
        for prof in sorted(pools):
            if pools[prof]:
                pools[prof].pop()
                order.append(prof)
    return order


PROFILE_ORDER = _profile_order()


def random_code(rng, size):
    """size distinct words.  The profile of the i-th word is fixed; only the
    word within that profile is seeded.  Sign changes and coordinate swaps
    map a coset onto one of the same size, so the work does not depend on
    the seed."""
    pools = _words_by_profile()
    words = []
    for prof in PROFILE_ORDER[:size]:
        word = rng.choice(pools[prof])
        pools[prof].remove(word)
        words.append(word)
    return words


def _fmt(z):
    return "%.6f%+.6fj" % (z.real, z.imag)


def random_points(rng):
    """POINTS lines of two components; one component has the cycled
    smallest imaginary part, the other up to 0.5 more."""
    lines = []
    for i in range(POINTS):
        y = Y_CYCLE[i % len(Y_CYCLE)]
        zs = [complex(rng.uniform(-0.5, 0.5), y),
              complex(rng.uniform(-0.5, 0.5), y + rng.uniform(0, 0.5))]
        rng.shuffle(zs)
        lines.append(" ".join(_fmt(z) for z in zs))
    return lines


def numeric_inputs(seed, workdir):
    """Write the code files and the points file; return their paths, the
    codes' words and the points as the program will parse them."""
    rng = random.Random(seed)
    codes = []
    for i, size in enumerate(CODE_SIZES):
        words = random_code(rng, size)
        path = os.path.join(workdir, "code%d.txt" % i)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("%d %d\n" % (P, N))
            fh.writelines(" ".join(map(str, w)) + "\n" for w in words)
        codes.append((path, words))
    lines = random_points(rng)
    points_path = os.path.join(workdir, "points.txt")
    with open(points_path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    points = [tuple(complex(s) for s in line.split()) for line in lines]
    zs = [_fmt(complex(rng.uniform(-0.5, 0.5), y)) for y in SL2_IMAG]
    return codes, points_path, points, zs


def check_alpbach_numeric(words, points, thetas):
    def check(report):
        problems = _all_pass(report)
        rows = report["points"]
        if len(rows) != len(points):
            return problems + ["%d points reported, %d given"
                               % (len(rows), len(points))]
        for row, point in zip(rows, points):
            if row["point"] != [[z.real, z.imag] for z in point]:
                problems.append("point %r reported as %r"
                                % (point, row["point"]))
                continue
            want = thetas.code_value(words, point)
            for side in ("lhs", "rhs"):
                got = complex(*row[side])
                if abs(got - want) > 1e-7 * max(1.0, abs(want)):
                    problems.append("%s %r at %r, reference %r"
                                    % (side, got, point, want))
        return problems
    return check


def check_sl2f3(zs):
    def check(report):
        problems = _all_pass(report)
        got = [row["z"] for row in report["points"]]
        want = [[complex(z).real, complex(z).imag] for z in zs]
        if got != want:
            problems.append("sl2f3 points %r, want %r" % (got, want))
        if any(row["max_residual"] >= report["tol"]
               for row in report["points"]):
            problems.append("sl2f3 residual above tol")
        return problems
    return check


def numeric(seed, workdir):
    codes, points_path, points, zs = numeric_inputs(seed, workdir)
    thetas = ClassThetaP5()
    commands = [Command(["verify", "alpbach", "--prime", str(P), "--code",
                         path, "--points", points_path],
                        check_alpbach_numeric(words, points, thetas))
                for path, words in codes]
    commands.append(Command(["verify", "sl2f3"] + ["--z=" + z for z in zs],
                            check_sl2f3(zs)))
    return commands


WORKLOADS = {"desk": desk, "numeric": numeric}
