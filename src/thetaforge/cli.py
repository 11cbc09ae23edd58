"""Command-line front end.

Subcommands: code, lattice, qexp, theta, rep, verify, clifford, tower.
Results go to stdout as JSON with sorted keys; progress notes go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage error.
Formal values print as exact strings ("num/den", exponents "k/N");
numerical values print as decimals.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from math import comb

from . import qexp, voarep
from .cliffcode import (
    CliffordWord, full_rep, spinor_rep, verify_all as clifford_verify_all,
)
from .codelattice import (
    box_count_by_norm, count_by_norm, lattice_info, lattice_of_code,
    standard_lattice, theta_series,
)
from .fpcode import (
    code_predicates, hamming_weight, read_code_file, standard_codes,
    weight_enumerator,
)
from .hilbert_eval import parse_points_text, verify_alpbach, \
    verify_sl2f3_action
from .octower import (
    beta_form_check, crossed_hom_space, pair_form_sweep, tower_report,
)

BUILTIN_CODES = ("tetracode", "hamming8", "golay12")


def _progress(msg):
    print(msg, file=sys.stderr, flush=True)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else \
            "%d/%d" % (obj.numerator, obj.denominator)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else str(_jsonable(k)):
                _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _emit(obj):
    print(json.dumps(_jsonable(obj), sort_keys=True))


def _load_code(spec):
    if spec in BUILTIN_CODES:
        return standard_codes(spec)
    return read_code_file(spec)


def _parse_cutoff(text, option):
    """An exponent cutoff written as an integer or a/b."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError("%s must be an integer or a/b with b nonzero, "
                         "got %r" % (option, text)) from None


def _digits(text):
    """argparse type for a comma-separated word such as 1,0,2."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text) from None


def _check_order(order):
    if order < 0:
        raise ValueError("--order must be nonnegative, got %s" % order)
    return order


def _verdict(report):
    """Print a verification report; exit 0 when it passes, 1 otherwise."""
    _emit(report)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# Informational subcommands
# ---------------------------------------------------------------------------

def cmd_code(args):
    code = _load_code(args.code)
    enum = weight_enumerator(code)
    profiles = {",".join(str(k) for k in expo): cnt
                for expo, cnt in sorted(enum.coefficients.items())}
    out = {
        "p": code.p,
        "n": code.n,
        "size": len(code),
        "linear": code.is_linear,
        "dimension": code.dimension,
        "weight_enumerator": profiles,
    }
    out.update(code_predicates(code))
    _emit(out)
    return 0


def cmd_lattice(args):
    code = _load_code(args.code)
    lat = lattice_of_code(code)
    _emit(lattice_info(lat))
    return 0


def cmd_qexp(args):
    cutoff = _parse_cutoff(args.cutoff, "--cutoff")
    series = qexp.eta(args.prime, cutoff)
    if args.power != 1:
        series = series ** args.power
    _emit(qexp.to_json_obj(series))
    return 0


def cmd_theta(args):
    order = _check_order(_parse_cutoff(args.order, "--order"))
    lat = standard_lattice(args.prime, 1)
    series = theta_series(lat, order, (args.digit_class % args.prime,))
    _emit({"class": args.digit_class, "order": str(order),
           "prime": args.prime, "series": qexp.to_json_obj(series)})
    return 0


def cmd_rep_zmap(args):
    orbit = voarep.orbit_of(args.prime, args.orbit)
    series = voarep.z_map(voarep.RepElement.from_orbit(orbit),
                          _check_order(_parse_cutoff(args.order, "--order")))
    _emit({"orbit": list(orbit.profile), "prime": args.prime,
           "series": qexp.to_json_obj(series)})
    return 0


def cmd_rep_check_main(args):
    return _verdict(voarep.main_theorem_check(
        args.prime, args.n, _parse_cutoff(args.cutoff, "--cutoff")))


def cmd_clifford_verify(args):
    return _verdict(clifford_verify_all())


def cmd_clifford_delta(args):
    support = [int(t) for t in args.word.split(",")] if args.word else []
    word = CliffordWord.from_support(8, support)
    if args.full:
        mat = full_rep(word)
    else:
        mat = spinor_rep(-1 if args.minus else 1, word)
    _emit({"dim": mat.dim, "rows": mat.rows(), "support": support})
    return 0


def cmd_tower_check(args):
    report = tower_report(args.n)
    _emit({"n": report["n"], "order": report["order"],
           "perfect": report["perfect"], "h1_dim": report["h1_dim"]})
    return 0


# ---------------------------------------------------------------------------
# Verification subcommands
# ---------------------------------------------------------------------------

def _alpbach_exact(code, order):
    cutoff = Fraction(order)
    lhs = voarep.z_map(voarep.module_of_code(code), cutoff)
    enum = weight_enumerator(code)
    thetas = [theta_series(standard_lattice(code.p, 1), cutoff, (j,))
              for j in range(enum.r + 1)]
    rhs = qexp.compose_enumerator(enum, thetas)
    same = lhs.truncate(cutoff) == rhs.truncate(cutoff)
    return {
        "prime": code.p,
        "n": code.n,
        "size": len(code),
        "order": str(cutoff),
        "lhs": qexp.to_json_obj(lhs.truncate(cutoff)),
        "rhs": qexp.to_json_obj(rhs.truncate(cutoff)),
        "pass": same,
    }


def verify_expansion():
    theta0 = theta_series(standard_lattice(3, 1), Fraction(7), (0,))
    theta1 = theta_series(standard_lattice(3, 1), Fraction(13, 3), (1,))
    want0 = {Fraction(0): 1, Fraction(1): 6, Fraction(3): 6,
             Fraction(4): 6, Fraction(7): 12}
    want1 = {Fraction(1, 3): 3, Fraction(4, 3): 3, Fraction(7, 3): 6,
             Fraction(13, 3): 6}
    got0 = {e: c for e, c in theta0.items()}
    got1 = {e: c for e, c in theta1.items()}
    ok = (sorted(got0) == sorted(want0)
          and all(got0[e] == want0[e] for e in want0)
          and sorted(got1) == sorted(want1)
          and all(got1[e] == want1[e] for e in want1))
    return {
        "class0": qexp.to_json_obj(theta0),
        "class1": qexp.to_json_obj(theta1),
        "pass": ok,
    }


def cmd_verify_alpbach(args):
    _check_order(args.order)
    code = _load_code(args.code)
    if args.prime != code.p:
        raise ValueError("--prime %d does not match the prime %d of code %s"
                         % (args.prime, code.p, args.code))
    if args.points:
        with open(args.points, "r", encoding="utf-8") as fh:
            points = parse_points_text(fh.read(), code.p)
        return _verdict(verify_alpbach(code, points, tol=args.tol))
    return _verdict(_alpbach_exact(code, args.order))


def verify_alpbach_random_exact(seed=0, trials=10):
    rng = random.Random(seed)
    from .fpcode import make_code
    rows = []
    ok = True
    for t in range(trials):
        n = rng.randint(1, 4)
        universe = [tuple((w // 3 ** i) % 3 for i in range(n))
                    for w in range(3 ** n)]
        words = rng.sample(universe, rng.randint(1, min(9, len(universe))))
        code = make_code(3, n, words=words)
        rep = _alpbach_exact(code, 3)
        ok = ok and rep["pass"]
        rows.append({"trial": t, "n": n, "size": len(code),
                     "pass": rep["pass"]})
    return {"prime": 3, "trials": rows, "pass": ok}


DEFAULT_P5_POINTS = ((1j, 1j), (2j, 1.5j), (0.3 + 1.5j, 1.2j))


def verify_alpbach_random_numerical(seed=0, trials=5, tol=1e-8):
    rng = random.Random(seed)
    from .fpcode import make_code
    rows = []
    ok = True
    for t in range(trials):
        universe = [(a, b) for a in range(5) for b in range(5)]
        words = rng.sample(universe, rng.randint(2, 12))
        code = make_code(5, 2, words=words)
        report = verify_alpbach(code, list(DEFAULT_P5_POINTS), tol=tol)
        ok = ok and report["pass"]
        rows.append({"trial": t, "size": len(code),
                     "max_residual": max(row["residual"]
                                         for row in report["points"]),
                     "pass": report["pass"]})
    return {"prime": 5, "tol": tol, "trials": rows, "pass": ok}


SL2F3_POINTS = (1j, 2j, 0.3 + 1.5j)


def verify_sl2f3_cmd(zs, tol):
    rows = []
    ok = True
    for z in zs:
        report = verify_sl2f3_action(z, tol=tol)
        ok = ok and report["pass"]
        rows.append(report)
    return {"points": rows, "tol": tol, "pass": ok}


def verify_e8():
    lat = lattice_of_code(standard_codes("tetracode"))
    info = lattice_info(lat)
    series = theta_series(lat, Fraction(3))
    got = {e: c for e, c in series.items()}
    expected = {Fraction(0): 1, Fraction(1): 240, Fraction(2): 2160,
                Fraction(3): 6720}
    theta_ok = (sorted(got) == sorted(expected)
                and all(got[e] == expected[e] for e in expected))
    fp_counts = count_by_norm(lat, Fraction(6))
    box_counts = box_count_by_norm(lat, Fraction(6))
    ok = (info["rank"] == 8 and info["discriminant"] == 1 and info["even"]
          and theta_ok and fp_counts == box_counts)
    return {
        "lattice": info,
        "theta": qexp.to_json_obj(series),
        "theta_matches": theta_ok,
        "routes_agree": fp_counts == box_counts,
        "pass": bool(ok),
    }


def verify_golay():
    code = standard_codes("golay12")
    _progress("building rank-24 lattice")
    lat = lattice_of_code(code)
    info = lattice_info(lat)
    preds = code_predicates(code)
    _progress("enumerating vectors of norm <= 4")
    shells = count_by_norm(lat, Fraction(4))
    shells = {str(k): v for k, v in shells.items()}
    ok = (info["rank"] == 24 and info["discriminant"] == 1
          and info["even"] and len(code) == 729 and preds["self_dual"]
          and shells == {"0": 1, "2": 72, "4": 194832})
    return {
        "lattice": info,
        "code_size": len(code),
        "self_dual": preds["self_dual"],
        "shells": shells,
        "pass": bool(ok),
    }


def verify_orbits(seed=1):
    cutoff = Fraction(3)
    invariance = True
    swept = 0
    for p in (3, 5):
        for n in (1, 2, 3):
            lat = standard_lattice(p, n)
            for orbit in voarep.all_orbits(p, n):
                rep_word = orbit.representative()
                base = theta_series(lat, cutoff, rep_word)
                members = voarep.orbit_members(p, rep_word)
                swept += len(members)
                for w in members:
                    if theta_series(lat, cutoff, w) != base:
                        invariance = False
    rng = random.Random(seed)
    mult = True
    orbits3 = list(voarep.all_orbits(3, 1)) + list(voarep.all_orbits(3, 2))
    for _ in range(20):
        a = voarep.RepElement.from_orbit(rng.choice(orbits3))
        b = voarep.RepElement.from_orbit(rng.choice(orbits3))
        lhs = voarep.z_map(a * b, Fraction(2))
        rhs = (voarep.z_map(a, Fraction(2))
               * voarep.z_map(b, Fraction(2))).truncate(Fraction(2))
        if lhs != rhs:
            mult = False
    counts = all(
        len(list(voarep.all_orbits(p, n)))
        == comb(n + (p - 1) // 2, (p - 1) // 2)
        for p in (3, 5) for n in range(1, 9))
    return {
        "cosets_checked": swept,
        "invariance": invariance,
        "multiplicativity": mult,
        "orbit_counts": counts,
        "pass": invariance and mult and counts,
    }


def verify_grades():
    ok = True
    rows = []
    for n in range(1, 9):
        orbits = list(voarep.all_orbits(3, n))
        monos = {voarep.z_tilde(o) for o in orbits}
        profiles = {o.profile for o in orbits}
        expect = {(n - k, k) for k in range(n + 1)}
        good = (len(orbits) == n + 1 and len(monos) == n + 1
                and profiles == expect)
        ok = ok and good
        rows.append({"n": n, "orbits": len(orbits),
                     "monomials": len(monos), "pass": good})
    return {"prime": 3, "grades": rows, "pass": ok}


def verify_hamming():
    code = standard_codes("hamming8")
    preds = code_predicates(code)
    spectrum = {}
    for w in code.words:
        spectrum[hamming_weight(w)] = spectrum.get(hamming_weight(w), 0) + 1
    ok = (preds["self_dual"] and preds["doubly_even"]
          and preds["min_distance"] == 4
          and spectrum == {0: 1, 4: 14, 8: 1})
    return {
        "predicates": preds,
        "spectrum": {str(k): v for k, v in sorted(spectrum.items())},
        "pass": bool(ok),
    }


def verify_tower():
    r4 = tower_report(4)
    r5 = tower_report(5)
    h1_6 = crossed_hom_space(6)["h1_dim"]
    pairs, pair_ok = pair_form_sweep()
    full_ok = beta_form_check()
    ok = (r5["perfect"] and r5["order"] == 960 and not r4["perfect"]
          and r5["h1_dim"] == 0 and h1_6 == 0 and pair_ok and full_ok
          and pairs == 28)
    return {
        "n4": r4,
        "n5": r5,
        "h1_n6": h1_6,
        "beta_weight2_pairs": pairs,
        "beta_weight2_ok": pair_ok,
        "beta_full_sweep": full_ok,
        "pass": bool(ok),
    }


# The stages of `verify all`, in order.  Every stage whose name is not
# reached through another command is also a `verify` subcommand.
VERIFY_STAGES = (
    ("expansion", verify_expansion),
    ("alpbach_exact_tetracode",
     lambda: _alpbach_exact(standard_codes("tetracode"), 3)),
    ("alpbach_exact_random", verify_alpbach_random_exact),
    ("alpbach_numerical", verify_alpbach_random_numerical),
    ("e8", verify_e8),
    ("golay", verify_golay),
    ("orbits", verify_orbits),
    ("grades", verify_grades),
    ("sl2f3", lambda: verify_sl2f3_cmd(SL2F3_POINTS, 1e-7)),
    # looked up when called, so a rebinding of the module name takes effect
    ("clifford", lambda: clifford_verify_all()),
    ("hamming", verify_hamming),
    ("tower", verify_tower),
)


def cmd_verify_sl2f3(args):
    zs = args.z or SL2F3_POINTS
    return _verdict(verify_sl2f3_cmd(zs, args.tol))


def verify_all_cmd():
    out = {}
    ok = True
    for name, fn in VERIFY_STAGES:
        _progress("verify: %s" % name)
        report = fn()
        out[name] = report
        ok = ok and report["pass"]
    out["pass"] = ok
    return out


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="thetaforge",
        description="Codes, cyclotomic lattices, theta series, lattice "
                    "module characters, and Clifford-group checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_code = sub.add_parser("code", help="facts about a code")
    p_code.add_argument("--code", required=True,
                        help="builtin name (%s) or file" %
                        ", ".join(BUILTIN_CODES))
    p_code.set_defaults(func=cmd_code)

    p_lat = sub.add_parser("lattice", help="lattice invariants of a code")
    p_lat.add_argument("--code", required=True)
    p_lat.add_argument("--info", action="store_true",
                       help="print rank, discriminant, evenness, minimal "
                            "norm (default output)")
    p_lat.set_defaults(func=cmd_lattice)

    p_q = sub.add_parser("qexp", help="eta-power series JSON")
    p_q.add_argument("--prime", type=int, required=True)
    p_q.add_argument("--cutoff", required=True,
                     help="inclusive exponent cutoff, int or a/b")
    p_q.add_argument("--power", type=int, default=1)
    p_q.set_defaults(func=cmd_qexp)

    p_t = sub.add_parser("theta", help="theta series of one digit class")
    p_t.add_argument("--prime", type=int, required=True)
    p_t.add_argument("--class", dest="digit_class", type=int, required=True)
    p_t.add_argument("--order", required=True)
    p_t.set_defaults(func=cmd_theta)

    p_rep = sub.add_parser("rep", help="module-indexing maps")
    rep_sub = p_rep.add_subparsers(dest="rep_command", required=True)
    p_zmap = rep_sub.add_parser("zmap", help="series of one orbit class")
    p_zmap.add_argument("--prime", type=int, required=True)
    p_zmap.add_argument("--orbit", type=_digits, required=True,
                        help="comma-separated digits of a representative")
    p_zmap.add_argument("--order", required=True)
    p_zmap.set_defaults(func=cmd_rep_zmap)
    p_main = rep_sub.add_parser("check-main",
                                help="separation/bijectivity report")
    p_main.add_argument("--prime", type=int, required=True)
    p_main.add_argument("--n", type=int, required=True)
    p_main.add_argument("--cutoff", default="3")
    p_main.set_defaults(func=cmd_rep_check_main)

    p_ver = sub.add_parser("verify", help="verification reports")
    ver_sub = p_ver.add_subparsers(dest="verify_command", required=True)
    p_alp = ver_sub.add_parser("alpbach")
    p_alp.add_argument("--prime", type=int, required=True)
    p_alp.add_argument("--code", required=True)
    p_alp.add_argument("--points", help="file of evaluation points; "
                       "omit for the exact mode")
    p_alp.add_argument("--tol", type=float, default=1e-8)
    p_alp.add_argument("--order", type=int, default=3,
                       help="exact-mode inclusive exponent cutoff")
    p_alp.set_defaults(func=cmd_verify_alpbach)
    p_sl2 = ver_sub.add_parser("sl2f3")
    p_sl2.add_argument("--z", action="append", type=complex,
                       help="complex point, repeatable; default i, 2i, "
                            "0.3+1.5i")
    p_sl2.add_argument("--tol", type=float, default=1e-7)
    p_sl2.set_defaults(func=cmd_verify_sl2f3)
    # alpbach_* and sl2f3 run through the subcommands above; clifford is
    # `thetaforge clifford verify`.  The other stages take no arguments.
    for name, stage in VERIFY_STAGES:
        if name.split("_")[0] not in ver_sub.choices and name != "clifford":
            ver_sub.add_parser(name).set_defaults(
                func=lambda args, stage=stage: _verdict(stage()))
    p_all = ver_sub.add_parser("all")
    p_all.add_argument("--level", choices=["desk"], default="desk")
    p_all.set_defaults(func=lambda args: _verdict(verify_all_cmd()))

    p_cliff = sub.add_parser("clifford", help="Clifford-group checks")
    cliff_sub = p_cliff.add_subparsers(dest="clifford_command",
                                       required=True)
    cliff_sub.add_parser("verify").set_defaults(func=cmd_clifford_verify)
    p_delta = cliff_sub.add_parser("delta")
    p_delta.add_argument("--word", required=True,
                         help="comma-separated symbol indices, e.g. 0,1")
    p_delta.add_argument("--minus", action="store_true",
                         help="use the minus spinor map")
    p_delta.add_argument("--full", action="store_true",
                         help="16x16 periodicity image (odd words allowed)")
    p_delta.set_defaults(func=cmd_clifford_delta)

    p_tower = sub.add_parser("tower", help="signed-permutation tower")
    tower_sub = p_tower.add_subparsers(dest="tower_command", required=True)
    p_tc = tower_sub.add_parser("check")
    p_tc.add_argument("--n", type=int, required=True)
    p_tc.set_defaults(func=cmd_tower_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
