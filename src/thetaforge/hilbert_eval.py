"""Numerical coset theta values on a product of upper half planes.

For an element x of O^n with nu = sum_i x_i conj(x_i), the summand attached
to a point (z_1, ..., z_r) is exp(2 pi i sum_l z_l sigma_l(nu) / p), the
sigma_l running over one embedding per conjugate pair, so it depends on
x only through nu.  At a point, sums are taken shell by shell in
increasing norm until the worst-case contribution of a shell drops below
tail_tol/10.  Each call first finds every point's stop shell from the
coset's exact shell sizes, which come from one cyclotomic block's norm
table and no enumeration of the coset; while some point has none, the
bound grows by 5/4 up to the THETA_FORGE_MAX_NORM cap.  It then
enumerates the coset once, to the norm of the last shell any point sums,
into one table for all of its points: the exact histogram of nu, each
distinct nu an integer key with its multiplicity and its r values
sigma_l(nu), rows sorted by norm, and the shells' norms and end rows.
The table is counted from the enumerator's blocks as they arrive, so only
the distinct nu are held for the whole coset (48 rows for the 23,561
vectors of the p = 5, n = 2 zero coset to norm 13), and the cosets w and
-w, whose nu agree, share one table.  A point exponentiates each distinct
nu of the shells it sums once, weighted by its multiplicity.  A sum that
is not finite, a cap reached first, or a Re z so large that float64
phases err by more than tail_tol is an error naming the point.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .codelattice import (
    coset_shell_counts, enumerate_coset, lift_word, max_norm_cap,
    standard_lattice,
)
from .cyclotomic import check_odd_prime, check_prime


class HilbertPoint:
    """A tuple of r = (p-1)/2 points in the upper half plane."""

    __slots__ = ("p", "values")

    def __init__(self, p, values):
        check_odd_prime(p)
        r = (p - 1) // 2
        values = tuple(complex(v) for v in values)
        if len(values) != r:
            raise ValueError("point needs %d components for p=%d" % (r, p))
        for v in values:
            if not cmath.isfinite(v):
                raise ValueError("component %r is not finite" % v)
        if any(v.imag <= 0 for v in values):
            raise ValueError("all components need positive imaginary part")
        self.p = p
        self.values = values

    @property
    def y_min(self):
        return min(v.imag for v in self.values)

    def __repr__(self):
        return "HilbertPoint(p=%d, %r)" % (self.p, list(self.values))


def as_point(p, z):
    if isinstance(z, HilbertPoint):
        if z.p != p:
            raise ValueError("point for the wrong prime")
        return z
    if isinstance(z, (list, tuple)):
        return HilbertPoint(p, z)
    return HilbertPoint(p, [z] * ((p - 1) // 2))


@lru_cache(maxsize=64)
def _coset_arrays(p, n, word, bound):
    """One enumeration pass over a coset, reduced to its exact histogram of
    nu = sum_i y_i conj(y_i), the element of Z[zeta + zeta^-1] that its
    summands depend on.  Returns (nu, mult, sigma, shell_norms,
    shell_ends) over the M distinct nu: nu an (M, r) int64 array with
    nu[:, k-1] = t_k - t_0, where t_k = sum_{i,a} y_{i,a} y_{i,a+k} is the
    autocorrelation of the p-coordinate form of y (its p - 1 power-basis
    coordinates and a 0, indices mod p), so that nu = sum_k nu_k (zeta^k +
    zeta^-k); mult their int64 multiplicities; sigma, (M, r) floats with
    sigma_l(nu) = sum_k nu_k 2 cos(2 pi l k / p) in column l-1; the
    distinct norms N = -2 sum_k nu_k / p, ascending; and the end row of
    each norm's shell.  Rows are sorted by norm, then by key.

    Each block the enumerator hands over is reduced as it arrives: its
    leaves go through the basis and the lift, and each leaf becomes one
    exact integer key, the digits t_0 - t_k in base floor(2 bound) + 1
    (t_0 - t_k does not change when a constant is added to y's p
    coordinates, and for the centred vector, of square length N(y), it
    lies in 0 .. 2 N(y)).  The keys are int64 when every key fits, Python
    ints otherwise; they are counted into the keys held so far with
    np.unique.  So only the distinct nu are held, never a row per vector,
    and the sigma rows are computed once per distinct nu.  An empty coset gives
    (0, r) tables.  Cached so that evaluating the same coset at several
    points enumerates once."""
    import numpy as np
    lat = standard_lattice(p, n)
    shift = lat.shift_in_basis(word)
    d, r = p - 1, (p - 1) // 2
    base = max(math.floor(2 * Fraction(bound)), 0) + 1
    kt = _key_dtype(base, r)
    powers = np.array([base ** k for k in range(r)], dtype=kt)
    # small integers, so the float64 product is exact (and, unlike int64
    # matmul, runs in BLAS)
    basis = np.array(lat.basis, dtype=np.float64)
    lift = np.array(lift_word(word, p, n), dtype=np.float64)
    held = [np.zeros(0, dtype=kt), np.zeros(0, dtype=np.int64)]

    def emit(X, scaled, scale):
        Y = X.astype(np.float64) @ basis
        Y += lift
        Y = Y.reshape(-1, n, d)
        keys = np.zeros(len(Y), dtype=kt)
        t0 = np.einsum("mia,mia->m", Y, Y)
        for k in range(1, r + 1):
            # t_k of the p coordinates, the last one 0: the lag-k products,
            # and the lag-(p-k) ones that wrap
            tk = (np.einsum("mia,mia->m", Y[..., :d - k], Y[..., k:])
                  + np.einsum("mia,mia->m", Y[..., :k - 1], Y[..., p - k:]))
            keys += (t0 - tk).astype(np.int64).astype(kt) * powers[k - 1]
        keys, inverse = np.unique(np.concatenate((held[0], keys)),
                                  return_inverse=True)
        mult = np.bincount(inverse[len(held[0]):], minlength=len(keys))
        mult[inverse[:len(held[0])]] += held[1]
        held[:] = keys, mult

    enumerate_coset([list(row) for row in lat.gram], shift, bound, emit)
    keys, mult = held
    nu = np.empty((len(keys), r), dtype=np.int64)
    for k in range(r):
        nu[:, k] = -(keys // base ** k % base)
    # the keys are ascending, so a stable sort by norm keeps them so within
    # a shell
    pnorm = -2 * nu.sum(axis=1)                  # p N, an integer
    order = np.argsort(pnorm, kind="stable")
    nu, mult = nu[order], mult[order]
    # sigma_l(nu) in elementwise float64 operations, in a fixed order
    sigma = np.zeros((len(nu), r))
    for k in range(1, r + 1):
        sigma += nu[:, k - 1:k] * (2 * np.cos((2 * np.pi * k / p)
                                              * np.arange(1, r + 1)))
    uniq, counts = np.unique(pnorm, return_counts=True)
    return nu, mult, sigma, uniq / p, np.cumsum(counts)


def _key_dtype(base, r):
    """int64 when every key of r digits in base fits in it, else object
    (Python ints), as _dtypes chooses for the Fincke-Pohst arrays."""
    import numpy as np
    return np.int64 if base ** r < 1 << 63 else object


def _coset_table(p, n, word, bound):
    """The table of coset word at a bound, shared by the +-pair of cosets:
    _coset_arrays of c = min(word, -word mod p).  Coset -w is the negation
    of coset w, and nu(-y) = nu(y), so the two have one nu-histogram."""
    neg = tuple(-a % p for a in word)
    return _coset_arrays(p, n, min(word, neg), bound)


def _coset_values(p, n, word, points, tail_tol):
    """Shell-ordered sums of exp(2 pi i sum_l z_l sigma_l(nu) / p) over the
    coset, one per point, each up to the first shell of norm u whose count
    times exp(-pi y_min u) is below tail_tol/10; only the distinct nu of
    the shells before it are exponentiated, each term weighted by its
    multiplicity.

    The stop shells come from coset_shell_counts, exact and cheap, taken
    first at the bound of the smallest Im z and grown by 5/4 until every
    point has one.  All points then share one table (_coset_table),
    enumerated to the exact norm of the last shell any point sums, and a
    point reads the table's first rows up to the end of its own last
    shell.  The rows are sorted by norm and then by an exact integer key
    whose order does not depend on the bound, so the rows a point reads,
    and its value, do not depend on the bound the table was built at.
    """
    import numpy as np
    if not points:
        return []
    # initial bound sized so the stop rule usually fires on the first pass;
    # a tiny Im z or tail_tol makes the guess overflow to inf, so it is
    # capped before rounding
    cap = max_norm_cap()
    y_mins = [point.y_min for point in points]
    guess = _bound_guess(min(y_mins), tail_tol)
    bound = Fraction(max(6, math.ceil(min(guess, cap))))
    word = tuple(int(c) % p for c in word)
    while True:
        use = min(bound, cap)
        counts = coset_shell_counts(p, n, word, use)
        ks = np.flatnonzero(counts)
        shells = list(zip((ks / p).tolist(), counts[ks].tolist()))
        stops = [next((k for k, (u, cnt) in enumerate(shells)
                       if cnt * math.exp(-math.pi * y_min * u)
                       < tail_tol / 10), None)
                 for y_min in y_mins]
        if None not in stops:
            break
        if use >= cap:
            point = min((point for point, stop in zip(points, stops)
                         if stop is None), key=lambda pt: pt.y_min)
            asked = _bound_guess(point.y_min, tail_tol)
            if math.isfinite(asked):
                advice = ("about %.3g; raise THETA_FORGE_MAX_NORM or loosen "
                          "--tol" % asked)
            else:
                advice = "inf, which no cap reaches"
            raise ValueError(
                "tail still above %g at the enumeration cap %s; the point "
                "%s asks for a norm bound of %s"
                % (tail_tol, cap, _point_text(point), advice))
        bound = bound * 5 / 4
    if not any(stops):
        return [0j] * len(points)   # no point sums a shell
    _, mult, sigma, shell_norms, shell_ends = _coset_table(
        p, n, word, Fraction(int(ks[max(stops) - 1]), p))
    values = []
    for point, stop in zip(points, stops):
        # the table's rows up to the end of the point's last shell
        norm_max, e = 0.0, 0
        if stop:
            norm_max = shells[stop - 1][0]
            last = int(np.searchsorted(shell_norms, norm_max, side="right"))
            e = int(shell_ends[last - 1]) if last else 0
        # a huge Re z overflows the phase to inf and the terms to nan; the
        # finished sum is checked instead of warning on the way
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.zeros(e, dtype=np.complex128)
            for l, z in enumerate(point.values):
                phase += z * sigma[:e, l]
            total = complex(
                (mult[:e] * np.exp((2j * np.pi / p) * phase)).sum())
        if not cmath.isfinite(total):
            raise ValueError("the theta sum at the point %s is not finite"
                             % _point_text(point))
        _check_phase_rounding(point, norm_max, tail_tol)
        values.append(total)
    return values


def _check_phase_rounding(point, norm_max, tail_tol):
    """Refuse a point whose term phases float64 cannot resolve.

    sum_l sigma_l(y) = p N(y) / 2, so a term's phase
    (2 pi / p) sum_l Re(z_l) sigma_l(y) is at most pi |Re z| N in size
    for the norms N up to norm_max that the sum takes.  Each of the 2r + 1
    float64 roundings that form it errs by at most 2^-53 of that size.
    Once that bound passes tail_tol, the rounding outweighs the tail the
    stop rule leaves out, and a large Re z would give a false verdict."""
    re_max = max(abs(v.real) for v in point.values)
    slip = ((2 * len(point.values) + 1) * 2.0 ** -53 * math.pi * re_max
            * norm_max)
    if slip > tail_tol:
        raise ValueError(
            "the point %s lies too far from the imaginary axis: float64 "
            "phases there may err by %.3g, above the tail tolerance %g"
            % (_point_text(point), slip, tail_tol))


def _bound_guess(y_min, tail_tol):
    """The norm bound at which the stop rule usually fires for points with
    Im z >= y_min; inf when a tiny y_min or tail_tol overflows it."""
    return 1.3 * math.log(10 / tail_tol) / (math.pi * y_min) + 2


def _point_text(point):
    return " ".join(str(v) for v in point.values)


def _code_values(code, points, tail_tol):
    """Coset sums over the code at each point, added in code.words order."""
    totals = [0j] * len(points)
    for w in code.words:
        values = _coset_values(code.p, code.n, w, points, tail_tol)
        totals = [t + v for t, v in zip(totals, values)]
    return totals


def theta_class_eval(p, j, z, tail_tol=1e-10):
    """Numerical theta value of the coset with digit j, one coordinate."""
    check_prime(p)
    point = as_point(p, z)
    return _coset_values(p, 1, (int(j) % p,), [point], tail_tol)[0]


def theta_code_eval(code, z, tail_tol=1e-10):
    """Numerical theta value of the union of cosets indexed by a code."""
    return _code_values(code, [as_point(code.p, z)], tail_tol)[0]


def _enumerator_value(code, theta_values):
    """The symmetrized weight enumerator evaluated on numbers."""
    from .fpcode import weight_enumerator
    total = 0j
    for expo, cnt in weight_enumerator(code).items():
        term = complex(cnt)
        for base, e in zip(theta_values, expo):
            if e:
                term *= base ** e
        total += term
    return total


def galois_permutation(p, k):
    """How zeta -> zeta^k permutes the r embedding classes."""
    r = (p - 1) // 2
    perm = []
    for l in range(1, r + 1):
        m = (k * l) % p
        perm.append(min(m, p - m) - 1)
    return perm


def verify_alpbach(code, points, tol=1e-8):
    """Compare the coset-sum theta against the enumerator composition.

    Returns a report dict with one entry per point carrying both values,
    the residual, a Galois z-permutation residual, and a verdict.
    """
    p = code.p
    r = (p - 1) // 2
    tail_tol = tol / 100
    points = [as_point(p, z) for z in points]
    # three sweeps, each reading one table per coset for all the points
    lhs_values = _code_values(code, points, tail_tol)
    class_values = [_coset_values(p, 1, (j,), points, tail_tol)
                    for j in range(r + 1)]
    galois_residuals = [0.0] * len(points)
    if r >= 2:
        perm = galois_permutation(p, 2)
        permuted = [HilbertPoint(p, [point.values[perm[l]] for l in range(r)])
                    for point in points]
        galois_residuals = [abs(lhs_perm - lhs) for lhs_perm, lhs in zip(
            _code_values(code, permuted, tail_tol), lhs_values)]
    rows = []
    ok = True
    for point, lhs, galois_residual, thetas in zip(
            points, lhs_values, galois_residuals, zip(*class_values)):
        rhs = _enumerator_value(code, thetas)
        residual = abs(lhs - rhs)
        passed = residual < tol and galois_residual < tol
        ok = ok and passed
        rows.append({
            "point": [[v.real, v.imag] for v in point.values],
            "lhs": [lhs.real, lhs.imag],
            "rhs": [rhs.real, rhs.imag],
            "residual": residual,
            "galois_residual": galois_residual,
            "pass": passed,
        })
    return {"prime": p, "tol": tol, "points": rows, "pass": ok}


def verify_sl2f3_action(z, tol=1e-7):
    """Check the weight-one transformation rules of the two classes at p=3.

    The inversion z -> -1/z mixes the classes through the matrix
    [[1, 2], [1, -1]] times z*(-1-2 zeta)/3; the translation z -> z+1
    fixes class 0 and multiplies class 1 by zeta.  Applying the inversion
    rule twice must return the inputs.
    """
    tail_tol = tol / 100
    z = complex(z)
    if not cmath.isfinite(z) or z.imag <= 0:
        raise ValueError("need a finite z with Im(z) > 0, got %r" % z)
    sz = -1 / z
    if sz.imag <= 0:
        raise ValueError("Im(-1/z) underflows to 0 at z = %r" % z)
    zeta = cmath.exp(2j * cmath.pi / 3)
    t0 = theta_class_eval(3, 0, z, tail_tol)
    t1 = theta_class_eval(3, 1, z, tail_tol)
    factor = z * (-1 - 2 * zeta) / 3
    s_res = [
        abs(theta_class_eval(3, 0, sz, tail_tol) - factor * (t0 + 2 * t1)),
        abs(theta_class_eval(3, 1, sz, tail_tol) - factor * (t0 - t1)),
    ]
    t_res = [
        abs(theta_class_eval(3, 0, z + 1, tail_tol) - t0),
        abs(theta_class_eval(3, 1, z + 1, tail_tol) - zeta * t1),
    ]
    # inversion applied twice, purely through the transformation rule
    factor_s = sz * (-1 - 2 * zeta) / 3
    u0 = factor * (t0 + 2 * t1)
    u1 = factor * (t0 - t1)
    ss_res = [
        abs(factor_s * (u0 + 2 * u1) - t0),
        abs(factor_s * (u0 - u1) - t1),
    ]
    residuals = s_res + t_res + ss_res
    return {
        "z": [z.real, z.imag],
        "s_residuals": s_res,
        "t_residuals": t_res,
        "double_inversion_residuals": ss_res,
        "max_residual": max(residuals),
        "pass": max(residuals) < tol,
    }


def _point_component(token):
    try:
        return complex(token)
    except ValueError:
        raise ValueError("%r is not a complex number" % token) from None


def parse_points_text(text, p):
    """Point file: one point per line, r complex numbers, '#' comments.
    Each error names the line at fault."""
    r = (p - 1) // 2
    points = []
    for number, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != r:
            raise ValueError("line %d: expected %d components per line, "
                             "got %r" % (number, r, body))
        try:
            points.append(HilbertPoint(p, [_point_component(s)
                                           for s in parts]))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (number, exc)) from None
    if not points:
        raise ValueError("no points in file")
    return points
