"""Numerical coset theta values on a product of upper half planes.

For an element x of O^n with y = sum_i x_i conj(x_i), the summand attached
to a point (z_1, ..., z_r) is exp(2 pi i sum_l z_l sigma_l(y) / p), the
sigma_l running over one embedding per conjugate pair.  At a point, sums
are taken shell by shell in increasing norm until the worst-case
contribution of a shell drops below tail_tol/10.  Each call first finds
every point's stop shell from the coset's exact shell sizes, which come
from one cyclotomic block's norm table and no enumeration of the coset;
while some point has none, the bound grows by 5/4 up to the
THETA_FORGE_MAX_NORM cap.  It then enumerates the coset once, to the norm
of the last shell any point sums, into one table for all of its points:
the r values sigma_l(y) of every vector, rows sorted by norm, and the
shells' norms and end rows.  The table is built from the enumerator's
blocks as they arrive, so only its own rows are held for the whole coset,
about 24 bytes per vector at p = 5, and the cosets w and -w share one
table.  Only the rows a point sums are exponentiated.  A sum that is not
finite, a cap reached first, or a Re z so large that float64 phases err
by more than tail_tol is an error naming the point.
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
    """One enumeration pass over a coset, reduced to a table that serves
    every point: sigma, an (M, r) array with sigma_l(y) = sum_i
    |sigma_l(x_i)|^2 in column l-1, rows sorted by the exact norm; the
    distinct norms, ascending; and the end row of each norm's shell.
    Each block the enumerator hands over is reduced as it arrives: its
    leaves are mapped through the basis and lifted, and only its sigma
    rows and scaled norms are kept, so no coordinate matrix of the whole
    coset exists.  The kept rows are concatenated and stably sorted by
    norm at the end; an empty coset gives a (0, r) table.  Cached so that
    evaluating the same coset at several points enumerates once."""
    import numpy as np
    lat = standard_lattice(p, n)
    shift = lat.shift_in_basis(word)
    d = p - 1
    # small integers, so the float64 product is exact (and, unlike int64
    # matmul, runs in BLAS)
    basis = np.array(lat.basis, dtype=np.float64)
    lift = np.array(lift_word(word, p, n), dtype=np.float64)
    embeddings = [np.exp((2j * np.pi * l / p) * np.arange(d))
                  for l in range(1, d // 2 + 1)]
    sigma_blocks = [np.zeros((0, d // 2))]
    norm_blocks = [np.zeros(0, dtype=np.int64)]
    scale_box = [1]

    def emit(X, scaled, scale):
        blocks = (X.astype(np.float64) @ basis + lift).reshape(-1, n, d)
        sigma = np.empty((len(blocks), d // 2))
        for l, w in enumerate(embeddings):
            emb = blocks @ w
            sigma[:, l] = (emb.real ** 2 + emb.imag ** 2).sum(axis=1)
        sigma_blocks.append(sigma)
        norm_blocks.append(scaled.astype(np.int64, copy=False))
        scale_box[0] = scale

    enumerate_coset([list(r) for r in lat.gram], shift, bound, emit)
    sigma = np.concatenate(sigma_blocks)
    norms = np.concatenate(norm_blocks)
    # the blocks go before sorting, which needs as much again
    sigma_blocks.clear()
    norm_blocks.clear()
    uniq, counts = np.unique(norms, return_counts=True)
    return (sigma[np.argsort(norms, kind="stable")], uniq / scale_box[0],
            np.cumsum(counts))


def _coset_table(p, n, word, bound):
    """_coset_arrays(p, n, word, bound), bit for bit, with one cached table
    for each +-pair of cosets: the table of c = min(word, -word mod p).

    Coset -w is the negation of coset w.  In basis coordinates its leaves
    are -x - k for a fixed integer vector k, since lift(w) + lift(-w) lies
    in the lattice, so its enumeration order is the reverse of w's, and
    the stable sort by norm keeps that reversal inside each shell.  The
    shells' norms are the same, and sigma(-y) = sigma(y) bit for bit,
    because negation is exact and rounding to nearest is sign-symmetric.
    So -w's table is c's with the rows of each shell reversed."""
    neg = tuple(-a % p for a in word)
    if word <= neg:
        return _coset_arrays(p, n, word, bound)
    sigma, shell_norms, shell_ends = _coset_arrays(p, n, neg, bound)
    return sigma[_shell_reversal(shell_ends)], shell_norms, shell_ends


def _shell_reversal(shell_ends):
    """The row order that reverses each shell, the shells ending at the
    rows shell_ends, the first starting at row 0."""
    import numpy as np
    counts = np.diff(shell_ends, prepend=0)
    return (np.repeat(2 * shell_ends - counts - 1, counts)
            - np.arange(counts.sum()))


def _coset_values(p, n, word, points, tail_tol):
    """Shell-ordered sums of exp(2 pi i sum_l z_l sigma_l(y) / p) over the
    coset, one per point, each up to the first shell of norm u whose count
    times exp(-pi y_min u) is below tail_tol/10; only the shells before it
    are exponentiated.

    The stop shells come from coset_shell_counts, exact and cheap, taken
    first at the bound of the smallest Im z and grown by 5/4 until every
    point has one.  All points then share one table (_coset_table),
    enumerated to the exact norm of the last shell any point sums, and a
    point reads the table's shells up to the norm of its own last one.
    The enumeration order is lexicographic at any bound and the sort by
    norm is stable, so a shell's rows, and a point's value, do not depend
    on the bound the table was built at.
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
    sigma, shell_norms, shell_ends = _coset_table(
        p, n, word, Fraction(int(ks[max(stops) - 1]), p))
    ends = [0] + shell_ends.tolist()
    values = []
    for point, stop in zip(points, stops):
        # the table's shells up to the norm of the point's last one
        norm_max, last = 0.0, 0
        if stop:
            norm_max = shells[stop - 1][0]
            last = int(np.searchsorted(shell_norms, norm_max, side="right"))
        # a huge Re z overflows the phase to inf and the terms to nan; the
        # finished sum is checked instead of warning on the way
        total = 0j
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.zeros(ends[last], dtype=np.complex128)
            for l, z in enumerate(point.values):
                phase += z * sigma[:ends[last], l]
            terms = np.exp((2j * np.pi / p) * phase)
            for s0, s1 in zip(ends[:last], ends[1:last + 1]):
                total += complex(terms[s0:s1].sum())
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
