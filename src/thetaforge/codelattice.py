"""Even lattices built from self-orthogonal codes over odd primes.

The lattice attached to a code C in F_p^n is the preimage of C under the
digitwise reduction of O^n, O the p-th cyclotomic integers, modulo the
ramified prime.  Vectors live in O^n; internally everything is integer
coordinates on the power basis (n blocks of size p-1) with the trace form
scaled by 1/p.  Two enumeration routes count coset vectors by norm: exact
Fincke-Pohst on the reduced basis, and an ambient oracle that needs only the
code, enumerating power-basis vectors block by block, pruned by norm and by
codeword prefix, at any rank.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm, prod

from .fpcode import code_predicates, zero_code
from .linalg import fraction_inverse, integer_row_basis, integral_gso
from .qexp import QSeries

DEFAULT_MAX_NORM = 40


def max_norm_cap():
    """Enumeration guard, overridable via THETA_FORGE_MAX_NORM."""
    raw = os.environ.get("THETA_FORGE_MAX_NORM")
    if raw is None:
        return Fraction(DEFAULT_MAX_NORM)
    try:
        cap = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        cap = None
    if cap is None or cap < 0:
        raise ValueError("THETA_FORGE_MAX_NORM must be a nonnegative integer, "
                         "decimal or a/b with b nonzero, got %r" % raw)
    return cap


def _check_cap(bound):
    cap = max_norm_cap()
    if Fraction(bound) > cap:
        raise ValueError(
            "norm bound %s exceeds the enumeration cap %s "
            "(raise THETA_FORGE_MAX_NORM to override)" % (bound, cap))


# ---------------------------------------------------------------------------
# Basis reduction
# ---------------------------------------------------------------------------

def lll_reduce(rows, gram, delta=Fraction(3, 4)):
    """LLL on integer rows whose integer Gram matrix is gram.

    Integral LLL (Cohen, GTM 138, Alg. 2.6.7): the loop updates only the
    integers d and lam of linalg.integral_gso.  Scaling gram by s scales
    d_i by s^i and lam_kj by s^(j+1), which changes no rounding and no swap,
    so any integer multiple of the form gives the same rows.  Size reduction
    of row k rounds every mu_kj, j = k-1 .. 0, as it stood before the pass
    and only then subtracts them all, where textbook LLL updates mu after
    each subtraction.  The rows returned meet the Lovasz condition at delta
    but are not guaranteed to be size-reduced (|mu| <= 1/2).
    """
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n <= 1:
        return b
    delta = Fraction(delta)
    num, den = delta.numerator, delta.denominator
    d, lam = integral_gso(gram)
    k = 1
    while k < n:
        lk = lam[k]
        qs = [(j, (2 * lk[j] + d[j + 1]) // (2 * d[j + 1]))
              for j in range(k - 1, -1, -1)]
        for j, q in qs:
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
                lk[j] -= q * d[j + 1]
        lkk = lk[k - 1]
        if den * d[k + 1] * d[k - 1] >= num * d[k] ** 2 - den * lkk * lkk:
            k += 1
            continue
        # exchange rows k-1 and k: their lam rows trade places, d[k] and
        # lam[i][k-1], lam[i][k] for i > k are updated, nothing else moves
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k][:k - 1], lam[k - 1] = lam[k - 1], lk[:k - 1]
        dk = (d[k - 1] * d[k + 1] + lkk * lkk) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lkk * t) // d[k]
            li[k - 1] = (dk * t + lkk * li[k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b


# ---------------------------------------------------------------------------
# The trace form on power-basis coordinates
# ---------------------------------------------------------------------------

def trace_gram(rows, p):
    """p times the trace form on rows of power-basis coordinates (n blocks
    of p-1), as an integer Gram matrix: per block p dot(x, y) - sum(x)
    sum(y)."""
    d = p - 1
    sums = [[sum(r[i:i + d]) for i in range(0, len(r), d)] for r in rows]
    return [[p * sum(x * y for x, y in zip(u, v))
             - sum(x * y for x, y in zip(su, sv))
             for v, sv in zip(rows, sums)]
            for u, su in zip(rows, sums)]


def ramified_block_rows(p):
    """Integer coordinates of the per-coordinate basis (1-zeta)zeta^j."""
    d = p - 1
    rows = []
    for j in range(d):
        v = [0] * d
        if j < d - 1:
            v[j] = 1
            v[j + 1] = -1
        else:
            v = [1] * d
            v[d - 1] = 2
        rows.append(v)
    return rows


def lift_word(word, p, n):
    """Digitwise lift d -> d * zeta^0, as ambient integer coordinates."""
    d = p - 1
    out = [0] * (n * d)
    for i, digit in enumerate(word):
        out[i * d] = int(digit) % p
    return out


# ---------------------------------------------------------------------------
# CodeLattice
# ---------------------------------------------------------------------------

class CodeLattice:
    """Z-basis and Gram matrix for the preimage lattice of a linear code."""

    def __init__(self, code, basis, gram):
        self.code = code
        self.p = code.p
        self.n = code.n
        self.rank = len(basis)
        self.basis = tuple(tuple(r) for r in basis)
        self.gram = tuple(tuple(r) for r in gram)
        self._basis_inv = None

    def basis_inverse(self):
        if self._basis_inv is None:
            self._basis_inv = fraction_inverse(
                [list(r) for r in self.basis])
        return self._basis_inv

    def shift_in_basis(self, word):
        """Rational basis coordinates of the digitwise lift of a word."""
        if len(word) != self.n:
            raise ValueError("word length does not match the code")
        target = lift_word(word, self.p, self.n)
        binv = self.basis_inverse()
        # the lift is nonzero only at the first coordinate of each block
        lifted = [(target[j], binv[j])
                  for j in range(0, self.rank, self.p - 1) if target[j]]
        return [sum((t * row[i] for t, row in lifted), Fraction(0))
                for i in range(self.rank)]

    def __repr__(self):
        return "CodeLattice(p=%d, n=%d, rank=%d)" % (self.p, self.n,
                                                     self.rank)


def lattice_of_code(code):
    """Build the even lattice of a self-orthogonal linear code, p odd."""
    if code.p == 2:
        raise ValueError("binary codes have no cyclotomic lattice here")
    if not code.is_linear:
        raise ValueError("code must be linear")
    preds = code_predicates(code)
    if not preds["self_orthogonal"]:
        raise ValueError("code is not self-orthogonal; "
                         "its lattice would not be even")
    p, n = code.p, code.n
    d = p - 1
    rows = []
    block = ramified_block_rows(p)
    for i in range(n):
        for r in block:
            row = [0] * (n * d)
            row[i * d:(i + 1) * d] = r
            rows.append(row)
    if code.dimension == 0:
        basis = rows                  # block basis is already reduced
    else:
        for g in code.basis:
            rows.append(lift_word(g, p, n))
        basis = integer_row_basis(rows)
        assert len(basis) == n * d, "lattice rank mismatch"
        basis = lll_reduce(basis, trace_gram(basis, p))
    gram = trace_gram(basis, p)
    if any(x % p for row in gram for x in row):
        raise ValueError("non-integral Gram entry: code is not "
                         "self-orthogonal")
    gram = [[x // p for x in row] for row in gram]
    for i in range(len(gram)):
        if gram[i][i] % 2:
            raise ValueError("odd diagonal Gram entry: lattice is not even")
    return CodeLattice(code, basis, gram)


def discriminant(lattice):
    return integral_gso(lattice.gram)[0][-1]


def is_even(lattice):
    g = lattice.gram
    return (all(g[i][i] % 2 == 0 for i in range(lattice.rank))
            and all(isinstance(x, int) for row in g for x in row))


# ---------------------------------------------------------------------------
# Exact shifted enumeration (Fincke-Pohst with scaled integer arithmetic)
# ---------------------------------------------------------------------------

CHUNK = 1 << 12


def _isqrt(cap):
    """Exact floor square roots of a nonnegative array."""
    import numpy as np
    if cap.dtype == object:
        return np.array([isqrt(c) for c in cap], dtype=object)
    r = np.sqrt(cap.astype(np.float64)).astype(np.int64)
    r -= r * r > cap
    r += (r + 1) * (r + 1) <= cap
    return r


def _dtypes(norm_top, reach):
    """The dtypes (dt, ct) of _fincke_pohst's arrays, from the largest
    scaled norm, unit * max(room, 1), and the coordinate bound reach.

    Every array is int64 when norm_top < 2^62 and reach * (CHUNK + 1) <
    2^61, and holds Python ints otherwise.  The coordinate-side arrays
    (the partial sums acc, the rows of C, lo, ends and a block's x column)
    hold values of size at most reach, except ends, which counts the
    children of at most CHUNK nodes, at most 2 reach - 1 each.  So they
    take ct, which is int32 when dt is int64 and reach * (CHUNK + 1) <
    2^30 (golay's is about 5.5 * 10^8), and dt otherwise.  Whatever mixes
    them with x, n_i, w or rem is computed in dt.
    """
    import numpy as np
    if norm_top >= 1 << 62 or reach * (CHUNK + 1) >= 1 << 61:
        return object, object
    return np.int64, (np.int32 if reach * (CHUNK + 1) < 1 << 30
                      else np.int64)


def enumerate_coset(gram, shift, bound, emit):
    """Hand every integer x with (x + shift) G (x + shift)^T <= bound to
    emit(X, scaled, scale), a block of leaves per call.

    Each call hands over one chunk of at most CHUNK leaves: X is an
    (m, rank) matrix whose rows are the leaves x, scaled the (m,) array of
    their scaled norms, and scale a Python int, the same positive integer
    for the whole run, with norm = scaled / scale.  Rows come in
    lexicographic order of (x_{rank-1}, ..., x_0), the order of a
    depth-first Fincke-Pohst (Fincke-Pohst 1985), one emit call per chunk;
    an empty coset makes no call.  The values are exact; no float is
    involved.  Every vector of the coset is one leaf, at any shift; the
    histograms of zero-shift cosets walk half the tree instead (see
    _fincke_pohst).
    """
    _fincke_pohst(gram, shift, bound, emit, False)


def _fincke_pohst(gram, shift, bound, emit, half, coords=True):
    """enumerate_coset's tree; with half, the half-tree of a zero shift.

    With half true the shift must be zero, so the coset is closed under
    x -> -x and -x has the norm of x.  The tree then visits the zero vector
    and each x whose first nonzero coordinate in tree order (x_{rank-1},
    ..., x_0) is positive, one of each +-x pair (Schnorr-Euchner 1994), in
    the same order as the full tree; the caller counts each nonzero leaf
    for itself and for its negative.  A node whose coordinates so far are
    all zero takes children x >= 0 only.  There is at most one such node
    per level, and it is node 0 of its block: the root, and then the first
    child, x = 0, of the one before it, which is node 0 of the block made
    from the first chunk.  So each block carries one boolean, lead, for
    its node 0.

    The tree is expanded a level at a time in numpy: a block holds the
    nodes of one level, and its children are made at most CHUNK at a time
    (np.repeat of each parent by its child count).  Blocks are taken
    depth-first, which keeps the leaf order and leaves at most rank blocks
    of at most CHUNK nodes alive, each node with O(rank) entries: memory is
    O(rank^2 CHUNK) array entries, about 16 MB at rank 24 when every array
    is int64 and about 8 MB with the int32 ones of _dtypes.  The leaf
    matrix is stacked from the level columns already held, so a chunk adds
    O(rank CHUNK) entries, and the caller decides what to keep.  With
    coords false, emit gets None for X: no leaf matrix is stacked, and the
    blocks keep no x or parent columns, only what their children need.

    Everything comes from the integers (d, lam) of linalg.integral_gso,
    with mu_ji = lam_ji / d_(i+1) and |b_i*|^2 = d_(i+1) / d_i.  With Lam_i
    the least common denominator of column i of mu and q that of the shift,
    C_ji = Lam_i mu_ji is the one integer coefficient table.  Fixing x_j
    adds n_j = q (x_j + shift_j) times row j of C to the partial sums of the
    deeper levels; the row runs from its first nonzero entry to j - 1,
    zeros included, so each node step is one slice update.  The same table
    bounds every coordinate value by reach, fixed at set-up.  The remaining
    norm budget is counted in units of the gcd of the scaled diagonal g_i,
    and room is the whole budget in those units.  A norm is unit times the
    room used over gden, a common multiple of the d_i (Lam_i q)^2; unit and
    gden are divided by their gcd, so scale is gden reduced (about
    4.5 * 10^15 for golay).

    _dtypes picks the dtypes, so that no array wraps around; the leaf
    matrix and the scaled norms are int64 or Python ints, and the
    coordinate-side arrays may be int32.  A block's parent column is int32,
    its entries below CHUNK.  A node's first child is the previous node's
    end, so it is not stored.  Square roots are exact: float sqrt corrected
    by one step on int64, math.isqrt on Python ints.
    """
    import numpy as np
    rank = len(gram)
    d, lam = integral_gso(gram)
    shift = [Fraction(s) for s in shift]
    bound = Fraction(bound)
    q = lcm(*(s.denominator for s in shift))
    sv = [s.numerator * (q // s.denominator) for s in shift]
    Lam = [lcm(*(d[i + 1] // gcd(lam[j][i], d[i + 1])
                 for j in range(i + 1, rank))) for i in range(rank)]
    C = [[lam[j][i] * Lam[i] // d[i + 1] for i in range(j)]
         for j in range(rank)]
    gden = lcm(*(d[i] * (Lam[i] * q) ** 2 for i in range(rank)))
    gi = [gden * d[i + 1] // (d[i] * (Lam[i] * q) ** 2) for i in range(rank)]
    budget = (bound.numerator * gden) // bound.denominator
    if not rank or budget < 0:
        return

    # Every g_i w^2 is a multiple of unit, so the tree counts the budget in
    # units: rem // g_i == (rem // unit) // (g_i // unit).  A g_i above the
    # budget admits only w = 0; clamping it keeps it within int64.
    unit = gcd(*gi)
    room = budget // unit
    g = [min(x // unit, room + 1) for x in gi]
    # |n_i| < N_i, with a_i = sum_{j>i} C_ji n_j and w_i = Lam_i n_i + a_i,
    # |w_i| <= isqrt(room // g_i); reach bounds every coordinate value
    N = [0] * rank
    reach = 0
    for i in reversed(range(rank)):
        a = sum(abs(C[j][i]) * N[j] for j in range(i + 1, rank))
        w = isqrt(room // g[i])
        N[i] = (w + a) // Lam[i] + 1
        reach = max(reach, w + a + Lam[i] * (abs(sv[i]) + q))
    # a scaled norm is unit * (room used) / gden: reduce the fraction
    h = gcd(unit, gden)
    unit, gden = unit // h, gden // h
    dt, ct = _dtypes(unit * max(room, 1), reach)
    updates = [None] * rank
    for j, row in enumerate(C):
        j0 = next((i for i, c in enumerate(row) if c), j)
        if j0 < j:
            updates[j] = (j0, np.array(row[j0:], dtype=ct))

    def block(x, par, lead, i, rem, acc):
        """Nodes at level i (their x_{i+1} and parent index one level up,
        both None without coords, and whether node 0 is all zero) and their
        children's x ranges, as a stack entry whose last slot is the index
        of the next child to expand."""
        base = Lam[i] * sv[i] + acc[:, i]
        wmax = _isqrt(rem // g[i])
        step = Lam[i] * q
        lo = -((wmax + base) // step)
        if lead:
            lo[0] = 0   # node 0 has base 0, so lo <= 0 there
        ends = np.cumsum(np.maximum((wmax - base) // step - lo + 1, 0),
                         dtype=np.int64 if ct is object else ct)
        if not coords:
            x = par = None
        return [x, par, lead, i, rem, acc, lo.astype(ct, copy=False), ends, 0]

    stack = [block(None, None, half, rank - 1,
                   np.array([room], dtype=dt), np.zeros((1, rank), dtype=ct))]
    while stack:
        entry = stack[-1]
        _, _, lead, i, rem, acc, lo, ends, start = entry
        total = int(ends[-1])
        if start >= total:
            stack.pop()
            continue
        stop = min(start + CHUNK, total)
        entry[-1] = stop
        # children start .. stop-1 belong to nodes first .. last-1, and
        # each node's children start where the previous node's end
        first = np.searchsorted(ends, start, side="right")
        last = np.searchsorted(ends, stop - 1, side="right") + 1
        starts = np.concatenate((ends[first - 1:first] if first else [0],
                                 ends[first:last - 1]))
        rel = np.repeat(np.arange(last - first), np.minimum(
            ends[first:last], stop) - np.maximum(starts, start))
        par = rel + first
        x = lo[par] + (np.arange(start, stop) - starts[rel])
        n_i = q * x + sv[i]
        w = Lam[i] * n_i + acc[par, i]
        rem_c = rem[par] - g[i] * w * w
        if i == 0:
            X = None
            if coords:
                columns = [x]
                for up_x, up_par, *_ in reversed(stack[1:]):
                    columns.append(up_x[par])
                    par = up_par[par]
                X = np.stack(columns, axis=1)
            emit(X, unit * (room - rem_c), gden)
            continue
        acc_c = acc[par, :i]
        if updates[i] is not None:
            j0, row = updates[i]
            acc_c[:, j0:] += n_i.astype(ct)[:, None] * row
        if coords:  # kept for the leaf matrix; a parent index is < CHUNK
            x, par = x.astype(ct), par.astype(np.int32)
        stack.append(block(x, par, lead and start == 0, i - 1, rem_c, acc_c))


def count_by_norm(lattice, bound, shift_word=None):
    """Exact norm histogram of a lattice coset up to a bound (Fincke-Pohst).

    Each block of leaves is counted with np.unique on its scaled norms (int64
    or Python ints, never floats), so only the distinct norms of a block
    reach Python.  A zero shift walks the half-tree of _fincke_pohst, one
    vector of each +-x pair, and each nonzero norm's count is doubled; any
    other shift walks the full tree of enumerate_coset."""
    import numpy as np
    _check_cap(bound)
    shift = ([Fraction(0)] * lattice.rank if shift_word is None
             else lattice.shift_in_basis(shift_word))
    half = not any(shift)
    counts = Counter()
    scale = 1

    def emit(X, scaled, run_scale):
        nonlocal scale
        vals, cnts = np.unique(scaled, return_counts=True)
        counts.update(dict(zip(vals.tolist(), cnts.tolist())))
        scale = run_scale

    gram = [list(r) for r in lattice.gram]
    if half:    # only the norms are read, so no leaf matrix is stacked
        _fincke_pohst(gram, shift, bound, emit, True, coords=False)
    else:   # the public entry point, which perfbench/traced.py spans
        enumerate_coset(gram, shift, bound, emit)
    return {Fraction(k, scale): c * 2 if half and k else c
            for k, c in counts.items()}


# ---------------------------------------------------------------------------
# Pruned ambient oracle (independent of the basis and of Fincke-Pohst)
# ---------------------------------------------------------------------------

def _block_table(p, limit):
    """Scaled norms and digits of every x in Z^(p-1) with
    p x.x - (sum x)^2 <= limit, sorted by norm, one entry per x: the
    pruned oracle's block, which needs one leaf per vector.

    Coordinates are fixed one at a time.  With k of them fixed (sum s, sum
    of squares t), the least scaled norm over real values of the other
    p-1-k is p (t - s^2 / (k+1)), so a prefix is kept while
    p ((k+1) t - s^2) <= (k+1) limit.  At k = 1 this is p x^2 <= 2 limit,
    the box every coordinate is taken from; at k = p-1 it is the exact
    norm test.
    """
    import numpy as np
    w = isqrt(2 * limit // p)
    vals = np.arange(-w, w + 1, dtype=np.int64)
    s = t = np.zeros(1, dtype=np.int64)
    for k in range(1, p):
        s = (s[:, None] + vals).ravel()
        t = (t[:, None] + vals * vals).ravel()
        keep = p * ((k + 1) * t - s * s) <= (k + 1) * limit
        s, t = s[keep], t[keep]
    norms = p * t - s * s
    order = np.argsort(norms, kind="stable")
    return norms[order], s[order] % p


@lru_cache(maxsize=16)
def _digit_counts(p, limit):
    """counts[a, k]: how many x in Z^(p-1) have digit a (sum x mod p) and
    scaled norm k = p x.x - (sum x)^2 <= limit, with no vector listed.

    The histogram of (x.x, sum x) is built one coordinate at a time, then
    binned by (sum x mod p, p x.x - (sum x)^2).  Since (sum x)^2 <= (p-1)
    x.x, the norm is at least x.x, so every prefix of a counted x has
    x.x <= limit and |sum x| <= isqrt((p-1) limit), the histogram's
    window.  Entries are int64 when the box (2 isqrt(limit) + 1)^(p-1)
    bounding every count is below 2^63, Python ints otherwise.  The array
    is read-only, since the cache hands it to every caller."""
    import numpy as np
    w, S = isqrt(limit), isqrt((p - 1) * limit)
    dt = np.int64 if (2 * w + 1) ** (p - 1) < 1 << 63 else object
    hist = np.zeros((limit + 1, 2 * S + 1), dtype=dt)   # [x.x, sum x + S]
    hist[0, S] = 1
    for _ in range(p - 1):
        step = np.zeros_like(hist)
        for x in range(-w, w + 1):
            t, lo, hi = x * x, max(x, 0), 2 * S + 1 + min(x, 0)
            step[t:, lo:hi] += hist[:limit + 1 - t, lo - x:hi - x]
        hist = step
    s = np.arange(-S, S + 1)
    norms = p * np.arange(limit + 1)[:, None] - s * s
    keep = (norms >= 0) & (norms <= limit)
    digits = np.broadcast_to(s % p, norms.shape)
    counts = np.zeros((p, limit + 1), dtype=dt)
    np.add.at(counts, (digits[keep], norms[keep]), hist[keep])
    counts.flags.writeable = False
    return counts


def coset_shell_counts(p, n, word, bound):
    """Exact shell sizes of the coset word of standard_lattice(p, n) up to
    a norm bound: an integer array whose entry k counts the vectors of norm
    k / p, for k = 0 .. floor(p * bound).

    A vector of the coset is n elements of O, element i of digit word[i],
    and its scaled norm p * norm is the sum of theirs, so the counts are
    the one-element counts of each digit (_digit_counts) convolved over the
    word: in int64 when the product of their totals fits, else in Python
    ints.  No basis and no Fincke-Pohst run is involved."""
    import numpy as np
    bound = Fraction(bound)
    limit = (bound.numerator * p) // bound.denominator
    table = _digit_counts(p, limit)
    rows = [table[int(a) % p] for a in word]
    dt = np.int64 if prod(int(row.sum()) for row in rows) < 1 << 63 else object
    counts = np.zeros(limit + 1, dtype=dt)
    counts[0] = 1
    for row in rows:
        counts = np.convolve(counts, row.astype(dt))[:limit + 1]
    return counts


def box_count_by_norm(lattice, bound, shift_word=None):
    """Norm histogram of a code lattice coset by pruned ambient enumeration.

    Works directly on ambient power-basis integer vectors, one cyclotomic
    block at a time (Conway-Sloane, SPLAG ch. 7, Construction A): a vector
    lies in the coset exactly when its block digits (sum of the block's
    coordinates mod p) form a word of code + shift.  A partial vector is
    kept while its scaled norm p * norm is within p * bound and its digit
    prefix is a prefix of such a word.  The tree is expanded depth-first,
    at most CHUNK children per step, so memory stays bounded at any rank;
    every vector is one leaf.  Reads only the prime, the length and the
    code words, so it shares nothing with the basis, its reduction or the
    Fincke-Pohst enumerator, and the two serve as independent cross-checks.
    """
    import numpy as np
    _check_cap(bound)
    p, n = lattice.p, lattice.n
    bound = Fraction(bound)
    shift = ((0,) * n if shift_word is None
             else tuple(int(x) % p for x in shift_word))
    if len(shift) != n:
        raise ValueError("shift word length does not match the code")
    if p ** n >= 1 << 63:
        raise ValueError("digit words of length %d over F_%d do not fit in "
                         "int64" % (n, p))
    if bound < 0:
        return {}
    # p * norm is an integer for every element of O^n
    limit = (bound.numerator * p) // bound.denominator
    tnorm, tdigit = _block_table(p, limit)

    # prefixes[j]: sorted digit prefixes of length j of code + shift
    words = np.array([[(a + b) % p for a, b in zip(word, shift)]
                      for word in lattice.code.words],
                     dtype=np.int64).reshape(-1, n)
    full = words @ (p ** np.arange(n - 1, -1, -1, dtype=np.int64))
    # the return_counts form, because a plain np.unique imports numpy.ma
    prefixes = [np.unique(full // p ** (n - j), return_counts=True)[0]
                for j in range(n + 1)]

    def frame(norm, digits, j):
        """Nodes with j blocks fixed, their children's table ranges and
        the index of the next child to make."""
        cnt = np.searchsorted(tnorm, limit - norm, side="right")
        ends = np.cumsum(cnt)
        return [norm, digits, j, ends, ends - cnt, 0]

    counts = Counter()
    zero = np.zeros(1, dtype=np.int64)
    stack = [frame(zero, zero, 0)]
    while stack:
        entry = stack[-1]
        norm, digits, j, ends, starts, start = entry
        total = int(ends[-1]) if len(ends) else 0
        if start >= total:
            stack.pop()
            continue
        stop = min(start + CHUNK, total)
        entry[-1] = stop
        child = np.arange(start, stop)
        par = np.searchsorted(ends, child, side="right")
        row = child - starts[par]
        norm_c = norm[par] + tnorm[row]
        digits_c = digits[par] * p + tdigit[row]
        allowed = prefixes[j + 1]
        at = np.minimum(np.searchsorted(allowed, digits_c), len(allowed) - 1)
        keep = allowed[at] == digits_c
        if j + 1 == n:
            vals, cnts = np.unique(norm_c[keep], return_counts=True)
            for v, c in zip(vals.tolist(), cnts.tolist()):
                counts[v] += c
        else:
            stack.append(frame(norm_c[keep], digits_c[keep], j + 1))
    return {Fraction(v, p): counts[v] for v in sorted(counts)}


# ---------------------------------------------------------------------------
# Theta series and summaries
# ---------------------------------------------------------------------------

def theta_series(lattice, order, shift_word=None):
    """Exact theta expansion: coefficient at q^e counts vectors of norm 2e."""
    order = Fraction(order)
    counts = count_by_norm(lattice, 2 * order, shift_word=shift_word)
    p = lattice.p
    terms = {}
    for norm, cnt in counts.items():
        k = norm * p / 2
        if k.denominator != 1:
            raise ValueError("norm %s outside the expected (2/%d)Z grid"
                             % (norm, p))
        terms[int(k)] = cnt
    return QSeries(p, p, terms, order)


def theta_series_by_word(p, n, order):
    """Exact theta expansion of every coset of standard_lattice(p, n), all
    p^n of them from one Fincke-Pohst run, as {word: QSeries}.

    The cosets are the classes of O^n modulo (1 - zeta) O^n, and the class
    of a vector is its digit word: the coordinate sums of its blocks mod p
    (zeta = 1 modulo 1 - zeta).  So one enumeration of O^n itself, on
    power-basis coordinates with the integer Gram trace_gram of the
    identity rows (p I - J per block) and bound p * 2 * order, meets each
    coset vector of norm at most 2 * order.  O^n has zero shift, so the run
    walks the half-tree of _fincke_pohst: each leaf x is binned by its
    digit word w and exact norm, one integer key per leaf (int64, or Python
    ints when width * p^n reaches 2^62) counted with np.unique, and each
    count at a nonzero exponent is then added to the word -w mod p as
    well, for -x.  Each value equals
    theta_series(standard_lattice(p, n), order, word).
    """
    import numpy as np
    order = Fraction(order)
    _check_cap(2 * order)
    d = p - 1
    rank = n * d
    gram = trace_gram([[int(i == j) for j in range(rank)]
                       for i in range(rank)], p)
    width = max(int(p * order), 0) + 1   # k = p * exponent lies in [0, width)
    kd = np.int64 if width * p ** n < 1 << 62 else object
    place = np.array([p ** (n - 1 - b) for b in range(n)], dtype=kd)
    counts = Counter()

    def emit(X, scaled, scale):
        # p * norm = scaled / scale is an even integer on O^n
        digits = sum(X[:, j::d] for j in range(d)) % p
        keys = (digits.astype(kd) @ place) * width + (
            scaled // (2 * scale)).astype(kd)
        vals, cnts = np.unique(keys, return_counts=True)
        counts.update(dict(zip(vals.tolist(), cnts.tolist())))

    _fincke_pohst(gram, [0] * rank, 2 * p * order, emit, True)
    words = list(product(range(p), repeat=n))
    terms = [{} for _ in words]
    for key, c in counts.items():
        w, k = divmod(key, width)
        terms[w][k] = c
    terms = _fold_negatives(terms, words, p)
    return {word: QSeries(p, p, t, order) for word, t in zip(words, terms)}


def _fold_negatives(terms, words, p):
    """Full counts {k: count}, one dict per word, from the half-tree's: each
    count of word w at a nonzero k is added to the word -w mod p as well,
    for the vectors -x that the half-tree skips."""
    index = {word: i for i, word in enumerate(words)}
    full = [dict(t) for t in terms]
    for word, t in zip(words, terms):
        neg = full[index[tuple(-a % p for a in word)]]
        for k, c in t.items():
            if k:
                neg[k] = neg.get(k, 0) + c
    return full


def minimal_norm(lattice):
    """Smallest nonzero vector norm."""
    bound = min(lattice.gram[i][i] for i in range(lattice.rank))
    counts = count_by_norm(lattice, bound)
    nonzero = [nv for nv in counts if nv > 0]
    return min(nonzero)


def lattice_info(lattice):
    mn = minimal_norm(lattice)
    return {
        "rank": lattice.rank,
        "discriminant": discriminant(lattice),
        "even": is_even(lattice),
        "minimal_norm": int(mn) if mn.denominator == 1 else str(mn),
    }


@lru_cache(maxsize=64)
def standard_lattice(p, n):
    """The lattice of the zero code: n copies of the ramified-prime block."""
    return lattice_of_code(zero_code(p, n))
