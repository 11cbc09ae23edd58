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
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import floor, gcd, isqrt, lcm, prod

from .fpcode import code_predicates, zero_code
from .linalg import fraction_inverse, integer_row_basis, integral_gso
from .qexp import QSeries

DEFAULT_MAX_NORM = 40

# The largest lattice rank n (p - 1) accepted.  A basis and its Gram hold
# rank^2 Python ints, 2^20 each at the bound; `theta --prime 211` (rank
# 210) takes about 25 s on a 2-core x86-64 machine.  The rank is tested
# before any basis row or shell-count table is built.
MAX_LATTICE_RANK = 1 << 10


def _check_rank(p, n):
    rank = n * (p - 1)
    if rank > MAX_LATTICE_RANK:
        raise ValueError("p = %d, n = %d: the lattice rank n(p-1) = %d is "
                         "above MAX_LATTICE_RANK = %d"
                         % (p, n, rank, MAX_LATTICE_RANK))


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
    _check_rank(code.p, code.n)
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

# A histogram forks one child at the first block whose children, times the
# levels left below them, reach SPLIT_WORK: golay to norm 4 at 31,158 (1,731
# children at level 18) and theta_series_by_word(5, 3, 3) at 33,220.  The
# next half-tree walk of verify all, golay's minimal norm, peaks at 12,694
# and takes about 3 ms, which a fork would not repay; its shifted walks (the
# exact alpbach stages' cosets) peak at 702, so none of them forks.  The
# block's children are cut into SPLIT_PARTS segments, which the two
# processes claim one at a time (see _tree_counts); 8 to 32 segments
# measured alike.
SPLIT_WORK = 1 << 14
SPLIT_PARTS = 16


def _isqrt(cap, top):
    """Exact floor square roots of a nonnegative array whose entries are at
    most top.  Below 2^52 the float square root is exact: float(c) is, and
    sqrt(k^2 - 1) lies 1/(2k) below k, more than half a float step at
    k <= 2^26, so the correction steps run only above it."""
    import numpy as np
    if cap.dtype == object:
        return np.array([isqrt(c) for c in cap], dtype=object)
    r = np.sqrt(cap).astype(np.int64)
    if top >= 1 << 52:
        r -= r * r > cap
        r += (r + 1) * (r + 1) <= cap
    return r


def _dtypes(norm_top, reach):
    """The dtypes (dt, ct) of _fincke_pohst's arrays, from norm_top, the
    larger of the scale and the largest scaled norm, unit * max(room, 1),
    and the coordinate bound reach.  (With the scale in norm_top, a
    histogram's key, an int64 scaled norm over a divisor of the scale,
    never leaves int64.)

    Every array is int64 when norm_top < 2^62 and reach * (CHUNK + 1) <
    2^61, and holds Python ints otherwise.  The coordinate-side arrays
    (the partial sums acc, the rows of C, and a block's child counts cnt,
    child offsets off and x column) hold values below 2 reach in size,
    except off, a node's first child index among the children of at most
    CHUNK nodes, at most 2 reach - 1 each, less its least x: below
    2 reach (CHUNK + 1).  So they
    take ct, which is int32 when dt is int64 and reach * (CHUNK + 1) <
    2^30 (golay's is about 5.5 * 10^8), and dt otherwise.  Whatever mixes
    them with x, n_i, w or rem is computed in dt.
    """
    import numpy as np
    if norm_top >= 1 << 62 or reach * (CHUNK + 1) >= 1 << 61:
        return object, object
    return np.int64, (np.int32 if reach * (CHUNK + 1) < 1 << 30
                      else np.int64)


def _chunks(start, stop):
    """(start, stop) ranges of at most CHUNK children covering start ..
    stop - 1, in order."""
    return ((s, min(s + CHUNK, stop)) for s in range(start, stop, CHUNK))


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
    involved.  Every vector of the coset is one leaf, at any shift.  The
    histograms (_tree_counts) walk the same tree, half of it at a zero
    shift (see _fincke_pohst), and may split it; this run is never split,
    so emit is called in this process for every block, in the order above.
    """
    _fincke_pohst(gram, shift, bound, emit, False)


def _fincke_pohst(gram, shift, bound, emit, half, coords=True, split=None):
    """enumerate_coset's tree; with half, the half-tree of a zero shift;
    with split, one of two processes' share of it.

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
    (np.repeat of each parent by its number of children in the chunk).
    Blocks are taken depth-first, which keeps the leaf order and leaves at
    most rank blocks of at most CHUNK nodes alive, each node with O(rank)
    entries: memory is O(rank^2 CHUNK) array entries, about 16 MB at rank
    24 when every array is int64 and about 8 MB with the int32 ones of
    _dtypes.  The leaf matrix is stacked from the level columns already
    held, so a chunk adds O(rank CHUNK) entries, and the caller decides
    what to keep.  With coords false, emit gets None for X: no leaf matrix
    is stacked, and the blocks keep no x or parent columns, only what their
    children need (count_by_norm reads only the norms).  With coords a
    tuple of group numbers 0 .. k - 1, one per coordinate, emit gets for X
    the (m, k) matrix of each leaf's sums of x_j over the coordinates j of
    each group (in dt): each block keeps its nodes' sums instead of its x
    and parent columns, and a child adds its x_i to its parent's, so no
    leaf matrix is stacked either (theta_series_by_word reads only the
    digit sums of the cyclotomic blocks).

    split, when given, is called once, at the first block whose children
    times its level i (the levels left below them) reach SPLIT_WORK, as
    split(SPLIT_PARTS); it returns None, and the walk goes on whole, or
    this process's side, 0 or 1, and an iterator of the segment numbers
    0 .. SPLIT_PARTS - 1 it walks.  The block's children are cut into
    SPLIT_PARTS segments of nearly equal size, and the walk expands only
    the claimed ones, in the order they come.  Side 0 then walks on to the
    end, the chunks of the blocks above still to expand included; side 1
    drops those, so it walks its claimed segments and stops.  Two sides
    whose claims partition the segments visit every leaf once.  Only the
    histograms split (_tree_counts), at any shift, since they add exact
    integer counts whatever the order; enumerate_coset, whose emit runs in
    this process on every block, never passes split.

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
    its entries below CHUNK.  A child's x is its index among the block's
    children less its parent's off, the parent's first child index less its
    least x.  Square roots are exact: float sqrt, corrected by one step on
    int64 where the square may pass 2^52, math.isqrt on Python ints.
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
    dt, ct = _dtypes(max(unit * max(room, 1), gden), reach)
    count_dt = np.int64 if ct is object else ct     # child counts and indices
    updates = [None] * rank
    for j, row in enumerate(C):
        j0 = next((i for i, c in enumerate(row) if c), j)
        if j0 < j:
            updates[j] = (j0, np.array(row[j0:], dtype=ct))

    def block(x, par, lead, i, rem, acc):
        """Nodes at level i (their x_{i+1} and parent index one level up,
        both None without coords, or their group sums and None, and
        whether node 0 is all zero) and their children's x ranges, as a
        stack entry whose last slot iterates over the chunks of children
        still to expand."""
        nonlocal split
        base = acc[:, i] + Lam[i] * sv[i] if sv[i] else acc[:, i]
        wmax = _isqrt(rem // g[i], room // g[i])
        step = Lam[i] * q
        lo = -((wmax + base) // step)
        if lead:
            lo[0] = 0   # node 0 has base 0, so lo <= 0 there
        cnt = np.maximum((wmax - base) // step - lo + 1, 0).astype(
            count_dt, copy=False)
        ends = np.cumsum(cnt, dtype=count_dt)
        total = int(ends[-1])
        chunks = _chunks(0, total)
        if split is not None and total * i >= SPLIT_WORK:
            claimed, split = split(SPLIT_PARTS), None
            if claimed is not None:
                side, claims = claimed
                cuts = [k * total // SPLIT_PARTS
                        for k in range(SPLIT_PARTS + 1)]
                chunks = chain.from_iterable(_chunks(cuts[k], cuts[k + 1])
                                             for k in claims)
                if side:    # the blocks above are side 0's to finish
                    for up in stack:
                        up[-1] = iter(())
        if not coords:
            x = par = None
        off = ends - cnt - lo.astype(ct, copy=False)
        return [x, par, lead, i, rem, acc, cnt, total, off, chunks]

    grouped = not isinstance(coords, bool)
    sums = np.zeros((1, max(coords) + 1), dtype=dt) if grouped else None
    stack = []      # bound first: a split at the root block reads it
    stack.append(block(sums, None, half, rank - 1, np.array([room], dtype=dt),
                       np.zeros((1, rank), dtype=ct)))
    while stack:
        entry = stack[-1]
        _, _, lead, i, rem, acc, cnt, total, off, chunks = entry
        span = next(chunks, None)
        if span is None:
            stack.pop()
            continue
        start, stop = span
        if stop - start < total:    # each node's children within the chunk
            ends = np.cumsum(cnt)
            cnt = np.maximum(np.minimum(ends, stop)
                             - np.maximum(ends - cnt, start), 0)
        par = np.repeat(np.arange(len(cnt)), cnt)
        x = np.arange(start, stop) - off[par]
        n_i = q * x + sv[i] if q > 1 or sv[i] else x
        w = Lam[i] * n_i + acc[par, i]
        rem_c = rem[par] - g[i] * w * w
        if grouped:     # each child's sums of x over the groups
            sums = entry[0][par]
            sums[:, coords[i]] += x
        if i == 0:
            X = sums if grouped else None
            if coords is True:
                columns = [x]
                for up_x, up_par, *_ in reversed(stack[1:]):
                    columns.append(up_x[par])
                    par = up_par[par]
                X = np.stack(columns, axis=1)
            emit(X, unit * (room - rem_c), gden)
            continue
        acc_c = np.take(acc[:, :i], par, axis=0)
        if updates[i] is not None:
            j0, row = updates[i]
            acc_c[:, j0:] += n_i.astype(ct)[:, None] * row
        if grouped:
            x, par = sums, None
        elif coords:  # kept for the leaf matrix; a parent index is < CHUNK
            x, par = x.astype(ct), par.astype(np.int32)
        stack.append(block(x, par, lead and start == 0, i - 1, rem_c, acc_c))


def _tree_counts(gram, shift, bound, size, keys, coords):
    """Histogram of the integer keys(X, scaled, scale), each below size,
    over the leaves of a coset's tree (_fincke_pohst): an int64 array of
    size entries, filled one block at a time with np.bincount.  A zero
    shift walks the half-tree, one leaf of each +-x pair, and the caller
    counts each nonzero leaf for its negative too; any other shift walks
    the full tree.

    A wide walk is split between this process and one forked child, where
    os.fork exists and the process may run on more than one CPU: at the
    first wide block (see _fincke_pohst) the parent takes segment 0, the
    child segment 1, and each then claims the next unclaimed segment from
    a pipe of one-byte tokens when it has finished its last, so neither
    waits on the other's share (a fixed interleave, the even segments to
    one side and the odd to the other, left golay's parent with 59 % of
    the leaves and measured slower).  The parent is side 0 and also walks
    what is left of the blocks above the split; the child is side 1 and
    walks only its segments.  The child clears the counts it inherited,
    counts its own leaves, pickles them through a second pipe and exits;
    the parent adds them (_join).  An exception in the child is pickled
    instead and raised in the parent; an exception in the parent kills
    the child.  The child is reaped before this returns or raises.  The
    fork copies only the calling thread, so the child must not reach a
    lock another thread may hold: it runs integer numpy code, which never
    calls the BLAS whose worker threads numpy starts, and pickle.
    """
    import numpy as np
    counts = np.zeros(size, dtype=np.int64)
    child = None    # (pid, result pipe) once forked; pid 0 in the child

    def emit(X, scaled, scale):
        k = keys(X, scaled, scale).astype(np.intp, copy=False)
        counts[:] += np.bincount(k, minlength=size)

    def split(parts):
        nonlocal child
        if not _can_split():
            return None
        try:
            claims, child = _fork(parts)
        except OSError:     # no process to spare: walk on alone
            return None
        if child[0]:
            return 0, claims
        counts[:] = 0
        return 1, claims

    try:
        _fincke_pohst(gram, shift, bound, emit, not any(shift), coords,
                      split)
    except BaseException as exc:
        if child is None:
            raise
        if not child[0]:
            _hand_over(child[1], exc)
        _abandon(*child)
        raise
    if child is None:
        return counts
    if not child[0]:
        _hand_over(child[1], counts)
    counts += _join(*child)
    return counts


def _can_split():
    """Whether a second process could take half a walk: os.fork exists and
    this process may run on more than one CPU."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _fork(parts):
    """Fork the child of a split walk: the segments this process walks and
    (pid, its end of the result pipe), pid 0 in the child.  The parent
    walks segment 0 and the child segment 1 first; the token pipe holds one
    byte for each of the segments 2 .. parts - 1 and is closed for writing,
    so a read claims the next unclaimed segment and returns b"" once all
    are claimed."""
    tokens, fill = os.pipe()
    os.write(fill, bytes(range(2, parts)))
    os.close(fill)
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (tokens, read, write):
            os.close(fd)
        raise
    if pid:
        os.close(write)
        return _claims(0, tokens), (pid, read)
    os.close(read)
    return _claims(1, tokens), (0, write)


def _claims(first, tokens):
    try:
        yield first
        while claimed := os.read(tokens, 1):
            yield claimed[0]
    finally:
        os.close(tokens)


def _hand_over(write, payload):
    """The child's end of a split walk: pickle payload into the result pipe
    and exit at once, so nothing after the fork runs twice."""
    try:
        import pickle
        try:
            data = pickle.dumps(payload)
        except Exception:
            data = pickle.dumps(RuntimeError(
                "%s: %s" % (type(payload).__name__, payload)))
        with open(write, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _join(pid, read):
    """The child's counts, read to the end of the result pipe,
    with the child reaped; the exception its walk raised is raised here."""
    import pickle
    try:
        with open(read, "rb") as fh:
            data = fh.read()
    except BaseException:
        _abandon(pid, None)
        raise
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("the second process of a split walk exited "
                           "without a result (wait status %d)" % status)
    payload = pickle.loads(data)
    if isinstance(payload, BaseException):
        raise payload
    return payload


def _abandon(pid, read):
    """Kill and reap the child of a split walk whose parent side failed."""
    import signal
    if read is not None:
        os.close(read)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def count_by_norm(lattice, bound, shift_word=None):
    """Exact norm histogram of a lattice coset up to a bound (Fincke-Pohst),
    in increasing norm.

    The Gram is integral and the shift's basis coordinates have a common
    denominator q (1 at a zero shift, p at a code lattice's other cosets),
    so every norm lies in (1/q^2)Z.  Each leaf is counted at k = q^2 norm,
    an exact integer from its scaled norm (int64 or Python ints, never
    floats), in an array of floor(q^2 bound) + 1 counts (_tree_counts);
    no leaf matrix is stacked.  A zero shift walks the half-tree of
    _fincke_pohst, one vector of each +-x pair, and each nonzero norm's
    count is doubled; any other shift walks the full tree.  Either walk
    is split across two processes when it is wide."""
    _check_cap(bound)
    shift = ([Fraction(0)] * lattice.rank if shift_word is None
             else lattice.shift_in_basis(shift_word))
    den = lcm(*(s.denominator for s in shift)) ** 2
    bound = Fraction(bound)

    def keys(X, scaled, scale):
        g = gcd(scale, den)
        return scaled // (scale // g) * (den // g)

    counts = _tree_counts([list(r) for r in lattice.gram], shift, bound,
                          max(floor(den * bound) + 1, 0), keys, False)
    if not any(shift):
        counts[1:] *= 2
    return {Fraction(k, den): c for k, c in enumerate(counts.tolist()) if c}


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


# the largest limit _digit_slice has asked _digit_counts for, per prime
_digit_limits = {}


def _digit_slice(p, limit):
    """_digit_counts(p, limit), served as the first limit + 1 columns of
    the largest table asked for at p so far: a count at scaled norm k does
    not depend on the limit it was built to, so a smaller limit builds
    nothing.  The slice is a read-only view, as the table is."""
    top = _digit_limits[p] = max(limit, _digit_limits.get(p, limit))
    return _digit_counts(p, top)[:, :limit + 1]


def coset_shell_counts(p, n, word, bound):
    """Exact shell sizes of the coset word of standard_lattice(p, n) up to
    a norm bound: an integer array whose entry k counts the vectors of norm
    k / p, for k = 0 .. floor(p * bound).

    A vector of the coset is n elements of O, element i of digit word[i],
    and its scaled norm p * norm is the sum of theirs, so the counts are
    the one-element counts of each digit (_digit_slice) convolved over the
    word: in int64 when the product of their totals fits, else in Python
    ints.  No basis and no Fincke-Pohst run is involved."""
    _check_rank(p, n)
    import numpy as np
    bound = Fraction(bound)
    limit = (bound.numerator * p) // bound.denominator
    table = _digit_slice(p, limit)
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

    counts = np.zeros(limit + 1, dtype=np.int64)
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
            counts += np.bincount(norm_c[keep], minlength=limit + 1)
        else:
            stack.append(frame(norm_c[keep], digits_c[keep], j + 1))
    return {Fraction(k, p): c for k, c in enumerate(counts.tolist()) if c}


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
    walks the half-tree of _fincke_pohst, split across two processes when
    it is wide (_tree_counts): each leaf x is counted at the key
    w * width + k, for its digit word w (in base p) and k = p * exponent,
    and each count at a nonzero k is then added to the word -w mod p as
    well, for -x (_fold_negatives).
    Each value equals theta_series(standard_lattice(p, n), order, word).
    """
    import numpy as np
    order = Fraction(order)
    _check_cap(2 * order)
    d = p - 1
    rank = n * d
    gram = trace_gram([[int(i == j) for j in range(rank)]
                       for i in range(rank)], p)
    width = max(int(p * order), 0) + 1   # k = p * exponent lies in [0, width)
    place = np.array([p ** (n - 1 - b) * width for b in range(n)])

    def keys(sums, scaled, scale):
        # p * norm = scaled / scale is an even integer on O^n
        return (sums % p) @ place + scaled // (2 * scale)

    counts = _tree_counts(gram, [0] * rank, 2 * p * order, p ** n * width,
                          keys, tuple(j // d for j in range(rank)))
    counts = _fold_negatives(counts.reshape((p,) * n + (width,)), p)
    return {word: QSeries(p, p, {k: c for k, c in enumerate(row) if c},
                          order)
            for word, row in zip(product(range(p), repeat=n),
                                 counts.reshape(-1, width).tolist())}


def _fold_negatives(counts, p):
    """Full counts from the half-tree's, an array indexed by the n digits
    of a word and k: each count of word w at a nonzero k is added to the
    word -w mod p as well, for the vectors -x that the half-tree skips."""
    import numpy as np
    flip = -np.arange(p) % p    # the digits of -w, digit by digit
    negated = counts[np.ix_(*[flip] * (counts.ndim - 1))]   # -w's at w
    full = counts.copy()
    full[..., 1:] += negated[..., 1:]
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
