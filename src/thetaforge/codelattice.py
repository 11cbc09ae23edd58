"""Even lattices built from self-orthogonal codes over odd primes.

The lattice attached to a code C in F_p^n is the preimage of C under the
digitwise reduction of O^n, O the p-th cyclotomic integers, modulo the
ramified prime.  Vectors live in O^n; internally everything is integer
coordinates on the power basis (n blocks of size p-1) with the trace form
scaled by 1/p.  Both enumeration routes (exact Fincke-Pohst and a brute
force coefficient box) work on that data.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import numpy as np

from .cyclotomic import CycInt
from .fpcode import code_predicates, linear_basis, zero_code
from .linalg import bareiss_det, fraction_inverse, integer_row_basis
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
# Gram-Schmidt data and basis reduction
# ---------------------------------------------------------------------------

def _integral_gso(gram):
    """Integral Gram-Schmidt data of a positive definite integer Gram matrix.

    d[i] is the leading principal minor of order i (d[0] = 1, so
    |b_i*|^2 = d[i+1] / d[i]) and lam[k][j] = d[j+1] mu_kj for j < k.
    Every division is exact (Cohen, GTM 138, Alg. 2.6.7).
    """
    n = len(gram)
    d = [1] * (n + 1)
    lam = [[0] * k for k in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = gram[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise ValueError("form is not positive definite")
            else:
                d[k + 1] = u
    return d, lam


def lll_reduce(rows, pairf, delta=Fraction(3, 4)):
    """LLL on integer rows under the rational inner product pairf.

    Integral LLL (Cohen, GTM 138, Alg. 2.6.7): pairf gives the Gram matrix
    once, scaled to integers, and the loop updates only the integers d and
    lam of _integral_gso.  Size reduction of row k rounds every mu_kj,
    j = k-1 .. 0, as it stood before the pass and only then subtracts them
    all, where textbook LLL updates mu after each subtraction.  The rows
    returned meet the Lovasz condition at delta but are not guaranteed to
    be size-reduced (|mu| <= 1/2).
    """
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n <= 1:
        return b
    delta = Fraction(delta)
    num, den = delta.numerator, delta.denominator
    gram = [[pairf(u, v) for v in b] for u in b]
    scale = lcm(*(x.denominator for row in gram for x in row))
    d, lam = _integral_gso([[int(x * scale) for x in row] for row in gram])
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

def make_pair_function(p, n):
    """Inner product of two coordinate vectors (length n*(p-1)).

    Per cyclotomic coordinate the form is dot(x, y) - sum(x) sum(y) / p.
    Accepts ints or Fractions entrywise.
    """
    d = p - 1

    def pairf(u, v):
        total = Fraction(0)
        for i in range(n):
            lo = i * d
            dot = 0
            su = 0
            sv = 0
            for a in range(d):
                x = u[lo + a]
                y = v[lo + a]
                dot += x * y
                su += x
                sv += y
            total += dot - Fraction(su * sv, p)
        return total

    return pairf


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
        return [sum(Fraction(target[j]) * binv[j][i] for j in range(self.rank))
                for i in range(self.rank)]

    def __repr__(self):
        return "CodeLattice(p=%d, n=%d, rank=%d)" % (self.p, self.n,
                                                     self.rank)


def coords_to_elements(coords, p, n):
    d = p - 1
    return tuple(CycInt(p, coords[i * d:(i + 1) * d]) for i in range(n))


class LatticeVector:
    """An element of O^n with its norm; coords are power-basis integers."""

    __slots__ = ("p", "n", "coords", "norm")

    def __init__(self, p, n, coords, norm):
        self.p = p
        self.n = n
        self.coords = tuple(int(c) for c in coords)
        self.norm = norm if isinstance(norm, Fraction) else Fraction(norm)

    def elements(self):
        return coords_to_elements(self.coords, self.p, self.n)

    def __eq__(self, other):
        return (isinstance(other, LatticeVector) and other.p == self.p
                and other.coords == self.coords)

    def __hash__(self):
        return hash((self.p, self.coords))

    def __repr__(self):
        return "LatticeVector(%r, norm=%s)" % (list(self.coords), self.norm)


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
    pairf = make_pair_function(p, n)
    if code.dimension == 0:
        basis = rows                  # block basis is already reduced
    else:
        for g in linear_basis(code):
            rows.append(lift_word(g, p, n))
        basis = integer_row_basis(rows)
        assert len(basis) == n * d, "lattice rank mismatch"
        basis = lll_reduce(basis, pairf)
    gram = []
    for u in basis:
        grow = []
        for v in basis:
            val = pairf(u, v)
            if val.denominator != 1:
                raise ValueError("non-integral Gram entry %s: "
                                 "code is not self-orthogonal" % (val,))
            grow.append(int(val))
        gram.append(grow)
    for i in range(len(gram)):
        if gram[i][i] % 2:
            raise ValueError("odd diagonal Gram entry: lattice is not even")
    return CodeLattice(code, basis, gram)


def discriminant(lattice):
    return bareiss_det([list(r) for r in lattice.gram])


def is_even(lattice):
    g = lattice.gram
    return (all(g[i][i] % 2 == 0 for i in range(lattice.rank))
            and all(isinstance(x, int) for row in g for x in row))


# ---------------------------------------------------------------------------
# Exact shifted enumeration (Fincke-Pohst with scaled integer arithmetic)
# ---------------------------------------------------------------------------

def enumerate_coset(gram, shift, bound, emit):
    """Call emit(x, scaled_norm, scale) for every integer x with
    (x + shift) G (x + shift)^T <= bound.  Exact; deterministic order.

    scaled_norm/scale is the exact norm; scale is a fixed positive integer
    for the whole run.
    """
    rank = len(gram)
    minors, lams = _integral_gso(gram)
    D = [Fraction(minors[i + 1], minors[i]) for i in range(rank)]
    L = [[Fraction(x, minors[j + 1]) for j, x in enumerate(row)]
         for row in lams]
    shift = [Fraction(s) for s in shift]
    bound = Fraction(bound)
    q = 1
    for s in shift:
        q = q * s.denominator // gcd(q, s.denominator)
    sv = [int(s * q) for s in shift]

    lam = [None] * rank     # scaled off-diagonal rows of L^T
    Lam = [1] * rank
    for i in range(rank):
        den = 1
        for j in range(i + 1, rank):
            den = den * L[j][i].denominator // gcd(den,
                                                   L[j][i].denominator)
        Lam[i] = den
        lam[i] = [(j, int(L[j][i] * den)) for j in range(i + 1, rank)
                  if L[j][i] != 0]

    gden = 1
    for i in range(rank):
        piece = D[i].denominator * Lam[i] * Lam[i] * q * q
        gden = gden * piece // gcd(gden, piece)
    gi = [gden * D[i].numerator //
          (D[i].denominator * Lam[i] * Lam[i] * q * q) for i in range(rank)]
    budget = (bound.numerator * gden) // bound.denominator

    # cols[i]: updates to deeper levels once n_i is fixed
    cols = [[] for _ in range(rank)]
    for i in range(rank):
        for (j, c) in lam[i]:
            cols[j].append((i, c))

    xs = [0] * rank
    ns = [0] * rank
    acc = [[0] * rank for _ in range(rank + 1)]   # acc[depth] partial sums

    def descend(i, remaining, used):
        a = acc[i + 1]
        lam_i = Lam[i]
        step = lam_i * q
        base = lam_i * sv[i] + a[i]
        cap = remaining // gi[i]
        wmax = isqrt(cap)
        lo = -((wmax + base) // step)
        hi = (wmax - base) // step
        col = cols[i]
        for x in range(lo, hi + 1):
            w = step * x + base
            contrib = gi[i] * w * w
            rem = remaining - contrib
            if rem < 0:
                continue
            xs[i] = x
            ns[i] = q * x + sv[i]
            if i == 0:
                emit(tuple(xs), used + contrib, gden)
            else:
                nxt = acc[i]
                prev = a
                for t in range(i):
                    nxt[t] = prev[t]
                ni = ns[i]
                for (j, c) in col:
                    nxt[j] += c * ni
                descend(i - 1, rem, used + contrib)

    if rank:
        descend(rank - 1, budget, 0)


def count_by_norm(lattice, bound, shift_word=None):
    """Exact norm histogram of a lattice coset up to a bound (Fincke-Pohst)."""
    _check_cap(bound)
    shift = ([Fraction(0)] * lattice.rank if shift_word is None
             else lattice.shift_in_basis(shift_word))
    counts = Counter()
    scale = 1

    def emit(x, scaled, run_scale):
        nonlocal scale
        counts[scaled] += 1
        scale = run_scale

    enumerate_coset([list(r) for r in lattice.gram], shift, bound, emit)
    return {Fraction(k, scale): c for k, c in counts.items()}


def short_vectors(lattice, bound, shift_word=None):
    """All coset vectors with norm <= bound, as LatticeVectors in O^n."""
    _check_cap(bound)
    p, n, rank = lattice.p, lattice.n, lattice.rank
    if shift_word is None:
        shift = [Fraction(0)] * rank
        offset = [0] * (n * (p - 1))
    else:
        shift = lattice.shift_in_basis(shift_word)
        offset = lift_word(shift_word, p, n)
    basis = lattice.basis
    out = []

    def emit(x, scaled, scale):
        coords = list(offset)
        for c, row in zip(x, basis):
            if c:
                for j, rj in enumerate(row):
                    coords[j] += c * rj
        out.append(LatticeVector(p, n, coords, Fraction(scaled, scale)))

    enumerate_coset([list(r) for r in lattice.gram], shift, bound, emit)
    out.sort(key=lambda v: (v.norm, v.coords))
    return out


# ---------------------------------------------------------------------------
# Brute force coefficient-box oracle (independent of Fincke-Pohst)
# ---------------------------------------------------------------------------

_BOX_CHUNK = 1 << 19


def box_count_by_norm(lattice, bound, shift_word=None, max_rank=8):
    """Norm histogram via an exhaustive coefficient box; ranks <= 8 only.

    Works directly on ambient power-basis integer vectors: the dual form of
    a single cyclotomic coordinate has diagonal exactly 2, so every coset
    vector of norm <= B has all coefficients bounded by sqrt(2B).  Each box
    point is norm-checked and digit-word-filtered with exact int64
    arithmetic.  Shares nothing with the recursive enumerator beyond the
    code itself, so the two serve as independent cross-checks.
    """
    _check_cap(bound)
    rank = lattice.rank
    if rank > max_rank:
        raise ValueError("box oracle is limited to rank <= %d" % max_rank)
    p, n = lattice.p, lattice.n
    d = p - 1
    bound = Fraction(bound)
    if bound < 0:
        return {}
    # p * norm is an integer for every element of O^n
    limit = (bound.numerator * p) // bound.denominator
    w = isqrt((2 * bound.numerator) // bound.denominator)
    size = 2 * w + 1

    shift = ((0,) * n if shift_word is None
             else tuple(int(x) % p for x in shift_word))
    if len(shift) != n:
        raise ValueError("shift word length does not match the code")
    allowed = np.zeros(p ** n, dtype=bool)
    for word in lattice.code.words:
        idx = 0
        for a, b in zip(word, shift):
            idx = idx * p + (a + b) % p
        allowed[idx] = True
    word_pows = np.array([p ** (n - 1 - i) for i in range(n)],
                         dtype=np.int64)

    total = size ** rank
    strides = np.array([size ** (rank - 1 - i) for i in range(rank)],
                       dtype=np.int64)

    counts = Counter()
    for start in range(0, total, _BOX_CHUNK):
        idx = np.arange(start, min(start + _BOX_CHUNK, total),
                        dtype=np.int64)
        x = (idx[:, None] // strides) % size - w
        blocks = x.reshape(-1, n, d)
        sums = blocks.sum(axis=2)
        # per-block scaled norm: p * dot(x, x) - (sum x)^2
        scaled = (p * (blocks * blocks).sum(axis=2) - sums * sums).sum(axis=1)
        digits = (sums % p) @ word_pows
        keep = (scaled <= limit) & allowed[digits]
        vals, cnts = np.unique(scaled[keep], return_counts=True)
        for v, c in zip(vals.tolist(), cnts.tolist()):
            counts[Fraction(v, p)] += c
    return dict(counts)


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
        assert k.denominator == 1, "norm outside the expected (2/p)Z grid"
        terms[int(k)] = cnt
    return QSeries(p, p, terms, order)


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
