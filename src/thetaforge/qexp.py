"""Truncated q-expansions with exact cyclotomic-rational coefficients.

A QSeries represents sum_k c_k q^(k/N) with c_k in Q(zeta_p), known to be
correct for all exponents up to and including its cutoff.  Exponents may be
negative.  Cutoffs are tracked pessimistically through arithmetic so a
stored coefficient is always trustworthy.

Stored terms are canonical: no zero coefficient and no k/N past the cutoff
is kept, and a coefficient is a CycRat: integer power-basis coefficients
over a positive, gcd-reduced denominator, so two coefficients are equal
exactly when their coefficient tuples and denominators are.  Equality
therefore compares term dicts and does no coefficient arithmetic.  A
series is never mutated after construction, so with_N returns the series
itself at the same N.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import floor, gcd

from .cyclotomic import as_cycrat


class QSeries:
    """Truncated expansion in q^(1/N) over Q(zeta_p)."""

    __slots__ = ("p", "N", "terms", "cutoff")

    def __init__(self, p, N, terms, cutoff):
        N = int(N)
        if N < 1:
            raise ValueError("N must be positive")
        self.p = p
        self.N = N
        self.cutoff = Fraction(cutoff)
        lim = floor(self.cutoff * N)
        cleaned = ((int(k), as_cycrat(p, c)) for k, c in terms.items())
        self.terms = {k: c for k, c in cleaned if k <= lim and not c.is_zero()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p, cutoff, N=1):
        return cls(p, N, {}, cutoff)

    # -- inspection ---------------------------------------------------------

    def valuation(self):
        """Smallest exponent with a nonzero coefficient; cutoff if none."""
        if not self.terms:
            return self.cutoff
        return Fraction(min(self.terms), self.N)

    def items(self):
        """Sorted (Fraction exponent, CycRat coefficient) pairs."""
        return [(Fraction(k, self.N), self.terms[k])
                for k in sorted(self.terms)]

    def __repr__(self):
        bits = []
        for e, c in self.items()[:6]:
            bits.append("%s q^%s" % (c, e))
        more = " + ..." if len(self.terms) > 6 else ""
        return "QSeries(p=%d, %s%s; cutoff %s)" % (
            self.p, " + ".join(bits) or "0", more, self.cutoff)

    # -- rescaling helpers --------------------------------------------------

    def with_N(self, N2):
        if N2 == self.N:
            return self
        if N2 % self.N:
            raise ValueError("new denominator must refine the old")
        f = N2 // self.N
        return QSeries(self.p, N2, {k * f: c for k, c in self.terms.items()},
                       self.cutoff)

    def truncate(self, cutoff):
        cutoff = Fraction(cutoff)
        if cutoff > self.cutoff:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.p, self.N, self.terms, cutoff)

    def _common(self, other):
        if not isinstance(other, QSeries):
            other = QSeries(self.p, 1, {0: other}, self.cutoff)
        if other.p != self.p:
            raise ValueError("mixed coefficient primes")
        N = self.N * other.N // gcd(self.N, other.N)
        return self.with_N(N), other.with_N(N)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = self._common(other)
        cutoff = min(a.cutoff, b.cutoff)
        terms = dict(a.terms)
        for k, c in b.terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return QSeries(a.p, a.N, terms, cutoff)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.p, self.N,
                       {k: -c for k, c in self.terms.items()}, self.cutoff)

    def __sub__(self, other):
        a, b = self._common(other)
        return a + (-b)

    def __rsub__(self, other):
        a, b = self._common(other)
        return b + (-a)

    def __mul__(self, other):
        a, b = self._common(other)
        cutoff = min(a.cutoff + b.valuation(), b.cutoff + a.valuation())
        lim = cutoff * a.N
        terms = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                k = ka + kb
                if k > lim:
                    continue
                prod = ca * cb
                terms[k] = terms[k] + prod if k in terms else prod
        return QSeries(a.p, a.N, terms, cutoff)

    __rmul__ = __mul__

    def scale(self, c):
        c = as_cycrat(self.p, c)
        return QSeries(self.p, self.N,
                       {k: v * c for k, v in self.terms.items()}, self.cutoff)

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            raise ValueError("negative power %d of a series" % e)
        if e == 0:
            # relative precision is what survives multiplying by x^0
            return QSeries(self.p, self.N, {0: 1},
                           self.cutoff - self.valuation())
        # square-and-multiply; exact products make the grouping irrelevant
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        try:
            a, b = self._common(other)
        except ValueError:
            return NotImplemented
        lim = floor(min(a.cutoff, b.cutoff) * a.N)
        return ({k: c for k, c in a.terms.items() if k <= lim}
                == {k: c for k, c in b.terms.items() if k <= lim})

    def __hash__(self):
        raise TypeError("QSeries is unhashable; equality is cutoff-relative")


# ---------------------------------------------------------------------------
# Named series and operations
# ---------------------------------------------------------------------------

# The most exponent slots q^(k/24) of eta that an eta_power request may
# reach, eta through q^100.
MAX_ETA_SLOTS = 2400


def eta_power(p, power, cutoff):
    """eta^power, exact through the inclusive cutoff (at least 1/24).

    eta^k = q^(k/24) P^k with P = prod(1 - q^n) = sum_j a_j q^j, whose a_j
    are the pentagonal signs.  The coefficients b_n of P^k follow from
    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7):
    b_0 = 1 and n b_n = sum_{j=1..n} ((k+1) j - n) a_j b_(n-j), exactly
    divisible by n, at any integer k.  A power k >= 1 is exact through
    cutoff + (k-1)/24, as the k-th power of eta through the cutoff is; any
    other power through the cutoff, as the k-th power of eta through
    reach = cutoff + (1 - k)/24 is.  The slots q^(k/24) of eta through
    reach (through the cutoff for k >= 1) are checked against
    MAX_ETA_SLOTS first, and then the size of the b_n against the number
    of digits Python prints an integer with (_digits_bound).
    """
    cutoff = Fraction(cutoff)
    if cutoff < Fraction(1, 24):
        raise ValueError("cutoff below the leading exponent 1/24")
    power = int(power)
    reach = cutoff if power >= 1 else cutoff + Fraction(1 - power, 24)
    slots = floor(24 * reach)
    if slots > MAX_ETA_SLOTS:
        raise ValueError("eta^%d through q^%s expands eta over %d exponent "
                         "slots q^(k/24), more than the %d allowed"
                         % (power, cutoff, slots, MAX_ETA_SLOTS))
    if power >= 1:
        cutoff += Fraction(power - 1, 24)
    top = (floor(24 * cutoff) - power) // 24    # the last n with a term
    # a_j at the generalized pentagonal j = m(3m-1)/2 >= |m|, m != 0
    printable = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = _digits_bound(abs(power), top)
    if printable and digits > printable:
        raise ValueError("--power is too large for the cutoff %s: the "
                         "coefficients may have up to %d decimal digits, more "
                         "than the %d an integer is printed with"
                         % (cutoff, digits, printable))
    pentagonal = {m * (3 * m - 1) // 2: -1 if m % 2 else 1
                  for m in range(-top, top + 1) if m}
    b = [1]
    for n in range(1, top + 1):
        b.append(sum(((power + 1) * j - n) * a * b[n - j]
                     for j, a in pentagonal.items() if j <= n) // n)
    return QSeries(p, 24, {24 * n + power: c for n, c in enumerate(b)},
                   cutoff)


def _digits_bound(k, n):
    """An upper bound on the decimal digits of every coefficient b_0 ..
    b_n of P^(+-k), k >= 0, P = prod_m (1 - q^m).

    |b_j| is at most c_j, the coefficient of q^j in prod_m (1 - q^m)^-k,
    the number of k-coloured partitions of j, and c_j grows with j.  Two
    bounds on c_n: p(n) k^n, since each partition takes at most k^n
    colourings, with p(n) < exp(pi sqrt(2n/3)); and, as the coefficients
    are nonnegative, x^-n prod_m (1 - x^m)^-k <= x^-n exp(k x / (1 - x)^2)
    for 0 < x < 1, at x = n / (k + n) equal to ((k + n)/n)^n exp(n + n^2/k),
    within a few digits of c_n when k is large against n.
    """
    if not k or n <= 0:
        return 1
    by_partitions = (math.pi * math.sqrt(2 * n / 3) / math.log(10)
                     + n * math.log10(k))
    by_saddle = (n * (math.log10(k + n) - math.log10(n))
                 + (n + n * n / k) / math.log(10))
    return floor(min(by_partitions, by_saddle)) + 1


def compose_enumerator(enum, thetas):
    """Substitute component series into a symmetrized weight enumerator.

    enum maps profiles (l_0, ..., l_r) to counts, as
    fpcode.weight_enumerator returns it; thetas lists one series per digit
    class (r + 1 of them).
    """
    total = None
    for expo, cnt in sorted(enum.items()):
        if len(expo) != len(thetas):
            raise ValueError("need %d component series, got %d"
                             % (len(expo), len(thetas)))
        term = None
        for t, e in zip(thetas, expo):
            if e == 0:
                continue
            f = t ** e
            term = f if term is None else term * f
        if term is None:                      # all-zero exponent tuple
            term = QSeries(thetas[0].p, thetas[0].N, {0: 1},
                           min(t.cutoff for t in thetas))
        term = term.scale(cnt)
        total = term if total is None else total + term
    assert total is not None
    return total


def to_json_obj(series):
    """Stable JSON-ready form: exponents as reduced 'a/b' strings."""
    return [{"exp": str(e),
             "coef": {"coeffs": list(c.coeffs), "den": c.den}}
            for e, c in series.items()]
