"""Truncated q-expansions with exact cyclotomic-rational coefficients.

A QSeries represents sum_k c_k q^(k/N) with c_k in Q(zeta_p), known to be
correct for all exponents up to and including its cutoff.  Exponents may be
negative.  Cutoffs are tracked pessimistically through arithmetic so a
stored coefficient is always trustworthy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclotomic import CycInt, CycRat, as_cycrat


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
        clean = {}
        for k, c in terms.items():
            c = as_cycrat(p, c)
            if c.is_zero():
                continue
            k = int(k)
            if Fraction(k, N) > self.cutoff:
                continue
            clean[k] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_exponents(cls, p, terms, cutoff, N=None):
        """Build from a map Fraction-exponent -> coefficient."""
        exps = {Fraction(e): v for e, v in terms.items()}
        if N is None:
            N = 1
            for e in exps:
                N = N * e.denominator // gcd(N, e.denominator)
        scaled = {}
        for e, v in exps.items():
            k = e * N
            assert k.denominator == 1
            scaled[int(k)] = v
        return cls(p, N, scaled, cutoff)

    @classmethod
    def zero(cls, p, cutoff, N=1):
        return cls(p, N, {}, cutoff)

    @classmethod
    def one(cls, p, cutoff, N=1):
        return cls(p, N, {0: 1}, cutoff)

    # -- inspection ---------------------------------------------------------

    def valuation(self):
        """Smallest exponent with a nonzero coefficient; cutoff if none."""
        if not self.terms:
            return self.cutoff
        return Fraction(min(self.terms), self.N)

    def coeff(self, exponent):
        """Coefficient at a given exponent; must not exceed the cutoff."""
        e = Fraction(exponent)
        if e > self.cutoff:
            raise ValueError("exponent %s beyond cutoff %s"
                             % (e, self.cutoff))
        k = e * self.N
        if k.denominator != 1:
            return CycRat.from_rational(self.p, 0)
        return self.terms.get(int(k), CycRat.from_rational(self.p, 0))

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

    def inverse(self):
        """Multiplicative inverse; the leading coefficient must be nonzero."""
        if not self.terms:
            raise ZeroDivisionError("inverse of the zero series")
        v = self.valuation()
        kv = min(self.terms)
        lead = self.terms[kv]
        rel = self.cutoff - v          # relative precision of the unit part
        m = int(rel * self.N)          # largest representable offset
        if m < 0:
            raise ValueError("no usable precision for inverse")
        u = {k - kv: c for k, c in self.terms.items()}   # unit part, u[0]=lead
        lead_inv = lead.inverse()
        b = {0: lead_inv}
        for j in range(1, m + 1):
            acc = None
            for i in range(0, j):
                if i in b and (j - i) in u:
                    t = b[i] * u[j - i]
                    acc = t if acc is None else acc + t
            if acc is not None and not acc.is_zero():
                b[j] = -(lead_inv * acc)
        terms = {j - kv: c for j, c in b.items()}
        return QSeries(self.p, self.N, terms, self.cutoff - 2 * v)

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            # relative precision is what survives multiplying by x^0
            return QSeries.one(self.p, self.cutoff - self.valuation(), self.N)
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
        lim = min(a.cutoff, b.cutoff) * a.N
        for k in set(a.terms) | set(b.terms):
            if k <= lim:
                ca = a.terms.get(k)
                cb = b.terms.get(k)
                if ca is None or cb is None:
                    if not (ca or cb).is_zero():
                        return False
                elif not (ca - cb).is_zero():
                    return False
        return True

    def __hash__(self):
        raise TypeError("QSeries is unhashable; equality is cutoff-relative")


# ---------------------------------------------------------------------------
# Named series and operations
# ---------------------------------------------------------------------------

def eta(p, cutoff):
    """Dedekind eta = q^(1/24) * prod(1 - q^n), via the pentagonal sparse form.

    The cutoff must be at least 1/24 so the leading term is representable.
    """
    cutoff = Fraction(cutoff)
    if cutoff < Fraction(1, 24):
        raise ValueError("cutoff below the leading exponent 1/24")
    terms = {}
    limit = cutoff * 24 - 1          # offsets above q^(1/24)
    k = 0
    while True:
        hit = False
        for kk in ([0] if k == 0 else [k, -k]):
            off = kk * (3 * kk - 1) * 12    # 24 * k(3k-1)/2
            if off <= limit:
                terms[1 + off] = 1 if kk % 2 == 0 else -1
                hit = True
        if not hit and k > 0:
            break
        k += 1
    return QSeries(p, 24, terms, cutoff)


def eta_power(p, power, cutoff):
    """eta^power, exact through the inclusive cutoff (at least 1/24).

    A power e < 1 divides out q^(1/24) and is exact only (1 - e)/24 below
    the cutoff of the eta it is taken from, so eta is expanded that much
    further and the power cut back to the cutoff.  A positive power keeps
    the cutoff of its product, which is at least the one asked for.
    """
    cutoff = Fraction(cutoff)
    if cutoff < Fraction(1, 24):
        raise ValueError("cutoff below the leading exponent 1/24")
    power = int(power)
    if power >= 1:
        return eta(p, cutoff) ** power
    return (eta(p, cutoff + Fraction(1 - power, 24)) ** power).truncate(cutoff)


def t_shift(series):
    """Send q^(k/N) to e^(2 pi i k / N) q^(k/N); needs N | p (or N = 1)."""
    p = series.p
    if series.N not in (1, p):
        raise ValueError("t_shift needs exponent denominator 1 or p")
    if series.N == 1:
        return series
    terms = {k: c * CycInt.zeta_pow(p, k % p)
             for k, c in series.terms.items()}
    return QSeries(p, series.N, terms, series.cutoff)


def compose_enumerator(enum, thetas):
    """Substitute component series into a symmetrized weight enumerator.

    enum is an fpcode.WeightEnumerator; thetas lists one series per digit
    class (r + 1 of them).
    """
    if len(thetas) != enum.r + 1:
        raise ValueError("need %d component series, got %d"
                         % (enum.r + 1, len(thetas)))
    total = None
    for expo, cnt in sorted(enum.coefficients.items()):
        term = None
        for t, e in zip(thetas, expo):
            if e == 0:
                continue
            f = t ** e
            term = f if term is None else term * f
        if term is None:                      # all-zero exponent tuple
            term = QSeries.one(thetas[0].p, min(t.cutoff for t in thetas),
                               thetas[0].N)
        term = term.scale(cnt)
        total = term if total is None else total + term
    assert total is not None
    return total


def to_json_obj(series):
    """Stable JSON-ready form: exponents as reduced 'a/b' strings."""
    return [{"exp": str(e),
             "coef": {"coeffs": list(c.num.coeffs), "den": c.den}}
            for e, c in series.items()]
