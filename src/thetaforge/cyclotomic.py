"""Exact arithmetic in the ring of integers of the p-th cyclotomic field.

Elements are stored on the power basis zeta^0, ..., zeta^(p-2) with integer
coefficients, for p an odd prime.  p = 2 is allowed as a degenerate case
(the ring is plain Z, coefficient vectors have length 1) so that binary
codes can share the downstream machinery.  All operations here are exact;
the only floating point lives in the complex embeddings.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd


def check_prime(p):
    """Raise ValueError unless p is a prime (2 allowed)."""
    if not isinstance(p, int) or p < 2:
        raise ValueError("p must be a prime integer, got %r" % (p,))
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError("p must be prime, got %d" % p)
        d += 1


def check_odd_prime(p):
    """Raise ValueError unless p is an odd prime."""
    check_prime(p)
    if p == 2:
        raise ValueError("need an odd prime")


class CycInt:
    """An element of Z[zeta_p] with integer power-basis coefficients."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        check_prime(p)
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError("need %d coefficients for p=%d, got %d"
                             % (p - 1, p, len(coeffs)))
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def from_int(cls, p, a):
        return cls(p, (int(a),) + (0,) * (p - 2))

    @classmethod
    def zeta_pow(cls, p, k):
        """zeta^k as a basis element (k reduced mod p; zeta^(p-1) expanded)."""
        check_prime(p)
        k %= p
        c = [0] * (p - 1)
        if k == p - 1:
            # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
            c = [-1] * (p - 1)
        else:
            c[k] = 1
        return cls(p, c)

    def _binop_check(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        if not isinstance(other, CycInt) or other.p != self.p:
            raise ValueError("mixed primes or bad operand: %r" % (other,))
        return other

    def __add__(self, other):
        other = self._binop_check(other)
        return CycInt(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.p, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._binop_check(other))

    def __rsub__(self, other):
        return self._binop_check(other) - self

    def __mul__(self, other):
        other = self._binop_check(other)
        p = self.p
        # convolve on exponents mod p, then eliminate zeta^(p-1)
        acc = [0] * p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    acc[(i + j) % p] += a * b
        top = acc[p - 1]
        return CycInt(p, [acc[k] - top for k in range(p - 1)])

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        return (isinstance(other, CycInt) and other.p == self.p
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return "CycInt(p=%d, %r)" % (self.p, list(self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def galois(self, r):
        """Apply the automorphism zeta -> zeta^r, for r coprime to p."""
        p = self.p
        if r % p == 0:
            raise ValueError("galois index must be coprime to p")
        acc = [0] * p
        for k, a in enumerate(self.coeffs):
            acc[(k * r) % p] += a
        top = acc[p - 1]
        return CycInt(p, [acc[k] - top for k in range(p - 1)])

    def conj(self):
        """Complex conjugation, zeta -> zeta^(p-1)."""
        if self.p == 2:
            return self
        return self.galois(self.p - 1)

    def trace(self):
        """Field trace down to Z: (p-1)*a_0 - sum of the other coefficients."""
        if self.p == 2:
            return self.coeffs[0]
        return (self.p - 1) * self.coeffs[0] - sum(self.coeffs[1:])

    def rho(self):
        """Reduction mod the ramified prime: coefficient sum mod p."""
        return sum(self.coeffs) % self.p

    def embed(self, r):
        """Complex embedding zeta -> exp(2*pi*i*r/p), 1 <= r <= p-1."""
        if not 1 <= r <= self.p - 1:
            raise ValueError("embedding index out of range")
        z = 0j
        for k, a in enumerate(self.coeffs):
            if a:
                z += a * cmath.exp(2j * cmath.pi * k * r / self.p)
        return z

    def norm_int(self):
        """Field norm, as a plain integer."""
        prod = self
        for r in range(2, self.p):
            prod = prod * self.galois(r)
        assert all(c == 0 for c in prod.coeffs[1:]), "norm not rational"
        return prod.coeffs[0]


def trace_pairing(x, y):
    """The positive definite pairing Tr(x * conj(y)) / p, as a Fraction."""
    if x.p != y.p:
        raise ValueError("mixed primes")
    return Fraction((x * y.conj()).trace(), x.p)


class CycRat:
    """A quotient of a CycInt by a positive integer, kept gcd-reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, int):
            raise ValueError("wrap plain integers via CycRat.from_rational")
        den = int(den)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(den, *(abs(c) for c in num.coeffs)) if den != 1 else 1
        if g > 1:
            num = CycInt(num.p, [c // g for c in num.coeffs])
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def from_rational(cls, p, q):
        q = Fraction(q)
        return cls(CycInt.from_int(p, q.numerator), q.denominator)

    @property
    def p(self):
        return self.num.p

    def __add__(self, other):
        other = as_cycrat(self.p, other)
        return CycRat(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return CycRat(-self.num, self.den)

    def __sub__(self, other):
        return self + (-as_cycrat(self.p, other))

    def __rsub__(self, other):
        return as_cycrat(self.p, other) - self

    def __mul__(self, other):
        other = as_cycrat(self.p, other)
        return CycRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the product of Galois conjugates."""
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        cofactor = CycInt.from_int(self.p, 1)
        for r in range(2, self.p):
            cofactor = cofactor * self.num.galois(r)
        n = self.num.norm_int()
        return CycRat(cofactor * self.den, n)

    def __truediv__(self, other):
        return self * as_cycrat(self.p, other).inverse()

    def __eq__(self, other):
        try:
            other = as_cycrat(self.p, other)
        except ValueError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "CycRat(%r, %d)" % (self.num, self.den)

    def is_zero(self):
        return self.num.is_zero()

    def is_rational(self):
        return all(c == 0 for c in self.num.coeffs[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational element: %r" % (self,))
        return Fraction(self.num.coeffs[0], self.den)

    def embed(self, r):
        return self.num.embed(r) / self.den


def as_cycrat(p, v):
    """v as a CycRat over Q(zeta_p).

    Accepts a CycRat or CycInt for the same prime, or any rational value
    Fraction() takes.  Anything else raises ValueError, which CycRat's
    equality turns into NotImplemented.
    """
    if isinstance(v, (CycRat, CycInt)):
        if v.p != p:
            raise ValueError("coefficient for prime %d, expected %d"
                             % (v.p, p))
        return v if isinstance(v, CycRat) else CycRat(v)
    try:
        return CycRat.from_rational(p, v)
    except (TypeError, OverflowError):
        raise ValueError("bad operand: %r" % (v,)) from None


def zeta(p):
    return CycInt.zeta_pow(p, 1)
