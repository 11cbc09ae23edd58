"""Exact arithmetic in the p-th cyclotomic field Q(zeta_p).

An element is stored on the power basis zeta^0, ..., zeta^(p-2) as integer
coefficients over a positive denominator, gcd-reduced, for p an odd prime;
denominator 1 means the element lies in the ring of integers Z[zeta_p].
p = 2 is allowed as a degenerate case (the field is plain Q, coefficient
vectors have length 1) so that binary codes can share the downstream
machinery.  All operations here are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational


# The largest p accepted.  An element of Q(zeta_p) holds a tuple of p - 1
# coefficients, 8 (p - 1) bytes of pointers, 128 MiB at the bound.  The
# bound is tested before trial division, which then takes at most 2^12
# steps, and before any coefficient tuple is built.
MAX_PRIME = 1 << 24


def check_prime(p):
    """Raise ValueError unless p is a prime (2 allowed) of at most
    MAX_PRIME."""
    if not isinstance(p, int) or p < 2:
        raise ValueError("p must be a prime integer, got %r" % (p,))
    if p > MAX_PRIME:
        raise ValueError("p must be at most MAX_PRIME = %d, got %d"
                         % (MAX_PRIME, p))
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


def _reduce_top(p, acc):
    """The p - 1 power-basis coefficients of sum acc[k] zeta^k, k < p:
    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    top = acc[p - 1]
    return [acc[k] - top for k in range(p - 1)]


def _convolve(p, xs, ys):
    """Power-basis coefficients of the product of two integer elements."""
    acc = [0] * p
    for i, a in enumerate(xs):
        if a == 0:
            continue
        for j, b in enumerate(ys):
            if b:
                acc[(i + j) % p] += a * b
    return _reduce_top(p, acc)


class CycRat:
    """An element of Q(zeta_p): integer power-basis coefficients over a
    positive, gcd-reduced denominator (den == 1 is an element of
    Z[zeta_p])."""

    __slots__ = ("p", "coeffs", "den")

    def __init__(self, p, coeffs, den=1):
        check_prime(p)
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError("need %d coefficients for p=%d, got %d"
                             % (p - 1, p, len(coeffs)))
        den = int(den)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            coeffs, den = tuple(-c for c in coeffs), -den
        g = gcd(den, *coeffs) if den != 1 else 1
        if g > 1:
            coeffs, den = tuple(c // g for c in coeffs), den // g
        self.p = p
        self.coeffs = coeffs
        self.den = den

    @classmethod
    def from_int(cls, p, a, den=1):
        """The rational a / den."""
        check_prime(p)              # before the (p - 2)-tuple is built
        return cls(p, (a,) + (0,) * (p - 2), den)

    def _operand(self, other):
        """other as a CycRat of this prime, or None for an operand that is
        neither a CycRat nor a numbers.Rational; another prime raises
        ValueError."""
        if isinstance(other, (CycRat, Rational)):
            return as_cycrat(self.p, other)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        a, b = self.den, other.den
        return CycRat(self.p, [x * b + y * a for x, y
                               in zip(self.coeffs, other.coeffs)], a * b)

    __radd__ = __add__

    def __neg__(self):
        return CycRat(self.p, [-a for a in self.coeffs], self.den)

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return CycRat(self.p, _convolve(self.p, self.coeffs, other.coeffs),
                      self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        """Equal to a CycRat of the same prime with the same coefficients
        and denominator, or to the int or Fraction of a rational element;
        any other operand is left to its own __eq__."""
        try:
            other = self._operand(other)
        except ValueError:           # another prime
            return NotImplemented
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs and self.den == other.den

    def __hash__(self):
        # a rational element hashes as the Fraction (or int) it equals
        if not any(self.coeffs[1:]):
            return hash(Fraction(self.coeffs[0], self.den))
        return hash((self.p, self.coeffs, self.den))

    def __repr__(self):
        return "CycRat(p=%d, %r, %d)" % (self.p, list(self.coeffs), self.den)

    def is_zero(self):
        return not any(self.coeffs)

    def galois(self, r):
        """Apply the automorphism zeta -> zeta^r, for r coprime to p."""
        p = self.p
        if r % p == 0:
            raise ValueError("galois index must be coprime to p")
        acc = [0] * p
        for k, a in enumerate(self.coeffs):
            acc[(k * r) % p] += a
        return CycRat(p, _reduce_top(p, acc), self.den)

    def conj(self):
        """Complex conjugation, zeta -> zeta^(p-1)."""
        return self.galois(self.p - 1)

    def trace(self):
        """Field trace down to Q: ((p-1)*a_0 - sum of the other
        coefficients) / den, an int when den == 1."""
        t = (self.p - 1) * self.coeffs[0] - sum(self.coeffs[1:])
        return t if self.den == 1 else Fraction(t, self.den)


def as_cycrat(p, v):
    """v as a CycRat over Q(zeta_p): a CycRat of the same prime, or a
    numbers.Rational (int, Fraction).  Anything else, text and floats
    included, raises ValueError.
    """
    if isinstance(v, CycRat):
        if v.p != p:
            raise ValueError("coefficient for prime %d, expected %d"
                             % (v.p, p))
        return v
    if isinstance(v, Rational):
        return CycRat.from_int(p, v.numerator, v.denominator)
    raise ValueError("bad operand: %r" % (v,))
