"""Reference values the benchmark checks thetaforge's output against.

Everything here is computed from first principles with plain integers (and
plain complex floats for the numerical workload); nothing calls thetaforge,
so a defect shared by the program's two internal routes still shows.
"""

import cmath
import itertools
import math


def _sigma3(n):
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def _mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[:order + 1 - i]):
            out[i + j] += x * y
    return out


def e4(order):
    """Eisenstein series E_4 = 1 + 240 sum sigma_3(n) q^n, through q^order.

    It is the theta series of E8, the lattice of the tetracode.
    """
    return [1] + [240 * _sigma3(n) for n in range(1, order + 1)]


def delta(order):
    """Delta = q prod (1 - q^m)^24, through q^order."""
    prod = [1] + [0] * order
    for m in range(1, order + 1):
        factor = [0] * (order + 1)
        factor[0], factor[m] = 1, -1
        for _ in range(24):
            prod = _mul(prod, factor, order)
    return [0] + prod[:order]


def golay_theta(order):
    """Theta series of the rank-24 golay12 lattice: E_4^3 - 648 Delta.

    The lattice is even unimodular of rank 24 with 72 roots, so its theta
    series lies in M_12 = <E_4^3, Delta> and the q^1 term fixes the Delta
    coefficient: 720 - 648 = 72.
    """
    e = e4(order)
    cube = _mul(_mul(e, e, order), e, order)
    return [c - 648 * d for c, d in zip(cube, delta(order))]


def hyperoctahedral_even_order(n):
    """Order of the evenly signed even permutations: n!/2 * 2^(n-1)."""
    return math.factorial(n) // 2 * 2 ** (n - 1)


# ---------------------------------------------------------------------------
# Numerical class thetas at p = 5, by a direct sum over a coefficient box
# ---------------------------------------------------------------------------

P5 = 5
_BOX = 6          # |x_k| <= 6 holds every element of norm <= 18
_NORM_KEEP = 14   # past norm 14 each term is below e^(-14 pi) for Im z >= 1


def _p5_elements():
    """(digit class, |sigma_1(x)|^2, |sigma_2(x)|^2) for every x in Z[zeta_5]
    of norm at most _NORM_KEEP, x written on the power basis 1..zeta^3.

    The norm is (2/5)(|sigma_1|^2 + |sigma_2|^2); x reduces to the digit
    sum(x_k) mod 5 modulo the prime above 5, since zeta = 1 there.
    """
    roots = [[cmath.exp(2j * math.pi * l * k / P5) for k in range(P5 - 1)]
             for l in (1, 2)]
    out = []
    span = range(-_BOX, _BOX + 1)
    for x in itertools.product(span, repeat=P5 - 1):
        s = [abs(sum(c * w for c, w in zip(x, row))) ** 2 for row in roots]
        if 2 * (s[0] + s[1]) / P5 <= _NORM_KEEP:
            out.append((sum(x) % P5, s[0], s[1]))
    return out


class ClassThetaP5:
    """theta_j(z1, z2) = sum over x = j mod (1 - zeta) of
    exp(2 pi i (z1 |sigma_1 x|^2 + z2 |sigma_2 x|^2) / 5)."""

    def __init__(self):
        self.elements = _p5_elements()
        self._values = {}

    def values(self, point):
        if point not in self._values:
            self._values[point] = self._sum(*point)
        return self._values[point]

    def _sum(self, z1, z2):
        out = [0j] * P5
        scale = 2j * math.pi / P5
        for j, s1, s2 in self.elements:
            out[j] += cmath.exp(scale * (z1 * s1 + z2 * s2))
        return out

    def code_value(self, words, point):
        """Sum over the code's words of the product of digit thetas: the
        standard lattice is an orthogonal sum of one block per coordinate."""
        theta = self.values(point)
        total = 0j
        for w in words:
            term = 1 + 0j
            for d in w:
                term *= theta[d % P5]
            total += term
        return total
