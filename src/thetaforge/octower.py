"""Signed-permutation groups and the tower checks for 3 <= n <= 12.

The integral orthogonal group in rank n is the group of signed permutation
matrices.  Every group here is a stabilizer chain on generators, which
gives orders and membership by sifting; no group is listed.  The module
builds the evenly-signed even-permutation subgroup H, decides perfectness
as the normal closure of the generator commutators, and solves the
crossed-homomorphism system over F_2 from Carmichael's presentation of
the alternating group.
"""

from __future__ import annotations

from math import prod

from .cliffcode import SignedMatrix, compose, invert
from .linalg import row_reduce_mod_p

MAX_TOWER_N = 12


def _three_cycles(n):
    """The 3-cycles (0 1 i) for 2 <= i < n, checking 3 <= n <= 12."""
    if n < 3 or n > MAX_TOWER_N:
        raise ValueError("supported range is 3 <= n <= %d" % MAX_TOWER_N)
    return [(1, i) + tuple(range(2, i)) + (0,) + tuple(range(i + 1, n))
            for i in range(2, n)]


# ---------------------------------------------------------------------------
# The stabilizer chain
# ---------------------------------------------------------------------------

class Chain:
    """Stabilizer chain of a group of signed permutations of rank n, on
    their SignedMatrix.points (2k is +e_k and 2k + 1 is -e_k).

    An element fixing every +e_k is the identity, so the points 2k form a
    base.  Level k holds generators T_k, which fix +e_0..+e_{k-1}, and for
    each point x in the orbit of 2k under <T_k> a pair (u, u^-1) with u
    taking 2k to x.  Each Schreier generator u.t.u_{x.t}^-1 of level k is
    sifted into level k + 1 and joins T_{k+1} when it is not a member, so
    <T_{k+1}> is the stabilizer of 2k in <T_k> and the order is the
    product of the orbit lengths (Sims 1970; Knuth 1991).
    """

    def __init__(self, n, elements=()):
        self.n = n
        self.gens = [[] for _ in range(n)]
        ident = tuple(range(2 * n))
        self.orbits = [{2 * k: (ident, ident)} for k in range(n)]
        for m in elements:
            self.extend(m)

    def _sift(self, p, level):
        for k in range(level, self.n):
            x = p[2 * k]
            if x != 2 * k:
                rep = self.orbits[k].get(x)
                if rep is None:
                    return False
                p = compose(p, rep[1])
        return True

    def _add(self, p, level):
        if self._sift(p, level):
            return False
        gens, orbit, base = self.gens[level], self.orbits[level], 2 * level
        gens.append(p)
        todo = [(u, p) for u, _ in list(orbit.values())]
        while todo:
            u, t = todo.pop()
            ut = compose(u, t)
            x = ut[base]
            if x in orbit:
                self._add(compose(ut, orbit[x][1]), level + 1)
            else:
                orbit[x] = (ut, invert(ut))
                todo += [(ut, s) for s in gens]
        return True

    def extend(self, m):
        """Add m to the group; False when it was a member already."""
        return self._add(m.points, 0)

    def __contains__(self, m):
        return self._sift(m.points, 0)

    def order(self):
        return prod(len(orbit) for orbit in self.orbits)


def group_order(elements):
    """Order of the group generated by a nonempty list of elements."""
    return Chain(elements[0].dim, elements).order()


def h_generators(n):
    """Generators of H, the evenly signed even permutations (order
    n!/2 * 2^(n-1)): the 3-cycles (0 1 i) and the sign flips on {0, i}."""
    return ([SignedMatrix(x, (1,) * n) for x in _three_cycles(n)]
            + [SignedMatrix(range(n), [-1 if j in (0, i) else 1
                                       for j in range(n)])
               for i in range(1, n)])


def is_perfect(elements):
    """True when the group generated by the elements is its own
    commutator subgroup.

    The elements that extend a chain form a generating list S, and [G, G]
    is the normal closure of the commutators [s, t] for s, t in S:
    conjugate its generators by S until none is new, then compare orders.
    """
    if not elements:
        return True
    group = Chain(elements[0].dim)
    gens = [m for m in elements if group.extend(m)]
    derived = Chain(group.n)
    todo = [c for c in (a * b * a.transpose() * b.transpose()
                        for a in gens for b in gens) if derived.extend(c)]
    while todo:
        d = todo.pop()
        todo += [c for c in (s.transpose() * d * s for s in gens)
                 if derived.extend(c)]
    return derived.order() == group.order()


# ---------------------------------------------------------------------------
# Crossed homomorphisms from the alternating group
# ---------------------------------------------------------------------------

def _quotient_action(perm):
    """Action of a permutation on F_2^n / <all-ones>, in the basis given
    by the first n-1 coordinate classes.  Rows are bitmasks; e_(n-1) is
    the sum of the basis classes."""
    d = len(perm) - 1
    return tuple(sum(1 << c for c in range(d) if perm[c] in (r, d))
                 for r in range(d))


def _rank_of_masks(masks, width):
    """Rank over F_2 of rows given as bitmasks of the given width; repeated
    rows, which leave the rank unchanged, are dropped first."""
    rows = [[m >> j & 1 for j in range(width)] for m in set(masks)]
    return len(row_reduce_mod_p(rows, 2)[0])


def crossed_hom_space(n):
    """Dimensions of the crossed-homomorphism space, its principal
    subspace, and the quotient, for maps from the alternating group to
    F_2^n / <all-ones>.

    A_n has Carmichael's presentation on x_i = (0 1 i+2), i < n - 2, with
    relations x_i^3 = (x_i x_j)^2 = 1.  The unknowns are the coordinates
    of the f(x_i); a relation y_1...y_m asks sum_k (y_1...y_(k-1)).f(y_k)
    = 0, and those equations cut out the crossed homomorphisms.
    """
    gens = _three_cycles(n)
    d = n - 1
    words = [(i, i, i) for i in range(n - 2)]
    words += [(i, j, i, j) for i in range(n - 2) for j in range(i)]
    equations = []
    for word in words:
        prefix = tuple(range(n))
        eq = [0] * d
        for k in word:
            # row r of prefix.f(x_k) is prefix row r on f(x_k)'s unknowns
            for r, row in enumerate(_quotient_action(prefix)):
                eq[r] ^= row << (k * d)
            prefix = compose(gens[k], prefix)
        equations += eq
    nunk = (n - 2) * d
    dim_crossed = nunk - _rank_of_masks(equations, nunk)

    # principal maps p -> (g -> p + g.p); kernel = invariant classes
    stacked = [row ^ (1 << r) for x in gens
               for r, row in enumerate(_quotient_action(x))]
    dim_invariants = d - _rank_of_masks(stacked, d)
    dim_principal = d - dim_invariants
    return {
        "n": n,
        "group_order": group_order([SignedMatrix(x, (1,) * n) for x in gens]),
        "dim_crossed": dim_crossed,
        "dim_principal": dim_principal,
        "dim_invariants": dim_invariants,
        "h1_dim": dim_crossed - dim_principal,
    }


def tower_report(n):
    """Order, perfectness, and first-cohomology dimension for one n."""
    gens = h_generators(n)
    hom = crossed_hom_space(n)
    return {
        "n": n,
        "order": group_order(gens),
        "perfect": is_perfect(gens),
        "h1_dim": hom["h1_dim"],
        "dim_crossed": hom["dim_crossed"],
        "dim_principal": hom["dim_principal"],
    }
