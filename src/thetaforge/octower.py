"""Signed-permutation groups and the small-n tower checks.

The integral orthogonal group in rank n is the group of signed permutation
matrices.  This module builds its index-2 subgroups and the evenly-signed
even-permutation subgroup H, decides perfectness as the normal closure
of the generator commutators, and solves the crossed-homomorphism system over F_2.
"""

from __future__ import annotations

import itertools

from .cliffcode import SignedMatrix
from .linalg import row_reduce_mod_p

MAX_TOWER_N = 6


def signed_perm(perm, signs):
    """Element with row r carrying signs[r] in column perm[r]."""
    return SignedMatrix(tuple(perm), tuple(signs))


def perm_parity(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return inv % 2


def det(m):
    d = 1
    for s in m.signs:
        d *= s
    return d * (-1 if perm_parity(m.perm) else 1)


def full_group(n):
    """All signed permutation matrices; order 2^n n!."""
    if n > MAX_TOWER_N:
        raise ValueError("full group too large beyond n = %d" % MAX_TOWER_N)
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(signed_perm(perm, signs))
    return out


def subgroup_H(n):
    """Evenly signed even permutations; order n!/2 * 2^(n-1)."""
    if n < 3 or n > MAX_TOWER_N:
        raise ValueError("supported range is 3 <= n <= %d" % MAX_TOWER_N)
    out = []
    for perm in itertools.permutations(range(n)):
        if perm_parity(perm):
            continue
        for signs in itertools.product((1, -1), repeat=n):
            if signs.count(-1) % 2 == 0:
                out.append(signed_perm(perm, signs))
    return out


def _closure(generators, limit):
    """Subgroup generated by a nonempty list of elements, as a set."""
    seen = {SignedMatrix.identity(generators[0].dim)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                prod = g * h
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > limit:
                        raise ValueError("closure exceeded size guard")
        frontier = nxt
    return seen


def _span(candidates, limit):
    """Greedy generating list: a candidate joins only when it lies outside
    the subgroup spanned so far.  Returns (subgroup, generators)."""
    subgroup = {SignedMatrix.identity(candidates[0].dim)}
    gens = []
    for c in candidates:
        if c not in subgroup:
            gens.append(c)
            subgroup = _closure(gens, limit)
    return subgroup, gens


def is_perfect(elements):
    """True when the commutator subgroup is the whole group.

    With S a generating set, [G, G] is the normal closure of the
    commutators [s, t] for s, t in S: span those, then add the
    S-conjugates of the derived generators until none is new.
    """
    if not elements:
        return True
    if len(elements) > 20000:
        raise ValueError("group too large for the closure check")
    limit = len(elements)
    _, gens = _span(elements, limit)
    if not gens:
        return True                 # every element is the identity
    derived, dgens = _span([a * b * a.transpose() * b.transpose()
                            for a in gens for b in gens], limit)
    while True:
        extra = [s.transpose() * d * s for s in gens for d in dgens]
        extra = [c for c in extra if c not in derived]
        if not extra:
            return derived == set(elements)
        derived, dgens = _span(dgens + extra, limit)


# ---------------------------------------------------------------------------
# Crossed homomorphisms from the alternating group
# ---------------------------------------------------------------------------

def alternating_generators(n):
    """A 3-cycle and a long even cycle generating the alternating group."""
    a = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2:
        b = tuple(list(range(1, n)) + [0])
    else:
        b = tuple([0] + list(range(2, n)) + [1])
    assert perm_parity(a) == 0 and perm_parity(b) == 0
    return a, b


def _quotient_action(perm):
    """Action of a permutation on F_2^n / <all-ones>, in the basis given
    by the first n-1 coordinate classes.  Rows are bitmasks."""
    n = len(perm)
    cols = []
    for i in range(n - 1):
        j = perm[i]
        if j < n - 1:
            cols.append(1 << j)
        else:
            cols.append((1 << (n - 1)) - 1)
    rows = []
    for r in range(n - 1):
        mask = 0
        for c in range(n - 1):
            if cols[c] >> r & 1:
                mask |= 1 << c
        rows.append(mask)
    return tuple(rows)


def _rank_of_masks(masks, width):
    """Rank over F_2 of rows given as bitmasks of the given width; repeated
    rows, which leave the rank unchanged, are dropped first."""
    rows = [[m >> j & 1 for j in range(width)] for m in set(masks)]
    return len(row_reduce_mod_p(rows, 2)[0])


def _compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def crossed_hom_space(n):
    """Dimensions of the crossed-homomorphism space, its principal
    subspace, and the quotient, for maps from the alternating group to
    F_2^n / <all-ones>."""
    if n < 3 or n > MAX_TOWER_N:
        raise ValueError("supported range is 3 <= n <= %d" % MAX_TOWER_N)
    d = n - 1
    a, b = alternating_generators(n)
    gens = (a, b)
    nunk = 2 * d                    # coordinates of f(a) and f(b)

    # expression for f(g): d rows, each a bitmask over the unknowns
    ident = tuple(range(n))
    exprs = {ident: (0,) * d}
    actions = {ident: _quotient_action(ident)}
    gen_expr = []
    for k in range(2):
        gen_expr.append(tuple(1 << (k * d + r) for r in range(d)))
    equations = []
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            fg = exprs[g]
            act = actions[g]
            for k, x in enumerate(gens):
                h = _compose(g, x)
                # f(gx) = f(g) + g.f(x); act rows give the mixing
                fx = gen_expr[k]
                mixed = []
                for r in range(d):
                    acc = fg[r]
                    row = act[r]
                    for c in range(d):
                        if row >> c & 1:
                            acc ^= fx[c]
                    mixed.append(acc)
                if h in exprs:
                    for r in range(d):
                        eq = exprs[h][r] ^ mixed[r]
                        if eq:
                            equations.append(eq)
                else:
                    exprs[h] = tuple(mixed)
                    actions[h] = _quotient_action(h)
                    nxt.append(h)
        frontier = nxt
    group_order = len(exprs)
    dim_crossed = nunk - _rank_of_masks(equations, nunk)

    # principal maps p -> (g -> p + g.p); kernel = invariant classes
    stacked = []
    for x in gens:
        act = _quotient_action(x)
        for r in range(d):
            stacked.append(act[r] ^ (1 << r))
    dim_invariants = d - _rank_of_masks(stacked, d)
    dim_principal = d - dim_invariants
    return {
        "n": n,
        "group_order": group_order,
        "dim_crossed": dim_crossed,
        "dim_principal": dim_principal,
        "dim_invariants": dim_invariants,
        "h1_dim": dim_crossed - dim_principal,
    }


def index_two_intersection(n):
    """The determinant, permutation-parity, and sign-parity kernels of
    the full signed-permutation group, and their intersection."""
    group = full_group(n)
    det_ker = {m for m in group if det(m) == 1}
    perm_ker = {m for m in group if perm_parity(m.perm) == 0}
    sign_ker = {m for m in group if m.signs.count(-1) % 2 == 0}
    inter = det_ker & perm_ker & sign_ker
    return {
        "order": len(group),
        "det_kernel": len(det_ker),
        "perm_kernel": len(perm_ker),
        "sign_kernel": len(sign_ker),
        "intersection": len(inter),
        "intersection_is_H": inter == set(subgroup_H(n)),
    }


def tower_report(n):
    """Order, perfectness, and first-cohomology dimension for one n."""
    group = subgroup_H(n)
    hom = crossed_hom_space(n)
    return {
        "n": n,
        "order": len(group),
        "perfect": is_perfect(group),
        "h1_dim": hom["h1_dim"],
        "dim_crossed": hom["dim_crossed"],
        "dim_principal": hom["dim_principal"],
    }
