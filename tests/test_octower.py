import itertools
import random
from math import factorial

import pytest

from thetaforge.cliffcode import (
    CliffordWord, SignedMatrix, beta_form_check, pair_form_sweep,
)
from thetaforge.octower import (
    Chain, crossed_hom_space, group_order, h_generators, is_perfect,
    tower_report, _quotient_action,
)


# ---------------------------------------------------------------------------
# References: listed groups, the listing closure and the Cayley-graph walk,
# and the index-two kernels, which no command needs
# ---------------------------------------------------------------------------

def perm_parity(perm):
    n = len(perm)
    return sum(perm[i] > perm[j] for i in range(n)
               for j in range(i + 1, n)) % 2


def det(m):
    return (-1) ** (m.signs.count(-1) + perm_parity(m.perm))


def _kernel_generators(gens, chi):
    """Schreier generators of the kernel of a character chi = +-1 on the
    group generated by gens, for the transversal {1, t} with chi(t) = -1:
    for u in {1, t} and each s, the element u.s, times t^-1 when chi(u.s)
    is -1.  A character trivial on every generator keeps the group."""
    t = next((s for s in gens if chi(s) < 0), None)
    if t is None:
        return list(gens)
    out = []
    for u in (SignedMatrix.identity(t.dim), t):
        for s in gens:
            us = u * s
            out.append(us * t.transpose() if chi(us) < 0 else us)
    return out


def index_two_intersection(n):
    """The determinant, permutation-parity, and sign-parity kernels of
    the full signed-permutation group, and their intersection."""
    h = h_generators(n)
    cycle = SignedMatrix(list(range(1, n)) + [0], (1,) * n)
    swap = SignedMatrix([1, 0] + list(range(2, n)), (1,) * n)
    flip = SignedMatrix(range(n), [-1] + [1] * (n - 1))
    full = [cycle, swap, flip]
    characters = (det, lambda m: -1 if perm_parity(m.perm) else 1,
                  lambda m: -1 if m.signs.count(-1) % 2 else 1)
    orders = [group_order(_kernel_generators(full, chi))
              for chi in characters]
    inter = full
    for chi in characters:
        inter = _kernel_generators(inter, chi)
    inter = Chain(n, inter)
    return {
        "order": group_order(full),
        "det_kernel": orders[0],
        "perm_kernel": orders[1],
        "sign_kernel": orders[2],
        "intersection": inter.order(),
        "intersection_is_H": (inter.order() == group_order(h)
                              and all(m in inter for m in h)),
    }


def full_group(n):
    """Reference: all signed permutation matrices, listed; order 2^n n!."""
    return [SignedMatrix(perm, signs)
            for perm in itertools.permutations(range(n))
            for signs in itertools.product((1, -1), repeat=n)]


def subgroup_H(n):
    """Reference: the evenly signed even permutations, listed."""
    return [m for m in full_group(n) if perm_parity(m.perm) == 0
            and m.signs.count(-1) % 2 == 0]


def _closure(generators):
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
        frontier = nxt
    return seen


def _span(candidates):
    """Greedy generating list: a candidate joins only when it lies outside
    the subgroup spanned so far.  Returns (subgroup, generators)."""
    subgroup = {SignedMatrix.identity(candidates[0].dim)}
    gens = []
    for c in candidates:
        if c not in subgroup:
            gens.append(c)
            subgroup = _closure(gens)
    return subgroup, gens


def listing_is_perfect(elements):
    """Reference: perfectness of a listed group by closing sets, the normal
    closure of the generator commutators compared with the whole list."""
    if not elements:
        return True
    _, gens = _span(elements)
    if not gens:
        return True
    derived, dgens = _span([a * b * a.transpose() * b.transpose()
                            for a in gens for b in gens])
    while True:
        extra = [s.transpose() * d * s for s in gens for d in dgens]
        extra = [c for c in extra if c not in derived]
        if not extra:
            return derived == set(elements)
        derived, dgens = _span(dgens + extra)


def alternating_generators(n):
    """A 3-cycle and a long even cycle generating the alternating group."""
    a = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2:
        b = tuple(list(range(1, n)) + [0])
    else:
        b = tuple([0] + list(range(2, n)) + [1])
    assert perm_parity(a) == 0 and perm_parity(b) == 0
    return a, b


def _compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def _rank_f2(masks):
    rank, rows = 0, [m for m in masks if m]
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def cayley_crossed_hom_space(n):
    """Reference: the crossed-homomorphism dimensions by walking the
    Cayley graph of A_n on two generators, one cocycle equation per edge
    that closes a cycle; also returns the group order the walk finds."""
    d = n - 1
    gens = alternating_generators(n)
    ident = tuple(range(n))
    exprs = {ident: (0,) * d}
    equations = []
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            act = _quotient_action(g)
            for k, x in enumerate(gens):
                h = _compose(g, x)
                # f(gx) = f(g) + g.f(x), unknowns of f(x) at bits k*d..
                mixed = tuple(exprs[g][r] ^ (act[r] << (k * d))
                              for r in range(d))
                if h in exprs:
                    equations += [a ^ b for a, b in zip(exprs[h], mixed)]
                else:
                    exprs[h] = mixed
                    nxt.append(h)
        frontier = nxt
    dim_crossed = 2 * d - _rank_f2(equations)
    stacked = [row ^ (1 << r) for x in gens
               for r, row in enumerate(_quotient_action(x))]
    dim_principal = _rank_f2(stacked)
    return {"n": n, "group_order": len(exprs), "dim_crossed": dim_crossed,
            "dim_principal": dim_principal,
            "dim_invariants": d - dim_principal,
            "h1_dim": dim_crossed - dim_principal}


def _mat_vec_bits(rows, vec):
    out = 0
    for r, row in enumerate(rows):
        if bin(row & vec).count("1") % 2:
            out |= 1 << r
    return out


def crossed_hom_solutions(n):
    """Reference: every crossed homomorphism as an explicit map (a dict on
    the group), found by brute force over f(a), f(b); independent of the
    linear-system route of crossed_hom_space."""
    d = n - 1
    a, b = alternating_generators(n)
    space = []
    for bits in range(1 << (2 * d)):
        fa = bits & ((1 << d) - 1)
        fb = bits >> d
        f = {tuple(range(n)): 0, a: fa}
        ok = True
        frontier = [tuple(range(n)), a]
        if b in f:
            ok = f[b] == fb
        else:
            f[b] = fb
            frontier.append(b)
        while frontier and ok:
            nxt = []
            for g in frontier:
                act = _quotient_action(g)
                for x, fx in ((a, fa), (b, fb)):
                    h = _compose(g, x)
                    val = f[g] ^ _mat_vec_bits(act, fx)
                    if h in f:
                        if f[h] != val:
                            ok = False
                            break
                    else:
                        f[h] = val
                        nxt.append(h)
                if not ok:
                    break
            frontier = nxt
        if ok:
            space.append(f)
    return space


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------

def test_subgroup_sizes():
    for n in (3, 4, 5, 6):
        listed = subgroup_H(n)
        assert group_order(h_generators(n)) == len(listed)
        assert group_order(listed) == len(listed)
    for n in range(3, 13):
        assert group_order(h_generators(n)) == (
            factorial(n) // 2 * 2 ** (n - 1))
    for n in (2, 13):
        with pytest.raises(ValueError):
            h_generators(n)
    for n in (2, 13):
        with pytest.raises(ValueError):
            crossed_hom_space(n)


def test_chain_membership_matches_listing():
    rng = random.Random(3)
    g4 = full_group(4)
    for _ in range(20):
        gens = rng.sample(g4, rng.randint(1, 3))
        listed = _closure(gens)
        chain = Chain(4, gens)
        assert chain.order() == len(listed)
        assert all(m in chain for m in listed)
        assert sum(m in chain for m in g4) == len(listed)
        # the generators that extend the chain give the same chain order
        kept = Chain(4)
        kept_gens = [m for m in gens if kept.extend(m)]
        assert group_order(kept_gens) == len(listed)


def test_full_group_order_and_det():
    rng = random.Random(2)
    for n in (2, 3, 4):
        g = full_group(n)
        assert len(g) == 2 ** n * [1, 1, 2, 6, 24][n]
        assert group_order(g) == len(g)
    elems = full_group(3)
    for _ in range(100):
        a, b = rng.choice(elems), rng.choice(elems)
        assert det(a * b) == det(a) * det(b)


def test_perfectness():
    assert not is_perfect(h_generators(3))
    assert not is_perfect(h_generators(4))
    assert is_perfect(h_generators(5))
    assert is_perfect([])
    assert is_perfect([SignedMatrix.identity(3)])
    # plain alternating groups for comparison
    a5 = [m for m in subgroup_H(5) if m.signs == (1,) * 5]
    assert len(a5) == 60
    assert is_perfect(a5)
    a4 = [m for m in subgroup_H(4) if m.signs == (1,) * 4]
    assert not is_perfect(a4)
    # the answer is about the group the elements generate
    lead = [SignedMatrix(p, (1,) * 5) for p in alternating_generators(5)]
    assert is_perfect(lead)
    assert not is_perfect(lead[:1])
    # H(n) is perfect from n = 5 on
    for n in range(5, 13):
        assert is_perfect(h_generators(n)), n


def test_perfectness_matches_listing_reference():
    for n in (3, 4, 5):
        assert is_perfect(h_generators(n)) == listing_is_perfect(
            subgroup_H(n))
    rng = random.Random(11)
    for n in (3, 4):
        g = full_group(n)
        for _ in range(40):
            gens = rng.sample(g, rng.randint(1, 3))
            listed = sorted(_closure(gens), key=lambda m: (m.perm, m.signs))
            assert is_perfect(gens) == listing_is_perfect(listed)
            assert is_perfect(listed) == is_perfect(gens)


def multiplication_table(elements):
    index = {m: i for i, m in enumerate(elements)}
    mul = [[index[a * b] for b in elements] for a in elements]
    inv = [index[m.transpose()] for m in elements]
    return index, mul, inv


def brute_force_is_perfect(ids, mul, inv):
    """Reference: close the set of all pairwise commutators of a group,
    given as indices into a multiplication table, by multiplying out."""
    derived = {mul[mul[a][b]][mul[inv[a]][inv[b]]] for a in ids for b in ids}
    frontier = list(derived)
    while frontier:
        new = {mul[x][y] for x in frontier for y in derived} - derived
        derived |= new
        frontier = list(new)
    return len(derived) == len(set(ids))


def test_perfectness_matches_brute_force_reference():
    g4 = full_group(4)
    # the three index-two kernels; H_4 runs the conjugation loop
    groups = [[m for m in g4 if det(m) == 1],
              [m for m in g4 if perm_parity(m.perm) == 0],
              [m for m in g4 if m.signs.count(-1) % 2 == 0], subgroup_H(4)]
    rng = random.Random(5)
    for _ in range(30):
        gens = rng.sample(g4, rng.randint(1, 3))
        seen = {SignedMatrix.identity(4)}
        frontier = list(seen)
        while frontier:
            frontier = [g * s for g in frontier for s in gens
                        if g * s not in seen]
            seen.update(frontier)
        groups.append(sorted(seen, key=lambda m: (m.perm, m.signs)))
    index, mul, inv = multiplication_table(g4)
    for group in groups:
        ids = [index[m] for m in group]
        assert is_perfect(group) == brute_force_is_perfect(ids, mul, inv)
    # whole groups with their own tables; A_5 is the perfect case.  Led
    # by a 3-cycle and a 5-cycle, A_5 gets two generators whose
    # commutators span a cyclic group: only conjugation reaches [G, G].
    a5 = [m for m in subgroup_H(5) if m.signs == (1,) * 5]
    lead = [SignedMatrix(p, (1,) * 5) for p in alternating_generators(5)]
    a5_led = lead + [m for m in a5 if m not in lead]
    for group in (full_group(3), a5, a5_led):
        _, mul, inv = multiplication_table(group)
        assert is_perfect(group) == brute_force_is_perfect(
            range(len(group)), mul, inv)
    assert is_perfect(a5) and is_perfect(a5_led)


def test_perfectness_n6():
    gens = h_generators(6)
    assert group_order(gens) == 11520
    assert is_perfect(gens)


# ---------------------------------------------------------------------------
# Crossed homomorphisms
# ---------------------------------------------------------------------------

def test_alternating_generators_generate():
    for n in (3, 4, 5, 6):
        a, b = alternating_generators(n)
        assert perm_parity(a) == 0 and perm_parity(b) == 0
        report = crossed_hom_space(n)
        assert report["group_order"] == [6, 24, 120, 720][n - 3] // 2
    # the presentation route against the Cayley-graph walk
    for n in range(3, 9):
        walked = cayley_crossed_hom_space(n)
        assert crossed_hom_space(n) == walked, n
        assert walked["group_order"] == factorial(n) // 2


def test_quotient_action_is_homomorphism():
    rng = random.Random(4)
    n = 5
    perms = [tuple(rng.sample(range(n), n)) for _ in range(20)]
    for g in perms:
        for h in perms[:5]:
            gh = _compose(g, h)
            for vec in range(1 << (n - 1)):
                lhs = _mat_vec_bits(_quotient_action(gh), vec)
                rhs = _mat_vec_bits(_quotient_action(g),
                                    _mat_vec_bits(_quotient_action(h), vec))
                assert lhs == rhs


def test_crossed_hom_dimensions():
    for n, h1 in ((3, 0), (5, 0), (6, 0)):
        report = crossed_hom_space(n)
        assert report["h1_dim"] == h1, report
        assert report["dim_invariants"] == 0
        assert report["dim_principal"] == n - 1
    # below the stable range the quotient can be nonzero
    assert crossed_hom_space(4)["h1_dim"] == 1
    for n in range(7, 13):
        report = crossed_hom_space(n)
        assert report["group_order"] == factorial(n) // 2
        assert report["h1_dim"] == 0
        assert report["dim_crossed"] == report["dim_principal"] == n - 1


def test_crossed_hom_solution_count_matches_dimension():
    for n in (3, 4, 5):
        report = crossed_hom_space(n)
        sols = crossed_hom_solutions(n)
        assert len(sols) == 1 << report["dim_crossed"]


def test_crossed_hom_solutions_satisfy_cocycle_rule():
    n = 4
    sols = crossed_hom_solutions(n)
    group = list(sols[0].keys())
    assert len(group) == 12
    for f in sols:
        for g in group:
            act = _quotient_action(g)
            for h in group:
                assert f[_compose(g, h)] == f[g] ^ _mat_vec_bits(act, f[h])


def test_principal_maps_are_solutions():
    n = 5
    a, b = alternating_generators(n)
    sols = {(f[a], f[b]) for f in crossed_hom_solutions(n)}
    for p in range(1 << (n - 1)):
        fa = p ^ _mat_vec_bits(_quotient_action(a), p)
        fb = p ^ _mat_vec_bits(_quotient_action(b), p)
        assert (fa, fb) in sols


def test_beta_form_full_sweep():
    assert beta_form_check()


def test_beta_form_examples():
    a = CliffordWord.from_support(8, [0, 1])
    b = CliffordWord.from_support(8, [2, 3])
    assert a * b == b * a
    c = CliffordWord.from_support(8, [1, 2])
    assert a * c == -(c * a)
    count, ok = pair_form_sweep()
    assert count == 28 and ok


def test_index_two_subgroups_intersect_in_H():
    for n in (3, 4, 5, 6):
        report = index_two_intersection(n)
        assert report["order"] == 2 ** n * factorial(n)
        assert report["det_kernel"] == report["order"] // 2
        assert report["perm_kernel"] == report["order"] // 2
        assert report["sign_kernel"] == report["order"] // 2
        assert report["intersection"] == report["order"] // 4
        assert report["intersection_is_H"]
    # against the listed kernels
    for n in (3, 4):
        group = full_group(n)
        det_ker = {m for m in group if det(m) == 1}
        perm_ker = {m for m in group if perm_parity(m.perm) == 0}
        sign_ker = {m for m in group if m.signs.count(-1) % 2 == 0}
        inter = det_ker & perm_ker & sign_ker
        assert index_two_intersection(n) == {
            "order": len(group), "det_kernel": len(det_ker),
            "perm_kernel": len(perm_ker), "sign_kernel": len(sign_ker),
            "intersection": len(inter),
            "intersection_is_H": inter == set(subgroup_H(n))}


def test_tower_report():
    r5 = tower_report(5)
    assert r5 == {"n": 5, "order": 960, "perfect": True, "h1_dim": 0,
                  "dim_crossed": 4, "dim_principal": 4}
    r4 = tower_report(4)
    assert r4["order"] == 96 and not r4["perfect"]
