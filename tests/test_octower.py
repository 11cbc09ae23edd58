import random

import pytest

from thetaforge.cliffcode import (
    CliffordWord, SignedMatrix, beta_form_check, pair_form_sweep,
)
from thetaforge.octower import (
    alternating_generators, crossed_hom_space, det, full_group,
    index_two_intersection, is_perfect, perm_parity, subgroup_H,
    tower_report, _compose, _quotient_action,
)


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


def test_subgroup_sizes():
    assert len(subgroup_H(3)) == 12
    assert len(subgroup_H(4)) == 96
    assert len(subgroup_H(5)) == 960
    with pytest.raises(ValueError):
        subgroup_H(7)
    with pytest.raises(ValueError):
        subgroup_H(2)


def test_full_group_order_and_det():
    rng = random.Random(2)
    for n in (2, 3, 4):
        g = full_group(n)
        assert len(g) == 2 ** n * [1, 1, 2, 6, 24][n]
    elems = full_group(3)
    for _ in range(100):
        a, b = rng.choice(elems), rng.choice(elems)
        assert det(a * b) == det(a) * det(b)


def test_perfectness():
    assert not is_perfect(subgroup_H(3))
    assert not is_perfect(subgroup_H(4))
    assert is_perfect(subgroup_H(5))
    assert is_perfect([])
    assert is_perfect([SignedMatrix.identity(3)])
    # plain alternating groups for comparison
    a5 = [m for m in subgroup_H(5) if m.signs == (1,) * 5]
    assert not is_perfect(a5) or len(a5) == 60
    assert is_perfect(a5)
    a4 = [m for m in subgroup_H(4) if m.signs == (1,) * 4]
    assert not is_perfect(a4)


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
    H = subgroup_H(6)
    assert len(H) == 11520
    assert is_perfect(H)


def test_alternating_generators_generate():
    for n in (3, 4, 5, 6):
        a, b = alternating_generators(n)
        assert perm_parity(a) == 0 and perm_parity(b) == 0
        report = crossed_hom_space(n)
        assert report["group_order"] == [6, 24, 120, 720][n - 3] // 2


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
    for n in (3, 4):
        report = index_two_intersection(n)
        assert report["order"] == 2 ** n * [1, 1, 2, 6, 24][n]
        assert report["det_kernel"] == report["order"] // 2
        assert report["perm_kernel"] == report["order"] // 2
        assert report["sign_kernel"] == report["order"] // 2
        assert report["intersection_is_H"]


def test_tower_report():
    r5 = tower_report(5)
    assert r5 == {"n": 5, "order": 960, "perfect": True, "h1_dim": 0,
                  "dim_crossed": 4, "dim_principal": 4}
    r4 = tower_report(4)
    assert r4["order"] == 96 and not r4["perfect"]
