import gc
import hashlib
import json
import random
import tracemalloc

import pytest

from thetaforge.cliffcode import (
    E_MATRICES, REAL_PAULIS, SIGMA0, SIGMA1, SIGMA3, CliffordWord,
    SignedMatrix, all_words, bott_check, conjugation_rep, diagonal_tensor,
    fano_laws, full_rep, group_structure_check, hamming_word_lift,
    induced_character_check, matrix_diag_bits, omega, pauli_hamming,
    spinor_rep, tensor_all, tensor_split, triality_kernels, verify_all,
    _beta,
)
from thetaforge.fpcode import (
    FANO_B_VECTORS, FANO_C_VECTORS, FANO_LINES_FIRST, FANO_LINES_SECOND,
    standard_codes,
)


def from_rows(rows):
    """A SignedMatrix from its rows, each checked to hold one +-1: the
    reference the derived matrices are compared with.  No command builds a
    matrix from rows, so this lives here and not in cliffcode."""
    perm = []
    signs = []
    for row in rows:
        nz = [(j, v) for j, v in enumerate(row) if v]
        if len(nz) != 1 or nz[0][1] not in (1, -1):
            raise ValueError("row is not signed-unit")
        perm.append(nz[0][0])
        signs.append(nz[0][1])
    return SignedMatrix(perm, signs)


def test_fano_structures_build_and_laws():
    assert fano_laws() is True
    assert len(FANO_LINES_FIRST) == 7 and len(FANO_LINES_SECOND) == 7
    # complement-pair law at every index
    for i in range(1, 8):
        assert FANO_B_VECTORS[i] ^ FANO_C_VECTORS[i] == (
            frozenset(range(1, 8)) - {i})
    # b-sums vanish exactly on second-picture lines
    assert FANO_B_VECTORS[1] ^ FANO_B_VECTORS[2] == FANO_B_VECTORS[3]
    assert frozenset({1, 2, 3}) in FANO_LINES_SECOND
    # incidence diagonal symmetry: point j is on first-picture Line i
    # exactly when point i is on second-picture Line j, and Line i of
    # neither picture holds point i
    for i in range(1, 8):
        assert i not in FANO_LINES_FIRST[i - 1] | FANO_LINES_SECOND[i - 1]
        for j in range(1, 8):
            if i != j:
                assert (j in FANO_LINES_FIRST[i - 1]) == (
                    i in FANO_LINES_SECOND[j - 1])


def test_word_mul_examples():
    g = CliffordWord.generator(8, 0) * CliffordWord.generator(8, 1)
    sq = g * g
    assert sq == CliffordWord(8, -1, 0)
    w = omega(8)
    assert w * w == CliffordWord.identity(8)
    a = CliffordWord.from_support(8, [2, 5, 7], sign=-1)
    assert a * CliffordWord.identity(8) == a
    assert CliffordWord.identity(8) * a == a


def test_word_mul_associativity_and_inverse():
    rng = random.Random(5)
    words = all_words(6)
    for _ in range(200):
        a, b, c = (rng.choice(words) for _ in range(3))
        assert (a * b) * c == a * (b * c)
    for w in all_words(5):
        assert w * w.inverse() == CliffordWord.identity(5)


def reference_mul(a, b):
    """The swap-counting product that the cocycle replaced: the sign
    counts the transpositions that normal-order the product and the
    squares e_t e_t = -1."""
    swaps = 0
    sb = b.bits
    while sb:
        t = (sb & -sb).bit_length() - 1
        swaps += bin(a.bits >> (t + 1)).count("1")
        sb &= sb - 1
    squares = bin(a.bits & b.bits).count("1")
    sign = a.sign * b.sign * (-1 if (swaps + squares) % 2 else 1)
    return CliffordWord(a.n, sign, a.bits ^ b.bits)


def reference_inverse(w):
    """The closed-form inverse the cocycle replaced:
    w * w = (-1)^(C(k,2) + k) with k the weight."""
    k = bin(w.bits).count("1")
    return CliffordWord(w.n, -w.sign if (k * (k - 1) // 2 + k) % 2
                        else w.sign, w.bits)


def test_table_product_and_inverse_match_reference():
    for n in range(1, 9):
        words = all_words(n)
        for a in words:
            assert a.inverse() == reference_inverse(a)
            for b in words:
                assert a * b == reference_mul(a, b), (a, b)


def literal_sign(a, b, n):
    """The sign exponent of e_a e_b, found by writing out the symbols of
    the two normal-ordered words and sorting them: one sign per adjacent
    swap of two different symbols, then one per e_t e_t = -1."""
    symbols = ([t for t in range(n) if a >> t & 1]
               + [t for t in range(n) if b >> t & 1])
    sign = 0
    for end in range(len(symbols) - 1, 0, -1):
        for j in range(end):
            if symbols[j] > symbols[j + 1]:
                symbols[j], symbols[j + 1] = symbols[j + 1], symbols[j]
                sign ^= 1
    left = []
    for t in symbols:
        if left and left[-1] == t:
            left.pop()
            sign ^= 1
        else:
            left.append(t)
    assert left == [t for t in range(n) if (a ^ b) >> t & 1]
    return sign


def test_beta_matches_literal_products():
    for n in range(1, 7):
        for a in range(1 << n):
            for b in range(1 << n):
                assert _beta(a, b) == literal_sign(a, b, n), (n, a, b)
    rng = random.Random(26)
    for n in (7, 8):
        for _ in range(2000):
            a, b = rng.randrange(1 << n), rng.randrange(1 << n)
            assert _beta(a, b) == literal_sign(a, b, n), (n, a, b)


def test_word_validation():
    for n in (0, 9):
        with pytest.raises(ValueError):
            CliffordWord(n, 1, 0)
    with pytest.raises(ValueError):
        CliffordWord(4, 2, 0)
    with pytest.raises(ValueError):
        CliffordWord(4, 1, 1 << 4)
    with pytest.raises(ValueError):
        CliffordWord.from_support(4, [1, 1])
    with pytest.raises(ValueError):
        CliffordWord.identity(4) * CliffordWord.identity(5)


def test_pauli_diagonals_give_length8_code():
    group, checks = pauli_hamming()
    assert checks["group_size"] == 16
    assert checks["patterns_match_code"]
    assert matrix_diag_bits(diagonal_tensor(0, 0, 0)) == (0,) * 8
    signs = diagonal_tensor(1, 1, 1).signs
    assert signs == (1, -1, -1, 1, -1, 1, 1, -1)
    patterns = {matrix_diag_bits(m) for _, m in group}
    assert patterns == set(standard_codes("hamming8").words)


def test_e_matrix_relations():
    I8 = SignedMatrix.identity(8)
    for E in E_MATRICES:
        assert E * E == -I8
        assert E.transpose() * E == I8
    for i in range(7):
        for j in range(i + 1, 7):
            lhs = E_MATRICES[i] * E_MATRICES[j]
            rhs = E_MATRICES[j] * E_MATRICES[i]
            assert lhs == -rhs


def test_signed_matrix_algebra():
    rng = random.Random(9)
    for _ in range(50):
        perm = list(range(6))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(6)]
        m = SignedMatrix(tuple(perm), tuple(signs))
        assert m.transpose() * m == SignedMatrix.identity(6)
        back = from_rows(m.rows())
        assert back == m
    a = SIGMA1.tensor(SIGMA3)
    rows = a.rows()
    assert rows[0] == [0, 0, 1, 0] and rows[3] == [0, -1, 0, 0]


def test_derived_matrices_match_validated_construction():
    """Products, negations, transposes and tensors skip re-validation; each
    must equal the matrix built from its rows through every check."""
    rng = random.Random(13)

    def random_matrix(dim):
        perm = rng.sample(range(dim), dim)
        return SignedMatrix(perm, [rng.choice((1, -1)) for _ in range(dim)])

    for _ in range(100):
        dim = rng.randint(1, 6)
        a, b = random_matrix(dim), random_matrix(dim)
        rows_a, rows_b = a.rows(), b.rows()
        matmul = [[sum(rows_a[i][k] * rows_b[k][j] for k in range(dim))
                   for j in range(dim)] for i in range(dim)]
        assert a * b == from_rows(matmul)
        assert -a == from_rows([[-v for v in row]
                                             for row in rows_a])
        assert a.transpose() == from_rows(
            [list(col) for col in zip(*rows_a)])
        c = random_matrix(rng.randint(1, 3))
        rows_c = c.rows()
        kron = [[rows_a[i // c.dim][j // c.dim] * rows_c[i % c.dim][j % c.dim]
                 for j in range(dim * c.dim)] for i in range(dim * c.dim)]
        assert a.tensor(c) == from_rows(kron)
        for m in (a * b, -a, a.transpose(), a.tensor(c)):
            assert m == from_rows(m.rows())
            assert m.dim == len(m.perm) == len(m.signs)
            assert type(m.perm) is tuple and type(m.signs) is tuple
    for perm, signs in (((0, 0), (1, 1)), ((0, 2), (1, 1)), ((1, 0), (1,)),
                        ((1, 0), (1, 2)), ((0, 1), (1, 0))):
        with pytest.raises(ValueError):
            SignedMatrix(perm, signs)
    for rows in ([[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0, 0], [0, 1]],
                 [[1, 0], [-1, 0]]):
        with pytest.raises(ValueError):
            from_rows(rows)


def test_spinor_rep_generators_and_center():
    g1 = CliffordWord.generator(8, 0) * CliffordWord.generator(8, 1)
    assert spinor_rep(1, g1) == E_MATRICES[0]
    assert spinor_rep(-1, g1) == -E_MATRICES[0]
    one = CliffordWord.identity(8)
    assert spinor_rep(1, one) == SignedMatrix.identity(8)
    assert spinor_rep(-1, one) == SignedMatrix.identity(8)
    assert spinor_rep(1, -one) == -SignedMatrix.identity(8)
    with pytest.raises(ValueError):
        spinor_rep(1, CliffordWord.generator(8, 3))


def test_spinor_rep_is_homomorphism_on_even_part():
    for which in (1, -1):
        image = {}
        for bits in range(256):
            if bin(bits).count("1") % 2 == 0:
                for s in (1, -1):
                    w = CliffordWord(8, s, bits)
                    image[w] = spinor_rep(which, w)
        positives = [w for w in image if w.sign == 1]
        for a in positives:
            for b in positives:
                assert image[a] * image[b] == image[a * b]


def test_b_words_act_by_coordinate_permutations():
    listed = {
        1: (SIGMA0, SIGMA0, SIGMA1),
        2: (SIGMA0, SIGMA1, SIGMA0),
        3: (SIGMA0, SIGMA1, SIGMA1),
        4: (SIGMA1, SIGMA0, SIGMA0),
        5: (SIGMA1, SIGMA0, SIGMA1),
        6: (SIGMA1, SIGMA1, SIGMA0),
        7: (SIGMA1, SIGMA1, SIGMA1),
    }
    for i in range(1, 8):
        target = tensor_all(list(listed[i]))
        w = CliffordWord.from_support(8, sorted(FANO_B_VECTORS[i]))
        img = spinor_rep(1, w)
        # one of the two lifts hits the bare permutation exactly
        assert img in (target, -target)
        lift = w if img == target else -w
        assert spinor_rep(1, lift) == target
        # the permutation is the xor-by-i pattern in the binary numbering
        assert target.perm == tuple(r ^ i for r in range(8))


def test_plus_map_image_of_lifted_subgroup_is_diagonal_group():
    tensors = {m for _, m in pauli_hamming()[0]}
    # the lifted code subgroup: both signs of each section word
    section = hamming_word_lift().values()
    subgroup = set(section) | {-w for w in section}
    assert len(subgroup) == 32
    assert {spinor_rep(1, w) for w in subgroup} == tensors
    assert {spinor_rep(-1, w) for w in subgroup} == tensors
    # each section word lands on its own sign pattern up to global sign
    for h, w in hamming_word_lift().items():
        m = spinor_rep(1, w)
        assert m.perm == tuple(range(8))
        assert matrix_diag_bits(m) == h or matrix_diag_bits(-m) == h


def test_minus_map_differs_by_parity_slot_character():
    for bits in range(256):
        if bin(bits).count("1") % 2:
            continue
        w = CliffordWord(8, 1, bits)
        plus = spinor_rep(1, w)
        minus = spinor_rep(-1, w)
        if bits & 1:
            assert minus == -plus
        else:
            assert minus == plus


def test_induced_characters_match_traces():
    report = induced_character_check()
    assert report["dimension_plus"] == 8
    assert report["dimension_minus"] == 8
    assert report["value_at_minus_one"] == -8
    assert report["plus_matches"] and report["minus_matches"]
    assert report["pass"]


def test_characters_vanish_off_subgroup_and_split_on_it():
    code = standard_codes("hamming8")
    for bits in range(256):
        if bin(bits).count("1") % 2:
            continue
        w = CliffordWord(8, 1, bits)
        tp = spinor_rep(1, w).trace()
        tm = spinor_rep(-1, w).trace()
        word = tuple((bits >> i) & 1 for i in range(8))
        if word not in code.word_set:
            assert tp == 0 and tm == 0
        elif bits & 1:
            assert tm == -tp
        else:
            assert tm == tp


def test_triality_kernels():
    report = triality_kernels()
    assert report["pass"]
    assert report["kernels"]["delta_plus"] == ["1", "omega"]
    assert report["kernels"]["delta_minus"] == ["-omega", "1"]
    assert report["kernels"]["pi"] == ["-1", "1"]
    w = omega(8)
    assert spinor_rep(1, w) == SignedMatrix.identity(8)
    assert spinor_rep(-1, -w) == SignedMatrix.identity(8)
    assert spinor_rep(1, -w) == -SignedMatrix.identity(8)


def test_conjugation_rep_values():
    e0 = CliffordWord.generator(8, 0)
    m = conjugation_rep(e0)
    assert m.signs == (1,) + (-1,) * 7
    one = CliffordWord.identity(8)
    assert conjugation_rep(-one) == SignedMatrix.identity(8)
    assert conjugation_rep(omega(8)) == -SignedMatrix.identity(8)


def test_tensor_split_roundtrip_and_rejection():
    rng = random.Random(3)
    for _ in range(40):
        factors = [rng.choice(REAL_PAULIS) for _ in range(4)]
        sign = rng.choice((1, -1))
        m = tensor_all(factors)
        got, s = tensor_split(m if sign == 1 else -m)
        assert got == factors and s == sign
    bad = from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    with pytest.raises(ValueError):
        tensor_split(bad)
    # the top rows meet both column halves
    mixed = SignedMatrix((0, 2, 1, 3), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        tensor_split(mixed)


def test_periodicity_rank_and_tensor_images():
    report = bott_check()
    assert report["rank"] == 256
    assert report["images_are_tensors"]
    assert report["tensor_map_onto"]
    assert report["generator_relations"]
    assert report["restriction_splits"]
    assert report["anchors"] == {"omega": True, "e1": True,
                                 "minus_one": True}
    assert report["pass"]
    assert full_rep(omega(8)) == tensor_all([SIGMA3, SIGMA0, SIGMA0, SIGMA0])
    assert full_rep(-CliffordWord.identity(8)) == -SignedMatrix.identity(16)


def test_full_rep_images_pinned():
    images = [full_rep(CliffordWord(8, s, bits))
              for bits in range(256) for s in (1, -1)]
    text = json.dumps([[list(m.perm), list(m.signs)] for m in images])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "70e01226a5aa89ac13199255f5072fb41849d6f8fd56278469813ba88cc516c3")


def test_spinor_and_conjugation_images_pinned():
    """Every image of both spinor maps and of the conjugation map, pinned
    from the word-by-word constructions the image and cocycle tables
    replaced."""
    def digest(images):
        text = json.dumps([[list(m.perm), list(m.signs)] for m in images])
        return hashlib.sha256(text.encode()).hexdigest()

    evens = all_words(8, even_only=True)
    assert digest(spinor_rep(1, w) for w in evens) == (
        "07b3eb7264d461fdac07ed4389922f4ab5be5483cb22c8bb326422f9e54e3e65")
    assert digest(spinor_rep(-1, w) for w in evens) == (
        "68d6b3bab0ee42b4609ba4614feb6341a96b10d978dbd7142772c6a85d276a3b")
    assert digest(conjugation_rep(w) for w in all_words(8)) == (
        "9d923a8f8bda1d20ec89d53f78e0f9bd22cb2c2d5395156709848bd697d9fdb6")
    # the seven generators themselves, as dense rows
    text = json.dumps([m.rows() for m in E_MATRICES])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d6b505f8997af946995da2dcd55face334d5cf74e8a5b296968368bbbf9d456c")


def test_group_structure():
    report = group_structure_check()
    assert report["order_512"]
    assert report["even_order_256"]
    assert report["centre_is_four_group"]
    assert report["semidirect_factorization"]
    assert report["conjugation_pairing_law"]
    assert report["odd_coset_partition"]
    assert report["commutation_matches_pairing"]
    assert report["pass"]


def test_commutation_law_spot_checks():
    # disjoint even supports commute, odd overlap anticommutes
    a = CliffordWord.from_support(8, [0, 1])
    b = CliffordWord.from_support(8, [2, 3])
    assert a * b == b * a
    c = CliffordWord.from_support(8, [1, 2])
    assert a * c == -(c * a)


def test_verify_all_passes():
    report = verify_all()
    assert report["pass"]
    for key in ("fano", "pauli_code", "group", "induced_characters",
                "triality", "periodicity"):
        assert report[key]["pass"]


def test_bott_check_memory():
    # desk's memory peaks in the clifford stage.  Tuples made by tuple()
    # of a generator bypass CPython's tuple free lists when made and join
    # them when freed: 256 images of that kind kept 0.58 MB there after
    # bott_check.  Holding the 256 images as well peaked at 0.84 MB; the
    # rows of the rank check alone take about 0.55 MB
    bott_check()
    gc.collect()                  # a full collection empties the free lists
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert bott_check()["pass"]
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert kept < 1e5, kept / 1e6
    assert peak < 7e5, peak / 1e6
