"""The Fano plane, Clifford word groups, and spinor representations.

Builds the two Fano numberings with their incidence duality, the length-8
binary code sitting inside the diagonal Pauli tensors, the extraspecial
2-group of Clifford words, the two 8-dimensional spinor representations
realized by seven explicit signed matrices, their induced characters, the
triality kernel data, and the 16x16 periodicity representation.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .fpcode import (
    FANO_B_VECTORS, FANO_C_VECTORS, FANO_LINES_FIRST, FANO_LINES_SECOND,
    make_code, standard_codes,
)
from .linalg import row_reduce_mod_p

FANO_POINTS = frozenset(range(1, 8))


# ---------------------------------------------------------------------------
# Fano plane with both numberings
# ---------------------------------------------------------------------------

class FanoData:
    """Both line numberings, the complement vectors, and the incidence table.

    lines_first / lines_second: Line i (1-indexed) of the two pictures.
    bvecs[i]: complement of first-picture Line i; cvecs[i]: complement of
    second-picture Line i.  incidence[i][j] for i, j in 1..7 says which
    picture's Line i contains point j: "first", "second", or None exactly
    on the diagonal.
    """

    __slots__ = ("lines_first", "lines_second", "bvecs", "cvecs",
                 "incidence")

    def __init__(self, lines_first, lines_second, bvecs, cvecs, incidence):
        self.lines_first = lines_first
        self.lines_second = lines_second
        self.bvecs = bvecs
        self.cvecs = cvecs
        self.incidence = incidence


def fano_structures():
    """Validated Fano data; raises if any structural law fails."""
    lf, ls = FANO_LINES_FIRST, FANO_LINES_SECOND
    bv, cv = FANO_B_VECTORS, FANO_C_VECTORS

    for lines in (lf, ls):
        assert all(len(line) == 3 for line in lines)
        for pt in FANO_POINTS:
            assert sum(1 for line in lines if pt in line) == 3
        for a, b in itertools.combinations(lines, 2):
            assert len(a & b) == 1

    # complement duality per index
    for i in range(1, 8):
        assert bv[i] == FANO_POINTS - lf[i - 1]
        assert cv[i] == FANO_POINTS - ls[i - 1]
        assert bv[i] ^ cv[i] == FANO_POINTS - {i}

    # line addition laws: b-sums follow second-picture lines and vice versa
    for i, j, k in itertools.combinations(range(1, 8), 3):
        assert (bv[i] ^ bv[j] ^ bv[k] == frozenset()) == (
            frozenset({i, j, k}) in ls)
        assert (cv[i] ^ cv[j] ^ cv[k] == frozenset()) == (
            frozenset({i, j, k}) in lf)

    # the two complement spaces (weight 4, so even) split the 6-dimensional
    # even-weight space; with the full set C spans the length-7 code
    B = [[int(i in v) for i in range(8)] for v in bv[1:]]
    C = [[int(i in v) for i in range(8)] for v in cv[1:]]
    full = [[int(i in FANO_POINTS) for i in range(8)]]
    assert [len(row_reduce_mod_p(rows, 2)[0])
            for rows in (B, C, B + C, C + full)] == [3, 3, 6, 4]

    incidence = [[None] * 8 for _ in range(8)]
    for i in range(1, 8):
        for j in range(1, 8):
            in_first = j in lf[i - 1]
            in_second = j in ls[i - 1]
            if i == j:
                assert not in_first and not in_second
                continue
            assert in_first != in_second
            incidence[i][j] = "first" if in_first else "second"
    # diagonal symmetry: transposing swaps the two pictures
    for i in range(1, 8):
        for j in range(1, 8):
            if i != j:
                assert (incidence[i][j] == "first") == (
                    incidence[j][i] == "second")

    return FanoData(lf, ls, bv, cv, incidence)


# ---------------------------------------------------------------------------
# Clifford words
# ---------------------------------------------------------------------------

class CliffordWord:
    """A signed normal-ordered word in n anticommuting square-root-of-minus-
    one symbols; support is a bitmask (bit i = symbol i present)."""

    __slots__ = ("n", "sign", "bits")

    def __init__(self, n, sign, bits):
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        bits = int(bits)
        if bits < 0 or bits >> n:
            raise ValueError("support outside 0..n-1")
        self.n = n
        self.sign = sign
        self.bits = bits

    @classmethod
    def identity(cls, n):
        return cls(n, 1, 0)

    @classmethod
    def generator(cls, n, i):
        return cls(n, 1, 1 << i)

    @classmethod
    def from_support(cls, n, indices, sign=1):
        bits = 0
        for i in indices:
            if bits >> i & 1:
                raise ValueError("repeated index %d" % i)
            bits |= 1 << i
        return cls(n, sign, bits)

    @property
    def support(self):
        return tuple(i for i in range(self.n) if self.bits >> i & 1)

    @property
    def weight(self):
        return bin(self.bits).count("1")

    def is_even(self):
        return self.weight % 2 == 0

    def __mul__(self, other):
        return word_mul(self, other)

    def inverse(self):
        # w * w = (-1)^(C(k,2) + k) with k the weight
        k = self.weight
        sq = -1 if (k * (k - 1) // 2 + k) % 2 else 1
        return CliffordWord(self.n, self.sign * sq, self.bits)

    def __neg__(self):
        return CliffordWord(self.n, -self.sign, self.bits)

    def __eq__(self, other):
        return (isinstance(other, CliffordWord) and other.n == self.n
                and other.sign == self.sign and other.bits == self.bits)

    def __hash__(self):
        return hash((self.n, self.sign, self.bits))

    def __repr__(self):
        body = "".join("e%d" % i for i in self.support) or "1"
        return "%s%s" % ("" if self.sign > 0 else "-", body)


def word_mul(a, b):
    """Normal-ordered product; sign from transpositions and squares."""
    if a.n != b.n:
        raise ValueError("words over different symbol counts")
    swaps = 0
    sb = b.bits
    while sb:
        t = (sb & -sb).bit_length() - 1
        swaps += bin(a.bits >> (t + 1)).count("1")
        sb &= sb - 1
    squares = bin(a.bits & b.bits).count("1")
    sign = a.sign * b.sign * (-1 if (swaps + squares) % 2 else 1)
    return CliffordWord(a.n, sign, a.bits ^ b.bits)


def omega(n):
    """The full word e_0 e_1 ... e_{n-1}."""
    return CliffordWord(n, 1, (1 << n) - 1)


def all_words(n, even_only=False):
    """Both signs over all supports, deterministic order."""
    out = []
    for bits in range(1 << n):
        if even_only and bin(bits).count("1") % 2:
            continue
        out.append(CliffordWord(n, 1, bits))
        out.append(CliffordWord(n, -1, bits))
    return out


def _commutation_matches_pairing(n, hb, kb):
    """For even supports h and k the alternating form sum_{i != j} h_i k_j
    is |h & k| mod 2: the lifts commute exactly when that is even."""
    wh = CliffordWord(n, 1, hb)
    wk = CliffordWord(n, 1, kb)
    return (wh * wk == wk * wh) == (bin(hb & kb).count("1") % 2 == 0)


@lru_cache(maxsize=None)
def beta_form_check(n=8):
    """The commutator form against the pairing on all even vectors.

    Cached: the clifford and tower stages of `verify all` both ask for n=8.
    """
    evens = [bits for bits in range(1 << n)
             if bin(bits).count("1") % 2 == 0]
    return all(_commutation_matches_pairing(n, hb, kb)
               for hb in evens for kb in evens)


def pair_form_sweep(n=8):
    """The weight-2 exhaustive comparison: all pairs of length-2 words."""
    pairs = [(1 << i) | (1 << j)
             for i, j in itertools.combinations(range(n), 2)]
    return len(pairs), all(_commutation_matches_pairing(n, s, t)
                           for s in pairs for t in pairs)


# ---------------------------------------------------------------------------
# Signed permutation matrices
# ---------------------------------------------------------------------------

class SignedMatrix:
    """Square matrix with exactly one +-1 entry per row and column."""

    __slots__ = ("dim", "perm", "signs")

    def __init__(self, perm, signs):
        perm = tuple(int(c) for c in perm)
        signs = tuple(int(s) for s in signs)
        dim = len(perm)
        if sorted(perm) != list(range(dim)):
            raise ValueError("rows must hit each column once")
        if len(signs) != dim or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +-1 per row")
        self.dim = dim
        self.perm = perm
        self.signs = signs

    @classmethod
    def _trusted(cls, perm, signs):
        """Unchecked: products of signed permutations are always valid."""
        m = object.__new__(cls)
        m.dim, m.perm, m.signs = len(perm), perm, signs
        return m

    @classmethod
    def identity(cls, dim):
        return cls(tuple(range(dim)), (1,) * dim)

    @classmethod
    def from_rows(cls, rows):
        perm = []
        signs = []
        for row in rows:
            nz = [(j, v) for j, v in enumerate(row) if v]
            if len(nz) != 1 or nz[0][1] not in (1, -1):
                raise ValueError("row is not signed-unit")
            perm.append(nz[0][0])
            signs.append(nz[0][1])
        return cls(perm, signs)

    def rows(self):
        out = [[0] * self.dim for _ in range(self.dim)]
        for r in range(self.dim):
            out[r][self.perm[r]] = self.signs[r]
        return out

    def __mul__(self, other):
        if not isinstance(other, SignedMatrix) or other.dim != self.dim:
            raise ValueError("dimension mismatch")
        perm = tuple(other.perm[self.perm[r]] for r in range(self.dim))
        signs = tuple(self.signs[r] * other.signs[self.perm[r]]
                      for r in range(self.dim))
        return SignedMatrix._trusted(perm, signs)

    def __neg__(self):
        return SignedMatrix._trusted(self.perm, tuple(-s for s in self.signs))

    def transpose(self):
        perm = [0] * self.dim
        signs = [1] * self.dim
        for r in range(self.dim):
            perm[self.perm[r]] = r
            signs[self.perm[r]] = self.signs[r]
        return SignedMatrix._trusted(tuple(perm), tuple(signs))

    def trace(self):
        return sum(self.signs[r] for r in range(self.dim)
                   if self.perm[r] == r)

    def is_identity(self):
        return self == SignedMatrix.identity(self.dim)

    def tensor(self, other):
        dim = self.dim * other.dim
        perm = []
        signs = []
        for a in range(self.dim):
            for b in range(other.dim):
                perm.append(self.perm[a] * other.dim + other.perm[b])
                signs.append(self.signs[a] * other.signs[b])
        return SignedMatrix._trusted(tuple(perm), tuple(signs))

    def __eq__(self, other):
        return (isinstance(other, SignedMatrix) and other.dim == self.dim
                and other.perm == self.perm and other.signs == self.signs)

    def __hash__(self):
        return hash((self.perm, self.signs))

    def __repr__(self):
        return "SignedMatrix(%r)" % (self.rows(),)


SIGMA0 = SignedMatrix((0, 1), (1, 1))
SIGMA1 = SignedMatrix((1, 0), (1, 1))
SIGMA3 = SignedMatrix((0, 1), (1, -1))
SIGMA13 = SIGMA1 * SIGMA3          # [[0,-1],[1,0]], the rotation unit
REAL_PAULIS = (SIGMA0, SIGMA1, SIGMA13, SIGMA3)


def tensor_all(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out.tensor(f)
    return out


# ---------------------------------------------------------------------------
# The Hamming code inside the diagonal Pauli tensors
# ---------------------------------------------------------------------------

def diagonal_tensor(a, b, c, sign=1):
    m = tensor_all([SIGMA3 if x else SIGMA0 for x in (a, b, c)])
    return m if sign > 0 else -m


def matrix_diag_bits(m):
    """Diagonal +-1 matrix -> binary word (1 where the entry is -1)."""
    assert m.perm == tuple(range(m.dim))
    return tuple(0 if s > 0 else 1 for s in m.signs)


def pauli_hamming():
    """The 16 signed diagonal tensors and their identification with the
    length-8 doubly even self-dual code."""
    group = []
    for a, b, c in itertools.product((0, 1), repeat=3):
        for sign in (1, -1):
            group.append(((a, b, c, sign), diagonal_tensor(a, b, c, sign)))
    patterns = {matrix_diag_bits(m) for _, m in group}
    code = standard_codes("hamming8")
    checks = {
        "group_size": len({m for _, m in group}),
        "patterns_match_code": patterns == set(code.words),
        "identity_is_zero_word": matrix_diag_bits(
            diagonal_tensor(0, 0, 0)) == (0,) * 8,
    }
    return group, checks


# ---------------------------------------------------------------------------
# The seven generator matrices, transcribed literally
# ---------------------------------------------------------------------------

E_MATRICES = tuple(SignedMatrix.from_rows(rows) for rows in (
    # E_1
    ((0, -1, 0, 0, 0, 0, 0, 0),
     (1, 0, 0, 0, 0, 0, 0, 0),
     (0, 0, 0, -1, 0, 0, 0, 0),
     (0, 0, 1, 0, 0, 0, 0, 0),
     (0, 0, 0, 0, 0, 1, 0, 0),
     (0, 0, 0, 0, -1, 0, 0, 0),
     (0, 0, 0, 0, 0, 0, 0, 1),
     (0, 0, 0, 0, 0, 0, -1, 0)),
    # E_2
    ((0, 0, -1, 0, 0, 0, 0, 0),
     (0, 0, 0, 1, 0, 0, 0, 0),
     (1, 0, 0, 0, 0, 0, 0, 0),
     (0, -1, 0, 0, 0, 0, 0, 0),
     (0, 0, 0, 0, 0, 0, -1, 0),
     (0, 0, 0, 0, 0, 0, 0, 1),
     (0, 0, 0, 0, 1, 0, 0, 0),
     (0, 0, 0, 0, 0, -1, 0, 0)),
    # E_3
    ((0, 0, 0, -1, 0, 0, 0, 0),
     (0, 0, -1, 0, 0, 0, 0, 0),
     (0, 1, 0, 0, 0, 0, 0, 0),
     (1, 0, 0, 0, 0, 0, 0, 0),
     (0, 0, 0, 0, 0, 0, 0, -1),
     (0, 0, 0, 0, 0, 0, -1, 0),
     (0, 0, 0, 0, 0, 1, 0, 0),
     (0, 0, 0, 0, 1, 0, 0, 0)),
    # E_4
    ((0, 0, 0, 0, -1, 0, 0, 0),
     (0, 0, 0, 0, 0, -1, 0, 0),
     (0, 0, 0, 0, 0, 0, 1, 0),
     (0, 0, 0, 0, 0, 0, 0, 1),
     (1, 0, 0, 0, 0, 0, 0, 0),
     (0, 1, 0, 0, 0, 0, 0, 0),
     (0, 0, -1, 0, 0, 0, 0, 0),
     (0, 0, 0, -1, 0, 0, 0, 0)),
    # E_5
    ((0, 0, 0, 0, 0, -1, 0, 0),
     (0, 0, 0, 0, 1, 0, 0, 0),
     (0, 0, 0, 0, 0, 0, 0, -1),
     (0, 0, 0, 0, 0, 0, 1, 0),
     (0, -1, 0, 0, 0, 0, 0, 0),
     (1, 0, 0, 0, 0, 0, 0, 0),
     (0, 0, 0, -1, 0, 0, 0, 0),
     (0, 0, 1, 0, 0, 0, 0, 0)),
    # E_6
    ((0, 0, 0, 0, 0, 0, -1, 0),
     (0, 0, 0, 0, 0, 0, 0, -1),
     (0, 0, 0, 0, -1, 0, 0, 0),
     (0, 0, 0, 0, 0, -1, 0, 0),
     (0, 0, 1, 0, 0, 0, 0, 0),
     (0, 0, 0, 1, 0, 0, 0, 0),
     (1, 0, 0, 0, 0, 0, 0, 0),
     (0, 1, 0, 0, 0, 0, 0, 0)),
    # E_7
    ((0, 0, 0, 0, 0, 0, 0, -1),
     (0, 0, 0, 0, 0, 0, 1, 0),
     (0, 0, 0, 0, 0, 1, 0, 0),
     (0, 0, 0, 0, -1, 0, 0, 0),
     (0, 0, 0, 1, 0, 0, 0, 0),
     (0, 0, -1, 0, 0, 0, 0, 0),
     (0, -1, 0, 0, 0, 0, 0, 0),
     (1, 0, 0, 0, 0, 0, 0, 0)),
))


# ---------------------------------------------------------------------------
# Spinor representations
# ---------------------------------------------------------------------------

def _pair_generator_indices(word):
    """Indices i with the word equal (up to sign) to a product of the
    generator pairs (symbol 0, symbol i)."""
    sup = list(word.support)
    if len(sup) % 2:
        raise ValueError("spinor representations need even words")
    if sup and sup[0] == 0:
        # e_0 e_a e_b e_c ... = (e_0 e_a)(e_b e_c)...
        seq = [sup[1]]
        rest = sup[2:]
    else:
        seq = []
        rest = sup
    for a, b in zip(rest[0::2], rest[1::2]):
        seq.extend((a, b))           # e_a e_b = (e_0 e_a)(e_0 e_b)
    return seq


def spinor_rep(which, word):
    """The 8x8 image of an even word under one of the two spinor maps.

    which is +1 or -1: the generator (0, i)-pair maps to +E_i or -E_i.
    """
    if which not in (1, -1):
        raise ValueError("which must select one of the two maps")
    if word.n != 8:
        raise ValueError("spinor representations live at n = 8")
    seq = _pair_generator_indices(word)
    check = CliffordWord.identity(8)
    mat = SignedMatrix.identity(8)
    for i in seq:
        check = check * (CliffordWord.generator(8, 0)
                         * CliffordWord.generator(8, i))
        ei = E_MATRICES[i - 1]
        mat = mat * (ei if which == 1 else -ei)
    assert check.bits == word.bits
    if check.sign != word.sign:
        mat = -mat
    return mat


# ---------------------------------------------------------------------------
# The lifted code subgroup and induced characters
# ---------------------------------------------------------------------------

def hamming_word_lift():
    """A section of the code into positive-part words: products of the
    lifted generators in a fixed order.  The images commute and square to
    the identity, so the section is a group homomorphism."""
    code = standard_codes("hamming8")
    gens = []
    for cw in ((0,) + tuple(1 if i in FANO_C_VECTORS[1] else 0
                            for i in range(1, 8)),
               (0,) + tuple(1 if i in FANO_C_VECTORS[2] else 0
                            for i in range(1, 8)),
               (0,) + tuple(1 if i in FANO_C_VECTORS[3] else 0
                            for i in range(1, 8)),
               (1,) * 8):
        gens.append(CliffordWord.from_support(
            8, [i for i, bit in enumerate(cw) if bit]))
    section = {}
    for coeffs in itertools.product((0, 1), repeat=4):
        w = CliffordWord.identity(8)
        bits = [0] * 8
        for a, g in zip(coeffs, gens):
            if a:
                w = w * g
                for i in g.support:
                    bits[i] ^= 1
        key = tuple(bits)
        assert key in code.word_set
        section[key] = w
    assert len(section) == 16
    return section


def lifted_subgroup():
    """All 32 elements of the lifted code subgroup, as a set."""
    section = hamming_word_lift()
    return {w for w in section.values()} | {-w for w in section.values()}


def _chi(variant, section_inverse, element):
    """Character value on the lifted subgroup; None off the subgroup."""
    pos = CliffordWord(element.n, 1, element.bits)
    if pos not in section_inverse:
        return None
    h, s_h = section_inverse[pos]
    eps = 1 if element == s_h else -1
    if variant == 1:
        return eps
    return eps * (-1 if h[0] else 1)


def induced_character_check():
    """Frobenius induction of the two subgroup characters vs. the traces
    of the two spinor maps, on all 256 even words."""
    section = hamming_word_lift()
    section_inverse = {}
    for h, w in section.items():
        section_inverse[CliffordWord(8, 1, w.bits)] = (h, w)
    reps = [CliffordWord.identity(8)] + [
        CliffordWord.generator(8, 0) * CliffordWord.generator(8, i)
        for i in range(1, 8)]

    def induced(variant, g):
        total = 0
        for x in reps:
            conj = x.inverse() * g * x
            val = _chi(variant, section_inverse, conj)
            if val is not None:
                total += val
        return total

    mismatches = {1: [], -1: []}
    for g in all_words(8, even_only=True):
        for variant in (1, -1):
            ind = induced(variant, g)
            tr = spinor_rep(variant, g).trace()
            if ind != tr:
                mismatches[variant].append((g, ind, tr))

    identity = CliffordWord.identity(8)
    report = {
        "dimension_plus": induced(1, identity),
        "dimension_minus": induced(-1, identity),
        "value_at_minus_one": induced(1, -identity),
        "plus_matches": not mismatches[1],
        "minus_matches": not mismatches[-1],
        "mismatch_counts": {"plus": len(mismatches[1]),
                            "minus": len(mismatches[-1])},
        "pass": not mismatches[1] and not mismatches[-1],
    }
    return report


# ---------------------------------------------------------------------------
# Triality kernels (finite shadow)
# ---------------------------------------------------------------------------

def conjugation_rep(word):
    """The image of a word under conjugation on the symbol span: an 8x8
    signed permutation (diagonal, since conjugation preserves symbols)."""
    perm = []
    signs = []
    inv = word.inverse()
    for j in range(word.n):
        img = word * CliffordWord.generator(word.n, j) * inv
        assert img.bits == 1 << j
        perm.append(j)
        signs.append(img.sign)
    return SignedMatrix(perm, signs)


def triality_kernels():
    """Evaluate the three 8-dimensional maps on the four central elements
    and report which generate each kernel."""
    one = CliffordWord.identity(8)
    w = omega(8)
    centre = {"1": one, "-1": -one, "omega": w, "-omega": -w}
    table = {}
    for name, g in centre.items():
        table[name] = {
            "delta_plus_is_identity": spinor_rep(1, g).is_identity(),
            "delta_minus_is_identity": spinor_rep(-1, g).is_identity(),
            "pi_is_identity": conjugation_rep(g).is_identity(),
        }
    kernels = {
        "delta_plus": sorted(n for n, t in table.items()
                             if t["delta_plus_is_identity"]),
        "delta_minus": sorted(n for n, t in table.items()
                              if t["delta_minus_is_identity"]),
        "pi": sorted(n for n, t in table.items() if t["pi_is_identity"]),
    }
    expected = {
        "delta_plus": ["1", "omega"],
        "delta_minus": ["-omega", "1"],
        "pi": ["-1", "1"],
    }
    return {
        "table": table,
        "kernels": kernels,
        "pass": kernels == expected,
    }


# ---------------------------------------------------------------------------
# The 16x16 periodicity representation
# ---------------------------------------------------------------------------

def _blocks(top, bottom, swap=False):
    """diag(top, bottom), or [[0, top], [bottom, 0]] when swap."""
    top_shift, bottom_shift = (top.dim, 0) if swap else (0, top.dim)
    return SignedMatrix(tuple(c + top_shift for c in top.perm)
                        + tuple(c + bottom_shift for c in bottom.perm),
                        top.signs + bottom.signs)


def full_rep(word):
    """16x16 image of any word: block form over the even part.

    Even g acts by diag(D(g), D(e_0^-1 g e_0)); odd u swaps the blocks
    through D(u e_0) and D(e_0^-1 u), with D the plus spinor map.  A final
    change of basis by diag(I, -E_1) puts the two anchor images into
    tensor form with positive sign.
    """
    if word.n != 8:
        raise ValueError("periodicity representation lives at n = 8")
    e0 = CliffordWord.generator(8, 0)
    e0inv = e0.inverse()
    if word.is_even():
        raw = _blocks(spinor_rep(1, word), spinor_rep(1, e0inv * word * e0))
    else:
        raw = _blocks(spinor_rep(1, word * e0), spinor_rep(1, e0inv * word),
                      swap=True)
    return _BASIS_TWIST_INV * raw * _BASIS_TWIST


_BASIS_TWIST = _blocks(SignedMatrix.identity(8), -E_MATRICES[0])
_BASIS_TWIST_INV = _blocks(SignedMatrix.identity(8),
                           -E_MATRICES[0].transpose())


def tensor_split(m):
    """Factor a signed permutation matrix into 2x2 real Pauli factors and
    an overall sign; raises if the matrix is not a pure tensor."""
    if m.dim == 1:
        return [], m.signs[0]
    half = m.dim // 2
    # the top rows must land in one column half, the bottom rows in the other
    swap = m.perm[0] >= half
    if any((c >= half) != swap for c in m.perm[:half]):
        raise ValueError("not a tensor product")
    top_shift, bottom_shift = (half, 0) if swap else (0, half)
    top = SignedMatrix([c - top_shift for c in m.perm[:half]],
                       m.signs[:half])
    bottom = SignedMatrix([c - bottom_shift for c in m.perm[half:]],
                          m.signs[half:])
    if top == bottom:
        outer = SIGMA1 if swap else SIGMA0
    elif top == -bottom:
        outer = SIGMA13 if swap else SIGMA3
    else:
        raise ValueError("not a tensor product")
    factors, sign = tensor_split(bottom if swap else top)
    return [outer] + factors, sign


def bott_check():
    """Rank, tensor-image, anchor, and restriction checks for the 16x16
    representation."""
    words = [CliffordWord(8, 1, bits) for bits in range(256)]
    images = [full_rep(w) for w in words]

    flat = []
    for m in images:
        flat.append([v for row in m.rows() for v in row])
    # full rank mod a prime certifies full rational rank
    rank = len(row_reduce_mod_p(flat, 1000003)[0])

    tensor_ok = True
    seen = set()
    for m in images:
        try:
            factors, _sign = tensor_split(m)
        except ValueError:
            tensor_ok = False
            break
        key = tuple(REAL_PAULIS.index(f) for f in factors)
        seen.add(key)
    onto = tensor_ok and len(seen) == 256

    one = CliffordWord.identity(8)
    anchors = {
        "omega": full_rep(omega(8)) == tensor_all(
            [SIGMA3, SIGMA0, SIGMA0, SIGMA0]),
        "e1": full_rep(CliffordWord.generator(8, 1)) == tensor_all(
            [SIGMA13, SIGMA0, SIGMA0, SIGMA0]),
        "minus_one": full_rep(-one) == -SignedMatrix.identity(16),
    }

    # generator relations certify the homomorphism property
    gens = [full_rep(CliffordWord.generator(8, i)) for i in range(8)]
    neg_i16 = -SignedMatrix.identity(16)
    relations = all((g * g) == neg_i16 for g in gens) and all(
        (gens[i] * gens[j]) == -(gens[j] * gens[i])
        for i in range(8) for j in range(i + 1, 8))

    restriction = all(
        full_rep(g).trace() == (spinor_rep(1, g).trace()
                                + spinor_rep(-1, g).trace())
        for g in all_words(8, even_only=True))

    return {
        "rank": rank,
        "rank_full": rank == 256,
        "images_are_tensors": tensor_ok,
        "tensor_map_onto": onto,
        "anchors": anchors,
        "generator_relations": relations,
        "restriction_splits": restriction,
        "pass": (rank == 256 and tensor_ok and onto and relations
                 and restriction and all(anchors.values())),
    }


# ---------------------------------------------------------------------------
# Group-structure report used by the command line
# ---------------------------------------------------------------------------

def group_structure_check():
    """Order, centre, semidirect factorization, coset and commutation laws."""
    n = 8
    words = all_words(n)
    order_ok = len(set(words)) == 512

    evens = [w for w in words if w.is_even()]
    # central in the even part: commutes with all pair generators
    centre_even = [z for z in evens if all(
        z * (CliffordWord.generator(n, 0) * CliffordWord.generator(n, i))
        == (CliffordWord.generator(n, 0)
            * CliffordWord.generator(n, i)) * z for i in range(1, n))]
    w8 = omega(8)
    one = CliffordWord.identity(8)
    centre_expected = {one, -one, w8, -w8}
    centre_ok = set(centre_even) == centre_expected

    # unique factorization: (lift of B-part) * (lifted-code element)
    fano = fano_structures()
    bcode = make_code(2, 8, generators=[     # parity slot 0 stays empty
        [int(i in fano.bvecs[k]) for i in range(8)] for k in (1, 2, 4)])
    assert len(bcode) == 8
    b_words = [CliffordWord(8, 1, sum(x << i for i, x in enumerate(w)))
               for w in bcode.words]
    subgroup = lifted_subgroup()
    factored = set()
    for b in b_words:
        for h in subgroup:
            factored.add(b * h)
    semidirect_ok = factored == set(evens) and len(evens) == 256

    # conjugation acts on the lifted code by the pairing sign
    conj_ok = True
    for b in b_words:
        for h in subgroup:
            pairing = bin(b.bits & h.bits).count("1") % 2
            expect = CliffordWord(8, h.sign * (-1 if pairing else 1),
                                  h.bits)
            if b * h * b.inverse() != expect:
                conj_ok = False

    # odd part is partitioned by the eight symbol cosets
    odd = {w for w in words if not w.is_even()}
    cosets = set()
    for i in range(n):
        ei = CliffordWord.generator(n, i)
        coset = frozenset(ei * h for h in subgroup)
        cosets.add(coset)
    sizes_ok = (len(cosets) == 8
                and all(len(c) == 32 for c in cosets)
                and set().union(*cosets) == odd)

    # even lifts commute exactly when supports meet evenly
    comm_ok = beta_form_check(8)

    return {
        "order_512": order_ok,
        "even_order_256": len(evens) == 256,
        "centre_is_four_group": centre_ok,
        "semidirect_factorization": semidirect_ok,
        "conjugation_pairing_law": conj_ok,
        "odd_coset_partition": sizes_ok,
        "commutation_matches_pairing": comm_ok,
        "pass": all([order_ok, len(evens) == 256, centre_ok,
                     semidirect_ok, conj_ok, sizes_ok, comm_ok]),
    }


def verify_all():
    """Every check in one report; used by the command line."""
    fano_structures()               # raises on failure
    _, pauli_checks = pauli_hamming()
    reports = {
        "fano": {"pass": True},
        "pauli_code": {"pass": all(pauli_checks.values()), **pauli_checks},
        "group": group_structure_check(),
        "induced_characters": induced_character_check(),
        "triality": triality_kernels(),
        "periodicity": bott_check(),
    }
    reports["pass"] = all(r["pass"] for r in reports.values()
                          if isinstance(r, dict))
    return reports
