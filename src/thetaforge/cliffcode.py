"""The Fano plane, Clifford word groups, and spinor representations.

Checks the laws of the two Fano numberings and their incidence, and builds
the length-8 binary code inside the diagonal Pauli tensors, the extraspecial
2-group of Clifford words, the two 8-dimensional spinor representations,
their induced characters, the triality kernel data, and the 16x16
periodicity representation.  The spinor maps are generated by left
multiplication by the seven imaginary octonion units, signed matrices
whose signs come from one octonion cocycle on F_2^3.

A word over n <= 8 symbols is a sign and a support bitmask.  Every product
sign is one bilinear form on the support bits, computed from the symbol
order: e_a e_b = (-1)^beta(a, b) e_(a xor b) with
beta(a, b) = sum_{s>t} a_s b_t + sum_t a_t b_t mod 2 (Calderbank, Rains,
Shor and Sloane, IEEE Trans. IT 44, 1998).  Conjugation signs, commutation
and inverses come from the same form.  Each spinor map holds one image
table, a signed matrix per positive even support, built once from that
map's own generator images; the image of a word is its support's entry
times its sign.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from operator import itemgetter

from .fpcode import (
    FANO_B_VECTORS, FANO_C_VECTORS, FANO_LINES_FIRST, FANO_LINES_SECOND,
    make_code, standard_codes,
)
from .linalg import row_reduce_mod_p

FANO_POINTS = frozenset(range(1, 8))


# ---------------------------------------------------------------------------
# Fano plane with both numberings
# ---------------------------------------------------------------------------

def fano_laws():
    """True when every structural law of the Fano data holds.  The four
    FANO_* tables are read at call time."""
    lf, ls = FANO_LINES_FIRST, FANO_LINES_SECOND
    bv, cv = FANO_B_VECTORS, FANO_C_VECTORS
    planes = all(
        all(len(line) == 3 for line in lines)
        and all(sum(pt in line for line in lines) == 3 for pt in FANO_POINTS)
        and all(len(a & b) == 1 for a, b in itertools.combinations(lines, 2))
        for lines in (lf, ls))
    # complement duality per index
    duality = all(bv[i] == FANO_POINTS - lf[i - 1]
                  and cv[i] == FANO_POINTS - ls[i - 1]
                  and bv[i] ^ cv[i] == FANO_POINTS - {i} for i in range(1, 8))
    # line addition laws: b-sums follow second-picture lines and vice versa
    addition = all(
        (not bv[i] ^ bv[j] ^ bv[k]) == (frozenset({i, j, k}) in ls)
        and (not cv[i] ^ cv[j] ^ cv[k]) == (frozenset({i, j, k}) in lf)
        for i, j, k in itertools.combinations(range(1, 8), 3))
    # the two complement spaces (weight 4, so even) split the 6-dimensional
    # even-weight space; with the full set C spans the length-7 code
    B = [[int(i in v) for i in range(8)] for v in bv[1:]]
    C = [[int(i in v) for i in range(8)] for v in cv[1:]]
    full = [[int(i in FANO_POINTS) for i in range(8)]]
    ranks = [len(row_reduce_mod_p(rows, 2)[0])
             for rows in (B, C, B + C, C + full)] == [3, 3, 6, 4]
    # point j lies on exactly one picture's Line i, and on neither when i = j
    split = all((j in lf[i - 1]) + (j in ls[i - 1]) == (i != j)
                for i in range(1, 8) for j in range(1, 8))
    # diagonal symmetry: transposing swaps the two pictures
    symmetry = all((j in lf[i - 1]) == (i in ls[j - 1])
                   for i, j in itertools.permutations(range(1, 8), 2))
    return planes and duality and addition and ranks and split and symmetry


# ---------------------------------------------------------------------------
# Clifford words
# ---------------------------------------------------------------------------

class CliffordWord:
    """A signed normal-ordered word in n anticommuting square-root-of-minus-
    one symbols, 1 <= n <= 8; support is a bitmask (bit i = symbol i
    present)."""

    __slots__ = ("n", "sign", "bits")

    def __init__(self, n, sign, bits):
        if not 1 <= n <= 8:
            raise ValueError("symbol count must lie in 1..8, got %r" % (n,))
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

    def is_even(self):
        return bin(self.bits).count("1") % 2 == 0

    def __mul__(self, other):
        """Normal-ordered product; the sign is (-1)^beta of the two
        supports."""
        if self.n != other.n:
            raise ValueError("words over different symbol counts")
        sign = -1 if _beta(self.bits, other.bits) else 1
        return CliffordWord(self.n, sign * self.sign * other.sign,
                            self.bits ^ other.bits)

    def inverse(self):
        # w * w = (-1)^beta(a, a) for the support a
        return -self if _beta(self.bits, self.bits) else self

    def __neg__(self):
        return CliffordWord(self.n, -self.sign, self.bits)

    def __eq__(self, other):
        return (isinstance(other, CliffordWord) and other.n == self.n
                and other.sign == self.sign and other.bits == self.bits)

    def __hash__(self):
        return hash((self.n, self.sign, self.bits))

    def __repr__(self):
        body = "".join("e%d" % i for i in range(self.n)
                       if self.bits >> i & 1) or "1"
        return "%s%s" % ("" if self.sign > 0 else "-", body)


def _beta(a, b):
    """The sign cocycle of the word group: e_a e_b = (-1)^beta(a, b)
    e_(a xor b) for supports a, b.

    beta(a, b) = sum_{s>=t} a_s b_t mod 2: sum_{s>t} a_s b_t counts the
    transpositions that normal-order the product, sum_t a_t b_t the
    squares e_t e_t = -1.  So beta is the parity of a & m, where bit s of
    m is the parity of b's bits 0..s: the prefix xor of b, taken over
    every bit of a, since a may reach past b's top bit."""
    m, shift = b, 1
    while shift < a.bit_length():
        m ^= m << shift
        shift <<= 1
    return (a & m).bit_count() & 1


def _flip(h, k):
    """1 exactly where e_h and e_k anticommute, so conjugating e_k by e_h
    multiplies it by (-1)^flip."""
    return _beta(h, k) ^ _beta(k, h)


def omega(n):
    """The full word e_0 e_1 ... e_{n-1}."""
    return CliffordWord(n, 1, (1 << n) - 1)


def _even_supports(n):
    return [bits for bits in range(1 << n) if bin(bits).count("1") % 2 == 0]


def all_words(n, even_only=False):
    """Both signs over all supports, deterministic order."""
    return [CliffordWord(n, sign, bits)
            for bits in (_even_supports(n) if even_only else range(1 << n))
            for sign in (1, -1)]


def _matches_pairing(rows, cols):
    """Whether e_h and e_k commute exactly when |h & k| is even, for h in
    rows and k in cols, the even supports of the commutator form.

    Guard: the left side is the product cocycle's beta + beta^T and the
    right side the popcount of the bits; neither is derived from the
    other."""
    return all(_flip(h, k) == (h & k).bit_count() & 1
               for h in rows for k in cols)


def beta_form_check(n=8):
    """The commutator form against the pairing on all even vectors."""
    evens = _even_supports(n)
    return _matches_pairing(evens, evens)


def pair_form_sweep(n=8):
    """The weight-2 exhaustive comparison: all pairs of length-2 words."""
    pairs = [(1 << i) | (1 << j)
             for i, j in itertools.combinations(range(n), 2)]
    return len(pairs), _matches_pairing(pairs, pairs)


# ---------------------------------------------------------------------------
# Signed permutation matrices
# ---------------------------------------------------------------------------

def compose(p, q):
    """The permutation p first, then q; each is the tuple of its images,
    of at least two points (itemgetter returns a tuple then)."""
    return itemgetter(*p)(q)


def invert(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


class SignedMatrix:
    """Square matrix with exactly one +-1 entry per row and column, held as
    the permutation it makes of 2 dim points: 2r is +e_r, 2r + 1 is -e_r,
    and e_r.m = signs[r].e_perm[r].  So m.m' acts as m first, the
    transpose is the inverse permutation, and -m swaps each pair.

    The derived tuples are built from lists, or by itemgetter in compose,
    never by tuple() of a generator or a map: that grows its result by
    resizing, past CPython's tuple free lists, yet each one freed joins a
    free list, so a sweep such as bott_check's 256 images would leave
    about 0.5 MB of short tuples there, late in desk's run where its
    memory peaks."""

    __slots__ = ("points",)

    def __init__(self, perm, signs):
        perm = tuple(int(c) for c in perm)
        signs = tuple(int(s) for s in signs)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("rows must hit each column once")
        if len(signs) != len(perm) or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +-1 per row")
        self.points = tuple(x for c, s in zip(perm, signs)
                            for x in (2 * c + (s < 0), 2 * c + (s > 0)))

    @classmethod
    def _from_points(cls, points):
        """Unchecked: the caller's points permute pairs {2c, 2c + 1}."""
        m = object.__new__(cls)
        m.points = points
        return m

    @classmethod
    def identity(cls, dim):
        return cls._from_points(tuple(range(2 * dim)))

    @property
    def dim(self):
        return len(self.points) // 2

    @property
    def perm(self):
        return tuple([x >> 1 for x in self.points[::2]])

    @property
    def signs(self):
        return tuple([-1 if x & 1 else 1 for x in self.points[::2]])

    def rows(self):
        out = [[0] * self.dim for _ in range(self.dim)]
        for row, c, s in zip(out, self.perm, self.signs):
            row[c] = s
        return out

    def __mul__(self, other):
        if not isinstance(other, SignedMatrix) or other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return SignedMatrix._from_points(compose(self.points, other.points))

    def __neg__(self):
        return SignedMatrix._from_points(tuple([x ^ 1 for x in self.points]))

    def transpose(self):
        return SignedMatrix._from_points(invert(self.points))

    def trace(self):
        return sum(s for r, (c, s) in enumerate(zip(self.perm, self.signs))
                   if c == r)

    def tensor(self, other):
        return SignedMatrix(
            [a * other.dim + b for a in self.perm for b in other.perm],
            [s * t for s in self.signs for t in other.signs])

    def __eq__(self, other):
        return isinstance(other, SignedMatrix) and other.points == self.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "SignedMatrix(%r)" % (self.rows(),)


SIGMA0 = SignedMatrix((0, 1), (1, 1))
SIGMA1 = SignedMatrix((1, 0), (1, 1))
SIGMA3 = SignedMatrix((0, 1), (1, -1))
SIGMA13 = SIGMA1 * SIGMA3          # [[0,-1],[1,0]], the rotation unit
REAL_PAULIS = (SIGMA0, SIGMA1, SIGMA13, SIGMA3)


def tensor_all(factors):
    return reduce(SignedMatrix.tensor, factors)


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
    group = [((a, b, c, sign), diagonal_tensor(a, b, c, sign))
             for a, b, c in itertools.product((0, 1), repeat=3)
             for sign in (1, -1)]
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
# The seven generators: left multiplication by the imaginary octonion units
# ---------------------------------------------------------------------------

def _octonion_sign(a, b):
    """The octonion sign cocycle on F_2^3: e_a e_b = (-1)^f(a, b) e_(a xor b)
    with a_k = a >> k & 1 (Albuquerque and Majid, J. Algebra 220, 1999;
    Baez, Bull. AMS 39, 2002)."""
    a0, a1, a2 = (a >> k & 1 for k in range(3))
    b0, b1, b2 = (b >> k & 1 for k in range(3))
    return (a0 * (b0 + b2) + a1 * (b0 + b1) + a2 * (b1 + b2)
            + a0 * a1 * b2 + a0 * a2 * b1 + a1 * a2 * b0) & 1


# E_i e_c = (-1)^f(i, c) e_(i xor c) on columns: column c has its entry in
# row i xor c, so row r has it in column i xor r
E_MATRICES = tuple(
    SignedMatrix([i ^ r for r in range(8)],
                 [-1 if _octonion_sign(i, i ^ r) else 1 for r in range(8)])
    for i in range(1, 8))


# ---------------------------------------------------------------------------
# Spinor representations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _spinor_images(which):
    """The image table of one spinor map: entry s is the image of the
    positive even word e_s (None at odd s).

    Guard: each map is built from its own generator images, which * E_i
    for the pair e_0 e_i, never as a twist of the other map.  An even
    support s > 0 with top symbol i is s' xor {0, i} with s' < s, and
    e_s = e_s' e_0 e_i exactly: e_0 passes the |s'| - s'_0 symbols of s'
    after 0 and squares to -1 if s'_0 = 1, an even count of signs, and
    e_i lands last."""
    gens = [e if which == 1 else -e for e in E_MATRICES]
    images = [None] * 256
    images[0] = SignedMatrix.identity(8)
    for s in _even_supports(8)[1:]:
        i = s.bit_length() - 1
        images[s] = images[s ^ (1 | 1 << i)] * gens[i - 1]
    return tuple(images)


def spinor_rep(which, word):
    """The 8x8 image of an even word under one of the two spinor maps.

    which is +1 or -1: the generator (0, i)-pair maps to +E_i or -E_i.
    """
    if which not in (1, -1):
        raise ValueError("which must select one of the two maps")
    if word.n != 8:
        raise ValueError("spinor representations live at n = 8")
    if not word.is_even():
        raise ValueError("spinor representations need even words")
    image = _spinor_images(which)[word.bits]
    return image if word.sign > 0 else -image


# ---------------------------------------------------------------------------
# The lifted code subgroup and induced characters
# ---------------------------------------------------------------------------

def hamming_word_lift():
    """A section of the code into positive-part words: products of the
    lifted generators in a fixed order.  The images commute and square to
    the identity, so the section is a group homomorphism."""
    code = standard_codes("hamming8")
    gens = [CliffordWord.from_support(8, sorted(FANO_C_VECTORS[k]))
            for k in (1, 2, 3)] + [omega(8)]
    section = {}
    for coeffs in itertools.product((0, 1), repeat=4):
        w = CliffordWord.identity(8)
        for a, g in zip(coeffs, gens):
            if a:
                w = w * g
        key = tuple(w.bits >> i & 1 for i in range(8))
        assert key in code.word_set
        section[key] = w
    assert len(section) == 16
    return section


def induced_character_check():
    """Frobenius induction of the two subgroup characters vs. the traces
    of the two spinor maps, on all 256 even words.

    The coset representatives x are 1 and the pairs e_0 e_i.  Conjugation
    by x keeps the support s of g = +-e_s and multiplies g by
    (-1)^flip[s, x], so Ind chi(g) = +-chi(e_s) sum_x (-1)^flip[s, x],
    with chi zero off the lifted subgroup.
    """
    # chi(e_s), from chi = 1 (plus) or (-1)^s_0 (minus) on the section word
    chi = {1: [0] * 256, -1: [0] * 256}
    for w in hamming_word_lift().values():
        chi[1][w.bits] = w.sign
        chi[-1][w.bits] = -w.sign if w.bits & 1 else w.sign
    reps = [0] + [1 | 1 << i for i in range(1, 8)]
    conj_sums = [len(reps) - 2 * sum(_flip(s, x) for x in reps)
                 for s in range(256)]

    def induced(variant, g):
        return g.sign * chi[variant][g.bits] * conj_sums[g.bits]

    mismatches = {variant: sum(
        induced(variant, g) != spinor_rep(variant, g).trace()
        for g in all_words(8, even_only=True)) for variant in (1, -1)}
    identity = CliffordWord.identity(8)
    return {
        "dimension_plus": induced(1, identity),
        "dimension_minus": induced(-1, identity),
        "value_at_minus_one": induced(1, -identity),
        "plus_matches": not mismatches[1],
        "minus_matches": not mismatches[-1],
        "mismatch_counts": {"plus": mismatches[1], "minus": mismatches[-1]},
        "pass": not mismatches[1] and not mismatches[-1],
    }


# ---------------------------------------------------------------------------
# Triality kernels (finite shadow)
# ---------------------------------------------------------------------------

def conjugation_rep(word):
    """The image of a word under conjugation on the symbol span: the
    diagonal signed matrix whose entry j is the sign of w e_j w^-1,
    (-1)^flip(w, e_j)."""
    return SignedMatrix(range(word.n), [-1 if _flip(word.bits, 1 << j) else 1
                                        for j in range(word.n)])


def triality_kernels():
    """Evaluate the three 8-dimensional maps on the four central elements
    and report which generate each kernel."""
    one = CliffordWord.identity(8)
    w = omega(8)
    centre = {"1": one, "-1": -one, "omega": w, "-omega": -w}
    maps = {"delta_plus": lambda g: spinor_rep(1, g),
            "delta_minus": lambda g: spinor_rep(-1, g),
            "pi": conjugation_rep}
    i8 = SignedMatrix.identity(8)
    table = {name: {key + "_is_identity": rep(g) == i8
                    for key, rep in maps.items()}
             for name, g in centre.items()}
    kernels = {key: sorted(name for name, row in table.items()
                           if row[key + "_is_identity"]) for key in maps}
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
    """diag(top, bottom), or [[0, top], [bottom, 0]] when swap: the two
    point tuples joined, one of them shifted past the other's columns."""
    shift = 2 * top.dim
    top_shift, bottom_shift = (shift, 0) if swap else (0, shift)
    return SignedMatrix._from_points(
        tuple([x + top_shift for x in top.points])
        + tuple([x + bottom_shift for x in bottom.points]))


def full_rep(word):
    """16x16 image of any word: block form over the even part.

    Even g acts by diag(D(g), D(e_1^-1 g e_1)); odd u swaps the blocks
    through D(u e_1) and D(e_1^-1 u), with D the plus spinor map.
    Conjugating by e_1, not e_0, puts the images of omega and e_1 into
    tensor form with positive sign.
    """
    if word.n != 8:
        raise ValueError("periodicity representation lives at n = 8")
    e1 = CliffordWord.generator(8, 1)
    e1inv = e1.inverse()
    if word.is_even():
        return _blocks(spinor_rep(1, word), spinor_rep(1, e1inv * word * e1))
    return _blocks(spinor_rep(1, word * e1), spinor_rep(1, e1inv * word),
                   swap=True)


def tensor_split(m):
    """Factor a signed permutation matrix into 2x2 real Pauli factors and
    an overall sign; raises if the matrix is not a pure tensor."""
    if m.dim == 1:
        return [], m.signs[0]
    # the top rows must land in one column half, the bottom rows in the
    # other: the first dim points in one half of the 2 dim points
    top, bottom = m.points[:m.dim], m.points[m.dim:]
    swap = top[0] >= m.dim
    if m.dim % 2 or any((x >= m.dim) != swap for x in top):
        raise ValueError("not a tensor product")
    top_shift, bottom_shift = (m.dim, 0) if swap else (0, m.dim)
    top = SignedMatrix._from_points(tuple([x - top_shift for x in top]))
    bottom = SignedMatrix._from_points(
        tuple([x - bottom_shift for x in bottom]))
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
    # each sweep makes the 256 images again rather than holding them, as
    # desk's memory peaks in this stage (1.7 ms a sweep)
    words = [CliffordWord(8, 1, bits) for bits in range(256)]
    # full rank mod a prime certifies full rational rank.  Correct images
    # are +-Pauli tensors with Frobenius Gram 16 I, so they keep full rank
    # mod any odd prime, and 3 is the cheapest.  The flattened rows are
    # generated, since row_reduce_mod_p copies them anyway
    flat = ([v for row in full_rep(w).rows() for v in row] for w in words)
    rank = len(row_reduce_mod_p(flat, 3)[0])

    try:
        seen = {tuple([REAL_PAULIS.index(f)
                       for f in tensor_split(full_rep(w))[0]])
                for w in words}
        tensor_ok = True
    except ValueError:
        seen, tensor_ok = set(), False
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

    # every map sends -g to minus the image of g: positive words suffice
    plus, minus = _spinor_images(1), _spinor_images(-1)
    restriction = all(
        full_rep(words[s]).trace() == plus[s].trace() + minus[s].trace()
        for s in _even_supports(8))

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
    """Order, centre, semidirect factorization, coset and commutation laws.

    The lifted code subgroup holds both signs of each of its 16 supports,
    so its factorization and coset laws are laws of the supports."""
    n = 8
    words = all_words(n)
    order_ok = len(set(words)) == 512
    even_ok = sum(w.is_even() for w in words) == 256

    # central in the even part: commutes with all pair generators
    evens = _even_supports(n)
    centre_ok = [s for s in evens
                 if not any(_flip(s, 1 | 1 << i) for i in range(1, n))
                 ] == [0, (1 << n) - 1]

    # unique factorization: (lift of B-part) * (lifted-code element)
    bcode = make_code(2, 8, generators=[     # parity slot 0 stays empty
        [int(i in FANO_B_VECTORS[k]) for i in range(8)] for k in (1, 2, 4)])
    assert len(bcode) == 8
    b_bits = [sum(x << i for i, x in enumerate(w)) for w in bcode.words]
    h_bits = [w.bits for w in hamming_word_lift().values()]
    semidirect_ok = sorted(b ^ h for b in b_bits for h in h_bits) == evens

    # conjugation acts on the lifted code by the pairing sign
    conj_ok = _matches_pairing(b_bits, h_bits)

    # odd part is partitioned by the eight symbol cosets
    sizes_ok = sorted(1 << i ^ h for i in range(n) for h in h_bits) == [
        s for s in range(1 << n) if bin(s).count("1") % 2]

    # even lifts commute exactly when supports meet evenly
    comm_ok = beta_form_check(8)

    return {
        "order_512": order_ok,
        "even_order_256": even_ok,
        "centre_is_four_group": centre_ok,
        "semidirect_factorization": semidirect_ok,
        "conjugation_pairing_law": conj_ok,
        "odd_coset_partition": sizes_ok,
        "commutation_matches_pairing": comm_ok,
        "pass": all([order_ok, even_ok, centre_ok, semidirect_ok, conj_ok,
                     sizes_ok, comm_ok]),
    }


def verify_all():
    """Every check in one report; used by the command line."""
    _, pauli_checks = pauli_hamming()
    reports = {
        "fano": {"pass": fano_laws()},
        "pauli_code": {"pass": all(pauli_checks.values()), **pauli_checks},
        "group": group_structure_check(),
        "induced_characters": induced_character_check(),
        "triality": triality_kernels(),
        "periodicity": bott_check(),
    }
    reports["pass"] = all(r["pass"] for r in reports.values())
    return reports
