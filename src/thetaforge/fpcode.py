"""Codes over prime fields F_p: construction, duality, weight statistics.

Words are tuples of digits in 0..p-1.  A linear Code carries its echelon
basis, and linearity is decided by rank: a word set is linear exactly when
it has p^rank words.  All heavier machinery downstream requires linearity
only where the mathematics does.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from .cyclotomic import check_prime
from .linalg import row_reduce_mod_p

# ---------------------------------------------------------------------------
# Fano plane data.  Two standard labelings of the seven points are in play:
# lines of the first give the addition table of the c-vectors, lines of the
# second give the addition table of the b-vectors.  The second labeling is
# binary: point [a:b:c] carries the number 4a+2b+c.
# ---------------------------------------------------------------------------

FANO_LINES_FIRST = (
    frozenset({3, 4, 6}), frozenset({1, 5, 6}), frozenset({2, 6, 7}),
    frozenset({2, 3, 5}), frozenset({1, 3, 7}), frozenset({4, 5, 7}),
    frozenset({1, 2, 4}),
)

FANO_LINES_SECOND = (
    frozenset({2, 5, 7}), frozenset({3, 4, 7}), frozenset({1, 4, 5}),
    frozenset({1, 6, 7}), frozenset({2, 4, 6}), frozenset({1, 2, 3}),
    frozenset({3, 5, 6}),
)

# Complement-of-line vectors, indexed 1..7 (index 0 unused).  b-vectors are
# complements of first-labeling lines, c-vectors of second-labeling lines,
# with c_i + b_i = complement of {i}.
FANO_B_VECTORS = (
    None,
    frozenset({1, 2, 5, 7}), frozenset({2, 3, 4, 7}), frozenset({1, 3, 4, 5}),
    frozenset({1, 4, 6, 7}), frozenset({2, 4, 5, 6}), frozenset({1, 2, 3, 6}),
    frozenset({3, 5, 6, 7}),
)

FANO_C_VECTORS = (
    None,
    frozenset({1, 3, 4, 6}), frozenset({1, 2, 5, 6}), frozenset({2, 3, 6, 7}),
    frozenset({2, 3, 4, 5}), frozenset({1, 3, 5, 7}), frozenset({4, 5, 6, 7}),
    frozenset({1, 2, 4, 7}),
)

_GOLAY_B = (
    (0, 1, 1, 1, 1, 1),
    (1, 0, 1, 2, 2, 1),
    (1, 1, 0, 1, 2, 2),
    (1, 2, 1, 0, 1, 2),
    (1, 2, 2, 1, 0, 1),
    (1, 1, 2, 2, 1, 0),
)


class Code:
    """A set of words in F_p^n; basis is its echelon basis when linear."""

    def __init__(self, p, n, words, basis=None):
        check_prime(p)
        self.p = p
        self.n = n
        self.words = tuple(sorted(words))
        self.word_set = frozenset(self.words)
        self.basis = tuple(basis) if basis is not None else None
        assert len(self.word_set) == len(self.words)

    @property
    def is_linear(self):
        return self.basis is not None

    @property
    def dimension(self):
        return len(self.basis) if self.is_linear else None

    def __len__(self):
        return len(self.words)

    def __contains__(self, w):
        return tuple(w) in self.word_set

    def __eq__(self, other):
        return (isinstance(other, Code) and other.p == self.p
                and other.n == self.n and other.word_set == self.word_set)

    def __hash__(self):
        return hash((self.p, self.n, self.word_set))

    def __repr__(self):
        kind = "dim %d" % self.dimension if self.is_linear else "nonlinear"
        return "Code(p=%d, n=%d, |C|=%d, %s)" % (self.p, self.n,
                                                 len(self.words), kind)


def _check_word(w, p, n):
    w = tuple(int(d) % p for d in w)
    if len(w) != n:
        raise ValueError("word length %d, expected %d" % (len(w), n))
    return w


def _span(basis, p, n):
    words = set()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        w = [0] * n
        for a, g in zip(coeffs, basis):
            if a:
                for j in range(n):
                    w[j] = (w[j] + a * g[j]) % p
        words.add(tuple(w))
    return words


def make_code(p, n, words=None, generators=None):
    """Build a Code from explicit words or from spanning generators.

    A word set is linear exactly when it has p^rank words: it lies in the
    span of its own echelon basis, which has p^rank elements.
    """
    check_prime(p)
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    if (words is None) == (generators is None):
        raise ValueError("give exactly one of words= or generators=")
    if generators is not None:
        gens = [_check_word(g, p, n) for g in generators]
        basis, _ = row_reduce_mod_p(gens, p)
        return Code(p, n, _span(basis, p, n), basis)
    wset = {_check_word(w, p, n) for w in words}
    if not wset:
        raise ValueError("empty code")
    basis, _ = row_reduce_mod_p(sorted(wset), p)
    return Code(p, n, wset, basis if p ** len(basis) == len(wset) else None)


def zero_code(p, n):
    return make_code(p, n, words=[(0,) * n])


def linear_basis(code):
    """The echelon basis of a linear code."""
    if not code.is_linear:
        raise ValueError("code is not linear")
    return list(code.basis)


def dual_code(code):
    """The dual under the standard inner product; linear codes only."""
    if not code.is_linear:
        raise ValueError("dual of a nonlinear code is undefined here")
    p, n = code.p, code.n
    # w[pivot] = -row[f] needs a reduced echelon basis: clear each pivot
    # column above its row, last row first.  Pivots are 1 and lead their row.
    basis = [list(row) for row in code.basis]
    pivots = [row.index(1) for row in basis]
    for i in reversed(range(len(basis))):
        for above in basis[:i]:
            f = above[pivots[i]]
            if f:
                for j in range(n):
                    above[j] = (above[j] - f * basis[i][j]) % p
    free = [j for j in range(n) if j not in pivots]
    dual_basis = []
    for f in free:
        w = [0] * n
        w[f] = 1
        for row, pc in zip(basis, pivots):
            w[pc] = (-row[f]) % p
        dual_basis.append(tuple(w))
    if not dual_basis:
        return zero_code(p, n)
    return make_code(p, n, generators=dual_basis)


def _inner(u, v, p):
    return sum(a * b for a, b in zip(u, v)) % p


class WeightEnumerator:
    """Symmetrized weight statistics: counts of digit-class profiles.

    coefficients maps an exponent tuple (l_0, ..., l_r) to the number of
    words with l_j coordinates congruent to +-j mod p, where
    r = (p-1)/2 for odd p and r = 1 for p = 2.
    """

    def __init__(self, p, n, coefficients):
        self.p = p
        self.n = n
        self.r = 1 if p == 2 else (p - 1) // 2
        self.coefficients = dict(coefficients)
        for expo, cnt in self.coefficients.items():
            assert len(expo) == self.r + 1 and sum(expo) == n and cnt > 0

    def mass(self):
        return sum(self.coefficients.values())

    def __eq__(self, other):
        return (isinstance(other, WeightEnumerator) and other.p == self.p
                and other.coefficients == self.coefficients)

    def __repr__(self):
        return "WeightEnumerator(p=%d, %r)" % (self.p, self.coefficients)


def digit_class(d, p):
    """The symmetrization class of a digit: j with d = +-j mod p."""
    d %= p
    return min(d, p - d)


def word_profile(w, p):
    r = 1 if p == 2 else (p - 1) // 2
    prof = [0] * (r + 1)
    for d in w:
        prof[digit_class(d, p)] += 1
    return tuple(prof)


def weight_enumerator(code):
    counts = Counter(word_profile(w, code.p) for w in code.words)
    return WeightEnumerator(code.p, code.n, counts)


def hamming_weight(w):
    return sum(1 for d in w if d != 0)


def min_distance(code):
    """Minimum pairwise Hamming distance; None for codes with one word."""
    if len(code.words) < 2:
        return None
    if code.is_linear:
        return min(hamming_weight(w) for w in code.words if any(w))
    words = np.array(code.words, dtype=np.int64)
    best = code.n
    # each block of rows against itself and every later word, the block
    # sized so that its distance array stays near 2^21 entries
    step = max(1, (1 << 21) // len(words))
    for s in range(0, len(words), step):
        block = words[s:s + step]
        dist = np.zeros((len(block), len(words) - s), dtype=np.int32)
        for j in range(code.n):
            dist += block[:, j, None] != words[None, s:, j]
        dist[dist == 0] = code.n        # the words are distinct: 0 is w vs w
        best = min(best, int(dist.min()))
    return best


def doubly_even(code):
    """All weights divisible by 4; defined for p = 2 only."""
    if code.p != 2:
        raise ValueError("doubly even is a binary-code notion")
    return all(hamming_weight(w) % 4 == 0 for w in code.words)


def code_predicates(code):
    """Self-orthogonality and friends, as a plain dict."""
    p = code.p
    self_orth = code.is_linear and all(
        _inner(u, v, p) == 0 for u in code.basis for v in code.basis)
    out = {
        "self_orthogonal": bool(self_orth),
        "self_dual": bool(self_orth and 2 * code.dimension == code.n),
        "min_distance": min_distance(code),
    }
    if p == 2:
        out["doubly_even"] = doubly_even(code)
    return out


# ---------------------------------------------------------------------------
# Standard codes
# ---------------------------------------------------------------------------

def _hamming8():
    """Extended binary Hamming code on coordinates (parity, point 1..7)."""
    cvecs = [FANO_C_VECTORS[i] for i in range(1, 8)]
    gens = []
    for cv in cvecs[:3]:          # c_1, c_2, c_3 are independent
        gens.append(tuple(1 if j in cv else 0 for j in range(8)))
    gens.append((1,) + (1,) * 7)  # all-ones with its parity bit
    return make_code(2, 8, generators=gens)


def _tetracode():
    return make_code(3, 4, generators=[(1, 0, 1, 2), (0, 1, 1, 1)])


def _golay12():
    gens = []
    for i in range(6):
        row = [0] * 6
        row[i] = 1
        gens.append(tuple(row) + _GOLAY_B[i])
    return make_code(3, 12, generators=gens)


_STANDARD = {"hamming8": _hamming8, "tetracode": _tetracode,
             "golay12": _golay12}


def standard_codes(name):
    """One of the named codes: hamming8, tetracode, golay12."""
    try:
        return _STANDARD[name]()
    except KeyError:
        raise ValueError("unknown standard code %r (have %s)"
                         % (name, ", ".join(sorted(_STANDARD)))) from None


# ---------------------------------------------------------------------------
# Monomial transforms
# ---------------------------------------------------------------------------

class MonomialTransform:
    """Coordinate permutation combined with unit scalars.

    Acting on a word w gives y with y_j = c_j * w[sigma_j], so sigma lists,
    for every output coordinate, which input coordinate feeds it.
    """

    def __init__(self, p, sigma, scalars):
        check_prime(p)
        self.p = p
        self.sigma = tuple(int(s) for s in sigma)
        self.scalars = tuple(int(c) % p for c in scalars)
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)):
            raise ValueError("sigma is not a permutation of 0..%d" % (n - 1))
        if len(self.scalars) != n or any(c % p == 0 for c in self.scalars):
            raise ValueError("scalars must be n units mod p")

    @property
    def n(self):
        return len(self.sigma)

    def apply_word(self, w):
        return tuple((self.scalars[j] * w[self.sigma[j]]) % self.p
                     for j in range(self.n))

    def compose(self, other):
        """self after other: apply_word(other.apply_word(w)) for all w."""
        if self.p != other.p or self.n != other.n:
            raise ValueError("incompatible transforms")
        sigma = tuple(other.sigma[self.sigma[j]] for j in range(self.n))
        scal = tuple((self.scalars[j] * other.scalars[self.sigma[j]]) % self.p
                     for j in range(self.n))
        return MonomialTransform(self.p, sigma, scal)


# ---------------------------------------------------------------------------
# File format: first line "p n", one word per line, '#' starts a comment.
# ---------------------------------------------------------------------------

def _file_int(token, number):
    try:
        return int(token)
    except ValueError:
        raise ValueError("line %d: %r is not an integer"
                         % (number, token)) from None


def parse_code_text(text):
    """Parse the code-file format; each error names the line at fault."""
    lines = []
    for number, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((number, body))
    if not lines:
        raise ValueError("empty code file")
    number, body = lines[0]
    head = body.split()
    if len(head) != 2:
        raise ValueError("line %d: the header must be 'p n'" % number)
    p, n = (_file_int(t, number) for t in head)
    try:
        check_prime(p)
    except ValueError as exc:
        raise ValueError("line %d: %s" % (number, exc)) from None
    if n < 1:
        raise ValueError("line %d: word length n must be positive, got %d"
                         % (number, n))
    words = []
    for number, body in lines[1:]:
        digits = body.split()
        if len(digits) != n:
            raise ValueError("line %d: bad word %r: expected %d digits"
                             % (number, body, n))
        words.append(tuple(_file_int(d, number) for d in digits))
    if not words:
        raise ValueError("code file lists no words")
    return make_code(p, n, words=words)


def read_code_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_text(fh.read())
