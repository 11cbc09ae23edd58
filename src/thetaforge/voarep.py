"""Word orbits under signed coordinate permutations and their graded ring.

A word in F_p^n is classified by its profile (l_0, ..., l_r): how many
digits land in each class {0}, {+-1}, ..., {+-r}.  The profile is a
complete orbit invariant, and everything downstream consumes only it: the
conformal weight of the orbit's coset, the series-valued map (coset theta
expansions), and the monomial map (formal exponent bookkeeping).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial

from .codelattice import count_by_norm, standard_lattice, theta_series
from .cyclotomic import as_cycrat, check_odd_prime, check_prime
from .fpcode import weight_enumerator, word_profile
# compose_enumerator is not called here; perfbench/test_perfbench.py checks
# that this namespace holds it
from .qexp import QSeries, compose_enumerator  # noqa: F401


class OrbitClass:
    """A word orbit under {+-1}^n x| Sigma_n, keyed by its digit profile."""

    __slots__ = ("p", "profile")

    def __init__(self, p, profile):
        check_odd_prime(p)
        r = (p - 1) // 2
        profile = tuple(int(l) for l in profile)
        if len(profile) != r + 1:
            raise ValueError("profile needs %d entries for p=%d"
                             % (r + 1, p))
        if any(l < 0 for l in profile):
            raise ValueError("profile entries must be nonnegative")
        self.p = p
        self.profile = profile

    @property
    def n(self):
        return sum(self.profile)

    def representative(self):
        """The nondecreasing word with l_j digits equal to j."""
        out = []
        for j, l in enumerate(self.profile):
            out.extend([j] * l)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, OrbitClass) and other.p == self.p
                and other.profile == self.profile)

    def __hash__(self):
        return hash((self.p, self.profile))

    def __repr__(self):
        return "OrbitClass(p=%d, %r)" % (self.p, self.profile)


def orbit_of(p, word):
    """The orbit class of a word; entries are reduced mod p first."""
    check_odd_prime(p)     # word_profile reduces mod p
    return OrbitClass(p, word_profile(tuple(word), p))


def all_orbits(p, n):
    """Every grade-n orbit class, in lexicographic profile order."""
    r = (p - 1) // 2

    def parts(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for head in range(remaining + 1):
            for rest in parts(remaining - head, slots - 1):
                yield (head,) + rest

    return [OrbitClass(p, prof) for prof in parts(n, r + 1)]


def orbit_members(p, word):
    """All words reachable by sign flips and coordinate permutations."""
    n = len(word)
    members = set()
    for perm in permutations(range(n)):
        base = [word[perm[i]] for i in range(n)]
        for signs in product((1, -1), repeat=n):
            members.add(tuple((s * d) % p for s, d in zip(signs, base)))
    return sorted(members)


def orbit_size(o):
    """Number of words in the orbit: a class-{+-j} digit has 2 choices."""
    n = o.n
    size = factorial(n)
    for j, l in enumerate(o.profile):
        size //= factorial(l)
        if j > 0:
            size *= 2 ** l
    return size


class RepElement:
    """Finitely supported combination of orbit classes, graded by length.

    Coefficients live in the ring of cyclotomic integers with p inverted.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p, terms):
        check_prime(p)
        self.p = p
        clean = {}
        for key, c in terms.items():
            if isinstance(key, OrbitClass):
                if key.p != p:
                    raise ValueError("orbit for wrong prime")
                prof = key.profile
            else:
                prof = OrbitClass(p, key).profile
            c = as_cycrat(p, c)
            if prof in clean:
                c = clean[prof] + c
            if c.is_zero():
                clean.pop(prof, None)
            else:
                clean[prof] = c
        self.terms = clean

    @classmethod
    def from_orbit(cls, o, coeff=1):
        return cls(o.p, {o: coeff})

    @classmethod
    def one(cls, p):
        """The unit: the empty word's orbit in grade 0."""
        r = (p - 1) // 2
        return cls(p, {(0,) * (r + 1): 1})

    def items(self):
        """Sorted (OrbitClass, CycRat) pairs, graded then lexicographic."""
        keys = sorted(self.terms, key=lambda prof: (sum(prof), prof))
        return [(OrbitClass(self.p, k), self.terms[k]) for k in keys]

    def grades(self):
        return sorted({sum(prof) for prof in self.terms})

    def is_integral(self):
        """True when every coefficient is a plain cyclotomic integer."""
        return all(c.den == 1 for c in self.terms.values())

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, RepElement):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("mixed primes")
        merged = dict(self.terms)
        for prof, c in other.terms.items():
            merged[prof] = merged[prof] + c if prof in merged else c
        return RepElement(self.p, merged)

    def __neg__(self):
        return RepElement(self.p, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = as_cycrat(self.p, c)
        return RepElement(self.p,
                          {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, RepElement):
            return NotImplemented
        return rep_mul(self, other)

    def __eq__(self, other):
        return (isinstance(other, RepElement) and other.p == self.p
                and self.terms == other.terms)

    def __repr__(self):
        bits = ["%s*%r" % (c, list(k)) for k, c in sorted(
            self.terms.items())[:5]]
        more = " + ..." if len(self.terms) > 5 else ""
        return "RepElement(p=%d, %s%s)" % (self.p,
                                           " + ".join(bits) or "0", more)


def rep_mul(a, b):
    """Bilinear extension of profile addition (word concatenation)."""
    if a.p != b.p:
        raise ValueError("mixed primes")
    out = {}
    for pa, ca in a.terms.items():
        for pb, cb in b.terms.items():
            prof = tuple(x + y for x, y in zip(pa, pb))
            c = ca * cb
            out[prof] = out[prof] + c if prof in out else c
    return RepElement(a.p, out)


# ---------------------------------------------------------------------------
# Partition functions and the series map
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _digit_minimum(p, j):
    """(min norm, count at the min) over the single-digit coset class j."""
    if j == 0:
        return Fraction(0), 1
    lat = standard_lattice(p, 1)
    bound = Fraction(j * j * (p - 1), p)    # norm of the plain lift j
    hist = count_by_norm(lat, bound, shift_word=(j,))
    m = min(hist)
    return m, hist[m]


def conformal_weight(o):
    """Half the minimal norm over the orbit's coset; additive in digits."""
    return _leading_data(o)[0]


@lru_cache(maxsize=64)
def orbit_theta(o, cutoff):
    """Exact coset theta expansion of the orbit, exponents in (1/p)Z."""
    p = o.p
    if o.n == 0:
        return QSeries.one(p, cutoff, N=p)
    lat = standard_lattice(p, o.n)
    return theta_series(lat, cutoff, shift_word=o.representative())


def z_map(x, cutoff):
    """Series image of a representation-ring element: the sum of coset
    theta expansions weighted by the coefficients.  The eta factors of the
    partition functions cancel against the normalisation exactly, so this
    is computed directly from lattice enumeration."""
    if isinstance(x, OrbitClass):
        x = RepElement.from_orbit(x)
    total = QSeries.zero(x.p, Fraction(cutoff), N=x.p)
    for o, c in x.items():
        total = total + orbit_theta(o, cutoff).scale(c)
    return total


class ThetaMonomial:
    """Formal monomial in the r+1 digit-class theta symbols."""

    __slots__ = ("p", "exponents")

    def __init__(self, p, exponents):
        check_odd_prime(p)
        r = (p - 1) // 2
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != r + 1 or any(e < 0 for e in exponents):
            raise ValueError("need %d nonnegative exponents" % (r + 1))
        self.p = p
        self.exponents = exponents

    @property
    def weight(self):
        return sum(self.exponents)

    def __mul__(self, other):
        if not isinstance(other, ThetaMonomial) or other.p != self.p:
            raise ValueError("can only multiply monomials for one prime")
        return ThetaMonomial(self.p, tuple(
            a + b for a, b in zip(self.exponents, other.exponents)))

    def __eq__(self, other):
        return (isinstance(other, ThetaMonomial) and other.p == self.p
                and other.exponents == self.exponents)

    def __hash__(self):
        return hash((self.p, self.exponents))

    def __repr__(self):
        return "ThetaMonomial(p=%d, %r)" % (self.p, self.exponents)


def z_tilde(o):
    """The monomial with exponents equal to the orbit profile."""
    return ThetaMonomial(o.p, o.profile)


def module_of_code(code):
    """The code's module class: one orbit term per word, counted."""
    check_odd_prime(code.p)
    return RepElement(code.p, weight_enumerator(code).coefficients)


# ---------------------------------------------------------------------------
# Grade-n correspondence report
# ---------------------------------------------------------------------------

def _leading_data(o):
    """(leading exponent, leading coefficient) of the orbit's theta.

    Minimal coset vectors factor through the coordinates, so the leading
    coefficient is the product of the per-digit minimum counts."""
    h2 = Fraction(0)
    count = 1
    for j, l in enumerate(o.profile):
        if l:
            m, c = _digit_minimum(o.p, j)
            h2 += l * m
            count *= c ** l
    return h2 / 2, count


def main_theorem_check(p, n, cutoff=Fraction(3)):
    """Certify the grade-n orbit/monomial correspondence.

    Counts orbits by enumeration, cross-checks that the orbit sizes
    partition all p^n words, matches the count against the degree-n
    monomial count C(n+r, r), checks injectivity of the monomial map, and
    separates the series images of distinct orbits (by leading data, with
    a coefficient comparison up to the cutoff as fallback).  For p >= 7
    the correspondence is still reported, but bijectivity onto the full
    ring of symmetric theta expressions is not asserted.
    """
    check_odd_prime(p)
    r = (p - 1) // 2
    orbits = all_orbits(p, n)
    mass = sum(orbit_size(o) for o in orbits)
    mass_ok = mass == p ** n
    expected = comb(n + r, r)
    monomials = {z_tilde(o) for o in orbits}
    injective = len(monomials) == len(orbits)
    counts_match = len(orbits) == expected and len(monomials) == expected

    by_leading = {}
    for o in orbits:
        by_leading.setdefault(_leading_data(o), []).append(o)
    separated = True
    needed_series = 0
    for group in by_leading.values():
        if len(group) == 1:
            continue
        needed_series += len(group)
        series = [z_map(o, cutoff) for o in group]
        for i in range(len(series)):
            for j in range(i + 1, len(series)):
                if series[i] == series[j]:
                    separated = False

    asserted = p in (3, 5)
    ok = mass_ok and counts_match and injective and separated
    report = {
        "prime": p,
        "n": n,
        "orbits": len(orbits),
        "monomials": len(monomials),
        "expected": expected,
        "mass_ok": mass_ok,
        "counts_match": counts_match,
        "monomial_map_injective": injective,
        "series_images_separated": separated,
        "series_comparisons": needed_series,
        "bijectivity_asserted": asserted,
        "pass": ok,
    }
    if not asserted:
        report["note"] = ("map well-defined; bijectivity onto the full "
                          "symmetric theta ring not asserted for p >= 7")
    return report
