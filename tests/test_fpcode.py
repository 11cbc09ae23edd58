import functools
import itertools
import operator

import pytest
from hypothesis import assume, given, settings, strategies as st

from thetaforge.fpcode import (
    Code, MonomialTransform, code_predicates, doubly_even, dual_code,
    make_code, min_distance, parse_code_text, standard_codes,
    weight_enumerator, word_profile, zero_code,
)


def apply_monomial(code, g):
    """Image of a code under a monomial transform."""
    if g.p != code.p or g.n != code.n:
        raise ValueError("transform does not match the code")
    return make_code(code.p, code.n,
                     words=[g.apply_word(w) for w in code.words])


def code_to_text(code):
    """A code in the code-file format: "p n", then one word per line."""
    out = ["%d %d" % (code.p, code.n)]
    out.extend(" ".join(str(d) for d in w) for w in code.words)
    return "\n".join(out) + "\n"


def is_closed(words, p, n):
    """Reference: closure of a word set under subtraction (hence a linear
    code), by the quadratic test over all pairs."""
    if tuple([0] * n) not in words:
        return False
    for u in words:
        for v in words:
            if tuple((a - b) % p for a, b in zip(u, v)) not in words:
                return False
    return True


def brute_span(words, p, n):
    """Reference: the F_p-span of a word set, closed up by repeated sums
    and scalar multiples, with no elimination."""
    span = {(0,) * n}
    frontier = set(span)
    while frontier:
        new = set()
        for u in frontier:
            for w in words:
                for a in range(1, p):
                    v = tuple((x + a * y) % p for x, y in zip(u, w))
                    if v not in span:
                        new.add(v)
        span |= new
        frontier = new
    return span


def pairwise_min_distance(code):
    """Reference: minimum Hamming distance over every pair of words."""
    best = None
    for u, v in itertools.combinations(code.words, 2):
        d = sum(1 for a, b in zip(u, v) if a != b)
        if best is None or d < best:
            best = d
    return best


def test_make_code_from_generators_spans():
    c = make_code(3, 4, generators=[(1, 0, 1, 2), (0, 1, 1, 1)])
    assert len(c) == 9 and c.dimension == 2
    # the parametric description: all (s, a, a+s, a+2s)
    expected = {(s, a, (a + s) % 3, (a + 2 * s) % 3)
                for s in range(3) for a in range(3)}
    assert c.word_set == expected


def test_make_code_detects_linearity_of_word_lists():
    words = [(s, a, (a + s) % 3, (a + 2 * s) % 3)
             for s in range(3) for a in range(3)]
    c = make_code(3, 4, words=words)
    assert c.is_linear and c.dimension == 2


def test_make_code_nonlinear_words():
    c = make_code(3, 2, words=[(0, 0), (1, 0), (2, 0), (0, 1)])
    assert not c.is_linear
    assert min_distance(c) == 1


def test_make_code_rejects_bad_input():
    with pytest.raises(ValueError):
        make_code(4, 2, words=[(0, 0)])
    with pytest.raises(ValueError):
        make_code(3, 2, words=[(0, 0)], generators=[(1, 0)])
    with pytest.raises(ValueError):
        make_code(3, 2, words=[(0, 0, 0)])
    with pytest.raises(ValueError):
        make_code(3, 2)


def test_spec_style_generators_give_equivalent_tetracode():
    # a differently signed generator pair spans a monomially equivalent code
    other = make_code(3, 4, generators=[(0, 1, 1, 2), (1, 0, 1, 1)])
    tetra = standard_codes("tetracode")
    assert len(other) == 9
    assert code_predicates(other)["self_dual"]
    assert weight_enumerator(other) == weight_enumerator(tetra)
    g = MonomialTransform(3, sigma=(0, 1, 2, 3), scalars=(1, 1, 1, 2))
    assert apply_monomial(other, g) == tetra


def test_dual_is_involution_and_dimensions_add():
    for gens, p, n in [
        ([(1, 0, 1, 2)], 3, 4),
        ([(1, 1, 0, 0), (0, 0, 1, 1)], 2, 4),
        ([(1, 2, 3, 4, 0)], 5, 5),
    ]:
        c = make_code(p, n, generators=gens)
        d = dual_code(c)
        assert d.dimension + c.dimension == n
        assert dual_code(d) == c


def test_dual_of_zero_code_is_everything():
    z = zero_code(3, 2)
    d = dual_code(z)
    assert len(d) == 9
    assert dual_code(d) == z


def test_dual_requires_linearity():
    c = make_code(3, 2, words=[(0, 0), (1, 1), (2, 0)])
    with pytest.raises(ValueError):
        dual_code(c)


def test_word_profile_symmetrizes_signs():
    assert word_profile((0, 1, 2, 1), 3) == (1, 3)
    assert word_profile((0, 1, 2, 3, 4), 5) == (1, 2, 2)
    assert word_profile((1, 0, 1), 2) == (1, 2)


def test_tetracode_facts():
    t = standard_codes("tetracode")
    preds = code_predicates(t)
    assert preds["self_dual"] and preds["self_orthogonal"]
    assert preds["min_distance"] == 3
    w = weight_enumerator(t)
    assert w.coefficients == {(4, 0): 1, (1, 3): 8}
    assert w.mass() == len(t) == 9


def test_hamming8_facts():
    h = standard_codes("hamming8")
    preds = code_predicates(h)
    assert preds["self_dual"] and preds["doubly_even"]
    assert preds["min_distance"] == 4
    w = weight_enumerator(h)
    assert w.coefficients == {(8, 0): 1, (4, 4): 14, (0, 8): 1}


def test_golay12_facts():
    g = standard_codes("golay12")
    assert len(g) == 729 and g.dimension == 6
    preds = code_predicates(g)
    assert preds["self_dual"]
    assert preds["min_distance"] == 6
    w = weight_enumerator(g)
    assert w.coefficients == {(12, 0): 1, (6, 6): 264, (3, 9): 440,
                              (0, 12): 24}


def test_standard_codes_rejects_unknown():
    with pytest.raises(ValueError):
        standard_codes("golay24")


def test_doubly_even_is_binary_only():
    with pytest.raises(ValueError):
        doubly_even(standard_codes("tetracode"))


def test_enumerator_mass_and_monomial_invariance():
    t = standard_codes("tetracode")
    g = MonomialTransform(3, sigma=(2, 0, 3, 1), scalars=(1, 2, 2, 1))
    image = apply_monomial(t, g)
    assert weight_enumerator(image) == weight_enumerator(t)
    assert weight_enumerator(image).mass() == len(t)


def test_monomial_composition_law():
    p, n = 5, 4
    words = [(1, 2, 3, 4), (0, 0, 1, 0), (4, 4, 0, 2)]
    c = make_code(p, n, words=words)
    g = MonomialTransform(p, (1, 3, 0, 2), (2, 1, 4, 3))
    h = MonomialTransform(p, (3, 2, 1, 0), (1, 1, 2, 2))
    two_step = apply_monomial(apply_monomial(c, g), h)
    assert two_step == apply_monomial(c, h.compose(g))
    for w in words:
        assert h.apply_word(g.apply_word(w)) == h.compose(g).apply_word(w)


def test_monomial_validation():
    with pytest.raises(ValueError):
        MonomialTransform(3, (0, 0), (1, 1))
    with pytest.raises(ValueError):
        MonomialTransform(3, (0, 1), (1, 3))   # 3 = 0 mod 3 is not a unit


def test_code_file_round_trip():
    t = standard_codes("tetracode")
    text = code_to_text(t)
    back = parse_code_text(text)
    assert back == t and back.is_linear


def test_code_file_comments_and_errors():
    c = parse_code_text("# header\n3 2\n0 0  # zero\n1 2\n")
    assert c.word_set == {(0, 0), (1, 2)}
    with pytest.raises(ValueError):
        parse_code_text("3\n0 0\n")
    with pytest.raises(ValueError):
        parse_code_text("3 2\n")
    with pytest.raises(ValueError):
        parse_code_text("3 2\n0 0 0\n")


def test_duality_of_enumerator_mass_bound():
    # |C| * |dual C| = p^n for linear codes
    for name, p, n in [("tetracode", 3, 4), ("hamming8", 2, 8)]:
        c = standard_codes(name)
        assert len(c) * len(dual_code(c)) == p ** n


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_linearity_by_rank_matches_closure_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    word = st.tuples(*[st.integers(0, p - 1)] * n)
    gens = data.draw(st.lists(word, max_size=n))
    words = brute_span(gens, p, n)
    edit = data.draw(st.sampled_from(["none", "add", "remove"]))
    if edit == "add":
        words.add(data.draw(word))
    elif edit == "remove" and len(words) > 1:
        words.discard(data.draw(st.sampled_from(sorted(words))))
    code = make_code(p, n, words=words)
    assert code.is_linear == is_closed(code.word_set, p, n)
    if code.is_linear:
        # a closed word set is its own span, so its rank is log_p |C|
        assert p ** code.dimension == len(words)
        assert len(code.basis) == code.dimension
        assert brute_span(code.basis, p, n) == code.word_set
    else:
        assert code.dimension is None and code.basis is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dual_code_properties(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 5))
    word = st.tuples(*[st.integers(0, p - 1)] * n)
    code = make_code(p, n, generators=data.draw(st.lists(word, min_size=1,
                                                         max_size=n)))
    dual = dual_code(code)
    for u in dual.words:
        for v in code.words:
            assert sum(a * b for a, b in zip(u, v)) % p == 0
    assert dual.dimension + code.dimension == n
    assert dual_code(dual) == code


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_min_distance_matches_pairwise_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 5))
    word = st.tuples(*[st.integers(0, p - 1)] * n)
    code = make_code(p, n, words=data.draw(st.sets(word, min_size=2,
                                                   max_size=40)))
    assume(not code.is_linear)
    assert min_distance(code) == pairwise_min_distance(code)


def test_min_distance_across_row_blocks():
    # the binary Hamming [15,11] code has distance 3 and is perfect; drop
    # the zero word and add 0111...1, which is within 1 of 1111...1 only.
    # Sorted, they are rows 1023 and 2047, in different row blocks.
    def syndrome(w):
        return functools.reduce(operator.xor,
                                (j + 1 for j in range(15) if w[j]), 0)

    hamming = [w for w in itertools.product(range(2), repeat=15)
               if syndrome(w) == 0]
    words = set(hamming) - {(0,) * 15} | {(0,) + (1,) * 14}
    code = make_code(2, 15, words=words)
    assert not code.is_linear and len(code) == 2048
    assert min_distance(code) == 1
    nonzero = make_code(2, 15, words=set(hamming) - {(0,) * 15})
    assert min_distance(nonzero) == 3


def test_full_space_as_words_is_linear():
    # 6561 words: linearity is decided by rank at any size
    code = make_code(3, 8, words=itertools.product(range(3), repeat=8))
    assert code.is_linear and code.dimension == 8


def test_block_self_dual_f5_code_as_words():
    gens = []
    for i in range(6):
        g = [0] * 12
        g[2 * i:2 * i + 2] = (1, 2)
        gens.append(g)
    text = code_to_text(make_code(5, 12, generators=gens))
    code = parse_code_text(text)
    assert len(code) == 5 ** 6
    assert code.is_linear and code.dimension == 6
    assert code_predicates(code)["self_dual"]


def test_monomial_image_keeps_linearity_and_dimension():
    g = MonomialTransform(3, sigma=(2, 0, 3, 1), scalars=(1, 2, 2, 1))
    tetra = standard_codes("tetracode")
    image = apply_monomial(tetra, g)
    assert image.is_linear and image.dimension == tetra.dimension == 2
    nonlinear = make_code(3, 4, words=[(0, 0, 0, 0), (1, 2, 0, 1)])
    image = apply_monomial(nonlinear, g)
    assert not image.is_linear and image.dimension is None
