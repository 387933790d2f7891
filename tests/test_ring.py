import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tring.poly import Polynomial, parse_polynomial
from tring.ring import (
    NotInRingError,
    RElement,
    RdElement,
    RT0Element,
    add_term,
    check_component,
    decode_rd,
    dot_mul,
    nonzero_terms,
    project_to_level,
    r_mul,
    restrict_level,
)


def P(text):
    return parse_polynomial(text)


def R(*pairs):
    return RElement({n: P(text) for n, text in pairs})


def test_check_component():
    assert check_component(2, P("t1*t2 + 3*t1^2*t2"))
    assert not check_component(2, P("t1*t3"))
    assert check_component(0, P("7"))
    assert not check_component(1, P("t0*t1"))
    assert not check_component(1, P("1 + t1"))


def test_relement_validation():
    with pytest.raises(NotInRingError):
        RElement({1: P("t2")})
    with pytest.raises(NotInRingError):
        RElement({2: P("t1")})
    with pytest.raises(NotInRingError):
        RElement({1: P("t0*t1")})
    assert RElement({1: P("0")}) == RElement.zero()


def test_relement_is_the_t0_free_case():
    components = {1: P("t1^2"), 2: P("3*t1*t2")}
    f, x = RElement(components), RT0Element(components)
    assert f == x and x == f
    assert hash(f) == hash(x)
    assert r_mul is dot_mul
    assert type(f + f) is RT0Element


def test_r_mul_generator_values():
    t1 = R((1, "t1"))
    assert r_mul(t1, t1) == R((1, "t1^2"), (2, "2*t1*t2"))
    t1t2 = R((2, "t1*t2"))
    assert r_mul(t1, t1t2) == R((2, "t1^2*t2 + t1*t2^2"), (3, "3*t1*t2*t3"))
    assert r_mul(RElement.unit(), t1t2) == t1t2
    # cubes force the covering-count combinatorics
    cube = r_mul(r_mul(t1, t1), t1)
    assert cube == R((1, "t1^3"), (2, "3*t1^2*t2 + 3*t1*t2^2"), (3, "6*t1*t2*t3"))


def test_project_examples():
    assert project_to_level(R((1, "t1")), 3).value == P("t1+t2+t3")
    assert project_to_level(RElement.unit(5), 4).value == P("5")
    assert project_to_level(R((2, "t1*t2")), 3).value == P("t1*t2+t1*t3+t2*t3")


def _random_relement(rng, max_n=2, max_deg=3, terms=2):
    components = {}
    for _ in range(terms):
        n = rng.randint(0, max_n)
        exps = {i: 1 for i in range(1, n + 1)}
        budget = max_deg - n
        for _ in range(max(budget, 0)):
            if n and rng.random() < 0.7:
                exps[rng.randint(1, n)] += 1
        coeff = Fraction(rng.randint(-4, 4))
        if coeff == 0:
            coeff = Fraction(1)
        p = Polynomial.monomial(exps, coeff)
        components[n] = components.get(n, Polynomial.zero()) + p
    return RElement({n: p for n, p in components.items() if p})


def test_r_mul_commutative_associative_random():
    rng = random.Random(7)
    for _ in range(25):
        f = _random_relement(rng)
        g = _random_relement(rng)
        h = _random_relement(rng)
        assert r_mul(f, g) == r_mul(g, f)
        assert r_mul(r_mul(f, g), h) == r_mul(f, r_mul(g, h))


def test_projection_is_ring_hom():
    rng = random.Random(11)
    for _ in range(25):
        f = _random_relement(rng)
        g = _random_relement(rng)
        for d in range(0, 5):
            lhs = project_to_level(r_mul(f, g), d).value
            rhs = project_to_level(f, d).value * project_to_level(g, d).value
            assert lhs == rhs


def test_tower_compatibility():
    rng = random.Random(13)
    for _ in range(20):
        f = _random_relement(rng)
        for d in range(1, 5):
            assert restrict_level(project_to_level(f, d)) == project_to_level(
                f, d - 1
            )


def test_restrict_examples():
    assert restrict_level(RdElement(2, P("t1+t2"))) == RdElement(1, P("t1"))
    assert restrict_level(RdElement(2, P("t1*t2"))) == RdElement(1, P("0"))
    assert restrict_level(RdElement(1, P("3"))) == RdElement(0, P("3"))


def test_decode_examples():
    assert decode_rd(P("t1+t2+t3"), 3) == R((1, "t1"))
    assert decode_rd(P("5"), 0) == RElement.unit(5)
    with pytest.raises(NotInRingError):
        decode_rd(P("t0+t1"), 2)
    with pytest.raises(NotInRingError):
        decode_rd(P("t1"), 0)
    # a symmetric polynomial carrying t0 round-trips but is still outside
    # the level ring, which only sees t1..td
    with pytest.raises(NotInRingError):
        RdElement(2, P("t0*t1 + t0*t2"))


def test_t2_alone_not_in_level_2():
    # brute-force oracle: the degree-1 slice of the level-2 image is
    # spanned by t1+t2, so t2 alone admits no preimage
    image_degree_1 = project_to_level(R((1, "t1")), 2).value
    target = P("t2")
    assert all(
        image_degree_1.scale(c) != target
        for c in (Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3))
    )
    with pytest.raises(NotInRingError):
        decode_rd(target, 2)


def test_decode_project_roundtrip():
    rng = random.Random(17)
    for _ in range(20):
        f = _random_relement(rng)
        top = max(f.components) if f.components else 0
        for d in range(top, top + 3):
            assert decode_rd(project_to_level(f, d).value, d) == f


def test_grading():
    # product of homogeneous elements of degrees a and b is homogeneous a+b
    f = R((1, "t1^2"))
    g = R((2, "t1*t2"))
    product = r_mul(f, g)
    for p in product.components.values():
        assert p.is_homogeneous()
        assert p.total_degree() == 4


def test_pairs_roundtrip():
    f = R((1, "t1^2"), (2, "3*t1*t2"))
    assert RElement.from_pairs(f.to_pairs()) == f


# -- the coefficient rule ------------------------------------------------------

# few keys and small denominators, so that sums often cancel or turn integral
TERM_KEYS = [(0, ()), (1, (2,)), "h"]
small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TERM_KEYS), small_fractions), max_size=12))
@example([((0, ()), Fraction(1, 2)), ((0, ()), Fraction(1, 2)), ("h", Fraction(1)), ("h", Fraction(-1))])
def test_add_term_folds_to_nonzero_terms(pairs):
    folded: dict = {}
    sums: dict = {}
    for key, c in pairs:
        add_term(folded, key, c)
        sums[key] = sums.get(key, 0) + c
    expected = nonzero_terms(sums)
    assert folded == expected
    assert {k: type(c) for k, c in folded.items()} == {k: type(c) for k, c in expected.items()}
    for c in folded.values():
        assert c and (type(c) is int or c.denominator != 1)
