import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tring.poly import (
    DomainError,
    IncreasingMap,
    ParseError,
    Polynomial,
    enumerate_increasing_maps,
    format_polynomial,
    mono_mul,
    parse_polynomial,
    pullback,
    pushforward,
)
from tring.ring import RT0Element


def P(text: str) -> Polynomial:
    return parse_polynomial(text)


# -- strategies -------------------------------------------------------------

coeffs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
)


@st.composite
def polynomials(draw, max_var=3, max_exp=3, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        nvars = draw(st.integers(0, max_var))
        mono = {}
        for var in range(nvars + 1):
            exp = draw(st.integers(0, max_exp))
            if exp:
                mono[var] = exp
        terms_key = tuple(sorted(mono.items()))
        terms[terms_key] = draw(coeffs)
    return Polynomial(terms)


# -- ring laws --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero()
    assert p * Polynomial.one() == p
    assert p * Polynomial.zero() == Polynomial.zero()


@settings(max_examples=40, deadline=None)
@given(polynomials())
def test_parse_print_roundtrip(p):
    assert parse_polynomial(format_polynomial(p)) == p


# -- increasing maps --------------------------------------------------------


def test_enumerate_small():
    assert [m.values for m in enumerate_increasing_maps(0, 3)] == [()]
    assert [m.values for m in enumerate_increasing_maps(2, 3)] == [
        (1, 2),
        (1, 3),
        (2, 3),
    ]
    assert enumerate_increasing_maps(3, 2) == []


@pytest.mark.parametrize("n,d", [(0, 0), (1, 4), (2, 5), (3, 6), (4, 4)])
def test_enumerate_count_and_distinct(n, d):
    maps = enumerate_increasing_maps(n, d)
    assert len(maps) == math.comb(d, n)
    assert len({m.values for m in maps}) == len(maps)


def test_pushforward_examples():
    alpha = IncreasingMap((1, 3), 3)
    assert pushforward(alpha, P("t1*t2")) == P("t1*t3")
    alpha = IncreasingMap((2,), 2)
    assert pushforward(alpha, P("t0^2*t1")) == P("t0^2*t2")
    empty = IncreasingMap((), 5)
    assert pushforward(empty, P("5")) == P("5")
    with pytest.raises(DomainError):
        pushforward(empty, P("t1"))


def test_pullback_examples():
    alpha = IncreasingMap((1, 3), 3)
    assert pullback(alpha, P("t1*t2*t3")) == Polynomial.zero()
    assert pullback(alpha, P("t1*t3")) == P("t1*t2")
    alpha = IncreasingMap((2,), 2)
    assert pullback(alpha, P("t0+t2")) == P("t0+t1")


@settings(max_examples=40, deadline=None)
@given(polynomials(max_var=2), polynomials(max_var=2))
def test_pushforward_multiplicative(p, q):
    alpha = IncreasingMap((2, 3, 5), 5)
    assert pushforward(alpha, p * q) == pushforward(alpha, p) * pushforward(alpha, q)
    assert pullback(alpha, pushforward(alpha, p)) == p


@settings(max_examples=40, deadline=None)
@given(polynomials(max_var=3))
def test_pullback_multiplicative(p):
    alpha = IncreasingMap((1, 3, 4), 5)
    q = P("1 + t1*t2 + t5")
    lifted_p = p.rename({1: 1, 2: 3, 3: 4})
    assert pullback(alpha, lifted_p * q) == pullback(alpha, lifted_p) * pullback(
        alpha, q
    )


# -- substitutions -----------------------------------------------------------


def test_substitute_t0():
    assert P("t0^2*t1").substitute_t0(P("t0+t1")) == P("t0^2*t1+2*t0*t1^2+t1^3")
    assert P("t1*t2").substitute_t0(P("t0^5+7")) == P("t1*t2")
    assert P("t0").substitute_t0(Polynomial.zero()) == Polynomial.zero()


def test_set_var_zero():
    assert P("t1*t2+t1").set_var_zero(2) == P("t1")
    assert P("t0^3").set_var_zero(1) == P("t0^3")
    assert P("t1").set_var_zero(1) == Polynomial.zero()
    with pytest.raises(DomainError):
        P("t1").set_var_zero(0)


# -- parsing / printing -------------------------------------------------------


def test_parse_examples():
    p = P("t0^2*t1 + 2*t0*t1^2")
    assert p.coefficient(((0, 2), (1, 1))) == 1
    assert p.coefficient(((0, 1), (1, 2))) == 2
    assert P("-(t0+t1)") == -P("t0") - P("t1")
    assert P("t1*t1") == P("t1^2")
    assert P("3/2*t1 - 1/2*t1") == P("t1")


def test_parse_errors():
    with pytest.raises(ParseError):
        P("t1 +")
    with pytest.raises(ParseError):
        P("x1")
    with pytest.raises(ParseError):
        P("t1 ^ t2")
    with pytest.raises(ParseError):
        P("(t1")
    with pytest.raises(ParseError):
        P("1/0")
    try:
        P("t1 + $")
    except ParseError as err:
        assert err.position == 5


def test_variable_names_must_be_canonical():
    for text in ("t01", "t007", "t00", "t1*t02"):
        with pytest.raises(ParseError, match="unknown variable"):
            P(text)
    assert P("t10") == Polynomial.variable(10)
    assert P("t0") == Polynomial.variable(0)


def test_canonical_order():
    # ascending degree, then lexicographically largest first with t0 heaviest
    assert str(P("t1^2 + t0*t1 + t1*t2")) == "t0*t1 + t1^2 + t1*t2"
    assert str(P("2*t1*t2 + t1^2 + t0*t1 + t0")) == "t0 + t0*t1 + t1^2 + 2*t1*t2"
    assert str(P("0")) == "0"
    assert str(P("-t1 - 1/2")) == "-1/2 - t1"
    assert str(P("t2 - 3*t1")) == "-3*t1 + t2"


# -- the coefficient rule -----------------------------------------------------

# ints and Fractions, integral ones such as Fraction(3) among them, over a
# few denominators, so that sums cancel and products such as 2/3 * 3/2
# turn out integral
rule_coeffs = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([Fraction(3), Fraction(2, 3), Fraction(3, 2), Fraction(-1, 6)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)

# valid family monomials (contiguous t1..tn) and two that skip t1; few of
# them, so that terms collide
VALID_MONOS = [(), ((0, 1),), ((1, 1),), ((0, 1), (1, 1)), ((1, 2),), ((1, 1), (2, 1))]
MONOS = VALID_MONOS + [((2, 1),), ((0, 1), (2, 2))]


def rule_polynomials(monos=MONOS):
    return st.dictionaries(st.sampled_from(monos), rule_coeffs, max_size=5).map(Polynomial)


def assert_rule(p: Polynomial) -> None:
    for c in p.terms.values():
        assert c
        assert type(c) is (int if c.denominator == 1 else Fraction)


def ref_add(a: dict, b: dict) -> dict:
    out = {m: Fraction(c) for m, c in a.items()}
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + Fraction(c1) * c2
    return {m: c for m, c in out.items() if c}


@settings(max_examples=200, deadline=None)
@given(rule_polynomials(), rule_polynomials(), rule_coeffs, st.integers(0, 3))
@example(
    Polynomial({((1, 1),): Fraction(2, 3), (): Fraction(1, 2)}),
    Polynomial({((1, 1),): Fraction(3, 2), (): Fraction(-1, 2)}),
    Fraction(3, 2),
    2,
)
def test_every_operation_keeps_the_coefficient_rule(p, q, c, exp):
    results = [
        p + q,
        p - q,
        p - p,
        p * q,
        p**exp,
        p.scale(c),
        p.rename({2: 1}),
        pushforward(IncreasingMap((2, 3), 3), p),
        pullback(IncreasingMap((2,), 2), p),
        pullback(IncreasingMap((1, 2), 2), p),
        p.substitute_t0(q),
        p.set_var_zero(1),
        parse_polynomial(format_polynomial(p)),
    ]
    for r in [p, q] + results:
        assert_rule(r)
    assert (p + q).terms == ref_add(p.terms, q.terms)
    assert (p * q).terms == ref_mul(p.terms, q.terms)
    assert p.scale(c).terms == ref_mul(p.terms, {(): c})
    assert p.coefficient(((3, 5),)) == 0


@settings(max_examples=100, deadline=None)
@given(rule_polynomials(VALID_MONOS))
def test_family_elements_keep_the_polynomial_terms(p):
    back = RT0Element.from_polynomial(p).to_polynomial().terms
    assert {m: (c, type(c)) for m, c in back.items()} == {
        m: (c, type(c)) for m, c in p.terms.items()
    }
