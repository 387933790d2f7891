import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tring.poly import (
    DomainError,
    IncreasingMap,
    ParseError,
    Polynomial,
    enumerate_increasing_maps,
    format_polynomial,
    mono_mul,
    mono_str,
    parse_polynomial,
    pullback,
    pushforward,
)
from tring.ring import RT0Element
from tring.rt0 import monomials_of_degree


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


# a sum of 4097 variables: one term above MAX_PRODUCT_PAIRS against a monomial
WIDE = "(" + "+".join(f"t{i}" for i in range(1, 4098)) + ")"


# the exact message and position of each refusal; the parse corpus holds
# these texts too
PINNED_ERRORS = [
    ("3/0*t1", "denominator must be a nonzero integer", 2),
    ("t1^", "exponent must be a non-negative integer", 3),
    ("t1^4097", "exponent above the bound of 4096", 3),
    ("2*t01", "unknown variable 't01'", 2),
    ("t1 t2", "unexpected 't2'", 3),
    ("2**t1", "unexpected '*'", 2),
    ("t1*", "unexpected ''", 3),
    (
        "2*t1*(t0+t1+t2+t3)^6*(t0+t1+t2+t3)^6",
        "product of 84 and 84 terms is above the bound of 4096 term pairs",
        20,
    ),
    # the left factor is the monomial that the atoms before the group make
    ("2*t1*" + WIDE, "product of 1 and 4097 terms is above the bound of 4096 term pairs", 4),
    ("-2*t1^2*" + WIDE, "product of 1 and 4097 terms is above the bound of 4096 term pairs", 7),
    (WIDE + "*t1", "product of 4097 and 1 terms is above the bound of 4096 term pairs", 23476),
    # an unexpected character anywhere outranks every other error
    ("t1 + + $", "unexpected character '$'", 7),
    ("t1^ + \u00b2", "unexpected character '\u00b2'", 6),
    ("(t1 + t2 _", "unexpected character '_'", 9),
    ("3/0*t1 + t2 \u0663", "unexpected character '\u0663'", 12),
    ("2*t1*(t0+t1+t2+t3)^6*(t0+t1+t2+t3)^6 + _x", "unexpected character '_'", 39),
    # ... but a name goes on with any alphanumeric character or "_"
    (
        "2*t1*(t0+t1+t2+t3)^6*(t0+t1+t2+t3)^6 + x_\u00b2",
        "product of 84 and 84 terms is above the bound of 4096 term pairs",
        20,
    ),
]
PINNED_IDS = [
    "zero-denominator",
    "missing-exponent",
    "exponent-bound",
    "non-canonical-variable",
    "missing-operator",
    "double-star",
    "trailing-star",
    "product-bound",
    "product-bound-folded-left",
    "product-bound-negated-folded-left",
    "product-bound-atom-right",
    "character-after-operator",
    "character-after-exponent",
    "character-in-group",
    "character-after-denominator",
    "character-after-product-bound",
    "name-after-product-bound",
]

# refusals that only the recursive descent meets; the corpus is built from
# PINNED_ERRORS, so these stay out of it
DESCENT_ERRORS = [
    ("(t1+t2)*3/0", "denominator must be a nonzero integer", 10),
    # an atom between the groups: each product is checked at its own "*"
    (
        "(t0+t1+t2+t3)^6*t1*(t0+t1+t2+t3)^6",
        "product of 84 and 84 terms is above the bound of 4096 term pairs",
        18,
    ),
]
DESCENT_ERROR_IDS = ["descent-zero-denominator", "product-bound-atom-between"]


@pytest.mark.parametrize(
    "text, message, position",
    PINNED_ERRORS + DESCENT_ERRORS,
    ids=PINNED_IDS + DESCENT_ERROR_IDS,
)
def test_parse_error_messages(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


# terms that no simple-term match reads, with the printed result and the
# type of each coefficient in term order, as the parser gave them when its
# descent folded atoms into (monomial, coefficient) pairs
DESCENT_TERMS = [
    ("2^3*(t1+t2)*t1", "8*t1^2 + 8*t1*t2", [int, int]),
    ("(4/2)*t1^2", "2*t1^2", [int]),
    ("-(t1)^2*t2", "-t1^2*t2", [int]),
    ("t1*(t0+t1)*t2^3*2/3", "2/3*t0*t1*t2^3 + 2/3*t1^2*t2^3", [Fraction, Fraction]),
    ("0^0*(t1+t2)", "t1 + t2", [int, int]),
    ("2*-(t1+t2)^2", "2*t1^2 + 4*t1*t2 + 2*t2^2", [int, int, int]),
    ("t1*0*(t0+t1)^3", "0", []),
    ("(1/2)^3*t1", "1/8*t1", [Fraction]),
    ("-2^2*t1", "-4*t1", [int]),
    ("t1*2", "2*t1", [int]),
    ("2*3*t1", "6*t1", [int]),
    ("t1^00001", "t1", [int]),
]


@pytest.mark.parametrize("text, printed, types", DESCENT_TERMS)
def test_descent_terms(text, printed, types):
    p = parse_polynomial(text)
    assert str(p) == printed
    assert [type(c) for c in p.terms.values()] == types


def test_zero_factors_pair_no_terms():
    # a zero coefficient leaves a product with no term to pair
    for text in ("0*t1*" + WIDE, WIDE + "*0", "(t1-t1)*" + WIDE):
        assert parse_polynomial(text) == Polynomial.zero()


# -- the parse corpus ----------------------------------------------------------

CORPUS = Path(__file__).resolve().parent / "golden" / "parse_corpus.json"
CORPUS_COEFFICIENTS = ("1", "2", "3", "7", "1/2", "1/3", "2/3", "5/3", "7/2", "4/2", "0/5")
# one-character edits of the operands: every token class, a space, a tab,
# an em space, and characters that are alphanumeric but no ASCII digit
EDIT_CHARACTERS = "09/*^()+-tx_\u00b2\u0663 \t\u2003"


def corpus_operand(rng: random.Random, degree: int) -> str:
    """Expression text in the shape of a benchmark operand: every monomial
    of the degree with a random coefficient (1 left out) and sign, and from
    degree 2 on one c*(t0+t1)^2*mono term at a random place."""
    terms = []
    for mono in monomials_of_degree(degree):
        c = rng.choice(CORPUS_COEFFICIENTS)
        terms.append(mono_str(mono) if c == "1" else f"{c}*{mono_str(mono)}")
    if degree >= 2:
        inner = mono_str(rng.choice(monomials_of_degree(degree - 2)))
        group = f"{rng.choice(CORPUS_COEFFICIENTS)}*(t0+t1)^2*{inner}"
        terms.insert(rng.randrange(len(terms) + 1), group)
    text = rng.choice(("", "-")) + terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return text


def corpus_edits(rng: random.Random, text: str) -> list[str]:
    """Two seeded deletions, two insertions and two substitutions of one
    character each."""
    out = []
    for _ in range(2):
        i = rng.randrange(len(text))
        out.append(text[:i] + text[i + 1 :])
        i = rng.randrange(len(text) + 1)
        out.append(text[:i] + rng.choice(EDIT_CHARACTERS) + text[i:])
        i = rng.randrange(len(text))
        out.append(text[:i] + rng.choice(EDIT_CHARACTERS) + text[i + 1 :])
    return out


def corpus_texts() -> list[str]:
    texts = [text for text, _, _ in PINNED_ERRORS]
    rng = random.Random(20081)
    for _ in range(300):
        operand = corpus_operand(rng, rng.randint(0, 4))
        texts.append(operand)
        texts.extend(corpus_edits(rng, operand))
    return list(dict.fromkeys(texts))


def parse_outcome(text: str) -> list[str]:
    """["ok", printed text] or ["error", the ParseError text]."""
    try:
        return ["ok", str(parse_polynomial(text))]
    except ParseError as err:
        return ["error", str(err)]


def record_parse_corpus() -> None:
    """Write the corpus, one [text, kind, value] entry a line."""
    lines = [json.dumps([text, *parse_outcome(text)]) for text in corpus_texts()]
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def test_parse_corpus_is_reproduced():
    """Every text of the corpus parses to its recorded printed result, or
    fails with its recorded message and position, byte for byte.

    The corpus was recorded from the parser the single-pattern term reader
    replaced, before it changed, with

        PYTHONPATH=src:tests python -c "import test_poly; test_poly.record_parse_corpus()"
    """
    entries = json.loads(CORPUS.read_text())
    assert [text for text, _, _ in entries] == corpus_texts()
    for text, kind, value in entries:
        assert parse_outcome(text) == [kind, value], text


# -- the parser against the Polynomial operations -------------------------------


@st.composite
def literals(draw):
    numerator = draw(st.integers(0, 9))
    denominator = draw(st.integers(1, 4))
    text = f"{numerator}/{denominator}" if draw(st.booleans()) else str(numerator)
    value = Fraction(numerator, denominator) if "/" in text else Fraction(numerator)
    return ("literal", text, value)


leaves = st.one_of(literals(), st.integers(0, 3).map(lambda i: ("var", i)))


def _trees(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), children, children),
        st.tuples(st.just("^"), children, st.integers(0, 3)),
        st.tuples(st.sampled_from(["neg", "sign", "group"]), children),
    )


expression_trees = st.recursive(leaves, _trees, max_leaves=10)


LEVELS = ("expr", "term", "factor", "atom")
LEVEL = {"+": "expr", "-": "expr", "sign": "expr", "*": "term", "^": "factor"}


def render(tree, gap: Callable[[], str], ctx: str = "expr", lead: bool = True) -> str:
    """Text for tree where the grammar expects ctx, a sum ("expr"), a
    "term", a "factor" or an "atom", parenthesised where ctx asks for
    more than the tree's own level.  lead says that the text starts a
    sum, where a minus is read as the sign of the sum's first term.
    gap() gives the blanks put between two tokens."""
    kind = tree[0]

    def joined(first: str, *rest: str) -> str:
        return first + "".join(gap() + piece for piece in rest)

    if LEVELS.index(LEVEL.get(kind, "atom")) < LEVELS.index(ctx):
        return joined("(", render(tree, gap), ")")
    if kind == "neg" and lead:
        return joined("(", render(tree, gap, lead=False), ")")
    if kind == "literal":
        return joined(*tree[1].partition("/")) if "/" in tree[1] else tree[1]
    if kind == "var":
        return f"t{tree[1]}"
    if kind == "group":
        return joined("(", render(tree[1], gap), ")")
    if kind in ("+", "-"):
        return joined(render(tree[1], gap, "expr", lead), kind, render(tree[2], gap, "term", False))
    if kind == "*":
        return joined(render(tree[1], gap, "term", lead), "*", render(tree[2], gap, "factor", False))
    if kind == "^":
        return joined(render(tree[1], gap, "atom", lead), "^", str(tree[2]))
    if kind == "sign":
        # negates the whole first term: -t1^2 is -(t1^2)
        return joined("-", render(tree[1], gap, "term", False))
    # a minus inside a term negates one atom: 2*-t1^2 is 2*(-t1)^2
    return joined("-", render(tree[1], gap, "atom", False))


def evaluate(tree, sizes: list[int]) -> Polynomial:
    """tree built by the Polynomial operations; sizes collects the term
    counts of every value and every square of a power."""
    kind = tree[0]
    if kind == "literal":
        out = Polynomial.const(tree[2])
    elif kind == "var":
        out = Polynomial.variable(tree[1])
    elif kind == "group":
        out = evaluate(tree[1], sizes)
    elif kind in ("neg", "sign"):
        out = -evaluate(tree[1], sizes)
    elif kind == "^":
        base = evaluate(tree[1], sizes)
        sizes.append(len((base * base).terms))
        out = base ** tree[2]
    else:
        left, right = evaluate(tree[1], sizes), evaluate(tree[2], sizes)
        out = {"+": left + right, "-": left - right, "*": left * right}[kind]
    sizes.append(len(out.terms))
    return out


def _typed(p: Polynomial) -> dict:
    return {m: (c, type(c)) for m, c in p.terms.items()}


# the blanks between tokens: a space, a tab and an em space, which
# str.isspace admits
BLANKS = (" ", "\t", "\u2003")


@settings(max_examples=300, deadline=None)
@given(expression_trees, st.randoms(use_true_random=False))
@example(("^", ("neg", ("var", 1)), 2), random.Random(0))
@example(("sign", ("^", ("var", 1), 2)), random.Random(0))
@example(
    ("*", ("literal", "0/3", Fraction(0)), ("group", ("+", ("var", 1), ("var", 2)))),
    random.Random(0),
)
def test_parser_matches_the_polynomial_operations(tree, rng):
    sizes: list[int] = []
    expected = evaluate(tree, sizes)
    # every product then pairs at most 40 * 40 terms, within MAX_PRODUCT_PAIRS
    assume(max(sizes) <= 40)

    def gap() -> str:
        return "".join(rng.choice(BLANKS) for _ in range(rng.choice((0, 0, 1, 3))))

    text = gap() + render(tree, gap) + gap()
    assert _typed(parse_polynomial(text)) == _typed(expected), text


def reference_text(x: RT0Element) -> str:
    """The canonical text, sorted by degree and then by the negated dense
    exponent vector, written out term by term."""

    def key(mono):
        vector = [0] * (mono[-1][0] + 1 if mono else 0)
        for var, exp in mono:
            vector[var] = exp
        return sum(vector), [-e for e in vector]

    terms = x.to_polynomial().terms
    out = ""
    for mono in sorted(terms, key=key):
        c = terms[mono]
        factors = "*".join(f"t{v}" if e == 1 else f"t{v}^{e}" for v, e in mono)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = factors
        else:
            body = f"{abs(c)}*{factors}"
        if not out:
            out = "-" + body if c < 0 else body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


@st.composite
def dense_elements(draw):
    # every monomial of a few degrees, so that each degree is full and
    # the order inside it is exercised
    terms = {}
    for degree in draw(st.sets(st.integers(0, 5), max_size=3)):
        for mono in monomials_of_degree(degree):
            terms[mono] = draw(rule_coeffs)
    return RT0Element.from_polynomial(Polynomial(terms))


@settings(max_examples=100, deadline=None)
@given(dense_elements())
def test_printer_matches_a_reference_order(x):
    assert str(x) == reference_text(x)


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
