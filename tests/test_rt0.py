import random
from fractions import Fraction
from graphlib import TopologicalSorter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tring.base import DegreeMismatchError, rank2_base, trivial_base
from tring.poly import (
    Polynomial,
    _mono_sort_key,
    mono_degree,
    parse_polynomial,
    positive_support,
)
from tring.ring import (
    RElement,
    _split_mono,
    check_component,
    decode_components,
    decode_rd,
    project_components,
    project_to_level,
    r_mul,
)
from tring.rt0 import (
    MAX_BASIS_DEGREE,
    ConsistencyError,
    _basis_matrix,
    _concatenation,
    InvalidElementError,
    RT0Element,
    class_constants,
    dot_mul,
    dot_power,
    evaluate_involution_word,
    evaluate_structure_word,
    iota,
    leading_term_check,
    monomials_of_degree,
    odot,
    odot_basis_expand,
    odot_basis_expand_iota,
    q_k,
    structure_words,
    substitute_class,
)


def E(text: str) -> RT0Element:
    return RT0Element.from_text(text)


def P(text: str) -> Polynomial:
    return parse_polynomial(text)


# -- construction -------------------------------------------------------------


def test_from_polynomial_grouping():
    x = E("t0^2*t1 + t1*t2")
    assert sorted(x.components) == [1, 2]
    assert x.components[1] == P("t0^2*t1")
    assert x.components[2] == P("t1*t2")
    assert E("1").components == {0: P("1")}


def test_from_polynomial_rejects_gaps():
    with pytest.raises(InvalidElementError, match="t1\\*t3"):
        E("t1*t3")
    with pytest.raises(InvalidElementError):
        E("t2")
    with pytest.raises(InvalidElementError):
        RT0Element({2: P("t1*t3")})


# -- dot product ---------------------------------------------------------------


def test_dot_generator_values():
    assert dot_mul(E("t1"), E("t1")) == E("t1^2 + 2*t1*t2")
    assert dot_mul(E("t1"), E("t1*t2")) == E("t1^2*t2 + t1*t2^2 + 3*t1*t2*t3")
    # t0 is a free variable for the dot product
    assert dot_mul(E("t0^2"), E("t0*t1*t2^3")) == E("t0^3*t1*t2^3")
    assert dot_mul(RT0Element.one(), E("t0+t1")) == E("t0+t1")


def test_dot_degree_additive():
    x, y = E("t0*t1"), E("t1^2")
    product = dot_mul(x, y)
    assert product.is_homogeneous() and product.degree() == 4


# -- iota ---------------------------------------------------------------------


def iota_via_truncation(x: RT0Element) -> RT0Element:
    """Independent model of the involution: project to a finite level,
    substitute t0 -> -(t0+...+td) and reverse t1..td, decode back."""
    d = max(x.degree(), 1)
    value = project_components(x.components, d)
    reversed_value = value.rename({i: d - i + 1 for i in range(1, d + 1)})
    total = Polynomial.zero()
    for i in range(d + 1):
        total = total + Polynomial.variable(i)
    substituted = reversed_value.substitute_t0(-total)
    return RT0Element(decode_components(substituted, d))


def test_iota_simple_values():
    assert iota(RT0Element.one()) == RT0Element.one()
    assert iota(E("t1*t2^2")) == E("t1^2*t2")
    assert iota(E("t0")) == E("-t0-t1")
    assert iota(E("t1")) == E("t1")


def test_iota_worked_cube():
    # (t1 . t1) . t1, needed below, pinned against the level-2 projection:
    # the projection is multiplicative, so it must match (t1+t2)^3 there
    cube = dot_mul(dot_mul(E("t1"), E("t1")), E("t1"))
    assert cube == E("t1^3 + 3*t1^2*t2 + 3*t1*t2^2 + 6*t1*t2*t3")
    assert project_components(cube.components, 2) == P("t1+t2") ** 3


def test_iota_t0_squared_t1():
    # independent oracle first; the frozen literal agrees with it
    expected = iota_via_truncation(E("t0^2*t1"))
    frozen = E(
        "t0^2*t1 + 2*t0*t1^2 + 4*t0*t1*t2 + t1^3 + 3*t1^2*t2 + 3*t1*t2^2"
        " + 6*t1*t2*t3"
    )
    assert expected == frozen
    assert iota(E("t0^2*t1")) == frozen


def test_iota_involution_and_hom():
    for text in ("t0", "t1", "t0*t1", "t1*t2", "t0^2", "t0^2*t1"):
        x = E(text)
        assert iota(iota(x)) == x
    pairs = [("t0", "t1"), ("t1", "t1*t2"), ("t0*t1", "t0")]
    for a, b in pairs:
        x, y = E(a), E(b)
        assert iota(dot_mul(x, y)) == dot_mul(iota(x), iota(y))


# -- q_k -----------------------------------------------------------------------


def test_q_k_values():
    # j-th summand contributes t_j when both factors are 1
    assert q_k(RT0Element.one(), RT0Element.one(), 3) == P("t1+t2+t3")
    # hand evaluation: j=1 gives t0*t1, j=2 gives t0*t2
    assert q_k(E("t0"), RT0Element.one(), 2) == P("t0*t1 + t0*t2")


def test_q_k_tower_compatibility():
    rng = random.Random(23)
    for _ in range(12):
        f = _random_monomial(rng)
        g = _random_monomial(rng)
        for k in range(1, 5):
            larger = q_k(f, g, k + 1)
            assert larger.set_var_zero(k + 1) == q_k(f, g, k)


# -- odot ----------------------------------------------------------------------


def test_odot_unit_powers():
    assert odot(RT0Element.one(), RT0Element.one()) == E("t1")
    power = RT0Element.one()
    expected = Polynomial.one()
    for n in range(2, 7):
        power = odot(power, RT0Element.one())
        expected = expected * Polynomial.variable(n - 1)
        assert power.to_polynomial() == expected


def test_odot_concatenation_case():
    assert odot(E("t0"), RT0Element.one()) == E("t0*t1")
    assert odot(E("t0^2*t1"), E("t1*t2")) == E("t0^2*t1*t2*t3*t4")
    assert odot(RT0Element.one(), E("t1")) == E("t1*t2")


def test_odot_1_with_t0():
    # oracle: t1 . (t0 + t1) computed with the dot product, minus the
    # concatenation value of 1 odot t1, gives 1 odot t0 by bilinearity
    via_identity = dot_mul(E("t1"), E("t0+t1"))
    concat = E("t1*t2")
    expected = via_identity - concat
    assert expected == E("t0*t1 + t1^2 + t1*t2")
    assert odot(RT0Element.one(), E("t0")) == expected


def test_odot_grading_and_linearity():
    rng = random.Random(31)
    for _ in range(10):
        x = _random_monomial(rng)
        y = _random_monomial(rng)
        product = odot(x, y)
        assert product.is_homogeneous()
        assert product.degree() == x.degree() + y.degree() + 1
        # left t0-linearity
        lifted = dot_mul(E("t0^2"), x)
        assert odot(lifted, y) == dot_mul(E("t0^2"), product)


def test_odot_not_commutative():
    assert odot(E("t0"), RT0Element.one()) != odot(RT0Element.one(), E("t0"))


def test_odot_associativity_small():
    elements = [RT0Element.one(), E("t0"), E("t1")]
    for x in elements:
        for y in elements:
            for z in elements:
                assert odot(odot(x, y), z) == odot(x, odot(y, z))


def test_unit_insertion_identity_small():
    for n in range(0, 5):
        power = dot_power(E("t0+t1"), n)
        assert odot(RT0Element.one(), power) == dot_mul(E("t1"), power)


_MONOMIALS_UP_TO_3 = [m for n in range(4) for m in monomials_of_degree(n)]


def _sums(monomials):
    # sums of up to 4 of the given monomials with signed fractional coefficients
    return st.dictionaries(
        st.sampled_from(monomials),
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
        min_size=1,
        max_size=4,
    ).map(lambda terms: RT0Element.from_polynomial(Polynomial(terms)))


_sums_of_monomials = _sums(_MONOMIALS_UP_TO_3)
_t0_free_sums = _sums(
    [m for m in _MONOMIALS_UP_TO_3 if not (m and m[0][0] == 0)]
).map(lambda x: RElement(x.components))


@settings(max_examples=40, deadline=None)
@given(_sums_of_monomials, _sums_of_monomials)
def test_dot_matches_projection(x, y):
    # differential: the product kernel against the level-d projection,
    # which is a ring homomorphism, decoded back at d = deg x + deg y
    d = x.degree() + y.degree()
    value = project_components(x.components, d) * project_components(y.components, d)
    assert dot_mul(x, y) == RT0Element(decode_components(value, d))


@settings(max_examples=40, deadline=None)
@given(_t0_free_sums, _t0_free_sums)
def test_r_mul_matches_projection(f, g):
    d = f.degree() + g.degree()
    value = project_to_level(f, d).value * project_to_level(g, d).value
    assert r_mul(f, g) == decode_rd(value, d)


@settings(max_examples=40, deadline=None)
@given(_sums_of_monomials)
def test_t0_coefficients_rebuild_the_element(x):
    parts = x.t0_coefficients()
    for h in parts.values():
        assert all(check_component(n, p) for n, p in h.components.items())
    rebuilt = RT0Element.zero()
    for a, h in parts.items():
        rebuilt = rebuilt + dot_mul(RT0Element.t0_power(a), h)
    assert rebuilt == x


@settings(max_examples=40, deadline=None)
@given(_sums_of_monomials)
def test_iota_matches_truncation_model(x):
    assert iota(x) == iota_via_truncation(x)


@settings(max_examples=40, deadline=None)
@given(_sums_of_monomials, _sums_of_monomials)
def test_odot_matches_decoded_truncation(x, y):
    # differential: the closed form against the defining truncation path
    level = x.degree() + y.degree() + 1
    via_truncation = RT0Element(decode_components(q_k(x, y, level), level))
    assert odot(x, y) == via_truncation


def _is_canonical(x: RT0Element) -> bool:
    # no zero coefficient survives, and an integral one is an int
    return all(
        c and type(c) is (int if c.denominator == 1 else Fraction)
        for c in x.terms.values()
    )


@settings(max_examples=40, deadline=None)
@given(_sums_of_monomials)
def test_keyed_terms_and_the_polynomial_views_agree(x):
    assert _is_canonical(x)
    assert RT0Element(x.components) == x
    assert RT0Element.from_polynomial(x.to_polynomial()) == x
    assert str(x) == str(x.to_polynomial())
    assert str(x) == str(sum(x.components.values(), Polynomial.zero()))


@settings(max_examples=40, deadline=None)
@given(_sums_of_monomials, _sums_of_monomials)
def test_results_keep_canonical_terms(x, y):
    assert not (x - x).terms
    for z in (x + y, x - y, dot_mul(x, y), iota(x), odot(x, y), x.scale(Fraction(4, 3))):
        assert _is_canonical(z)


@settings(max_examples=40, deadline=None)
@given(_sums_of_monomials, _t0_free_sums)
def test_odot_matches_concatenation(x, g):
    assert odot(x, g) == _concatenation(x, g)


# the integer-numerator kernels against the Fraction references: operands
# whose denominators mix 2, 3, 4 and 6, so that a product's common
# denominator exceeds every coefficient's, terms cancel and quotients
# come out integral; an empty operand is the zero element
_MIXED_COEFFICIENTS = [
    Fraction(c) for c in ("1", "-1", "2", "1/2", "-1/2", "1/3", "-2/3", "3/2", "3/4", "-5/6")
]
_mixed_sums = st.dictionaries(
    st.sampled_from([m for n in range(3) for m in monomials_of_degree(n)]),
    st.sampled_from(_MIXED_COEFFICIENTS),
    max_size=5,
).map(lambda terms: RT0Element.from_polynomial(Polynomial(terms)))


@settings(max_examples=60, deadline=None)
@given(_mixed_sums, _mixed_sums)
def test_integer_kernels_match_the_fraction_references(x, y):
    d = max(x.degree() + y.degree(), 0)
    value = project_components(x.components, d) * project_components(y.components, d)
    product = dot_mul(x, y)
    assert product == RT0Element(decode_components(value, d))
    level = d + 1
    raised = odot(x, y)
    assert raised == RT0Element(decode_components(q_k(x, y, level), level))
    image = iota(x)
    assert iota(image) == x
    for z in (product, raised, image):
        assert _is_canonical(z)


def test_integer_kernels_cancel_and_divide_back_to_ints():
    # the t0*t1 terms cancel: 1/2 * -1/3 + 1/3 * 1/2 = 0 over 36
    assert dot_mul(E("1/2*t0 + 1/3*t1"), E("1/2*t0 - 1/3*t1")) == E(
        "1/4*t0^2 - 1/9*t1^2 - 2/9*t1*t2"
    )
    # numerators over 6 that divide back to ints
    product, raised = dot_mul(E("3/2*t1"), E("2/3*t1")), odot(E("3/2*t1"), E("2/3*t0"))
    assert product.terms == {(0, (1, 1)): 2, (0, (2,)): 1}
    assert raised.terms == {(0, (1, 2)): 1, (0, (1, 1, 1)): 2, (0, (2, 1)): 1, (1, (1, 1)): 1}
    for z in (product, raised):
        assert all(type(c) is int for c in z.terms.values())
    # iota(t0) = -t0 - t1 and iota(t1) = t1, so the t1 terms cancel
    assert iota(E("1/2*t0 + 1/2*t1")).terms == {(1, ()): Fraction(-1, 2)}
    assert dot_mul(E("1/2*t1"), RT0Element.zero()) == RT0Element.zero()
    assert odot(RT0Element.zero(), E("2/3*t0")) == RT0Element.zero()


def test_scaling_to_an_integral_coefficient():
    half = E("2*t1").scale(Fraction(1, 2))
    assert half == E("t1") and hash(half) == hash(E("t1"))
    assert half.terms == {(0, (1,)): 1} and type(half.terms[0, (1,)]) is int


def test_iota_odot_antihomomorphism():
    pairs = [("1", "t0"), ("t0", "t1"), ("t1", "t0*t1"), ("t0", "t0")]
    for a, b in pairs:
        x, y = E(a), E(b)
        assert iota(odot(x, y)) == odot(iota(y), iota(x))


# -- monomial and word bases -----------------------------------------------------


def test_monomial_counts():
    for n in range(0, 9):
        monos = monomials_of_degree(n)
        assert len(monos) == 2**n
        assert len(set(monos)) == len(monos)
        for mono in monos:
            assert mono_degree(mono) == n
            assert all(exp >= 1 for _, exp in mono)
            support = positive_support(mono)
            assert support == frozenset(range(1, len(support) + 1))
        assert monos == sorted(monos, key=_mono_sort_key)


def test_structure_words_count():
    for n in range(0, 7):
        words = structure_words(n)
        assert len(words) == 2**n
        for word in words:
            assert sum(word) + len(word) - 1 == n


def test_basis_expansion_examples():
    assert odot_basis_expand(E("t1")) == {(0, 0): Fraction(1)}
    assert odot_basis_expand(E("t0")) == {(1,): Fraction(1)}
    combo = odot_basis_expand(E("t0*t1 + t1^2 + 2*t1*t2"))
    assert combo == {(0, 1): Fraction(1), (0, 0, 0): Fraction(1)}


def test_basis_roundtrip_degree_le_3():
    for n in range(0, 4):
        for mono in monomials_of_degree(n):
            x = RT0Element.from_polynomial(Polynomial({mono: 1}))
            for kind, evaluate in (
                ("structure", evaluate_structure_word),
                ("iota-basis", evaluate_involution_word),
            ):
                if kind == "structure":
                    expansion = odot_basis_expand(x)
                else:
                    expansion = odot_basis_expand_iota(x)
                rebuilt = RT0Element.zero()
                for word, coeff in expansion.items():
                    rebuilt = rebuilt + evaluate(word).scale(coeff)
                assert rebuilt == x


@pytest.mark.parametrize("kind", ["structure", "iota-basis"])
def test_word_basis_matrix_is_unitriangular_up_to_permutation(kind):
    # the word (a1, ..., ar) pivots on t0^a1 * t1^(a2+1) ... t_{r-1}^(ar+1):
    # the pivots are a bijection onto the monomials, each pivot entry is 1,
    # and "column w has a nonzero entry in the pivot row of w'" is acyclic,
    # so a simultaneous permutation makes the matrix unitriangular
    for n in range(MAX_BASIS_DEGREE + 1):
        matrix, words, monos = _basis_matrix(n, kind)
        row_of = {split: i for i, split in enumerate(map(_split_mono, monos))}
        pivot = {w: row_of[(w[0], tuple(a + 1 for a in w[1:]))] for w in words}
        assert sorted(pivot.values()) == list(range(len(monos)))
        word_of_row = {row: w for w, row in pivot.items()}
        graph = {}
        for col, w in enumerate(words):
            assert matrix[pivot[w]][col] == 1, (n, w)
            graph[w] = {
                word_of_row[row]
                for row in range(len(monos))
                if row != pivot[w] and matrix[row][col]
            }
        order = list(TopologicalSorter(graph).static_order())  # CycleError if not
        assert len(order) == len(words)


def test_iota_maps_bases_to_each_other():
    # a structure word evaluates under iota to the reversed involution
    # word, up to the parity of the total t0 weight
    for word in [(1,), (0, 0), (2, 1), (0, 1, 0)]:
        lhs = iota(evaluate_structure_word(word))
        sign = -1 if sum(word) % 2 else 1
        rhs = evaluate_involution_word(tuple(reversed(word))).scale(sign)
        assert lhs == rhs


# -- leading term ----------------------------------------------------------------


def test_leading_term_examples():
    assert leading_term_check(E("t0"))
    assert leading_term_check(RT0Element.one())
    assert leading_term_check(E("t1"))
    assert leading_term_check(E("t0^2*t1*t2^3"))


# -- substitution of algebra classes ---------------------------------------------


def test_substitute_class_examples():
    rank2 = rank2_base()
    algebra = rank2.algebra(2)
    h = {"h": Fraction(1)}
    zero = {}
    result = substitute_class(E("t0+t1"), zero, algebra)
    assert result == {"one": RElement({1: P("t1")})}
    assert substitute_class(E("t0^2"), h, algebra) == {}
    assert substitute_class(E("t1*t2"), h, algebra) == {
        "one": RElement({2: P("t1*t2")})
    }
    mixed = substitute_class(E("t0*t1 + t1^2"), h, algebra)
    assert mixed == {
        "one": RElement({1: P("t1^2")}),
        "h": RElement({1: P("t1")}),
    }
    with pytest.raises(DegreeMismatchError):
        substitute_class(E("t0"), {"one": Fraction(1)}, algebra)


# -- distinguished classes --------------------------------------------------------


def test_class_constants():
    classes = class_constants()
    assert classes.psi0 == E("-t0")
    assert classes.psi1 == E("t0+t1")
    assert classes.phi0 == E("-t0-t1")
    assert classes.phi1 == E("t0")
    assert classes.psi0 == classes.phi0 + E("t1")
    assert classes.psi1 == classes.phi1 + E("t1")
    assert iota(classes.psi0) == classes.psi1


def test_important_relation_small():
    classes = class_constants()
    for d0 in range(0, 3):
        for d1 in range(1, 3):
            lhs = dot_mul(dot_power(classes.psi0, d0), dot_power(classes.psi1, d1))
            rhs = dot_mul(
                dot_power(classes.psi0, d0 + 1), dot_power(classes.psi1, d1 - 1)
            ).scale(-1) + odot(
                dot_power(classes.psi0, d0), dot_power(classes.psi1, d1 - 1)
            )
            assert lhs == rhs


# -- helpers ----------------------------------------------------------------------


def _random_monomial(rng) -> RT0Element:
    n = rng.randint(0, 2)
    exps = {i: rng.randint(1, 2) for i in range(1, n + 1)}
    a0 = rng.randint(0, 2)
    if a0:
        exps[0] = a0
    return RT0Element.from_polynomial(Polynomial.monomial(exps))
