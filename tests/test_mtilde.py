from fractions import Fraction
from itertools import product as iter_product

import pytest

from tring.base import BaseOperadConfig, GradedAlgebra, rank2_base, trivial_base
from tring.mtilde import (
    MTildeElement,
    _describe,
    act,
    compose,
    important_b_check,
    morphism_F,
    mt_mul,
    mt_power,
    operad_axiom_check,
    psi_phi_classes,
    spanning_elements,
)
from tring.poly import parse_polynomial
from tring.rt0 import RT0Element, dot_power, iota, odot

ONE = Fraction(1)
U = ()  # the empty slot monomial


def E(text):
    return RT0Element.from_text(text)


def MT1(text):
    return MTildeElement.from_rt0(E(text))


def tensor(arity, name, *slot_texts, coeff=1):
    monos = []
    for text in slot_texts:
        p = parse_polynomial(text)
        assert len(p.terms) == 1
        ((mono, c),) = p.terms.items()
        assert c == 1
        monos.append(mono)
    return MTildeElement(arity, {(name, tuple(monos)): Fraction(coeff)})


def test_compose_arity_one_is_odot():
    base = trivial_base()
    assert compose(MT1("1"), MT1("1"), 1, base) == MT1("t1")
    assert compose(MT1("t0"), MT1("1"), 1, base) == MT1("t0*t1")


def test_compose_case_big_small():
    base = trivial_base()
    start = tensor(2, "one", "1", "1", "1")
    # inserting the unit puts t1 into the slot (phi = 0 kills all t0 terms)
    result = compose(start, MT1("1"), 1, base)
    assert result == tensor(2, "one", "1", "t1", "1")
    # inserting t0: (1 odot t0) at t0=0 leaves t1^2 + t1*t2
    result = compose(start, MT1("t0"), 1, base)
    assert result == tensor(2, "one", "1", "t1^2", "1") + tensor(
        2, "one", "1", "t1*t2", "1"
    )


def test_compose_case_big_small_rank2():
    base = rank2_base()
    start = tensor(2, "one", "1", "1", "1")
    # with phi = h the t0-linear part of 1 odot t0 survives as h tensor t1
    result = compose(start, MT1("t0"), 1, base)
    assert result == (
        tensor(2, "one", "1", "t1^2", "1")
        + tensor(2, "one", "1", "t1*t2", "1")
        + tensor(2, "h", "1", "t1", "1")
    )


def test_compose_case_small_big_uses_involution():
    base = trivial_base()
    target = tensor(2, "one", "1", "t1", "1")
    # iota twists the argument: composing t0 from the left inserts
    # (1 odot iota(t0))|_{t0=0} = (1 odot (-t0-t1))|_{t0=0} into slot 0
    result = compose(MT1("t0"), target, 1, base)
    twisted = odot(E("1"), iota(E("t0")))
    expected_slot0 = twisted.t0_coefficients()[0]
    rebuilt = MTildeElement.zero(2)
    for _, poly in sorted(expected_slot0.components.items()):
        for mono, c in poly.terms.items():
            rebuilt = rebuilt + MTildeElement(
                2, {("one", (mono, ((1, 1),), U)): c}
            )
    assert result == rebuilt


def test_compose_case_big_big():
    base = trivial_base()
    x = tensor(3, "one", "1", "t1", "1", "1")
    y = tensor(2, "one", "1", "t1*t2", "1")
    # slot 2 of x and slot 0 of y are both constant, so they contract
    result = compose(x, y, 2, base)
    assert result == tensor(4, "one", "1", "t1", "t1*t2", "1", "1")
    # a non-constant slot is killed by the projection to degree zero
    blocked = compose(x, y, 1, base)
    assert blocked.is_zero()


def test_act():
    base = trivial_base()
    x = tensor(2, "one", "1", "t1", "1")
    assert act((0, 1, 2), x, base) == x
    assert act((0, 2, 1), x, base) == tensor(2, "one", "1", "1", "t1")
    assert act((1, 0), MT1("t0"), base) == MT1("-t0-t1")
    # slots move by the inverse lookup: new slot i holds old slot perm^-1(i)
    cycled = act((1, 2, 0), x, base)
    assert cycled == tensor(2, "one", "1", "1", "t1")


def test_psi_phi_classes():
    base = trivial_base()
    psi0, phi0 = psi_phi_classes(1, 0, base)
    psi1, phi1 = psi_phi_classes(1, 1, base)
    assert (psi0, phi0) == (MT1("-t0"), MT1("-t0-t1"))
    assert (psi1, phi1) == (MT1("t0+t1"), MT1("t0"))
    psi, phi = psi_phi_classes(2, 1, base)
    assert phi.is_zero()
    assert psi == tensor(2, "one", "1", "t1", "1")
    base2 = rank2_base()
    psi, phi = psi_phi_classes(2, 1, base2)
    assert phi == tensor(2, "h", "1", "1", "1")
    assert psi == phi + tensor(2, "one", "1", "t1", "1")


def test_mt_mul_and_powers():
    base = trivial_base()
    psi, _ = psi_phi_classes(2, 1, base)
    square = mt_mul(psi, psi, base)
    # slotwise product: t1 . t1 = t1^2 + 2 t1 t2 inside slot 1
    assert square == tensor(2, "one", "1", "t1^2", "1") + tensor(
        2, "one", "1", "t1*t2", "1", coeff=2
    )
    assert mt_power(psi, 2, base) == square


def test_morphism_F():
    base = trivial_base()
    assert morphism_F({"one": ONE}, 1, base).is_zero()
    unit = morphism_F({"one": ONE}, 2, base)
    assert unit == MTildeElement.unit_tensor(2, base)
    # compatibility with contraction when all slots are one
    lhs = compose(morphism_F({"one": ONE}, 2, base), morphism_F({"one": ONE}, 2, base), 1, base)
    assert lhs == morphism_F({"one": ONE}, 3, base)


def test_morphism_F_equivariance():
    base = trivial_base()
    for perm in [(0, 1, 2), (0, 2, 1), (1, 2, 0)]:
        lhs = act(perm, morphism_F({"one": ONE}, 2, base), base)
        assert lhs == morphism_F({"one": ONE}, 2, base)


def test_repeated_insertion_matches_odot_argument():
    # composing twice into the same slot equals composing once with the
    # odot product of the two arguments; this is substitution naturality
    for base in (trivial_base(), rank2_base()):
        start = tensor(2, "one", "1", "t1", "1")
        for a_text, b_text in [("1", "t0"), ("t0", "t0"), ("t1", "t0+t1")]:
            a, b = E(a_text), E(b_text)
            twice = compose(
                compose(start, MTildeElement.from_rt0(a), 1, base),
                MTildeElement.from_rt0(b),
                1,
                base,
            )
            once = compose(
                start, MTildeElement.from_rt0(odot(a, b)), 1, base
            )
            assert twice == once


def test_important_b_trivial_base_example():
    base = trivial_base()
    assert important_b_check(2, (0, 1, 0), (0, 0, 0), 1, base)
    assert important_b_check(2, (0, 2, 1), (1, 0, 0), 1, base)
    assert important_b_check(3, (0, 1, 1, 0), (0, 0, 0, 0), 2, base)


def test_important_b_rank2_small():
    base = rank2_base()
    assert important_b_check(2, (0, 1, 0), (0, 0, 0), 1, base)
    assert important_b_check(2, (0, 2, 0), (0, 0, 0), 1, base)
    assert important_b_check(2, (1, 1, 0), (0, 0, 1), 1, base)


def test_spanning_counts():
    base = trivial_base()
    assert len(spanning_elements(1, base, 2)) == 1 + 2 + 4
    # 4 slots, total degree <= 2 over monomials 1, t1, t1^2, t1*t2
    assert len(spanning_elements(3, base, 2)) == 19


def test_axioms_tiny():
    base = trivial_base()
    reports = operad_axiom_check(base, max_arity=2, max_degree=1)
    for name, report in reports.items():
        assert report.ok, f"{name}: {report.counterexample}"


def test_compose_validation():
    base = trivial_base()
    with pytest.raises(ValueError):
        compose(MT1("1"), tensor(2, "one", "1", "1", "1"), 2, base)
    with pytest.raises(ValueError):
        compose(tensor(2, "one", "1", "1", "1"), MT1("1"), 3, base)


def test_slot_monomials_are_validated():
    # a slot holds a t0-free monomial in t1, ..., tn without gaps
    texts = ("t0*t1", "t0", "t1*t3", "t2")
    monos = [next(iter(parse_polynomial(text).terms)) for text in texts]
    for mono in monos + [((1, 1), (2, 0))]:  # the last one writes t1 as t1*t2^0
        with pytest.raises(ValueError, match="invalid slot monomial"):
            MTildeElement(2, {("one", (U, mono, U)): 1})
    with pytest.raises(ValueError, match="expected 3 slots"):
        MTildeElement(2, {("one", (U, U)): 1})


def test_describe_pins_the_counterexample_text():
    # the axiom suites name failing elements by this text: terms sorted
    # by base name, then slot by slot, each slot a monomial or 1
    base = rank2_base()
    psi, _ = psi_phi_classes(2, 1, base)
    x = (
        psi
        + tensor(2, "h", "t1", "1", "t1*t2^2", coeff=Fraction(3, 2))
        + tensor(2, "one", "t1*t2^2", "t1^2", "1", coeff=-2)
    )
    assert _describe(x) == (
        "1*h(1,1,1) + 3/2*h(t1,1,t1*t2^2) + 1*one(1,t1,1) + -2*one(t1*t2^2,t1^2,1)"
    )
    assert _describe(MTildeElement.zero(2)) == "0"
    assert _describe(MT1("t0*t1 + 2")) == "2 + t0*t1"


# -- canonical coefficients and a base with rational constants -------------


def half_phi_base():
    """rank2_base with phi = h/2 in every slot, so that denominators reach
    the operad kernels and the Fraction path stays exercised."""

    def factory(n):
        algebra = GradedAlgebra(
            [("one", 0), ("h", 1)],
            {("one", "one"): {"one": 1}, ("one", "h"): {"h": 1}, ("h", "h"): {}},
            label=f"Q[h]/h^2(n={n})",
        )
        return algebra, [{"h": Fraction(1, 2)} for _ in range(n + 1)]

    def clutch_factory(m, n, j):
        return {
            ("one", "one"): {"one": 1},
            ("one", "h"): {"h": 1},
            ("h", "one"): {"h": 1},
            ("h", "h"): {},
        }

    return BaseOperadConfig("half-phi", factory, clutch_factory)


BASES = {"trivial": trivial_base, "rank2": rank2_base, "half-phi": half_phi_base}


def assert_canonical(x):
    terms = x.rt0.terms if x.arity == 1 else x.terms
    for c in terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


@pytest.mark.parametrize("base_name", sorted(BASES))
def test_operations_keep_canonical_coefficients(base_name):
    base = BASES[base_name]()
    psi, phi = psi_phi_classes(2, 1, base)
    psi0, _ = psi_phi_classes(2, 0, base)
    outer = tensor(2, "one", "1", "1", "1") + phi
    results = [
        psi + phi,
        psi - phi,
        psi - psi,
        phi.scale(2),
        psi.scale(Fraction(1, 2)),
        psi.scale(0),
        mt_mul(psi, psi, base),
        mt_mul(psi, psi0, base),
        compose(MT1("t0"), MT1("t0+t1"), 1, base),
        compose(psi, MT1("t0"), 1, base),
        compose(psi.scale(2), MT1("t0^2"), 1, base),
        compose(MT1("t0"), psi0, 1, base),
        compose(outer, outer, 1, base),
        compose(outer, phi.scale(2), 2, base),
        act((0, 2, 1), psi, base),
        act((1, 0), MT1("t0"), base),
    ]
    for x in results:
        assert_canonical(x)
    assert (psi - psi).terms == {}


HALF_PHI_CASES = [
    (2, (0, 1, 0), (0, 0, 0), 1),
    (2, (0, 2, 1), (1, 0, 0), 1),
    (3, (0, 1, 1, 0), (0, 0, 0, 0), 2),
    (2, (0, 2, 0), (0, 0, 0), 1),
    (2, (1, 1, 0), (0, 0, 1), 1),
    (3, (0, 0, 2, 0), (0, 1, 0, 0), 2),
]


@pytest.mark.parametrize("n,d,e,j", HALF_PHI_CASES)
def test_important_b_half_phi(n, d, e, j):
    assert important_b_check(n, d, e, j, half_phi_base())


def test_axioms_half_phi():
    reports = operad_axiom_check(half_phi_base(), max_arity=2, max_degree=1)
    counts = {name: report.checked for name, report in reports.items()}
    assert counts == {"axiom1": 665, "axiom2": 121, "axiom3": 968, "axiom4": 3971}
    for name, report in reports.items():
        assert report.ok, f"{name}: {report.counterexample}"


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-3, 2)])
def test_kernels_are_bilinear_over_a_rational_base(q):
    base = half_phi_base()
    small = spanning_elements(1, base, 1) + [MT1("t0+t1")]
    big = spanning_elements(2, base, 1) + list(psi_phi_classes(2, 1, base))
    # every pair meets in one of the four composition shapes
    for x, y in iter_product(small + big, repeat=2):
        for j in range(1, x.arity + 1):
            expected = compose(x, y, j, base).scale(q)
            assert compose(x.scale(q), y, j, base) == expected
            assert compose(x, y.scale(q), j, base) == expected
    for x in big:
        for y in big:
            expected = mt_mul(x, y, base).scale(q)
            assert mt_mul(x.scale(q), y, base) == expected
            assert mt_mul(x, y.scale(q), base) == expected
