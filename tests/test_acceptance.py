"""Acceptance suite: every stated identity at its stated bound.

Each test prints one pass/fail line (visible with pytest -s) and asserts
both the mathematical content and its runtime budget.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import tring
from tring.base import rank2_base, trivial_base
from tring.linalg import is_invertible
from tring.mtilde import important_b_check, operad_axiom_check
from tring.poly import Polynomial, parse_polynomial
from tring.ring import decode_components, project_components
from tring.rt0 import (
    RT0Element,
    _basis_matrix,
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
)
from tring.superops import es_axiom_check, mixed_space, vowa_exhaustive
from tring.verify import REPORT_SCHEMA


def E(text: str) -> RT0Element:
    return RT0Element.from_text(text)


def monomial_elements(max_degree: int):
    out = []
    for degree in range(max_degree + 1):
        for mono in monomials_of_degree(degree):
            out.append((degree, RT0Element.from_polynomial(Polynomial({mono: 1}))))
    return out


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        passed = exc_type is None and elapsed < self.seconds
        print(f"{self.name}: {'PASS' if passed else 'FAIL'} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_worked_values():
    with Budget("criterion 1 (worked product/involution values)", 1.0):
        assert dot_mul(E("t1"), E("t1")) == E("t1^2 + 2*t1*t2")
        assert dot_mul(E("t1"), E("t1*t2")) == E("t1^2*t2 + t1*t2^2 + 3*t1*t2*t3")

        # the involution of t0^2*t1, checked against the independent
        # truncation model: project to level 3, substitute
        # t0 -> -(t0+t1+t2+t3), reverse t1..t3, decode back
        x = E("t0^2*t1")
        value = project_components(x.components, 3)
        reversed_value = value.rename({1: 3, 2: 2, 3: 1})
        total = Polynomial.zero()
        for i in range(4):
            total = total + Polynomial.variable(i)
        oracle = RT0Element(
            decode_components(reversed_value.substitute_t0(-total), 3)
        )
        frozen = E(
            "t0^2*t1 + 2*t0*t1^2 + 4*t0*t1*t2 + t1^3 + 3*t1^2*t2 + 3*t1*t2^2"
            " + 6*t1*t2*t3"
        )
        assert oracle == frozen
        assert iota(x) == frozen

        # n-fold unit powers: 1, t1, t1t2, ...
        power = RT0Element.one()
        expected = Polynomial.one()
        for n in range(2, 7):
            power = odot(power, RT0Element.one())
            expected = expected * Polynomial.variable(n - 1)
            assert power.to_polynomial() == expected


def test_criterion_2_monomial_dimension():
    with Budget("criterion 2 (2^n monomials per degree, n<=10)", 1.0):
        for n in range(0, 11):
            monos = monomials_of_degree(n)
            assert len(monos) == 2**n
            assert len(set(monos)) == 2**n


def test_criterion_3_unit_insertion_identity():
    with Budget("criterion 3 (unit insertion identity, n<=6)", 5.0):
        one = RT0Element.one()
        t1 = E("t1")
        psi = E("t0+t1")
        for n in range(0, 7):
            power = dot_power(psi, n)
            assert odot(one, power) == dot_mul(t1, power)


def test_criterion_4_involution_properties():
    with Budget("criterion 4 (involution properties)", 30.0):
        elements = monomial_elements(5)
        for _, x in elements:
            assert iota(iota(x)) == x
        for d1, x in elements:
            for d2, y in elements:
                if d1 + d2 <= 5:
                    assert iota(dot_mul(x, y)) == dot_mul(iota(x), iota(y))
        for d1, x in elements:
            for d2, y in elements:
                if d1 + d2 <= 4:
                    assert iota(odot(x, y)) == odot(iota(y), iota(x))


def test_criterion_5_odot_structure():
    with Budget("criterion 5 (odot associativity, linearity, tower)", 60.0):
        elements = monomial_elements(4)
        products = {}
        for i, (d1, x) in enumerate(elements):
            for j, (d2, y) in enumerate(elements):
                if d1 + d2 <= 4:
                    products[(i, j)] = odot(x, y)
        for i, (d1, x) in enumerate(elements):
            for j, (d2, y) in enumerate(elements):
                for k, (d3, z) in enumerate(elements):
                    if d1 + d2 + d3 <= 4:
                        assert odot(products[(i, j)], z) == odot(
                            x, products[(j, k)]
                        )
        for a in range(0, 4):
            t0a = RT0Element.t0_power(a)
            for d1, x in elements:
                if d1 > 3:
                    continue
                lifted = dot_mul(t0a, x)
                for d2, y in elements:
                    if d2 <= 3:
                        assert odot(lifted, y) == dot_mul(t0a, odot(x, y))
        import random

        rng = random.Random(0)
        for _ in range(12):
            n = rng.randint(0, 2)
            exps = {i: rng.randint(1, 2) for i in range(1, n + 1)}
            a0 = rng.randint(0, 2)
            if a0:
                exps[0] = a0
            f = RT0Element.from_polynomial(Polynomial.monomial(exps))
            m = rng.randint(0, 2)
            exps = {i: rng.randint(1, 2) for i in range(1, m + 1)}
            b0 = rng.randint(0, 2)
            if b0:
                exps[0] = b0
            g = RT0Element.from_polynomial(Polynomial.monomial(exps))
            for k in range(1, 6):
                assert q_k(f, g, k + 1).set_var_zero(k + 1) == q_k(f, g, k)


def test_criterion_6_word_bases():
    with Budget("criterion 6 (word bases invertible + roundtrip)", 60.0):
        for kind in ("structure", "iota-basis"):
            for n in range(0, 7):
                matrix, words, monos = _basis_matrix(n, kind)
                assert len(words) == len(monos) == 2**n
                assert is_invertible([list(row) for row in matrix])
        for degree in range(0, 6):
            for mono in monomials_of_degree(degree):
                x = RT0Element.from_polynomial(Polynomial({mono: 1}))
                expansion = odot_basis_expand(x)
                rebuilt = RT0Element.zero()
                for word, coeff in expansion.items():
                    rebuilt = rebuilt + evaluate_structure_word(word).scale(coeff)
                assert rebuilt == x
                expansion = odot_basis_expand_iota(x)
                rebuilt = RT0Element.zero()
                for word, coeff in expansion.items():
                    rebuilt = rebuilt + evaluate_involution_word(word).scale(coeff)
                assert rebuilt == x


def test_criterion_7_unit_insertion_shape():
    with Budget("criterion 7 (unit insertion leading term, deg<=5)", 10.0):
        for degree in range(0, 6):
            for mono in monomials_of_degree(degree):
                x = RT0Element.from_polynomial(Polynomial({mono: 1}))
                assert leading_term_check(x)
                # no monomial of 1 odot x is divisible by t0 in every term
                product = odot(RT0Element.one(), x)
                assert any(
                    all(var != 0 for var, _ in m)
                    for p in product.components.values()
                    for m in p.terms
                )


def test_criterion_8_two_slot_relation():
    with Budget("criterion 8 (two-slot psi relation, d0+d1<=6)", 10.0):
        classes = class_constants()
        for d0 in range(0, 7):
            for d1 in range(1, 7 - d0):
                lhs = dot_mul(
                    dot_power(classes.psi0, d0), dot_power(classes.psi1, d1)
                )
                rhs = dot_mul(
                    dot_power(classes.psi0, d0 + 1),
                    dot_power(classes.psi1, d1 - 1),
                ).scale(-1) + odot(
                    dot_power(classes.psi0, d0),
                    dot_power(classes.psi1, d1 - 1),
                )
                assert lhs == rhs


def _exponent_tuples(slots: int, total: int):
    if slots == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _exponent_tuples(slots - 1, total - first):
            yield (first,) + rest


def test_criterion_9_exchange_over_bases():
    with Budget("criterion 9 (psi-to-phi exchange over bases)", 60.0):
        for config, arities in ((trivial_base(), (2, 3)), (rank2_base(), (2,))):
            for n in arities:
                for total_d in range(1, 4):
                    for d in _exponent_tuples(n + 1, total_d):
                        for total_e in range(0, 4 - sum(d)):
                            for e in _exponent_tuples(n + 1, total_e):
                                for j in range(1, n + 1):
                                    if d[j] >= 1:
                                        assert important_b_check(
                                            n, d, e, j, config
                                        ), f"n={n} d={d} e={e} j={j}"


# per-axiom case counts at the default arity bound 3
SUPER_AXIOM_COUNTS = {
    1: (207, 9, 36, 108),
    2: (18792, 392, 10976, 32368),
    3: (288225, 4563, 410670, 1217268),
}
# pairing-exchange case counts at arity bound 3: dim**(m+n) pairings for
# each slot j and pair of even basis tensors
VOWA_COUNTS = {1: 18, 2: 53312, 3: 4423230}


def test_criterion_10_super_operad():
    with Budget("criterion 10 (graded operad axioms + pairing exchange)", 120.0):
        for dim in (1, 2, 3):
            reports = es_axiom_check(mixed_space(dim), max_arity=3)
            for name, report in reports.items():
                assert report.ok, f"dim={dim} {name}: {report.counterexample}"
            counts = tuple(reports[f"axiom{i}"].checked for i in range(1, 5))
            assert counts == SUPER_AXIOM_COUNTS[dim]
            ok, checked, witness = vowa_exhaustive(mixed_space(dim), max_arity=3)
            assert ok, witness
            assert checked == VOWA_COUNTS[dim]


def test_criterion_11_extended_operad_axioms():
    with Budget("criterion 11 (extended operad axioms, trivial base)", 60.0):
        reports = operad_axiom_check(trivial_base(), max_arity=3, max_degree=2)
        for name, report in reports.items():
            assert report.ok, f"{name}: {report.counterexample}"
        counts = tuple(reports[f"axiom{i}"].checked for i in range(1, 5))
        assert counts == (58947, 1521, 106470, 315900)


def test_criterion_12_verify_all_cli():
    with Budget("criterion 12 (verify all, JSON report)", 120.0):
        # the child imports the same tring as this process, installed or not
        package_root = str(Path(tring.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""),
        )
        result = subprocess.run(
            [sys.executable, "-m", "tring.cli", "verify", "all", "--json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["failed"] == 0
        assert payload["total"] == payload["passed"] > 0
