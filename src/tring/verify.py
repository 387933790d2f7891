"""Verification suites: each one machine-checks a family of identities
and returns a structured verdict report.

Every check is a list of cases and a test that returns None for a case
that holds and a counterexample string for one that fails, tallied by
:func:`tring.superops.tally`.  The count a check's params print is the
size of its case set, and its counterexample is the first failing case
in enumeration order.  Every case runs even after a failure, and a
check draws all of its random inputs before its first case runs, so a
failing check does not shift the draws of the checks after it.

Reports are deterministic for fixed inputs: checks appear in a fixed
order and the seed of every randomized check is recorded.  Wall-clock
durations are collected but only emitted when explicitly requested, so
that identical invocations produce identical bytes.  Bounds no suite
accepts (a negative seed or bound, max_arity below 1, dim outside 1..6,
max_degree above MAX_DEGREE, max_n above MAX_N, max_arity above
MAX_ARITY) raise ValueError when constructed, before any suite runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from itertools import starmap
from math import comb
from typing import Callable

from . import base as base_mod
from . import mtilde, rt0, superops
from .linalg import is_invertible
from .poly import (
    IncreasingMap,
    Polynomial,
    enumerate_increasing_maps,
    format_polynomial,
    parse_polynomial,
    pullback,
    pushforward,
)
from .ring import (
    NotInRingError,
    RElement,
    decode_components,
    decode_rd,
    project_to_level,
    r_mul,
    restrict_level,
)
from .rt0 import _exact_compositions
from .superops import AxiomReport, tally

SCHEMA_VERSION = 1

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "suite", "seed", "bounds", "checks", "passed", "failed", "total"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "suite": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
        "bounds": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "params", "pass", "counterexample"],
                "properties": {
                    "id": {"type": "string"},
                    "params": {"type": "string"},
                    "pass": {"type": "boolean"},
                    "counterexample": {"type": ["string", "null"]},
                },
                "additionalProperties": False,
            },
        },
        "passed": {"type": "integer"},
        "failed": {"type": "integer"},
        "total": {"type": "integer"},
        "duration_seconds": {"type": "number"},
    },
    "additionalProperties": False,
}


@dataclass
class CheckResult:
    id: str
    params: str
    passed: bool
    counterexample: str | None = None


@dataclass
class SuiteReport:
    suite: str
    seed: int
    bounds: dict
    checks: list[CheckResult] = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def all_passed(self) -> bool:
        return self.failed == 0

    def add(self, id: str, params: str, outcome: AxiomReport) -> None:
        self.checks.append(CheckResult(id, params, outcome.ok, outcome.counterexample))

    def to_dict(self, with_timings: bool = False) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "bounds": self.bounds,
            "checks": [
                {
                    "id": c.id,
                    "params": c.params,
                    "pass": c.passed,
                    "counterexample": c.counterexample,
                }
                for c in self.checks
            ],
            "passed": self.passed,
            "failed": self.failed,
            "total": len(self.checks),
        }
        if with_timings:
            out["duration_seconds"] = self.duration_seconds
        return out

    def render_text(self, with_timings: bool = False) -> str:
        lines = []
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            line = f"{status} {c.id} {c.params}".rstrip()
            if c.counterexample:
                line += f"  [{c.counterexample}]"
            lines.append(line)
        summary = (
            f"suite={self.suite} passed={self.passed} failed={self.failed} "
            f"total={len(self.checks)} seed={self.seed}"
        )
        if with_timings:
            summary += f" time={self.duration_seconds:.2f}s"
        lines.append(summary)
        return "\n".join(lines)


# The largest --max-degree and --max-arity a suite accepts.  Degree 10 is
# the largest suite default (dim); arity 4 is one above the default 3 of
# super, vowa and operad-axioms.  On a 2-CPU Xeon VM, structure takes
# 22.6 s at degree 9 and 195 s at degree 10 (a 2^n x 2^n matrix per
# degree), operad-axioms 21 s and 569 MB at arity 4 and slot degree 2, and
# super at dim 1 runs out of 1.5 GB at arity 6.
MAX_DEGREE = 10
MAX_ARITY = 4
# The largest --max-n, twice the default 6 of odot and identity: at 12,
# identity takes 0.5 s and odot 1.2 s, each under 28 MB of peak RSS; the
# identity's cost grows about fourfold in memory per two steps (1.7 s and
# 67 MB at 14, 8 s and 247 MB at 16), same VM.
MAX_N = 12


@dataclass
class Bounds:
    max_degree: int | None = None
    max_n: int | None = None
    max_arity: int | None = None
    dim: int | None = None
    seed: int = 0
    base: str | None = None

    def __post_init__(self) -> None:
        for name, low in (("seed", 0), ("max_degree", 0), ("max_n", 0), ("max_arity", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name.replace('_', '-')} must be >= {low}, got {value}")
        for name, high in (
            ("max_degree", MAX_DEGREE),
            ("max_n", MAX_N),
            ("max_arity", MAX_ARITY),
        ):
            value = getattr(self, name)
            if value is not None and value > high:
                raise ValueError(f"{name.replace('_', '-')} must be <= {high}, got {value}")
        # mixed_space is provided in dimensions 1..6
        if self.dim is not None and not 1 <= self.dim <= 6:
            raise ValueError(f"dim must be in 1..6, got {self.dim}")

    def resolved(self, **defaults: int) -> dict:
        out = {}
        for name, value in defaults.items():
            given = getattr(self, name, None)
            out[name] = given if given is not None else value
        return out


def _E(text: str) -> rt0.RT0Element:
    return rt0.RT0Element.from_text(text)


def _random_polynomial(rng: random.Random, max_var: int = 3, terms: int = 4) -> Polynomial:
    out = Polynomial.zero()
    for _ in range(rng.randint(0, terms)):
        mono = {}
        for var in range(max_var + 1):
            exp = rng.randint(0, 2)
            if exp:
                mono[var] = exp
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        out = out + Polynomial.monomial(mono, coeff) if coeff else out
    return out


def _random_relement(rng: random.Random, max_n: int = 2, extra: int = 2) -> RElement:
    components: dict[int, Polynomial] = {}
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(0, max_n)
        exps = {i: 1 for i in range(1, n + 1)}
        for _ in range(rng.randint(0, extra)):
            if n:
                exps[rng.randint(1, n)] += 1
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        p = Polynomial.monomial(exps, coeff)
        components[n] = components.get(n, Polynomial.zero()) + p
    return RElement({n: p for n, p in components.items() if p})


def _random_rt0_monomial(
    rng: random.Random, max_n: int = 2, max_exp: int = 2, t0: bool = True
) -> rt0.RT0Element:
    n = rng.randint(0, max_n)
    exps = {i: rng.randint(1, max_exp) for i in range(1, n + 1)}
    a0 = rng.randint(0, max_exp) if t0 else 0
    if a0:
        exps[0] = a0
    return rt0.RT0Element.from_polynomial(Polynomial.monomial(exps))


def _odot_by_truncation(x: rt0.RT0Element, y: rt0.RT0Element) -> rt0.RT0Element | None:
    """x odot y through its defining truncation: q_k at level
    deg x + deg y + 1, decoded into components; None if it fails to
    decode.  An independent path to compare rt0.odot against."""
    level = x.degree() + y.degree() + 1
    try:
        return rt0.RT0Element(decode_components(rt0.q_k(x, y, level), level))
    except NotInRingError:
        return None


def _monomial_elements(max_degree: int) -> list[tuple[int, rt0.RT0Element]]:
    out = []
    for degree in range(max_degree + 1):
        for mono in rt0.monomials_of_degree(degree):
            out.append(
                (degree, rt0.RT0Element.from_polynomial(Polynomial({mono: 1})))
            )
    return out


def _pairs(
    elements: list[tuple[int, rt0.RT0Element]], max_degree: int
) -> list[tuple[int, rt0.RT0Element, int, rt0.RT0Element]]:
    """(d1, x, d2, y) for the ordered pairs of total degree <= max_degree."""
    return [
        (d1, x, d2, y)
        for d1, x in elements
        for d2, y in elements
        if d1 + d2 <= max_degree
    ]


# ---------------------------------------------------------------------------
# Individual suites
# ---------------------------------------------------------------------------


def run_ring(bounds: Bounds) -> SuiteReport:
    report = SuiteReport("ring", bounds.seed, bounds.resolved())
    rng = random.Random(bounds.seed)

    def ring_laws(p: Polynomial, q: Polynomial, r: Polynomial) -> str | None:
        ok = (
            p + q == q + p
            and (p + q) + r == p + (q + r)
            and p * q == q * p
            and (p * q) * r == p * (q * r)
            and p * (q + r) == p * q + p * r
        )
        return None if ok else f"p={p} q={q} r={r}"

    triples = [tuple(_random_polynomial(rng) for _ in range(3)) for _ in range(40)]
    report.add("poly_ring_laws", "40 random triples", tally(starmap(ring_laws, triples)))

    polys = [_random_polynomial(rng) for _ in range(40)]
    report.add(
        "parse_print_roundtrip",
        "40 random",
        tally(
            None if parse_polynomial(format_polynomial(p)) == p else format_polynomial(p)
            for p in polys
        ),
    )

    def map_counts(n: int, d: int) -> str | None:
        maps = enumerate_increasing_maps(n, d)
        ok = len(maps) == comb(d, n) and len({m.values for m in maps}) == len(maps)
        return None if ok else f"n={n} d={d}"

    report.add(
        "increasing_map_counts",
        "n<=4 d<=6",
        tally(starmap(map_counts, iter_product(range(5), range(7)))),
    )

    alpha = IncreasingMap((2, 3, 5), 5)

    def pushforward_laws(p: Polynomial, q: Polynomial) -> str | None:
        if pushforward(alpha, p * q) != pushforward(alpha, p) * pushforward(alpha, q):
            return f"p={p} q={q}"
        if pullback(alpha, pushforward(alpha, p)) != p:
            return f"p={p}"
        return None

    pairs = [
        (_random_polynomial(rng, max_var=3), _random_polynomial(rng, max_var=3))
        for _ in range(25)
    ]
    report.add(
        "pushforward_pullback",
        "25 random against (2,3,5)",
        tally(starmap(pushforward_laws, pairs)),
    )

    def family_laws(f: RElement, g: RElement, h: RElement) -> str | None:
        if r_mul(f, g) == r_mul(g, f) and r_mul(r_mul(f, g), h) == r_mul(f, r_mul(g, h)):
            return None
        return f"f={f.to_pairs()} g={g.to_pairs()} h={h.to_pairs()}"

    triples = [tuple(_random_relement(rng) for _ in range(3)) for _ in range(20)]
    report.add(
        "family_product_comm_assoc",
        "20 random triples",
        tally(starmap(family_laws, triples)),
    )

    def projection_hom(f: RElement, g: RElement, d: int) -> str | None:
        lhs = project_to_level(r_mul(f, g), d).value
        rhs = project_to_level(f, d).value * project_to_level(g, d).value
        return None if lhs == rhs else f"d={d} f={f.to_pairs()} g={g.to_pairs()}"

    pairs = [(_random_relement(rng), _random_relement(rng)) for _ in range(20)]
    report.add(
        "projection_is_ring_hom",
        "20 random pairs, d<=5",
        tally(starmap(projection_hom, [(f, g, d) for f, g in pairs for d in range(6)])),
    )

    def tower_levels(f: RElement) -> range:
        top = max(f.components, default=0)
        return range(max(top, 1), top + 3)

    def tower_and_decode(f: RElement, d: int) -> str | None:
        projected = project_to_level(f, d)
        if restrict_level(projected) != project_to_level(f, d - 1):
            return f"d={d} f={f.to_pairs()}"
        if decode_rd(projected.value, d) != f:
            return f"decode d={d} f={f.to_pairs()}"
        return None

    families = [_random_relement(rng) for _ in range(20)]
    report.add(
        "tower_and_decode",
        "20 random families",
        tally(
            starmap(
                tower_and_decode, [(f, d) for f in families for d in tower_levels(f)]
            )
        ),
    )
    return report


def run_iota(bounds: Bounds) -> SuiteReport:
    resolved = bounds.resolved(max_degree=5)
    report = SuiteReport("iota", bounds.seed, resolved)
    max_degree = resolved["max_degree"]
    elements = _monomial_elements(max_degree)

    for degree in range(max_degree + 1):
        report.add(
            "involution_squares_to_id",
            f"degree={degree}",
            tally(
                None if rt0.iota(rt0.iota(x)) == x else str(x)
                for d, x in elements
                if d == degree
            ),
        )

    report.add(
        "involution_respects_dot",
        f"all pairs, total degree<={max_degree}",
        tally(
            None
            if rt0.iota(rt0.dot_mul(x, y)) == rt0.dot_mul(rt0.iota(x), rt0.iota(y))
            else f"x={x} y={y}"
            for _, x, _, y in _pairs(elements, max_degree)
        ),
    )

    anti_bound = max(max_degree - 1, 0)
    report.add(
        "involution_reverses_odot",
        f"all pairs, total degree<={anti_bound}",
        tally(
            None
            if rt0.iota(rt0.odot(x, y)) == rt0.odot(rt0.iota(y), rt0.iota(x))
            else f"x={x} y={y}"
            for _, x, _, y in _pairs(elements, anti_bound)
        ),
    )
    return report


def run_odot(bounds: Bounds) -> SuiteReport:
    resolved = bounds.resolved(max_degree=4, max_n=6)
    report = SuiteReport("odot", bounds.seed, resolved)
    max_degree = resolved["max_degree"]
    tower_k = resolved["max_n"]
    rng = random.Random(bounds.seed)
    elements = _monomial_elements(max_degree)

    products = {
        (i, j): rt0.odot(x, y)
        for i, (d1, x) in enumerate(elements)
        for j, (d2, y) in enumerate(elements)
        if d1 + d2 <= max_degree
    }

    def associative(i: int, j: int, k: int) -> str | None:
        x, y, z = elements[i][1], elements[j][1], elements[k][1]
        if rt0.odot(products[i, j], z) == rt0.odot(x, products[j, k]):
            return None
        return f"x={x} y={y} z={z}"

    triples = [
        (i, j, k)
        for i, (d1, _) in enumerate(elements)
        for j, (d2, _) in enumerate(elements)
        for k, (d3, _) in enumerate(elements)
        if d1 + d2 + d3 <= max_degree
    ]
    report.add(
        "odot_associative",
        f"all monomial triples, total degree<={max_degree}",
        tally(starmap(associative, triples)),
    )

    low = [x for d, x in elements if d <= 3]
    t0_powers = [rt0.RT0Element.t0_power(a) for a in range(4)]
    lifts = [(a, x, rt0.dot_mul(t0_powers[a], x)) for a in range(4) for x in low]
    report.add(
        "left_t0_linearity",
        "a<=3, monomial degrees<=3",
        tally(
            None
            if rt0.odot(lifted, y) == rt0.dot_mul(t0_powers[a], rt0.odot(x, y))
            else f"a={a} x={x} y={y}"
            for a, x, lifted in lifts
            for y in low
        ),
    )

    pairs = [(_random_rt0_monomial(rng), _random_rt0_monomial(rng)) for _ in range(15)]
    report.add(
        "truncation_tower",
        f"15 seeded pairs, k<{tower_k}",
        tally(
            None
            if rt0.q_k(f, g, k + 1).set_var_zero(k + 1) == rt0.q_k(f, g, k)
            else f"k={k} f={f} g={g}"
            for f, g in pairs
            for k in range(1, tower_k)
        ),
    )

    def raises_degree(d1: int, x: rt0.RT0Element, d2: int, y: rt0.RT0Element) -> str | None:
        product = rt0.odot(x, y)
        ok = (
            not product.is_zero()
            and product.is_homogeneous()
            and product.degree() == d1 + d2 + 1
            # the closed form must also agree with the decoded truncation
            and product == _odot_by_truncation(x, y)
        )
        return None if ok else f"x={x} y={y}"

    report.add(
        "degree_raising",
        f"all pairs, total degree<={max_degree}",
        tally(starmap(raises_degree, _pairs(elements, max_degree))),
    )

    pairs = [
        (_random_rt0_monomial(rng), _random_rt0_monomial(rng, t0=False))
        for _ in range(20)
    ]
    report.add(
        "concatenation_consistency",
        "20 seeded pairs, t0-free right factor",
        tally(
            None if rt0.odot(f, g) == rt0._concatenation(f, g) else f"f={f} g={g}"
            for f, g in pairs
        ),
    )

    leading_bound = 5
    monomials = _monomial_elements(leading_bound)
    report.add(
        "unit_insertion_leading_term",
        f"{len(monomials)} monomials, degree<={leading_bound}",
        tally(None if rt0.leading_term_check(x) else str(x) for _, x in monomials),
    )
    return report


def run_identity(bounds: Bounds) -> SuiteReport:
    resolved = bounds.resolved(max_n=6)
    report = SuiteReport("identity", bounds.seed, resolved)
    one = rt0.RT0Element.one()
    t1 = _E("t1")
    psi = _E("t0+t1")
    for n in range(resolved["max_n"] + 1):
        power = rt0.dot_power(psi, n)
        ok = rt0.odot(one, power) == rt0.dot_mul(t1, power)
        report.add("unit_insertion_identity", f"n={n}", tally([None if ok else f"n={n}"]))
    return report


def run_dim(bounds: Bounds) -> SuiteReport:
    resolved = bounds.resolved(max_degree=10)
    report = SuiteReport("dim", bounds.seed, resolved)
    for n in range(resolved["max_degree"] + 1):
        monos = rt0.monomials_of_degree(n)
        ok = len(monos) == 2**n and len(set(monos)) == len(monos)
        witness = f"found {len(monos)} expected {2 ** n}"
        report.add("monomial_count", f"degree={n}", tally([None if ok else witness]))
    return report


def run_structure(bounds: Bounds) -> SuiteReport:
    resolved = bounds.resolved(max_degree=6)
    report = SuiteReport("structure", bounds.seed, resolved)
    max_degree = resolved["max_degree"]

    for kind in ("structure", "iota-basis"):
        for n in range(max_degree + 1):
            matrix, _, _ = rt0._basis_matrix(n, kind)
            ok = is_invertible([list(row) for row in matrix])
            report.add(
                "word_matrix_invertible",
                f"kind={kind} degree={n} size={2 ** n}",
                tally([None if ok else "singular"]),
            )

    roundtrip_bound = min(max_degree, 5)
    monomials = _monomial_elements(roundtrip_bound)
    bases: dict[str, tuple[Callable, Callable]] = {
        "structure": (rt0.odot_basis_expand, rt0.evaluate_structure_word),
        "iota-basis": (rt0.odot_basis_expand_iota, rt0.evaluate_involution_word),
    }

    def round_trip(x: rt0.RT0Element, expand: Callable, evaluate: Callable) -> str | None:
        return None if rt0.evaluate_expansion(expand(x), evaluate) == x else str(x)

    for kind, (expand, evaluate) in bases.items():
        report.add(
            "expand_roundtrip",
            f"kind={kind} {len(monomials)} monomials, degree<={roundtrip_bound}",
            tally(round_trip(x, expand, evaluate) for _, x in monomials),
        )
    return report


def _super_spaces(
    dim: int, max_arity: int
) -> list[tuple[str, superops.SuperSpace, int]]:
    """(params prefix, space, arity bound) of the super and vowa suites:
    the mixed spaces up to ``dim``, then the even space of dimension 2."""
    spaces = [
        (f"mixed dim={d} arity<={max_arity}", superops.mixed_space(d), max_arity)
        for d in range(1, dim + 1)
    ]
    return spaces + [("even dim=2 arity<=2", superops.even_space(2), 2)]


def run_super(bounds: Bounds) -> SuiteReport:
    resolved = bounds.resolved(dim=3, max_arity=3)
    report = SuiteReport("super", bounds.seed, resolved)
    for label, space, max_arity in _super_spaces(resolved["dim"], resolved["max_arity"]):
        reports = superops.es_axiom_check(space, max_arity=max_arity)
        for name, outcome in sorted(reports.items()):
            report.add(name, f"{label} checked={outcome.checked}", outcome)
    return report


def run_vowa(bounds: Bounds) -> SuiteReport:
    resolved = bounds.resolved(dim=3, max_arity=3)
    report = SuiteReport("vowa", bounds.seed, resolved)
    for label, space, max_arity in _super_spaces(resolved["dim"], resolved["max_arity"]):
        outcome = superops.vowa_exhaustive(space, max_arity=max_arity)
        report.add("pairing_exchange", f"{label} checked={outcome.checked}", outcome)
    return report


def run_important(bounds: Bounds) -> SuiteReport:
    resolved = bounds.resolved(max_degree=6)
    report = SuiteReport("important", bounds.seed, resolved)
    max_degree = resolved["max_degree"]
    classes = rt0.class_constants()

    def two_slot_relation(d0: int, d1: int) -> str | None:
        lhs = rt0.dot_mul(
            rt0.dot_power(classes.psi0, d0), rt0.dot_power(classes.psi1, d1)
        )
        rhs = rt0.dot_mul(
            rt0.dot_power(classes.psi0, d0 + 1),
            rt0.dot_power(classes.psi1, d1 - 1),
        ).scale(-1) + rt0.odot(
            rt0.dot_power(classes.psi0, d0), rt0.dot_power(classes.psi1, d1 - 1)
        )
        return None if lhs == rhs else f"d0={d0} d1={d1}"

    for d0 in range(max_degree + 1):
        report.add(
            "two_slot_psi_relation",
            f"d0={d0}, d0+d1<={max_degree}",
            tally(two_slot_relation(d0, d1) for d1 in range(1, max_degree - d0 + 1)),
        )

    budget = 3
    for base_name, arities in (("trivial", (2, 3)), ("rank2", (2,))):
        config = base_mod.BUILTIN_BASES[base_name]()
        for n in arities:

            def at_most(total: int) -> list[tuple[int, ...]]:
                # exponents over slots 0..n with sum <= total, the last
                # part of each composition being the slack
                return [c[:-1] for c in _exact_compositions(total, n + 2)]

            # psi exponents d and phi exponents e with d[j] >= 1; a pair
            # recurs once for every total that admits it
            cases = [
                (d, e, j)
                for total in range(1, budget + 1)
                for d in at_most(total)
                for e_total in range(budget - sum(d) + 1)
                for e in at_most(e_total)
                for j in range(1, n + 1)
                if d[j] >= 1
            ]
            report.add(
                "psi_to_phi_exchange",
                f"base={base_name} n={n} sum(d)+sum(e)<={budget} ({len(cases)} instances)",
                tally(
                    None
                    if mtilde.important_b_check(n, d, e, j, config)
                    else f"n={n} d={d} e={e} j={j}"
                    for d, e, j in cases
                ),
            )
    return report


def run_operad_axioms(bounds: Bounds) -> SuiteReport:
    resolved = bounds.resolved(max_arity=3, max_degree=2)
    resolved["base"] = bounds.base or "trivial"
    report = SuiteReport("operad-axioms", bounds.seed, resolved)
    config = base_mod.resolve_base(bounds.base)
    reports = mtilde.operad_axiom_check(
        config,
        max_arity=resolved["max_arity"],
        max_degree=resolved["max_degree"],
    )
    for name, outcome in sorted(reports.items()):
        report.add(
            name,
            f"base={config.name} arity<={resolved['max_arity']} "
            f"slot-degree<={resolved['max_degree']} checked={outcome.checked}",
            outcome,
        )
    return report


SUITES: dict[str, Callable[[Bounds], SuiteReport]] = {
    "ring": run_ring,
    "iota": run_iota,
    "odot": run_odot,
    "identity": run_identity,
    "dim": run_dim,
    "structure": run_structure,
    "super": run_super,
    "vowa": run_vowa,
    "important": run_important,
    "operad-axioms": run_operad_axioms,
}


def run_suite(name: str, bounds: Bounds) -> SuiteReport:
    """Run one suite, or every suite in order for the name 'all'."""
    start = time.monotonic()
    if name == "all":
        combined = SuiteReport("all", bounds.seed, {"defaults": "per-suite"})
        for suite_name, runner in SUITES.items():
            sub = runner(bounds)
            for check in sub.checks:
                combined.checks.append(
                    CheckResult(
                        f"{suite_name}/{check.id}",
                        check.params,
                        check.passed,
                        check.counterexample,
                    )
                )
        combined.duration_seconds = time.monotonic() - start
        return combined
    if name not in SUITES:
        raise KeyError(name)
    report = SUITES[name](bounds)
    report.duration_seconds = time.monotonic() - start
    return report
