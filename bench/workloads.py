"""Seeded inputs for the benchmark workloads.

The library only ever sees what these functions generate; the seed is a
benchmark argument.  ``expr-stream`` requests come from a fixed cycle of
request classes (a command and its operand degrees), shuffled per cycle
by the seed.  Every operand is a fresh random element that is dense in its
degree: each of the 2^d monomials of degree d gets a random nonzero
coefficient, and from degree 2 on one more term is written with a
(t0+t1)^2 factor so that the parser has nested work.  Dense operands keep the cost of a request class
nearly independent of the seed, so the latency percentiles and the
throughput measure the library, not the luck of the draw.
"""

from __future__ import annotations

import random
from typing import Iterator

WORKLOADS = ("expr-stream", "verify-core", "verify-super")

# Suite bounds of the verify workloads, fixed once chosen so that later
# runs are measured on the same work.  Defaults are kept except where a
# run could not hold several passes: operad-axioms at its default slot
# degree 2 takes about 36 s, odot at its default max_degree 4 about 11 s,
# and super/vowa at dim 3 about 23 s each.
VERIFY_SUITES: dict[str, tuple[tuple[str, dict[str, int]], ...]] = {
    "verify-core": (
        ("ring", {}),
        ("iota", {}),
        ("odot", {"max_degree": 2}),
        ("identity", {}),
        ("dim", {}),
        ("structure", {}),
        ("important", {}),
        ("operad-axioms", {"max_degree": 1}),
    ),
    "verify-super": (
        ("super", {"dim": 2}),
        ("vowa", {"dim": 2}),
    ),
}

# One cycle of expr-stream request classes, (command, operand degrees).
# Fifteen classes, so the median request falls inside the eighth lightest
# class (dot 3x4) and p90 inside the two heaviest, not on a boundary.
REQUEST_CYCLE: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("eval", (4,)),
    ("eval", (6,)),
    ("dot", (2, 3)),
    ("dot", (3, 4)),
    ("dot", (4, 4)),
    ("iota", (5,)),
    ("iota", (7,)),
    ("odot", (1, 2)),
    ("odot", (2, 3)),
    ("odot", (3, 3)),
    ("odot", (1, 5)),
    ("basis-structure", (5,)),
    ("basis-structure", (7,)),
    ("basis-iota", (4,)),
    ("basis-iota", (6,)),
)

# The stream's first three cycles (every request class three times) get
# the full independent checks and set the stream's verdict time; the
# traced run measures exactly these requests.
PREFIX = 3 * len(REQUEST_CYCLE)

_COEFFICIENTS = ("1", "2", "3", "5", "7", "1/2", "1/3", "2/3", "3/2", "5/3", "7/2")


def monomials(degree: int) -> list[str]:
    """The 2^degree valid monomials t0^a0 * t1^a1 * ... * tn^an of the
    given degree (a_i >= 1 for i >= 1), as expression text."""
    out = []
    for a0 in range(degree + 1):
        for parts in _compositions(degree - a0):
            factors = [_power("t0", a0)] if a0 else []
            factors += [_power(f"t{i}", e) for i, e in enumerate(parts, start=1)]
            out.append("*".join(factors) if factors else "1")
    return out


def _compositions(total: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _power(var: str, exp: int) -> str:
    return var if exp == 1 else f"{var}^{exp}"


def random_element(rng: random.Random, degree: int) -> str:
    """A random element dense in the given degree, as expression text."""
    terms = []
    for mono in monomials(degree):
        coeff = rng.choice(_COEFFICIENTS)
        terms.append((rng.random() < 0.3, mono if coeff == "1" else f"{coeff}*{mono}"))
    if degree >= 2:
        # (t0+t1)^2 times a valid monomial is a sum of three valid ones, so
        # it cannot cancel all 2^degree dense terms
        inner = rng.choice(monomials(degree - 2))
        terms.append((rng.random() < 0.3, f"{rng.choice(_COEFFICIENTS)}*(t0+t1)^2*{inner}"))
    text = ""
    for negative, term in terms:
        sign = "-" if negative else "+"
        text = f"{sign}{term}" if not text else f"{text} {sign} {term}"
    return text.lstrip("+")


def _argv(rng: random.Random, command: str, degrees: tuple[int, ...]) -> list[str]:
    operands = [random_element(rng, d) for d in degrees]
    if command.startswith("basis-"):
        which = "structure" if command == "basis-structure" else "iota-basis"
        return ["basis", operands[0], "--which", which]
    return [command, *operands]


def request_stream(seed: int) -> Iterator[tuple[tuple[str, tuple[int, ...]], list[str]]]:
    """Endless seeded sequence of (request class, CLI argument list), one
    cycle of request classes at a time in a seeded order."""
    rng = random.Random(f"expr-stream/{seed}")
    while True:
        cycle = list(REQUEST_CYCLE)
        rng.shuffle(cycle)
        for command, degrees in cycle:
            yield (command, degrees), _argv(rng, command, degrees)


def requests(seed: int, count: int) -> list[list[str]]:
    """The first ``count`` argument lists of the seeded stream."""
    stream = request_stream(seed)
    return [next(stream)[1] for _ in range(count)]
