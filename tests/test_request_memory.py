"""Expression requests in one process hold no memory that grows with them.

A long-running caller (the benchmark worker among them) sends many
``cli.main`` requests to one interpreter.  After a warm-up batch has
filled the bounded caches (basis matrices, word evaluations, quasi-shuffle
powers), a second batch with other operands must leave the bytes held by
``tring`` frames exactly where they were: a cache that grows with the
requests shows here as a difference.
"""

import gc
import random
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import tring
from tring import cli, rt0
from tring.poly import mono_str

# The command classes of a typical request mix, (command, operand degrees).
# Basis expansions stop at degree 5: under tracemalloc a degree-7
# elimination takes about 2 s, degree 5 about 0.04 s.
REQUESTS = (
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
    ("structure", (4,)),
    ("structure", (5,)),
    ("iota-basis", (3,)),
    ("iota-basis", (5,)),
)
COEFFICIENTS = ("1", "2", "7", "1/2", "2/3", "5/3")


def _dense(rng: random.Random, degree: int) -> str:
    """Every monomial of the degree with a random coefficient and sign,
    and from degree 2 on one more term with a parenthesised factor."""
    terms = [f"{rng.choice(COEFFICIENTS)}*{mono_str(m)}" for m in rt0.monomials_of_degree(degree)]
    if degree >= 2:
        inner = rng.choice(rt0.monomials_of_degree(degree - 2))
        terms.append(f"{rng.choice(COEFFICIENTS)}*(t0+t1)^2*{mono_str(inner)}")
    text = rng.choice(("", "-")) + terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return text


def _batch(seed: int, cycles: int = 6) -> None:
    rng = random.Random(seed)
    for _ in range(cycles):
        for command, degrees in REQUESTS:
            operands = [_dense(rng, d) for d in degrees]
            if command in ("structure", "iota-basis"):
                argv = ["basis", *operands, "--which", command]
            else:
                argv = [command, *operands]
            assert cli.main(argv) == 0


class _Discard:
    """A stdout that keeps nothing, so that only tring's own memory counts."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def test_a_second_batch_of_requests_holds_no_more_memory():
    tring_frames = tracemalloc.Filter(True, str(Path(tring.__file__).parent / "*"))

    def held() -> int:
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces([tring_frames])
        return sum(stat.size for stat in snapshot.statistics("filename"))

    tracemalloc.start()
    try:
        with redirect_stdout(_Discard()):
            _batch(seed=1)
            warm = held()
            _batch(seed=2)
            assert held() == warm
    finally:
        tracemalloc.stop()
