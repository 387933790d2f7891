"""The t0-extension of the graded family ring and its two products.

Elements are the families (f_n) with f_n in I_n[t0] of
:class:`tring.ring.RT0Element`: each term of f_n carries positive
exponents on exactly t1, ..., tn plus an arbitrary t0 power.  An
element stores its terms on the monomial keys (a, u) of
t0^a * t1^u1 * ... * tn^un, where u is a composition, and every
structure here reads and writes those keys directly, with the one
product kernel of :mod:`tring.ring`, the quasi-shuffle of compositions
(Hoffman, "Quasi-shuffle products", 2000):

* the commutative "dot" product, the covering-pair product with t0 as a
  free scalar variable: (a, u) . (b, v) = (a + b, u * v);
* the involution iota, determined by t0 -> -(t0+t1) together with
  reversal of the interval variables on each component;
* the non-commutative, degree-raising "odot" product.  Its level-k
  truncations q_k define it; it is computed in closed form on the keys,
  and the verification suite checks the closed form against the decoded
  truncations and, for a t0-free right factor, the concatenation form.

q_k and the concatenation form are the reference paths: they work on
the Polynomial components view.

Monomials t0^a0 * t1^a1 * ... * tn^an (a_i >= 1) form a vector-space
basis; in each total degree n there are exactly 2^n of them, and the
words t0^a1 (*) ... (*) t0^ar of odot-factors form a second basis, which
the expansion routines convert to and from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable

from . import base as base_algebra
from .linalg import solve_exact
from .poly import (
    Coeff,
    Mono,
    Polynomial,
    _mono_sort_key,
    add_term,
    integral,
    nonzero_terms,
)
from .ring import (  # InvalidElementError is re-exported
    Components,
    InvalidElementError,
    Key,
    RT0Element,
    Terms,
    Word,
    _join_mono,
    _split_mono,
    dot_mul,
    project_components,
    quasi_shuffle,
)


class ConsistencyError(RuntimeError):
    """An invariant the mathematics guarantees failed, such as the
    invertibility of a word basis matrix; indicates a bug."""


def dot_power(x: RT0Element, exp: int) -> RT0Element:
    if exp < 0:
        raise ValueError("negative power")
    out = RT0Element.one()
    for _ in range(exp):
        out = dot_mul(out, x)
    return out


@lru_cache(maxsize=64)
def _psi1_power(exp: int) -> RT0Element:
    return dot_power(RT0Element.from_text("t0+t1"), exp)


@lru_cache(maxsize=4096)
def _stuffle_ones(word: Word, c: int) -> tuple[tuple[Word, int], ...]:
    """The quasi-shuffle word * (1)^{*c}, as (word, multiplicity) pairs:
    the product of the monomial keyed by word with the c-th dot power of
    t1, folded one factor (1) at a time."""
    if c == 0:
        return ((word, 1),)
    memo: dict = {}
    out: dict[Word, int] = {}
    for w, mult in _stuffle_ones(word, c - 1):
        for v, m in quasi_shuffle(w, (1,), memo).items():
            out[v] = out.get(v, 0) + mult * m
    return tuple(out.items())


def iota(x: RT0Element) -> RT0Element:
    """The involution: t0 -> -(t0+t1) as a dot-power, interval variables
    reversed on each component.

    On keys, (a, u) maps to (-1)^a sum_i C(a, i) (i, rev(u) * (1)^{*(a-i)}):
    the dot power (-(t0+t1))^a expands binomially, and t1^(a-i) is the
    quasi-shuffle power of the word (1).  It is a ring homomorphism for
    the dot product and an anti-homomorphism for odot; applying it twice
    gives the identity.  The sums run on the int numerators of integral.
    """
    numerators, d = integral(x.terms)
    acc: dict[Key, int] = {}
    for (a, u), coeff in numerators.items():
        signed = -coeff if a % 2 else coeff
        for c in range(a + 1):  # c = a - i factors (1)
            weight = signed * comb(a, c)
            for w, mult in _stuffle_ones(u[::-1], c):
                acc[a - c, w] = acc.get((a - c, w), 0) + weight * mult
    return RT0Element._raw(nonzero_terms(acc, d))


# ---------------------------------------------------------------------------
# Finite truncations of the odot product
# ---------------------------------------------------------------------------


def q_k(x: RT0Element, y: RT0Element, k: int) -> Polynomial:
    """Level-k truncation of x odot y.

    For each insertion position j the left factor is projected into the
    variables t1..t_{j-1}, multiplied by t_j, and the right factor is
    spread over the window t_{j+1}..t_k with t0 replaced by t0+...+tj.
    """
    if k < 1:
        raise ValueError("truncation level must be >= 1")
    out = Polynomial.zero()
    x_components, y_components = x.components, y.components
    for j in range(1, k + 1):
        left = project_components(x_components, j - 1)
        if not left:
            continue
        shift = Polynomial.zero()
        for i in range(j + 1):
            shift = shift + Polynomial.variable(i)
        right = Polynomial.zero()
        window = range(j + 1, k + 1)
        for m, ym in y_components.items():
            if m > len(window):
                continue
            for values in combinations(window, m):
                renamed = ym.rename({i + 1: values[i] for i in range(m)})
                right = right + renamed.substitute_t0(shift)
        if right:
            out = out + left * Polynomial.variable(j) * right
    return out


def _concatenation(x: RT0Element, y: RT0Element) -> RT0Element:
    # closed form for a t0-free right factor: the left component keeps its
    # variables, a fresh separator variable is inserted, and the right
    # component is shifted past it
    acc: Components = {}
    for n, xn in x.components.items():
        separator = Polynomial.variable(n + 1)
        for m, ym in y.components.items():
            shifted = ym.rename({i: i + n + 1 for i in range(1, m + 1)})
            piece = xn * separator * shifted
            k = n + m + 1
            acc[k] = acc.get(k, Polynomial.zero()) + piece
    return RT0Element(acc)


# ---------------------------------------------------------------------------
# The odot product in closed form
# ---------------------------------------------------------------------------


def _odot_monomials(a: int, u: Word, b: int, v: Word) -> dict[Key, int]:
    """(a, u) odot (b, v) = sum over c0 + c1 + c2 = b of the multinomial
    b!/(c0! c1! c2!) times (a + c0, w . (1 + c2) . v), for the words w of
    u * (1)^{*c1} with multiplicity; '.' is concatenation.

    The right factor's t0^b becomes (t0 + t1 + ... + tj)^b at the
    separator t_j: t0^c0 stays t0, (t1 + ... + t_{j-1})^c1 multiplies the
    left factor, and t_j^c2 raises the separator."""
    out: dict[Key, int] = {}
    for c0 in range(b + 1):
        for c1 in range(b - c0 + 1):
            c2 = b - c0 - c1
            weight = comb(b, c0) * comb(b - c0, c1)
            tail = (1 + c2,) + v
            for w, mult in _stuffle_ones(u, c1):
                key = (a + c0, w + tail)
                out[key] = out.get(key, 0) + weight * mult
    return out


def odot(x: RT0Element, y: RT0Element) -> RT0Element:
    """The degree-raising product: deg(x odot y) = deg x + deg y + 1.

    Bilinear extension of the closed form on basis monomials (see
    _odot_monomials), with no truncation and no decode.  The odot
    verification suite checks it against two independent paths: the
    truncation (q_k at level deg x + deg y + 1, then decode) and, for a
    t0-free right factor, the concatenation form.  The sums run on the
    int numerators of integral, over dx * dy.
    """
    x_terms, dx = integral(x.terms)
    y_terms, dy = integral(y.terms)
    right = list(y_terms.items())
    acc: dict[Key, int] = {}
    for (a, u), cx in x_terms.items():
        for (b, v), cy in right:
            c = cx * cy
            for key, mult in _odot_monomials(a, u, b, v).items():
                acc[key] = acc.get(key, 0) + c * mult
    return RT0Element._raw(nonzero_terms(acc, dx * dy))


# ---------------------------------------------------------------------------
# Monomial and word bases
# ---------------------------------------------------------------------------


def monomials_of_degree(n: int) -> list[Mono]:
    """All valid monomials t0^a0 * t1^a1 ... tk^ak (a_i >= 1) of degree n,
    in the canonical print order.  There are exactly 2^n of them: one
    key (a, u) for each t0 power a and composition u of n - a."""
    monos = [_join_mono(n, ())]
    for a in range(n):
        rest = n - a
        for k in range(1, rest + 1):
            for parts in _exact_compositions(rest - k, k):
                monos.append(_join_mono(a, tuple(p + 1 for p in parts)))
    return sorted(monos, key=_mono_sort_key)


def structure_words(n: int) -> list[tuple[int, ...]]:
    """Words (a_1, ..., a_r) with sum a_i + (r - 1) = n, ordered by length
    then lexicographically; they index the odot-factor basis."""
    words: list[tuple[int, ...]] = []
    for r in range(1, n + 2):
        total = n - (r - 1)
        if total < 0:
            continue
        words.extend(sorted(_exact_compositions(total, r)))
    return words


def _exact_compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exact_compositions(total - first, parts - 1):
            yield (first,) + rest


# 512 entries hold every word of degree <= 8 (2^0 + ... + 2^8 of them)
@lru_cache(maxsize=512)
def evaluate_structure_word(word: tuple[int, ...]) -> RT0Element:
    """Left-fold of odot over the factors t0^a_i."""
    if not word:
        raise ValueError("a word needs at least one factor")
    if len(word) == 1:
        return RT0Element.t0_power(word[0])
    return odot(evaluate_structure_word(word[:-1]), RT0Element.t0_power(word[-1]))


@lru_cache(maxsize=512)
def evaluate_involution_word(word: tuple[int, ...]) -> RT0Element:
    """Left-fold of odot over the factors (t0+t1)^a_i (dot powers)."""
    if not word:
        raise ValueError("a word needs at least one factor")
    if len(word) == 1:
        return _psi1_power(word[0])
    return odot(evaluate_involution_word(word[:-1]), _psi1_power(word[-1]))


_WORD_EVALUATORS = {
    "structure": evaluate_structure_word,
    "iota-basis": evaluate_involution_word,
}


# one 2^n x 2^n matrix per (degree, kind): degrees 0..7 of both kinds
@lru_cache(maxsize=16)
def _basis_matrix(n: int, kind: str) -> tuple[tuple[tuple[Coeff, ...], ...], tuple[tuple[int, ...], ...], tuple[Mono, ...]]:
    words = tuple(structure_words(n))
    monos = tuple(monomials_of_degree(n))
    keys = [_split_mono(m) for m in monos]
    evaluate = _WORD_EVALUATORS[kind]
    columns = []
    for word in words:
        terms = evaluate(word).terms
        columns.append(tuple(terms.get(key, 0) for key in keys))
    matrix = tuple(
        tuple(columns[j][i] for j in range(len(words)))
        for i in range(len(monos))
    )
    return matrix, words, monos


# The degree-n expansion evaluates 2^n words into a 2^n x 2^n matrix, and
# its cost grows about 4x per degree: degree 8 takes about 1.5 s and 32 MB
# of peak RSS on a 2-CPU Xeon VM.
MAX_BASIS_DEGREE = 8


def _check_basis_degree(x: RT0Element) -> None:
    if x.degree() > MAX_BASIS_DEGREE:
        raise ValueError(
            f"basis expansion supports degree at most {MAX_BASIS_DEGREE}, "
            f"got degree {x.degree()}"
        )


def odot_basis_expand(
    x: RT0Element, kind: str = "structure"
) -> dict[tuple[int, ...], Coeff]:
    """Exact coefficients of x in the odot-word basis.

    Works degree by degree; the change-of-basis matrix in each degree is
    square of size 2^n and provably invertible, so a singular matrix can
    only mean an internal defect.  Raises ValueError above degree
    MAX_BASIS_DEGREE.
    """
    if kind not in _WORD_EVALUATORS:
        raise ValueError(f"unknown basis kind {kind!r}")
    _check_basis_degree(x)
    out: dict[tuple[int, ...], Coeff] = {}
    for degree, part in x.homogeneous_parts().items():
        matrix, words, monos = _basis_matrix(degree, kind)
        rhs = [part.terms.get(_split_mono(m), 0) for m in monos]
        solution = solve_exact([list(row) for row in matrix], rhs)
        if solution is None:
            raise ConsistencyError(
                f"degree-{degree} word basis matrix is singular"
            )
        out.update(nonzero_terms(dict(zip(words, solution))))
    return out


def odot_basis_expand_iota(x: RT0Element) -> dict[tuple[int, ...], Coeff]:
    """Expansion in the involution-conjugated word basis.

    Obtained by expanding iota(x) in the plain word basis and conjugating
    word by word: each word reverses and picks up the parity sign of its
    total t0 weight.  A sign keeps the coefficient rule of the expansion.
    """
    _check_basis_degree(x)  # before iota, whose cost grows as fast
    inner = odot_basis_expand(iota(x), "structure")
    return {
        word[::-1]: -coeff if sum(word) % 2 else coeff
        for word, coeff in inner.items()
    }


def leading_term_check(x: RT0Element) -> bool:
    """Check the shape of 1 odot x for a single nonzero monomial x.

    The product must contain t1^(r+1) * t2^a1 * ... * t_{k+1}^ak with
    coefficient one, every other term must carry a strictly smaller t1
    power, and at least one term must be free of t0.
    """
    if len(x.terms) != 1:
        raise ValueError("leading_term_check expects a single monomial")
    ((r, u), coeff), = x.terms.items()
    if coeff != 1:
        raise ValueError("leading_term_check expects coefficient one")
    expected = (0, (r + 1,) + u)
    product = odot(RT0Element.one(), x).terms
    if product.get(expected) != 1:
        return False
    saw_t0_free = False
    for key in product:
        a, w = key
        if key != expected and w and w[0] >= r + 1:
            return False
        if not a:
            saw_t0_free = True
    return saw_t0_free


# ---------------------------------------------------------------------------
# Substitution of t0 by a nilpotent class of a graded algebra
# ---------------------------------------------------------------------------


def substitute_class(
    x: RT0Element,
    c: "base_algebra.AlgebraElement",
    algebra: "base_algebra.GradedAlgebra",
) -> dict[str, RT0Element]:
    """Replace t0 by a degree-one algebra class.

    Writes x as sum_a t0^a h_a and returns sum_a c^a tensor h_a as a
    mapping from algebra basis names to t0-free family elements.
    Nilpotence of c truncates the sum.
    """
    if not algebra.is_homogeneous(c, 1):
        raise base_algebra.DegreeMismatchError(
            "substitution class must be homogeneous of degree 1"
        )
    powers = [algebra.unit_element()]  # c^a; no product past the first zero
    for _ in range(max((a for a, _ in x.terms), default=0)):
        powers.append(algebra.mul(powers[-1], c) if powers[-1] else {})
    out: dict[str, Terms] = {}
    for (a, u), coeff in x.terms.items():
        for name, scalar in powers[a].items():
            add_term(out.setdefault(name, {}), (0, u), scalar * coeff)
    return {name: RT0Element._raw(terms) for name, terms in out.items() if terms}


# ---------------------------------------------------------------------------
# Distinguished degree-one classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassConstants:
    """The four degree-one marked-point classes of the two-slot theory."""

    psi0: RT0Element
    psi1: RT0Element
    phi0: RT0Element
    phi1: RT0Element


def class_constants() -> ClassConstants:
    return ClassConstants(
        psi0=RT0Element.from_text("-t0"),
        psi1=RT0Element.from_text("t0+t1"),
        phi0=RT0Element.from_text("-t0-t1"),
        phi1=RT0Element.from_text("t0"),
    )
