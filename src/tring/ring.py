"""The graded ring of truncation-compatible polynomial families.

An element is a finite family (f_n) with f_n in the ideal
I_n = (t1*...*tn) * Q[t1,...,tn].  Multiplication is defined by summing
over all pairs of strictly increasing maps whose images jointly cover
the target interval; projecting a family to a finite level d turns it
into an ordinary polynomial in Q[t1,...,td], and that projection is a
ring homomorphism onto the level-d truncation ring.

The product is computed on monomial keys: t0^a * t1^u1 * ... * tn^un is
keyed by (a, u), where u is a composition, and the covering-pair sum of
two monomials is the quasi-shuffle of their compositions (Hoffman,
"Quasi-shuffle products", 2000) with the t0 powers added.  The ring
suite checks it against the covering-pair definition through the
projection homomorphism and decode.

t0 is fixed by all increasing-map operations, so the same kernel serves
the t0-extended elements defined in :mod:`tring.rt0`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .poly import (
    Mono,
    Polynomial,
    ScalarLike,
    enumerate_increasing_maps,
    positive_support,
    pushforward,
)

Components = dict[int, Polynomial]


class NotInRingError(ValueError):
    """A polynomial is not the level-d projection of any family."""


def check_component(n: int, p: Polynomial) -> bool:
    """True iff p lies in I_n: every term has support exactly {t1,...,tn}.

    For n = 0 this means p is constant.  Terms may not involve t0.
    """
    if n < 0:
        return False
    want = frozenset(range(1, n + 1))
    for mono in p.terms:
        if any(var == 0 for var, _ in mono):
            return False
        if positive_support(mono) != want:
            return False
    return True


def _check_component_t0(n: int, p: Polynomial) -> bool:
    # variant used by the t0-extension: any t0 power is allowed
    want = frozenset(range(1, n + 1))
    return all(positive_support(mono) == want for mono in p.terms)


def normalize_components(components: Mapping[int, Polynomial]) -> Components:
    return {n: p for n, p in components.items() if p}


def add_components(a: Components, b: Components) -> Components:
    out = dict(a)
    for n, p in b.items():
        q = out.get(n)
        s = p if q is None else q + p
        if s:
            out[n] = s
        elif n in out:
            del out[n]
    return out


def scale_components(a: Components, c: ScalarLike) -> Components:
    if not c:
        return {}
    return {n: p.scale(c) for n, p in a.items()}


# ---------------------------------------------------------------------------
# Monomial keys and the product kernel
# ---------------------------------------------------------------------------

Word = tuple[int, ...]
Key = tuple[int, Word]


def _split_mono(mono: Mono) -> Key:
    """Key t0^a * t1^u1 * ... * tn^un by (a, u); u is a composition."""
    if mono and mono[0][0] == 0:
        return mono[0][1], tuple(exp for _, exp in mono[1:])
    return 0, tuple(exp for _, exp in mono)


def _join_mono(a: int, word: Word) -> Mono:
    head = ((0, a),) if a else ()
    return head + tuple(enumerate(word, start=1))


def split_components(x: Components) -> list[tuple[Key, Fraction]]:
    """The terms of a family as (key, coefficient) pairs."""
    return [(_split_mono(m), c) for p in x.values() for m, c in p.terms.items()]


def join_components(terms: Mapping[Key, ScalarLike]) -> Components:
    """Group keyed terms into family components; zero terms drop out."""
    grouped: dict[int, dict[Mono, ScalarLike]] = {}
    for (a, word), c in terms.items():
        if c:
            grouped.setdefault(len(word), {})[_join_mono(a, word)] = c
    return {n: Polynomial(t) for n, t in grouped.items()}


def quasi_shuffle(u: Word, v: Word, memo: dict) -> dict[Word, int]:
    """The quasi-shuffle u * v as a word -> multiplicity map:
    (x.u') * (y.v') = x.(u' * y.v') + y.(x.u' * v') + (x+y).(u' * v').

    It is the covering-pair product of the t0-free monomials keyed by u
    and v: a target variable is hit by the left map, the right map or
    both.  ``memo`` holds the sub-products; pass one dict per product
    call so that nothing outlives it.
    """
    if not u or not v:
        return {u or v: 1}
    cached = memo.get((u, v))
    if cached is not None:
        return cached
    out: dict[Word, int] = {}
    for head, tail in (
        (u[0], quasi_shuffle(u[1:], v, memo)),
        (v[0], quasi_shuffle(u, v[1:], memo)),
        (u[0] + v[0], quasi_shuffle(u[1:], v[1:], memo)),
    ):
        for w, mult in tail.items():
            w = (head,) + w
            out[w] = out.get(w, 0) + mult
    memo[(u, v)] = out
    return out


def multiply_components(x: Components, y: Components) -> Components:
    """The family product on keys: (a, u) . (b, v) = (a + b, u * v).

    t0 is fixed by every increasing map, so its powers add, and the
    interval parts multiply by the quasi-shuffle (see quasi_shuffle).
    """
    memo: dict = {}
    right = split_components(y)
    acc: dict[Key, Fraction] = {}
    for (a, u), cx in split_components(x):
        for (b, v), cy in right:
            c = cx * cy
            for w, mult in quasi_shuffle(u, v, memo).items():
                key = (a + b, w)
                acc[key] = acc.get(key, 0) + c * mult
    return join_components(acc)


def project_components(x: Components, d: int) -> Polynomial:
    """Level-d projection: sum of alpha_*(x_n) over all alpha [1,n]->[1,d]."""
    out = Polynomial.zero()
    for n, comp in x.items():
        if n > d:
            continue
        for alpha in enumerate_increasing_maps(n, d):
            out = out + pushforward(alpha, comp)
    return out


def decode_components(value: Polynomial, d: int) -> Components:
    """Split a level-d polynomial into its family components.

    Component n collects the terms whose support among t1, t2, ... is
    exactly the prefix {1, ..., n}; t0 powers ride along untouched.
    Raises NotInRingError when re-projecting the result does not give the
    input back, which is exactly the failure of membership at level d.
    """
    groups: dict[int, dict[Mono, Fraction]] = {}
    prefixes = {frozenset(range(1, n + 1)): n for n in range(d + 1)}
    for mono, coeff in value.terms.items():
        n = prefixes.get(positive_support(mono))
        if n is not None:
            groups.setdefault(n, {})[mono] = coeff
        # terms with non-prefix support are regenerated by the projection
        # of the prefix components; the roundtrip below arbitrates
    components = {n: Polynomial(terms) for n, terms in groups.items()}
    if project_components(components, d) != value:
        raise NotInRingError(f"polynomial is not a level-{d} projection")
    return normalize_components(components)


class RElement:
    """A finite family (f_n) with f_n in I_n; the elements of the big ring."""

    __slots__ = ("components",)

    def __init__(self, components: Mapping[int, Polynomial]):
        for n, p in components.items():
            if p and not check_component(n, p):
                raise NotInRingError(
                    f"component {n} is not in I_{n}: {p}"
                )
        self.components = normalize_components(components)

    @classmethod
    def _raw(cls, components: Components) -> "RElement":
        elt = cls.__new__(cls)
        elt.components = components
        return elt

    @classmethod
    def zero(cls) -> "RElement":
        return cls._raw({})

    @classmethod
    def unit(cls, c: ScalarLike = 1) -> "RElement":
        c = Fraction(c)
        return cls._raw({0: Polynomial.const(c)} if c else {})

    def is_zero(self) -> bool:
        return not self.components

    def __bool__(self) -> bool:
        return bool(self.components)

    def __add__(self, other: "RElement") -> "RElement":
        return RElement._raw(add_components(self.components, other.components))

    def __sub__(self, other: "RElement") -> "RElement":
        return self + other.scale(-1)

    def scale(self, c: ScalarLike) -> "RElement":
        return RElement._raw(scale_components(self.components, Fraction(c)))

    def __mul__(self, other: "RElement") -> "RElement":
        return r_mul(self, other)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RElement):
            return self.components == other.components
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset((n, p) for n, p in self.components.items()))

    def degree(self) -> int:
        """Maximal polynomial degree across components; -1 when zero."""
        if not self.components:
            return -1
        return max(p.total_degree() for p in self.components.values())

    def to_pairs(self) -> list[tuple[int, str]]:
        return [(n, str(p)) for n, p in sorted(self.components.items())]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, str]]) -> "RElement":
        from .poly import parse_polynomial

        components: Components = {}
        for n, text in pairs:
            components = add_components(components, {n: parse_polynomial(text)})
        return cls(components)

    def __repr__(self) -> str:
        return f"RElement({self.to_pairs()!r})"


def r_mul(f: RElement, g: RElement) -> RElement:
    """Product of two families (see multiply_components)."""
    return RElement._raw(multiply_components(f.components, g.components))


class RdElement:
    """A polynomial that is a valid level-d truncation of some family."""

    __slots__ = ("level", "value")

    def __init__(self, level: int, value: Polynomial):
        for var in value.variables():
            if var == 0 or var > level:
                raise NotInRingError(
                    f"variable t{var} not allowed at level {level}"
                )
        decode_components(value, level)
        self.level = level
        self.value = value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RdElement):
            return self.level == other.level and self.value == other.value
        return NotImplemented

    def __repr__(self) -> str:
        return f"RdElement(level={self.level}, value={self.value})"


def project_to_level(f: RElement, d: int) -> RdElement:
    out = RdElement.__new__(RdElement)
    out.level = d
    out.value = project_components(f.components, d)
    return out


def decode_rd(value: Polynomial, d: int) -> RElement:
    """Inverse of project_to_level on families concentrated in levels <= d."""
    for var in value.variables():
        if var == 0 or var > d:
            raise NotInRingError(f"variable t{var} not allowed at level {d}")
    return RElement._raw(decode_components(value, d))


def restrict_level(f: RdElement) -> RdElement:
    """Pass from level d to level d-1 by setting t_d = 0."""
    if f.level < 1:
        raise NotInRingError("cannot restrict below level 0")
    out = RdElement.__new__(RdElement)
    out.level = f.level - 1
    out.value = f.value.set_var_zero(f.level)
    return out
