"""The graded ring of truncation-compatible polynomial families.

An element is a finite family (f_n) with f_n in the ideal
I_n = (t1*...*tn) * Q[t1,...,tn].  Multiplication is defined by summing
over all pairs of strictly increasing maps whose images jointly cover
the target interval; projecting a family to a finite level d turns it
into an ordinary polynomial in Q[t1,...,td], and that projection is a
ring homomorphism onto the level-d truncation ring.

Elements are stored on monomial keys: t0^a * t1^u1 * ... * tn^un is
keyed by (a, u), where u is a composition, so the key alone says which
component f_n (n = len(u)) a term belongs to.  A coefficient is an int
when it is integral and a Fraction only where a denominator appears.
The covering-pair sum of two monomials is the quasi-shuffle of their
compositions (Hoffman, "Quasi-shuffle products", 2000) with the t0
powers added.  The components f_n as Polynomials are a view, built for
the projection and decode cross-checks; the ring suite checks the
product against the covering-pair definition through them.

t0 is fixed by all increasing-map operations, so one element type and
one product serve both rings: RT0Element holds families with f_n in
I_n[t0], and RElement is its t0-free case, checked on construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, TypeVar

from .poly import (
    Mono,
    Polynomial,
    ScalarLike,
    enumerate_increasing_maps,
    mono_str,
    positive_support,
    pushforward,
)

Components = dict[int, Polynomial]


class NotInRingError(ValueError):
    """A polynomial is not the level-d projection of any family."""


class InvalidElementError(ValueError):
    """A polynomial has a term that belongs to no component I_n[t0]."""


def interval_length(mono: Mono) -> int | None:
    """n when the variables of mono other than t0 are exactly t1, ..., tn,
    None when they skip one."""
    support = positive_support(mono)
    n = len(support)
    return n if support == frozenset(range(1, n + 1)) else None


def check_component(n: int, p: Polynomial) -> bool:
    """True iff p lies in I_n: every term has support exactly {t1,...,tn}.

    For n = 0 this means p is constant.  Terms may not involve t0.
    """
    return n >= 0 and all(
        interval_length(mono) == n and all(var for var, _ in mono)
        for mono in p.terms
    )


# ---------------------------------------------------------------------------
# Monomial keys and the product kernel
# ---------------------------------------------------------------------------

Word = tuple[int, ...]
Key = tuple[int, Word]
Coeff = int | Fraction
Terms = dict[Key, Coeff]
K = TypeVar("K")


def _split_mono(mono: Mono) -> Key:
    """Key t0^a * t1^u1 * ... * tn^un by (a, u); u is a composition."""
    if mono and mono[0][0] == 0:
        return mono[0][1], tuple(exp for _, exp in mono[1:])
    return 0, tuple(exp for _, exp in mono)


def _join_mono(a: int, word: Word) -> Mono:
    head = ((0, a),) if a else ()
    return head + tuple(enumerate(word, start=1))


def nonzero_terms(acc: Mapping[K, Coeff], denominator: int = 1) -> dict[K, Coeff]:
    """The nonzero terms of acc / denominator, an integral coefficient as
    an int.

    With add_term, the one home of the coefficient rule of every sparse
    map outside Polynomial (which keeps Fractions).  This is the one pass
    over a large map that a product has filled with plain sums.  A
    denominator other than 1 comes from integral: acc then holds int
    numerators, and each term costs one division."""
    if denominator == 1:
        return {
            key: c.numerator if c.denominator == 1 else c
            for key, c in acc.items()
            if c
        }
    return {
        key: c // denominator if not c % denominator else Fraction(c, denominator)
        for key, c in acc.items()
        if c
    }


def integral(terms: Mapping[K, Coeff]) -> tuple[Mapping[K, int], int]:
    """(numerators, d) with terms = numerators / d, d the lcm of the
    denominators: the form the product kernels accumulate in, so that
    they add ints and divide once per output term (nonzero_terms).  A map
    of ints comes back as it is, with d = 1."""
    d = 1
    exact = True
    for c in terms.values():
        if type(c) is not int:
            exact = False
            d = lcm(d, c.denominator)
    if exact:
        return terms, 1
    return {key: c.numerator * (d // c.denominator) for key, c in terms.items()}, d


def add_term(acc: dict[K, Coeff], key: K, c: Coeff) -> None:
    """Add c to acc[key], keeping acc under the rule of nonzero_terms;
    for the few-term maps of base classes and operad terms, where a
    final pass would cost more than it saves."""
    if not c:
        return
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s.numerator if s.denominator == 1 else s
    elif key in acc:
        del acc[key]


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


def multiply_components(x: Terms, y: Terms) -> Terms:
    """The family product on keys: (a, u) . (b, v) = (a + b, u * v).

    t0 is fixed by every increasing map, so its powers add, and the
    interval parts multiply by the quasi-shuffle (see quasi_shuffle).
    The sums run on the int numerators of integral, over dx * dy.
    """
    memo: dict = {}
    x, dx = integral(x)
    y, dy = integral(y)
    right = list(y.items())
    acc: dict[Key, int] = {}
    for (a, u), cx in x.items():
        for (b, v), cy in right:
            c = cx * cy
            for w, mult in quasi_shuffle(u, v, memo).items():
                key = (a + b, w)
                acc[key] = acc.get(key, 0) + c * mult
    return nonzero_terms(acc, dx * dy)


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
    return components


class RT0Element:
    """A finite family (f_n) with f_n in I_n[t0], held as its keyed terms."""

    __slots__ = ("terms", "_hash")

    def __init__(self, components: Mapping[int, Polynomial]):
        terms: Terms = {}
        for n, p in components.items():
            if any(interval_length(mono) != n for mono in p.terms):
                raise InvalidElementError(
                    f"component {n} does not have support t1..t{n}: {p}"
                )
            terms.update((_split_mono(mono), c) for mono, c in p.terms.items())
        self.terms = nonzero_terms(terms)

    @classmethod
    def _raw(cls, terms: Terms) -> "RT0Element":
        elt = cls.__new__(cls)
        elt.terms = terms
        return elt

    @classmethod
    def zero(cls) -> "RT0Element":
        return cls._raw({})

    @classmethod
    def one(cls) -> "RT0Element":
        return cls._raw({(0, ()): 1})

    @classmethod
    def scalar(cls, c: ScalarLike) -> "RT0Element":
        return cls._raw(nonzero_terms({(0, ()): Fraction(c)}))

    @staticmethod
    def t0_power(a: int) -> "RT0Element":
        return RT0Element._raw({(a, ()): 1})

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RT0Element":
        """Key the terms of p; the key's word length is the component.

        Every term must use a contiguous block t1, ..., tn of interval
        variables; a gap such as t1*t3 is rejected by name.
        """
        for mono in p.terms:
            if interval_length(mono) is None:
                raise InvalidElementError(
                    f"not a valid element: monomial {mono_str(mono)} "
                    f"skips an interval variable"
                )
        return RT0Element._raw(
            nonzero_terms({_split_mono(m): c for m, c in p.terms.items()})
        )

    @staticmethod
    def from_text(text: str) -> "RT0Element":
        from .poly import parse_polynomial

        return RT0Element.from_polynomial(parse_polynomial(text))

    # -- views -----------------------------------------------------------

    @property
    def components(self) -> Components:
        """The components f_n as Polynomials, built on each read."""
        grouped: dict[int, dict[Mono, Coeff]] = {}
        for (a, u), c in self.terms.items():
            grouped.setdefault(len(u), {})[_join_mono(a, u)] = c
        return {n: Polynomial(t) for n, t in grouped.items()}

    def to_polynomial(self) -> Polynomial:
        return Polynomial({_join_mono(a, u): c for (a, u), c in self.terms.items()})

    def __str__(self) -> str:
        return str(self.to_polynomial())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Maximal polynomial degree of a term; -1 when zero."""
        return max((a + sum(u) for a, u in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({a + sum(u) for a, u in self.terms}) <= 1

    def homogeneous_parts(self) -> dict[int, "RT0Element"]:
        parts: dict[int, Terms] = {}
        for (a, u), c in self.terms.items():
            parts.setdefault(a + sum(u), {})[a, u] = c
        return {deg: RT0Element._raw(t) for deg, t in sorted(parts.items())}

    def t0_coefficients(self) -> dict[int, "RElement"]:
        """Write the element as sum_a t0^a * h_a with t0-free h_a."""
        split: dict[int, Terms] = {}
        for (a, u), c in self.terms.items():
            split.setdefault(a, {})[0, u] = c
        return {a: RElement._raw(t) for a, t in sorted(split.items())}

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "RT0Element") -> "RT0Element":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return RT0Element._raw(nonzero_terms(out))

    def __sub__(self, other: "RT0Element") -> "RT0Element":
        return self + other.scale(-1)

    def __neg__(self) -> "RT0Element":
        return self.scale(-1)

    def scale(self, c: ScalarLike) -> "RT0Element":
        c = Fraction(c)
        return RT0Element._raw(nonzero_terms({k: v * c for k, v in self.terms.items()}))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RT0Element):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash(frozenset(self.terms.items()))
            self._hash = cached
        return cached


def dot_mul(x: RT0Element, y: RT0Element) -> RT0Element:
    """The family product, commutative: t0 powers add and interval parts
    quasi-shuffle (the covering-pair product, see multiply_components).
    On t0-free families it is the product of the big ring."""
    return RT0Element._raw(multiply_components(x.terms, y.terms))


r_mul = dot_mul


class RElement(RT0Element):
    """A t0-free family (f_n) with f_n in I_n; the elements of the big ring.

    Only construction differs from RT0Element: a component outside I_n,
    a t0 power included, raises NotInRingError.  Arithmetic is inherited
    and returns RT0Element.
    """

    __slots__ = ()

    def __init__(self, components: Mapping[int, Polynomial]):
        for n, p in components.items():
            if p and not check_component(n, p):
                raise NotInRingError(f"component {n} is not in I_{n}: {p}")
        super().__init__(components)

    @classmethod
    def unit(cls, c: ScalarLike = 1) -> "RElement":
        return cls.scalar(c)

    def to_pairs(self) -> list[tuple[int, str]]:
        return [(n, str(p)) for n, p in sorted(self.components.items())]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, str]]) -> "RElement":
        from .poly import parse_polynomial

        components: Components = {}
        for n, text in pairs:
            components[n] = components.get(n, Polynomial.zero()) + parse_polynomial(text)
        return cls(components)


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


def project_to_level(f: RT0Element, d: int) -> RdElement:
    out = RdElement.__new__(RdElement)
    out.level = d
    out.value = project_components(f.components, d)
    return out


def decode_rd(value: Polynomial, d: int) -> RElement:
    """Inverse of project_to_level on families concentrated in levels <= d."""
    for var in value.variables():
        if var == 0 or var > d:
            raise NotInRingError(f"variable t{var} not allowed at level {d}")
    return RElement(decode_components(value, d))


def restrict_level(f: RdElement) -> RdElement:
    """Pass from level d to level d-1 by setting t_d = 0."""
    if f.level < 1:
        raise NotInRingError("cannot restrict below level 0")
    out = RdElement.__new__(RdElement)
    out.level = f.level - 1
    out.value = f.value.set_var_zero(f.level)
    return out
