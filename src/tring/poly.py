"""Sparse multivariate polynomials over Q in variables t0, t1, t2, ...

Variables are indexed by non-negative integers; index 0 is the
distinguished variable t0, the higher indices form the "interval"
variables t1, t2, ... that the strictly increasing maps act on.

A monomial is stored as a tuple of (variable, exponent) pairs, sorted by
variable index, with every stored exponent positive.  A polynomial is a
mapping from monomials to nonzero Fraction coefficients.  All values are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Union

Scalar = Fraction
Mono = tuple[tuple[int, int], ...]

ScalarLike = Union[Fraction, int]

MONO_ONE: Mono = ()


class DomainError(ValueError):
    """A variable index lies outside the range an operation allows."""


def mono_from_dict(exps: Mapping[int, int]) -> Mono:
    """Build a monomial from a variable -> exponent mapping.

    Zero exponents are dropped; negative exponents or variables are
    rejected.
    """
    items = []
    for var, exp in sorted(exps.items()):
        if var < 0:
            raise DomainError(f"negative variable index {var}")
        if exp < 0:
            raise DomainError(f"negative exponent {exp} on t{var}")
        if exp:
            items.append((var, exp))
    return tuple(items)


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for var, exp in b:
        exps[var] = exps.get(var, 0) + exp
    return tuple(sorted(exps.items()))


def mono_degree(a: Mono) -> int:
    return sum(exp for _, exp in a)


def positive_support(a: Mono) -> frozenset[int]:
    """Support among the variables t1, t2, ... (t0 excluded)."""
    return frozenset(var for var, _ in a if var > 0)


def mono_str(a: Mono) -> str:
    if not a:
        return "1"
    parts = []
    for var, exp in a:
        parts.append(f"t{var}" if exp == 1 else f"t{var}^{exp}")
    return "*".join(parts)


def _mono_sort_key(a: Mono) -> tuple:
    # graded order: total degree first, then lexicographically largest
    # exponent vector (t0 weighs heaviest) prints first within a degree
    if not a:
        return (0, ())
    width = a[-1][0] + 1
    vec = [0] * width
    for var, exp in a:
        vec[var] = exp
    return (mono_degree(a), tuple(-e for e in vec))


class Polynomial:
    """Exact-rational sparse polynomial.

    >>> p = Polynomial.variable(1) + Polynomial.variable(2)
    >>> str(p * p)
    't1^2 + 2*t1*t2 + t2^2'
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, ScalarLike] | None = None):
        normalized: dict[Mono, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    normalized[mono] = c
        self.terms = normalized

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({MONO_ONE: 1})

    @classmethod
    def const(cls, c: ScalarLike) -> "Polynomial":
        return cls({MONO_ONE: Fraction(c)})

    @classmethod
    def variable(cls, index: int, exp: int = 1) -> "Polynomial":
        if index < 0:
            raise DomainError(f"negative variable index {index}")
        if exp < 0:
            raise DomainError(f"negative exponent {exp}")
        if exp == 0:
            return cls.one()
        return cls({((index, exp),): 1})

    @classmethod
    def monomial(cls, exps: Mapping[int, int], coeff: ScalarLike = 1) -> "Polynomial":
        return cls({mono_from_dict(exps): Fraction(coeff)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Maximal total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {mono_degree(m) for m in self.terms}
        return len(degrees) <= 1

    def variables(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.terms:
            out.update(var for var, _ in m)
        return frozenset(out)

    def coefficient(self, mono: Mono) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def items(self) -> Iterator[tuple[Mono, Fraction]]:
        return iter(self.terms.items())

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Polynomial | ScalarLike") -> "Polynomial":
        other = _coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = terms.get(mono)
            if c is None:
                terms[mono] = coeff
            else:
                c = c + coeff
                if c:
                    terms[mono] = c
                else:
                    del terms[mono]
        return _raw(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial | ScalarLike") -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Polynomial | ScalarLike") -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Polynomial | ScalarLike") -> "Polynomial":
        other = _coerce(other)
        if not self.terms or not other.terms:
            return Polynomial.zero()
        terms: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                c = terms.get(mono)
                c = c1 * c2 if c is None else c + c1 * c2
                if c:
                    terms[mono] = c
                elif mono in terms:
                    del terms[mono]
        return _raw(terms)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Polynomial":
        if exp < 0:
            raise DomainError("negative polynomial power")
        return _power(self, exp, Polynomial.__mul__)

    def scale(self, c: ScalarLike) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial.zero()
        return _raw({m: coeff * c for m, coeff in self.terms.items()})

    # -- substitutions ---------------------------------------------------

    def substitute_t0(self, replacement: "Polynomial") -> "Polynomial":
        """Replace every occurrence of t0 by the given polynomial."""
        powers: dict[int, Polynomial] = {0: Polynomial.one()}
        out = Polynomial.zero()
        for mono, coeff in self.terms.items():
            a0 = 0
            rest = mono
            if mono and mono[0][0] == 0:
                a0 = mono[0][1]
                rest = mono[1:]
            if a0 not in powers:
                p = powers[max(powers)]
                for k in range(max(powers) + 1, a0 + 1):
                    p = p * replacement
                    powers[k] = p
            out = out + powers[a0] * _raw({rest: coeff})
        return out

    def set_var_zero(self, index: int) -> "Polynomial":
        """Drop every term divisible by t_index (index >= 1)."""
        if index < 1:
            raise DomainError("set_var_zero applies to t1, t2, ... only")
        return _raw(
            {m: c for m, c in self.terms.items() if all(var != index for var, _ in m)}
        )

    def rename(self, mapping: Mapping[int, int]) -> "Polynomial":
        """Relabel variables t_i -> t_mapping[i]; indices not mapped stay put."""
        terms: dict[Mono, Fraction] = {}
        for mono, coeff in self.terms.items():
            new = mono_from_dict(
                _merge_exps((mapping.get(var, var), exp) for var, exp in mono)
            )
            c = terms.get(new)
            c = coeff if c is None else c + coeff
            if c:
                terms[new] = c
            elif new in terms:
                del terms[new]
        return _raw(terms)

    # -- comparison / display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


def _raw(terms: dict[Mono, Fraction]) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    p.terms = terms
    return p


def _power(
    base: Polynomial, exp: int, mul: Callable[[Polynomial, Polynomial], Polynomial]
) -> Polynomial:
    """Square and multiply, each product made by ``mul``."""
    result = Polynomial.one()
    while exp:
        if exp & 1:
            result = mul(result, base)
        base = mul(base, base) if exp > 1 else base
        exp >>= 1
    return result


def _coerce(value: "Polynomial | ScalarLike") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.const(value)


def _merge_exps(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    for var, exp in pairs:
        out[var] = out.get(var, 0) + exp
    return out


# ---------------------------------------------------------------------------
# Strictly increasing maps [1,n] -> [1,d]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncreasingMap:
    """A strictly increasing map [1,n] -> [1,d], stored by its value list."""

    values: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        prev = 0
        for v in self.values:
            if v <= prev:
                raise DomainError(f"values {self.values} are not strictly increasing")
            prev = v
        if prev > self.target:
            raise DomainError(f"value {prev} exceeds target size {self.target}")

    @property
    def source(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.values):
            raise DomainError(f"argument {i} outside [1,{len(self.values)}]")
        return self.values[i - 1]

    def image(self) -> frozenset[int]:
        return frozenset(self.values)


def enumerate_increasing_maps(n: int, d: int) -> list[IncreasingMap]:
    """All strictly increasing maps [1,n] -> [1,d] in lexicographic order.

    There are binomial(d, n) of them; for n = 0 the single empty map is
    returned, and for n > d the list is empty.
    """
    if n < 0 or d < 0:
        raise DomainError("sizes must be non-negative")
    return [IncreasingMap(vals, d) for vals in combinations(range(1, d + 1), n)]


def pushforward(alpha: IncreasingMap, p: Polynomial) -> Polynomial:
    """Rename t_i to t_alpha(i) for i >= 1; t0 and coefficients stay fixed."""
    n = alpha.source
    for var in p.variables():
        if var > n:
            raise DomainError(
                f"variable t{var} outside the source [1,{n}] of the map"
            )
    mapping = {i + 1: alpha.values[i] for i in range(n)}
    return p.rename(mapping)


def pullback(alpha: IncreasingMap, p: Polynomial) -> Polynomial:
    """Send t_alpha(j) to t_j and every other t_i (i >= 1) to zero."""
    d = alpha.target
    for var in p.variables():
        if var > d:
            raise DomainError(
                f"variable t{var} outside the target [1,{d}] of the map"
            )
    backward = {v: j + 1 for j, v in enumerate(alpha.values)}
    image = alpha.image()
    terms: dict[Mono, Fraction] = {}
    for mono, coeff in p.terms.items():
        if any(var > 0 and var not in image for var, _ in mono):
            continue
        new = tuple(
            sorted((backward.get(var, var), exp) for var, exp in mono)
        )
        c = terms.get(new)
        c = coeff if c is None else c + coeff
        if c:
            terms[new] = c
        elif new in terms:
            del terms[new]
    return _raw(terms)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_CHARS = set("+-*^/()")
# variable names are canonical: t0, t1, ..., never t01 or t007
_VARIABLE = re.compile(r"t(0|[1-9][0-9]*)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":  # str.isdigit also admits '²' and '٣'
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


# parentheses and unary minus nest at most this deep; each level costs a
# few Python frames, so the parser stays far below the recursion limit
MAX_NESTING = 100

# a product of two parsed factors, and each step of a power, pairs at most
# this many terms, checked before any pair is formed: 2^12 lets through a
# product of two dense degree-6 elements, and costs about 0.03 s (2-CPU
# Xeon VM, Fraction coefficients)
MAX_PRODUCT_PAIRS = 4096

# a parsed exponent is at most this, checked by its digits before int() or
# the power runs: it admits t1^4096, the widest sum a test parses, and
# 9^4096 has 3909 digits, below the interpreter's 4300-digit print limit
MAX_EXPONENT = 4096


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, where = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", where)

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, value, where = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", where)
        return p

    def expr(self) -> Polynomial:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.next()
            negate = value == "-"
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                q = self.term()
                p = p - q if value == "-" else p + q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                _, _, where = self.next()
                p = _bounded_product(p, self.factor(), where)
            else:
                return p

    def factor(self) -> Polynomial:
        p = self.atom()
        kind, value, where = self.peek()
        if kind == "op" and value == "^":
            self.next()
            kind, value, where = self.next()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", where)
            digits = value.lstrip("0")
            if len(digits) > len(str(MAX_EXPONENT)) or int(value) > MAX_EXPONENT:
                raise ParseError(f"exponent above the bound of {MAX_EXPONENT}", where)
            p = _power(p, int(value), lambda a, b: _bounded_product(a, b, where))
        return p

    def atom(self) -> Polynomial:
        kind, value, where = self.next()
        if kind == "op" and value in ("(", "-"):
            if self.depth == MAX_NESTING:
                raise ParseError("expression nested too deeply", where)
            self.depth += 1
            if value == "(":
                p = self.expr()
                self.expect_op(")")
            else:
                p = -self.atom()
            self.depth -= 1
            return p
        if kind == "int":
            numerator = int(value)
            kind, value, _ = self.peek()
            if kind == "op" and value == "/":
                self.next()
                kind, value, where = self.next()
                if kind != "int" or int(value) == 0:
                    raise ParseError("denominator must be a nonzero integer", where)
                return Polynomial.const(Fraction(numerator, int(value)))
            return Polynomial.const(numerator)
        if kind == "name":
            if not _VARIABLE.fullmatch(value):
                raise ParseError(f"unknown variable {value!r}", where)
            return Polynomial.variable(int(value[1:]))
        raise ParseError(f"unexpected {value!r}", where)


def _bounded_product(p: Polynomial, q: Polynomial, where: int) -> Polynomial:
    if len(p.terms) * len(q.terms) > MAX_PRODUCT_PAIRS:
        raise ParseError(
            f"product of {len(p.terms)} and {len(q.terms)} terms is above "
            f"the bound of {MAX_PRODUCT_PAIRS} term pairs",
            where,
        )
    return p * q


def parse_polynomial(text: str) -> Polynomial:
    """Parse an expression in t0, t1, ... with +, -, *, ^ and p/q literals."""
    return _Parser(text).parse()


def format_polynomial(p: Polynomial) -> str:
    """Canonical text: ascending total degree, graded-lexicographic inside."""
    if not p.terms:
        return "0"
    pieces: list[str] = []
    for index, (mono, coeff) in enumerate(p.sorted_terms()):
        sign = "-" if coeff < 0 else "+"
        magnitude = abs(coeff)
        if not mono:
            body = str(magnitude)
        elif magnitude == 1:
            body = mono_str(mono)
        else:
            body = f"{magnitude}*{mono_str(mono)}"
        if index == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)
