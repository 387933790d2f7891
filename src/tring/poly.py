"""Sparse multivariate polynomials over Q in variables t0, t1, t2, ...

Variables are indexed by non-negative integers; index 0 is the
distinguished variable t0, the higher indices form the "interval"
variables t1, t2, ... that the strictly increasing maps act on.

A monomial is stored as a tuple of (variable, exponent) pairs, sorted by
variable index, with every stored exponent positive.  A polynomial is a
mapping from monomials to nonzero coefficients.  All values are
immutable after construction and safe to share between threads.

Every sparse term map of the package, Polynomial included, keeps one
coefficient rule: no zero term, and a coefficient is an int when it is
integral and a Fraction only where a denominator appears.  Its one home
is here, at the bottom of the import graph: nonzero_terms and add_term
(with integral, the form the product kernels add in).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, TypeVar, Union

Mono = tuple[tuple[int, int], ...]

ScalarLike = Union[Fraction, int]
Coeff = int | Fraction
K = TypeVar("K")

MONO_ONE: Mono = ()


def nonzero_terms(acc: Mapping[K, Coeff], denominator: int = 1) -> dict[K, Coeff]:
    """The nonzero terms of acc / denominator, an integral coefficient as
    an int.

    With add_term, the one home of the coefficient rule of every sparse
    term map.  This is the one pass over a large map that a product has
    filled with plain sums.  A denominator other than 1 comes from
    integral: acc then holds int numerators, and each term costs one
    division."""
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
    for sums term by term, where a final pass would cost more than it
    saves."""
    if not c:
        return
    s = acc.get(key)
    if s is not None:
        # a new key costs no addition, which for a Fraction is a gcd
        c += s
        if not c:
            del acc[key]
            return
    acc[key] = c.numerator if c.denominator == 1 else c


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
    return "*".join([f"t{var}" if exp == 1 else f"t{var}^{exp}" for var, exp in a])


def _mono_sort_key(a: Mono) -> tuple[int, list[tuple[int, int]]]:
    # graded order: total degree first, then lexicographically largest
    # exponent vector (t0 weighs heaviest) prints first within a degree;
    # the (var, -exp) pairs order the vectors of one degree that way
    degree = 0
    pairs = []
    for var, exp in a:
        degree += exp
        pairs.append((var, -exp))
    return degree, pairs


class Polynomial:
    """Exact-rational sparse polynomial; its terms follow nonzero_terms.

    >>> p = Polynomial.variable(1) + Polynomial.variable(2)
    >>> str(p * p)
    't1^2 + 2*t1*t2 + t2^2'
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, ScalarLike] | None = None):
        self.terms: dict[Mono, Coeff] = nonzero_terms(
            {mono: Fraction(c) for mono, c in (terms or {}).items()}
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({MONO_ONE: 1})

    @classmethod
    def const(cls, c: ScalarLike) -> "Polynomial":
        return cls({MONO_ONE: c})

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
        return cls({mono_from_dict(exps): coeff})

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

    def coefficient(self, mono: Mono) -> Coeff:
        return self.terms.get(mono, 0)

    def items(self) -> Iterator[tuple[Mono, Coeff]]:
        return iter(self.terms.items())

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Polynomial | ScalarLike") -> "Polynomial":
        other = _coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            add_term(terms, mono, coeff)
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
        terms: dict[Mono, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return _raw(nonzero_terms(terms))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Polynomial":
        if exp < 0:
            raise DomainError("negative polynomial power")
        return _power(self, exp, Polynomial.__mul__)

    def scale(self, c: ScalarLike) -> "Polynomial":
        c = Fraction(c)
        return _raw(nonzero_terms({m: coeff * c for m, coeff in self.terms.items()}))

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
        terms: dict[Mono, Coeff] = {}
        for mono, coeff in self.terms.items():
            new = mono_from_dict(
                _merge_exps((mapping.get(var, var), exp) for var, exp in mono)
            )
            add_term(terms, new, coeff)
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


def _raw(terms: dict[Mono, Coeff]) -> Polynomial:
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


class IncreasingMap:
    """A strictly increasing map [1,n] -> [1,d], stored by its value list.

    Immutable, and equal and hashed by (values, target)."""

    __slots__ = ("values", "target")

    def __init__(self, values: tuple[int, ...], target: int) -> None:
        prev = 0
        for v in values:
            if v <= prev:
                raise DomainError(f"values {values} are not strictly increasing")
            prev = v
        if prev > target:
            raise DomainError(f"value {prev} exceeds target size {target}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "target", target)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.values, self.target) == (other.values, other.target)

    def __hash__(self) -> int:
        return hash((self.values, self.target))

    def __repr__(self) -> str:
        return f"IncreasingMap(values={self.values!r}, target={self.target!r})"

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
    terms: dict[Mono, Coeff] = {}
    for mono, coeff in p.terms.items():
        if any(var > 0 and var not in image for var, _ in mono):
            continue
        new = tuple(
            sorted((backward.get(var, var), exp) for var, exp in mono)
        )
        add_term(terms, new, coeff)
    return _raw(terms)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# One token, read where the text asks for one: its blanks (\s is exactly
# str.isspace), then an operator, a number of ASCII digits (str.isdigit
# also admits '²' and '٣'), a name (\w is exactly str.isalnum or "_"; the
# first character must be a letter, which _Parser.scan checks with
# str.isalpha), any other character, which is unexpected, or the end.
_TOKEN = re.compile(r"\s*(?:([-+*^/()])|([0-9]+)|(\w+)|(.))?", re.S)
_KINDS = (None, "op", "int", "name")

# variable names are canonical: t0, t1, ..., never t01 or t007
_VARIABLE = re.compile(r"t(0|[1-9][0-9]*)")

# A simple term: an optional integer or p/q coefficient, then t<i> factors,
# each with an optional exponent of at most four digits, joined by "*";
# the term ends at "+", "-", ")" or the end of the text.  A match leaves
# out no check: the denominator and the exponent bound are checked on the
# match (_simple_term), and every other term is read by the descent.
_POWER = r"t(?:0|[1-9][0-9]*)(?!\w)(?:\s*\^\s*[0-9]{1,4})?"
_POWERS = rf"{_POWER}(?:\s*\*\s*{_POWER})*"
_SIMPLE_TERM = re.compile(
    rf"\s*(?:([0-9]+)(?:\s*/\s*([0-9]+))?(?:\s*\*\s*({_POWERS}))?|({_POWERS}))"
    r"\s*(?=[-+)]|\Z)"
)
_FACTOR = re.compile(r"t([0-9]+)(?:\s*\^\s*([0-9]+))?")


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


def _simple_term(m: re.Match) -> tuple[Mono, Coeff] | None:
    """The (monomial, coefficient) pair of a simple term, or None where its
    denominator is 0 or an exponent is above MAX_EXPONENT: the descent
    then reads the term again and reports the error.  Numbers are
    converted in the order the descent converts them."""
    numerator, denominator, powers, bare = m.groups()
    c: Coeff = 1
    if numerator is not None:
        c = int(numerator)
        if denominator is not None:
            d = int(denominator)
            if not d:
                return None
            c = Fraction(c, d)
    exps: dict[int, int] = {}
    for var, k in _FACTOR.findall(powers or bare or ""):
        var = int(var)
        k = int(k) if k else 1
        if k > MAX_EXPONENT:
            return None
        if k:
            exps[var] = exps.get(var, 0) + k
    return tuple(sorted(exps.items())), c


class _Parser:
    """Reads the text by position.  At each term of a sum, _SIMPLE_TERM
    reads a simple term in one match, the one fast path; every other term
    is read by the recursive descent, which scans its tokens one at a
    time, each as the lookahead ``tok`` (kind, value, position) ending at
    ``end``.  The descent builds a Polynomial per factor and multiplies
    the factors of a term left to right through _bounded_product."""

    def __init__(self, text: str):
        self.text = text
        self.depth = 0
        self.scan(0)

    def scan(self, pos: int) -> None:
        """Make the token at pos the lookahead."""
        m = _TOKEN.match(self.text, pos)
        group = m.lastindex
        if group is None:
            self.tok = ("end", "", m.end())
        else:
            where = m.start(group)
            if group == 4 or (group == 3 and not self.text[where].isalpha()):
                raise ParseError(f"unexpected character {self.text[where]!r}", where)
            self.tok = (_KINDS[group], m.group(group), where)
        self.end = m.end()

    def scan_rest(self) -> None:
        """Scan the tokens after the lookahead, raising at an unexpected
        character: one anywhere in the text outranks an error that the
        parse met before it."""
        while self.tok[0] != "end":
            self.next()

    def next(self) -> tuple[str, str, int]:
        tok = self.tok
        self.scan(self.end)
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, value, where = self.tok
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", where)
        return p

    def expr(self) -> Polynomial:
        # one dict per sum; each term is added straight into it
        acc: dict[Mono, Coeff] = {}
        text = self.text
        kind, value, pos = self.tok
        negate = False
        if kind == "op" and value in "+-":
            pos = self.end
            negate = value == "-"
        while True:
            m = _SIMPLE_TERM.match(text, pos)
            pair = m and _simple_term(m)
            if pair:
                add_term(acc, pair[0], -pair[1] if negate else pair[1])
                pos = m.end()
                sign = text[pos : pos + 1]
                if sign == "+" or sign == "-":
                    pos += 1
                    negate = sign == "-"
                    continue
                self.scan(pos)
                return _raw(acc)
            self.scan(pos)
            for mono, c in self.term().terms.items():
                add_term(acc, mono, -c if negate else c)
            kind, value, _ = self.tok
            if kind != "op" or value not in "+-":
                return _raw(acc)
            pos = self.end
            negate = value == "-"

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, value, where = self.tok
            if kind != "op" or value != "*":
                return p
            self.next()
            p = _bounded_product(p, self.factor(), where)

    def factor(self) -> Polynomial:
        p = self.atom()
        kind, value, where = self.tok
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
                kind, value, where = self.next()
                if kind != "op" or value != ")":
                    raise ParseError("expected ')'", where)
            else:
                p = -self.atom()
            self.depth -= 1
            return p
        if kind == "int":
            c: Coeff = int(value)
            kind, value, _ = self.tok
            if kind == "op" and value == "/":
                self.next()
                kind, value, where = self.next()
                if kind != "int" or int(value) == 0:
                    raise ParseError("denominator must be a nonzero integer", where)
                c = Fraction(c, int(value))
            return Polynomial.const(c)
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
    parser = _Parser(text)
    try:
        return parser.parse()
    except ValueError as err:
        error = err
    parser.scan_rest()
    raise error


def format_polynomial(p: Polynomial) -> str:
    """Canonical text: ascending total degree, graded-lexicographic inside."""
    if not p.terms:
        return "0"
    pieces: list[str] = []
    for mono in sorted(p.terms, key=_mono_sort_key):
        coeff = str(p.terms[mono])
        if coeff[0] == "-":
            pieces.append(" - ")
            coeff = coeff[1:]
        else:
            pieces.append(" + ")
        if not mono:
            pieces.append(coeff)
        elif coeff == "1":
            pieces.append(mono_str(mono))
        else:
            pieces.append(f"{coeff}*{mono_str(mono)}")
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)
