"""The extended cyclic operad over a pluggable coefficient base.

Arity one is the t0-extended ring itself, with the degree-raising
product as composition and the involution as the slot swap.  At arity
n >= 2 an element is a sum of terms (base class) tensor (n+1 slots of
t0-free family monomials).  Composition comes in four shapes:

* two arity-one elements compose through the degree-raising product;
* an arity-one element entering slot j of a bigger one multiplies the
  slot-j family by it (via the degree-raising product), substitutes t0
  by the base phi class of that slot, and re-inserts the result;
* entering slot 0 from the left works the same after twisting the
  arity-one argument by the involution;
* two big elements contract slot j against slot 0, keeping only the
  constant parts of those slots, while the base classes combine through
  the configured clutching map.

The family slots are all even, so no Koszul signs appear anywhere; the
permutation action moves slots and lets the config act on the base
class.

Every element is one sparse term map: at arity one the ring's keyed
terms (a, u), above it (base name, slot words).  Terms follow the
coefficient rule of RT0Element, through
``poly.add_term``/``nonzero_terms``: no zero coefficient is kept, and a
coefficient is an int when it is integral.  A slot holds the ring's word
u of the key (0, u) (the empty word is the unit slot), so slot products
are quasi-shuffles; slots are Monos only in the constructor and in
``_describe``.  The kernels read the base products straight from the
algebra's structure-constant table, so over the built-in bases every
step stays in int arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .base import AlgebraElement, BaseOperadConfig
from .poly import Coeff, Mono, add_term, mono_str, nonzero_terms
from .ring import (
    Word,
    _join_mono,
    _split_mono,
    interval_length,
    quasi_shuffle,
)
from .rt0 import (
    RT0Element,
    _psi1_power,
    class_constants,
    dot_mul,
    dot_power,
    iota,
    monomials_of_degree,
    odot,
    substitute_class,
)
from .superops import AxiomReport, cyclic_axiom_check

# the involution is hit with the same few arguments over and over when
# axiom suites run; elements are immutable, so caching is safe
_iota_cached = lru_cache(maxsize=4096)(iota)

MTKey = tuple[str, tuple[Word, ...]]


class MTildeElement:
    """An element of the extended operad at a fixed arity, held as one
    sparse term map.

    At arity one ``terms`` is the ring element's keyed terms (a, u); above
    arity one it maps (base name, slot words) to coefficients, and the
    constructor validates the slots and stores them as ring words."""

    __slots__ = ("arity", "terms", "_hash")

    def __init__(
        self,
        arity: int,
        terms: Mapping[tuple[str, tuple[Mono, ...]], Coeff] | None = None,
    ):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if arity == 1 and terms:
            raise ValueError("arity-1 elements carry a ring element")
        self.arity = arity
        normalized: dict[MTKey, Coeff] = {}
        if terms:
            for (name, monos), coeff in terms.items():
                if len(monos) != arity + 1:
                    raise ValueError(
                        f"expected {arity + 1} slots, got {len(monos)}"
                    )
                for mono in monos:
                    if interval_length(mono) is None or not all(var and e for var, e in mono):
                        raise ValueError(f"invalid slot monomial {mono}")
                words = tuple(_split_mono(mono)[1] for mono in monos)
                normalized[(name, words)] = Fraction(coeff)
        self.terms = nonzero_terms(normalized)

    @classmethod
    def from_rt0(cls, x: RT0Element) -> "MTildeElement":
        return cls._raw(1, x.terms)

    @property
    def rt0(self) -> RT0Element:
        """The arity-one element as a ring element."""
        return RT0Element._raw(self.terms)

    @classmethod
    def zero(cls, arity: int) -> "MTildeElement":
        return cls(arity)

    @classmethod
    def unit_tensor(cls, arity: int, base: BaseOperadConfig) -> "MTildeElement":
        """The base unit with every slot equal to one."""
        algebra = base.algebra(arity)
        key = (algebra.unit, ((),) * (arity + 1))
        return cls._raw(arity, {key: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MTildeElement") -> "MTildeElement":
        if self.arity != other.arity:
            raise ValueError("arities differ")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return MTildeElement._raw(self.arity, nonzero_terms(out))

    def __sub__(self, other: "MTildeElement") -> "MTildeElement":
        return self + other.scale(-1)

    def scale(self, c: Coeff) -> "MTildeElement":
        c = Fraction(c)
        return MTildeElement._raw(
            self.arity, nonzero_terms({k: v * c for k, v in self.terms.items()})
        )

    @classmethod
    def _raw(cls, arity: int, terms: dict) -> "MTildeElement":
        """Wrap terms under the rule of poly.nonzero_terms (no zeros,
        integral coefficients as int)."""
        elt = cls.__new__(cls)
        elt.arity = arity
        elt.terms = terms
        return elt

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MTildeElement):
            return self.arity == other.arity and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((self.arity, frozenset(self.terms.items())))
            self._hash = cached
        return cached

    def __repr__(self) -> str:
        return f"MTildeElement({self.arity}, {len(self.terms)} terms)"


def mt_mul(
    x: MTildeElement, y: MTildeElement, base: BaseOperadConfig
) -> MTildeElement:
    """Slotwise family product combined with the base-class product."""
    if x.arity != y.arity:
        raise ValueError("arities differ")
    if x.arity == 1:
        return MTildeElement.from_rt0(dot_mul(x.rt0, y.rt0))
    table = base.algebra(x.arity).table
    out: dict[MTKey, Coeff] = {}
    memo: dict = {}
    for (name_x, words_x), cx in x.terms.items():
        for (name_y, words_y), cy in y.terms.items():
            base_part = table.get((name_x, name_y))
            if not base_part:
                continue
            expansions: list[tuple[tuple[Word, ...], Coeff]] = [((), cx * cy)]
            for u, v in zip(words_x, words_y):
                expansions = [
                    (words_acc + (w,), coeff_acc * mult)
                    for w, mult in quasi_shuffle(u, v, memo).items()
                    for words_acc, coeff_acc in expansions
                ]
            for bname, cb in base_part.items():
                for words_acc, coeff_acc in expansions:
                    add_term(out, (bname, words_acc), coeff_acc * cb)
    return MTildeElement._raw(x.arity, out)


def mt_power(
    x: MTildeElement, exp: int, base: BaseOperadConfig
) -> MTildeElement:
    if exp < 0:
        raise ValueError("negative power")
    if x.arity == 1:
        return MTildeElement.from_rt0(dot_power(x.rt0, exp))
    out = MTildeElement.unit_tensor(x.arity, base)
    for _ in range(exp):
        out = mt_mul(out, x, base)
    return out


def _slot_insert(
    base: BaseOperadConfig,
    arity: int,
    slot: int,
    slot_word: Word,
    argument: RT0Element,
) -> list[tuple[str, Word, Coeff]]:
    """Multiply a slot by an arity-one argument and substitute t0 by the
    slot's phi class; returns (base name, slot word, coeff) triples.
    Memoised on the config, keyed by the exact inputs."""
    cache = getattr(base, "_slot_insert_cache", None)
    if cache is None:
        cache = {}
        base._slot_insert_cache = cache
    key = (arity, slot, slot_word, argument)
    cached = cache.get(key)
    if cached is None:
        algebra = base.algebra(arity)
        product = odot(RT0Element._raw({(0, slot_word): 1}), argument)
        substituted = substitute_class(product, base.phi(arity, slot), algebra)
        cached = [
            (name, u, coeff)
            for name, h in substituted.items()
            for (_, u), coeff in h.terms.items()
        ]
        cache[key] = cached
    return cached


def compose(
    x: MTildeElement, y: MTildeElement, j: int, base: BaseOperadConfig
) -> MTildeElement:
    """Operadic composition; the shape depends on which arities meet."""
    m, n = x.arity, y.arity
    if not 1 <= j <= m:
        raise ValueError(f"slot {j} outside [1,{m}]")
    if m == 1 and n == 1:
        return MTildeElement.from_rt0(odot(x.rt0, y.rt0))
    out: dict[MTKey, Coeff] = {}
    if m == 1 or n == 1:
        # an arity-one element enters slot j of x, or slot 0 of y twisted
        # by the involution (m == 1 forces j == 1)
        big, slot, argument = (
            (x, j, y.rt0) if n == 1 else (y, 0, _iota_cached(x.rt0))
        )
        table = base.algebra(big.arity).table
        for (name, words), c in big.terms.items():
            for pname, u, coeff in _slot_insert(base, big.arity, slot, words[slot], argument):
                new_words = words[:slot] + (u,) + words[slot + 1 :]
                for bname, cb in table.get((name, pname), {}).items():
                    add_term(out, (bname, new_words), c * coeff * cb)
        return MTildeElement._raw(big.arity, out)
    # both arities >= 2: unsigned contraction of slot j against slot 0,
    # where both are the unit slot; the bases combine by the clutching
    for (name_x, words_x), cx in x.terms.items():
        if words_x[j]:
            continue
        for (name_y, words_y), cy in y.terms.items():
            if words_y[0]:
                continue
            clutched = base.clutch(m, n, j, {name_x: 1}, {name_y: 1})
            new_words = words_x[:j] + words_y[1:] + words_x[j + 1 :]
            for bname, cb in clutched.items():
                add_term(out, (bname, new_words), cx * cy * cb)
    return MTildeElement._raw(m + n - 1, out)


def act(
    perm: tuple[int, ...], x: MTildeElement, base: BaseOperadConfig
) -> MTildeElement:
    """Slot permutation; at arity one the only non-trivial move is the
    involution, above that the base class is acted on by the config."""
    n = x.arity
    if sorted(perm) != list(range(n + 1)):
        raise ValueError(f"{perm} is not a permutation of 0..{n}")
    if n == 1:
        return x if perm == (0, 1) else MTildeElement.from_rt0(_iota_cached(x.rt0))
    inverse = [0] * (n + 1)
    for i, value in enumerate(perm):
        inverse[value] = i
    out: dict[MTKey, Coeff] = {}
    for (name, words), c in x.terms.items():
        new_words = tuple(words[inverse[i]] for i in range(n + 1))
        for bname, cb in base.act(n, perm, {name: 1}).items():
            add_term(out, (bname, new_words), c * cb)
    return MTildeElement._raw(n, out)


def psi_phi_classes(
    n: int, slot: int, base: BaseOperadConfig
) -> tuple[MTildeElement, MTildeElement]:
    """The degree-one psi and phi classes of the given slot; they differ
    by the class that puts t1 into the slot."""
    if n == 1:
        constants = class_constants()
        if slot == 0:
            pair = (constants.psi0, constants.phi0)
        elif slot == 1:
            pair = (constants.psi1, constants.phi1)
        else:
            raise ValueError("arity-one elements have slots 0 and 1")
        return (
            MTildeElement.from_rt0(pair[0]),
            MTildeElement.from_rt0(pair[1]),
        )
    if not 0 <= slot <= n:
        raise ValueError(f"slot {slot} outside 0..{n}")
    ones = ((),) * (n + 1)
    phi_tilde = MTildeElement._raw(
        n, nonzero_terms({(name, ones): c for name, c in base.phi(n, slot).items()})
    )
    t1_slot = ones[:slot] + ((1,),) + ones[slot + 1 :]
    t1_tilde = MTildeElement._raw(n, {(base.algebra(n).unit, t1_slot): 1})
    return phi_tilde + t1_tilde, phi_tilde


def morphism_F(
    xi: AlgebraElement, n: int, base: BaseOperadConfig
) -> MTildeElement:
    """Inclusion of a bare base class with all slots set to one; at arity
    one the map is zero."""
    if n == 1:
        return MTildeElement.zero(1)
    base.algebra(n).check_names(xi)
    ones = ((),) * (n + 1)
    return MTildeElement._raw(
        n, nonzero_terms({(name, ones): Fraction(c) for name, c in xi.items()})
    )


def important_b_check(
    n: int,
    d: tuple[int, ...],
    e: tuple[int, ...],
    j: int,
    base: BaseOperadConfig,
) -> bool:
    """Trade one psi power in slot j for a phi power plus a composition
    with a power of the degree-one slot-1 class of the two-slot theory.

    Exact comparison of both sides over the supplied base."""
    if len(d) != n + 1 or len(e) != n + 1:
        raise ValueError("exponent tuples must cover slots 0..n")
    if not (1 <= j <= n and d[j] >= 1):
        raise ValueError("slot j must carry a positive psi exponent")
    classes = [psi_phi_classes(n, i, base) for i in range(n + 1)]
    # the three products below share most of their factors
    powers: dict[tuple[int, int, int], MTildeElement] = {}

    def product(dd: tuple[int, ...], ee: tuple[int, ...]) -> MTildeElement:
        acc = MTildeElement.unit_tensor(n, base)
        for i in range(n + 1):
            for kind, exp in ((0, dd[i]), (1, ee[i])):
                if not exp:
                    continue
                factor = powers.get((i, kind, exp))
                if factor is None:
                    factor = mt_power(classes[i][kind], exp, base)
                    powers[i, kind, exp] = factor
                acc = mt_mul(acc, factor, base)
        return acc

    lhs = product(d, e)
    d_shift = tuple(di - (1 if i == j else 0) for i, di in enumerate(d))
    e_shift = tuple(ei + (1 if i == j else 0) for i, ei in enumerate(e))
    rhs = product(d_shift, e_shift)
    d_rest = tuple(0 if i == j else di for i, di in enumerate(d))
    rest = product(d_rest, e)
    argument = MTildeElement.from_rt0(_psi1_power(d[j] - 1))
    rhs = rhs + compose(rest, argument, j, base)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Axiom suite over a base
# ---------------------------------------------------------------------------


def _t0_free_words_upto(max_degree: int) -> list[Word]:
    """The slot words of degree <= max_degree, in monomial order."""
    keys = (
        _split_mono(mono)
        for degree in range(max_degree + 1)
        for mono in monomials_of_degree(degree)
    )
    return [u for a, u in keys if not a]


def _slot_tuples(
    slots: int, max_degree: int, words: list[Word]
) -> list[tuple[Word, ...]]:
    out: list[tuple[Word, ...]] = [()]
    for _ in range(slots):
        grown = []
        for acc in out:
            used = sum(map(sum, acc))
            for u in words:
                if used + sum(u) <= max_degree:
                    grown.append(acc + (u,))
        out = grown
    return out


def spanning_elements(
    arity: int, base: BaseOperadConfig, max_degree: int
) -> list[MTildeElement]:
    """A spanning family within the degree bound: at arity one, all
    monomials of the t0-ring; above, every base basis class tensored with
    every slot tuple of bounded total degree."""
    if arity == 1:
        return [
            MTildeElement._raw(1, {_split_mono(mono): 1})
            for degree in range(max_degree + 1)
            for mono in monomials_of_degree(degree)
        ]
    tuples = _slot_tuples(arity + 1, max_degree, _t0_free_words_upto(max_degree))
    return [
        MTildeElement._raw(arity, {(name, words): 1})
        for name in base.algebra(arity).basis
        for words in tuples
    ]


def _describe(x: MTildeElement) -> str:
    if x.arity == 1:
        return str(x.rt0)
    parts = []
    for (name, words), c in sorted(x.terms.items()):
        slots = ",".join(mono_str(_join_mono(0, u)) for u in words)
        parts.append(f"{c}*{name}({slots})")
    return " + ".join(parts) if parts else "0"


def operad_axiom_check(
    base: BaseOperadConfig, max_arity: int = 3, max_degree: int = 2
) -> dict[str, AxiomReport]:
    """Verify the four cyclic-operad axioms over the given base on
    spanning sets of bounded slot degree, through
    :func:`tring.superops.cyclic_axiom_check`; the family slots are even
    so all four axioms are sign-free here, and every composition forms.

    Every element the checks see is hash-consed (Filliatre-Conchon,
    "Type-safe modular hash-consing", 2006): the run keeps one object per
    value, so the memos are keyed by identity and the two sides of an
    axiom are equal exactly when they are the same object.  The table
    keeps every object alive for the run, so no id() is reused.  The memo
    callbacks look ``compose`` and ``act`` up in this module per call."""
    interned: dict[MTildeElement, MTildeElement] = {}

    def intern(x: MTildeElement) -> MTildeElement:
        return interned.setdefault(x, x)

    spanning = {
        arity: [intern(x) for x in spanning_elements(arity, base, max_degree)]
        for arity in range(1, max_arity + 1)
    }

    compose_cache: dict[tuple[int, int, int], MTildeElement] = {}
    act_cache: dict[tuple[tuple[int, ...], int], MTildeElement] = {}

    def ccompose(x: MTildeElement, y: MTildeElement, j: int) -> MTildeElement:
        key = (id(x), id(y), j)
        result = compose_cache.get(key)
        if result is None:
            result = compose_cache[key] = intern(compose(x, y, j, base))
        return result

    def cact(perm: tuple[int, ...], x: MTildeElement) -> MTildeElement:
        key = (perm, id(x))
        result = act_cache.get(key)
        if result is None:
            result = act_cache[key] = intern(act(perm, x, base))
        return result

    return cyclic_axiom_check(max_arity, spanning, ccompose, cact, _describe)
