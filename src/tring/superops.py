"""The endomorphism cyclic operad of a Z/2-graded module with an even
super-symmetric pairing.

Tensors over a finite named basis compose by contracting one slot
against slot zero of the other factor, with a Koszul sign; permutations
act through adjacent transpositions, each contributing the sign of the
two parities it swaps.  The checker functions enumerate basis tensors
exhaustively within small bounds, so they double as the test suite for
the four cyclic-operad axioms and for the pairing/composition exchange
identity.

The four axioms are written once, in :func:`cyclic_axiom_check`, for any
operad given as elements per arity with callbacks that compose, act on
and describe them; a composition that cannot be formed is None, and its
case fails.  :func:`es_axiom_check` is the adapter for this operad and
:func:`tring.mtilde.operad_axiom_check` the one for the extended operad.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from itertools import product as iter_product
from operator import xor
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .linalg import solve_exact
from .poly import Coeff, nonzero_terms

Vector = tuple[Fraction, ...]
BasisTuple = tuple[int, ...]


class PairingError(ValueError):
    """The bilinear form violates evenness, symmetry, or nondegeneracy."""


class _SuffixParities(dict):
    """Koszul parities per basis tuple, filled on first lookup: entry k of
    ``table[t]`` is the parity of ``t[k:]``, so entry 0 is that of ``t``."""

    def __init__(self, parity: tuple[int, ...]):
        super().__init__()
        self.parity = parity

    def __missing__(self, key: BasisTuple) -> tuple[int, ...]:
        parities = (self.parity[i] for i in reversed(key))
        value = self[key] = tuple(accumulate(parities, xor, initial=0))[::-1]
        return value


class SuperSpace:
    """A finite Z/2-graded module with an even super-symmetric pairing."""

    def __init__(
        self,
        names: Sequence[str],
        parity: Sequence[int],
        pairing: Sequence[Sequence[Fraction | int]],
    ):
        if len(names) != len(parity) or len(names) != len(pairing):
            raise PairingError("names, parities, and pairing sizes differ")
        self.names = tuple(names)
        self.parity = tuple(int(p) % 2 for p in parity)
        self.dim = len(self.names)
        if any(len(row) != self.dim for row in pairing):
            raise PairingError("pairing matrix is not square")
        # the entries follow the rule of nonzero_terms, so over the
        # built-in spaces (every entry 0 or +-1) the kernels multiply ints
        self.pairing: tuple[tuple[Coeff, ...], ...] = tuple(
            tuple(e.numerator if e.denominator == 1 else e for e in map(Fraction, row))
            for row in pairing
        )
        # filled by the Koszul signs of the compositions on this space
        self._suffix_parity = _SuffixParities(self.parity)
        for i in range(self.dim):
            for j in range(self.dim):
                value = self.pairing[i][j]
                if self.parity[i] != self.parity[j] and value:
                    raise PairingError(
                        f"pairing of {self.names[i]} and {self.names[j]} "
                        "must vanish across parities"
                    )
                sign = -1 if self.parity[i] and self.parity[j] else 1
                if value != sign * self.pairing[j][i]:
                    raise PairingError(
                        "pairing is not super-symmetric at "
                        f"({self.names[i]}, {self.names[j]})"
                    )

    def b(self, i: int, j: int) -> Coeff:
        return self.pairing[i][j]

    def dual_pair(self) -> "DualBasisPair":
        """Primal = standard basis; dual solves b(e_i, d_j) = delta_ij."""
        identity = [
            [Fraction(1) if i == j else Fraction(0) for j in range(self.dim)]
            for i in range(self.dim)
        ]
        columns = []
        matrix = [list(row) for row in self.pairing]
        for j in range(self.dim):
            rhs = [identity[i][j] for i in range(self.dim)]
            column = solve_exact(matrix, rhs)
            if column is None:
                raise PairingError("pairing matrix is singular")
            columns.append(tuple(column))
        primal = tuple(
            tuple(Fraction(1) if k == i else Fraction(0) for k in range(self.dim))
            for i in range(self.dim)
        )
        return DualBasisPair(space=self, primal=primal, dual=tuple(columns))


@dataclass(frozen=True)
class DualBasisPair:
    """Paired families with b(primal_i, dual_j) = delta_ij, all homogeneous."""

    space: SuperSpace
    primal: tuple[Vector, ...]
    dual: tuple[Vector, ...]

    def __post_init__(self) -> None:
        for family in (self.primal, self.dual):
            for vec in family:
                parities = {
                    self.space.parity[k] for k, c in enumerate(vec) if c
                }
                if len(parities) > 1:
                    raise PairingError("dual-pair vectors must be homogeneous")
        for i, prim in enumerate(self.primal):
            for j, dual in enumerate(self.dual):
                value = sum(
                    (
                        prim[a] * self.space.b(a, b) * dual[b]
                        for a in range(self.space.dim)
                        for b in range(self.space.dim)
                    ),
                    Fraction(0),
                )
                if value != (1 if i == j else 0):
                    raise PairingError(
                        f"pairing of primal {i} with dual {j} is {value}"
                    )

    def parity_of(self, index: int) -> int:
        vec = self.primal[index]
        for k, c in enumerate(vec):
            if c:
                return self.space.parity[k]
        return 0


class SuperTensor:
    """A finite sum of decomposable basis tensors of a fixed width; the
    coefficients follow the rule of ``poly.nonzero_terms``."""

    __slots__ = ("slots", "coeffs")

    def __init__(self, slots: int, coeffs: Mapping[BasisTuple, Fraction | int] | None = None):
        if slots < 2:
            raise ValueError("tensors need at least two slots")
        coeffs = coeffs or {}
        for key in coeffs:
            if len(key) != slots:
                raise ValueError(f"tuple {key} does not have {slots} entries")
        self.slots = slots
        self.coeffs: dict[BasisTuple, Coeff] = nonzero_terms(
            {key: Fraction(value) for key, value in coeffs.items()}
        )

    @classmethod
    def basis(cls, key: BasisTuple) -> "SuperTensor":
        return cls(len(key), {key: 1})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SuperTensor):
            return self.slots == other.slots and self.coeffs == other.coeffs
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_even(self, space: SuperSpace) -> bool:
        return all(
            sum(space.parity[i] for i in key) % 2 == 0 for key in self.coeffs
        )

    def __repr__(self) -> str:
        return f"SuperTensor({self.slots}, {self.coeffs!r})"


# -- raw kernels on basis tuples ---------------------------------------------


def _compose_raw(
    space: SuperSpace, v: BasisTuple, w: BasisTuple, j: int
) -> tuple[int | Fraction, BasisTuple] | None:
    # the Koszul sign takes two lookups in the space's per-tuple parity table
    factor = space.pairing[v[j]][w[0]]
    if not factor:
        return None
    suffix = space._suffix_parity
    if suffix[v][j + 1] and suffix[w][0]:
        factor = -factor
    return factor, v[:j] + w[1:] + v[j + 1 :]


def _perm_word(perm: BasisTuple) -> tuple[int, ...]:
    """Adjacent-transposition word for a one-line permutation, found by
    bubble sorting; applying the recorded swaps in order realises the
    permutation as a left action."""
    line = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for j in range(len(line) - 1):
            if line[j] > line[j + 1]:
                line[j], line[j + 1] = line[j + 1], line[j]
                word.append(j)
                changed = True
    return tuple(word)


def _permute_raw(
    space: SuperSpace, word: Iterable[int], t: BasisTuple
) -> tuple[int, BasisTuple]:
    parity = space.parity
    sign = 1
    entries = list(t)
    for j in word:
        if parity[entries[j]] and parity[entries[j + 1]]:
            sign = -sign
        entries[j], entries[j + 1] = entries[j + 1], entries[j]
    return sign, tuple(entries)


def _pair_raw(
    space: SuperSpace, v: BasisTuple, a: BasisTuple
) -> int | Fraction:
    parity = space.parity
    pairing = space.pairing
    value = 1
    seen = 0
    sign_exp = 0
    for x, y in zip(v, a):
        factor = pairing[x][y]
        if not factor:
            return 0
        value *= factor
        sign_exp += parity[x] * seen
        seen += parity[y]
    return -value if sign_exp & 1 else value


# -- public operations ---------------------------------------------------------


def es_compose(space: SuperSpace, v: SuperTensor, w: SuperTensor, j: int) -> SuperTensor:
    """Contract slot j of v against slot 0 of w with the Koszul sign."""
    m = v.slots - 1
    if not 1 <= j <= m:
        raise ValueError(f"slot {j} outside [1,{m}]")
    out: dict[BasisTuple, Coeff] = {}
    for vt, cv in v.coeffs.items():
        for wt, cw in w.coeffs.items():
            contracted = _compose_raw(space, vt, wt, j)
            if contracted is not None:
                factor, key = contracted
                out[key] = out.get(key, 0) + cv * cw * factor
    return SuperTensor(v.slots + w.slots - 2, out)


def es_permute(space: SuperSpace, perm: BasisTuple, v: SuperTensor) -> SuperTensor:
    """Left action of a permutation of the slots, with Koszul signs."""
    if sorted(perm) != list(range(v.slots)):
        raise ValueError(f"{perm} is not a permutation of 0..{v.slots - 1}")
    word = _perm_word(perm)
    out: dict[BasisTuple, Coeff] = {}
    for key, coeff in v.coeffs.items():
        sign, image = _permute_raw(space, word, key)
        out[image] = out.get(image, 0) + coeff * sign
    return SuperTensor(v.slots, out)


def pair(space: SuperSpace, v: SuperTensor, alpha: SuperTensor) -> Coeff:
    """Slotwise pairing with the reordering sign."""
    if v.slots != alpha.slots:
        raise ValueError("widths differ")
    total: Coeff = 0
    for vt, cv in v.coeffs.items():
        for at, ca in alpha.coeffs.items():
            total += cv * ca * _pair_raw(space, vt, at)
    return total


def compose_permutations(
    pi: BasisTuple, rho: BasisTuple, j: int, m: int, n: int
) -> BasisTuple:
    """The permutation the composition axiom pairs with composing at j.

    pi permutes {0..m} fixing 0 and rho permutes {0..n} fixing 0; the
    result permutes {0..m+n-1}.  Built from the explicit description of
    its inverse on the index blocks around pi(j)."""
    upper: dict[int, int] = {}
    for s in range(1, m + 1):
        if s < j:
            upper[s] = s
        elif s > j:
            upper[s] = s + n - 1
    inner = [0] * (n + 1)
    for t in range(1, n + 1):
        inner[t] = j + t - 1
    pi_inv = [0] * (m + 1)
    for i, value in enumerate(pi):
        pi_inv[value] = i
    rho_inv = [0] * (n + 1)
    for i, value in enumerate(rho):
        rho_inv[value] = i
    pij = pi[j]
    inverse = [0] * (m + n)
    for i in range(1, m + n):
        if i <= pij - 1:
            inverse[i] = upper[pi_inv[i]]
        elif i <= pij + n - 1:
            inverse[i] = inner[rho_inv[i - pij + 1]]
        else:
            inverse[i] = upper[pi_inv[i - n + 1]]
    sigma = [0] * (m + n)
    for i, value in enumerate(inverse):
        sigma[value] = i
    return tuple(sigma)


# -- exchange identity for the pairing -----------------------------------------


def vowa_check(
    space: SuperSpace,
    duals: DualBasisPair,
    v: SuperTensor,
    w: SuperTensor,
    j: int,
    alpha: BasisTuple,
) -> bool:
    """Verify that pairing a composition against a decomposable tensor
    equals the insertion sum over the dual pair.

    v and w must be even; the summand for index nu carries the sign
    (-1)^N with N built from the parities of the alpha factors, and that
    sign must also reduce to the parity of the primal vector."""
    m = v.slots - 1
    n = w.slots - 1
    if not v.is_even(space) or not w.is_even(space):
        raise ValueError("the exchange identity requires even tensors")
    if len(alpha) != m + n:
        raise ValueError("alpha must have m+n factors")
    parity = space.parity
    lhs = pair(space, es_compose(space, v, w, j), SuperTensor.basis(alpha))

    rhs: Coeff = 0
    left_parities = [parity[alpha[i]] for i in range(j)]
    mid_parities = [parity[alpha[i]] for i in range(j, j + n)]
    cross = (sum(mid_parities) & 1) and (sum(left_parities) & 1)
    for nu in range(space.dim):
        p_primal = duals.parity_of(nu)
        dual_vec = duals.dual[nu]
        p_dual = next(
            (space.parity[k] for k, c in enumerate(dual_vec) if c), 0
        )
        exponent = (
            p_primal * sum(left_parities)
            + p_dual * sum(mid_parities)
            + (1 if cross else 0)
        )
        term: Coeff = 0
        for k, ck in enumerate(duals.primal[nu]):
            if not ck:
                continue
            left_key = alpha[:j] + (k,) + alpha[j + n :]
            left_value = pair(space, v, SuperTensor.basis(left_key))
            if not left_value:
                continue
            for l, cl in enumerate(dual_vec):
                if not cl:
                    continue
                right_key = (l,) + alpha[j : j + n]
                right_value = pair(space, w, SuperTensor.basis(right_key))
                if right_value:
                    term += ck * cl * left_value * right_value
        if not term:
            continue
        if (exponent - p_primal) % 2:
            return False
        rhs += -term if exponent & 1 else term
    return lhs == rhs


# -- exhaustive axiom checker ----------------------------------------------------


class AxiomReport(NamedTuple):
    """The outcome of one exhaustive check: every case counted, the first
    failure kept."""

    ok: bool
    checked: int
    counterexample: str | None


def tally(results: Iterable[str | None]) -> AxiomReport:
    """Count every case and keep the first failure.  Each result is None
    for a case that holds and the counterexample of one that fails."""
    results = iter(results)
    checked = 0
    for result in results:
        checked += 1
        if result is not None:
            # the cases after the first failure still run and count
            return AxiomReport(False, checked + sum(1 for _ in results), result)
    return AxiomReport(True, checked, None)


def _perms_fixing_zero(n: int) -> list[BasisTuple]:
    return [(0,) + rest for rest in permutations(range(1, n + 1))]


def _cycle(n: int) -> BasisTuple:
    # the (n+1)-cycle sending 0 -> 1 -> ... -> n -> 0
    return tuple((i + 1) % (n + 1) for i in range(n + 1))


def cyclic_axiom_check(
    max_arity: int,
    elements: Mapping[int, Sequence[Any]],
    compose: Callable[[Any, Any, int], Any],
    act: Callable[[BasisTuple, Any], Any],
    describe: Callable[[Any], str],
    pair_names: tuple[str, str] = ("x", "y"),
    operands: Callable[[Any, int, int], Iterable[Any]] | None = None,
    exchange: Callable[[Any, Any, Any], Any] = lambda x, y, z: z,
) -> dict[str, AxiomReport]:
    """Check the four cyclic-operad axioms (Getzler-Kapranov, "Cyclic
    operads and cyclic homology", 1995) on the elements of arity
    1..max_arity.

    ``compose(x, y, j)`` inserts y into slot j of x, or returns None when
    that composition cannot be formed; ``act(perm, x)`` permutes slots
    0..arity.  ``operands(x, j, n)`` lists the arity-n elements to insert
    into slot j of x (default: all), and ``exchange(x, y, z)`` gives z the
    sign of swapping x and y (default: none; None passes through).  A case
    holds when both sides are formed and equal, so a None side fails it.
    A failing case names its elements by ``describe``, and the two of the
    binary axioms by ``pair_names``."""
    operands = operands or (lambda x, j, n: elements[n])
    arities = range(1, max_arity + 1)
    p, q = pair_names

    def holds(lhs: Any, rhs: Any) -> bool:
        # identity first: an adapter that interns its results hands back
        # one object for equal sides
        return lhs is not None and rhs is not None and (lhs is rhs or lhs == rhs)

    def axiom1() -> Iterator[str | None]:
        # equivariance: permuting a composition equals composing the
        # permuted arguments at the permuted slot
        for m, n in iter_product(arities, arities):
            perms = iter_product(_perms_fixing_zero(m), _perms_fixing_zero(n))
            for j, (pi, rho) in iter_product(range(1, m + 1), perms):
                sigma = compose_permutations(pi, rho, j, m, n)
                for x in elements[m]:
                    x_pi = act(pi, x)
                    for y in operands(x, j, n):
                        xy = compose(x, y, j)
                        lhs = None if xy is None else act(sigma, xy)
                        rhs = compose(x_pi, act(rho, y), pi[j])
                        yield None if holds(lhs, rhs) else (
                            f"m={m} n={n} j={j} pi={pi} rho={rho} "
                            f"{p}={describe(x)} {q}={describe(y)}"
                        )

    def axiom2() -> Iterator[str | None]:
        # rotation exchanges the outermost composition
        for m, n in iter_product(arities, arities):
            tau_m, tau_n, tau_out = _cycle(m), _cycle(n), _cycle(m + n - 1)
            for x in elements[m]:
                x_tau = act(tau_m, x)
                for y in operands(x, m, n):
                    xy = compose(x, y, m)
                    lhs = None if xy is None else act(tau_out, xy)
                    rhs = exchange(x, y, compose(act(tau_n, y), x_tau, 1))
                    yield None if holds(lhs, rhs) else (
                        f"m={m} n={n} {p}={describe(x)} {q}={describe(y)}"
                    )

    def describe3(k, l, m, i, j, a, b, c) -> str:
        return (
            f"k={k} l={l} m={m} i={i} j={j} "
            f"a={describe(a)} b={describe(b)} c={describe(c)}"
        )

    def axiom3() -> Iterator[str | None]:
        # disjoint slots i < j of a compose in either order
        for k, l, m in iter_product(range(2, max_arity + 1), arities, arities):
            for i, j in combinations(range(1, k + 1), 2):
                for a in elements[k]:
                    # composing c into slot j does not depend on b
                    later = [(c, compose(a, c, j)) for c in operands(a, j, m)]
                    for b in operands(a, i, l):
                        ab = compose(a, b, i)
                        for c, ac in later:
                            lhs = None if ab is None else compose(ab, c, j + l - 1)
                            rhs = None if ac is None else compose(ac, b, i)
                            yield None if holds(lhs, exchange(b, c, rhs)) else (
                                describe3(k, l, m, i, j, a, b, c)
                            )

    def axiom4() -> Iterator[str | None]:
        # nested slots associate: c into slot j of b, which enters slot i
        for k, l, m in iter_product(arities, arities, arities):
            for i, j in iter_product(range(1, k + 1), range(1, l + 1)):
                for a in elements[k]:
                    for b in operands(a, i, l):
                        ab = compose(a, b, i)
                        for c in operands(b, j, m):
                            bc = compose(b, c, j)
                            lhs = None if ab is None else compose(ab, c, i + j - 1)
                            rhs = None if bc is None else compose(a, bc, i)
                            yield None if holds(lhs, rhs) else (
                                describe3(k, l, m, i, j, a, b, c)
                            )

    return {
        "axiom1": tally(axiom1()),
        "axiom2": tally(axiom2()),
        "axiom3": tally(axiom3()),
        "axiom4": tally(axiom4()),
    }


def _basis_tuples(dim: int, slots: int) -> list[BasisTuple]:
    return [tuple(key) for key in iter_product(range(dim), repeat=slots)]


def _partners(space: SuperSpace) -> list[list[int]]:
    return [
        [j for j in range(space.dim) if space.pairing[i][j]]
        for i in range(space.dim)
    ]


def es_axiom_check(space: SuperSpace, max_arity: int = 3) -> dict[str, AxiomReport]:
    """Exhaustively verify the four cyclic-operad axioms on basis tensors.

    The adapter to :func:`cyclic_axiom_check` holds an element as a signed
    basis tuple ``(coeff, tuple)`` and composes and acts through the raw
    kernels.  Rotation and the disjoint-slot axiom exchange two arguments
    and carry the Koszul sign of that exchange, invisible on even tensors.
    Only tensors whose slot 0 pairs with the target slot are inserted; the
    others contract to zero on both sides.  The Koszul signs read the
    space's per-tuple parity table, which grows with the tuples formed.
    Compositions are not memoised: a table of results grows with the pairs
    composed, and took the peak memory at dim 3 from 22 to 140 MB.
    ``_compose_raw`` is looked up once, on entry, so a patched kernel
    serves the whole run."""
    compose_raw = _compose_raw
    suffix = space._suffix_parity
    partners = _partners(space)
    arities = range(1, max_arity + 1)
    elements = {m: [(1, t) for t in _basis_tuples(space.dim, m + 1)] for m in arities}
    # the arity-n basis tensors whose slot 0 pairs with basis index i
    contractible = {
        n: [
            [(1, (w0,) + w) for w0 in partners[i] for w in _basis_tuples(space.dim, n)]
            for i in range(space.dim)
        ]
        for n in arities
    }
    words: dict[BasisTuple, tuple[int, ...]] = {}

    def compose(x: tuple, y: tuple, j: int) -> tuple | None:
        contracted = compose_raw(space, x[1], y[1], j)
        if contracted is None:
            return None
        return x[0] * y[0] * contracted[0], contracted[1]

    def act(perm: BasisTuple, x: tuple) -> tuple:
        word = words.get(perm)
        if word is None:
            word = words[perm] = _perm_word(perm)
        sign, image = _permute_raw(space, word, x[1])
        return x[0] * sign, image

    def exchange(x: tuple, y: tuple, z: tuple | None) -> tuple | None:
        if z is None or not (suffix[x[1]][0] and suffix[y[1]][0]):
            return z
        return -z[0], z[1]

    return cyclic_axiom_check(
        max_arity,
        elements,
        compose,
        act,
        lambda x: str(x[1]),
        pair_names=("v", "w"),
        operands=lambda x, j, n: contractible[n][x[1][j]],
        exchange=exchange,
    )


def vowa_exhaustive(space: SuperSpace, max_arity: int = 3) -> AxiomReport:
    """Run the exchange identity of :func:`vowa_check` over all even basis
    tensors v, w, slots j and basis pairings alpha within the arity bound.

    A block (m, n, j, v, w) counts its dim**(m+n) pairings as cases, also
    after the first failure.  Both sides are products of pairing entries:
    the left side vanishes unless each alpha[i] pairs with entry i of the
    kernel's composed tuple, the right side unless it pairs with entry i
    of ``v[:j] + w[1:] + v[j+1:]``.  Only the union of the two supports is
    evaluated (one alpha per block for a monomial pairing), in increasing
    order, so a kernel returning a wrong tuple still fails, and a block's
    first failure is its smallest failing alpha.  The sign of every
    nonzero summand must reduce to the parity of the primal vector."""
    duals = space.dual_pair()
    dim = space.dim
    parity = space.parity
    partners = _partners(space)
    dual_supports = [[(l, c) for l, c in enumerate(d) if c] for d in duals.dual]
    arities = range(1, max_arity + 1)
    evens = {
        m: [t for t in _basis_tuples(dim, m + 1) if sum(parity[i] for i in t) % 2 == 0]
        for m in arities
    }

    def support(shape: BasisTuple) -> Iterable[BasisTuple]:
        # the partner lists ascend, so the product is in increasing order
        return iter_product(*(partners[i] for i in shape))

    def case(m, n, j, vt, wt, alpha) -> str:
        return f"m={m} n={n} j={j} v={vt} w={wt} alpha={alpha}"

    def failures() -> Iterator[str]:
        for m, n in iter_product(arities, arities):
            for j, vt, wt in iter_product(range(1, m + 1), evens[m], evens[n]):
                composed = _compose_raw(space, vt, wt, j)
                shape = vt[:j] + wt[1:] + vt[j + 1 :]
                alphas = support(shape)
                if composed and composed[1] != shape:
                    alphas = sorted({*alphas, *support(composed[1])})
                for alpha in alphas:
                    lhs = composed[0] * _pair_raw(space, composed[1], alpha) if composed else 0
                    left_sum = sum(parity[i] for i in alpha[:j])
                    mid_sum = sum(parity[i] for i in alpha[j : j + n])
                    rhs = 0
                    for nu in partners[vt[j]]:
                        left = _pair_raw(space, vt, alpha[:j] + (nu,) + alpha[j + n :])
                        right = left and sum(
                            cl * _pair_raw(space, wt, (l,) + alpha[j : j + n])
                            for l, cl in dual_supports[nu]
                        )
                        if not right:
                            continue
                        p_nu = parity[nu]
                        exponent = p_nu * left_sum + p_nu * mid_sum + mid_sum * left_sum
                        if (exponent - p_nu) % 2:
                            yield f"sign mismatch {case(m, n, j, vt, wt, alpha)} nu={nu}"
                        rhs += -left * right if exponent & 1 else left * right
                    if lhs != rhs:
                        yield case(m, n, j, vt, wt, alpha)

    checked = sum(
        m * len(evens[m]) * len(evens[n]) * dim ** (m + n)
        for m, n in iter_product(arities, arities)
    )
    first = next(failures(), None)
    return AxiomReport(first is None, checked, first)


# -- ready-made spaces --------------------------------------------------------


def even_space(dim: int) -> SuperSpace:
    """All-even space with the identity pairing."""
    names = [f"e{i+1}" for i in range(dim)]
    pairing = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return SuperSpace(names, [0] * dim, pairing)


_MIXED_PARITIES = {
    1: (0,),
    2: (1, 1),
    3: (0, 1, 1),
    4: (0, 0, 1, 1),
    5: (0, 1, 1, 1, 1),
    6: (0, 0, 1, 1, 1, 1),
}


def mixed_space(dim: int) -> SuperSpace:
    """A space with both parities (where dim permits): identity pairing
    on the even part, hyperbolic pairs on the odd part."""
    if dim not in _MIXED_PARITIES:
        raise ValueError(f"no mixed space of dimension {dim} is provided")
    parities = _MIXED_PARITIES[dim]
    dim_total = len(parities)
    pairing = [[0] * dim_total for _ in range(dim_total)]
    odd_indices = [i for i, p in enumerate(parities) if p]
    for i, p in enumerate(parities):
        if not p:
            pairing[i][i] = 1
    for a, b in zip(odd_indices[::2], odd_indices[1::2]):
        pairing[a][b] = 1
        pairing[b][a] = -1
    names = []
    evens = odds = 0
    for p in parities:
        if p:
            odds += 1
            names.append(f"o{odds}")
        else:
            evens += 1
            names.append(f"e{evens}")
    return SuperSpace(names, parities, pairing)
