"""The endomorphism cyclic operad of a Z/2-graded module with an even
super-symmetric pairing.

Tensors over a finite named basis compose by contracting one slot
against slot zero of the other factor, with a Koszul sign; permutations
act through adjacent transpositions, each contributing the sign of the
two parities it swaps.  The checker functions enumerate basis tensors
exhaustively within small bounds, so they double as the test suite for
the four cyclic-operad axioms and for the pairing/composition exchange
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from itertools import product as iter_product
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import solve_exact

Vector = tuple[Fraction, ...]
BasisTuple = tuple[int, ...]


class PairingError(ValueError):
    """The bilinear form violates evenness, symmetry, or nondegeneracy."""


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
        self.pairing = tuple(
            tuple(Fraction(entry) for entry in row) for row in pairing
        )
        # the raw kernels read the entries as int wherever the denominator
        # is 1 (every built-in entry is 0 or +-1) and as Fraction otherwise
        self._kernel_pairing = tuple(
            tuple(e.numerator if e.denominator == 1 else e for e in row)
            for row in self.pairing
        )
        for i in range(self.dim):
            if len(self.pairing[i]) != self.dim:
                raise PairingError("pairing matrix is not square")
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

    def index(self, name: str) -> int:
        return self.names.index(name)

    def b(self, i: int, j: int) -> Fraction:
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
    """A finite sum of decomposable basis tensors of a fixed width."""

    __slots__ = ("slots", "coeffs")

    def __init__(self, slots: int, coeffs: Mapping[BasisTuple, Fraction | int] | None = None):
        if slots < 2:
            raise ValueError("tensors need at least two slots")
        self.slots = slots
        self.coeffs: dict[BasisTuple, Fraction] = {}
        if coeffs:
            for key, value in coeffs.items():
                if len(key) != slots:
                    raise ValueError(f"tuple {key} does not have {slots} entries")
                c = Fraction(value)
                if c:
                    self.coeffs[key] = c

    @classmethod
    def basis(cls, key: BasisTuple) -> "SuperTensor":
        return cls(len(key), {key: Fraction(1)})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SuperTensor):
            return self.slots == other.slots and self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other: "SuperTensor") -> "SuperTensor":
        if self.slots != other.slots:
            raise ValueError("widths differ")
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            s = out.get(key, Fraction(0)) + value
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return SuperTensor(self.slots, out)

    def scale(self, c: Fraction | int) -> "SuperTensor":
        c = Fraction(c)
        return SuperTensor(self.slots, {k: v * c for k, v in self.coeffs.items()})

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
    factor = space._kernel_pairing[v[j]][w[0]]
    if not factor:
        return None
    parity = space.parity.__getitem__
    if sum(map(parity, v[j + 1 :])) & 1 and sum(map(parity, w)) & 1:
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
    pairing = space._kernel_pairing
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
    out: dict[BasisTuple, Fraction] = {}
    for vt, cv in v.coeffs.items():
        for wt, cw in w.coeffs.items():
            contracted = _compose_raw(space, vt, wt, j)
            if contracted is None:
                continue
            factor, key = contracted
            s = out.get(key, Fraction(0)) + cv * cw * factor
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return SuperTensor(v.slots + w.slots - 2, out)


def es_permute(space: SuperSpace, perm: BasisTuple, v: SuperTensor) -> SuperTensor:
    """Left action of a permutation of the slots, with Koszul signs."""
    if sorted(perm) != list(range(v.slots)):
        raise ValueError(f"{perm} is not a permutation of 0..{v.slots - 1}")
    word = _perm_word(perm)
    out: dict[BasisTuple, Fraction] = {}
    for key, coeff in v.coeffs.items():
        sign, image = _permute_raw(space, word, key)
        s = out.get(image, Fraction(0)) + coeff * sign
        if s:
            out[image] = s
        elif image in out:
            del out[image]
    return SuperTensor(v.slots, out)


def pair(space: SuperSpace, v: SuperTensor, alpha: SuperTensor) -> Fraction:
    """Slotwise pairing with the reordering sign."""
    if v.slots != alpha.slots:
        raise ValueError("widths differ")
    total = Fraction(0)
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
    require_sign_agreement: bool = True,
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

    rhs = Fraction(0)
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
        term = Fraction(0)
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
        if require_sign_agreement and (exponent - p_primal) % 2:
            return False
        rhs += -term if exponent & 1 else term
    return lhs == rhs


# -- exhaustive axiom checker ----------------------------------------------------


@dataclass
class AxiomReport:
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


# The index shapes of the four axioms, shared by every checker; each
# checker runs its own element enumeration inside them.


def axiom1_indices(max_arity: int) -> Iterator[tuple]:
    """(m, n, j, pi, rho, sigma): equivariance of composing at slot j."""
    for m in range(1, max_arity + 1):
        for n in range(1, max_arity + 1):
            for j in range(1, m + 1):
                for pi in _perms_fixing_zero(m):
                    for rho in _perms_fixing_zero(n):
                        yield m, n, j, pi, rho, compose_permutations(pi, rho, j, m, n)


def axiom2_indices(max_arity: int) -> Iterator[tuple]:
    """(m, n, tau_m, tau_n, tau_out): rotation of the outermost slot."""
    for m in range(1, max_arity + 1):
        for n in range(1, max_arity + 1):
            yield m, n, _cycle(m), _cycle(n), _cycle(m + n - 1)


def axiom3_indices(max_arity: int) -> Iterator[tuple[int, ...]]:
    """(k, l, m, i, j, j+l-1): disjoint slots i < j of the arity-k factor."""
    for k in range(2, max_arity + 1):
        for l in range(1, max_arity + 1):
            for m in range(1, max_arity + 1):
                for i in range(1, k + 1):
                    for j in range(i + 1, k + 1):
                        yield k, l, m, i, j, j + l - 1


def axiom4_indices(max_arity: int) -> Iterator[tuple[int, ...]]:
    """(k, l, m, i, j, i+j-1): slot j of the factor entering slot i."""
    for k in range(1, max_arity + 1):
        for l in range(1, max_arity + 1):
            for m in range(1, max_arity + 1):
                for i in range(1, k + 1):
                    for j in range(1, l + 1):
                        yield k, l, m, i, j, i + j - 1


def _basis_tuples(dim: int, slots: int) -> list[BasisTuple]:
    return [tuple(key) for key in iter_product(range(dim), repeat=slots)]


def _partners(space: SuperSpace) -> list[list[int]]:
    return [
        [j for j in range(space.dim) if space.pairing[i][j]]
        for i in range(space.dim)
    ]


def es_axiom_check(space: SuperSpace, max_arity: int = 3) -> dict[str, AxiomReport]:
    """Exhaustively verify the four cyclic-operad axioms on basis tensors.

    The two axioms that exchange their arguments (rotation and the
    disjoint-slot axiom) carry the Koszul sign of that exchange, which is
    invisible on even tensors; the equivariance and nesting axioms have
    no exchange and hence no sign.  Compositions with a vanishing
    contraction factor are skipped: both sides are zero and carry no
    information.  Runs on raw tuples for speed."""
    parity_of = space.parity

    def total_parity(t: BasisTuple) -> int:
        return sum(parity_of[i] for i in t) & 1
    partners = _partners(space)
    tuples = {k: _basis_tuples(space.dim, k) for k in range(0, 2 * max_arity + 2)}
    word_cache: dict[BasisTuple, tuple[int, ...]] = {}

    def apply(perm: BasisTuple, t: BasisTuple) -> tuple[int, BasisTuple]:
        word = word_cache.get(perm)
        if word is None:
            word = word_cache[perm] = _perm_word(perm)
        return _permute_raw(space, word, t)

    def contractible(v: BasisTuple, j: int, n: int) -> Iterator[BasisTuple]:
        # the arity-n basis tensors whose slot 0 pairs with slot j of v
        for w0 in partners[v[j]]:
            for w_rest in tuples[n]:
                yield (w0,) + w_rest

    def axiom1() -> Iterator[str | None]:
        # equivariance of composition
        for m, n, j, pi, rho, sigma in axiom1_indices(max_arity):
            for v in tuples[m + 1]:
                for w in contractible(v, j, n):
                    base = _compose_raw(space, v, w, j)
                    assert base is not None
                    sign_l, left = apply(sigma, base[1])
                    sv, vt = apply(pi, v)
                    sw, wt = apply(rho, w)
                    right = _compose_raw(space, vt, wt, pi[j])
                    ok = (
                        right is not None
                        and right[1] == left
                        and right[0] * sv * sw == base[0] * sign_l
                    )
                    yield None if ok else (
                        f"m={m} n={n} j={j} pi={pi} rho={rho} v={v} w={w}"
                    )

    def axiom2() -> Iterator[str | None]:
        # rotation exchanges the outermost composition, at the cost of the
        # sign of swapping the two arguments
        for m, n, tau_m, tau_n, tau_out in axiom2_indices(max_arity):
            for v in tuples[m + 1]:
                for w in contractible(v, m, n):
                    base = _compose_raw(space, v, w, m)
                    assert base is not None
                    sign_l, left = apply(tau_out, base[1])
                    sv, vt = apply(tau_m, v)
                    sw, wt = apply(tau_n, w)
                    exchange = -1 if total_parity(v) and total_parity(w) else 1
                    right = _compose_raw(space, wt, vt, 1)
                    ok = (
                        right is not None
                        and right[1] == left
                        and right[0] * sv * sw * exchange == base[0] * sign_l
                    )
                    yield None if ok else f"m={m} n={n} v={v} w={w}"

    def axiom3() -> Iterator[str | None]:
        # disjoint slots compose in either order
        for k, l, m, i, j, j_after in axiom3_indices(max_arity):
            for a in tuples[k + 1]:
                for b in contractible(a, i, l):
                    first = _compose_raw(space, a, b, i)
                    assert first is not None
                    for c in contractible(a, j, m):
                        lhs = _compose_raw(space, first[1], c, j_after)
                        second = _compose_raw(space, a, c, j)
                        assert second is not None
                        rhs = _compose_raw(space, second[1], b, i)
                        exchange = -1 if total_parity(b) and total_parity(c) else 1
                        ok = (
                            lhs is not None
                            and rhs is not None
                            and lhs[1] == rhs[1]
                            and first[0] * lhs[0] == second[0] * rhs[0] * exchange
                        )
                        yield None if ok else (
                            f"k={k} l={l} m={m} i={i} j={j} a={a} b={b} c={c}"
                        )

    def axiom4() -> Iterator[str | None]:
        # nested slots associate
        for k, l, m, i, j, j_after in axiom4_indices(max_arity):
            for a in tuples[k + 1]:
                for b in contractible(a, i, l):
                    first = _compose_raw(space, a, b, i)
                    assert first is not None
                    for c in contractible(b, j, m):
                        lhs = _compose_raw(space, first[1], c, j_after)
                        inner = _compose_raw(space, b, c, j)
                        assert inner is not None
                        rhs = _compose_raw(space, a, inner[1], i)
                        ok = (
                            lhs is not None
                            and rhs is not None
                            and lhs[1] == rhs[1]
                            and first[0] * lhs[0] == inner[0] * rhs[0]
                        )
                        yield None if ok else (
                            f"k={k} l={l} m={m} i={i} j={j} a={a} b={b} c={c}"
                        )

    return {
        "axiom1": tally(axiom1()),
        "axiom2": tally(axiom2()),
        "axiom3": tally(axiom3()),
        "axiom4": tally(axiom4()),
    }


def vowa_exhaustive(
    space: SuperSpace, max_arity: int = 3
) -> tuple[bool, int, str | None]:
    """Run the exchange identity over all even basis tensors and all
    decomposable pairings within the arity bound.

    Same identity as :func:`vowa_check`, specialised to basis tensors and
    hand-tuned: early-exit pairings, parity prefix sums per alpha, and a
    dual sum restricted to the indices the contraction slot can pair
    with.  The sign of every nonzero summand is verified to reduce to the
    parity of the inserted primal vector."""
    duals = space.dual_pair()
    dim = space.dim
    parity = space.parity
    partners = _partners(space)
    dual_supports = [
        [
            (l, c.numerator if c.denominator == 1 else c)
            for l, c in enumerate(duals.dual[nu])
            if c
        ]
        for nu in range(dim)
    ]
    checked = 0
    for m in range(1, max_arity + 1):
        for n in range(1, max_arity + 1):
            evens_v = [
                t
                for t in _basis_tuples(dim, m + 1)
                if sum(parity[i] for i in t) % 2 == 0
            ]
            evens_w = [
                t
                for t in _basis_tuples(dim, n + 1)
                if sum(parity[i] for i in t) % 2 == 0
            ]
            alphas = _basis_tuples(dim, m + n)
            prefix: list[tuple[int, ...]] = []
            for alpha in alphas:
                acc = [0]
                for i in alpha:
                    acc.append(acc[-1] + parity[i])
                prefix.append(tuple(acc))
            for j in range(1, m + 1):
                for vt in evens_v:
                    nus = partners[vt[j]]
                    for wt in evens_w:
                        composed = _compose_raw(space, vt, wt, j)
                        for idx, alpha in enumerate(alphas):
                            checked += 1
                            lhs = (
                                composed[0] * _pair_raw(space, composed[1], alpha)
                                if composed is not None
                                else 0
                            )
                            sums = prefix[idx]
                            left_sum = sums[j]
                            mid_sum = sums[j + n] - sums[j]
                            rhs = 0
                            for nu in nus:
                                left = _pair_raw(
                                    space,
                                    vt,
                                    alpha[:j] + (nu,) + alpha[j + n :],
                                )
                                if not left:
                                    continue
                                right = 0
                                for l, cl in dual_supports[nu]:
                                    inner = _pair_raw(
                                        space, wt, (l,) + alpha[j : j + n]
                                    )
                                    if inner:
                                        right += cl * inner
                                if not right:
                                    continue
                                p_nu = parity[nu]
                                exponent = (
                                    p_nu * left_sum
                                    + p_nu * mid_sum
                                    + mid_sum * left_sum
                                )
                                if (exponent - p_nu) % 2:
                                    return (
                                        False,
                                        checked,
                                        f"sign mismatch m={m} n={n} j={j} "
                                        f"v={vt} w={wt} alpha={alpha} nu={nu}",
                                    )
                                term = left * right
                                rhs += -term if exponent & 1 else term
                            if lhs != rhs:
                                return (
                                    False,
                                    checked,
                                    f"m={m} n={n} j={j} v={vt} w={wt} "
                                    f"alpha={alpha}",
                                )
    return True, checked, None


# -- ready-made spaces --------------------------------------------------------


def even_space(dim: int) -> SuperSpace:
    """All-even space with the identity pairing."""
    names = [f"e{i+1}" for i in range(dim)]
    pairing = [
        [Fraction(1) if i == j else Fraction(0) for j in range(dim)]
        for i in range(dim)
    ]
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
    pairing = [[Fraction(0)] * dim_total for _ in range(dim_total)]
    odd_indices = [i for i, p in enumerate(parities) if p]
    for i, p in enumerate(parities):
        if not p:
            pairing[i][i] = Fraction(1)
    for a, b in zip(odd_indices[::2], odd_indices[1::2]):
        pairing[a][b] = Fraction(1)
        pairing[b][a] = Fraction(-1)
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
