import copy
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tring import superops
from tring.superops import (
    DualBasisPair,
    PairingError,
    SuperSpace,
    SuperTensor,
    _compose_raw,
    _pair_raw,
    _perm_word,
    _permute_raw,
    compose_permutations,
    es_axiom_check,
    es_compose,
    es_permute,
    even_space,
    mixed_space,
    pair,
    vowa_check,
    vowa_exhaustive,
)


def T(*key):
    return SuperTensor.basis(tuple(key))


def test_space_validation():
    with pytest.raises(PairingError):
        # nonzero pairing across parities
        SuperSpace(["e", "o"], [0, 1], [[1, 1], [1, 0]])
    with pytest.raises(PairingError):
        # odd/odd block must be antisymmetric
        SuperSpace(["o1", "o2"], [1, 1], [[0, 1], [1, 0]])
    for ragged in ([[1], [0, 1]], [[1, 0], []]):
        with pytest.raises(PairingError, match="not square"):
            SuperSpace(["a", "b"], [0, 0], ragged)
    mixed_space(3)  # constructs cleanly


def test_compose_all_even_is_plain_contraction():
    space = even_space(2)
    v = T(0, 1, 0)
    w = T(1, 1, 0)
    result = es_compose(space, v, w, 1)
    assert result == SuperTensor(4, {(0, 1, 0, 0): Fraction(1)})
    # b is the identity matrix, so mismatched contraction slots vanish
    assert es_compose(space, T(0, 1), T(0, 0), 1).is_zero()


def test_compose_mixed_example():
    space = mixed_space(3)  # e, o1, o2 with b(o1,o2)=1=-b(o2,o1), b(e,e)=1
    e, o1, o2 = 0, 1, 2
    result = es_compose(space, T(e, o1), T(o2, e), 1)
    assert result == SuperTensor(2, {(e, e): Fraction(1)})
    # parities of the contracted pair differ -> zero
    assert es_compose(space, T(e, o1), T(e, e), 1).is_zero()


def test_compose_sign_from_tail():
    # v tail odd and w odd-total flips the sign:
    # (o1 ? o2 ? o1) composed at slot 1 against (o1 ? e):
    # N = |w|*(|v_2|) = 1*1 = 1
    space = mixed_space(3)
    e, o1, o2 = 0, 1, 2
    result = es_compose(space, T(o1, o2, o1), T(o1, e), 1)
    assert result == SuperTensor(3, {(o1, e, o1): Fraction(1)})
    result = es_compose(space, T(e, o2, o1), T(o1, e), 1)
    # here b(o2, o1) = -1 and N = 1, so the signs cancel
    assert result == SuperTensor(3, {(e, e, o1): Fraction(1)})


def test_permute_identity_and_swap():
    space = mixed_space(3)
    e, o1, o2 = 0, 1, 2
    v = T(e, o1, o2)
    assert es_permute(space, (0, 1, 2), v) == v
    swapped = es_permute(space, (0, 2, 1), v)
    assert swapped == SuperTensor(3, {(e, o2, o1): Fraction(-1)})
    # swapping an even slot with an odd one costs nothing
    assert es_permute(space, (1, 0, 2), v) == SuperTensor(
        3, {(o1, e, o2): Fraction(1)}
    )


def test_braid_words_agree():
    space = mixed_space(3)
    rng = random.Random(3)
    for _ in range(20):
        key = tuple(rng.randrange(3) for _ in range(3))
        a = _permute_raw(space, (0, 1, 0), key)
        b = _permute_raw(space, (1, 0, 1), key)
        assert a == b


def test_permute_group_action():
    from itertools import permutations

    space = mixed_space(3)
    rng = random.Random(9)
    tensor = SuperTensor(
        3,
        {
            tuple(rng.randrange(3) for _ in range(3)): Fraction(rng.randint(1, 4))
            for _ in range(4)
        },
    )
    for pi in permutations(range(3)):
        for rho in permutations(range(3)):
            composed = tuple(pi[rho[i]] for i in range(3))
            lhs = es_permute(space, composed, tensor)
            rhs = es_permute(space, pi, es_permute(space, rho, tensor))
            assert lhs == rhs


def test_pair_values():
    space = mixed_space(3)
    e, o1, o2 = 0, 1, 2
    assert pair(space, T(e, e), T(e, e)) == 1
    # S = |v_2||alpha_1| = 1 here, so the product of b-factors flips sign
    assert pair(space, T(o1, o1), T(o2, o2)) == -1
    assert pair(space, T(e, o1), T(e, o2)) == 1
    zero = SuperTensor(2)
    assert pair(space, T(e, e), zero) == 0
    # an integral value is an int, as the coefficient rule asks
    o1, o2 = 0, 1
    value = pair(mixed_space(2), T(o1, o2), T(o2, o1))
    assert (value, type(value)) == (1, int)
    half = SuperTensor(2, {(o1, o2): Fraction(1, 2)})
    assert pair(mixed_space(2), half, T(o2, o1)) == Fraction(1, 2)


def test_pair_permutation_invariance_even():
    from itertools import permutations, product

    space = mixed_space(3)
    evens = [
        key
        for key in product(range(3), repeat=3)
        if sum(space.parity[i] for i in key) % 2 == 0
    ]
    for perm in permutations(range(3)):
        for vk in evens:
            for ak in evens:
                lhs = pair(
                    space,
                    es_permute(space, perm, T(*vk)),
                    es_permute(space, perm, T(*ak)),
                )
                assert lhs == pair(space, T(*vk), T(*ak))


def test_compose_permutations_examples():
    # identities compose to the identity
    assert compose_permutations((0, 1, 2), (0, 1, 2), 1, 2, 2) == (0, 1, 2, 3)
    # swapping the two upper slots of the outer factor moves the window
    assert compose_permutations((0, 2, 1), (0, 1), 2, 2, 1) == (0, 2, 1)


def test_dual_pair():
    space = mixed_space(3)
    duals = space.dual_pair()
    # dual of o1 is o2, dual of o2 is -o1
    assert duals.dual[1] == (Fraction(0), Fraction(0), Fraction(1))
    assert duals.dual[2] == (Fraction(0), Fraction(-1), Fraction(0))
    with pytest.raises(PairingError):
        DualBasisPair(space, duals.primal, duals.primal)


def test_vowa_even_and_refusal():
    space = even_space(2)
    duals = space.dual_pair()
    assert vowa_check(space, duals, T(0, 1, 0), T(1, 1), 2, (0, 1, 1))
    mixed = mixed_space(3)
    with pytest.raises(ValueError):
        vowa_check(mixed, mixed.dual_pair(), T(0, 1), T(0, 0), 1, (0, 0))


def test_vowa_exhaustive_small():
    ok, checked, counterexample = vowa_exhaustive(mixed_space(2), max_arity=2)
    assert ok, counterexample
    assert checked > 0


def test_axioms_small_mixed():
    reports = es_axiom_check(mixed_space(2), max_arity=2)
    for name, report in reports.items():
        assert report.ok, f"{name}: {report.counterexample}"
        assert report.checked > 0


def test_axioms_small_even():
    reports = es_axiom_check(even_space(2), max_arity=2)
    assert all(r.ok for r in reports.values())


# -- integer kernels against Fraction entries -----------------------------------


def _with_fraction_kernel(space: SuperSpace) -> SuperSpace:
    """The same space with the raw kernels reading Fraction entries."""
    out = copy.copy(space)
    out.pairing = tuple(tuple(Fraction(e) for e in row) for row in space.pairing)
    return out


MIXED2 = mixed_space(2)
MIXED2_FRACTION = _with_fraction_kernel(MIXED2)


def _tuples(size: int):
    return st.tuples(*[st.integers(0, MIXED2.dim - 1)] * size)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_kernels_match_fraction_kernels(data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    j = data.draw(st.integers(1, m))
    v = data.draw(_tuples(m + 1))
    w = data.draw(_tuples(n + 1))
    alpha = data.draw(_tuples(m + 1))
    fast = _compose_raw(MIXED2, v, w, j)
    assert fast == _compose_raw(MIXED2_FRACTION, v, w, j)
    if fast is not None:
        assert type(fast[0]) is int
    value = _pair_raw(MIXED2, v, alpha)
    assert type(value) is int
    assert value == _pair_raw(MIXED2_FRACTION, v, alpha)


def test_integer_kernels_match_fraction_checkers():
    assert vowa_exhaustive(MIXED2, max_arity=2) == vowa_exhaustive(
        MIXED2_FRACTION, max_arity=2
    )
    assert es_axiom_check(MIXED2, max_arity=2) == es_axiom_check(
        MIXED2_FRACTION, max_arity=2
    )


def test_kernels_keep_fraction_entries():
    space = SuperSpace(["e1", "e2"], [0, 0], [[Fraction(1, 2), 0], [0, 2]])
    assert space.pairing[0][0] == Fraction(1, 2)
    assert type(space.pairing[1][1]) is int
    assert _pair_raw(space, (0, 1), (0, 1)) == 1
    ok, checked, counterexample = vowa_exhaustive(space, max_arity=2)
    assert ok, counterexample
    assert checked > 0
    assert all(r.ok for r in es_axiom_check(space, max_arity=2).values())


# -- the table-driven Koszul sign against re-summed parities -------------------

MIXED3 = mixed_space(3)


def _compose_by_parity_sums(space, v, w, j):
    """The composition kernel with its sign summed from the parities."""
    factor = space.pairing[v[j]][w[0]]
    if not factor:
        return None
    parity = space.parity.__getitem__
    if sum(map(parity, v[j + 1 :])) & 1 and sum(map(parity, w)) & 1:
        factor = -factor
    return factor, v[:j] + w[1:] + v[j + 1 :]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_driven_sign_matches_parity_sums(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    j = data.draw(st.integers(1, m))
    v = data.draw(st.tuples(*[st.integers(0, MIXED3.dim - 1)] * (m + 1)))
    w = data.draw(st.tuples(*[st.integers(0, MIXED3.dim - 1)] * (n + 1)))
    assert _compose_raw(MIXED3, v, w, j) == _compose_by_parity_sums(MIXED3, v, w, j)
    for t in (v, w):
        expected = [sum(MIXED3.parity[i] for i in t[k:]) & 1 for k in range(len(t) + 1)]
        assert MIXED3._suffix_parity[t] == tuple(expected)


# -- the sparse exchange checker against vowa_check on every case --------------


def _vowa_oracle(space: SuperSpace, max_arity: int):
    """vowa_check on every block and every basis pairing: whether all
    hold, the number of cases, and where the first failure is."""
    duals = space.dual_pair()
    arities = range(1, max_arity + 1)
    evens = {
        m: [t for t in product(range(space.dim), repeat=m + 1) if T(*t).is_even(space)]
        for m in arities
    }
    checked, first = 0, None
    for m, n in product(arities, arities):
        for j, v, w in product(range(1, m + 1), evens[m], evens[n]):
            for alpha in product(range(space.dim), repeat=m + n):
                checked += 1
                if first is None and not vowa_check(space, duals, T(*v), T(*w), j, alpha):
                    first = f"m={m} n={n} j={j} v={v} w={w} alpha={alpha}"
    return first is None, checked, first


def _assert_matches_oracle(space: SuperSpace) -> None:
    ok, checked, counterexample = vowa_exhaustive(space, max_arity=2)
    expected_ok, expected_checked, location = _vowa_oracle(space, max_arity=2)
    assert (ok, checked) == (expected_ok, expected_checked)
    assert (counterexample is None) == (location is None)
    if location is not None:
        # a sign mismatch names the primal index after the location
        assert location in counterexample


NON_MONOMIAL = SuperSpace(["e1", "e2"], [0, 0], [[2, 1], [1, 1]])


@pytest.mark.parametrize(
    "space",
    [
        mixed_space(1),
        mixed_space(2),
        even_space(2),
        SuperSpace(["e1", "e2"], [0, 0], [[Fraction(1, 2), 0], [0, 2]]),
        NON_MONOMIAL,
    ],
    ids=["mixed1", "mixed2", "even2", "fraction", "non-monomial"],
)
def test_sparse_vowa_matches_every_case(space):
    _assert_matches_oracle(space)


def _negated_ending_in_last_index(space, v, w, j):
    out = _compose_raw(space, v, w, j)
    return out if out is None or out[1][-1] < space.dim - 1 else (-out[0], out[1])


def _reversed_tuple(space, v, w, j):
    # a wrong tuple: its support is not the one built from v, w and j
    out = _compose_raw(space, v, w, j)
    return out if out is None else (out[0], out[1][::-1])


@pytest.mark.parametrize("kernel", [_negated_ending_in_last_index, _reversed_tuple])
@pytest.mark.parametrize("space", [mixed_space(2), NON_MONOMIAL], ids=["mixed2", "non-monomial"])
def test_sparse_vowa_matches_every_case_under_a_broken_kernel(monkeypatch, space, kernel):
    monkeypatch.setattr(superops, "_compose_raw", kernel)
    _assert_matches_oracle(space)
