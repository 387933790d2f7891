from fractions import Fraction

import pytest

from tring.base import (
    ConfigError,
    GradedAlgebra,
    load_config,
    rank2_base,
    resolve_base,
    trivial_base,
)

ONE = Fraction(1)


def test_trivial_base():
    base = trivial_base()
    for n in (2, 3, 4):
        algebra = base.algebra(n)
        assert algebra.basis == ("one",)
        for slot in range(n + 1):
            assert base.phi(n, slot) == {}
    assert base.clutch(2, 2, 1, {"one": ONE}, {"one": ONE}) == {"one": ONE}


def test_trivial_clutch_associative_and_equivariant():
    base = trivial_base()
    x = {"one": Fraction(2)}
    y = {"one": Fraction(3)}
    z = {"one": Fraction(5)}
    lhs = base.clutch(3, 2, 1, base.clutch(2, 2, 1, x, y), z)
    rhs = base.clutch(2, 3, 1, x, base.clutch(2, 2, 1, y, z))
    assert lhs == rhs == {"one": Fraction(30)}
    # the trivial action commutes with clutching
    acted = base.clutch(
        2, 2, 1, base.act(2, (0, 2, 1), x), base.act(2, (0, 2, 1), y)
    )
    assert acted == base.clutch(2, 2, 1, x, y)


def test_rank2_base():
    base = rank2_base()
    algebra = base.algebra(2)
    h = {"h": ONE}
    assert algebra.mul(h, h) == {}
    assert algebra.mul(algebra.unit_element(), h) == h
    assert base.phi(2, 0) == h
    assert algebra.is_homogeneous(h, 1)


def test_algebra_validation():
    with pytest.raises(ConfigError, match="unit"):
        GradedAlgebra([("a", 1)], {})
    with pytest.raises(ConfigError, match="commutative"):
        GradedAlgebra(
            [("one", 0), ("a", 1), ("b", 1)],
            {
                ("one", "one"): {"one": ONE},
                ("one", "a"): {"a": ONE},
                ("one", "b"): {"b": ONE},
                ("a", "b"): {},
                ("b", "a"): {"one": ONE},
            },
        )
    with pytest.raises(ConfigError, match="homogeneous"):
        GradedAlgebra(
            [("one", 0), ("a", 1)],
            {
                ("one", "one"): {"one": ONE},
                ("one", "a"): {"a": ONE},
                ("a", "a"): {"a": ONE},
            },
        )


def test_non_associative_rejected():
    # (a*a)*b = b*b = 0 but a*(a*b) = a, so this table cannot load
    with pytest.raises(ConfigError, match="associativity"):
        GradedAlgebra(
            [("one", 0), ("a", 0), ("b", 0)],
            {
                ("one", "one"): {"one": ONE},
                ("one", "a"): {"a": ONE},
                ("one", "b"): {"b": ONE},
                ("a", "a"): {"b": ONE},
                ("a", "b"): {"one": ONE},
                ("b", "b"): {},
            },
        )


def test_degree_additivity_enforced():
    algebra = GradedAlgebra(
        [("one", 0), ("h", 1)],
        {
            ("one", "one"): {"one": ONE},
            ("one", "h"): {"h": ONE},
            ("h", "h"): {},
        },
    )
    product = algebra.mul({"one": ONE, "h": ONE}, {"h": Fraction(2)})
    assert product == {"h": Fraction(2)}


EXAMPLE = """
# a rank-two algebra at two arities with clutching
[algebra n=2]
basis one deg 0
basis h deg 1
mul one one = one
mul one h = h
mul h h = 0
phi 0 = h
phi 1 = h
phi 2 = h
perm 0,2,1 h = h

[algebra n=3]
basis one deg 0
basis h deg 1
mul one one = one
mul one h = h
mul h h = 0
phi 0 = h
phi 1 = h
phi 2 = h
phi 3 = h

clutch m=2 n=2 j=1 one one = one
clutch m=2 n=2 j=1 one h = h
clutch m=2 n=2 j=1 h one = h
clutch m=2 n=2 j=1 h h = 0
"""


def test_load_config(tmp_path):
    path = tmp_path / "example.base"
    path.write_text(EXAMPLE)
    config = load_config(path)
    assert config.algebra(2).basis == ("one", "h")
    assert config.phi(3, 2) == {"h": ONE}
    assert config.act(2, (0, 2, 1), {"h": ONE}) == {"h": ONE}
    assert config.clutch(2, 2, 1, {"h": ONE}, {"one": ONE}) == {"h": ONE}
    with pytest.raises(ConfigError):
        config.algebra(4)
    with pytest.raises(ConfigError):
        config.clutch(2, 2, 2, {"one": ONE}, {"one": ONE})


RATIONAL_COMBOS = """
[algebra n=2]
basis one deg 0
basis h deg 1
mul one one = one
mul one h = h
mul h h = 0
phi 0 = 1/2*h + 1/2*h
phi 1 = h - h
phi 2 = 2/3*h
perm 0,2,1 h = 3/2*h + 3/2*h

[algebra n=3]
basis one deg 0
basis h deg 1
mul one one = one
mul one h = h
mul h h = 0

clutch m=2 n=2 j=1 one one = 1/2*one + 1/2*one
clutch m=2 n=2 j=1 one h = h
clutch m=2 n=2 j=1 h one = -h
clutch m=2 n=2 j=1 h h = 0
"""


def assert_coefficient_rule(x):
    for c in x.values():
        assert c and (type(c) is int or c.denominator != 1), x


def test_load_config_keeps_the_coefficient_rule(tmp_path):
    # a parsed combination drops the terms that cancel and keeps an
    # integral coefficient as an int, as do the operations that use it
    path = tmp_path / "rational.base"
    path.write_text(RATIONAL_COMBOS)
    config = load_config(path)
    assert config.phi(2, 0) == {"h": 1} and type(config.phi(2, 0)["h"]) is int
    assert config.phi(2, 1) == {}
    assert config.phi(2, 2) == {"h": Fraction(2, 3)}
    acted = config.act(2, (0, 2, 1), {"one": Fraction(2), "h": Fraction(1, 3)})
    assert acted == {"one": 2, "h": 1}
    assert config.act(2, (0, 2, 1), {"h": 0}) == {}
    half = {"one": Fraction(1, 2), "h": Fraction(1, 2)}
    clutched = config.clutch(2, 2, 1, half, {"one": 1, "h": 1})
    assert clutched == {"one": Fraction(1, 2)}
    assert config.clutch(2, 2, 1, {"one": Fraction(1, 2)}, {"one": 2}) == {"one": 1}
    for x in (acted, clutched, config.clutch(2, 2, 1, {"one": Fraction(1, 2)}, {"one": 2})):
        assert_coefficient_rule(x)
    assert_coefficient_rule(config.algebra(2).mul(half, half))


def test_load_config_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.base"
    bad.write_text("[algebra n=2]\nbasis one deg 0\nmul one two = one\n")
    with pytest.raises(ConfigError, match="unknown basis name"):
        load_config(bad)
    bad.write_text("mul a b = c\n")
    with pytest.raises(ConfigError, match="outside a section"):
        load_config(bad)


SECTION_HEAD = "[algebra n=2]\nbasis one deg 0\nmul one one = one\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[algebra n=2]\nbasis one deg x\n", "line 2: bad degree 'x'"),
        ("[algebra n=two]\n", "line 1: bad arity 'two'"),
        (SECTION_HEAD + "phi x = one\n", "line 4: bad phi slot 'x'"),
        (SECTION_HEAD + "perm 0,a,1 one = one\n", "line 4: bad permutation entry 'a'"),
        # an integer field is an optional minus and ASCII digits, as in
        # the expression parser: no other script's digits, no underscores
        ("[algebra n=2]\nbasis one deg \u0663\n", "line 2: bad degree '\u0663'"),
        ("[algebra n=1_0]\n", "line 1: bad arity '1_0'"),
        (
            SECTION_HEAD + "clutch m=2 n=2 j=\u0661 one one = one\n",
            "line 4: bad clutch j '\u0661'",
        ),
    ],
    ids=[
        "degree",
        "arity",
        "phi-slot",
        "permutation-entry",
        "degree-arabic-indic-digit",
        "arity-underscore",
        "clutch-arabic-indic-digit",
    ],
)
def test_load_config_names_the_line_of_a_bad_integer(tmp_path, text, message):
    bad = tmp_path / "bad.base"
    bad.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(bad)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "line, message",
    [
        # read by position, this loaded as m=3, n=2 and then failed
        # with no line number
        ("clutch n=3 m=2 j=2 one one = one", "line 4: expected 'm=..', got 'n=3'"),
        # read by position, this loaded as m=2, n=2, j=1
        ("clutch x=2 y=2 z=1 one one = one", "line 4: expected 'm=..', got 'x=2'"),
        ("clutch m=2 j=1 n=2 one one = one", "line 4: expected 'n=..', got 'j=1'"),
    ],
    ids=["swapped", "unnamed", "out-of-order"],
)
def test_clutch_fields_are_read_by_name(tmp_path, line, message):
    bad = tmp_path / "bad.base"
    bad.write_text(SECTION_HEAD + line + "\n")
    with pytest.raises(ConfigError) as info:
        load_config(bad)
    assert str(info.value) == message


def test_resolve_base(tmp_path):
    assert resolve_base(None).name == "trivial"
    assert resolve_base("rank2").name == "rank2"
    path = tmp_path / "conf.base"
    path.write_text(EXAMPLE)
    assert resolve_base(str(path)).algebra(2).basis == ("one", "h")
