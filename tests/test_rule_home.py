"""The coefficient rule has one home, checked on the source without running it.

Every sparse term map keeps no zero term and stores an integral
coefficient as an int.  ``poly.nonzero_terms`` and ``poly.add_term`` are
the code that turns an integral coefficient into an int, and the
``SuperSpace`` constructor does the same for the entries of its pairing
matrix.  A new function that compares a ``.denominator`` with 1 is a
further hand-written copy of the rule, and this test names it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tring"

RULE_HOMES = {
    "poly.nonzero_terms",
    "poly.add_term",
    "superops.SuperSpace.__init__",
}


def _is_denominator_one(node: ast.Compare) -> bool:
    sides = [node.left, *node.comparators]
    return any(
        isinstance(side, ast.Attribute) and side.attr == "denominator" for side in sides
    ) and any(isinstance(side, ast.Constant) and side.value == 1 for side in sides)


def _rule_functions(module: str, tree: ast.AST) -> set[str]:
    found: set[str] = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Compare) and _is_denominator_one(child):
                found.add(".".join((module,) + scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_coefficient_rule_has_one_home():
    found: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _rule_functions(path.stem, ast.parse(path.read_text(), str(path)))
    assert found == RULE_HOMES


def test_the_scan_sees_a_copy_of_the_rule():
    source = (
        "class Term:\n"
        "    def canonical(self, c):\n"
        "        return c.numerator if c.denominator == 1 else c\n"
        "def check(c):\n"
        "    return 1 != c.denominator\n"
        "def unrelated(c):\n"
        "    return lcm(c.denominator, 2)\n"
    )
    assert _rule_functions("m", ast.parse(source)) == {"m.Term.canonical", "m.check"}
