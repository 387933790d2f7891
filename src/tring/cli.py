"""Command-line front end.

Expression commands print one canonical line to stdout; the verify
command prints a verdict report (text or JSON).  Exit codes: 0 on
success, 1 when a verification suite found a failing identity, 2 for
usage, parse, or validation errors (a dot, odot or iota result above
degree MAX_RESULT_DEGREE included), and 3 for an internal error (a
word basis matrix is singular, or a basis expansion does not
re-evaluate to its input, which means a bug), reported as one
``internal error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import NoReturn

from .rt0 import (
    ConsistencyError,
    RT0Element,
    dot_mul,
    evaluate_involution_word,
    evaluate_structure_word,
    iota,
    odot,
    odot_basis_expand,
    odot_basis_expand_iota,
)
from .verify import SUITES, Bounds, run_suite

# ParseError, InvalidElementError, NotInRingError and ConfigError are
# ValueErrors
USAGE_ERRORS = (ValueError, OSError)

_EXPRESSION_COMMANDS = ("eval", "dot", "odot", "iota", "basis")

# argparse reads an argument that starts with "-" as an option, so it
# would reject an expression such as "-2*t1".  No option starts with "-"
# and then a digit, "(" or "t", so main() passes such an argument of an
# expression command behind a NUL, which no command-line argument can
# hold, and _element and the usage errors drop it again.  An argument
# right after a "--" option stays as it is: it may be the option's value.
_NEGATED = re.compile(r"-[\d(t]")
_HIDDEN = "\0"


def _hide_negated(argv: list[str]) -> list[str]:
    if not argv or argv[0] not in _EXPRESSION_COMMANDS:
        return argv
    return argv[:1] + [
        _HIDDEN + arg
        if _NEGATED.match(arg) and not (prev.startswith("--") and "=" not in prev)
        else arg
        for prev, arg in zip(argv, argv[1:])
    ]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        super().error(message.replace(_HIDDEN, ""))


def _element(text: str) -> RT0Element:
    return RT0Element.from_text(text.removeprefix(_HIDDEN))


# A product of degree n has up to 2^n terms.  At degree 12 a dense dot
# of two degree-6 elements takes 0.4 s and 47 MB of peak RSS, and iota
# of a dense degree-12 element 1.5 s and 30 MB, on a 2-CPU Xeon VM.
MAX_RESULT_DEGREE = 12


def _factors(*texts: str, raise_by: int = 0) -> list[RT0Element]:
    """Parse the factors of a product, refusing them when the product is
    nonzero and its degree, their degrees plus raise_by, is above
    MAX_RESULT_DEGREE."""
    factors = [_element(text) for text in texts]
    degree = sum(f.degree() for f in factors) + raise_by
    if all(factors) and degree > MAX_RESULT_DEGREE:
        raise ValueError(
            f"result degree {degree} is above the bound {MAX_RESULT_DEGREE}"
        )
    return factors


def _structure_word_text(word: tuple[int, ...]) -> str:
    def factor(a: int) -> str:
        return "1" if a == 0 else ("t0" if a == 1 else f"t0^{a}")

    return " (*) ".join(factor(a) for a in word)


def _involution_word_text(word: tuple[int, ...]) -> str:
    def factor(a: int) -> str:
        return "1" if a == 0 else ("(t0+t1)" if a == 1 else f"(t0+t1)^{a}")

    return " (*) ".join(factor(a) for a in word)


def cmd_eval(args: argparse.Namespace) -> int:
    print(_element(args.expression))
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    print(dot_mul(*_factors(args.left, args.right)))
    return 0


def cmd_odot(args: argparse.Namespace) -> int:
    print(odot(*_factors(args.left, args.right, raise_by=1)))
    return 0


def cmd_iota(args: argparse.Namespace) -> int:
    print(iota(*_factors(args.expression)))
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    x = _element(args.expression)
    if args.which == "structure":
        expansion = odot_basis_expand(x)
        render = _structure_word_text
        evaluate = evaluate_structure_word
    else:
        expansion = odot_basis_expand_iota(x)
        render = _involution_word_text
        evaluate = evaluate_involution_word
    rebuilt = RT0Element.zero()
    for word, coeff in expansion.items():
        rebuilt = rebuilt + evaluate(word).scale(coeff)
    if rebuilt != x:
        print("internal error: expansion does not re-evaluate to the input", file=sys.stderr)
        return 3
    if not expansion:
        print("0")
        return 0
    ordered = sorted(expansion.items(), key=lambda kv: (len(kv[0]), kv[0]))
    print(" + ".join(f"{c} * ({render(w)})" for w, c in ordered))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.base is not None:
        from .base import resolve_base

        resolve_base(args.base)  # fail fast on a bad path or config
    bounds = Bounds(
        max_degree=args.max_degree,
        max_n=args.max_n,
        max_arity=args.max_arity,
        dim=args.dim,
        seed=args.seed,
        base=args.base,
    )
    report = run_suite(args.suite, bounds)
    if args.json:
        print(json.dumps(report.to_dict(with_timings=args.timings), indent=2))
    else:
        print(report.render_text(with_timings=args.timings))
    return 0 if report.all_passed() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tring",
        description=(
            "Exact computations in the graded ring of truncation-compatible "
            "polynomial families over t0, t1, ... and its verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="parse, validate, and reprint an expression")
    p.add_argument("expression")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dot", help="commutative product of two elements")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("odot", help="degree-raising product of two elements")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_odot)

    p = sub.add_parser("iota", help="apply the involution")
    p.add_argument("expression")
    p.set_defaults(func=cmd_iota)

    p = sub.add_parser("basis", help="expand an element in an odot-word basis")
    p.add_argument("expression")
    p.add_argument(
        "--which",
        choices=("structure", "iota-basis"),
        default="structure",
        help="word basis to expand in (default: structure)",
    )
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--timings", action="store_true", help="include wall-clock durations")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-arity", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--base", default=None, help="base config: path or builtin name")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.set_defaults(func=cmd_verify)
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # one parser per process, built on the first call: building it costs
    # a sizeable share of a short request.  Each cmd_* still reads its
    # module globals at call time, so rebinding one (as the tests and the
    # benchmark tracer do) takes effect.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(_hide_negated(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ConsistencyError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
