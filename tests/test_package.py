"""The package namespace and what a fresh process imports.

``import tring`` loads no submodule: its names resolve on first access,
and an expression command loads only the modules it runs.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tring
from tring import cli, rt0, verify

# every name the package re-exports, by the submodule that defines it
EXPORTS = {
    "poly": [
        "IncreasingMap",
        "ParseError",
        "Polynomial",
        "enumerate_increasing_maps",
        "format_polynomial",
        "parse_polynomial",
        "pullback",
        "pushforward",
    ],
    "ring": [
        "NotInRingError",
        "RdElement",
        "RElement",
        "check_component",
        "decode_rd",
        "project_to_level",
        "r_mul",
        "restrict_level",
    ],
    "rt0": [
        "ClassConstants",
        "ConsistencyError",
        "InvalidElementError",
        "RT0Element",
        "class_constants",
        "dot_mul",
        "dot_power",
        "iota",
        "leading_term_check",
        "monomials_of_degree",
        "odot",
        "odot_basis_expand",
        "odot_basis_expand_iota",
        "q_k",
        "structure_words",
        "substitute_class",
    ],
    "base": [
        "BaseOperadConfig",
        "ConfigError",
        "GradedAlgebra",
        "load_config",
        "rank2_base",
        "trivial_base",
    ],
    "superops": [
        "DualBasisPair",
        "SuperSpace",
        "SuperTensor",
        "es_axiom_check",
        "es_compose",
        "es_permute",
        "pair",
        "vowa_check",
        "vowa_exhaustive",
    ],
    "mtilde": [
        "MTildeElement",
        "act",
        "compose",
        "important_b_check",
        "morphism_F",
        "mt_mul",
        "operad_axiom_check",
        "psi_phi_classes",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
SUBMODULES = ["poly", "ring", "rt0", "linalg", "base", "superops", "mtilde"]


def _env() -> dict[str, str]:
    # the child imports the same tring as this process, installed or not
    package_root = str(Path(tring.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""),
    )


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=_env(), timeout=60
    )


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_a_reexported_name_is_its_submodules_object(module, name):
    assert getattr(tring, name) is getattr(importlib.import_module(f"tring.{module}"), name)


@pytest.mark.parametrize("module", SUBMODULES)
def test_a_submodule_is_an_attribute(module):
    assert getattr(tring, module) is importlib.import_module(f"tring.{module}")


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from tring import *", namespace)
    listed = dir(tring)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"tring.{module}"), name)
        assert name in listed
    for module in SUBMODULES:
        assert namespace[module] is importlib.import_module(f"tring.{module}")
        assert module in listed
    assert "__version__" in listed


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tring.no_such_name


def test_a_name_follows_a_rebinding_in_its_module(monkeypatch):
    original = rt0.odot

    def patched(x, y):
        return original(x, y)

    monkeypatch.setattr(rt0, "odot", patched)
    assert tring.odot is patched
    monkeypatch.undo()
    assert tring.odot is original


# what a fresh process imports for the expression commands, then verify
COLD_START = """
import sys
before = set(sys.modules)
import contextlib, io
import tring
from tring import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["eval", "1"]),
        cli.main(["dot", "t1", "t0+t1"]),
        cli.main(["basis", "t0*t1 + t1^2 + 2*t1*t2"]),
    ]
    loaded = sorted(set(sys.modules) - before)
    codes.append(cli.main(["verify", "identity"]))
import json
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_an_expression_command_loads_only_what_it_runs():
    result = _run("-c", COLD_START)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0, 0, 0, 0]
    loaded = report["loaded"]
    for module in ("tring.verify", "tring.superops", "tring.mtilde", "tring.base"):
        assert module not in loaded
    assert "dataclasses" not in loaded
    assert "json" not in loaded
    assert {"tring.cli", "tring.rt0", "tring.ring", "tring.poly", "tring.linalg"} <= set(loaded)


def test_python_dash_m_tring():
    result = _run("-m", "tring", "eval", "t1")
    assert (result.returncode, result.stdout, result.stderr) == (0, b"t1\n", b"")
    via_package = _run("-m", "tring", "verify", "identity")
    via_cli = _run("-m", "tring.cli", "verify", "identity")
    assert via_package.returncode == via_cli.returncode == 0
    assert via_package.stdout == via_cli.stdout
    assert via_package.stderr == via_cli.stderr == b""


def test_suite_names_are_the_sorted_suites():
    assert list(cli.SUITE_NAMES) == sorted(verify.SUITES)


# recorded from the parser that read its choices from verify.SUITES
VERIFY_USAGE = """\
usage: tring verify [-h] [--json] [--timings] [--max-degree MAX_DEGREE]
                    [--max-n MAX_N] [--max-arity MAX_ARITY] [--dim DIM]
                    [--base BASE] [--seed SEED]
                    {dim,identity,important,iota,odot,operad-axioms,ring,structure,super,vowa,all}
"""
VERIFY_HELP = (
    VERIFY_USAGE
    + """
positional arguments:
  {dim,identity,important,iota,odot,operad-axioms,ring,structure,super,vowa,all}

options:
  -h, --help            show this help message and exit
  --json                emit a JSON report
  --timings             include wall-clock durations
  --max-degree MAX_DEGREE
  --max-n MAX_N
  --max-arity MAX_ARITY
  --dim DIM
  --base BASE           base config: path or builtin name
  --seed SEED           seed for randomized checks
"""
)
INVALID_SUITE = (
    VERIFY_USAGE
    + "tring verify: error: argument suite: invalid choice: 'nosuch' (choose from"
    " 'dim', 'identity', 'important', 'iota', 'odot', 'operad-axioms', 'ring',"
    " 'structure', 'super', 'vowa', 'all')\n"
)


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["verify", "--help"], 0, VERIFY_HELP, ""),
        (["verify", "nosuch"], 2, "", INVALID_SUITE),
    ],
    ids=["help", "invalid-choice"],
)
def test_verify_help_and_invalid_suite_are_unchanged(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args(argv)
    assert info.value.code == code
    assert capsys.readouterr() == (out, err)
