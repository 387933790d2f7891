"""The library names the benchmark binds, checked without running it.

``bench/tracer.py`` wraps and reads ``tring`` functions by name, and
``bench/worker.py`` imports them, so a rename in ``src`` breaks the
benchmark.  The tracer is loaded by path (it imports only the standard
library); the worker's ``tring`` imports are read from its source.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("target", tracer.TARGETS, ids=[t[0] for t in tracer.TARGETS])
def test_tracer_target_resolves(target):
    _, module_name, attr, class_name, _ = target
    module = importlib.import_module(f"tring.{module_name}")
    if class_name is None:
        assert callable(getattr(module, attr))
    else:
        assert callable(getattr(module, class_name).__dict__[attr])


def test_tracer_installs_restores_and_reads_its_figures():
    from tring import cli, mtilde, rt0

    for fn in (
        rt0._basis_matrix,
        rt0.evaluate_structure_word,
        rt0.evaluate_involution_word,
        mtilde._iota_cached,
    ):
        assert callable(fn.cache_info)
    original = rt0.dot_mul
    t = tracer.Tracer()
    try:
        t.install()
        assert cli.main(["dot", "t1", "t1"]) == 0
    finally:
        t.restore()
    assert rt0.dot_mul is original
    figures = t.figures()
    assert figures["rt0.dot_mul.calls"] == 1
    assert figures["ring.multiply_components.calls"] == 1


def test_tracer_counts_one_call_per_operand_and_product(capsys):
    # the per-layer figures of a request read as one parse per operand,
    # one product kernel call and one format of the result
    from tring import cli

    t = tracer.Tracer()
    try:
        t.install()
        assert cli.main(["dot", "1/2*t1", "2/3*t1 + t0"]) == 0
    finally:
        t.restore()
    assert capsys.readouterr().out == "1/2*t0*t1 + 1/3*t1^2 + 2/3*t1*t2\n"
    figures = t.figures()
    assert figures["poly.parse_polynomial.calls"] == 2
    assert figures["ring.multiply_components.calls"] == 1
    assert figures["poly.format_polynomial.calls"] == 1


def test_tracer_counts_the_terms_of_odot(capsys):
    # the figure is read through the Polynomial components view
    from tring import cli
    from tring.rt0 import RT0Element

    t = tracer.Tracer()
    try:
        t.install()
        assert cli.main(["odot", "t1", "t0"]) == 0
    finally:
        t.restore()
    printed = RT0Element.from_text(capsys.readouterr().out)
    assert len(printed.terms) > 1
    assert t.figures()["rt0.odot.terms_out"] == len(printed.terms)


def test_tracer_sees_the_operad_kernels():
    # the tracer reads these figures with a silent default of 0, so a
    # refactor that bypasses the bound names would zero them unnoticed
    from tring.base import trivial_base
    from tring.mtilde import important_b_check
    from tring.verify import Bounds, run_suite

    t = tracer.Tracer()
    try:
        t.install()
        report = run_suite("operad-axioms", Bounds(max_arity=2, max_degree=1))
    finally:
        t.restore()
    assert report.all_passed()
    figures = t.figures()
    assert figures["mtilde.compose.calls"] > 0
    assert figures["mtilde.slot_insert_cache.entries"] > 0

    t = tracer.Tracer()
    try:
        t.install()
        assert important_b_check(2, (0, 2, 1), (1, 0, 0), 1, trivial_base())
    finally:
        t.restore()
    assert t.figures()["mtilde.mt_mul.calls"] > 0


def test_tracer_counts_the_super_checks():
    # the tracer sums the checked counts from the return values of
    # es_axiom_check (a dict of reports) and vowa_exhaustive (one report),
    # so a change of either return shape shows here, not only in bench/
    from tring.verify import Bounds, run_suite

    t = tracer.Tracer()
    try:
        t.install()
        reports = {name: run_suite(name, Bounds(dim=1)) for name in ("super", "vowa")}
    finally:
        t.restore()
    figures = t.figures()
    for name, figure in (("super", "es_axiom_check"), ("vowa", "vowa_exhaustive")):
        report = reports[name]
        assert report.all_passed()
        checked = sum(int(c.params.rpartition("checked=")[2]) for c in report.checks)
        assert checked > 0
        assert figures[f"superops.{figure}.checked"] == checked


def _tring_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tring":
            yield node.module, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tring":
                    yield alias.name, []


def test_worker_imports_resolve():
    imports = list(_tring_imports(BENCH / "worker.py"))
    assert imports
    for module_name, names in imports:
        module = importlib.import_module(module_name)
        for name in names:
            # as "from module import name" does: an attribute or a submodule
            assert hasattr(module, name) or (
                hasattr(module, "__path__")
                and importlib.util.find_spec(f"{module_name}.{name}")
            ), f"{module_name}.{name}"
