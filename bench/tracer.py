"""Per-layer tracing from outside the library.

A :class:`Tracer` wraps the public functions of each ``tring`` module.
It patches every module binding of a wrapped function (``odot`` is bound
in ``rt0``, ``mtilde``, ``cli`` and the package itself), and the class
attribute of a wrapped method.  ``restore`` puts every original back.

Each wrapper keeps a call count, inclusive time, self time (inclusive
time minus the time of traced calls made inside it) and, for a few
kernels, the number of terms produced.  The figures are aggregated per
function in memory rather than kept as one span per call, because the
verify suites make hundreds of thousands of calls.  ``lru_cache``
counters are read through ``cache_info()``; ``mtilde._iota_cached``
captured the unwrapped ``iota`` at import, so it is read, not wrapped.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


def _odot_terms(result: Any) -> int:
    return sum(len(p.terms) for p in result.components.values())


def _poly_terms(result: Any) -> int:
    return len(result.terms)


def _axiom_checked(result: Any) -> int:
    return sum(report.checked for report in result.values())


def _vowa_checked(result: Any) -> int:
    return result[1]


Measure = tuple[str, Callable[[Any], int]] | None

# (span name, module, attribute, owning class or None, result count or
# None).  A result count names a figure and turns each call's return
# value into the number summed into it, such as the terms produced.
TARGETS: tuple[tuple[str, str, str, str | None, Measure], ...] = (
    ("cli.main", "cli", "main", None, None),
    ("poly.parse_polynomial", "poly", "parse_polynomial", None, None),
    ("poly.format_polynomial", "poly", "format_polynomial", None, None),
    ("poly.pushforward", "poly", "pushforward", None, None),
    ("ring.multiply_components", "ring", "multiply_components", None, None),
    ("ring.project_components", "ring", "project_components", None, None),
    ("ring.decode_components", "ring", "decode_components", None, None),
    ("rt0.odot", "rt0", "odot", None, ("terms_out", _odot_terms)),
    ("rt0.q_k", "rt0", "q_k", None, ("terms_out", _poly_terms)),
    ("rt0.dot_mul", "rt0", "dot_mul", None, None),
    ("rt0.iota", "rt0", "iota", None, None),
    ("rt0.odot_basis_expand", "rt0", "odot_basis_expand", None, None),
    ("linalg.solve_exact", "linalg", "solve_exact", None, None),
    ("linalg.is_invertible", "linalg", "is_invertible", None, None),
    ("base.algebra_mul", "base", "mul", "GradedAlgebra", None),
    ("base.clutch", "base", "clutch", "BaseOperadConfig", None),
    ("base.act", "base", "act", "BaseOperadConfig", None),
    ("mtilde.compose", "mtilde", "compose", None, None),
    ("mtilde.act", "mtilde", "act", None, None),
    ("mtilde.mt_mul", "mtilde", "mt_mul", None, None),
    ("superops.es_axiom_check", "superops", "es_axiom_check", None, ("checked", _axiom_checked)),
    ("superops.vowa_exhaustive", "superops", "vowa_exhaustive", None, ("checked", _vowa_checked)),
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0
    count_name: str = ""


class Tracer:
    """Wraps the target functions while installed; one per traced run."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # traced child time of each open call
        self._patches: list[tuple[Any, str, Any]] = []
        self._configs: dict[int, Any] = {}

    # -- spans ---------------------------------------------------------

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` as a traced span called ``name``."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name: str, fn: Callable, measure: Measure) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        count = None
        if measure is not None:
            stat.count_name, count = measure
        stack = self._stack
        perf_counter = time.perf_counter
        configs = self._configs if name == "mtilde.compose" else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                stat.count += count(result)
            if configs is not None:
                base = args[3] if len(args) > 3 else kwargs["base"]
                configs[id(base)] = base
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "tring" or n.startswith("tring.")]
        for name, module_name, attr, class_name, measure in TARGETS:
            module = importlib.import_module(f"tring.{module_name}")
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, measure))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner: Any, key: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    # -- figures -------------------------------------------------------

    def figures(self) -> dict[str, float]:
        """Per-layer figures, keyed by metric name."""
        from tring import mtilde, rt0

        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.total_s"] = stat.total_s
            out[f"{name}.self_s"] = stat.self_s
            if stat.count_name:
                out[f"{name}.{stat.count_name}"] = stat.count
        basis = rt0._basis_matrix.cache_info()
        structure = rt0.evaluate_structure_word.cache_info()
        involution = rt0.evaluate_involution_word.cache_info()
        iota_cache = mtilde._iota_cached.cache_info()
        out["rt0.basis_matrix.hits"] = basis.hits
        out["rt0.basis_matrix.misses"] = basis.misses
        out["rt0.word_eval.hits"] = structure.hits + involution.hits
        out["rt0.word_eval.misses"] = structure.misses + involution.misses
        out["mtilde.iota_cache.hits"] = iota_cache.hits
        out["mtilde.iota_cache.misses"] = iota_cache.misses
        out["mtilde.slot_insert_cache.entries"] = sum(
            len(getattr(config, "_slot_insert_cache", {})) for config in self._configs.values()
        )
        return out
