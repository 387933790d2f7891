"""Pluggable finite-dimensional graded commutative algebras.

A config bundles, per arity n >= 2, a graded algebra with distinguished
degree-one phi classes for the slots 0..n, a permutation action, and
bilinear clutching maps between arities.  These stand in for whatever
coefficient theory the operad layer is run against; the built-in
"trivial" config uses the rationals everywhere, and a rank-two config
adjoins a single square-zero class.

Elements of an algebra are mappings from basis names to rational
coefficients under the coefficient rule of ``poly.add_term`` and
``poly.nonzero_terms``: no zero coefficient is stored, and a coefficient
is an int when it is integral.  Structure constants, clutching tables
and parsed config coefficients follow the same rule, so products over
the built-in bases stay in int arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .poly import Coeff, add_term, nonzero_terms

AlgebraElement = dict[str, Coeff]


class ConfigError(ValueError):
    """Schema or algebra-law violation in a base config."""


class DegreeMismatchError(ValueError):
    """An element fails a homogeneity requirement."""


class GradedAlgebra:
    """Commutative associative unital graded algebra given by structure
    constants on a named basis.  All laws are verified at construction."""

    def __init__(
        self,
        basis: Iterable[tuple[str, int]],
        products: Mapping[tuple[str, str], AlgebraElement],
        label: str = "",
    ):
        self.label = label
        self.degrees: dict[str, int] = {}
        order: list[str] = []
        for name, degree in basis:
            if name in self.degrees:
                raise ConfigError(f"duplicate basis name {name!r}")
            if degree < 0:
                raise ConfigError(f"negative degree for {name!r}")
            self.degrees[name] = degree
            order.append(name)
        self.basis = tuple(order)
        self.table: dict[tuple[str, str], AlgebraElement] = {}
        for (a, b), value in products.items():
            self._check_names((a, b), value)
            value = nonzero_terms({k: Fraction(v) for k, v in value.items()})
            mirror = self.table.get((b, a))
            if mirror is not None and mirror != value:
                raise ConfigError(
                    f"products {a}*{b} and {b}*{a} differ; "
                    "multiplication must be commutative"
                )
            self.table[(a, b)] = value
            self.table[(b, a)] = value
        self.unit = self._find_unit()
        self._validate()

    def _check_names(self, pair: tuple[str, str], value: AlgebraElement) -> None:
        for name in (*pair, *value):
            if name not in self.degrees:
                raise ConfigError(f"unknown basis name {name!r}")

    def _find_unit(self) -> str:
        candidates = []
        for name in self.basis:
            if self.degrees[name]:
                continue
            if all(
                self.table.get((name, other), {}) == {other: 1}
                for other in self.basis
            ):
                candidates.append(name)
        if len(candidates) != 1:
            raise ConfigError(
                "expected exactly one degree-0 basis element acting as unit, "
                f"found {candidates!r}"
            )
        return candidates[0]

    def _validate(self) -> None:
        for a in self.basis:
            for b in self.basis:
                product = self.table.get((a, b), {})
                want = self.degrees[a] + self.degrees[b]
                for name in product:
                    if self.degrees[name] != want:
                        raise ConfigError(
                            f"product {a}*{b} is not homogeneous of degree {want}"
                        )
        for a in self.basis:
            for b in self.basis:
                for c in self.basis:
                    left = self.mul(self.table.get((a, b), {}), {c: 1})
                    right = self.mul({a: 1}, self.table.get((b, c), {}))
                    if left != right:
                        raise ConfigError(
                            f"associativity fails on ({a}, {b}, {c})"
                        )

    # -- arithmetic -----------------------------------------------------

    def mul(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        out: AlgebraElement = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for name, c in self.table.get((a, b), {}).items():
                    add_term(out, name, ca * cb * c)
        return out

    def unit_element(self) -> AlgebraElement:
        return {self.unit: 1}

    def is_homogeneous(self, x: AlgebraElement, degree: int) -> bool:
        return all(self.degrees[name] == degree for name in x)


Perm = tuple[int, ...]


class BaseOperadConfig:
    """Per-arity algebras with phi classes, permutation actions, and
    clutching maps.

    Actions default to the identity and clutching maps must be supplied
    explicitly; built-in configs may generate arities on demand through a
    factory.
    """

    def __init__(
        self,
        name: str = "custom",
        factory: Callable[[int], tuple[GradedAlgebra, list[AlgebraElement]]] | None = None,
        clutch_factory: Callable[
            [int, int, int], dict[tuple[str, str], AlgebraElement]
        ] | None = None,
    ):
        self.name = name
        self._factory = factory
        self._clutch_factory = clutch_factory
        self._algebras: dict[int, GradedAlgebra] = {}
        self._phi: dict[int, dict[int, AlgebraElement]] = {}
        self._actions: dict[int, dict[Perm, dict[str, AlgebraElement]]] = {}
        self._clutch: dict[tuple[int, int, int], dict[tuple[str, str], AlgebraElement]] = {}

    # -- access ----------------------------------------------------------

    def algebra(self, n: int) -> GradedAlgebra:
        if n < 2:
            raise ConfigError("base algebras exist for arity >= 2 only")
        if n not in self._algebras:
            if self._factory is None:
                raise ConfigError(f"no algebra configured for arity {n}")
            algebra, phis = self._factory(n)
            self._algebras[n] = algebra
            self._phi[n] = dict(enumerate(phis))
        return self._algebras[n]

    def phi(self, n: int, slot: int) -> AlgebraElement:
        self.algebra(n)
        classes = self._phi.get(n, {})
        if slot not in classes:
            raise ConfigError(f"no phi class for slot {slot} at arity {n}")
        return dict(classes[slot])

    def act(self, n: int, perm: Perm, x: AlgebraElement) -> AlgebraElement:
        self.algebra(n)  # validates the arity
        stored = self._actions.get(n, {}).get(perm)
        if stored is None:
            return dict(x)
        out: AlgebraElement = {}
        for name, c in x.items():
            for image_name, ci in stored.get(name, {name: 1}).items():
                add_term(out, image_name, ci * c)
        return out

    def clutch(
        self, m: int, n: int, j: int, x: AlgebraElement, y: AlgebraElement
    ) -> AlgebraElement:
        key = (m, n, j)
        table = self._clutch.get(key)
        if table is None and self._clutch_factory is not None:
            table = self._clutch_factory(m, n, j)
            self._clutch[key] = table
        if table is None:
            raise ConfigError(f"no clutching map for m={m}, n={n}, j={j}")
        out: AlgebraElement = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for name, c in table.get((a, b), {}).items():
                    add_term(out, name, ca * cb * c)
        return out

    # -- construction ------------------------------------------------------

    def add_algebra(
        self,
        n: int,
        algebra: GradedAlgebra,
        phi: Mapping[int, AlgebraElement],
    ) -> None:
        for slot, value in phi.items():
            if not algebra.is_homogeneous(value, 1):
                raise ConfigError(
                    f"phi class for slot {slot} at arity {n} is not "
                    "homogeneous of degree 1"
                )
        self._algebras[n] = algebra
        self._phi[n] = {slot: dict(v) for slot, v in phi.items()}

    def add_action(self, n: int, perm: Perm, images: dict[str, AlgebraElement]) -> None:
        algebra = self.algebra(n)
        if sorted(perm) != list(range(n + 1)):
            raise ConfigError(f"{perm} is not a permutation of 0..{n}")
        for name, image in images.items():
            if name not in algebra.degrees:
                raise ConfigError(f"unknown basis name {name!r}")
            want = algebra.degrees[name]
            if not algebra.is_homogeneous(image, want):
                raise ConfigError(
                    f"action image of {name!r} must stay in degree {want}"
                )
        self._actions.setdefault(n, {})[perm] = images

    def add_clutch(
        self,
        m: int,
        n: int,
        j: int,
        table: dict[tuple[str, str], AlgebraElement],
    ) -> None:
        source_a = self.algebra(m)
        source_b = self.algebra(n)
        target = self.algebra(m + n - 1)
        for (a, b), value in table.items():
            if a not in source_a.degrees or b not in source_b.degrees:
                raise ConfigError(f"unknown clutch source pair ({a!r}, {b!r})")
            for name in value:
                if name not in target.degrees:
                    raise ConfigError(f"unknown clutch target name {name!r}")
        self._clutch[(m, n, j)] = table


# ---------------------------------------------------------------------------
# Built-in configs
# ---------------------------------------------------------------------------


def trivial_base() -> BaseOperadConfig:
    """Rationals at every arity, zero phi classes, scalar clutching."""

    def factory(n: int) -> tuple[GradedAlgebra, list[AlgebraElement]]:
        algebra = GradedAlgebra(
            [("one", 0)], {("one", "one"): {"one": 1}}, label=f"Q(n={n})"
        )
        return algebra, [{} for _ in range(n + 1)]

    def clutch_factory(m: int, n: int, j: int):
        return {("one", "one"): {"one": 1}}

    return BaseOperadConfig("trivial", factory, clutch_factory)


def rank2_base() -> BaseOperadConfig:
    """The square-zero extension Q[h]/(h^2) with phi = h in every slot."""

    def factory(n: int) -> tuple[GradedAlgebra, list[AlgebraElement]]:
        algebra = GradedAlgebra(
            [("one", 0), ("h", 1)],
            {
                ("one", "one"): {"one": 1},
                ("one", "h"): {"h": 1},
                ("h", "h"): {},
            },
            label=f"Q[h]/h^2(n={n})",
        )
        return algebra, [{"h": 1} for _ in range(n + 1)]

    def clutch_factory(m: int, n: int, j: int):
        return {
            ("one", "one"): {"one": 1},
            ("one", "h"): {"h": 1},
            ("h", "one"): {"h": 1},
            ("h", "h"): {},
        }

    return BaseOperadConfig("rank2", factory, clutch_factory)


BUILTIN_BASES: dict[str, Callable[[], BaseOperadConfig]] = {
    "trivial": trivial_base,
    "rank2": rank2_base,
}


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def _parse_combo(text: str, line_no: int) -> AlgebraElement:
    """Parse a linear combination such as '2*h + one - 1/2*h'."""
    text = text.strip()
    if text == "0":
        return {}
    out: AlgebraElement = {}
    for chunk in text.replace("-", "+ -").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        if "*" in chunk:
            coeff_text, name = (part.strip() for part in chunk.split("*", 1))
            try:
                coeff = Fraction(coeff_text)
            except (ValueError, ZeroDivisionError) as err:
                raise ConfigError(
                    f"line {line_no}: bad coefficient {coeff_text!r}"
                ) from err
        else:
            name = chunk
            coeff = 1
        if not name or not name[0].isalpha():
            raise ConfigError(f"line {line_no}: bad basis name {name!r}")
        add_term(out, name, sign * coeff)
    return out


def load_config(path: str | Path) -> BaseOperadConfig:
    """Load a base config from a line-oriented text file.

    Sections `[algebra n=<arity>]` declare a basis with degrees, the
    multiplication table, phi classes, and optional permutation images;
    `clutch m=.. n=.. j=..` lines may appear anywhere.  Omitted products
    are zero and omitted permutation images are the identity.
    """
    config = BaseOperadConfig(name=str(path))
    sections: dict[int, dict] = {}
    clutch_lines: list[tuple[int, str]] = []
    current: dict | None = None

    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not (line.startswith("[algebra") and line.endswith("]")):
                raise ConfigError(f"line {line_no}: bad section header {line!r}")
            inner = line[1:-1].split()
            if len(inner) != 2 or not inner[1].startswith("n="):
                raise ConfigError(f"line {line_no}: bad section header {line!r}")
            arity = int(inner[1][2:])
            if arity < 2:
                raise ConfigError(f"line {line_no}: arity must be >= 2")
            current = sections.setdefault(
                arity, {"basis": [], "mul": {}, "phi": {}, "perm": []}
            )
            continue
        if line.startswith("clutch "):
            clutch_lines.append((line_no, line))
            continue
        if current is None:
            raise ConfigError(f"line {line_no}: directive outside a section")
        words = line.split()
        if words[0] == "basis":
            if len(words) != 4 or words[2] != "deg":
                raise ConfigError(f"line {line_no}: expected 'basis <name> deg <d>'")
            current["basis"].append((words[1], int(words[3])))
        elif words[0] == "mul":
            head, _, combo = line.partition("=")
            parts = head.split()
            if len(parts) != 3 or not combo:
                raise ConfigError(f"line {line_no}: expected 'mul <a> <b> = <combo>'")
            current["mul"][(parts[1], parts[2])] = _parse_combo(combo, line_no)
        elif words[0] == "phi":
            head, _, combo = line.partition("=")
            parts = head.split()
            if len(parts) != 2 or not combo:
                raise ConfigError(f"line {line_no}: expected 'phi <j> = <combo>'")
            current["phi"][int(parts[1])] = _parse_combo(combo, line_no)
        elif words[0] == "perm":
            head, _, combo = line.partition("=")
            parts = head.split()
            if len(parts) != 3 or not combo:
                raise ConfigError(
                    f"line {line_no}: expected 'perm <p0,p1,...> <basis> = <combo>'"
                )
            perm = tuple(int(v) for v in parts[1].split(","))
            current["perm"].append((perm, parts[2], _parse_combo(combo, line_no)))
        else:
            raise ConfigError(f"line {line_no}: unknown directive {words[0]!r}")

    for arity, section in sorted(sections.items()):
        algebra = GradedAlgebra(
            section["basis"], section["mul"], label=f"arity-{arity}"
        )
        config.add_algebra(arity, algebra, section["phi"])
        perm_images: dict[Perm, dict[str, AlgebraElement]] = {}
        for perm, name, image in section["perm"]:
            perm_images.setdefault(perm, {})[name] = image
        for perm, images in perm_images.items():
            config.add_action(arity, perm, images)

    for line_no, line in clutch_lines:
        # the parameters carry their own '=' signs, so split at the last one
        head, _, combo = line.rpartition("=")
        parts = head.split()
        if len(parts) != 6 or not combo:
            raise ConfigError(
                f"line {line_no}: expected 'clutch m=.. n=.. j=.. <a> <b> = <combo>'"
            )
        try:
            m = int(parts[1].split("=")[1])
            n = int(parts[2].split("=")[1])
            j = int(parts[3].split("=")[1])
        except (IndexError, ValueError) as err:
            raise ConfigError(f"line {line_no}: bad clutch parameters") from err
        key = (m, n, j)
        table = config._clutch.setdefault(key, {})
        table[(parts[4], parts[5])] = _parse_combo(combo, line_no)

    for (m, n, j), table in list(config._clutch.items()):
        config.add_clutch(m, n, j, table)
    return config


def resolve_base(spec: str | None) -> BaseOperadConfig:
    """Turn a CLI argument into a config: a built-in name or a file path."""
    if spec is None:
        return trivial_base()
    if spec in BUILTIN_BASES:
        return BUILTIN_BASES[spec]()
    return load_config(spec)
