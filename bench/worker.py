"""One workload run inside a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object on its last stdout line.  The expression
stream runs for a time budget or a fixed number of requests; a verify
workload runs its suites once, in order, in this process.  Each request
or suite is timed as measured and at reference host speed
(:mod:`calibrate`).  With ``--trace`` the library is wrapped by
:class:`tracer.Tracer` and the per-layer figures are added to the
result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import jsonschema
import workloads
from calibrate import Sampler
from tracer import Tracer

import tring
from tring import cli
from tring.ring import project_components
from tring.rt0 import RT0Element, iota, q_k
from tring.verify import REPORT_SCHEMA, Bounds, run_suite

EXPECTED = Path(__file__).resolve().parent / "expected"
PREFIX = workloads.PREFIX
INSTANCE_COUNTS = re.compile(r"checked=(\d+)|\((\d+) instances\)|(\d+) monomials")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# expr-stream
# ---------------------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[int | str, str, str, float, float]:
    """Send one request; returns exit code, stdout, stderr, start, end."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code: int | str = cli.main(argv)
    except Exception as exc:  # a crash is a failed request, not a dead run
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), start, time.perf_counter()


def element_terms(element: RT0Element) -> int:
    return sum(len(p.terms) for p in element.components.values())


def check_response(
    command: str, degrees: tuple[int, ...], argv: list[str], out: str, full: bool
) -> tuple[str | None, int]:
    """None when the response is right, else a one-line reason; and the
    number of terms the checks compared.

    Every response must parse back to an element of the expected degree.
    The full checks recompute it by an independent path: a dot product
    through the projection homomorphism, an odot product through the
    truncation one level above its degree, and iota by applying it again.
    """
    if command.startswith("basis-"):
        return (None if out.strip() else "empty basis expansion"), 0
    line = out.rstrip("\n")
    result = RT0Element.from_text(line)
    operands = [RT0Element.from_text(text) for text in argv[1:]]
    if str(result) != line:
        return "output does not reprint to itself", 0
    degree = sum(degrees) + (command == "odot")
    if not result.is_homogeneous() or result.degree() != degree:
        return f"result is not homogeneous of degree {degree}", 0
    if command == "eval":
        return (None if result == operands[0] else "eval changed the element"), element_terms(result)
    if command == "iota":
        return (None if iota(result) == operands[0] else "iota(iota(x)) != x"), element_terms(operands[0])
    if not full:
        return None, 0
    x, y = operands
    if command == "dot":
        d = max(result.components)
        lhs = project_components(result.components, d)
        rhs = project_components(x.components, d) * project_components(y.components, d)
        return (None if lhs == rhs else f"level-{d} projection is not the product of projections"), len(rhs.terms)
    level = degree + 1
    truncation = q_k(x, y, level)
    if project_components(result.components, level) != truncation:
        return f"level-{level} projection differs from q_k", len(truncation.terms)
    return None, len(truncation.terms)


def run_stream(seed: int, seconds: float | None, count: int | None) -> dict:
    """Closed loop with one client: each request is sent when the previous
    one has answered, until the time budget or the request count is used."""
    stream = workloads.request_stream(seed)
    done = []
    spans = []
    start = time.perf_counter()
    while True:
        if count is not None and len(done) >= count:
            break
        if count is None and time.perf_counter() - start >= seconds:
            break
        request_class, argv = next(stream)
        code, out, err, *span = call_cli(argv)
        spans.append(span)
        done.append((request_class, argv, code, out, err))
    return {
        "requests": len(done),
        "wall_s": time.perf_counter() - start,
        "spans": spans,
        "peak_rss_mb": peak_rss_mb(),
        "responses": done,
    }


def check_stream(result: dict, seed: int, record: bool) -> None:
    """Gate every response, untimed, after the stream has ended."""
    done = result.pop("responses")
    expected = []
    if not record:
        expected = json.loads((EXPECTED / "expr-stream.json").read_text())["digests"].get(str(seed), [])
    failures = []
    checked = 0  # fully checked responses plus the terms their checks compared
    for i, ((command, degrees), argv, code, out, err) in enumerate(done):
        terms = 0
        if code != 0 or err:
            reason = f"exit {code}: {err.strip()[:200]}"
        elif i < len(expected) and digest(out) != expected[i]:
            reason = "stdout differs from the recorded output"
        else:
            try:
                reason, terms = check_response(command, degrees, argv, out, full=i < PREFIX)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"request {i} {argv[0]}: {reason}")
        if i < PREFIX:
            checked += 1 + terms
    result["attempted"] = len(done)
    result["checked"] = checked
    result["failures"] = failures
    if record:
        result["digests"] = [digest(out) for _, _, _, out, _ in done]


# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------


def validate(report: dict) -> str | None:
    try:
        jsonschema.validate(report, REPORT_SCHEMA)
    except jsonschema.ValidationError as err:
        return f"report violates REPORT_SCHEMA: {err.message}"
    return None


def checked_total(checks: list[dict]) -> int:
    """Number of checks plus every instance count their params print."""
    total = len(checks)
    for check in checks:
        for match in INSTANCE_COUNTS.finditer(check["params"]):
            total += int(next(group for group in match.groups() if group))
    return total


def run_verify(workload: str, seed: int, tracer: Tracer | None) -> dict:
    """The workload's suites in order, in this process, as ``verify all``
    runs them."""
    spans = []
    checks: list[dict] = []
    failures = []
    start = time.perf_counter()
    for suite, bounds in workloads.VERIFY_SUITES[workload]:
        suite_start = time.perf_counter()
        try:
            args = (suite, Bounds(seed=seed, **bounds))
            report = tracer.span(f"verify.{suite}", run_suite, *args) if tracer else run_suite(*args)
        except Exception as exc:
            failures.append(f"suite {suite} raised {type(exc).__name__}: {exc}")
            continue
        finally:
            spans.append((suite_start, time.perf_counter()))
        data = report.to_dict()
        problem = validate(data)
        if problem:
            failures.append(f"suite {suite}: {problem}")
        for check in data["checks"]:
            checks.append(dict(check, id=f"{suite}/{check['id']}"))
            if not check["pass"]:
                failures.append(f"check {suite}/{check['id']} failed: {check['counterexample']}")
    return {
        "requests": len(spans),
        "wall_s": time.perf_counter() - start,
        "spans": spans,
        "check_ids": [check["id"] for check in checks],
        "attempted": len(checks),
        "checked": checked_total(checks),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
    }


def check_verify(result: dict, workload: str, record: bool) -> None:
    """The check ids and checked_total must equal the recorded ones."""
    if record:
        return
    want = json.loads((EXPECTED / "verify.json").read_text())[workload]
    if result["check_ids"] != want["check_ids"]:
        result["failures"].append("check ids differ from the recorded ones")
    if result["checked"] != want["checked_total"]:
        result["failures"].append(f"checked_total {result['checked']} != recorded {want['checked_total']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="stream time budget")
    parser.add_argument("--requests", type=int, default=None, help="fixed stream length")
    parser.add_argument("--trace", action="store_true", help="wrap the library and report per-layer figures")
    parser.add_argument("--record", action="store_true", help="report outputs instead of comparing them")
    args = parser.parse_args(argv)
    if (args.seconds is None) == (args.requests is None) and args.workload == "expr-stream":
        parser.error("expr-stream needs exactly one of --seconds and --requests")

    tracer = Tracer() if args.trace else None
    sampler = Sampler()
    with tracer or contextlib.nullcontext(), sampler:
        if args.workload == "expr-stream":
            result = run_stream(args.seed, args.seconds, args.requests)
        else:
            result = run_verify(args.workload, args.seed, tracer)
    if tracer:
        result["figures"] = tracer.figures()
    spans = result.pop("spans")
    speeds = sampler.speeds()
    result["latencies_s"] = [end - start for start, end in spans]
    result["adjusted_s"] = [sampler.adjusted(start, end, speeds) for start, end in spans]
    result["speed"] = statistics.median(speeds)
    if args.workload == "expr-stream":
        check_stream(result, args.seed, args.record)
    else:
        check_verify(result, args.workload, args.record)
    result["src"] = str(Path(tring.__file__).resolve().parent.parent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
