"""Benchmark of tring through its public entry points.

Run from the root of a checkout:

    python3 bench/run.py --workload expr-stream --seed 1 --seconds 30 --trace 0

Every workload run happens in fresh child interpreters that import
``tring`` from the checkout's ``src``, one process and one thread at a
time.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it reruns the workload on a fixed amount of work, once
plain and once with every public layer function wrapped, and prints the
per-layer figures with the tracing overhead.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when a correctness gate fails and 2 when the checkout holds no
``src/tring``.  ``--workload all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calibrate import Helper

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # children are killed in time for a run to end within 180 s
SETUP_PROBES = 7
PREFIX = workloads.PREFIX
SUITE_NAMES = [suite for suites in workloads.VERIFY_SUITES.values() for suite, _ in suites]

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "verdict_s": "s",
    "checked_total": "count",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; the trace's figures carry the same names
PER_LAYER = {
    "cli.main.self_s": "s",
    "poly.parse_polynomial.self_s": "s",
    "poly.format_polynomial.self_s": "s",
    "poly.pushforward.calls": "count",
    "poly.pushforward.self_s": "s",
    "ring.multiply_components.calls": "count",
    "ring.multiply_components.self_s": "s",
    "ring.project_components.calls": "count",
    "ring.project_components.self_s": "s",
    "ring.decode_components.calls": "count",
    "ring.decode_components.self_s": "s",
    "rt0.odot.calls": "count",
    "rt0.odot.self_s": "s",
    "rt0.odot.terms_out": "count",
    "rt0.q_k.self_s": "s",
    "rt0.q_k.terms_out": "count",
    "rt0.odot.yield": "ratio",
    "rt0.dot_mul.calls": "count",
    "rt0.dot_mul.self_s": "s",
    "rt0.iota.calls": "count",
    "rt0.iota.self_s": "s",
    "rt0.odot_basis_expand.self_s": "s",
    "rt0.basis_matrix.hits": "count",
    "rt0.basis_matrix.misses": "count",
    "rt0.word_eval.hits": "count",
    "rt0.word_eval.misses": "count",
    "linalg.solve_exact.calls": "count",
    "linalg.solve_exact.self_s": "s",
    "linalg.is_invertible.calls": "count",
    "linalg.is_invertible.self_s": "s",
    "base.algebra_mul.calls": "count",
    "base.algebra_mul.self_s": "s",
    "base.clutch.calls": "count",
    "base.clutch.self_s": "s",
    "base.act.calls": "count",
    "base.act.self_s": "s",
    "mtilde.compose.calls": "count",
    "mtilde.compose.self_s": "s",
    "mtilde.act.calls": "count",
    "mtilde.act.self_s": "s",
    "mtilde.mt_mul.calls": "count",
    "mtilde.mt_mul.self_s": "s",
    "mtilde.slot_insert_cache.entries": "count",
    "mtilde.iota_cache.hits": "count",
    "mtilde.iota_cache.misses": "count",
    "superops.es_axiom_check.total_s": "s",
    "superops.es_axiom_check.checked": "count",
    "superops.vowa_exhaustive.total_s": "s",
    "superops.vowa_exhaustive.checked": "count",
    **{f"verify.{suite}.{part}": "s" for suite in SUITE_NAMES for part in ("total_s", "self_s")},
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}

# What a wrapper outside the library cannot see.
UNMEASURED = {
    "superops kernels below es_axiom_check/vowa_exhaustive": "private functions on raw tuples; "
    "finer spans need tracing inside the program",
    "waiting time per layer": "one thread and no queues, so no layer waits on another",
    "rt0.iota through mtilde": "mtilde._iota_cached holds the unwrapped iota; read as mtilde.iota_cache",
}

# A fresh interpreter imports tring and makes a first trivial call, then
# prints the (system-wide) monotonic clock.
SETUP_CALL = {
    "expr-stream": (
        "import contextlib, io\n"
        "from tring import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['eval', '1'])\n"
    ),
    "verify": (
        "from tring.base import resolve_base\n"
        "from tring.verify import Bounds\n"
        "Bounds()\n"
        "resolve_base(None)\n"
        "code = 0\n"
    ),
}
SETUP_REPORT = (
    "import time\n"
    "print(time.perf_counter())\n"
    "raise SystemExit(code)\n"
)
# Host-speed probes taken just before and just after each set-up child.
SPEED_PROBES = (3, 4)


class RunFailed(Exception):
    """A child process crashed, timed out or printed no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(started: float) -> float:
    """Seconds a child may still take so that the run meets its deadline."""
    return max(5.0, DEADLINE_S - (time.perf_counter() - started))


def run_child(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run one worker interpreter; returns its result and wall time."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise RunFailed(f"worker {args} timed out after {timeout:.0f} s") from err
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if Path(result["src"]) != SRC:
        raise RunFailed(f"worker imported tring from {result['src']}, not {SRC}")
    return result, wall


def setup_seconds(workload: str, started: float) -> tuple[float, float]:
    """Median time for a fresh interpreter to import tring and make a
    first trivial call: at reference host speed, and as measured.  The
    host speed comes from probes in a helper interpreter around the child."""
    code = "import tring\n" + SETUP_CALL["expr-stream" if workload == "expr-stream" else "verify"] + SETUP_REPORT
    before, after = SPEED_PROBES
    adjusted, raw = [], []
    with Helper() as helper:
        for _ in range(SETUP_PROBES):
            speeds = [helper.probe() for _ in range(before)]
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True, text=True,
                    timeout=remaining(started),
                )
            except subprocess.TimeoutExpired as err:
                raise RunFailed("set-up probe timed out") from err
            if proc.returncode != 0:
                raise RunFailed(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            raw.append(float(proc.stdout) - start)
            speeds += [helper.probe() for _ in range(after)]
            adjusted.append(raw[-1] * statistics.median(speeds))
    return statistics.median(adjusted), statistics.median(raw)


def timing_metrics(
    latencies: list[float], busy_s: float, verdict_s: float, method: str = "exclusive"
) -> dict[str, float]:
    p90 = statistics.quantiles(latencies, n=10, method=method)[8] if len(latencies) > 1 else latencies[0]
    return {
        "throughput_rps": len(latencies) / busy_s,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": p90 * 1000,
        "verdict_s": verdict_s,
    }


def stream_timings(result: dict, key: str) -> dict[str, float]:
    # whole cycles only, so that the seeded order of the last, partial
    # cycle does not weigh the figures toward its first classes
    cycle = len(workloads.REQUEST_CYCLE)
    latencies = result[key][: max(PREFIX, len(result[key]) // cycle * cycle)]
    return timing_metrics(latencies, sum(latencies), sum(latencies[:PREFIX]))


def verify_timings(passes: list[dict], key: str) -> dict[str, float]:
    # a suite's latency is its median over the passes
    per_suite = [statistics.median(values) for values in zip(*(p[key] for p in passes))]
    pass_times = [sum(p[key]) for p in passes]
    # over a handful of suites the exclusive method extrapolates past the
    # slowest one; the inclusive one stays inside the data and cannot rise
    # when a suite gets faster
    return timing_metrics(per_suite, statistics.mean(pass_times), statistics.median(pass_times), "inclusive")


def end_to_end(workload: str, seed: int, seconds: int, started: float) -> tuple[dict, dict, list[dict]]:
    """The end-to-end metrics at reference host speed, the same timings
    as measured, and the worker results."""
    setup, raw_setup = setup_seconds(workload, started)
    if workload == "expr-stream":
        result, _ = run_child([workload, "--seed", str(seed), "--seconds", str(seconds)], remaining(started))
        if result["requests"] < PREFIX:
            result["failures"].append(f"stream answered fewer than {PREFIX} requests")
        passes = [result]
        metrics, raw = stream_timings(result, "adjusted_s"), stream_timings(result, "latencies_s")
        metrics["checked_total"] = result["checked"]
    else:
        # one pass per fresh interpreter, as many as fit in the budget
        passes = []
        budget_start = time.perf_counter()
        while True:
            result, wall = run_child([workload, "--seed", str(seed)], remaining(started))
            passes.append(result)
            if time.perf_counter() - budget_start + wall > seconds:
                break
        metrics, raw = verify_timings(passes, "adjusted_s"), verify_timings(passes, "latencies_s")
        metrics["checked_total"] = statistics.median(p["checked"] for p in passes)
    metrics["setup_s"] = setup
    raw["setup_s"] = raw_setup
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    raw["host_speed"] = statistics.median(p["speed"] for p in passes)
    raw["latency_samples"] = sum(len(p["latencies_s"]) for p in passes)
    return metrics, raw, passes


def per_layer(workload: str, seed: int, started: float) -> tuple[dict, list[dict]]:
    args = [workload, "--seed", str(seed)]
    if workload == "expr-stream":
        args += ["--requests", str(PREFIX)]
    plain, _ = run_child(args, remaining(started))
    traced, _ = run_child(args + ["--trace"], remaining(started))
    figures = traced["figures"]
    metrics = {name: figures.get(name, 0) for name in PER_LAYER}
    q_k_terms = figures.get("rt0.q_k.terms_out", 0)
    metrics["rt0.odot.yield"] = figures.get("rt0.odot.terms_out", 0) / q_k_terms if q_k_terms else 0.0
    # both at reference host speed, so that host phases do not hide the cost
    metrics["trace.untraced_s"] = sum(plain["adjusted_s"])
    metrics["trace.overhead_s"] = sum(traced["adjusted_s"]) - metrics["trace.untraced_s"]
    return metrics, [plain, traced]


def environment() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_1m": os.getloadavg()[0],
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload, print its figures and return its result object."""
    started = time.perf_counter()
    try:
        if trace:
            metrics, children = per_layer(workload, seed, started)
            units = PER_LAYER
        else:
            metrics, raw, children = end_to_end(workload, seed, seconds, started)
            units = END_TO_END
            for name, value in raw.items():
                print(f"as measured: {name} {value:.6g}")
    except RunFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    attempted = sum(child["attempted"] for child in children)
    failures = [failure for child in children for failure in child["failures"]]
    failed = min(len(failures), attempted)
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if trace:
        for what, why in UNMEASURED.items():
            print(f"not measured: {what}: {why}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS + ("all",),
        help="one workload, or all of them in turn with metrics named <workload>/<metric>",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tring" / "__init__.py").is_file():
        print(f"error: no tring sources at {SRC}; run from the root of a tring checkout", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads.WORKLOADS:
            print(f"workload {workload}")
            part = run_workload(workload, args.seed, args.seconds, args.trace)
            result["correct"] = result["correct"] and part["correct"]
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
            result["metrics"].update({f"{workload}/{name}": value for name, value in part["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
