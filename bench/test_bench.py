"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

import tring  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_same_requests():
    assert workloads.requests(7, 40) == workloads.requests(7, 40)
    assert workloads.requests(7, 40) != workloads.requests(8, 40)


def test_every_cycle_holds_each_request_class_once():
    stream = workloads.request_stream(3)
    for _ in range(3):
        cycle = [next(stream)[0] for _ in workloads.REQUEST_CYCLE]
        assert sorted(cycle) == sorted(workloads.REQUEST_CYCLE)


def test_random_elements_are_dense_and_valid():
    from tring.rt0 import RT0Element

    rng = workloads.random.Random(0)
    for degree in range(6):
        assert len(set(workloads.monomials(degree))) == 2**degree
        element = RT0Element.from_text(workloads.random_element(rng, degree))
        assert element.is_homogeneous() and element.degree() == degree


def _bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "tring" or name.startswith("tring."):
            out.update({(name, key): value for key, value in vars(module).items()})
    for _, module_name, attr, class_name, _ in TARGETS:
        if class_name:
            owner = getattr(sys.modules[f"tring.{module_name}"], class_name)
            out[(class_name, attr)] = owner.__dict__[attr]
    return out


def test_tracer_patches_every_binding_and_restores_them():
    from tring import cli, mtilde, poly, ring, rt0
    from tring.base import GradedAlgebra

    before = _bindings()
    original_odot = rt0.odot
    with Tracer():
        for module in (rt0, mtilde, cli, tring):
            assert module.odot is not original_odot
            assert module.odot.__wrapped__ is original_odot
        assert ring.pushforward is poly.pushforward is not before[("tring.poly", "pushforward")]
        assert GradedAlgebra.__dict__["mul"] is not before[("GradedAlgebra", "mul")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_counts_and_self_time():
    from tring import cli

    tracer = Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["odot", "t1", "t0"]) == 0
    figures = tracer.figures()
    assert figures["cli.main.calls"] == 1
    assert figures["rt0.odot.calls"] == 1
    assert figures["rt0.q_k.calls"] == 1
    assert figures["rt0.odot.terms_out"] > 0
    assert 0 < figures["cli.main.self_s"] < figures["cli.main.total_s"]


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_verify_p90_never_rises_when_a_suite_gets_faster():
    rng = workloads.random.Random(4)
    for suites in (2, 8):
        passes = [{"t": [rng.uniform(0.1, 20) for _ in range(suites)]} for _ in range(3)]
        p90 = run.verify_timings(passes, "t")["latency_p90_ms"]
        medians = [sorted(times)[1] for times in zip(*(p["t"] for p in passes))]
        assert min(medians) * 1000 <= p90 <= max(medians) * 1000
        for suite in range(suites):
            faster = [{"t": [t / 2 if i == suite else t for i, t in enumerate(p["t"])]} for p in passes]
            assert run.verify_timings(faster, "t")["latency_p90_ms"] <= p90


def _run(*args: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def test_printed_metrics_are_the_declared_ones():
    for trace, declared in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
        code, result, stdout = _run("--workload", "verify-super", "--seed", "5", "--seconds", "1", "--trace", trace)
        assert code == 0, stdout
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == set(declared)
        assert all(result["metrics"][name]["unit"] == unit for name, unit in declared.items())


def _traced_counts(workload: str, *args: str) -> dict[str, float]:
    result, _ = run.run_child([workload, "--seed", "2", *args, "--trace"], timeout=170)
    return {name: value for name, value in result["figures"].items() if not name.endswith("_s")}


def test_traced_counts_repeat_exactly():
    for workload, args in (("verify-super", ()), ("expr-stream", ("--requests", "15"))):
        first = _traced_counts(workload, *args)
        assert first == _traced_counts(workload, *args)
        assert any(first.values())


def test_fails_without_the_library(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "expr-stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_sampler_restores_the_alarm_and_integrates_its_speed():
    import signal
    import time

    from calibrate import Sampler

    previous = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert sampler._helper.proc.returncode == 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.starts) >= 4
    speeds = sampler.speeds()
    probes = sum(min(e, end) - max(s, start) for s, e in zip(sampler.starts, sampler.ends) if s < end and e > start)
    adjusted = sampler.adjusted(start, end)
    # the integral lies between the slowest and fastest speed times the workload's own time
    assert min(speeds) * (end - start - probes) <= adjusted * (1 + 1e-9)
    assert adjusted <= max(speeds) * (end - start - probes) * (1 + 1e-9)
    assert sampler.adjusted(end, end) == 0
