"""Record the outputs the correctness gates compare against.

    python3 bench/record.py

Writes ``bench/expected/verify.json`` (the check ids and checked_total of
each verify workload) and ``bench/expected/expr-stream.json`` (a digest
of the stdout of each of the first ``RECORDED_REQUESTS`` requests of the
stream, for each seed in ``RECORDED_SEEDS``).  Run it only on a commit
whose outputs are known to be right; the benchmark then fails any later
commit whose outputs differ.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

RECORDED_SEEDS = (0, 1, 2, 3, 4)
RECORDED_REQUESTS = 450
EXPECTED = run.BENCH / "expected"


def record(args: list[str]) -> dict:
    result, _ = run.run_child(args + ["--record"], timeout=3600)
    if result["failures"]:
        sys.exit(f"{args}: {result['failures'][:5]}")
    return result


def main() -> int:
    verify = {}
    for workload in workloads.VERIFY_SUITES:
        result = record([workload, "--seed", "0"])
        verify[workload] = {"check_ids": result["check_ids"], "checked_total": result["checked"]}
    digests = {}
    for seed in RECORDED_SEEDS:
        result = record(["expr-stream", "--seed", str(seed), "--requests", str(RECORDED_REQUESTS)])
        digests[str(seed)] = result["digests"]
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / "verify.json").write_text(json.dumps(verify, indent=1) + "\n")
    (EXPECTED / "expr-stream.json").write_text(json.dumps({"digests": digests}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
