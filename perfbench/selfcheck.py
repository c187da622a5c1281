"""Fast self-check of the benchmark harness, at toy size.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload it runs one untraced and one traced round on shrunken
inputs and checks that each run is correct and reports exactly the metrics
`BENCHMARK.json` names, with their units.  It then replays sweep-mixed with
one LLC hit turned into a private hit in every metrics snapshot, a change
that keeps every counter invariant, and checks that the digest check fails
each simulated cell.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.abspath("src"))

import run  # noqa: E402
import suite  # noqa: E402
from memcolor import hierarchy  # noqa: E402


def expected_units(doc: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def check_metrics(doc: dict, workdir: str) -> list:
    problems = []
    for name in suite.WORKLOADS:
        for trace in (False, True):
            result, _, _ = run.bench(name, 0, 0, trace, workdir, toy=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            if got != expected_units(doc, trace):
                problems.append(f"{label}: metrics {got} != {expected_units(doc, trace)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']}/{result['attempted']} failed")
            print(f"{label}: {result['attempted']} operations, "
                  f"{len(got)} metrics", flush=True)
    return problems


def check_perturbation(workdir: str) -> list:
    """A counter changed consistently must still fail the digest check."""
    _, digests, _ = run.bench("sweep-mixed", 0, 0, False, workdir, toy=True)
    original = hierarchy.Metrics.snapshot

    def perturbed(self):
        snap = original(self)
        app = max(snap["per_app"].values(), key=lambda c: c["llc_hits"])
        for counters in (snap["total"], app):
            counters["llc_hits"] -= 1
            counters["private_hits"] += 1
        return snap

    hierarchy.Metrics.snapshot = perturbed
    try:
        result, _, _ = run.bench("sweep-mixed", 0, 0, False, workdir, toy=True,
                                 pinned=digests.seen)
    finally:
        hierarchy.Metrics.snapshot = original
    feasible = len(digests.seen) - len(suite.SweepMixed.INFEASIBLE)
    print(f"perturbed counters: {result['failed']}/{result['attempted']} failed", flush=True)
    if result["correct"] or result["failed"] != feasible:
        return [f"perturbed run: {result['failed']} failed, expected {feasible}"]
    return []


def main() -> int:
    with open("BENCHMARK.json") as fh:
        doc = json.load(fh)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT_DIR)
    try:
        problems = check_metrics(doc, workdir) + check_perturbation(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("SELF-CHECK FAILED:", p, file=sys.stderr)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
