#!/usr/bin/env python3
"""Policy-sweep experiment over a corpus of mixed workloads.

For each mix the script simulates every policy (quotas planned by the
advisor), reports the proxy-cycle gap between the decision tree's choice
and the empirically best policy, and summarizes how often the decision
tree lands within the --tolerance band.  The default corpus is the same
25-mix set used by the acceptance suite.

Usage:
    python3 scripts/sweep_corpus.py [--tolerance 0.03] [--csv out.csv]
"""

import argparse
import csv
import sys
import time

from memcolor.advisor import AdvisorError, WorkloadProfile, decide_policy
from memcolor.classifier import Category
from memcolor.cli import sweep_policies
from memcolor.config import ExperimentConfig
from memcolor.hierarchy import proxy_cycles
from memcolor.policies import PolicyKind
from memcolor.workloads import canonical_params, gen

CAT_OF = {"c": Category.CCF, "t": Category.LLCT,
          "m": Category.LLCM, "h": Category.LLCH}
KIND_OF = {"c": "ccf", "t": "llct", "m": "llcm", "h": "llch"}

# (composition code, base seed); one letter per app.
DEFAULT_CORPUS = [
    ("thmc", 11), ("thmc", 31), ("tthm", 11), ("tmcc", 11), ("thcc", 11),
    ("ttmm", 11), ("tccc", 11), ("tttc", 11), ("thhm", 11), ("tmmc", 11),
    ("tthc", 11), ("thhc", 11),
    ("hhcc", 11), ("hccc", 11), ("hhmm", 11), ("hmmm", 11), ("mmmm", 11),
    ("cccc", 11), ("hhmm", 31), ("mmmm", 31),
    ("hmcc", 11), ("hhmc", 11), ("mmcc", 11), ("mmmc", 11), ("hhhm", 11),
]


def run_mix(code, seed0, cfg):
    traces, apps = {}, []
    for i, ch in enumerate(code):
        app = f"{ch.upper()}{i}"
        traces[app] = gen(canonical_params(KIND_OF[ch], seed=seed0 + i,
                                           app=app, core=i))
        apps.append((app, CAT_OF[ch]))
    profile = WorkloadProfile(tuple(apps))
    cycles = {}
    for policy, cell in sweep_policies(cfg, traces, profile).items():
        if isinstance(cell, AdvisorError):
            continue
        if isinstance(cell, Exception):
            raise cell
        cycles[policy] = proxy_cycles(cell)
    return decide_policy(profile), cycles


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tolerance", type=float, default=0.03)
    ap.add_argument("--csv", help="also write per-mix rows to this file")
    args = ap.parse_args(argv)

    cfg = ExperimentConfig(seed=1)
    rows, hits = [], 0
    t0 = time.time()
    print(f"{'mix':6} {'seed':>4}  {'pdt':<10} {'best':<10} {'gap':>6}  verdict")
    for code, seed0 in DEFAULT_CORPUS:
        pdt, cycles = run_mix(code, seed0, cfg)
        best = min(cycles, key=cycles.get)
        gap = (cycles[pdt] - cycles[best]) / cycles[best]
        ok = gap <= args.tolerance
        hits += ok
        print(f"{code:6} {seed0:>4}  {pdt.value:<10} {best.value:<10} "
              f"{gap:6.3f}  {'ok' if ok else 'MISS'}")
        rows.append({"mix": code, "seed": seed0, "pdt": pdt.value,
                     "best": best.value, "gap": f"{gap:.6f}",
                     **{p.value: cycles.get(p, "") for p in PolicyKind}})
    frac = hits / len(DEFAULT_CORPUS)
    print(f"\n{hits}/{len(DEFAULT_CORPUS)} mixes within "
          f"{args.tolerance:.0%} ({frac:.0%}); {time.time() - t0:.0f}s")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0 if frac >= 0.80 else 1


if __name__ == "__main__":
    sys.exit(main())
