#!/usr/bin/env python3
"""Print the classifier evidence that motivates the default thresholds.

Runs each archetype (canonical parameters, several seeds) through both the
offline quota oracle and the online sampler and tabulates the measured
features: quota degradation d, footprint, mean hot pages per interval h,
and weighted page density w.  The default thresholds sit in the gaps
between the archetype clusters:

    d  < 0.05 separates CCF/LLCT from LLCM/LLCH   (d_ccf_llct)
    d >= 0.20 separates LLCH from LLCM            (d_llch)
    h <= P    marks CCF, h >= min(2P, W) the rest (P: private cache's pages;
              W: hot pages an interval shows of a longer line-stride loop)
    w <= 1.2  marks LLCT, w >= 6.0 marks LLCH     (wpd_low/high)

Usage:
    python3 scripts/calibrate_thresholds.py [--seeds 5] [--randomized N]
"""

import argparse
import sys

import numpy as np

from memcolor.classifier import (HOT_PAGE_SPAN, SamplerConfig, Thresholds,
                                 _private_pages, _window_pages,
                                 classify_offline, classify_trace_online)
from memcolor.hierarchy import DEFAULT_PRIVATE
from memcolor.mapping import AddressMapping
from memcolor.workloads import (ARCHETYPE_KINDS, canonical_params, gen,
                                randomized_params)


def evidence_row(kind, params, m):
    trace = gen(params)
    off = classify_offline(trace, m)
    on, ev, wpd = classify_trace_online(trace, m)
    return {
        "kind": kind, "seed": params.seed,
        "d": off.degradation, "fp": off.footprint_pages,
        "h": ev.mean_hot_pages(), "w": wpd,
        "offline": off.category.value, "online": on.value,
    }


def print_rows(rows):
    print(f"{'kind':6} {'seed':>10} {'d':>8} {'fp':>7} {'h':>9} {'w':>7}"
          f"  offline  online  agree")
    for r in rows:
        print(f"{r['kind']:6} {r['seed']:>10} {r['d']:8.3f} {r['fp']:7d} "
              f"{r['h']:9.1f} {r['w']:7.2f}  {r['offline']:<7}  {r['online']:<6}"
              f"  {'yes' if r['offline'] == r['online'] else 'NO'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5,
                    help="seeds per archetype for the canonical table")
    ap.add_argument("--randomized", type=int, default=0,
                    help="additionally sample N randomized-parameter instances")
    args = ap.parse_args(argv)

    m = AddressMapping()
    pages = _private_pages(DEFAULT_PRIVATE, m)
    rest = min(HOT_PAGE_SPAN * pages, _window_pages(SamplerConfig(), m))
    print("default thresholds:", Thresholds())
    print(f"default private cache: CCF at h <= {pages}, not CCF at h >= {rest}\n")

    rows = [evidence_row(kind, canonical_params(kind, seed=s), m)
            for kind in ARCHETYPE_KINDS for s in range(1, args.seeds + 1)]
    print_rows(rows)

    if args.randomized:
        rng = np.random.default_rng(42)
        rows = [evidence_row(k, randomized_params(k, rng), m)
                for i in range(args.randomized)
                for k in [ARCHETYPE_KINDS[i % 4]]]
        print("\nrandomized-parameter instances:")
        print_rows(rows)
        agree = sum(r["offline"] == r["online"] for r in rows)
        print(f"\nagreement: {agree}/{len(rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
