"""Command-line experiment driver.

Subcommands: gen, run, classify, advise, sweep.
Exit codes: 0 ok, 1 usage, 2 invalid config, 3 simulation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import sys
import tempfile

from memcolor.advisor import (AdvisorError, WorkloadProfile, advise,
                              decide_policy, plan_quotas)
from memcolor.allocator import Allocator
from memcolor.classifier import classify_offline, classify_trace_online
from memcolor.config import ConfigError, ExperimentConfig, load_config
from memcolor.errors import MemcolorError
from memcolor.hierarchy import (MemoryHierarchy, SimulationError, proxy_cycles,
                                run_trace)
from memcolor.policies import PolicyError, PolicyKind, PolicySpec, policy_spec
from memcolor.workloads import (PARAM_NAMES, TraceError, canonical_params, gen,
                                mix, read_trace, write_trace)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# (errors, exit code, message prefix) for what a command raises; the first
# row that matches wins, and any other error propagates.
EXIT_CODES = (
    ((ConfigError, PolicyError, AdvisorError), EXIT_CONFIG, "config error"),
    ((MemcolorError, OSError), EXIT_RUNTIME, "error"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_traces(cfg: ExperimentConfig) -> dict:
    traces = {}
    for entry in cfg.workload:
        if entry.trace_path:
            trace = read_trace(entry.trace_path)
            if not trace:
                raise TraceError(f"{entry.trace_path}: no records for app {entry.app!r}")
            traces[entry.app] = trace.on(entry.app, entry.core)
        else:
            traces[entry.app] = gen(entry.params)
    if not traces:
        raise ConfigError("workload list is empty")
    return traces


def _even_split_quotas(spec, apps):
    """Round-robin color split for an explicitly named policy."""
    n_colors = spec.page_colors
    if len(apps) <= n_colors:
        return {a: tuple(c for c in range(n_colors) if c % len(apps) == i)
                for i, a in enumerate(apps)}
    return {a: (i % n_colors,) for i, a in enumerate(apps)}


def _classify_online(cfg: ExperimentConfig, traces) -> dict:
    """Online category and evidence per app, as the reports print them."""
    out = {}
    for app, trace in traces.items():
        cat, ev, wpd = classify_trace_online(trace, cfg.mapping, cfg=cfg.sampler,
                                             thresholds=cfg.thresholds,
                                             private_cfg=cfg.private_cache)
        out[app] = {"category": cat.value, "hot_pages": ev.hot_pages, "wpd": wpd}
    return out


def _profile(cfg: ExperimentConfig, traces):
    if cfg.profile:
        apps = tuple(cfg.profile)
        evidence = {str(a): {"category": c.value, "source": "profile"} for a, c in apps}
    else:
        classified = _classify_online(cfg, traces)
        apps = tuple((a, e["category"]) for a, e in classified.items())
        evidence = {str(a): e for a, e in classified.items()}
    return (WorkloadProfile(apps, multithreaded=cfg.multithreaded,
                            core_count=cfg.core_count), evidence)


def _run_policy(cfg: ExperimentConfig, merged, spec: PolicySpec, quotas=None, epoch=None):
    """Replay a mixed trace under one policy; quotas default to an even
    color split over its apps.  Returns (Metrics, snapshots per `epoch`
    accesses if given, Allocator)."""
    alloc = Allocator(cfg.mapping.total_pages, spec, cfg.mapping,
                      seed=cfg.seed, allow_fallback=cfg.allow_fallback)
    for app, colors in (quotas or _even_split_quotas(spec, merged.apps)).items():
        alloc.assign_quota(app, colors)
    hier = MemoryHierarchy(cfg.mapping, cfg.private_cache, cfg.llc_ways)
    metrics, snapshots = run_trace(merged, alloc, hier, epoch=epoch)
    return metrics, snapshots, alloc


def sweep_policies(cfg: ExperimentConfig, traces: dict,
                   profile: WorkloadProfile) -> dict:
    """Replay one mix of `traces` ({app: trace}) under every policy, with
    the quotas the advisor plans for `profile`.

    Returns {PolicyKind: Metrics, or the library error that stopped that
    cell}; a cell whose quota plan is infeasible holds an AdvisorError.
    """
    merged = mix(list(traces.values()), k=cfg.mix_chunk)
    cells = {}
    for policy in PolicyKind:
        try:
            spec = policy_spec(policy, cfg.mapping)
            quotas = plan_quotas(profile, policy, spec).quotas if spec.partitioning else None
            cells[policy] = _run_policy(cfg, merged, spec, quotas)[0]
        except MemcolorError as exc:
            cells[policy] = exc
    return cells


def _commit(out, files):
    """Write one command's set of files into the directory `out` as one set.

    `files` maps each name of the set to its text, to a function that writes
    a path, or to None for a name this invocation does not produce.  All are
    written into a staging directory in `out` before any is renamed into
    place and the None names are removed, so a failed write leaves an
    earlier set as it was.  A rename that fails partway (a directory in the
    way of a name, say) can still leave a mixed set, and a killed process
    leaves its hidden `.memcolor-*` staging directory behind.
    """
    os.makedirs(out, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".memcolor-", dir=out)
    try:
        for name, content in files.items():
            path = os.path.join(staging, name)
            if callable(content):
                content(path)
            elif content is not None:
                with open(path, "w") as fh:
                    fh.write(content)
        for name, content in files.items():
            target = os.path.join(out, name)
            if content is not None:
                os.replace(os.path.join(staging, name), target)
            elif os.path.lexists(target):
                os.remove(target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


# --- subcommands -----------------------------------------------------------

def cmd_gen(args) -> int:
    params = canonical_params(args.kind, seed=args.seed, app=args.app,
                              **{name: getattr(args, name) for name in PARAM_NAMES})
    write_trace(gen(params), args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_run(args, cfg: ExperimentConfig) -> int:
    traces = _load_traces(cfg)
    if cfg.policy == "auto":
        profile, evidence = _profile(cfg, traces)
        decision = advise(profile, cfg.mapping)
        policy, decision_json = decision.policy, decision.to_json(evidence)
        quotas = decision.quotas if any(decision.quotas.values()) else None
    else:
        policy, decision_json, quotas = PolicyKind.from_name(cfg.policy), None, None
    metrics, snapshots, alloc = _run_policy(
        cfg, mix(list(traces.values()), k=cfg.mix_chunk), policy_spec(policy, cfg.mapping),
        quotas, cfg.epoch)
    _commit(args.out or ".", {
        "decision.json": decision_json,
        "metrics.json": metrics.to_json(cfg.latencies),
        "alloc.csv": alloc.write_alloc_csv,
        "epochs.json": json.dumps(snapshots, sort_keys=True, indent=2) if snapshots else None,
    })
    print(f"policy={policy.value} proxy_cycles={proxy_cycles(metrics, cfg.latencies)}")
    return EXIT_OK


def cmd_classify(args, cfg: ExperimentConfig) -> int:
    traces = _load_traces(cfg)
    if args.method == "online":
        out = _classify_online(cfg, traces)
    else:
        out = {}
        for app, trace in traces.items():
            res = classify_offline(trace, cfg.mapping, cfg.private_cache, cfg.llc_ways,
                                   cfg.latencies, cfg.thresholds)
            out[app] = {"category": res.category.value,
                        "degradation": res.degradation,
                        "footprint_pages": res.footprint_pages}
    text = json.dumps(out, sort_keys=True, indent=2)
    if args.out:
        _commit(args.out, {"classify.json": text})
    print(text)
    return EXIT_OK


def cmd_advise(args, cfg: ExperimentConfig) -> int:
    if not cfg.workload and not cfg.profile:
        raise ConfigError("advise needs either a workload list or a profile")
    # a profile stands for the classification, which is all the traces are for
    profile, evidence = _profile(cfg, {} if cfg.profile else _load_traces(cfg))
    decision = advise(profile, cfg.mapping)
    text = decision.to_json(evidence)
    if args.out:
        _commit(args.out, {"decision.json": text})
    print(text)
    return EXIT_OK


def cmd_sweep(args, cfg: ExperimentConfig) -> int:
    traces = _load_traces(cfg)
    profile, evidence = _profile(cfg, traces)
    pdt_policy = decide_policy(profile)

    rows = []
    results = {}
    for policy, cell in sweep_policies(cfg, traces, profile).items():
        if isinstance(cell, Exception):
            status = "skipped" if isinstance(cell, AdvisorError) else "failed"
            rows.append([policy.value, "", "", "", "", f"{status}: {cell}"])
            continue
        proxy = proxy_cycles(cell, cfg.latencies)
        results[policy.value] = proxy
        rows.append([policy.value, proxy,
                     cell.total["cross_app_conflicts"],
                     cell.total["cross_app_llc_evictions"],
                     f"{cell.llc_miss_rate():.6f}", "ok"])

    if not results:
        raise SimulationError("every sweep cell failed")
    best = min(sorted(results), key=lambda p: results[p])
    report = {
        "per_policy": results,
        "best_policy": best,
        "pdt_policy": pdt_policy.value,
        "agreement": best == pdt_policy.value,
        "evidence": evidence,
    }
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(["policy", "proxy_cycles", "cross_app_conflicts",
                     "cross_app_llc_evictions", "llc_miss_rate", "status"])
    writer.writerows(rows)
    text = json.dumps(report, sort_keys=True, indent=2)
    _commit(args.out or ".", {"sweep.csv": table.getvalue(), "sweep.json": text})
    print(text)
    return EXIT_OK


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="memcolor",
                     description="page-coloring memory hierarchy simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic archetype trace")
    p_gen.add_argument("--kind", required=True, choices=["ccf", "llct", "llcm", "llch"])
    p_gen.add_argument("--pages", type=int, default=None)
    p_gen.add_argument("--accesses", type=int, default=None)
    p_gen.add_argument("--reuse", choices=["none", "loop", "zipf"], default=None)
    p_gen.add_argument("--stride", type=int, default=None)
    p_gen.add_argument("--zipf-s", dest="zipf_s", type=float, default=None)
    p_gen.add_argument("--seed", type=non_negative_int, default=0)
    p_gen.add_argument("--app", default="A")
    p_gen.add_argument("-o", "--output", required=True)

    for name, func in (("run", cmd_run), ("classify", cmd_classify), ("advise", cmd_advise),
                       ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=non_negative_int, default=None)
        p.add_argument("--out", default=None)
        if name == "run":
            p.add_argument("--policy", default=None,
                           help="override the config's policy (name or 'auto')")
        if name == "classify":
            p.add_argument("--method", choices=["online", "offline"], default="online")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "gen":
            return cmd_gen(args)
        cfg = load_config(args.config, seed=args.seed)
        cfg.policy = getattr(args, "policy", None) or cfg.policy
        return args.func(args, cfg)
    except Exception as exc:
        for errors, code, prefix in EXIT_CODES:
            if isinstance(exc, errors):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
