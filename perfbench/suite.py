"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in `setup()` and then
offers a fixed, ordered list of operations (one round).  An operation's
`run()` is the timed call into the program; its `verify()` runs untimed and
returns the payload to digest plus a list of broken invariants.  Only
generated traces, trace files and configs reach the program.

sweep-mixed
    A 6-policy sweep of the 4-app mixes `thmc` and `ttmm`, quotas from
    `plan_quotas`, as `scripts/sweep_corpus.py` does it.  Miss- and
    allocation-heavy: on `thmc` 58% of the 240k accesses miss the LLC and
    85,096 are first touches.  Bank-only on `thmc` needs three quota groups
    and has two, so that cell must raise `AdvisorError`; it is checked as an
    expected outcome and processes no records.
classify-corpus
    Online and offline classification of single-app traces, every kind
    from `canonical_params` and from `randomized_params`.  The sampler, the
    access-bit scans and the oracle's two cache-quota replays do the work;
    mixing and cross-app attribution stay idle.
cli-auto
    `memcolor classify`, `memcolor advise` and `memcolor run --policy auto`
    (with `epoch` set) on a config naming four pre-written trace files of an
    `hhcc` mix.  The only workload that parses traces, loads configs, logs
    allocations and writes artifacts; 72% of its accesses hit a cache and
    only 1,040 of 240k are first touches, the opposite of sweep-mixed.

Seed 0 reproduces the corpus entries (thmc, 11), (ttmm, 11) and (hhcc, 11)
of `scripts/sweep_corpus.py`.

Which end-to-end metric each per-layer metric should move:

* `hierarchy.access_s`, `hierarchy.run_trace_self_s`: `accesses_per_s` and
  `round_s`, most on sweep-mixed (miss path) and cli-auto (hit path).
* `allocator.touch_s`: `accesses_per_s` on sweep-mixed; no change on cli-auto.
* `allocator.init_s`: `round_s` on sweep-mixed (2M-frame pools per cell).
* `workloads.gen_s`, `workloads.mix_s`: `setup_s` and `peak_rss_mb` on
  sweep-mixed and classify-corpus.
* `workloads.read_trace_s`, `config.load_s`, `allocator.write_alloc_csv_s`:
  `round_s` on cli-auto only.
* `classifier.*`: `round_s` on classify-corpus and cli-auto; no change on
  sweep-mixed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os

import numpy as np
import yaml

from memcolor import advisor, allocator, classifier, cli, hierarchy, workloads
from memcolor.advisor import AdvisorError, WorkloadProfile
from memcolor.classifier import Category, SamplerConfig
from memcolor.mapping import AddressMapping
from memcolor.policies import PolicyKind, policy_spec

M = AddressMapping()
KIND_OF = {"c": "ccf", "t": "llct", "m": "llcm", "h": "llch"}
CAT_OF = {"c": Category.CCF, "t": Category.LLCT,
          "m": Category.LLCM, "h": Category.LLCH}
KINDS = ("ccf", "llct", "llcm", "llch")

# Toy size, used by the harness self-check: traces shrink by this factor
# and the sampler period shrinks so that every trace still completes
# several sampling intervals.
TOY_FACTOR = 20
TOY_PERIOD = 500


@dataclasses.dataclass
class Op:
    name: str
    records: int        # trace records the operation processes, fixed up front
    run: object         # () -> output, the timed call
    verify: object      # (output) -> (digest payload, [problems])


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _shrink(p: workloads.ArchetypeParams) -> workloads.ArchetypeParams:
    pages = p.working_set_pages if p.kind == "ccf" else max(1, p.working_set_pages // TOY_FACTOR)
    cover = pages if p.reuse == "zipf" else pages * (workloads.PAGE_BYTES // p.stride)
    return dataclasses.replace(p, working_set_pages=pages,
                               access_count=max(p.access_count // TOY_FACTOR, cover))


def _distinct_pages(trace) -> int:
    return len({(r.app, r.vaddr >> M.page_offset_bits) for r in trace})


def _counter_problems(snap: dict, records: int) -> list:
    t = snap["total"]
    problems = []
    if t["private_hits"] + t["llc_hits"] + t["llc_misses"] != records:
        problems.append(f"accesses != {records} records")
    if t["row_hits"] + t["row_misses"] + t["row_conflicts"] != t["llc_misses"]:
        problems.append("DRAM outcomes != LLC misses")
    if t["cross_app_conflicts"] > t["row_conflicts"]:
        problems.append("cross-app conflicts exceed row conflicts")
    for key, value in t.items():
        if value != sum(app[key] for app in snap["per_app"].values()):
            problems.append(f"per-app {key} do not sum to the total")
    return problems


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, toy: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.toy = toy

    def params(self, p: workloads.ArchetypeParams) -> workloads.ArchetypeParams:
        return _shrink(p) if self.toy else p

    def setup(self):
        raise NotImplementedError

    def operations(self) -> list:
        raise NotImplementedError

    def agreement(self) -> float:
        """Share of traces classified alike online and offline; 0 for a
        workload that classifies nothing both ways."""
        return 0.0


class SweepMixed(Workload):
    name = "sweep-mixed"
    MIXES = ("thmc", "ttmm")
    # Cells plan_quotas must refuse: more quota groups than LLC color groups.
    INFEASIBLE = {("thmc", PolicyKind.BANK_ONLY)}

    def setup(self):
        self.mixes = {}
        base = 11 + 100 * self.seed
        for code in self.MIXES:
            traces, apps = [], []
            for i, ch in enumerate(code):
                app = f"{ch.upper()}{i}"
                params = workloads.canonical_params(KIND_OF[ch], seed=base + i,
                                                    app=app, core=i)
                traces.append(workloads.gen(self.params(params)))
                apps.append((app, CAT_OF[ch]))
            merged = workloads.mix(traces)
            self.mixes[code] = (WorkloadProfile(tuple(apps)), merged)

    def operations(self):
        ops = []
        for code, (profile, merged) in self.mixes.items():
            pages = _distinct_pages(merged)
            for policy in PolicyKind:
                infeasible = (code, policy) in self.INFEASIBLE
                ops.append(Op(f"{code}/{policy.value}",
                              0 if infeasible else len(merged),
                              self._cell(profile, merged, policy),
                              self._verifier(merged, pages, infeasible)))
        return ops

    @staticmethod
    def _cell(profile, merged, policy):
        spec = policy_spec(policy, M)

        def run():
            alloc = allocator.Allocator(M.total_pages, spec, M, seed=1)
            try:
                if spec.partitioning:
                    quotas = advisor.plan_quotas(profile, policy, spec).quotas
                    for app, colors in quotas.items():
                        alloc.assign_quota(app, colors)
                else:
                    for app, _ in profile.apps:
                        alloc.register(app)
            except AdvisorError as exc:
                return "infeasible", str(exc)
            metrics, _ = hierarchy.run_trace(merged, alloc, hierarchy.MemoryHierarchy(M))
            return "ok", metrics, alloc
        return run

    @staticmethod
    def _verifier(merged, pages, infeasible):
        def verify(out):
            if out[0] == "infeasible":
                problems = [] if infeasible else [f"unexpectedly infeasible: {out[1]}"]
                return {"infeasible": out[1]}, problems
            if infeasible:
                return {"feasible": True}, ["expected AdvisorError, the cell ran"]
            _, metrics, alloc = out
            snap = metrics.snapshot()
            problems = _counter_problems(snap, len(merged))
            placement = {}
            all_pfns = []
            for app, pt in alloc.page_tables.items():
                vpns = np.fromiter(pt.keys(), np.int64, len(pt))
                pfns = np.fromiter((e[0] for e in pt.values()), np.int64, len(pt))
                placement[str(app)] = _sha(vpns.tobytes() + pfns.tobytes())
                all_pfns.append(pfns)
                spec = alloc.spec
                if spec.partitioning:
                    colors = np.zeros(len(pfns), np.int64)
                    for i, pos in enumerate(spec.color_bits):
                        colors |= ((pfns >> (pos - M.page_offset_bits)) & 1) << i
                    if not np.isin(colors, alloc.quota_of(app)).all():
                        problems.append(f"app {app}: frame outside its color quota")
            all_pfns = np.concatenate(all_pfns)
            if len(all_pfns) != pages:
                problems.append(f"{len(all_pfns)} frames for {pages} distinct pages")
            if len(np.unique(all_pfns)) != len(all_pfns):
                problems.append("a frame backs two pages")
            return {"snapshot": snap, "placement": placement}, problems
        return verify


class ClassifyCorpus(Workload):
    name = "classify-corpus"

    def setup(self):
        # Randomized shapes (sizes, zipf skew) are the first draws of the
        # corpus criterion 6 uses, so every seed does the same amount of work;
        # the workload seed picks the traces' contents.
        shapes = np.random.default_rng(42)
        self.traces = []
        for source in ("canonical", "randomized"):
            for kind in KINDS:
                if source == "canonical":
                    params = workloads.canonical_params(kind)
                else:
                    params = workloads.randomized_params(kind, shapes)
                params = dataclasses.replace(
                    params, seed=1000 * self.seed + len(self.traces) + 1)
                self.traces.append((f"{kind}-{source}", workloads.gen(self.params(params))))
        self.categories = {}

    def agreement(self) -> float:
        pairs = [c for c in self.categories.values() if len(c) == 2]
        return sum(c["online"] == c["offline"] for c in pairs) / len(pairs) if pairs else 0.0

    def operations(self):
        sampler = SamplerConfig(period=TOY_PERIOD) if self.toy else SamplerConfig()
        ops = []
        for name, trace in self.traces:
            pages = _distinct_pages(trace)
            ops.append(Op(f"{name}/online", len(trace),
                          lambda t=trace: classifier.classify_trace_online(t, M, cfg=sampler),
                          self._online_verifier(name, trace, pages, sampler)))
            ops.append(Op(f"{name}/offline", len(trace),
                          lambda t=trace: classifier.classify_offline(t, M),
                          self._offline_verifier(name, pages)))
        return ops

    def _online_verifier(self, name, trace, pages, sampler):
        def verify(out):
            cat, ev, _ = out
            self.categories.setdefault(name, {})["online"] = cat
            counters = ev.access_counters
            problems = []
            if len(ev.hot_pages) != len(trace) // sampler.period:
                problems.append(f"{len(ev.hot_pages)} sampling intervals")
            if sum(counters.values()) != len(trace) or len(counters) != pages:
                problems.append("access counters do not cover the trace")
            return {"category": cat.value, "hot_pages": ev.hot_pages,
                    "wpd": repr(ev.wpd(sampler)),
                    "counters": digest(list(counters.items()))}, problems
        return verify

    def _offline_verifier(self, name, pages):
        def verify(res):
            self.categories.setdefault(name, {})["offline"] = res.category
            problems = []
            if res.footprint_pages != pages:
                problems.append(f"footprint {res.footprint_pages} != {pages} pages")
            if min(res.proxy_full, res.proxy_confined) <= 0:
                problems.append("non-positive proxy cycles")
            return {"category": res.category.value, "degradation": repr(res.degradation),
                    "footprint": res.footprint_pages, "proxy_full": res.proxy_full,
                    "proxy_confined": res.proxy_confined}, problems
        return verify


class CliAuto(Workload):
    name = "cli-auto"
    MIX = "hhcc"
    EPOCH = 20_000

    def setup(self):
        base = 11 + 100 * self.seed
        entries = []
        self.records = 0
        self.pages = 0
        for i, ch in enumerate(self.MIX):
            app = f"{ch.upper()}{i}"
            trace = workloads.gen(self.params(workloads.canonical_params(
                KIND_OF[ch], seed=base + i, app=app, core=i)))
            path = os.path.join(self.workdir, f"{app}.trace")
            workloads.write_trace(trace, path)
            entries.append({"app": app, "core": i, "trace": path})
            self.records += len(trace)
            self.pages += _distinct_pages(trace)
        self.epoch = self.EPOCH // TOY_FACTOR if self.toy else self.EPOCH
        doc = {"seed": self.seed, "core_count": 4, "policy": "auto",
               "epoch": self.epoch, "workload": entries}
        if self.toy:
            doc["sampler"] = {"period": TOY_PERIOD}
        self.config = os.path.join(self.workdir, "config.yaml")
        with open(self.config, "w") as fh:
            yaml.safe_dump(doc, fh)
        self.out = os.path.join(self.workdir, "run")

    def operations(self):
        return [
            Op("classify", self.records, self._main(["classify", "--config", self.config]),
               self._verify_classify),
            Op("advise", self.records, self._main(["advise", "--config", self.config]),
               self._verify_advise),
            Op("run", self.records,
               self._main(["run", "--config", self.config, "--policy", "auto",
                           "--out", self.out]),
               self._verify_run),
        ]

    @staticmethod
    def _main(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()
        return run

    def _json_stdout(self, out):
        code, stdout, stderr = out
        if code != 0:
            return None, [f"exit {code}: {stderr.strip()}"]
        try:
            return json.loads(stdout), []
        except ValueError:
            return None, ["stdout is not JSON"]

    def _verify_classify(self, out):
        doc, problems = self._json_stdout(out)
        if doc is not None:
            apps = {f"{ch.upper()}{i}" for i, ch in enumerate(self.MIX)}
            if set(doc) != apps:
                problems.append(f"classified apps {sorted(doc)}")
            for entry in doc.values():
                if entry["category"] not in Category.__members__:
                    problems.append(f"unknown category {entry['category']}")
        return {"exit": out[0], "stdout": out[1]}, problems

    def _verify_advise(self, out):
        doc, problems = self._json_stdout(out)
        if doc is not None and doc.get("policy") not in {p.value for p in PolicyKind}:
            problems.append(f"unknown policy {doc.get('policy')}")
        return {"exit": out[0], "stdout": out[1]}, problems

    def _verify_run(self, out):
        code, stdout, stderr = out
        if code != 0:
            return {"exit": code}, [f"exit {code}: {stderr.strip()}"]
        files = {}
        for name in ("decision.json", "metrics.json", "alloc.csv", "epochs.json"):
            with open(os.path.join(self.out, name), "rb") as fh:
                files[name] = fh.read()
        problems = _counter_problems(json.loads(files["metrics.json"]), self.records)
        rows = list(csv.reader(io.StringIO(files["alloc.csv"].decode())))
        if len(rows) - 1 != self.pages:
            problems.append(f"alloc.csv has {len(rows) - 1} rows for {self.pages} pages")
        epochs = json.loads(files["epochs.json"])
        if len(epochs) != self.records // self.epoch:
            problems.append(f"{len(epochs)} epoch snapshots")
        for snap in epochs:
            problems += _counter_problems(snap, sum(
                snap["total"][k] for k in ("private_hits", "llc_hits", "llc_misses")))
        return {"exit": code, "stdout": stdout,
                "files": {n: _sha(b) for n, b in files.items()}}, problems


WORKLOADS = {w.name: w for w in (SweepMixed, ClassifyCorpus, CliAuto)}
