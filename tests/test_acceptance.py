"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every test funnels through report(), which prints
    criterion NN (<name>): PASS|FAIL [detail]
so `pytest -s tests/test_acceptance.py` doubles as the acceptance report.
The whole file is slower than the unit suites (the classifier corpus and the
adaptive-selection sweep dominate); expect a few minutes.
"""

import itertools
import json

import numpy as np
import yaml

from memcolor.advisor import (TAG_CACHE_SHARE, TAG_SMALL_CCF, TAG_SMALL_LLCT,
                              AdvisorError, WorkloadProfile, decide_policy,
                              plan_quotas)
from memcolor.allocator import Allocator
from memcolor.classifier import (Category, classify_offline,
                                 classify_trace_online)
from memcolor.cli import main, sweep_policies
from memcolor.config import ExperimentConfig
from memcolor.hierarchy import (CacheConfig, MemoryHierarchy, private_sets, proxy_cycles,
                                run_trace)
from memcolor.mapping import AddressMapping, decompose
from memcolor.policies import PARTITIONING_KINDS, PolicyKind, policy_spec
from memcolor.workloads import (TraceRecord, canonical_params, gen,
                                randomized_params)

M = AddressMapping()


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# --- 1. Policy-table group counts ---------------------------------------------

def test_c01_policy_table_group_counts():
    expected = {
        PolicyKind.BANK_ONLY: (2, 8),
        PolicyKind.A_VP: (4, 4),
        PolicyKind.B_VP: (4, 8),
        PolicyKind.C_VP: (8, 4),
    }
    got = {}
    pfns = np.arange(M.total_pages, dtype=np.int64)
    for kind, want in expected.items():
        spec = policy_spec(kind, M)
        colors = np.zeros(M.total_pages, dtype=np.int64)
        for i, pos in enumerate(spec.color_bits):
            colors |= ((pfns >> (pos - M.page_offset_bits)) & 1) << i
        projections = {spec.project(int(c)) for c in np.unique(colors)}
        got[kind] = (len({p[0] for p in projections}),
                     len({p[1] for p in projections}))
    report(1, "policy-table group counts", got == expected,
           " ".join(f"{k.value}={v[0]}/{v[1]}" for k, v in sorted(got.items())))


# --- 2. Address-decomposition oracle ----------------------------------------

def oracle_extract(value, positions):
    out = 0
    for i, pos in enumerate(sorted(positions)):
        out |= ((value >> pos) & 1) << i
    return out


def test_c02_decompose_oracle():
    rng = np.random.default_rng(2)
    mismatches = 0
    for a in rng.integers(0, M.mem_bytes, size=100_000):
        a = int(a)
        d = decompose(a, M)
        if (d.set_id != oracle_extract(a, M.set_index_bits)
                or d.bank_id != oracle_extract(a, M.bank_index_bits)
                or d.row_id != a >> M.row_shift):
            mismatches += 1
    report(2, "decompose oracle", mismatches == 0,
           f"{mismatches} mismatches / 100000")


# --- 3. Vertical isolation ---------------------------------------------------

def disjoint_quotas(spec):
    """Split colors into two quota sets whose LLC *and* bank groups are
    disjoint: take connected components of colors linked through a shared
    LLC group or bank group, then deal components to the two apps."""
    parent = list(range(spec.page_colors))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_llc, by_bank = {}, {}
    for c in range(spec.page_colors):
        llc, bank = spec.project(c)
        for key, table in ((llc, by_llc), (bank, by_bank)):
            if key in table:
                parent[find(c)] = find(table[key])
            else:
                table[key] = c
    comps = {}
    for c in range(spec.page_colors):
        comps.setdefault(find(c), []).append(c)
    comps = sorted(comps.values())
    assert len(comps) >= 2, "mapping leaves no room for disjoint quotas"
    a = [c for comp in comps[::2] for c in comp]
    b = [c for comp in comps[1::2] for c in comp]
    return a, b


def test_c03_vertical_isolation():
    rng = np.random.default_rng(3)
    worst = 0
    for kind in PARTITIONING_KINDS:
        spec = policy_spec(kind, M)
        qa, qb = disjoint_quotas(spec)
        alloc = Allocator(M.total_pages, spec, M)
        alloc.assign_quota("A", qa)
        alloc.assign_quota("B", qb)
        hier = MemoryHierarchy(M)
        total = hier.metrics.total
        for i in range(100_000):
            app = "AB"[i & 1]
            vaddr = int(rng.integers(0, 1 << 27))
            pfn = alloc.touch(app, vaddr >> 12)
            out = hier.access(i & 1, app, (pfn << 12) | (vaddr & 0xFFF))
            assert not out.cross_app_conflict, (kind, i)
            assert total["cross_app_llc_evictions"] == 0, (kind, i)
        worst = max(worst, total["cross_app_conflicts"],
                    total["cross_app_llc_evictions"])
    report(3, "vertical isolation", worst == 0,
           f"max cross-app events over {[k.value for k in PARTITIONING_KINDS]}"
           f" = {worst}")


# --- 4. Interference witness -------------------------------------------------

def ping_pong_trace(pages=2048):
    """Two apps whose page i frames land one DRAM row apart under
    sequential (interleave) allocation: warm-up claims frames 0..2p-1,
    then the alternating phase revisits page pairs (same bank, rows 0/1)."""
    trace = [TraceRecord("A", 0, i << 12, "r") for i in range(pages)]
    trace += [TraceRecord("B", 1, i << 12, "r") for i in range(pages)]
    for i in range(pages):
        trace.append(TraceRecord("A", 0, (i << 12) | 64, "r"))
        trace.append(TraceRecord("B", 1, (i << 12) | 64, "r"))
    return trace


def run_policy(trace, kind, quotas=None):
    spec = policy_spec(kind, M)
    alloc = Allocator(M.total_pages, spec, M, seed=1)
    if quotas:
        for app, colors in quotas.items():
            alloc.assign_quota(app, colors)
    else:
        for app in {r.app for r in trace}:
            alloc.register(app)
    metrics, _ = run_trace(trace, alloc, MemoryHierarchy(M))
    return metrics


def test_c04_interference_witness():
    trace = ping_pong_trace()
    inter = run_policy(trace, PolicyKind.INTERLEAVE)
    avp = run_policy(trace, PolicyKind.A_VP,
                     quotas={"A": (0, 1), "B": (2, 3)})
    ok = (inter.total["cross_app_conflicts"] > 0
          and avp.total["cross_app_conflicts"] == 0
          and proxy_cycles(avp) < proxy_cycles(inter))
    report(4, "interference witness", ok,
           f"interleave conflicts={inter.total['cross_app_conflicts']} "
           f"proxy {proxy_cycles(inter)} vs a-vp {proxy_cycles(avp)}")


# --- 5. LRU small-instance equivalence ---------------------------------------

class ReferenceLRU:
    def __init__(self, sets, ways):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.n = sets

    def access(self, line):
        s = self.sets[line % self.n]
        if line in s:
            s.remove(line)
            s.append(line)
            return True
        s.append(line)
        if len(s) > self.ways:
            s.pop(0)
        return False


def test_c05_lru_equivalence():
    cfg = CacheConfig(2 * 2 * 64, 2)
    sim = MemoryHierarchy(M, private_cfg=cfg)   # fresh core id per trace
    core, mismatches, checked = 0, 0, 0

    def check(lines):
        nonlocal core, mismatches, checked
        core += 1
        ref = ReferenceLRU(private_sets(M, cfg), cfg.ways)
        for line in lines:
            if sim.access(core, "A", int(line) << 6).private_hit != ref.access(int(line)):
                mismatches += 1
        checked += 1

    for length in range(1, 9):                  # all traces of length <= 8
        for code in range(4 ** length):
            lines, c = [], code
            for _ in range(length):
                lines.append(c % 4)
                c //= 4
            check(lines)
    rng = np.random.default_rng(5)              # 10^4 random traces, len <= 32
    for _ in range(10_000):
        check(rng.integers(0, 4, size=int(rng.integers(1, 33))))
    report(5, "lru equivalence", mismatches == 0,
           f"{checked} traces, {mismatches} mismatches")


# --- 6. Classifier oracle agreement -------------------------------------------

def test_c06_classifier_agreement():
    kinds = ("ccf", "llct", "llcm", "llch")
    canonical_hits = 0
    for kind in kinds:
        for seed in range(1, 6):
            trace = gen(canonical_params(kind, seed=seed))
            off = classify_offline(trace, M)
            on, _, _ = classify_trace_online(trace, M)
            canonical_hits += on is off.category
    rng = np.random.default_rng(42)
    random_hits = 0
    for i in range(100):
        trace = gen(randomized_params(kinds[i % 4], rng))
        off = classify_offline(trace, M)
        on, _, _ = classify_trace_online(trace, M)
        random_hits += on is off.category
    ok = canonical_hits == 20 and random_hits >= 90
    report(6, "classifier agreement", ok,
           f"canonical {canonical_hits}/20, randomized {random_hits}/100")


# --- 7. PDT rule compliance ----------------------------------------------------

def test_c07_pdt_rule_table():
    bad = 0
    for present in itertools.product([False, True], repeat=4):
        if not any(present):
            continue
        cats = [c for c, p in zip(list(Category), present) if p]
        for cores in (4, 8):
            for mt in (False, True):
                p = WorkloadProfile(
                    tuple((f"a{i}", c) for i, c in enumerate(cats)),
                    multithreaded=mt, core_count=cores)
                got = decide_policy(p)
                if mt:
                    want = PolicyKind.RANDOM
                elif Category.LLCT in cats:
                    want = PolicyKind.A_VP if cores == 4 else PolicyKind.C_VP
                elif Category.LLCH in cats:
                    want = PolicyKind.BANK_ONLY
                elif Category.LLCM in cats:
                    want = PolicyKind.A_VP if cores == 4 else PolicyKind.B_VP
                else:
                    want = PolicyKind.INTERLEAVE
                bad += got is not want
    report(7, "pdt rule table", bad == 0, f"{bad} rule violations / 60 cases")


# --- 8. Coalescing structure ----------------------------------------------------

def test_c08_coalescing_structure():
    base = [Category.LLCH, Category.LLCM, Category.LLCT, Category.CCF]
    cases = [list(p) for p in itertools.permutations(base)][:6]
    cases.append(base + [Category.LLCH, Category.CCF])      # duplicates
    bad = 0
    for cats in cases:
        p = WorkloadProfile(tuple((f"a{i}", c) for i, c in enumerate(cats)))
        policy = decide_policy(p)
        decision = plan_quotas(p, policy, policy_spec(policy, M))
        tags = sorted(g.tag for g in decision.groups)
        if tags != sorted([TAG_CACHE_SHARE, TAG_SMALL_LLCT, TAG_SMALL_CCF]):
            bad += 1
            continue
        by_tag = {g.tag: g for g in decision.groups}
        share = {a for a, c in p.apps if c in (Category.LLCH, Category.LLCM)}
        if (set(by_tag[TAG_CACHE_SHARE].apps) != share
                or len(by_tag[TAG_SMALL_LLCT].llc_groups) != 1
                or len(by_tag[TAG_SMALL_CCF].llc_groups) != 1):
            bad += 1
    report(8, "coalescing structure", bad == 0,
           f"{bad} bad profiles / {len(cases)}")


# --- 9. Adaptive-selection benefit -----------------------------------------------

CAT_OF = {"c": Category.CCF, "t": Category.LLCT,
          "m": Category.LLCM, "h": Category.LLCH}
KIND_OF = {"c": "ccf", "t": "llct", "m": "llcm", "h": "llch"}

# Frozen corpus spanning the category compositions (25 mixes; composition
# codes use one letter per app).  The five compositions pairing LLCM/LLCH
# with CCF-heavy co-runners are known violators in this model (isolation
# saves less than the bank/cache capacity it costs) and are kept in the
# corpus deliberately; the criterion tolerates up to 20%.
SWEEP_CORPUS = [
    ("thmc", 11), ("thmc", 31), ("tthm", 11), ("tmcc", 11), ("thcc", 11),
    ("ttmm", 11), ("tccc", 11), ("tttc", 11), ("thhm", 11), ("tmmc", 11),
    ("tthc", 11), ("thhc", 11),
    ("hhcc", 11), ("hccc", 11), ("hhmm", 11), ("hmmm", 11), ("mmmm", 11),
    ("cccc", 11), ("hhmm", 31), ("mmmm", 31),
    ("hmcc", 11), ("hhmc", 11), ("mmcc", 11), ("mmmc", 11), ("hhhm", 11),
]


SWEEP_CFG = ExperimentConfig(seed=1)


def sweep_mix(code, seed0):
    traces, apps = {}, []
    for i, ch in enumerate(code):
        app = f"{ch.upper()}{i}"
        traces[app] = gen(canonical_params(KIND_OF[ch], seed=seed0 + i,
                                           app=app, core=i))
        apps.append((app, CAT_OF[ch]))
    profile = WorkloadProfile(tuple(apps))
    cycles = {}
    for policy, cell in sweep_policies(SWEEP_CFG, traces, profile).items():
        if isinstance(cell, AdvisorError):
            continue                     # degenerate cell (too few groups)
        if isinstance(cell, Exception):
            raise cell
        cycles[policy] = proxy_cycles(cell)
    pdt = decide_policy(profile)
    best = min(cycles.values())
    gap = (cycles[pdt] - best) / best
    return pdt, gap, cycles


def test_c09_adaptive_selection_benefit():
    hits, th_ok = 0, True
    for code, seed0 in SWEEP_CORPUS:
        pdt, gap, cycles = sweep_mix(code, seed0)
        hits += gap <= 0.03
        if "t" in code and "h" in code:
            th_ok &= cycles[pdt] < cycles[PolicyKind.INTERLEAVE]
    frac = hits / len(SWEEP_CORPUS)
    report(9, "adaptive-selection benefit", frac >= 0.80 and th_ok,
           f"{hits}/{len(SWEEP_CORPUS)} mixes within 3% "
           f"({frac:.0%}), llct+llch strict wins={th_ok}")


# --- 10. Determinism ---------------------------------------------------------------

def test_c10_determinism(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({
        "seed": 3, "core_count": 4, "policy": "random",
        "workload": [
            {"app": "H", "kind": "llch", "pages": 256, "accesses": 40000, "seed": 1},
            {"app": "T", "kind": "llct", "pages": 20000, "accesses": 20000, "seed": 2},
        ],
        "profile": [{"app": "H", "category": "LLCH"},
                    {"app": "T", "category": "LLCT"}],
    }))
    pairs = []
    for cmd, files in (("run", ["metrics.json", "alloc.csv"]),
                       ("sweep", ["sweep.json", "sweep.csv"])):
        outs = []
        for rep in (1, 2):
            out = tmp_path / f"{cmd}{rep}"
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        for name in files:
            pairs.append(((outs[0] / name).read_bytes(),
                          (outs[1] / name).read_bytes()))
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    for path in (a, b):
        assert main(["gen", "--kind", "llcm", "--seed", "7", "--pages", "2000",
                     "--accesses", "5000", "-o", str(path)]) == 0
    pairs.append((a.read_bytes(), b.read_bytes()))
    same = all(x == y for x, y in pairs)
    report(10, "determinism", same,
           f"{len(pairs)} artifact pairs byte-compared")
