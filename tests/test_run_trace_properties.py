"""Properties of `run_trace` on random traces and small geometries, through
the native kernel and through the Python step a failed build falls back to:
vertical isolation under disjoint quotas, conservation of the counters and
of `alloc.csv`, invariance under relabelled apps and cores, and LRU
inclusion in the LLC's ways."""

import csv
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_acceptance import disjoint_quotas
from test_hierarchy import alloc_csv

from memcolor import _native
from memcolor.allocator import Allocator
from memcolor.hierarchy import (COUNTER_KEYS, CacheConfig, MemoryHierarchy,
                                SimulationError, run_trace)
from memcolor.mapping import AddressMapping, page_color, validate_mapping
from memcolor.policies import PARTITIONING_KINDS, PolicyKind, policy_spec
from memcolor.workloads import Trace

# 16 LLC sets, 16 banks of 8 rows, 1024 frames: lines crowd into few sets
# and rows, so evictions and row conflicts are common.
SMALL = AddressMapping(set_index_bits=(6, 14, 15, 16), bank_index_bits=(14, 15, 17, 18),
                       o_bits={14, 15}, c_bits={16}, b_bits={17, 18}, row_shift=19,
                       mem_bytes=1 << 22)
assert not validate_mapping(SMALL)
PRIVATE = CacheConfig(2 * 2 * 64, 2)
APPS = ("A", "B", "C")

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
# for the properties that replay each example twice or read alloc.csv
# after every replay
SHORT = settings(PROPERTY, max_examples=30)


@pytest.fixture(params=["kernel", "fallback"])
def engine(request, monkeypatch, fresh_kernel):
    """Replays run in the native kernel, or in the Python step after a
    failed build."""
    if request.param == "kernel":
        if shutil.which(_native.CC) is None:
            pytest.skip(f"{_native.CC} not installed")
        assert _native.kernel() is not None
    else:
        monkeypatch.setattr(_native, "CC", "/nonexistent/gcc")
        with pytest.warns(RuntimeWarning):
            assert _native.kernel() is None


@st.composite
def traces(draw, apps=3):
    """1-3 traces of up to 300 records by up to `apps` apps on cores 0-3,
    each app over up to 64 pages of 4 lines."""
    n_apps = draw(st.integers(1, apps))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 300))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pages = draw(st.integers(1, 64))
        vaddr = rng.integers(pages, size=n) * 4096 + rng.integers(4, size=n) * 64
        out.append(Trace(APPS[:n_apps], rng.integers(n_apps, size=n),
                         rng.integers(4, size=n), vaddr.astype(np.uint64), np.zeros(n, bool)))
    return out


def set_up(kind, total_pages, quotas, ways=2, apps=APPS):
    spec = policy_spec(kind, SMALL)
    alloc = Allocator(total_pages, spec, SMALL, seed=3)
    for app, colors in zip(apps, quotas(spec)):
        if spec.partitioning:
            alloc.assign_quota(app, colors)
        else:
            alloc.register(app)
    return alloc, MemoryHierarchy(SMALL, PRIVATE, ways)


def all_colors(spec):
    return [range(spec.page_colors)] * len(APPS)


def dealt_colors(spec):
    """The colors dealt out to the apps in turn: a different quota each."""
    return [range(i, spec.page_colors, len(APPS)) for i in range(len(APPS))]


@PROPERTY
@given(kind=st.sampled_from(PARTITIONING_KINDS), calls=traces(apps=2),
       total_pages=st.sampled_from([48, 1024]), ways=st.sampled_from([1, 2, 4]))
def test_disjoint_quotas_isolate(engine, kind, calls, total_pages, ways):
    # 48 frames cannot back two apps' 64 pages each: some replays stop at
    # an empty pool, and the next one goes on from the state they left
    alloc, h = set_up(kind, total_pages, disjoint_quotas, ways)
    for trace in calls:
        try:
            run_trace(trace, alloc, h)
        except SimulationError as exc:
            assert "pools empty" in str(exc)
        assert h.metrics.total["cross_app_conflicts"] == 0
        assert h.metrics.total["cross_app_llc_evictions"] == 0


def accesses(counters):
    return counters["private_hits"] + counters["llc_hits"] + counters["llc_misses"]


@PROPERTY
@given(kind=st.sampled_from(list(PolicyKind)), calls=traces(), epoch=st.integers(1, 120))
def test_counters_are_conserved(engine, kind, calls, epoch):
    alloc, h = set_up(kind, SMALL.total_pages, all_colors)
    seen = set()
    for trace in calls:
        before = {key: h.metrics.total[key] for key in COUNTER_KEYS}
        frames = alloc.allocated_frames
        _, snaps = run_trace(trace, alloc, h, epoch=epoch)
        total = h.metrics.total
        for counters in (total, *h.metrics.per_app.values()):
            assert (counters["row_hits"] + counters["row_misses"]
                    + counters["row_conflicts"]) == counters["llc_misses"]
        for key in COUNTER_KEYS:
            assert sum(c[key] for c in h.metrics.per_app.values()) == total[key]
        assert accesses(total) - accesses(before) == len(trace)
        assert [accesses(s["total"]) - accesses(before) for s in snaps] == \
            list(range(epoch, len(trace) + 1, epoch))
        for earlier, later in zip([{"total": before}, *snaps], [*snaps, {"total": total}]):
            assert all(earlier["total"][k] <= later["total"][k] for k in COUNTER_KEYS)
        pages = {(trace.apps[a], v) for a, v in zip(trace.app.tolist(),
                                                    (trace.vaddr >> np.uint64(12)).tolist())}
        assert alloc.allocated_frames - frames == len(pages - seen)
        seen |= pages


@PROPERTY
@given(kind=st.sampled_from(list(PolicyKind)), calls=traces(), ways=st.sampled_from([1, 2]))
def test_more_llc_ways_never_miss_more(engine, kind, calls, ways):
    metrics = []
    for w in (ways, 2 * ways):
        alloc, h = set_up(kind, SMALL.total_pages, all_colors, w)
        for trace in calls:
            run_trace(trace, alloc, h)
        metrics.append(h.metrics)
    fewer, more = metrics
    assert more.total["llc_misses"] <= fewer.total["llc_misses"]
    for app, counters in more.per_app.items():
        assert counters["llc_misses"] <= fewer.per_app[app]["llc_misses"]


@SHORT
@given(kind=st.sampled_from(list(PolicyKind)), calls=traces(),
       names=st.permutations(["x", "y", "z"]), cores=st.permutations([9, 4, 0, 6]))
def test_relabelled_apps_and_cores_keep_totals(engine, kind, calls, names, cores):
    # an app keeps its quota under its new name; core c runs as cores[c]
    totals = []
    for apps, core_of in ((APPS, range(4)), (names, cores)):
        alloc, h = set_up(kind, SMALL.total_pages, dealt_colors, apps=apps)
        for t in calls:
            relabelled = Trace(tuple(apps[APPS.index(a)] for a in t.apps), t.app,
                               np.array(core_of)[t.core], t.vaddr, t.write)
            run_trace(relabelled, alloc, h)
        totals.append(h.metrics.total)
    assert totals[0] == totals[1]


@SHORT
@given(kind=st.sampled_from(list(PolicyKind)), calls=traces())
def test_alloc_csv_rows_are_the_first_touches(engine, kind, calls):
    alloc, h = set_up(kind, SMALL.total_pages, dealt_colors)
    spec = alloc.spec
    first_touches = {}      # pages in order of first touch
    for trace in calls:
        run_trace(trace, alloc, h)
        first_touches.update(dict.fromkeys(zip(map(trace.apps.__getitem__, trace.app.tolist()),
                                               (trace.vaddr >> np.uint64(12)).tolist())))
        rows = list(csv.reader(alloc_csv(alloc).decode().splitlines()))[1:]
        assert [(app, int(vpn)) for app, vpn, *_ in rows] == list(first_touches)
        tables = alloc.page_tables
        for app, vpn, pfn, *groups in rows:
            pfn, (color, llc_group, bank_group) = int(pfn), map(int, groups)
            assert tables[app][int(vpn)][0] == pfn
            if spec.partitioning:
                assert color == page_color(pfn, spec.color_bits, SMALL)
                assert color in alloc.quota_of(app)
                assert (llc_group, bank_group) == spec.project(color)
            else:
                assert color == llc_group == bank_group == -1
