import contextlib
import os
import shutil
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memcolor import _native
from memcolor.allocator import Allocator
from memcolor.classifier import cache_quota_spec
from memcolor.errors import ConfigError
from memcolor.hierarchy import (COUNTER_KEYS, DEFAULT_LATENCIES, N_CODES, CacheConfig,
                                MemoryHierarchy, Metrics, SimulationError,
                                private_sets, proxy_cycles, run_trace)
from memcolor.mapping import AddressMapping, MappingError, decompose
from memcolor.policies import PolicyKind, custom_spec, policy_spec
from memcolor.workloads import Trace, TraceRecord

M = AddressMapping()


class ReferenceLRU:
    """Exhaustive list-based LRU cache used as an independent oracle."""

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


def hier(**kw):
    return MemoryHierarchy(M, **kw)


def test_private_cache_must_hold_a_set_of_mapping_lines():
    # the private cache's lines are the mapping's: 512 bytes hold one set of
    # 8 64-byte lines, but none of 8 128-byte lines
    wide = AddressMapping(line_offset_bits=7, set_index_bits=tuple(range(7, 19)))
    assert private_sets(M, CacheConfig(512, 8)) == 1
    with pytest.raises(ConfigError, match="^hierarchy.private: 512 bytes hold no set of "
                       "8 128-byte lines$"):
        MemoryHierarchy(wide, private_cfg=CacheConfig(512, 8))


def test_back_to_back_same_address_private_hit():
    h = hier()
    first = h.access(0, "A", 0x1000)
    second = h.access(0, "A", 0x1000)
    assert not first.private_hit
    assert second.private_hit
    assert second.dram is None


def test_bank_ping_pong_cross_app_conflicts():
    # two rows of bank 0: row ids differ above bit 23
    h = hier()
    assert decompose(0, M).bank_id == decompose(1 << 23, M).bank_id
    assert decompose(0, M).row_id != decompose(1 << 23, M).row_id
    outcomes = []
    for i in range(4):  # fresh line each time so nothing is cached
        outcomes.append(h.access(0, "A", i * 64))
        outcomes.append(h.access(1, "B", (1 << 23) | (i * 64)))
    assert outcomes[0].dram == "row_miss"
    assert all(o.dram == "row_conflict" and o.cross_app_conflict
               for o in outcomes[1:])


def test_same_app_conflict_not_cross_app():
    h = hier()
    h.access(0, "A", 0x0)
    out = h.access(0, "A", 1 << 23)
    assert out.dram == "row_conflict"
    assert not out.cross_app_conflict


def test_outcome_exclusivity():
    h = hier()
    rng = np.random.default_rng(3)
    for a in rng.integers(0, M.mem_bytes, size=2000):
        o = h.access(0, "A", int(a))
        terminal = [o.private_hit, o.llc_hit, o.dram is not None]
        assert sum(terminal) == 1


def test_address_out_of_range():
    h = hier()
    with pytest.raises(MappingError):
        h.access(0, "A", M.mem_bytes + 64)


def test_small_instance_lru_oracle_exhaustive():
    # 2-set / 2-way / 4 distinct lines: all traces of length <= 8
    lines = [0, 1, 2, 3]
    cfg = CacheConfig(2 * 2 * 64, 2)
    sim = MemoryHierarchy(M, private_cfg=cfg)  # fresh core per trace
    core = 0
    for length in range(1, 9):
        for code in range(4 ** length):
            trace, c = [], code
            for _ in range(length):
                trace.append(lines[c % 4])
                c //= 4
            ref = ReferenceLRU(private_sets(M, cfg), cfg.ways)
            core += 1
            for line in trace:
                got = sim.access(core, "A", line << 6).private_hit
                assert got == ref.access(line)


def test_small_instance_lru_oracle_randomized():
    cfg = CacheConfig(2 * 2 * 64, 2)
    rng = np.random.default_rng(9)
    sim = MemoryHierarchy(M, private_cfg=cfg)
    for core in range(10_000):
        length = int(rng.integers(1, 33))
        trace = rng.integers(0, 4, size=length)
        ref = ReferenceLRU(private_sets(M, cfg), cfg.ways)
        for line in trace:
            assert sim.access(core, "A", int(line) << 6).private_hit == ref.access(int(line))


def test_llc_lru_matches_reference_through_private_bypass():
    # 1-line private cache forces almost everything to the LLC; check the
    # LLC hit sequence against the reference on the LLC's set geometry.
    sim = MemoryHierarchy(M, private_cfg=CacheConfig(64, 1), llc_ways=2)
    ref = ReferenceLRU(M.llc_sets, 2)
    last = None
    rng = np.random.default_rng(11)
    for line in rng.integers(0, 6, size=5000):
        line = int(line)
        out = sim.access(0, "A", line << 6)
        if line == last:
            assert out.private_hit
            continue
        assert out.llc_hit == ref.access(line)
        last = line


def test_proxy_cycles_linear():
    m = Metrics()
    assert proxy_cycles(m) == 0
    a = m.owner("A")
    m.counts[a, COUNTER_KEYS.index("private_hits")] += 10
    assert proxy_cycles(m) == 40
    m.counts *= 2
    assert proxy_cycles(m) == 80


def test_proxy_cycles_missing_latency():
    m = Metrics()
    with pytest.raises(SimulationError):
        proxy_cycles(m, {"private_hit": 4})


def test_run_trace_empty():
    spec = policy_spec(PolicyKind.INTERLEAVE, M)
    alloc = Allocator(1024, spec, M)
    metrics, snaps = run_trace([], alloc, hier())
    assert metrics.accesses == 0
    assert snaps == []


def test_run_trace_streaming_llc_miss_rate():
    spec = policy_spec(PolicyKind.INTERLEAVE, M)
    alloc = Allocator(M.total_pages, spec, M)
    alloc.register("A")
    trace = [TraceRecord("A", 0, i * 4096, "r") for i in range(20_000)]
    metrics, _ = run_trace(trace, alloc, hier())
    assert metrics.llc_miss_rate() == 1.0


def test_run_trace_reports_failing_record():
    spec = policy_spec(PolicyKind.INTERLEAVE, M)
    alloc = Allocator(2, spec, M)
    alloc.register("A")
    trace = [TraceRecord("A", 0, i * 4096, "r") for i in range(5)]
    with pytest.raises(SimulationError, match="record 2"):
        run_trace(trace, alloc, hier())


def test_run_trace_epoch_snapshots():
    spec = policy_spec(PolicyKind.INTERLEAVE, M)
    alloc = Allocator(M.total_pages, spec, M)
    alloc.register("A")
    trace = [TraceRecord("A", 0, (i % 64) * 64, "r") for i in range(100)]
    _, snaps = run_trace(trace, alloc, hier(), epoch=25)
    assert len(snaps) == 4
    totals = [sum(s["total"].values()) for s in snaps]
    assert totals == sorted(totals)


def test_disjoint_bank_groups_no_cross_conflicts():
    # A-VP, apps on disjoint o-colors: never the same bank
    spec = policy_spec(PolicyKind.A_VP, M)
    alloc = Allocator(M.total_pages, spec, M)
    alloc.assign_quota("A", {0, 1})
    alloc.assign_quota("B", {2, 3})
    rng = np.random.default_rng(4)
    trace = []
    for i in range(20_000):
        app = "AB"[i % 2]
        trace.append(TraceRecord(app, i % 2, int(rng.integers(0, 1 << 26)), "r"))
    metrics, _ = run_trace(trace, alloc, hier())
    assert metrics.total["cross_app_conflicts"] == 0
    assert metrics.total["cross_app_llc_evictions"] == 0


def test_metrics_json_stable_keys():
    h = hier()
    h.access(0, "A", 0)
    doc = h.metrics.to_json()
    for key in ("private_hits", "llc_hits", "llc_misses", "row_hits",
                "row_misses", "row_conflicts", "cross_app_conflicts",
                "proxy_cycles"):
        assert f'"{key}"' in doc


# --- batched run_trace against the per-access reference ----------------------

# 16384 frames; rows of 16 frames, so banks switch rows often
DM = AddressMapping(row_shift=16, mem_bytes=1 << 26)
TINY_PRIVATE = CacheConfig(2 * 2 * 64, 2)
TINY_LLC_WAYS = 1                               # direct-mapped


def replay_reference(trace, alloc, h, epoch=None):
    """Record-by-record replay through `touch` and `access`."""
    shift = h.mapping.page_offset_bits
    snaps = []
    for i, rec in enumerate(trace):
        try:
            pfn = alloc.touch(rec.app, rec.vaddr >> shift)
        except Exception as exc:
            raise SimulationError(f"record {i}: {exc}") from exc
        h.access(rec.core, rec.app, (pfn << shift) | (rec.vaddr & (h.mapping.page_bytes - 1)))
        if epoch and (i + 1) % epoch == 0:
            snaps.append(h.metrics.snapshot())
    return h.metrics, snaps


def alloc_csv(alloc) -> bytes:
    """The bytes of the allocator's `alloc.csv`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "alloc.csv")
        alloc.write_alloc_csv(path)
        with open(path, "rb") as fh:
            return fh.read()


def replay_state(alloc, h):
    """Everything a replay leaves behind, orders included."""
    return {
        "per_app": list(h.metrics.per_app.items()),
        "total": h.metrics.total,
        "tables": [(a, list(pt.items())) for a, pt in alloc.page_tables.items()],
        "alloc_csv": alloc_csv(alloc),
        "free": (alloc.free_frames, alloc.free_by_color()),
        "round_robin": list(zip(alloc._apps, alloc._rr.tolist())),
        "next_draw": int(alloc._rng.integers(1 << 30)),
        "hierarchy": h.state(),
    }


def mixed_trace(seed, n=6000, pages=300, late=None):
    """Apps A, B and C at random turns.  B runs on cores 1 and 3; C starts
    at record `late`.  Few line offsets per page, so lines crowd into few
    LLC sets."""
    rng = np.random.default_rng(seed)
    trace = []
    for i in range(n):
        app = "ABC"[int(rng.integers(3 if late is None or i >= late else 2))]
        core = {"A": 0, "B": 1 + 2 * int(rng.integers(2)), "C": 2}[app]
        vpn = int(rng.integers(pages)) + 1000 * (ord(app) - ord("A"))
        line = int(rng.integers(3))
        trace.append(TraceRecord(app, core, vpn * 4096 + line * 64, "r"))
    return trace


def specs():
    return [(k.value, policy_spec(k, DM)) for k in PolicyKind] + [
        ("cache-quota", cache_quota_spec(DM))]


def set_up(spec, quotas, total_pages, allow_fallback=False):
    alloc = Allocator(total_pages, spec, DM, seed=7, allow_fallback=allow_fallback)
    if spec.partitioning:
        colors = range(spec.page_colors)
        plan = {"disjoint": {app: [c for c in colors if c % 3 == i]
                             for i, app in enumerate("ABC")},
                "shared": {"A": list(colors), "B": list(colors), "C": [0]}}[quotas]
        for app, mine in plan.items():
            alloc.assign_quota(app, mine)
    else:
        for app in "ABC":
            alloc.register(app)
    return alloc, MemoryHierarchy(DM, TINY_PRIVATE, TINY_LLC_WAYS)


def replay_both(make, traces, epoch=None):
    """Replay `traces` one after another on fresh objects from `make()`,
    batched and by reference; returns each side's outcomes and end state."""
    sides = []
    for replay in (run_trace, replay_reference):
        alloc, h = make()
        outcomes = []
        for trace in traces:
            try:
                metrics, snaps = replay(trace, alloc, h, epoch)
                outcomes.append(("ok", snaps))
            except SimulationError as exc:
                outcomes.append(("error", str(exc)))
            # clear the access bits, so the next replay must set them again
            outcomes.append([alloc.access_bit_scan_and_clear(a) for a in alloc.page_tables])
        sides.append((outcomes, replay_state(alloc, h)))
    return sides


@pytest.mark.parametrize("quotas", ["disjoint", "shared"])
@pytest.mark.parametrize("name,spec", specs(), ids=[n for n, _ in specs()])
def test_batched_replay_matches_reference(name, spec, quotas):
    traces = [mixed_trace(1, late=2500), mixed_trace(2, n=3000)]
    batched, reference = replay_both(
        lambda: set_up(spec, quotas, 1 << 14), traces, epoch=700)
    assert batched == reference
    outcomes, state = batched
    assert [o[0] for o in outcomes[::2]] == ["ok", "ok"]
    assert len(outcomes[0][1]) == 6000 // 700
    assert "C" not in outcomes[0][1][2]["per_app"]      # C starts at record 2500
    assert "C" in outcomes[0][1][3]["per_app"]
    if quotas == "shared" or not spec.partitioning:
        total = state["total"]
        assert total["cross_app_llc_evictions"] > 0 and total["cross_app_conflicts"] > 0


@pytest.mark.parametrize("allow_fallback", [False, True])
@pytest.mark.parametrize("name,spec", specs(), ids=[n for n, _ in specs()])
def test_batched_replay_pool_exhaustion_matches_reference(name, spec, allow_fallback):
    # 256 frames for 3 x 300 pages: some pool runs dry mid-trace
    traces = [mixed_trace(3, pages=300), mixed_trace(4, n=500)]
    batched, reference = replay_both(
        lambda: set_up(spec, "disjoint", 256, allow_fallback), traces)
    assert batched == reference
    outcomes = batched[0]
    assert outcomes[0][0] == "error" and "pools empty" in outcomes[0][1]


def test_per_app_lists_apps_in_first_counted_order_after_a_stop():
    # A runs its one color dry before C's first record; B then comes before C
    def make():
        alloc = Allocator(64, policy_spec(PolicyKind.A_VP, DM), DM)
        for app, color in zip("ABC", range(3)):
            alloc.assign_quota(app, [color])
        return alloc, MemoryHierarchy(DM, TINY_PRIVATE, TINY_LLC_WAYS)

    def records(app, core, pages):
        return [TraceRecord(app, core, vpn * 4096, "r") for vpn in pages]

    stopped = records("A", 0, range(20)) + records("C", 2, range(4))
    later = records("B", 1, range(4)) + records("C", 2, range(4))
    batched, reference = replay_both(make, [stopped, later])
    assert batched == reference
    outcomes, state = batched
    assert outcomes[0] == ("error", "record 16: app 'A': all allowed color pools empty: [0]")
    assert [app for app, _ in state["per_app"]] == ["A", "B", "C"]


def test_batched_replay_unregistered_app_matches_reference():
    spec = policy_spec(PolicyKind.A_VP, DM)

    def make():
        alloc = Allocator(1 << 14, spec, DM, seed=7)
        for i, app in enumerate("AB"):
            alloc.assign_quota(app, [c for c in range(spec.page_colors) if c % 3 == i])
        return alloc, MemoryHierarchy(DM, TINY_PRIVATE, TINY_LLC_WAYS)

    batched, reference = replay_both(make, [mixed_trace(5, late=1000)])
    assert batched == reference
    status, message = batched[0][0]
    assert status == "error" and message.endswith(": app 'C' not registered")


def test_batched_replay_addresses_past_63_bits():
    spec = policy_spec(PolicyKind.RANDOM, DM)
    trace = [r._replace(vaddr=(1 << 64) - r.vaddr - 4096) for r in mixed_trace(6, n=2000)]
    batched, reference = replay_both(lambda: set_up(spec, "disjoint", 1 << 14), [trace])
    assert batched == reference


@pytest.mark.parametrize("name,spec", specs(), ids=[n for n, _ in specs()])
def test_batched_replay_of_trace_matches_reference(name, spec):
    # one Trace replayed twice (its page numbering kept from the first
    # replay), then a slice of it, against the record lists by reference
    records = mixed_trace(7, late=2500)
    trace = Trace.of(records)

    def make():
        return set_up(spec, "shared", 1 << 14)

    batched = replay_both(make, [trace, trace, trace[1000:4000]], epoch=700)[0]
    reference = replay_both(make, [records, records, records[1000:4000]], epoch=700)[1]
    assert batched == reference
    assert trace.pages(DM.page_offset_bits) is trace.pages(DM.page_offset_bits)


def test_run_trace_rejects_negative_epoch():
    alloc, h = set_up(policy_spec(PolicyKind.A_VP, DM), "disjoint", 1 << 14)
    with pytest.raises(SimulationError, match="epoch must be >= 0, got -7"):
        run_trace(mixed_trace(1, n=100), alloc, h, epoch=-7)
    assert h.metrics.accesses == 0
    assert run_trace(mixed_trace(1, n=100), alloc, h, epoch=0)[1] == []


def test_run_trace_rejects_allocator_beyond_memory():
    # an allocator with more frames than the hierarchy's memory could place
    # a page past its end: run_trace refuses the pair before any change
    small = AddressMapping(mem_bytes=1 << 24)             # 4096 frames
    trace = [TraceRecord("A", i % 3, i * 4096, "r") for i in range(5000)]
    for loops in (contextlib.nullcontext(), python_loops()):
        alloc = Allocator(8192, policy_spec(PolicyKind.INTERLEAVE, small), small)
        alloc.register("A")
        h = MemoryHierarchy(small)
        h.access(3, "A", 0)
        before = dict(h.metrics.total), h.state()
        with loops, pytest.raises(MappingError, match=r"the allocator's 8192 frames exceed "
                                  r"the hierarchy's memory of 4096 frames"):
            run_trace(trace, alloc, h)
        assert (dict(h.metrics.total), h.state()) == before
        assert alloc.allocated_frames == 0


@pytest.mark.parametrize("name,spec", specs(), ids=[n for n, _ in specs()])
def test_batched_replay_needs_no_per_page_touch(name, spec):
    alloc, h = set_up(spec, "shared", 1 << 14)
    alloc.touch = None          # a per-page fallback would fail the replay
    run_trace(mixed_trace(1), alloc, h)
    run_trace(mixed_trace(2), alloc, h)
    assert alloc.allocated_frames == alloc_csv(alloc).count(b"\n") - 1 > 0


# --- the native kernel against the Python loops ------------------------------

needs_gcc = pytest.mark.skipif(shutil.which(_native.CC) is None,
                               reason=f"{_native.CC} not installed")


def python_loops():
    """Run the Python loops instead of the kernel while active."""
    return mock.patch.object(_native, "kernel", lambda: None)


@st.composite
def replay_cases(draw):
    """A tiny mapping of 16 frames, whose set and bank bits each form 1-3
    runs, so the extractors merge several segments, and whose row shift is
    inside its 16 address bits or one of the largest a mapping may have,
    60-63; tiny caches; and 1-3
    replay calls on one hierarchy.  A call has its own cores, apps (None
    among the choices), frames in memory for 1-4 pages and accesses (core,
    app, page, virtual address)."""
    def runs(low):
        bits, p = [], low + draw(st.integers(0, 2))
        for _ in range(draw(st.integers(1, 3))):
            length = draw(st.integers(1, 2))
            bits += range(p, p + length)
            p += length + draw(st.integers(1, 3))
        return tuple(bits)

    row_shift = draw(st.one_of(st.integers(12, 17), st.integers(60, 63)))
    geometry = dict(set_bits=runs(6), bank_bits=runs(8), row_shift=row_shift,
                    psets=draw(st.sampled_from([1, 2, 4])), pways=draw(st.integers(1, 2)),
                    lways=draw(st.integers(1, 2)))
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        cores = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=3, unique=True))
        apps = draw(st.lists(st.sampled_from(["A", "B", "C", None]), min_size=1,
                             max_size=4, unique=True))
        frames = draw(st.lists(st.integers(0, 15), min_size=1, max_size=4))
        vaddr = st.builds(lambda high, offset: high << 12 | offset, st.integers(0, 2**52 - 1),
                          st.sampled_from([0, 8, 64, 200, 2048, 4095]))
        access = st.tuples(st.integers(0, len(cores) - 1), st.integers(0, len(apps) - 1),
                           st.integers(0, len(frames) - 1), vaddr)
        calls.append((cores, apps, frames, draw(st.lists(access, max_size=60))))
    return geometry, calls


def replay_tiny(geometry, calls):
    """Replay `calls` through `MemoryHierarchy._replay` on a fresh tiny
    hierarchy, one access per block of counts; returns per call the
    accesses' codes, and the end state, orders included."""
    g = geometry
    m = AddressMapping(set_index_bits=g["set_bits"], bank_index_bits=g["bank_bits"],
                       b_bits=(), c_bits=(), o_bits=(), row_shift=g["row_shift"],
                       mem_bytes=1 << 16)
    h = MemoryHierarchy(m, CacheConfig(g["psets"] * g["pways"] * 64, g["pways"]), g["lways"])
    out = []
    for cores, apps, frames, accesses in calls:
        private_base = np.array([h.private_base(c) for c in cores], dtype=np.int64)
        owner_of = np.array([h.metrics.owner(a) for a in apps], dtype=np.int32)
        core, app, page, vaddr = (np.array(column, dtype=dtype) for column, dtype in zip(
            zip(*accesses) if accesses else ((),) * 4, (np.int32, np.int32, np.int32, np.uint64)))
        counts = np.zeros((len(accesses), len(apps), N_CODES), dtype=np.int64)
        h._replay(len(accesses), 1, page, vaddr, core, app, np.array(frames, dtype=np.int64),
                  private_base, owner_of, counts)
        # each block holds one count, at the access's (app, code)
        block, of, code = np.nonzero(counts)
        assert (block.tolist(), of.tolist(), counts.sum()) == (
            list(range(len(accesses))), app.tolist(), len(accesses))
        out.append(code.tolist())
    return out, h.state()


@needs_gcc
@settings(max_examples=300, deadline=None)
@given(replay_cases())
def test_kernel_replay_matches_python_loop(case):
    assert _native.kernel() is not None
    native = replay_tiny(*case)
    with python_loops():
        assert native == replay_tiny(*case)


@needs_gcc
@settings(max_examples=100, deadline=None)
@given(total=st.integers(1, 64) | st.integers(2000, 5000),
       batches=st.lists(st.integers(0, 16) | st.integers(300, 700), max_size=4),
       seed=st.integers(0, 3))
def test_kernel_draw_frames_matches_python_loop(total, batches, seed):
    # small pools drawn down to their last frame, and random tables that
    # grow within and between batches
    assert _native.kernel() is not None
    sides = []
    for loops in (contextlib.nullcontext(), python_loops()):
        alloc = Allocator(total, policy_spec(PolicyKind.RANDOM, DM), DM, seed=seed)
        alloc.register("A")
        drawn, vpn = [], 0
        with loops:
            for n in batches:
                frames, error = alloc.translate_page_array(
                    ["A"], np.zeros(n, dtype=np.int64), np.arange(vpn, vpn + n, dtype=np.uint64))
                vpn += len(frames)
                drawn.append((frames.tolist(), str(error)))
        # the free list in slot order: slot i holds frame i unless displaced
        table = alloc._table.tolist()
        displaced = dict(zip(table[0::2], table[1::2]))
        free = [displaced.get(i, i) for i in range(alloc.free_frames)]
        sides.append((drawn, free, table, alloc.free_frames,
                      int(alloc._rng.integers(1 << 30))))
    assert sides[0] == sides[1]


@needs_gcc
@settings(max_examples=200, deadline=None)
@given(data=st.data(), bits=st.lists(st.sampled_from(sorted(M.color_classes)), max_size=4,
                                     unique=True),
       total=st.integers(1, 64) | st.integers(1900, 2100), disjoint=st.booleans(),
       fallback=st.booleans())
def test_kernel_place_frames_matches_python_loop(data, bits, total, disjoint, fallback):
    # 1-16 colors, overlapping or disjoint quotas, pools small enough to run
    # empty within a batch, and with color bit 22, fewer frames than the
    # 2,048 of one color period
    assert _native.kernel() is not None
    spec = custom_spec(bits, M)
    colors = spec.page_colors
    if disjoint:
        owner = data.draw(st.permutations(range(colors)))
        quotas = [owner[i::min(3, colors)] for i in range(min(3, colors))]
    else:
        quotas = data.draw(st.lists(st.sets(st.integers(0, colors - 1), min_size=1),
                                    min_size=1, max_size=3))
    names = [f"app{i}" for i in range(len(quotas))]
    batches = data.draw(st.lists(st.lists(st.integers(0, len(names) - 1), max_size=120),
                                 min_size=1, max_size=3))
    sides = []
    for loops in (contextlib.nullcontext(), python_loops()):
        alloc = Allocator(total, spec, M, allow_fallback=fallback)
        for name, quota in zip(names, quotas):
            alloc.assign_quota(name, quota)
        placed, vpn = [], 0
        with loops:
            for batch in batches:
                frames, error = alloc.translate_page_array(
                    names, np.array(batch, dtype=np.int32),
                    np.arange(vpn, vpn + len(batch), dtype=np.uint64))
                vpn += len(batch)
                placed.append((frames.tolist(), str(error)))
        sides.append((placed, alloc.page_tables, alloc._cursor.tolist(), alloc._rr.tolist()))
    assert sides[0] == sides[1]


@needs_gcc
def test_failed_build_falls_back_to_identical_results(monkeypatch, fresh_kernel):
    def replay_twice():
        alloc, h = set_up(policy_spec(PolicyKind.RANDOM, DM), "shared", 1 << 14)
        snaps = [run_trace(mixed_trace(seed), alloc, h, epoch=700)[1] for seed in (1, 2)]
        return snaps, h.metrics.to_json(), replay_state(alloc, h)

    native = replay_twice()
    _native.kernel.cache_clear()
    monkeypatch.setattr(_native, "CC", "/nonexistent/gcc")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = replay_twice()
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "/nonexistent/gcc" in str(caught[0].message)
    assert fallback == native
