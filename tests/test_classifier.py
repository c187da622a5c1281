import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memcolor.allocator import Allocator
from memcolor.classifier import (Category, ClassifierError, OnlineEvidence,
                                 PageAccessSampler, SamplerConfig, Thresholds,
                                 _decide, classify_offline,
                                 classify_trace_online, job2_wpd)
from memcolor.mapping import AddressMapping
from memcolor.policies import PolicyKind, policy_spec
from memcolor.workloads import (ArchetypeParams, Trace, TraceRecord,
                                canonical_params, gen)

M = AddressMapping()
CFG = SamplerConfig()
TH = Thresholds()


def oracle_wpd(counts):
    """Brute-force bucketing: enumerate geometric ranges explicitly."""
    ranges = [(2 ** (b - 1), 2 ** b, b) for b in range(1, 40)]
    weights = []
    for c in counts:
        if c == 0:
            continue
        for lo, hi, w in ranges:
            if lo <= c < hi:
                weights.append(w)
                break
    return sum(weights) / len(weights)


def count_bucket(count: int) -> int:
    """Geometric bucket index of an access count: [1,2)->1, [2,4)->2, ...;
    the plain reference `job2_wpd`'s bucketing is checked against."""
    if count < 1:
        raise ClassifierError(f"count {count} outside bucket domain [1, inf)")
    return count.bit_length()


def test_count_bucket_edges():
    assert count_bucket(1) == 1
    assert count_bucket(2) == 2
    assert count_bucket(3) == 2
    assert count_bucket(4) == 3
    with pytest.raises(ClassifierError):
        count_bucket(0)


def test_wpd_all_single_access():
    assert job2_wpd([1, 1, 1], CFG) == 1.0


def test_wpd_convex_combination():
    # half the pages in bucket 1, half in bucket 3
    assert job2_wpd([1, 1, 4, 5], CFG) == 2.0


def test_wpd_matches_oracle():
    counts = [1, 1, 5, 9]
    assert job2_wpd(counts, CFG) == oracle_wpd(counts)


def test_wpd_all_zero_errors():
    with pytest.raises(ClassifierError):
        job2_wpd([0], CFG)


def test_wpd_negative_count_errors():
    with pytest.raises(ClassifierError, match=r"count -2 outside bucket domain"):
        job2_wpd([3, -2, -5], CFG)


def loop_wpd(counts, cfg):
    """WPD page by page: one bucket and one weight per touched page,
    summed in order."""
    total, weighted = 0, 0.0
    for c in counts:
        if c:
            b, w = count_bucket(c), cfg.bucket_weights
            weighted += float(b) if w is None else w[min(b, len(w)) - 1]
            total += 1
    return weighted / total


@given(counts=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=60).filter(any),
       weights=st.none() | st.lists(st.floats(0.01, 100), min_size=1, max_size=25).map(tuple))
@settings(max_examples=100)
def test_wpd_equals_per_page_loop(counts, weights):
    cfg = SamplerConfig(bucket_weights=weights)
    expected = loop_wpd(counts, cfg)
    assert job2_wpd(np.array(counts), cfg) == expected


@given(st.lists(st.integers(min_value=1, max_value=10 ** 6), min_size=1, max_size=50))
@settings(max_examples=200)
def test_wpd_properties(counts):
    w = job2_wpd(counts, CFG)
    assert w == pytest.approx(oracle_wpd(counts))
    # permutation invariance
    assert job2_wpd(counts[::-1], CFG) == pytest.approx(w)
    # duplicating every page leaves wpd unchanged
    assert job2_wpd(counts + counts, CFG) == pytest.approx(w)


def test_classify_online_rules():
    th = Thresholds(hot_page_low=10, hot_page_high=100, wpd_low=1.5, wpd_high=6)

    def decide(h, counts):
        ev = OnlineEvidence(hot_pages=[h], counts=np.array(counts))
        return _decide(ev.mean_hot_pages(), ev.wpd(CFG), th)

    assert decide(5, [1]) is Category.CCF
    assert decide(200, [1, 1]) is Category.LLCT
    assert decide(200, [100, 100]) is Category.LLCH
    assert decide(200, [4, 4]) is Category.LLCM
    assert decide(50, [1]) is Category.LLCM
    # boundary takes the >= branch
    assert decide(100, [1]) is Category.LLCT


def test_classify_online_no_evidence():
    with pytest.raises(ClassifierError, match="no completed sampling interval"):
        OnlineEvidence().mean_hot_pages()


def test_sampler_job1_intervals():
    spec = policy_spec(PolicyKind.INTERLEAVE, M)
    alloc = Allocator(4096, spec, M)
    alloc.register("A")
    sampler = PageAccessSampler(alloc, SamplerConfig(period=10))
    for i in range(30):
        vpn = i % 7
        alloc.touch("A", vpn)
        sampler.on_access("A", vpn)
    ev = sampler.evidence["A"]
    assert len(ev.hot_pages) == 3
    assert ev.hot_pages[0] == 7
    assert sum(ev.access_counters.values()) == 30


def test_streaming_hot_pages_per_interval():
    # line-stride stream: ~ period * 64/4096 pages per interval
    spec = policy_spec(PolicyKind.INTERLEAVE, M)
    alloc = Allocator(M.total_pages, spec, M)
    alloc.register("A")
    sampler = PageAccessSampler(alloc, SamplerConfig(period=1000))
    for i in range(4000):
        vpn = (i * 64) // 4096
        alloc.touch("A", vpn)
        sampler.on_access("A", vpn)
    hot = sampler.evidence["A"].hot_pages
    assert len(hot) == 4
    assert all(15 <= h <= 17 for h in hot)


# Short traces of every kind; their lengths (6000, 3000, 3500, 5120) are
# split evenly by some of the periods below and leave a remainder under others.
DIFF_TRACES = [
    ArchetypeParams("ccf", 8, 6000, seed=3),
    ArchetypeParams("llct", 3000, 3000, reuse="none", stride=4096, seed=4),
    ArchetypeParams("llcm", 1000, 3500, reuse="zipf", stride=4096, seed=5),
    ArchetypeParams("llch", 40, 5120, seed=6),
]
DIFF_CONFIGS = [
    SamplerConfig(period=1000),
    SamplerConfig(period=7, bucket_weights=(0.5, 1.25, 2.75)),
    SamplerConfig(period=512, bucket_weights=(1.0, 0.3, 4.5, 2.2, 7.1)),
]


def reference_evidence(trace, cfg):
    """Per-access reference: first-touch translate each record, then show
    the access to the sampler, as a solo replay does."""
    (app,) = {r.app for r in trace}
    alloc = Allocator(1 << 14, policy_spec(PolicyKind.INTERLEAVE, M), M)
    alloc.register(app)
    sampler = PageAccessSampler(alloc, cfg)
    for r in trace:
        vpn = r.vaddr >> M.page_offset_bits
        alloc.touch(app, vpn)
        sampler.on_access(app, vpn)
    return sampler.evidence[app]


@pytest.mark.parametrize("cfg", DIFF_CONFIGS, ids=lambda c: f"period{c.period}")
@pytest.mark.parametrize("params", DIFF_TRACES, ids=lambda p: p.kind)
def test_online_evidence_matches_sampler(params, cfg):
    trace = gen(params)
    ref = reference_evidence(trace, cfg)
    cat, ev, wpd = classify_trace_online(trace, M, cfg=cfg)
    assert len(ref.hot_pages) == len(trace) // cfg.period
    assert ev.hot_pages == ref.hot_pages
    assert all(type(h) is int for h in ev.hot_pages)
    assert list(ev.access_counters.items()) == list(ref.access_counters.items())
    assert wpd == ref.wpd(cfg)
    assert cat is _decide(ref.mean_hot_pages(), ref.wpd(cfg), TH)


@given(accesses=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 4095)),
                         min_size=1, max_size=300),
       period=st.integers(1, 60), start=st.integers(0, 20))
@settings(max_examples=200, deadline=None)
def test_online_evidence_of_trace_matches_sampler(accesses, period, start):
    # vpns far apart (up to 2^46), so page keys use the high address bits
    records = [TraceRecord("A", 0, ((vpn << 40) + 1 << 12) + offset, "r")
               for vpn, offset in accesses]
    trace = Trace.of([TraceRecord("B", 1, 0, "w")] * start + records)[start:]
    cfg = SamplerConfig(period=period)
    if len(records) < period:
        with pytest.raises(ClassifierError, match="fewer than one sampling period"):
            classify_trace_online(trace, M, cfg=cfg)
        return
    ref = reference_evidence(records, cfg)
    cat, ev, wpd = classify_trace_online(trace, M, cfg=cfg)
    assert ev.hot_pages == ref.hot_pages
    counters = ev.access_counters
    assert list(counters.items()) == list(ref.access_counters.items())
    assert all(type(k) is int and type(v) is int for k, v in counters.items())
    assert wpd == ref.wpd(cfg)
    assert ev == ref and ev != OnlineEvidence(ev.hot_pages, ev.vpns, ev.counts + 1)
    assert (cat, ev, wpd) == classify_trace_online(records, M, cfg=cfg)
    # the dict is the caller's own: changing it changes no later read
    counters[next(iter(counters))] += 1
    counters[-1] = 1
    assert ev.access_counters == ref.access_counters and ev.wpd(cfg) == wpd


def test_offline_of_trace_matches_record_list():
    trace = gen(ArchetypeParams("llch", 40, 5120, seed=6))
    res = classify_offline(trace, M)
    assert res == classify_offline(list(trace), M)
    assert res.footprint_pages == 40
    with pytest.raises(ClassifierError, match=r"single-app trace, got \['A', 'B'\]"):
        classify_offline(list(trace) + [TraceRecord("B", 0, 0, "r")], M)


def test_offline_empty_trace():
    with pytest.raises(ClassifierError):
        classify_offline([], M)


def test_offline_ccf():
    res = classify_offline(gen(canonical_params("ccf", seed=1)), M)
    assert res.category is Category.CCF
    assert res.degradation < TH.d_ccf_llct
    assert res.footprint_pages <= TH.footprint_pages


def test_offline_llct_insensitive_but_huge():
    res = classify_offline(gen(canonical_params("llct", seed=1)), M)
    assert res.category is Category.LLCT
    assert abs(res.degradation) < TH.d_ccf_llct
    assert res.footprint_pages > TH.footprint_pages


def test_offline_llch_quota_sensitive():
    res = classify_offline(gen(canonical_params("llch", seed=1)), M)
    assert res.category is Category.LLCH
    assert res.degradation >= TH.d_llch


def test_offline_monotone_in_llch_working_set():
    degradations = []
    for pages in (256, 512, 1024):
        p = ArchetypeParams("llch", pages, pages * 64 * 2, reuse="loop",
                            stride=64, seed=1)
        degradations.append(classify_offline(gen(p), M).degradation)
    assert degradations == sorted(degradations)


def test_online_offline_agree_on_archetypes():
    for kind in ("ccf", "llct", "llcm", "llch"):
        trace = gen(canonical_params(kind, seed=7))
        off = classify_offline(trace, M)
        on, _, _ = classify_trace_online(trace, M)
        assert on is off.category
        assert on.value == kind.upper()


def test_threshold_validation():
    with pytest.raises(ClassifierError):
        Thresholds(hot_page_low=10, hot_page_high=5)
    with pytest.raises(ClassifierError):
        Thresholds(d_ccf_llct=1.5)
