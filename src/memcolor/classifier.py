"""Application classification.

Offline oracle: run one app's trace twice through a fresh hierarchy, once
with the whole LLC and once confined to 1 of the 2^|c_bits| cache color
groups (pure cache-only bits, so DRAM banks are untouched; 8 groups under
the default mapping), and classify by the relative proxy-cycle degradation
plus the page footprint.

Online method: two periodic sampling jobs over the app's page table — one
counts hot pages via access-bit scan-and-clear, the other keeps per-page
access counters and summarizes them as a weighted page distribution (WPD,
bucket weight = log2 count-range index) — then thresholds on (mean hot
pages, WPD) pick the category.  Both jobs see only the app's own page
accesses, so `classify_trace_online` computes their evidence straight from
the trace; `PageAccessSampler` is the per-access reference the tests hold
it to.  The evidence keeps the counters as arrays, the pages' vpns and
counts in first-touch order; its {vpn: count} dict is built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from memcolor.allocator import Allocator
from memcolor.errors import MemcolorError
from memcolor.hierarchy import (DEFAULT_LATENCIES, DEFAULT_LLC_WAYS,
                                DEFAULT_PRIVATE, MemoryHierarchy,
                                proxy_cycles, run_trace)
from memcolor.mapping import AddressMapping
from memcolor.policies import custom_spec
from memcolor.workloads import Trace


class ClassifierError(MemcolorError, ValueError):
    pass


class Category(str, Enum):
    CCF = "CCF"      # fits private caches
    LLCT = "LLCT"    # thrashes the LLC, no reuse
    LLCM = "LLCM"    # moderately LLC sensitive
    LLCH = "LLCH"    # highly LLC sensitive


@dataclass(frozen=True)
class SamplerConfig:
    # Accesses per sampling interval.  Desk-scale traces are short, so the
    # default is 10^4; threshold defaults are calibrated at this period
    # (scripts/calibrate_thresholds.py) and hold for any period >= it.
    period: int = 10_000
    bucket_weights: tuple | None = None   # None -> weight(bucket b) = b

    def __post_init__(self):
        if self.period <= 0:
            raise ClassifierError("sampling period must be positive")
        if self.bucket_weights is not None and not all(
                math.isfinite(w) and w >= 0 for w in self.bucket_weights):
            raise ClassifierError(f"bucket_weights must be finite and >= 0, "
                                  f"got {list(self.bucket_weights)}")

    def weights(self, buckets: np.ndarray) -> np.ndarray:
        """The weight of each bucket: `bucket_weights[b - 1]`, the last
        weight for every bucket past the table, or b itself."""
        if self.bucket_weights is None:
            return buckets.astype(np.float64)
        table = np.asarray(self.bucket_weights, dtype=np.float64)
        return table[np.minimum(buckets, len(table)) - 1]


@dataclass(eq=False)
class OnlineEvidence:
    """One app's hot pages per interval (JOB1), and its touched pages' vpns
    and access counts (JOB2), arrays in first-touch order."""
    hot_pages: list = field(default_factory=list)
    vpns: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint64))
    counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def access_counters(self) -> dict:
        """{vpn: count} in first-touch order; a new dict on every read."""
        return dict(zip(self.vpns.tolist(), self.counts.tolist()))

    def __eq__(self, other):
        return (isinstance(other, OnlineEvidence) and self.hot_pages == other.hot_pages
                and np.array_equal(self.vpns, other.vpns)
                and np.array_equal(self.counts, other.counts))

    def wpd(self, cfg: SamplerConfig) -> float:
        return job2_wpd(self.counts, cfg)

    def mean_hot_pages(self) -> float:
        if not self.hot_pages:
            raise ClassifierError("no completed sampling interval")
        return sum(self.hot_pages) / len(self.hot_pages)


@dataclass(frozen=True)
class Thresholds:
    # Online decision thresholds, calibrated on the synthetic archetype
    # corpus by scripts/calibrate_thresholds.py (grid search maximizing
    # agreement with the offline oracle).
    hot_page_low: float = 64.0
    hot_page_high: float = 128.0
    wpd_low: float = 1.2
    wpd_high: float = 6.0
    # Offline oracle cutoffs on relative proxy-cycle degradation.
    d_ccf_llct: float = 0.05
    d_llch: float = 0.20
    # Pages that fit the private cache (256 KiB / 4 KiB).
    footprint_pages: int = 64

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ClassifierError(f"{name} must be finite, got {value}")
        if self.hot_page_low > self.hot_page_high:
            raise ClassifierError("hot_page_low must be <= hot_page_high")
        if self.wpd_low > self.wpd_high:
            raise ClassifierError("wpd_low must be <= wpd_high")
        for d in (self.d_ccf_llct, self.d_llch):
            if not 0 < d < 1:
                raise ClassifierError("degradation cutoffs must be in (0,1)")
        if self.d_ccf_llct >= self.d_llch:      # no degradation would be LLCM
            raise ClassifierError("d_ccf_llct must be < d_llch")
        if self.footprint_pages < 1:            # no footprint would be CCF
            raise ClassifierError(f"footprint_pages must be >= 1, got {self.footprint_pages}")


def job2_wpd(counts, cfg: SamplerConfig) -> float:
    """Weighted page distribution: mean bucket weight over touched pages,
    from their access counts.  A count's geometric bucket, [1,2)->1,
    [2,4)->2, ..., is its bit length, the exponent `np.frexp` returns;
    pages with a count of 0 are not touched and have none.  The weights add
    up in page order, as in a loop over the pages, not in numpy's pairwise
    order."""
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 0).any():
        raise ClassifierError(f"count {counts[counts < 0][0]} outside bucket domain [1, inf)")
    buckets = np.frexp(counts[counts > 0])[1]
    if not buckets.size:
        raise ClassifierError("WPD undefined: no page was accessed")
    return float(np.cumsum(cfg.weights(buckets))[-1]) / len(buckets)


class PageAccessSampler:
    """Per-access sampling driver, the reference for `classify_trace_online`:
    feed it every (app, vpn) access after the allocator's touch; it advances
    JOB2's per-page counters each access and runs JOB1's access-bit scan at
    each period boundary."""

    def __init__(self, allocator: Allocator, cfg: SamplerConfig | None = None):
        self.allocator = allocator
        self.cfg = cfg or SamplerConfig()
        self._seen: dict[object, tuple] = {}     # app -> (hot pages, {vpn: count})
        self._since_scan: dict[object, int] = {}

    @property
    def evidence(self) -> dict[object, OnlineEvidence]:
        """Each app's evidence so far; new objects on every read."""
        return {app_id: OnlineEvidence(list(hot), np.fromiter(counters, np.uint64, len(counters)),
                                       np.fromiter(counters.values(), np.int64, len(counters)))
                for app_id, (hot, counters) in self._seen.items()}

    def on_access(self, app_id, vpn: int):
        seen = self._seen.get(app_id)
        if seen is None:
            seen = self._seen[app_id] = ([], {})
            self._since_scan[app_id] = 0
        counters = seen[1]
        counters[vpn] = counters.get(vpn, 0) + 1
        n = self._since_scan[app_id] + 1
        if n >= self.cfg.period:
            self.job1_step(app_id)
            n = 0
        self._since_scan[app_id] = n

    def job1_step(self, app_id) -> int:
        hot = self.allocator.access_bit_scan_and_clear(app_id)
        self._seen.setdefault(app_id, ([], {}))[0].append(hot)
        return hot


def _decide(h: float, w: float, thresholds: Thresholds) -> Category:
    """Category by mean hot pages h and WPD w; ties take the >= branch."""
    if h <= thresholds.hot_page_low:
        return Category.CCF
    if h >= thresholds.hot_page_high:
        if w <= thresholds.wpd_low:
            return Category.LLCT
        if w >= thresholds.wpd_high:
            return Category.LLCH
    return Category.LLCM


def cache_quota_spec(m: AddressMapping):
    """Pseudo-policy coloring pages over the cache-only bits: partitions the
    LLC into 2^|c_bits| groups without touching the bank index."""
    return custom_spec(sorted(m.c_bits), m)


@dataclass(frozen=True)
class OfflineResult:
    category: Category
    degradation: float
    footprint_pages: int
    proxy_full: int
    proxy_confined: int


def classify_offline(trace, m: AddressMapping,
                     private_cfg=DEFAULT_PRIVATE, llc_ways=DEFAULT_LLC_WAYS,
                     latencies=None, thresholds: Thresholds | None = None) -> OfflineResult:
    """Cache-quota oracle: full-LLC run vs a run confined to 1 of the
    2^|c_bits| cache color groups.

    DRAM outcome latencies are flattened to the row-miss cost for the two
    oracle runs: confining frames to one cache color also spreads them over
    more rows, and that placement artifact must not leak into a metric that
    is supposed to measure cache-quota sensitivity alone.
    """
    trace = Trace.of(trace)
    if not trace:
        raise ClassifierError("empty trace")
    thresholds = thresholds or Thresholds()
    base = dict(latencies or DEFAULT_LATENCIES)
    flat = base["row_miss"]
    latencies = {**base, "row_hit": flat, "row_conflict": flat}
    spec = cache_quota_spec(m)
    if len(trace.apps) != 1:
        raise ClassifierError(
            f"offline oracle expects a single-app trace, got {sorted(trace.apps)}")
    (app,) = trace.apps

    def run(colors):
        alloc = Allocator(m.total_pages, spec, m)
        alloc.assign_quota(app, colors)
        hier = MemoryHierarchy(m, private_cfg, llc_ways)
        metrics, _ = run_trace(trace, alloc, hier)
        return proxy_cycles(metrics, latencies)

    full = run(range(spec.page_colors))
    if full <= 0:
        raise ClassifierError(f"app {app!r}: the full-LLC oracle run costs {full} proxy "
                              f"cycles, so its degradation is undefined")
    confined = run([c for c in range(spec.page_colors) if spec.project(c)[0] == 0])
    d = (confined - full) / full
    footprint = len(trace.pages(m.page_offset_bits).first)

    if d < thresholds.d_ccf_llct:
        cat = Category.CCF if footprint <= thresholds.footprint_pages else Category.LLCT
    elif d >= thresholds.d_llch:
        cat = Category.LLCH
    else:
        cat = Category.LLCM
    return OfflineResult(cat, d, footprint, full, confined)


def classify_trace_online(trace, m: AddressMapping,
                          cfg: SamplerConfig | None = None,
                          thresholds: Thresholds | None = None):
    """Classify a single-app trace from the evidence the two sampling jobs
    would collect while it runs solo.

    JOB2's counters are the per-page access counts in first-touch order.
    JOB1's scan at the end of each complete interval of `cfg.period`
    accesses finds the access bits of exactly the pages touched in that
    interval; a trailing partial interval is never scanned.

    Returns (Category, OnlineEvidence, WPD).
    """
    cfg = cfg or SamplerConfig()
    thresholds = thresholds or Thresholds()
    trace = Trace.of(trace)
    if len(trace.apps) != 1:
        raise ClassifierError(
            f"online classification expects a single-app trace, got {sorted(trace.apps)}")
    (app,) = trace.apps
    period = cfg.period
    if len(trace) < period:
        raise ClassifierError(
            f"app {app!r}: trace has {len(trace)} accesses, fewer than one "
            f"sampling period ({period}), so no sampling interval completes")
    pages = trace.pages(m.page_offset_bits)
    # distinct pages per complete interval: its sorted pages, counted where
    # they change
    intervals = len(trace) // period
    per_interval = np.sort(pages.of[:intervals * period].reshape(intervals, period), axis=1)
    hot = 1 + np.count_nonzero(per_interval[:, 1:] != per_interval[:, :-1], axis=1)
    ev = OnlineEvidence(hot.tolist(), pages.vpn, np.bincount(pages.of, minlength=len(pages.first)))
    wpd = ev.wpd(cfg)
    return _decide(ev.mean_hot_pages(), wpd, thresholds), ev, wpd
