"""Memory hierarchy model: per-core private cache, shared physically-indexed
LLC, and per-bank open-row DRAM state.

LRU replacement everywhere (insertion-ordered dicts, least-recent first).
No timing model: every access resolves to exactly one terminal outcome and
a latency table turns outcome counts into proxy cycles for relative policy
comparisons only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from memcolor.mapping import AddressMapping, MappingError


DEFAULT_LATENCIES = {
    "private_hit": 4,
    "llc_hit": 40,
    "row_hit": 120,
    "row_miss": 200,
    "row_conflict": 300,
}

ROW_HIT = "row_hit"
ROW_MISS = "row_miss"
ROW_CONFLICT = "row_conflict"

COUNTER_KEYS = (
    "private_hits",
    "llc_hits",
    "llc_misses",
    "row_hits",
    "row_misses",
    "row_conflicts",
    "cross_app_conflicts",
    "cross_app_llc_evictions",
)


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self):
        for name, v in (("size", self.size_bytes), ("ways", self.ways),
                        ("line", self.line_bytes)):
            if v <= 0 or v & (v - 1):
                raise ValueError(f"cache {name} must be a power of two, got {v}")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError("cache size not divisible by ways * line")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


DEFAULT_PRIVATE = CacheConfig(256 * 1024, 8)
DEFAULT_LLC = CacheConfig(8 * 1024 * 1024, 16)


class AccessOutcome(NamedTuple):
    private_hit: bool
    llc_hit: bool
    dram: str | None            # None | row_hit | row_miss | row_conflict
    cross_app_conflict: bool


class Metrics:
    """Per-app and global outcome counters."""

    def __init__(self):
        self.total = dict.fromkeys(COUNTER_KEYS, 0)
        self.per_app: dict[object, dict] = {}

    def app(self, app_id) -> dict:
        d = self.per_app.get(app_id)
        if d is None:
            d = self.per_app[app_id] = dict.fromkeys(COUNTER_KEYS, 0)
        return d

    def bump(self, app_id, key):
        self.total[key] += 1
        self.app(app_id)[key] += 1

    @property
    def accesses(self) -> int:
        t = self.total
        return t["private_hits"] + t["llc_hits"] + t["llc_misses"]

    def llc_miss_rate(self) -> float:
        post_private = self.total["llc_hits"] + self.total["llc_misses"]
        return self.total["llc_misses"] / post_private if post_private else 0.0

    def row_hit_rate(self) -> float:
        dram = self.total["llc_misses"]
        return self.total["row_hits"] / dram if dram else 0.0

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "per_app": {str(a): dict(c) for a, c in sorted(self.per_app.items(), key=lambda kv: str(kv[0]))},
        }

    def to_json(self, latencies=None) -> str:
        doc = self.snapshot()
        lat = latencies or DEFAULT_LATENCIES
        doc["total"]["proxy_cycles"] = proxy_cycles(self, lat)
        doc["llc_miss_rate"] = self.llc_miss_rate()
        doc["row_hit_rate"] = self.row_hit_rate()
        for app, counters in doc["per_app"].items():
            counters["proxy_cycles"] = _weighted(counters, lat)
        return json.dumps(doc, sort_keys=True, indent=2)


def _weighted(counters: dict, latencies: dict) -> int:
    for key in ("private_hit", "llc_hit", "row_hit", "row_miss", "row_conflict"):
        if key not in latencies:
            raise SimulationError(f"latency table missing entry {key!r}")
    return (counters["private_hits"] * latencies["private_hit"]
            + counters["llc_hits"] * latencies["llc_hit"]
            + counters["row_hits"] * latencies["row_hit"]
            + counters["row_misses"] * latencies["row_miss"]
            + counters["row_conflicts"] * latencies["row_conflict"])


def proxy_cycles(metrics: Metrics, latencies=None) -> int:
    """Latency-weighted outcome count; meaningful only for comparisons."""
    return _weighted(metrics.total, latencies or DEFAULT_LATENCIES)


class MemoryHierarchy:
    def __init__(self, m: AddressMapping,
                 private_cfg: CacheConfig = DEFAULT_PRIVATE,
                 llc_cfg: CacheConfig = DEFAULT_LLC,
                 latencies: dict | None = None):
        if llc_cfg.sets != m.llc_sets:
            raise ValueError(
                f"LLC geometry ({llc_cfg.sets} sets) disagrees with the mapping's "
                f"set index bits ({m.llc_sets} sets)")
        if llc_cfg.line_bytes != m.line_bytes:
            raise ValueError("LLC line size disagrees with mapping line offset bits")
        self.mapping = m
        self.private_cfg = private_cfg
        self.llc_cfg = llc_cfg
        self.latencies = dict(latencies or DEFAULT_LATENCIES)
        self.metrics = Metrics()

        self._set_extract = m.set_extractor().extract
        self._bank_extract = m.bank_extractor().extract
        self._line_shift = m.line_offset_bits
        self._row_shift = m.row_shift
        self._mem_bytes = m.mem_bytes

        self._llc = [dict() for _ in range(llc_cfg.sets)]  # set -> {tag: owner}
        self._llc_ways = llc_cfg.ways
        self._private: dict[object, list[dict]] = {}       # core -> sets
        self._private_mask = private_cfg.sets - 1
        self._private_ways = private_cfg.ways
        self._bank_row: list = [None] * m.banks
        self._bank_app: list = [None] * m.banks

    def register_core(self, core):
        if core not in self._private:
            self._private[core] = [dict() for _ in range(self.private_cfg.sets)]

    def access(self, core, app_id, addr: int) -> AccessOutcome:
        if addr < 0 or addr >= self._mem_bytes:
            raise MappingError(f"address {addr:#x} out of range")
        priv = self._private.get(core)
        if priv is None:
            self.register_core(core)
            priv = self._private[core]
        metrics = self.metrics
        line = addr >> self._line_shift

        pset = priv[line & self._private_mask]
        if line in pset:
            # refresh LRU position
            del pset[line]
            pset[line] = None
            metrics.bump(app_id, "private_hits")
            return AccessOutcome(True, False, None, False)
        pset[line] = None
        if len(pset) > self._private_ways:
            del pset[next(iter(pset))]

        lset = self._llc[self._set_extract(addr)]
        if line in lset:
            del lset[line]
            lset[line] = app_id
            metrics.bump(app_id, "llc_hits")
            return AccessOutcome(False, True, None, False)
        lset[line] = app_id
        if len(lset) > self._llc_ways:
            victim = next(iter(lset))
            owner = lset.pop(victim)
            if owner != app_id:
                metrics.bump(app_id, "cross_app_llc_evictions")
        metrics.bump(app_id, "llc_misses")

        bank = self._bank_extract(addr)
        row = addr >> self._row_shift
        open_row = self._bank_row[bank]
        cross = False
        if open_row is None:
            dram = ROW_MISS
            metrics.bump(app_id, "row_misses")
        elif open_row == row:
            dram = ROW_HIT
            metrics.bump(app_id, "row_hits")
        else:
            dram = ROW_CONFLICT
            metrics.bump(app_id, "row_conflicts")
            if self._bank_app[bank] != app_id:
                cross = True
                metrics.bump(app_id, "cross_app_conflicts")
        self._bank_row[bank] = row
        self._bank_app[bank] = app_id
        return AccessOutcome(False, False, dram, cross)


def run_trace(trace, allocator, hierarchy: MemoryHierarchy,
              epoch: int | None = None):
    """Replay a trace: first-touch translation then hierarchy access.

    Returns (Metrics, snapshots); snapshots holds one metrics dict per epoch
    of `epoch` accesses when requested.
    """
    m = hierarchy.mapping
    page_shift = m.page_offset_bits
    page_mask = m.page_bytes - 1
    touch = allocator.touch
    access = hierarchy.access
    snapshots = []
    for i, rec in enumerate(trace):
        vpn = rec.vaddr >> page_shift
        try:
            pfn = touch(rec.app, vpn)
        except Exception as exc:
            raise SimulationError(f"record {i}: {exc}") from exc
        access(rec.core, rec.app, (pfn << page_shift) | (rec.vaddr & page_mask))
        if epoch and (i + 1) % epoch == 0:
            snapshots.append(hierarchy.metrics.snapshot())
    return hierarchy.metrics, snapshots
