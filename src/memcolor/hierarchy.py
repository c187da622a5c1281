"""Memory hierarchy model: per-core private cache, shared physically-indexed
LLC, and per-bank open-row DRAM state.

LRU replacement everywhere (insertion-ordered dicts, least-recent first).
No timing model: every access resolves to exactly one terminal outcome and
a latency table turns outcome counts into proxy cycles for relative policy
comparisons only.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from memcolor import _native
from memcolor.allocator import _gc_paused
from memcolor.errors import MemcolorError
from memcolor.mapping import AddressMapping, MappingError
from memcolor.workloads import Trace


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


class SimulationError(MemcolorError, RuntimeError):
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


# Outcome code per access, written by the replay loop: one terminal
# outcome, plus the OUT_CROSS_EVICTION flag when an LLC miss evicted another
# app's line.
OUT_PRIVATE_HIT, OUT_LLC_HIT, OUT_ROW_HIT, OUT_ROW_MISS, OUT_ROW_CONFLICT, \
    OUT_CROSS_CONFLICT = range(6)
OUT_CROSS_EVICTION = 8
N_CODES = 16


def _code_counts() -> np.ndarray:
    """(code, counter) matrix: what one access with each code adds to each
    of COUNTER_KEYS."""
    keys = {
        OUT_PRIVATE_HIT: ("private_hits",),
        OUT_LLC_HIT: ("llc_hits",),
        OUT_ROW_HIT: ("llc_misses", "row_hits"),
        OUT_ROW_MISS: ("llc_misses", "row_misses"),
        OUT_ROW_CONFLICT: ("llc_misses", "row_conflicts"),
        OUT_CROSS_CONFLICT: ("llc_misses", "row_conflicts", "cross_app_conflicts"),
    }
    counts = np.zeros((N_CODES, len(COUNTER_KEYS)), dtype=np.int64)
    for code, names in keys.items():
        for name in names:
            counts[[code, code | OUT_CROSS_EVICTION], COUNTER_KEYS.index(name)] = 1
        counts[code | OUT_CROSS_EVICTION, COUNTER_KEYS.index("cross_app_llc_evictions")] = 1
    return counts


CODE_COUNTS = _code_counts()

# Accesses whose ids are computed (and, for the Python loop, unboxed to
# Python ints) at a time; a whole trace at once would raise peak memory for
# no speed.
CHUNK = 1 << 14


def run_trace(trace, allocator, hierarchy: MemoryHierarchy,
              epoch: int | None = None):
    """Replay a trace (a `Trace`, or a sequence of TraceRecords): first-touch
    translation then hierarchy access.

    The result and the allocator's and hierarchy's end state equal those of
    `allocator.touch` and `hierarchy.access` called record by record, the
    per-access reference.  The replay is batched instead: each distinct
    page is translated once, in first-touch order (the trace's page
    numbering, kept with the trace); line, LLC set, bank and row of every
    access come from numpy; one LRU/open-row loop writes an outcome code per
    access, and the counters are bincounts of the codes.  That loop is the
    native kernel (`_kernel.c`) when gcc can build it, and `_replay`
    otherwise.

    Returns (Metrics, snapshots); snapshots holds one metrics dict per epoch
    of `epoch` accesses when requested (`epoch` > 0).
    """
    if epoch is not None and epoch < 0:
        raise SimulationError(f"epoch must be >= 0, got {epoch}")
    trace = Trace.of(trace)
    metrics = hierarchy.metrics
    n = len(trace)
    if not n:
        return metrics, []
    m = hierarchy.mapping
    shift = m.page_offset_bits
    app_order = trace.apps
    app_of = trace.app

    # 1. translate every distinct (app, vpn) once, in first-touch order
    pages = trace.pages(shift)
    page_of = pages.of
    pfns, error = allocator.translate_pages(
        list(map(app_order.__getitem__, app_of[pages.first].tolist())), pages.vpn.tolist())
    stop, failure = n, None
    if error is not None:
        stop = int(pages.first[len(pfns)])
        failure = SimulationError(f"record {stop}: {error}")
        failure.__cause__ = error
    offset = (trace.vaddr[:stop] & np.uint64((1 << shift) - 1)).astype(np.int32)
    # an access is out of range when its offset reaches past the end of
    # memory from its frame's start
    bad = np.flatnonzero(offset >= (m.mem_bytes - (pfns << shift))[page_of[:stop]])
    if bad.size:
        stop = int(bad[0])
        addr = (int(pfns[page_of[stop]]) << shift) | int(offset[stop])
        failure = MappingError(f"record {stop}: address {addr:#x} out of range")

    # 2. line, private set, LLC set, bank and row per access, chunk by
    # chunk, each chunk replayed by the LRU/open-row loop
    core_order, core_of = trace.cores()
    # the cores met before `stop` lead core_order
    core_order = core_order[:int(core_of[:stop].max()) + 1 if stop else 0]
    for core in core_order:
        hierarchy.register_core(core)
    private_sets_per_core = hierarchy.private_cfg.sets
    codes = np.empty(stop, dtype=np.uint8)
    with _replay_loop(hierarchy, core_order, app_order) as replay:
        for start in range(0, stop, CHUNK):
            end = min(start + CHUNK, stop)
            addr = (pfns[page_of[start:end]] << shift) | offset[start:end]
            line = addr >> hierarchy._line_shift
            replay(codes[start:end], line,
                   core_of[start:end] * private_sets_per_core + (line & hierarchy._private_mask),
                   hierarchy._set_extract(addr), hierarchy._bank_extract(addr),
                   addr >> hierarchy._row_shift, app_of[start:end])

    # 3. counters per epoch from the outcome codes
    key = app_of[:stop] * N_CODES + codes
    step = epoch or max(stop, 1)
    snapshots = []
    for start in range(0, stop, step):
        part = key[start:start + step]
        counts = np.bincount(part, minlength=len(app_order) * N_CODES)
        _add_counts(metrics, app_order,
                    counts.reshape(len(app_order), N_CODES) @ CODE_COUNTS)
        if epoch and len(part) == step:
            snapshots.append(metrics.snapshot())
    if failure is not None:
        raise failure
    return metrics, snapshots


def _add_counts(metrics: Metrics, app_order, counts: np.ndarray):
    """Add per-app counter rows (apps in first-access order) to `metrics`;
    an app enters `per_app` with its first counted access."""
    total = metrics.total
    for app, row in zip(app_order, counts.tolist()):
        if any(row):
            mine = metrics.app(app)
            for key, value in zip(COUNTER_KEYS, row):
                mine[key] += value
                total[key] += value


@contextmanager
def _replay_loop(h: MemoryHierarchy, cores: list, apps: list):
    """Yield replay(codes, lines, psets, lsets, banks, rows, app_ids), which
    runs one chunk of accesses through the LRU/open-row loop and writes
    their outcome codes.  `psets` index the private sets of `cores` in
    order; `app_ids` index `apps`.

    The loop is the native kernel when it can be built; its state is copied
    from the hierarchy on entry and back on exit.  Otherwise it is `_replay`,
    on the hierarchy's own state."""
    lib = _native.kernel()
    if lib is not None:
        state = _KernelState(lib, h, cores, apps)
        try:
            yield state.replay
        finally:
            state.store()
        return
    private_sets = [s for core in cores for s in h._private[core]]

    def replay(codes, lines, psets, lsets, banks, rows, app_ids):
        emitted = bytearray()
        _replay(h, private_sets, emitted.append, lines.tolist(), psets.tolist(),
                lsets.tolist(), banks.tolist(), rows.tolist(),
                list(map(apps.__getitem__, app_ids.tolist())))
        codes[:] = np.frombuffer(emitted, dtype=np.uint8)
    yield replay


class _KernelState:
    """A hierarchy's cache and bank state as the kernel's flat arrays.

    The private sets of `cores` (in order) and every LLC set are `ways`
    slots each, way 0 the least recent, with a fill count per set.  Owners
    are their positions in `owners`: `apps` first, then any other owner
    (None among them) already in the LLC or the banks.  The row of a bank
    never opened is -1.
    """

    def __init__(self, lib, h: MemoryHierarchy, cores: list, apps: list):
        self.lib, self.h, self.cores = lib, h, cores
        llc_owners = chain.from_iterable(s.values() for s in h._llc)
        self.owners = list(dict.fromkeys(chain(apps, llc_owners, h._bank_app)))
        index = dict(zip(self.owners, range(len(self.owners))))

        private_sets = [s for core in cores for s in h._private[core]]
        self.private, self.private_fill, _ = _slots(private_sets, h._private_ways)
        self.llc, self.llc_fill, used = _slots(h._llc, h._llc_ways)
        self.llc_owner = np.zeros(len(self.llc), dtype=np.int32)
        self.llc_owner[used] = np.fromiter(
            map(index.__getitem__, chain.from_iterable(s.values() for s in h._llc)),
            np.int32, len(used))
        self.bank_row = np.array([-1 if r is None else r for r in h._bank_row],
                                 dtype=np.int64)
        self.bank_app = np.fromiter(map(index.__getitem__, h._bank_app), np.int32,
                                    len(h._bank_app))

    def replay(self, codes, lines, psets, lsets, banks, rows, app_ids):
        h = self.h
        self.lib.replay(len(codes), lines, psets, lsets, banks, rows, app_ids,
                        self.private, self.private_fill, h._private_ways,
                        self.llc, self.llc_owner, self.llc_fill, h._llc_ways,
                        self.bank_row, self.bank_app, codes)

    def store(self):
        """Write the state back into the hierarchy's dicts, orders included."""
        h = self.h
        owners = self.owners
        with _gc_paused():          # thousands of new dicts; see _gc_paused
            sets = iter(_unslot(self.private, self.private_fill, h._private_ways))
            for core in self.cores:
                mine = h._private[core]
                mine[:] = [dict.fromkeys(next(sets)) for _ in mine]
            # zip stops at the end of each set's lines without drawing
            # another owner, so every set takes the next len(lines) owners
            owner_of = map(owners.__getitem__,
                           self.llc_owner[_used(self.llc_fill, h._llc_ways)].tolist())
            h._llc[:] = [dict(zip(lines, owner_of))
                         for lines in _unslot(self.llc, self.llc_fill, h._llc_ways)]
        h._bank_row[:] = [None if r < 0 else r for r in self.bank_row.tolist()]
        h._bank_app[:] = map(owners.__getitem__, self.bank_app.tolist())


def _used(fill: np.ndarray, ways: int) -> np.ndarray:
    """Mask of the occupied slots of sets with `fill` lines each."""
    return (np.arange(ways) < fill[:, None]).ravel()


def _slots(sets: list, ways: int):
    """Lines of dict-based LRU sets as (slots, fill counts, occupied slot
    positions), least recent first."""
    fill = np.fromiter(map(len, sets), np.int32, len(sets))
    used = np.flatnonzero(_used(fill, ways))
    slots = np.zeros(len(sets) * ways, dtype=np.int64)
    slots[used] = np.fromiter(chain.from_iterable(sets), np.int64, len(used))
    return slots, fill, used


def _unslot(slots: np.ndarray, fill: np.ndarray, ways: int) -> list:
    """Lines of each set, least recent first: `_slots` undone."""
    lines = slots[_used(fill, ways)].tolist()
    ends = np.cumsum(fill).tolist()
    return [lines[end - n:end] for end, n in zip(ends, fill.tolist())]


def _replay(h: MemoryHierarchy, private_sets, emit, lines, psets, lsets, banks,
            rows, apps):
    """The LRU/open-row loop of `MemoryHierarchy.access` over per-access
    ids, on the hierarchy's own cache and bank state; emits each access's
    outcome code."""
    llc = h._llc
    private_ways = h._private_ways
    llc_ways = h._llc_ways
    bank_row = h._bank_row
    bank_app = h._bank_app
    for line, p, ls, bank, row, app in zip(lines, psets, lsets, banks, rows, apps):
        pset = private_sets[p]
        if line in pset:
            del pset[line]
            pset[line] = None
            emit(OUT_PRIVATE_HIT)
            continue
        pset[line] = None
        if len(pset) > private_ways:
            for victim in pset:     # least recent; cheaper than next(iter())
                break
            del pset[victim]
        lset = llc[ls]
        if line in lset:
            del lset[line]
            lset[line] = app
            emit(OUT_LLC_HIT)
            continue
        lset[line] = app
        code = 0
        if len(lset) > llc_ways:
            for victim in lset:
                break
            if lset.pop(victim) != app:
                code = OUT_CROSS_EVICTION
        open_row = bank_row[bank]
        if open_row is None:
            code |= OUT_ROW_MISS
        elif open_row == row:
            code |= OUT_ROW_HIT
        elif bank_app[bank] != app:
            code |= OUT_CROSS_CONFLICT
        else:
            code |= OUT_ROW_CONFLICT
        bank_row[bank] = row
        bank_app[bank] = app
        emit(code)
