"""Memory hierarchy model: per-core private cache, shared physically-indexed
LLC, and per-bank open-row DRAM state.

The address mapping alone fixes the geometry: every cache's line size, the
LLC's set count and the banks.  A hierarchy adds only the LLC's ways and the
private cache's size and ways.

LRU replacement everywhere (slot arrays, least-recent first).
No timing model: every access resolves to exactly one terminal outcome and
a latency table turns outcome counts into proxy cycles for relative policy
comparisons only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from memcolor import _native
from memcolor.errors import ConfigError, MemcolorError, fits_in_memory
from memcolor.mapping import AddressMapping, MappingError
from memcolor.workloads import CHUNK, Trace


DEFAULT_LATENCIES = {
    "private_hit": 4,
    "llc_hit": 40,
    "row_hit": 120,
    "row_miss": 200,
    "row_conflict": 300,
}

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


def power_of_two(name: str, value: int) -> int:
    """`value`, if a power of two; else a ValueError naming it the cache's `name`."""
    if value <= 0 or value & (value - 1):
        raise ValueError(f"cache {name} must be a power of two, got {value}")
    return value


@dataclass(frozen=True)
class CacheConfig:
    """A private cache of `size_bytes` in sets of `ways` lines.  Its lines
    are the address mapping's, so its set count is `private_sets`."""
    size_bytes: int
    ways: int

    def __post_init__(self):
        power_of_two("size", self.size_bytes)
        power_of_two("ways", self.ways)


DEFAULT_PRIVATE = CacheConfig(256 * 1024, 8)
DEFAULT_LLC_WAYS = 16


def private_sets(m: AddressMapping, private: CacheConfig) -> int:
    """The sets of `private` at the mapping's line size; a ConfigError
    naming hierarchy.private when its size holds not one set of its ways."""
    sets = private.size_bytes // (private.ways * m.line_bytes)
    if not sets:
        raise ConfigError(f"hierarchy.private: {private.size_bytes} bytes hold no set of "
                          f"{private.ways} {m.line_bytes}-byte lines")
    return sets


class AccessOutcome(NamedTuple):
    private_hit: bool
    llc_hit: bool
    dram: str | None            # None | row_hit | row_miss | row_conflict
    cross_app_conflict: bool


class Metrics:
    """Outcome counters: one int64 row of COUNTER_KEYS per owner id, the id
    the hierarchy's LLC slots and banks store.  Id 0 is no app and its row
    stays zero; each app gets the next id at its first access, so `per_app`
    lists the apps counted in id order."""

    def __init__(self):
        self.owners: dict = {}      # app -> its owner id
        self.counts = np.zeros((1, len(COUNTER_KEYS)), dtype=np.int64)

    def owner(self, app_id) -> int:
        """The owner id of `app_id`, given a zero row on first use."""
        owner = self.owners.get(app_id)
        if owner is None:
            owner = self.owners[app_id] = len(self.counts)
            self.counts = np.concatenate([self.counts, np.zeros_like(self.counts[:1])])
        return owner

    @property
    def total(self) -> dict:
        return dict(zip(COUNTER_KEYS, self.counts.sum(axis=0).tolist()))

    @property
    def per_app(self) -> dict:
        return {app: dict(zip(COUNTER_KEYS, row))
                for app, row in zip(self.owners, self.counts[1:].tolist()) if any(row)}

    @property
    def accesses(self) -> int:
        t = self.total
        return t["private_hits"] + t["llc_hits"] + t["llc_misses"]

    def llc_miss_rate(self) -> float:
        t = self.total
        return t["llc_misses"] / ((t["llc_hits"] + t["llc_misses"]) or 1)

    def row_hit_rate(self) -> float:
        t = self.total
        return t["row_hits"] / (t["llc_misses"] or 1)

    def snapshot(self) -> dict:
        per_app = sorted(self.per_app.items(), key=lambda kv: str(kv[0]))
        return {"total": self.total, "per_app": {str(a): c for a, c in per_app}}

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
    """Private caches, the shared LLC and the DRAM banks, in the native
    kernel's layout, which `run_trace` hands to it as is.

    A cache set is `ways` slots of lines, way 0 the least recent, and a fill
    count: the LLC's sets in set order, with an owner id per slot, and the
    private sets of each core in registration order.  A bank holds its open
    row (-1 before the first access) and the owner id of its last access.
    An owner id is the app's row of counters in `metrics` (`metrics.owner`);
    0 owns the slots and banks never used.
    """

    def __init__(self, m: AddressMapping, private_cfg: CacheConfig = DEFAULT_PRIVATE,
                 llc_ways: int = DEFAULT_LLC_WAYS):
        psets = private_sets(m, private_cfg)
        self._llc_ways = power_of_two("ways", llc_ways)
        self.mapping = m
        self.metrics = Metrics()

        self._set_extract = m.set_extractor().extract
        self._bank_extract = m.bank_extractor().extract
        self._line_shift, self._row_shift, self._mem_bytes = (
            m.line_offset_bits, m.row_shift, m.mem_bytes)
        # the layout as the kernel takes it; an extractor is its segments'
        # flat (shift, mask, out) triples and their count
        sets, banks = (np.array(e.segments, dtype=np.int64).reshape(-1)
                       for e in (m.set_extractor(), m.bank_extractor()))
        self._layout = (m.page_offset_bits, m.line_offset_bits, m.row_shift,
                        psets - 1, sets, len(sets) // 3,
                        banks, len(banks) // 3, private_cfg.ways, llc_ways)

        with fits_in_memory(SimulationError, f"{m.llc_sets} LLC sets"):
            self._llc = np.zeros(m.llc_sets * llc_ways, dtype=np.int64)
            self._llc_owner = np.zeros(len(self._llc), dtype=np.int32)
            self._llc_fill = np.zeros(m.llc_sets, dtype=np.int32)
        self._private_sets = psets
        self._private_mask = psets - 1
        self._private_ways = private_cfg.ways
        self._cores: dict = {}      # core -> its position in the private sets
        with fits_in_memory(SimulationError, f"{psets} private cache sets"):
            self._private = np.zeros(psets * private_cfg.ways, dtype=np.int64)
            self._private_fill = np.zeros(psets, dtype=np.int32)
        with fits_in_memory(SimulationError, f"{m.banks} DRAM banks"):
            self._bank_row = np.full(m.banks, -1, dtype=np.int64)
            self._bank_app = np.zeros(m.banks, dtype=np.int32)
        self._views()

    def _views(self):
        """The state arrays, in the kernel's order, and memoryviews of them
        for the Python step."""
        self._state = (self._private, self._private_fill, self._llc, self._llc_owner,
                       self._llc_fill, self._bank_row, self._bank_app)
        self._view = list(map(memoryview, self._state))

    def private_base(self, core) -> int:
        """The first of `core`'s private sets, registering the core first if
        new; the private arrays double when full."""
        index = self._cores.get(core)
        if index is None:
            index = self._cores[core] = len(self._cores)
            if index * self._private_sets == len(self._private_fill):
                self._private, self._private_fill = (
                    np.concatenate([a, np.zeros_like(a)])
                    for a in (self._private, self._private_fill))
                self._views()
        return index * self._private_sets

    def state(self) -> dict:
        """The cache and bank state as plain values, orders included: the
        private sets of each core, as (core, sets) in registration order,
        and the LLC sets, as lists of lines (LLC lines as (line, owner)),
        least recent first; and each bank's (open row or None, owner of its
        last access)."""
        def sets(slots, fill, ways):
            return [s[:n] for s, n in zip(slots.reshape(-1, ways).tolist(), fill.tolist())]

        owners = [None, *self.metrics.owners]
        private = sets(self._private, self._private_fill, self._private_ways)
        n = self._private_sets
        llc_owner = sets(self._llc_owner, self._llc_fill, self._llc_ways)
        return {
            "private": [(core, private[i * n:(i + 1) * n]) for core, i in self._cores.items()],
            "llc": [list(zip(lines, map(owners.__getitem__, ids))) for lines, ids in
                    zip(sets(self._llc, self._llc_fill, self._llc_ways), llc_owner)],
            "banks": [(None if row < 0 else row, owners[app]) for row, app in
                      zip(self._bank_row.tolist(), self._bank_app.tolist())],
        }

    def access(self, core, app_id, addr: int) -> AccessOutcome:
        """One access, counted in `metrics`: the per-access reference for
        `run_trace`."""
        if addr < 0 or addr >= self._mem_bytes:
            raise MappingError(f"address {addr:#x} out of range")
        owner = self.metrics.owner(app_id)
        code = self._step(addr, self.private_base(core), owner)
        self.metrics.counts[owner] += CODE_COUNTS[code]
        return OUTCOMES[code]

    def _step(self, addr, base, app) -> int:
        """One access to an address in range by the core whose private sets
        start at `base` and owner id `app`; returns its outcome code.  The
        kernel's loop body: the LLC set is extracted only after a private
        miss, the bank and row only after an LLC miss."""
        private, private_fill, llc, llc_owner, llc_fill, bank_row, bank_app = self._view
        line = addr >> self._line_shift
        if _lru(private, None, private_fill, base + (line & self._private_mask),
                self._private_ways, line, app)[0] == HIT:
            return OUT_PRIVATE_HIT
        found, victim = _lru(llc, llc_owner, llc_fill, self._set_extract(addr),
                             self._llc_ways, line, app)
        if found == HIT:
            return OUT_LLC_HIT
        code = OUT_CROSS_EVICTION if found == EVICTED and victim != app else 0
        bank, row = self._bank_extract(addr), addr >> self._row_shift
        open_row = bank_row[bank]
        if open_row < 0:
            code |= OUT_ROW_MISS
        elif open_row == row:
            code |= OUT_ROW_HIT
        elif bank_app[bank] != app:
            code |= OUT_CROSS_CONFLICT
        else:
            code |= OUT_ROW_CONFLICT
        bank_row[bank] = row
        bank_app[bank] = app
        return code

    def _replay(self, n, step, page_of, vaddr, core_of, app_of, frames, private_base,
                owner_of, counts):
        """Replay the first `n` accesses of a trace and count their outcome
        codes in counts[k // step][app_of[k]][code], blocks of
        len(owner_of) x N_CODES counts: access k is at offset vaddr[k] in
        frame frames[page_of[k]], which must be inside memory, by
        private_base[core_of[k]] and owner_of[app_of[k]] as in `_step`.
        One kernel call when gcc can build it, else `_step`s."""
        lib = _native.kernel()
        if lib is not None:
            lib.replay(n, step, page_of, vaddr, core_of, app_of, frames, private_base,
                       owner_of, len(owner_of), *self._layout, *self._state, counts.reshape(-1))
            return
        shift, offset_mask = self.mapping.page_offset_bits, self.mapping.page_bytes - 1
        for start in range(0, n, CHUNK):
            part = slice(start, min(start + CHUNK, n))
            addrs = (frames[page_of[part]] << shift) | (vaddr[part].astype(np.int64) & offset_mask)
            codes = [self._step(addr, base, app) for addr, base, app in zip(
                addrs.tolist(), private_base[core_of[part]].tolist(),
                owner_of[app_of[part]].tolist())]
            np.add.at(counts, (np.arange(part.start, part.stop) // step, app_of[part], codes), 1)


# Results of a set lookup, as in the kernel's `lru`
FILLED, HIT, EVICTED = range(3)


def _lru(slots, owners, fill, s, ways, line, app):
    """The kernel's `lru` on memoryviews: look `line` up in set `s`.  A hit
    moves it to the most recent way; a miss inserts it there, evicting way
    0 when the set is full.  Returns (HIT, FILLED or EVICTED, the evicted
    line's owner or None); `owners` is None for a cache without owners."""
    n = fill[s]
    first = s * ways
    last = first + n - 1
    lines = slots[first:last + 1].tolist()
    victim = None
    if line in lines:
        i, result = first + lines.index(line), HIT
    elif n < ways:
        fill[s] = n + 1
        i = last = last + 1
        result = FILLED
    else:
        i, result = first, EVICTED
        if owners is not None:
            victim = owners[first]
    if i < last:
        slots[i:last] = slots[i + 1:last + 1]
        if owners is not None:
            owners[i:last] = owners[i + 1:last + 1]
    slots[last] = line
    if owners is not None:
        owners[last] = app
    return result, victim


# Outcome code per access, counted by the replay loop: one terminal
# outcome, plus the OUT_CROSS_EVICTION flag when an LLC miss evicted another
# app's line.
OUT_PRIVATE_HIT, OUT_LLC_HIT, OUT_ROW_HIT, OUT_ROW_MISS, OUT_ROW_CONFLICT, \
    OUT_CROSS_CONFLICT = range(6)
OUT_CROSS_EVICTION = 8
N_CODES = 16

# per terminal code: the counters one access adds to, and its DRAM outcome
TERMINALS = {
    OUT_PRIVATE_HIT: (("private_hits",), None),
    OUT_LLC_HIT: (("llc_hits",), None),
    OUT_ROW_HIT: (("llc_misses", "row_hits"), "row_hit"),
    OUT_ROW_MISS: (("llc_misses", "row_misses"), "row_miss"),
    OUT_ROW_CONFLICT: (("llc_misses", "row_conflicts"), "row_conflict"),
    OUT_CROSS_CONFLICT: (("llc_misses", "row_conflicts", "cross_app_conflicts"), "row_conflict"),
}


def _code_tables():
    """Per code, TERMINALS with or without OUT_CROSS_EVICTION: what one access
    adds to each of COUNTER_KEYS, and the outcome `access` returns."""
    counts = np.zeros((N_CODES, len(COUNTER_KEYS)), dtype=np.int64)
    outcomes = {}
    for terminal, (keys, dram) in TERMINALS.items():
        outcome = AccessOutcome("private_hits" in keys, "llc_hits" in keys, dram,
                                "cross_app_conflicts" in keys)
        for code, extra in ((terminal, ()),
                            (terminal | OUT_CROSS_EVICTION, ("cross_app_llc_evictions",))):
            counts[code, [COUNTER_KEYS.index(k) for k in keys + extra]] = 1
            outcomes[code] = outcome
    return counts, outcomes


CODE_COUNTS, OUTCOMES = _code_tables()


def run_trace(trace, allocator, hierarchy: MemoryHierarchy,
              epoch: int | None = None):
    """Replay a trace (a `Trace`, or a sequence of TraceRecords): first-touch
    translation then hierarchy access.

    The result and the allocator's and hierarchy's end state equal those of
    `allocator.touch` and `hierarchy.access` called record by record, the
    per-access reference.  The replay is batched instead: each distinct
    page is translated once, in first-touch order (the trace's page
    numbering, kept with the trace); one call replays every access from
    the trace's columns and its pages' frames, deriving address, line,
    sets, bank and row and counting each access's outcome code per app in
    one block of counts per epoch, and each block times CODE_COUNTS adds
    to the counters.  That call is the native kernel (`_kernel.c`) on the
    hierarchy's own arrays when gcc can build it, and
    `MemoryHierarchy._step` per access otherwise.

    An allocator with more frames than the hierarchy's memory is refused
    before anything changes, so no replayed address is out of range.

    Returns (Metrics, snapshots); snapshots holds one metrics dict per epoch
    of `epoch` accesses when requested (`epoch` > 0).
    """
    if epoch is not None and epoch < 0:
        raise SimulationError(f"epoch must be >= 0, got {epoch}")
    if allocator.total_pages > hierarchy.mapping.total_pages:
        raise MappingError(f"the allocator's {allocator.total_pages} frames exceed the "
                           f"hierarchy's memory of {hierarchy.mapping.total_pages} frames")
    trace = Trace.of(trace)
    metrics = hierarchy.metrics
    n = len(trace)
    if not n:
        return metrics, []
    app_order = trace.apps
    app_of = trace.app

    # 1. translate every distinct (app, vpn) once, in first-touch order
    pages = trace.pages(hierarchy.mapping.page_offset_bits)
    pfns, error = allocator.translate_page_array(app_order, app_of[pages.first], pages.vpn)
    stop, failure = n, None
    if error is not None:
        stop = int(pages.first[len(pfns)])
        failure = SimulationError(f"record {stop}: {error}")
        failure.__cause__ = error

    # 2. replay the accesses before the stop in one call, on the cores'
    # private sets and the apps' owner ids; the cores and apps met before
    # the stop lead core_order and app_order, and only they are registered.
    # It counts the outcome codes per app, one block per epoch.
    core_order, core_of = trace.cores()
    cores, apps = (int(of[:stop].max()) + 1 if stop else 0 for of in (core_of, app_of))
    private_base = np.array([hierarchy.private_base(c) for c in core_order[:cores]], dtype=np.int64)
    owner_of = np.array([metrics.owner(a) for a in app_order[:apps]], dtype=np.int32)
    step = epoch or max(stop, 1)
    blocks = -(-stop // step)
    with fits_in_memory(SimulationError, f"outcome counts of {blocks} epochs"):
        counts = np.zeros((blocks, apps, N_CODES), dtype=np.int64)
    hierarchy._replay(stop, step, pages.of, np.ascontiguousarray(trace.vaddr), core_of, app_of,
                      pfns, private_base, owner_of, counts)

    # 3. the counters, epoch by epoch, into the apps' rows
    snapshots = []
    for i, block in enumerate(counts @ CODE_COUNTS, 1):
        metrics.counts[owner_of] += block
        if epoch and i * step <= stop:
            snapshots.append(metrics.snapshot())
    if failure is not None:
        raise failure
    return metrics, snapshots

