"""Color-constrained page-frame allocator with first-touch translation.

Frames live in per-color free pools (one pool when the policy does not
partition).  Pools hand out the lowest free frame number first; the random
policy draws uniformly from all free frames with a seeded RNG.  There is no
fallback across color quotas unless explicitly enabled: exhausting an app's
colors is an error even when other colors have free frames, so isolation
can never erode silently.
"""

from __future__ import annotations

import csv
import gc
from contextlib import contextmanager

import numpy as np

from memcolor import _native
from memcolor.errors import MemcolorError
from memcolor.mapping import AddressMapping
from memcolor.policies import PolicyKind, PolicySpec


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while page-table entries are
    created in bulk: each entry is a new list, and the collections they
    would trigger rescan every live object without freeing anything."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _draw_frames(n, draws, free, left, frames):
    """Swap-remove draws: frame k is free[draws[k]], whose slot then takes
    the last of the `left` free frames.  The reference for the kernel's
    `draw_frames` and its fallback, with the same arguments (`n` is
    len(draws))."""
    for k, idx in enumerate(draws.tolist()):
        frames[k] = free[idx]
        left -= 1
        free[idx] = free[left]


class AllocationError(MemcolorError, RuntimeError):
    pass


class OutOfColorMemory(AllocationError):
    def __init__(self, app_id, empty_colors):
        self.app_id = app_id
        self.empty_colors = tuple(empty_colors)
        super().__init__(
            f"app {app_id!r}: all allowed color pools empty: {sorted(empty_colors)}")


class _Pool:
    """Free frames of one color, ascending pfn, consumed front-to-back."""

    __slots__ = ("frames", "cursor")

    def __init__(self, frames: np.ndarray):
        self.frames = frames
        self.cursor = 0

    @property
    def free(self) -> int:
        return len(self.frames) - self.cursor

    def pop(self) -> int:
        pfn = int(self.frames[self.cursor])
        self.cursor += 1
        return pfn


class _QuotaState:
    __slots__ = ("colors", "rr")

    def __init__(self, colors):
        self.colors = sorted(colors)
        self.rr = 0


class Allocator:
    def __init__(self, total_pages: int, spec: PolicySpec, m: AddressMapping,
                 seed: int = 0, allow_fallback: bool = False, log: bool = False):
        if total_pages <= 0:
            raise AllocationError("total_pages must be positive")
        self.total_pages = total_pages
        self.spec = spec
        self.mapping = m
        self.allow_fallback = allow_fallback
        self._rng = np.random.default_rng(seed)
        self._quotas: dict[object, _QuotaState] = {}
        # page table: app -> {vpn: [pfn, access_bit]}
        self.page_tables: dict[object, dict[int, list]] = {}
        self.alloc_log: list[tuple] | None = [] if log else None

        if spec.partitioning:
            # A frame's color repeats with the period of its highest color
            # bit, so each pool is one period's offsets of that color,
            # repeated up the frame range.
            period = min(1 << (max(spec.color_bits) - m.page_offset_bits + 1), total_pages)
            period_colors = self._colors_of(np.arange(period, dtype=np.int64))
            starts = np.arange(0, total_pages, period, dtype=np.int64)[:, None]
            self._pools = []
            for c in range(spec.page_colors):
                frames = (starts + np.flatnonzero(period_colors == c)).ravel()
                self._pools.append(_Pool(frames[:np.searchsorted(frames, total_pages)]))
            self._random_free = None
        else:
            pfns = np.arange(total_pages, dtype=np.int64)
            self._pools = [_Pool(pfns)]
            if spec.kind is PolicyKind.RANDOM:
                self._random_free = pfns.copy()
                self._random_n = total_pages
            else:
                self._random_free = None

    # --- bookkeeping -----------------------------------------------------

    @property
    def free_frames(self) -> int:
        if self._random_free is not None:
            return self._random_n
        return sum(p.free for p in self._pools)

    @property
    def allocated_frames(self) -> int:
        return sum(len(pt) for pt in self.page_tables.values())

    def free_by_color(self) -> list[int]:
        return [p.free for p in self._pools]

    def quota_of(self, app_id) -> list[int]:
        return list(self._quotas[app_id].colors)

    def _colors_of(self, pfns: np.ndarray) -> np.ndarray:
        """Page colors of frames under the (partitioning) policy."""
        shift = self.mapping.page_offset_bits
        colors = np.zeros(len(pfns), dtype=np.int64)
        for i, pos in enumerate(self.spec.color_bits):
            colors |= ((pfns >> (pos - shift)) & 1) << i
        return colors

    # --- quota management ------------------------------------------------

    def register(self, app_id):
        """Register an app with no color constraint (non-partitioning use)."""
        if app_id not in self.page_tables:
            self.page_tables[app_id] = {}

    def assign_quota(self, app_id, colors):
        colors = set(colors)
        if not colors:
            raise AllocationError(f"app {app_id!r}: empty color quota")
        for c in colors:
            if not 0 <= c < self.spec.page_colors:
                raise AllocationError(
                    f"app {app_id!r}: unknown color {c} (policy has "
                    f"{self.spec.page_colors} colors)")
        if self.page_tables.get(app_id):
            raise AllocationError(f"app {app_id!r} already has allocated pages")
        self._quotas[app_id] = _QuotaState(colors)
        self.page_tables.setdefault(app_id, {})

    # --- allocation ------------------------------------------------------

    def _alloc_colored(self, app_id) -> int:
        q = self._quotas.get(app_id)
        if q is None:
            raise AllocationError(f"app {app_id!r} has no color quota assigned")
        n = len(q.colors)
        for step in range(n):
            color = q.colors[(q.rr + step) % n]
            pool = self._pools[color]
            if pool.free:
                q.rr = (q.rr + step + 1) % n
                return pool.pop()
        if self.allow_fallback:
            for color, pool in enumerate(self._pools):
                if pool.free:
                    return pool.pop()
        raise OutOfColorMemory(app_id, q.colors)

    def _alloc_free(self, app_id) -> int:
        if self._random_free is not None:
            if self._random_n == 0:
                raise OutOfColorMemory(app_id, [0])
            idx = int(self._rng.integers(self._random_n))
            pfn = int(self._random_free[idx])
            self._random_n -= 1
            self._random_free[idx] = self._random_free[self._random_n]
            return pfn
        pool = self._pools[0]
        if not pool.free:
            raise OutOfColorMemory(app_id, [0])
        return pool.pop()

    def touch(self, app_id, vpn: int):
        """First-touch translate: return the frame backing (app, vpn),
        allocating one on first access; sets the page's access bit."""
        pt = self.page_tables.get(app_id)
        if pt is None:
            raise AllocationError(f"app {app_id!r} not registered")
        entry = pt.get(vpn)
        if entry is not None:
            entry[1] = True
            return entry[0]
        if self.spec.partitioning:
            pfn = self._alloc_colored(app_id)
        else:
            pfn = self._alloc_free(app_id)
        pt[vpn] = [pfn, True]
        if self.alloc_log is not None:
            if self.spec.partitioning:
                from memcolor.policies import page_color_under
                color = page_color_under(self.spec, pfn, self.mapping)
                llc_g, bank_g = self.spec.project(color)
            else:
                color = llc_g = bank_g = -1
            self.alloc_log.append((app_id, vpn, pfn, color, llc_g, bank_g))
        return pfn

    def translate_pages(self, app_ids, vpns):
        """First-touch translate distinct pages, listed in the order of their
        first access: the batch form of `touch`.

        Leaves the allocator exactly as `touch` at each page's first access
        would: page-table entries in order, access bits, `alloc_log` rows,
        pool cursors, quota round-robin positions and the RNG.  Pages already
        mapped are looked up.  A batch the pools cannot serve whole (an
        exhausted pool, fallback, a missing quota or registration) goes page
        by page through `touch`.

        Returns (frames, error): the frames of the pages translated, in
        order, and None, or the exception that stopped translation at page
        `len(frames)`.
        """
        tables = self.page_tables
        apps = dict.fromkeys(app_ids)
        if not all(a in tables and (a in self._quotas or not self.spec.partitioning)
                   for a in apps):
            return self._translate_each(app_ids, vpns)
        entries = None
        new_apps, new_vpns = app_ids, vpns
        if any(tables[a] for a in apps):    # some pages may be mapped already
            entries = [tables[a].get(v) for a, v in zip(app_ids, vpns)]
            new_apps = [a for a, e in zip(app_ids, entries) if e is None]
            new_vpns = [v for v, e in zip(vpns, entries) if e is None]
        new_frames = self._new_frames(new_apps)
        if new_frames is None:
            return self._translate_each(app_ids, vpns)

        frames = new_frames
        if entries is not None:
            is_new = np.array([e is None for e in entries], dtype=bool)
            frames = np.empty(len(entries), dtype=np.int64)
            frames[is_new] = new_frames
            mapped = [e for e in entries if e is not None]
            for e in mapped:
                e[1] = True
            frames[~is_new] = [e[0] for e in mapped]
        new_pfns = new_frames.tolist()
        with _gc_paused():
            for app, vpn, pfn in zip(new_apps, new_vpns, new_pfns):
                tables[app][vpn] = [pfn, True]
        if self.alloc_log is not None:
            if self.spec.partitioning:
                colors = self._colors_of(new_frames).tolist()
                groups = [self.spec.project(c) for c in range(self.spec.page_colors)]
                self.alloc_log.extend(
                    (app, vpn, pfn, c) + groups[c]
                    for app, vpn, pfn, c in zip(new_apps, new_vpns, new_pfns, colors))
            else:
                self.alloc_log.extend((app, vpn, pfn, -1, -1, -1)
                                      for app, vpn, pfn in zip(new_apps, new_vpns, new_pfns))
        return frames, None

    def _translate_each(self, app_ids, vpns):
        frames = []
        for app, vpn in zip(app_ids, vpns):
            try:
                frames.append(self.touch(app, vpn))
            except Exception as exc:    # whatever touch raises; the caller names the record
                return np.array(frames, dtype=np.int64), exc
        return np.array(frames, dtype=np.int64), None

    def _new_frames(self, app_ids):
        """Frames for one new page per entry of `app_ids`, in order, or None
        (with nothing consumed) when a pool would run out on the way."""
        n = len(app_ids)
        if self.spec.partitioning:
            return self._new_colored_frames(app_ids)
        if self._random_free is not None:
            if n > self._random_n:
                return None
            # one draw per page, the same stream as n scalar draws
            draws = self._rng.integers(np.arange(self._random_n, self._random_n - n, -1))
            frames = np.empty(n, dtype=np.int64)
            lib = _native.kernel()
            draw = _draw_frames if lib is None else lib.draw_frames
            draw(n, draws, self._random_free, self._random_n, frames)
            self._random_n -= n
            return frames
        pool = self._pools[0]
        if n > pool.free:
            return None
        pool.cursor += n
        return pool.frames[pool.cursor - n:pool.cursor]

    def _new_colored_frames(self, app_ids):
        # The k-th new page of an app takes the quota color k steps past its
        # round-robin position, and the frame at its rank among the requests
        # for that color; this holds while no pool runs empty.
        index = {a: i for i, a in enumerate(dict.fromkeys(app_ids))}
        app_of = np.fromiter(map(index.__getitem__, app_ids), np.int64, len(app_ids))
        colors = np.empty(len(app_ids), dtype=np.int64)
        taken = []
        for app, i in index.items():
            q = self._quotas[app]
            sel = np.flatnonzero(app_of == i)
            steps = (q.rr + np.arange(len(sel))) % len(q.colors)
            colors[sel] = np.array(q.colors, dtype=np.int64)[steps]
            taken.append((q, len(sel)))
        counts = np.bincount(colors, minlength=len(self._pools)).tolist()
        if any(c > pool.free for c, pool in zip(counts, self._pools)):
            return None
        frames = np.empty(len(app_ids), dtype=np.int64)
        for color, count in enumerate(counts):
            if count:
                pool = self._pools[color]
                frames[colors == color] = pool.frames[pool.cursor:pool.cursor + count]
                pool.cursor += count
        for q, count in taken:
            q.rr = (q.rr + count) % len(q.colors)
        return frames

    def access_bit_scan_and_clear(self, app_id) -> int:
        pt = self.page_tables.get(app_id)
        if pt is None:
            raise AllocationError(f"app {app_id!r} not registered")
        count = 0
        for entry in pt.values():
            if entry[1]:
                count += 1
                entry[1] = False
        return count

    def write_alloc_csv(self, path):
        if self.alloc_log is None:
            raise AllocationError("allocation logging was not enabled")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["app_id", "vpn", "pfn", "color", "llc_group", "bank_group"])
            w.writerows(self.alloc_log)
