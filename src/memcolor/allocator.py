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

import numpy as np

from memcolor.mapping import AddressMapping
from memcolor.policies import PolicyKind, PolicySpec


class AllocationError(RuntimeError):
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

        pfns = np.arange(total_pages, dtype=np.int64)
        if spec.partitioning:
            shift = m.page_offset_bits
            colors = np.zeros(total_pages, dtype=np.int64)
            for i, pos in enumerate(spec.color_bits):
                colors |= ((pfns >> (pos - shift)) & 1) << i
            self._pools = [_Pool(pfns[colors == c]) for c in range(spec.page_colors)]
            self._random_free = None
        else:
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
