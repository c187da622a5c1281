"""Color-constrained page-frame allocator with first-touch translation.

Frames live in per-color free pools (one pool when the policy does not
partition).  Pools hand out the lowest free frame number first; the random
policy draws uniformly from all free frames with a seeded RNG.  There is no
fallback across color quotas unless explicitly enabled: exhausting an app's
colors is an error even when other colors have free frames, so isolation
can never erode silently.

Neither pools nor page tables hold a Python object per frame or page: a
pool is arithmetic over one period of frame colors, and a page table is
arrays in first-touch order.
"""

from __future__ import annotations

import csv

import numpy as np

from memcolor import _native
from memcolor.errors import MemcolorError
from memcolor.mapping import AddressMapping
from memcolor.policies import PolicyKind, PolicySpec


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
    """Free frames of one color, ascending pfn, consumed front-to-back.  The
    color's frames repeat with `period`, at `offsets` within each period, so
    the k-th is (k // len(offsets)) * period + offsets[k % len(offsets)]."""

    __slots__ = ("period", "offsets", "size", "cursor")

    def __init__(self, period: int, offsets: np.ndarray, total_pages: int):
        self.period, self.offsets = period, offsets
        full, rest = divmod(total_pages, period)
        self.size = full * len(offsets) + int(np.searchsorted(offsets, rest))
        self.cursor = 0

    @property
    def free(self) -> int:
        return self.size - self.cursor

    def take(self, count: int) -> np.ndarray:
        turn, at = np.divmod(np.arange(self.cursor, self.cursor + count), len(self.offsets))
        self.cursor += count
        return turn * self.period + self.offsets[at]

    def pop(self) -> int:
        turn, at = divmod(self.cursor, len(self.offsets))
        self.cursor += 1
        return turn * self.period + int(self.offsets[at])


class _QuotaState:
    __slots__ = ("colors", "rr")

    def __init__(self, colors):
        self.colors = sorted(colors)
        self.rr = 0


class _PageTable:
    """One app's translations in first-touch order: `n` rows of vpn, pfn
    and access bit, in arrays grown by doubling.  `rows()` maps vpn to row;
    it is built on first use and kept up to date from then on."""

    __slots__ = ("vpn", "pfn", "bit", "n", "_rows")

    def __init__(self):
        self.vpn = np.empty(0, dtype=np.uint64)
        self.pfn = np.empty(0, dtype=np.int64)
        self.bit = np.empty(0, dtype=bool)
        self.n = 0
        self._rows = None

    def rows(self) -> dict:
        if self._rows is None:
            self._rows = dict(zip(self.vpn[:self.n].tolist(), range(self.n)))
        return self._rows

    def _reserve(self, end: int):
        if end > len(self.vpn):
            size = max(end, 2 * len(self.vpn))
            self.vpn, self.pfn, self.bit = (np.resize(a, size) for a in (self.vpn, self.pfn, self.bit))

    def append(self, vpns: np.ndarray, pfns: np.ndarray):
        """Add new pages, their access bits set."""
        n, end = self.n, self.n + len(vpns)
        self._reserve(end)
        self.vpn[n:end], self.pfn[n:end], self.bit[n:end] = vpns, pfns, True
        if self._rows is not None:
            self._rows.update(zip(vpns.tolist(), range(n, end)))
        self.n = end

    def add(self, vpn: int, pfn: int):
        """`append` for one page."""
        n = self.n
        self._reserve(n + 1)
        self.vpn[n], self.pfn[n], self.bit[n] = vpn, pfn, True
        self.rows()[vpn] = n
        self.n = n + 1


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
        self._tables: dict[object, _PageTable] = {}
        self.alloc_log: list[tuple] | None = [] if log else None
        self._random_free = None

        if spec.partitioning:
            # A frame's color repeats with the period of its highest color
            # bit; frames up to total_pages are all the pool needs, however
            # high that bit.
            period = min(1 << (max(spec.color_bits) - m.page_offset_bits + 1), total_pages)
            colors = self._colors_of(np.arange(period, dtype=np.int64))
            self._pools = [_Pool(period, np.flatnonzero(colors == c), total_pages)
                           for c in range(spec.page_colors)]
        else:
            self._pools = [_Pool(1, np.zeros(1, dtype=np.int64), total_pages)]
            if spec.kind is PolicyKind.RANDOM:
                self._random_free = np.arange(total_pages, dtype=np.int64)
                self._random_n = total_pages

    # --- bookkeeping -----------------------------------------------------

    @property
    def page_tables(self) -> dict:
        """{app: {vpn: [pfn, access bit]}}, each table in first-touch order;
        a new copy on every read."""
        return {app: dict(zip(t.vpn[:t.n].tolist(),
                              map(list, zip(t.pfn[:t.n].tolist(), t.bit[:t.n].tolist()))))
                for app, t in self._tables.items()}

    @property
    def free_frames(self) -> int:
        if self._random_free is not None:
            return self._random_n
        return sum(p.free for p in self._pools)

    @property
    def allocated_frames(self) -> int:
        return sum(t.n for t in self._tables.values())

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
        self._tables.setdefault(app_id, _PageTable())

    def assign_quota(self, app_id, colors):
        colors = set(colors)
        if not colors:
            raise AllocationError(f"app {app_id!r}: empty color quota")
        for c in colors:
            if not 0 <= c < self.spec.page_colors:
                raise AllocationError(
                    f"app {app_id!r}: unknown color {c} (policy has "
                    f"{self.spec.page_colors} colors)")
        if self._tables.setdefault(app_id, _PageTable()).n:
            raise AllocationError(f"app {app_id!r} already has allocated pages")
        self._quotas[app_id] = _QuotaState(colors)

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
        table = self._tables.get(app_id)
        if table is None:
            raise AllocationError(f"app {app_id!r} not registered")
        row = table.rows().get(vpn)
        if row is not None:
            table.bit[row] = True
            return int(table.pfn[row])
        if self.spec.partitioning:
            pfn = self._alloc_colored(app_id)
        else:
            pfn = self._alloc_free(app_id)
        table.add(vpn, pfn)
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
        """`translate_page_array` for pages given as lists of app ids and
        vpns."""
        apps = list(dict.fromkeys(app_ids))
        index = dict(zip(apps, range(len(apps))))
        return self.translate_page_array(
            apps, np.fromiter(map(index.__getitem__, app_ids), np.int64, len(app_ids)),
            np.array(vpns, dtype=np.uint64))

    def translate_page_array(self, apps, app: np.ndarray, vpn: np.ndarray):
        """First-touch translate distinct pages, listed in the order of their
        first access: the batch form of `touch`.  Page k is (apps[app[k]],
        vpn[k]).

        Leaves the allocator exactly as `touch` at each page's first access
        would: page-table rows in order, access bits, `alloc_log` rows, pool
        cursors, quota round-robin positions and the RNG.  Pages already
        mapped are looked up.  A batch the pools cannot serve whole (an
        exhausted pool, fallback, a missing quota or registration) goes page
        by page through `touch`.

        Returns (frames, error): the frames of the pages translated, in
        order, and None, or the exception that stopped translation at page
        `len(frames)`.
        """
        if not all(a in self._tables and (a in self._quotas or not self.spec.partitioning)
                   for a in apps):
            return self._translate_each(apps, app, vpn)
        tables = [self._tables[a] for a in apps]
        row = None
        if any(t.n for t in tables):    # some pages may be mapped already
            row = np.fromiter((tables[a].rows().get(v, -1) for a, v in
                               zip(app.tolist(), vpn.tolist())), np.int64, len(vpn))
        new = slice(None) if row is None else row < 0
        new_app, new_vpn = app[new], vpn[new]
        new_frames = self._new_frames(apps, new_app)
        if new_frames is None:
            return self._translate_each(apps, app, vpn)

        frames = new_frames
        if row is not None:
            frames = np.empty(len(vpn), dtype=np.int64)
            frames[new] = new_frames
            for i, t in enumerate(tables):
                mapped = row[~new & (app == i)]
                t.bit[mapped] = True
                frames[~new & (app == i)] = t.pfn[mapped]
        for i, t in enumerate(tables):
            mine = new_app == i
            t.append(new_vpn[mine], new_frames[mine])
        if self.alloc_log is not None:
            rows = zip(map(apps.__getitem__, new_app.tolist()), new_vpn.tolist(),
                       new_frames.tolist())
            if self.spec.partitioning:
                groups = [self.spec.project(c) for c in range(self.spec.page_colors)]
                self.alloc_log.extend(
                    (a, v, f, c) + groups[c]
                    for (a, v, f), c in zip(rows, self._colors_of(new_frames).tolist()))
            else:
                self.alloc_log.extend((a, v, f, -1, -1, -1) for a, v, f in rows)
        return frames, None

    def _translate_each(self, apps, app, vpn):
        frames = []
        for a, v in zip(app.tolist(), vpn.tolist()):
            try:
                frames.append(self.touch(apps[a], v))
            except Exception as exc:    # whatever touch raises; the caller names the record
                return np.array(frames, dtype=np.int64), exc
        return np.array(frames, dtype=np.int64), None

    def _new_frames(self, apps, app):
        """Frames for one new page of apps[app[k]] per k, in order, or None
        (with nothing consumed) when a pool would run out on the way."""
        n = len(app)
        if self.spec.partitioning:
            return self._new_colored_frames(apps, app)
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
        return pool.take(n) if n <= pool.free else None

    def _new_colored_frames(self, apps, app):
        # The k-th new page of an app takes the quota color k steps past its
        # round-robin position, and the frame at its rank among the requests
        # for that color; this holds while no pool runs empty.
        colors = np.empty(len(app), dtype=np.int64)
        taken = []
        for i, a in enumerate(apps):
            q = self._quotas[a]
            sel = np.flatnonzero(app == i)
            steps = (q.rr + np.arange(len(sel))) % len(q.colors)
            colors[sel] = np.array(q.colors, dtype=np.int64)[steps]
            taken.append((q, len(sel)))
        counts = np.bincount(colors, minlength=len(self._pools)).tolist()
        if any(c > pool.free for c, pool in zip(counts, self._pools)):
            return None
        frames = np.empty(len(app), dtype=np.int64)
        for color, count in enumerate(counts):
            if count:
                frames[colors == color] = self._pools[color].take(count)
        for q, count in taken:
            q.rr = (q.rr + count) % len(q.colors)
        return frames

    def access_bit_scan_and_clear(self, app_id) -> int:
        table = self._tables.get(app_id)
        if table is None:
            raise AllocationError(f"app {app_id!r} not registered")
        bits = table.bit[:table.n]
        count = int(np.count_nonzero(bits))
        bits[:] = False
        return count

    def write_alloc_csv(self, path):
        if self.alloc_log is None:
            raise AllocationError("allocation logging was not enabled")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["app_id", "vpn", "pfn", "color", "llc_group", "bank_group"])
            w.writerows(self.alloc_log)
