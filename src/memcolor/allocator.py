"""Color-constrained page-frame allocator with first-touch translation.

Every app allocates round-robin over the free pools of its color quota; a
policy that does not partition has one color, so one pool and the quota [0].
A `_Pool` hands out the lowest free frame first, by arithmetic over one
period of frame colors; the random policy's pool is a seeded swap-remove
list.  A batch of new pages gets its frames in one pass, the kernel's
`place_frames` over the color pools (`_place_frames` without it) or
`draw_frames` over the random pool (`_draw_frames`).  The page table is one
set of arrays for all apps in first-touch order.
There is no fallback across color quotas unless explicitly enabled:
exhausting an app's colors is an error even when other colors have free
frames, so isolation can never erode silently.
"""

from __future__ import annotations

import csv
from collections import defaultdict

import numpy as np

from memcolor import _native
from memcolor.errors import MemcolorError, fits_in_memory
from memcolor.mapping import AddressMapping, BitExtractor
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


def _place_frames(n, app, quota, colors, rr, period, start, offsets, cursor, size, frames):
    """Frames from the color pools for new pages of apps app[k], as
    `_alloc` gives them: app a takes the color at its round-robin position
    rr[a] in its quota colors[quota[a]:quota[a + 1]], and the position
    advances.  Color c has given cursor[c] of its size[c] frames; its j-th
    is `_Pool`'s (j // m) * period + offsets[start[c] + j % m], m being
    start[c + 1] - start[c].  Stops at the first page whose color has none
    left; returns the count placed.  The reference for the kernel's
    `place_frames` and its fallback, with the same arguments."""
    app, quota, colors, rr, start, offsets, cursor, size, frames = map(
        memoryview, (app, quota, colors, rr, start, offsets, cursor, size, frames))
    for k in range(n):
        a = app[k]
        c = colors[quota[a] + rr[a]]
        j = cursor[c]
        if j == size[c]:
            return k
        m = start[c + 1] - start[c]
        frames[k] = j // m * period + offsets[start[c] + j % m]
        cursor[c] = j + 1
        rr[a] = (rr[a] + 1) % (quota[a + 1] - quota[a])
    return n


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

    def pop(self) -> int:
        """The lowest free frame."""
        turn, at = divmod(self.cursor, len(self.offsets))
        self.cursor += 1
        return turn * self.period + self.offsets.item(at)


class _RandomPool:
    """The random policy's free frames `frames[:free]`, drawn uniformly with
    the allocator's RNG; a drawn frame's slot takes the last free one."""

    __slots__ = ("frames", "free", "rng")

    def __init__(self, total_pages: int, rng: np.random.Generator):
        self.frames = np.arange(total_pages, dtype=np.int64)
        self.free = total_pages
        self.rng = rng

    def take(self, count: int) -> np.ndarray:
        # one draw per frame, the same stream as `count` scalar draws
        draws = self.rng.integers(np.arange(self.free, self.free - count, -1))
        out = np.empty(count, dtype=np.int64)
        lib = _native.kernel()
        draw = _draw_frames if lib is None else lib.draw_frames
        draw(count, draws, self.frames, self.free, out)
        self.free -= count
        return out

    def pop(self) -> int:
        """`take(1)`'s frame, as an int, by one scalar draw: the same stream."""
        idx, self.free = int(self.rng.integers(self.free)), self.free - 1
        frame = self.frames.item(idx)
        self.frames[idx] = self.frames[self.free]
        return frame


class _QuotaState:
    __slots__ = ("colors", "rr")

    def __init__(self, colors):
        self.colors = sorted(colors)
        self.rr = 0


class Allocator:
    """Frames for the pages of registered apps, translated on first touch.

    Every translation is one row of a single page table, in global
    first-touch order (the order of `alloc.csv`): the app (its index in
    registration order), vpn, pfn and access bit, in arrays grown by
    doubling.  An app's rows are the mask of its index in the app column;
    {app index: {vpn: row}} is built from them when a lookup needs it.
    """

    def __init__(self, total_pages: int, spec: PolicySpec, m: AddressMapping,
                 seed: int = 0, allow_fallback: bool = False):
        if total_pages <= 0:
            raise AllocationError("total_pages must be positive")
        self.total_pages = total_pages
        self.spec = spec
        self.mapping = m
        self.allow_fallback = allow_fallback
        self._rng = np.random.default_rng(seed)
        self._quotas: dict[object, _QuotaState] = {}
        self._apps: dict = {}       # app -> its index, in registration order
        self._app = np.empty(0, dtype=np.int32)
        self._vpn = np.empty(0, dtype=np.uint64)
        self._pfn = np.empty(0, dtype=np.int64)
        self._bit = np.empty(0, dtype=bool)
        self._n = 0
        self._rows = None

        with fits_in_memory(AllocationError, f"{total_pages} free frames"):
            if spec.partitioning:
                shift = m.page_offset_bits
                self._colors_of = BitExtractor([p - shift for p in spec.color_bits]).extract
                # A frame's color repeats with the period of its highest
                # color bit; frames up to total_pages are all the pool
                # needs, however high that bit.
                period = min(1 << (max(spec.color_bits) - shift + 1), total_pages)
                colors = self._colors_of(np.arange(period, dtype=np.int64))
                self._pools = [_Pool(period, np.flatnonzero(colors == c), total_pages)
                               for c in range(spec.page_colors)]
            elif spec.kind is PolicyKind.RANDOM:
                self._pools = [_RandomPool(total_pages, self._rng)]
            else:
                self._pools = [_Pool(1, np.zeros(1, dtype=np.int64), total_pages)]

    # --- bookkeeping -----------------------------------------------------

    @property
    def page_tables(self) -> dict:
        """{app: {vpn: [pfn, access bit]}}, apps in registration order and
        each table in first-touch order; a new copy on every read."""
        app, vpn, pfn, bit = (a[:self._n] for a in (self._app, self._vpn, self._pfn, self._bit))
        tables = {}
        for name, index in self._apps.items():
            mine = app == index
            entries = map(list, zip(pfn[mine].tolist(), bit[mine].tolist()))
            tables[name] = dict(zip(vpn[mine].tolist(), entries))
        return tables

    @property
    def free_frames(self) -> int:
        return sum(self.free_by_color())

    @property
    def allocated_frames(self) -> int:
        return self._n

    def free_by_color(self) -> list[int]:
        return [p.free for p in self._pools]

    def quota_of(self, app_id) -> list[int]:
        return list(self._quotas[app_id].colors)

    def _row_map(self) -> defaultdict:
        if self._rows is None:
            app, vpn = self._app[:self._n], self._vpn[:self._n]
            self._rows = defaultdict(dict)
            for index in self._apps.values():
                mine = app == index
                self._rows[index] = dict(zip(vpn[mine].tolist(), np.flatnonzero(mine).tolist()))
        return self._rows

    def _reserve(self, end: int):
        if end > len(self._vpn):
            size = max(end, 2 * len(self._vpn))
            self._app, self._vpn, self._pfn, self._bit = (
                np.resize(a, size) for a in (self._app, self._vpn, self._pfn, self._bit))

    def _append(self, app: np.ndarray, vpn: np.ndarray, pfn: np.ndarray):
        """Add new pages, their access bits set, in the order given."""
        n, end = self._n, self._n + len(vpn)
        self._reserve(end)
        self._app[n:end], self._vpn[n:end], self._pfn[n:end], self._bit[n:end] = app, vpn, pfn, True
        self._n, self._rows = end, None     # the next lookup rebuilds the row map

    # --- quota management ------------------------------------------------

    def register(self, app_id):
        """Register an app; under a one-color policy it gets the quota [0]."""
        self._apps.setdefault(app_id, len(self._apps))
        if self.spec.page_colors == 1:
            self._quotas.setdefault(app_id, _QuotaState([0]))

    def assign_quota(self, app_id, colors):
        colors = set(colors)
        if not colors:
            raise AllocationError(f"app {app_id!r}: empty color quota")
        for c in colors:
            if not 0 <= c < self.spec.page_colors:
                raise AllocationError(
                    f"app {app_id!r}: unknown color {c} (policy has "
                    f"{self.spec.page_colors} colors)")
        self.register(app_id)
        if (self._app[:self._n] == self._apps[app_id]).any():
            raise AllocationError(f"app {app_id!r} already has allocated pages")
        self._quotas[app_id] = _QuotaState(colors)

    # --- allocation ------------------------------------------------------

    def _alloc(self, app_id) -> int:
        q = self._quotas.get(app_id)
        if q is None:
            raise AllocationError(f"app {app_id!r} has no color quota assigned")
        n = len(q.colors)
        for step in range(n):
            pool = self._pools[q.colors[(q.rr + step) % n]]
            if pool.free:
                q.rr = (q.rr + step + 1) % n
                return pool.pop()
        if self.allow_fallback:
            for pool in self._pools:
                if pool.free:
                    return pool.pop()
        raise OutOfColorMemory(app_id, q.colors)

    def touch(self, app_id, vpn: int):
        """First-touch translate: return the frame backing (app, vpn),
        allocating one on first access; sets the page's access bit."""
        index = self._apps.get(app_id)
        if index is None:
            raise AllocationError(f"app {app_id!r} not registered")
        rows = (self._rows if self._rows is not None else self._row_map())[index]
        row = rows.get(vpn)
        if row is not None:
            self._bit[row] = True
            return self._pfn.item(row)
        pfn = self._alloc(app_id)
        n = self._n
        if n == len(self._vpn):
            self._reserve(n + 1)
        self._app[n], self._vpn[n], self._pfn[n], self._bit[n] = index, vpn, pfn, True
        rows[vpn] = n
        self._n = n + 1
        return pfn

    def translate_page_array(self, apps, app: np.ndarray, vpn: np.ndarray):
        """First-touch translate distinct pages, listed in the order of their
        first access: the batch form of `touch`.  Page k is (apps[app[k]],
        vpn[k]).

        Leaves the allocator exactly as `touch` at each page's first access
        would: page-table rows in order, access bits, pool cursors, quota
        round-robin positions and the RNG.  Pages already mapped are looked
        up.  From the first new page whose pool is empty on (so fallback or
        an error), and for a batch with an app without a quota or
        registration, pages go one by one through `touch`.

        Returns (frames, error): the frames of the pages translated, in
        order, and None, or the exception that stopped translation at page
        `len(frames)`.
        """
        if not all(a in self._quotas for a in apps):    # a quota implies registration
            return self._translate_each(apps, app, vpn)
        ids = np.array([self._apps[a] for a in apps], dtype=np.int32)[app]
        row = None
        if self._n:     # some pages may be mapped already
            rows = self._row_map()
            row = np.fromiter((rows[i].get(v, -1) for i, v in zip(ids.tolist(), vpn.tolist())),
                              np.int64, len(vpn))
        new = slice(None) if row is None else row < 0
        wanted = app[new]
        new_frames = self._new_frames(apps, wanted)
        cut = len(vpn)      # the batch up to its first new page the pools do not serve
        if len(new_frames) < len(wanted):
            cut = len(new_frames) if row is None else int(np.flatnonzero(new)[len(new_frames)])

        frames = new_frames
        if row is not None:
            row = row[:cut]
            new = row < 0
            mapped = row[~new]
            self._bit[mapped] = True
            frames = np.empty(cut, dtype=np.int64)
            frames[new] = new_frames
            frames[~new] = self._pfn[mapped]
        self._append(ids[:cut][new], vpn[:cut][new], new_frames)
        if cut == len(vpn):
            return frames, None
        rest, error = self._translate_each(apps, app[cut:], vpn[cut:])
        return np.concatenate([frames, rest]), error

    def _translate_each(self, apps, app, vpn):
        frames = []
        for a, v in zip(app.tolist(), vpn.tolist()):
            try:
                frames.append(self.touch(apps[a], v))
            except Exception as exc:    # whatever touch raises; the caller names the record
                return np.array(frames, dtype=np.int64), exc
        return np.array(frames, dtype=np.int64), None

    def _new_frames(self, apps, app):
        """Frames for one new page of apps[app[k]] per k, in order, up to the
        first page whose pool is empty: the longest prefix served without
        fallback."""
        pools = self._pools
        if isinstance(pools[0], _RandomPool):
            return pools[0].take(min(len(app), pools[0].free))
        quotas = [self._quotas[a] for a in apps]
        quota = np.cumsum([0, *(len(q.colors) for q in quotas)], dtype=np.int64)
        start = np.cumsum([0, *(len(p.offsets) for p in pools)], dtype=np.int64)
        colors, rr, cursor, size = (np.array(values, dtype=np.int64) for values in (
            [c for q in quotas for c in q.colors], [q.rr for q in quotas],
            [p.cursor for p in pools], [p.size for p in pools]))
        frames = np.empty(len(app), dtype=np.int64)
        lib = _native.kernel()
        place = _place_frames if lib is None else lib.place_frames
        placed = place(len(app), np.ascontiguousarray(app, dtype=np.int32), quota, colors, rr,
                       pools[0].period, start, np.concatenate([p.offsets for p in pools]),
                       cursor, size, frames)
        for q, r in zip(quotas, rr.tolist()):
            q.rr = r
        for p, c in zip(pools, cursor.tolist()):
            p.cursor = c
        return frames[:placed]

    def access_bit_scan_and_clear(self, app_id) -> int:
        index = self._apps.get(app_id)
        if index is None:
            raise AllocationError(f"app {app_id!r} not registered")
        n = self._n
        mine = self._app[:n] == index
        bits = self._bit[:n]
        count = int(np.count_nonzero(bits & mine))
        bits &= ~mine
        return count

    def write_alloc_csv(self, path):
        """One row per translation, in first-touch order: app, vpn, pfn and
        the frame's color, LLC group and bank group (-1 each when the policy
        does not partition)."""
        n = self._n
        names = list(self._apps)
        columns = [list(map(names.__getitem__, self._app[:n].tolist())),
                   self._vpn[:n].tolist(), self._pfn[:n].tolist()]
        if self.spec.partitioning:
            colors = self._colors_of(self._pfn[:n])
            groups = np.array([self.spec.project(c) for c in range(self.spec.page_colors)])
            columns += [colors.tolist(), *groups[colors].T.tolist()]
        else:
            columns += [[-1] * n] * 3
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["app_id", "vpn", "pfn", "color", "llc_group", "bank_group"])
            w.writerows(zip(*columns))
