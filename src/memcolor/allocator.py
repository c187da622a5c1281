"""Color-constrained page-frame allocator with first-touch translation.

Every app allocates round-robin over the free pools of its color quota; a
policy that does not partition has one color, so one pool and the quota [0].
The pools and quotas are kept as the arrays the kernel's `place_frames`
takes: per color, its pool's size and cursor, the pool handing out its
lowest free frame first by arithmetic over one period of frame colors; per
registered app, its quota's colors and round-robin position.  The random
policy's one pool is a seeded swap-remove list of the free frames, drawn by
`draw_frames` and kept sparse: slot i holds frame i until a draw displaces
it, and only displaced slots are stored, as (slot, frame) pairs in one
open-addressing table that grows with the pages drawn, not with the frames.
`_place_frames` and `_draw_frames`, their Python forms, state the placement
rule once: `touch` places its new page through them, and a batch of new
pages takes one call of the kernel (of the Python forms without gcc).  The
page table is one set of arrays for all apps in first-touch order.
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


_LOAD = 0.5         # the random table's most displaced slots per pair
_NO_PAIRS = np.empty(0, dtype=np.int64)


def _slot_pair(table, mask, slot):
    """The index in `table` of slot `slot`'s pair, or of the empty pair it
    takes: pair slot & mask, or the next one on (wrapping round) that holds
    the slot or is empty.  The kernel's `slot_pair`."""
    i = (slot & mask) << 1
    while table[i] >= 0 and table[i] != slot:
        i = (i + 2) % len(table)
    return i


def _draw_frames(n, draws, left, frames, table, mask, old, olds):
    """Swap-remove draws: frame k is the one in slot draws[k] of the `left`
    free, and that slot then takes the last free slot's frame.  Slot i holds
    frame i unless `table`, mask + 1 (slot, frame) pairs with slot -1 in an
    empty one, has a pair for it.  The `olds` pairs of `old`, the
    table before it grew, are put into `table` first, in their order.  The
    reference for the kernel's `draw_frames`, with the same arguments (`n`
    is len(draws)), and what runs without it."""
    if olds:
        old = iter(old.tolist())
        for slot, frame in zip(old, old):
            if slot >= 0:
                p = _slot_pair(table, mask, slot)
                table[p], table[p + 1] = slot, frame
    for k, slot in enumerate(draws.tolist()):
        p = _slot_pair(table, mask, slot)
        left -= 1
        last = _slot_pair(table, mask, left)
        frames[k] = table[p + 1] if table[p] >= 0 else slot
        table[p], table[p + 1] = slot, table[last + 1] if table[last] >= 0 else left


def _place_frames(n, app, quota, colors, rr, pools, period, start, offsets, cursor, size, frames):
    """Frames from the color pools for new pages of apps app[k], in order.
    App a takes the first color with a free frame in its quota
    colors[quota[a]:quota[a + 1]], from its round-robin position rr[a] on,
    and rr[a] moves past that color; with none, the first of colors
    0..pools-1 with a free frame (`pools` is the color count with fallback,
    0 without).  Color c has given cursor[c] of its size[c] frames; its
    j-th is (j // m) * period + offsets[start[c] + j % m], m being
    start[c + 1] - start[c].  Stops at the first page that no pool serves,
    such as one of an app without a quota; returns the count placed.  The
    reference for the kernel's `place_frames`, with the same arguments, and
    what runs without it."""
    for k in range(n):
        a = app[k]
        lo, m, r = quota[a], quota[a + 1] - quota[a], rr[a]
        for _ in range(m):
            c, r = colors[lo + r], (r + 1) % m
            if cursor[c] < size[c]:
                rr[a] = r
                break
        else:
            c = next((c for c in range(pools if m else 0) if cursor[c] < size[c]), None)
            if c is None:
                return k
        j, w = cursor[c], start[c + 1] - start[c]
        frames[k] = j // w * period + offsets[start[c] + j % w]
        cursor[c] = j + 1
    return n


class AllocationError(MemcolorError, RuntimeError):
    pass


class OutOfColorMemory(AllocationError):
    def __init__(self, app_id, empty_colors):
        self.app_id = app_id
        self.empty_colors = tuple(empty_colors)
        super().__init__(
            f"app {app_id!r}: all allowed color pools empty: {sorted(empty_colors)}")


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
        self._apps: dict = {}       # app -> its index, in registration order
        # app i's quota is colors[quota[i]:quota[i + 1]], ascending (none
        # until one is assigned), and it takes the one at rr[i] next
        self._quota = np.zeros(1, dtype=np.int64)
        self._colors = np.empty(0, dtype=np.int64)
        self._rr = np.empty(0, dtype=np.int64)
        self._app = np.empty(0, dtype=np.int32)
        self._vpn = np.empty(0, dtype=np.uint64)
        self._pfn = np.empty(0, dtype=np.int64)
        self._bit = np.empty(0, dtype=bool)
        self._n = 0
        self._rows = None
        self._views = None      # see _arrays
        # the random policy's displaced slots, in a table _grow sizes to
        # hold `_room` of them
        self._random = spec.kind is PolicyKind.RANDOM
        self._table, self._mask, self._room = _NO_PAIRS, 0, 0

        period, colors = 1, np.zeros(1, dtype=np.int64)
        if spec.partitioning:
            shift = m.page_offset_bits
            self._colors_of = BitExtractor([p - shift for p in spec.color_bits]).extract
            # A frame's color repeats with the period of its highest color
            # bit; frames up to total_pages are all the pools need, however
            # high that bit.
            period = min(1 << (max(spec.color_bits) - shift + 1), total_pages)
            with fits_in_memory(AllocationError, f"{period} frame colors"):
                colors = self._colors_of(np.arange(period, dtype=np.int64))
        # Color c's pool: its j-th frame is (j // m) * period +
        # offsets[start[c] + j % m], m being start[c + 1] - start[c], for j
        # below size[c]; cursor[c] of them are taken (drawn, at random).
        counts = np.bincount(colors, minlength=spec.page_colors)
        self._period, self._offsets = period, np.argsort(colors, kind="stable")
        self._start = np.concatenate([[0], np.cumsum(counts)])
        self._size = total_pages // period * counts + np.bincount(
            colors[:total_pages % period], minlength=spec.page_colors)
        self._cursor = np.zeros(len(counts), dtype=np.int64)

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
        return (self._size - self._cursor).tolist()

    def quota_of(self, app_id) -> list[int]:
        index = self._apps[app_id]
        return self._colors[self._quota[index]:self._quota[index + 1]].tolist()

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
        if app_id not in self._apps:
            self._apps[app_id] = len(self._apps)
            self._quota = np.append(self._quota, self._quota[-1])
            self._rr = np.append(self._rr, 0)
            self._views = None
            if self.spec.page_colors == 1:
                self.assign_quota(app_id, [0])

    def assign_quota(self, app_id, colors):
        colors = sorted(set(colors))
        if not colors:
            raise AllocationError(f"app {app_id!r}: empty color quota")
        for c in colors:
            if not 0 <= c < self.spec.page_colors:
                raise AllocationError(
                    f"app {app_id!r}: unknown color {c} (policy has "
                    f"{self.spec.page_colors} colors)")
        self.register(app_id)
        index = self._apps[app_id]
        if (self._app[:self._n] == index).any():
            raise AllocationError(f"app {app_id!r} already has allocated pages")
        lo, hi = self._quota[index:index + 2].tolist()
        self._colors = np.concatenate([self._colors[:lo], colors, self._colors[hi:]])
        self._views = None
        self._quota[index + 1:] += len(colors) - (hi - lo)
        self._rr[index] = 0

    # --- allocation ------------------------------------------------------

    def _refusal(self, app_id) -> AllocationError:
        """Why a new page of `app_id` gets no frame."""
        if app_id not in self._apps:
            return AllocationError(f"app {app_id!r} not registered")
        colors = self.quota_of(app_id)
        if not colors:
            return AllocationError(f"app {app_id!r} has no color quota assigned")
        return OutOfColorMemory(app_id, colors)

    def _arrays(self, lib) -> tuple:
        """The pools, quotas and random table, in the kernel's order; for
        the Python forms (`lib` None) memoryviews of them, which they index
        faster, kept until `register`, `assign_quota` or `_grow` replaces
        an array."""
        if lib is None and self._views is not None:
            return self._views
        arrays = (self._quota, self._colors, self._rr, self._start, self._offsets,
                  self._cursor, self._size, self._table)
        if lib is None:
            self._views = arrays = tuple(map(memoryview, arrays))
        return arrays

    def _grow(self, drawn: int) -> np.ndarray:
        """Double the random table until it holds `drawn` displaced slots at
        a load of at most _LOAD; returns the table it replaced."""
        pairs = max(len(self._table) // 2, 2)
        while drawn > _LOAD * pairs:
            pairs *= 2
        old, self._table = self._table, np.full(2 * pairs, -1, dtype=np.int64)
        self._mask, self._room, self._views = pairs - 1, int(_LOAD * pairs), None
        return old

    def _new_frames(self, index, frames, lib) -> int:
        """Frames for one new page of app index[k] per k into frames[k], in
        order, up to the first page that no pool serves; returns their
        count.  By the kernel `lib` on arrays, or by the Python forms when it
        is None, on any sequences and the views of `_arrays`."""
        if self._random:
            # one draw per frame from the free ones left
            drawn = self._cursor.item(0)
            left = self.total_pages - drawn
            n = min(len(index), left)
            draws = self._rng.integers(np.arange(left, left - n, -1))
            old = _NO_PAIRS if drawn + n <= self._room else self._grow(drawn + n)
        quota, colors, rr, start, offsets, cursor, size, table = self._arrays(lib)
        if not self._random:
            return (_place_frames if lib is None else lib.place_frames)(
                len(index), index, quota, colors, rr, len(size) if self.allow_fallback else 0,
                self._period, start, offsets, cursor, size, frames)
        (_draw_frames if lib is None else lib.draw_frames)(
            n, draws, left, frames, table, self._mask, old, len(old) // 2)
        cursor[0] += n
        return n

    def touch(self, app_id, vpn: int):
        """First-touch translate: return the frame backing (app, vpn),
        allocating one on first access; sets the page's access bit."""
        index = self._apps.get(app_id)
        if index is None:
            raise self._refusal(app_id)
        rows = (self._rows if self._rows is not None else self._row_map())[index]
        row = rows.get(vpn)
        if row is not None:
            self._bit[row] = True
            return self._pfn.item(row)
        frames = [0]
        if not self._new_frames((index,), frames, None):
            raise self._refusal(app_id)
        pfn = frames[0]
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
        up; the new ones take their frames in one call of the kernel's
        `place_frames` or `draw_frames` (their Python forms without gcc).
        Translation stops at the first page of an app not registered, or
        the first new page that no pool serves, with the error `touch`
        raises there.

        Returns (frames, error): the frames of the pages translated, in
        order, and None, or the exception that stopped translation at page
        `len(frames)`.
        """
        index = np.array([self._apps.get(a, -1) for a in apps], dtype=np.int32)
        ids = index[app]
        cut = len(vpn)      # the batch up to its first page of an unregistered app
        if (index < 0).any() and (ids < 0).any():
            cut = int(np.argmax(ids < 0))
            ids, vpn = ids[:cut], vpn[:cut]
        row = None
        if self._n:     # some pages may be mapped already
            rows = self._row_map()
            row = np.fromiter((rows[i].get(v, -1) for i, v in zip(ids.tolist(), vpn.tolist())),
                              np.int64, cut)
        new = slice(None) if row is None else row < 0
        wanted, lib = ids[new], _native.kernel()
        new_frames = np.empty(len(wanted), dtype=np.int64)
        # the Python forms index memoryviews faster than arrays
        args = (wanted, new_frames) if lib else (memoryview(wanted), memoryview(new_frames))
        new_frames = new_frames[:self._new_frames(*args, lib)]
        stop = cut      # the batch up to its first page not translated
        if len(new_frames) < len(wanted):
            stop = len(new_frames) if row is None else int(np.flatnonzero(new)[len(new_frames)])

        frames = new_frames
        if row is not None:
            row = row[:stop]
            new = row < 0
            mapped = row[~new]
            self._bit[mapped] = True
            frames = np.empty(stop, dtype=np.int64)
            frames[new] = new_frames
            frames[~new] = self._pfn[mapped]
        self._append(ids[:stop][new], vpn[:stop][new], new_frames)
        error = None if stop == len(app) else self._refusal(apps[app[stop]])
        return frames, error

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
