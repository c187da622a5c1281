"""Synthetic trace generation for the four application archetypes, trace
mixing, and the canonical text trace format.

Trace format, one record per line, '#' starts a comment:

    <app> <core> <hex vaddr> r|w

Addresses are virtual, in [0, 2^64): physical placement is the
allocator's job.  In memory a trace is a `Trace`, four read-only columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from memcolor.errors import MemcolorError


PAGE_BYTES = 4096
LINE_BYTES = 64
OPS = ("r", "w")                # a record's op; the write column indexes this
ADDRESS_LIMIT = 1 << 64
# Records converted to Python objects at a time when a trace is iterated or
# written; a whole trace at once would raise peak memory for no speed.
CHUNK = 1 << 14


class TraceError(MemcolorError, ValueError):
    pass


class TraceRecord(NamedTuple):
    app: str
    core: int
    vaddr: int
    op: str


class Pages(NamedTuple):
    """The distinct (app, vpn) pages of a trace, numbered in first-touch
    order."""
    of: np.ndarray          # per record: its page (int32)
    first: np.ndarray       # per page: its first record (int64)
    vpn: np.ndarray         # per page: its virtual page number (uint64)


def _numbering(values: np.ndarray):
    """The distinct values in order of first appearance, and each value's
    position in that order (int32)."""
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return distinct[order], rank[inverse]


def _number_pages(app: np.ndarray, n_apps: int, vpn: np.ndarray) -> Pages:
    n = len(vpn)
    if not n:
        empty = np.empty(0, dtype=np.int64)
        return Pages(empty.astype(np.int32), empty, empty.astype(np.uint64))
    # group equal (app, vpn) keys by sorting; a page's first access is the
    # smallest position in its group
    if n_apps == 1:
        perm = np.argsort(vpn)
    elif int(vpn.max()) < ADDRESS_LIMIT // n_apps:
        perm = np.argsort(vpn * np.uint64(n_apps) + app.astype(np.uint64))
    else:                               # one key would overflow 64 bits
        perm = np.lexsort((app, vpn))
    vpn_sorted, app_sorted = vpn[perm], app[perm]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = (vpn_sorted[1:] != vpn_sorted[:-1]) | (app_sorted[1:] != app_sorted[:-1])
    group = np.cumsum(starts) - 1
    first = np.minimum.reduceat(perm, np.flatnonzero(starts))
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int32)
    rank[by_first] = np.arange(len(first), dtype=np.int32)
    page_of = np.empty(n, dtype=np.int32)
    page_of[perm] = rank[group]
    page_first = first[by_first]
    pages = Pages(page_of, page_first, vpn[page_first])
    for column in pages:
        column.setflags(write=False)
    return pages


class Trace(Sequence):
    """A trace as four read-only columns, one entry per record:

        app     int32, index into `apps`, the app names in order of first
                appearance
        core    int64
        vaddr   uint64, the virtual address
        write   bool, True for a 'w' record

    It is a sequence of `TraceRecord`s with plain int and str fields: it can
    be indexed, iterated and compared with another Trace or a list of
    records, and a slice is a Trace.  `pages` and `cores` number a trace's
    pages and cores once and keep the result, which is safe because the
    columns cannot be written.
    """

    __slots__ = ("apps", "app", "core", "vaddr", "write", "_pages", "_cores")

    def __init__(self, apps, app, core, vaddr, write):
        """Columns as given, `app` indexing `apps`; the names are renumbered
        in order of first appearance and unused ones dropped.  The column
        arrays become read-only, so pass arrays nothing else writes."""
        apps = tuple(apps)
        app = np.asarray(app, dtype=np.int32)
        columns = (np.asarray(core, dtype=np.int64), np.asarray(vaddr, dtype=np.uint64),
                   np.asarray(write, dtype=bool))
        if any(c.shape != app.shape for c in columns) or app.ndim != 1:
            raise TraceError("trace columns must be 1-d and of equal length")
        if len(apps) != 1 or not len(app):
            seen, app = _numbering(app)
            apps = tuple(map(apps.__getitem__, seen.tolist()))
        self.apps = apps
        self.app = app
        self.core, self.vaddr, self.write = columns
        for column in (app, *columns):
            column.setflags(write=False)
        self._pages: dict[int, Pages] = {}
        self._cores = None

    @classmethod
    def of(cls, trace) -> Trace:
        """`trace` itself if it is a Trace, else a Trace of its records
        (TraceRecords, or (app, core, vaddr, op) tuples)."""
        if isinstance(trace, Trace):
            return trace
        records = list(trace)
        n = len(records)
        apps, cores, vaddrs, ops = zip(*records) if n else ((),) * 4
        try:
            if not set(ops) <= set(OPS):
                raise ValueError("unknown op")
            core = np.fromiter(cores, np.int64, n)
            vaddr = np.fromiter(vaddrs, np.uint64, n)
        except (ValueError, OverflowError):
            for i, (_, *fields) in enumerate(records):
                problem = _record_problem(*fields)
                if problem:
                    raise TraceError(f"record {i}: {problem}") from None
            raise
        index = {a: i for i, a in enumerate(dict.fromkeys(apps))}
        return cls(tuple(index), np.fromiter(map(index.__getitem__, apps), np.int32, n),
                   core, vaddr, np.fromiter(map("w".__eq__, ops), bool, n))

    def on(self, app, core: int) -> Trace:
        """The same accesses, all by `app` on `core`."""
        if self.apps == (app,) and (self.core == core).all():
            return self
        n = len(self)
        return Trace((app,), np.zeros(n, dtype=np.int32), np.full(n, core, dtype=np.int64),
                     self.vaddr, self.write)

    def pages(self, shift: int) -> Pages:
        """The trace's pages of 2^`shift` bytes; computed once per shift."""
        pages = self._pages.get(shift)
        if pages is None:
            pages = self._pages[shift] = _number_pages(
                self.app, len(self.apps), self.vaddr >> np.uint64(shift))
        return pages

    def cores(self):
        """(the cores in order of first appearance, each record's position
        in that order); computed once."""
        if self._cores is None:
            seen, core_of = _numbering(self.core)
            core_of.setflags(write=False)
            self._cores = (tuple(seen.tolist()), core_of)
        return self._cores

    def __len__(self) -> int:
        return len(self.app)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace(self.apps, self.app[i], self.core[i], self.vaddr[i], self.write[i])
        return TraceRecord(self.apps[self.app[i]], int(self.core[i]), int(self.vaddr[i]),
                           OPS[int(self.write[i])])

    def __iter__(self):
        # a chunk of each column becomes Python objects at once
        apps = self.apps
        for start in range(0, len(self), CHUNK):
            end = start + CHUNK
            yield from map(TraceRecord._make, zip(
                map(apps.__getitem__, self.app[start:end].tolist()),
                self.core[start:end].tolist(), self.vaddr[start:end].tolist(),
                map(OPS.__getitem__, self.write[start:end].tolist())))

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self.apps == other.apps and all(
                np.array_equal(a, b) for a, b in zip(
                    (self.app, self.core, self.vaddr, self.write),
                    (other.app, other.core, other.vaddr, other.write)))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Trace({len(self)} records, apps={self.apps!r})"


def _record_problem(core: int, vaddr: int, op: str) -> str | None:
    """What makes a record unfit for a Trace's columns, or None."""
    if op not in OPS:
        return f"unknown op {op!r}"
    if not -(1 << 63) <= core < 1 << 63:
        return f"core {core} outside [-2^63, 2^63)"
    if not 0 <= vaddr < ADDRESS_LIMIT:
        return f"address {vaddr:#x} outside [0, 2^64)"
    return None


ARCHETYPE_KINDS = ("ccf", "llct", "llcm", "llch")


@dataclass(frozen=True)
class ArchetypeParams:
    kind: str
    working_set_pages: int
    access_count: int
    reuse: str = "loop"          # none | loop | zipf
    stride: int = LINE_BYTES
    zipf_s: float = 0.8
    seed: int = 0
    app: str = "A"
    core: int = 0

    def __post_init__(self):
        if self.kind not in ARCHETYPE_KINDS:
            raise TraceError(f"unknown archetype kind {self.kind!r}")
        if self.working_set_pages < 1:
            raise TraceError("working_set_pages must be >= 1")
        if self.reuse not in ("none", "loop", "zipf"):
            raise TraceError(f"unknown reuse mode {self.reuse!r}")
        if self.stride < 1 or self.stride > PAGE_BYTES or PAGE_BYTES % self.stride:
            raise TraceError(f"stride must divide the page size, got {self.stride}")


# Canonical per-kind parameterizations (desk-scale stand-ins for the four
# behaviors: private-cache resident, streaming, skewed-reuse, LLC-sized loop).
CANONICAL_PARAMS = {
    "ccf": dict(working_set_pages=8, access_count=60_000, reuse="loop", stride=LINE_BYTES),
    "llct": dict(working_set_pages=60_000, access_count=60_000, reuse="none", stride=PAGE_BYTES),
    "llcm": dict(working_set_pages=24_576, access_count=60_000, reuse="zipf",
                 stride=PAGE_BYTES, zipf_s=0.9),
    "llch": dict(working_set_pages=512, access_count=60_000, reuse="loop", stride=LINE_BYTES),
}


def canonical_params(kind: str, seed: int = 0, app: str = "A", core: int = 0) -> ArchetypeParams:
    return ArchetypeParams(kind=kind, seed=seed, app=app, core=core,
                           **CANONICAL_PARAMS[kind])


def randomized_params(kind: str, rng, app: str = "A", core: int = 0) -> ArchetypeParams:
    """Random perturbation of an archetype, for corpus-scale experiments."""
    seed = int(rng.integers(1 << 30))
    if kind == "ccf":
        pages = int(rng.integers(4, 49))
        return ArchetypeParams(kind, pages, int(rng.integers(30_000, 60_000)),
                               reuse="loop", stride=LINE_BYTES, seed=seed,
                               app=app, core=core)
    if kind == "llct":
        pages = int(rng.integers(30_000, 80_000))
        return ArchetypeParams(kind, pages, pages, reuse="none",
                               stride=PAGE_BYTES, seed=seed, app=app, core=core)
    if kind == "llcm":
        pages = int(rng.integers(20_000, 28_000))
        return ArchetypeParams(kind, pages, int(pages * rng.uniform(2.2, 2.9)),
                               reuse="zipf", stride=PAGE_BYTES,
                               zipf_s=float(rng.uniform(0.85, 0.95)),
                               seed=seed, app=app, core=core)
    if kind == "llch":
        pages = int(rng.integers(384, 640))
        passes = float(rng.uniform(1.5, 2.5))
        per_page = PAGE_BYTES // LINE_BYTES
        return ArchetypeParams(kind, pages, int(passes * pages * per_page),
                               reuse="loop", stride=LINE_BYTES, seed=seed,
                               app=app, core=core)
    raise TraceError(f"unknown archetype kind {kind!r}")


def gen(params: ArchetypeParams) -> Trace:
    """Generate a deterministic trace spanning exactly working_set_pages
    distinct pages.

    none/loop: cyclic sequential sweep over the working set at `stride`,
    page order shuffled by seed (a 'none' trace sized to one pass never
    revisits a page).  zipf: one covering pass, then skewed page draws with
    a uniform line within the page.
    """
    rng = np.random.default_rng(params.seed)
    pages = params.working_set_pages
    n = params.access_count
    per_page = PAGE_BYTES // params.stride
    page_order = rng.permutation(pages).astype(np.int64)

    if params.reuse in ("none", "loop"):
        pass_len = pages * per_page
        if n < pass_len:
            raise TraceError(
                f"{n} accesses cannot cover {pages} pages at stride {params.stride} "
                f"(need >= {pass_len})")
        idx = np.arange(n, dtype=np.int64) % pass_len
        vaddr = page_order[idx // per_page] * PAGE_BYTES + (idx % per_page) * params.stride
    else:
        if n < pages:
            raise TraceError(f"{n} accesses cannot cover {pages} pages")
        cover = page_order * PAGE_BYTES
        # bounded zipf over pages by inverse CDF
        weights = np.arange(1, pages + 1, dtype=np.float64) ** -params.zipf_s
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        draws = np.searchsorted(cdf, rng.random(n - pages), side="right")
        offsets = rng.integers(0, per_page, size=n - pages) * params.stride
        vaddr = np.concatenate([cover, page_order[draws] * PAGE_BYTES + offsets])

    return Trace((params.app,), np.zeros(n, dtype=np.int32),
                 np.full(n, params.core, dtype=np.int64), vaddr.astype(np.uint64),
                 np.zeros(n, dtype=bool))


def mix(traces, k: int = 1, core_count: int | None = None,
        cores=None) -> Trace:
    """Round-robin interleave, k records per turn, each trace on its own
    core: `cores[i]` for trace i, by default i.  Per-app record order is
    preserved; apps of the same name are one app."""
    if not traces:
        raise TraceError("mix needs at least one trace")
    if k < 1:
        raise TraceError("k must be >= 1")
    if core_count is not None and len(traces) > core_count:
        raise TraceError(f"{len(traces)} apps exceed {core_count} cores")
    if cores is None:
        cores = range(len(traces))
    elif len(cores) != len(traces):
        raise TraceError(f"{len(cores)} cores for {len(traces)} traces")
    traces = [Trace.of(t) for t in traces]
    index = {a: i for i, a in enumerate(dict.fromkeys(chain.from_iterable(
        t.apps for t in traces)))}
    lengths = [len(t) for t in traces]
    app = np.concatenate([np.array([index[a] for a in t.apps], dtype=np.int32)[t.app]
                          for t in traces])
    core = np.repeat(np.array(cores, dtype=np.int64), lengths)
    vaddr = np.concatenate([t.vaddr for t in traces])
    write = np.concatenate([t.write for t in traces])
    if len(traces) > 1:
        turn = np.concatenate([np.arange(n) // k for n in lengths])
        source = np.repeat(np.arange(len(traces)), lengths)
        # by turn, then trace; stable, so each trace keeps its record order
        order = np.lexsort((source, turn))
        app, core, vaddr, write = app[order], core[order], vaddr[order], write[order]
    return Trace(tuple(index), app, core, vaddr, write)


def footprint_pages(trace) -> int:
    return len(np.unique(Trace.of(trace).vaddr // PAGE_BYTES))


def write_trace(trace, path):
    trace = Trace.of(trace)
    cores, core_of = trace.cores()
    # one line format per distinct (app, core, op), the address left open
    kinds, kind_of = np.unique(
        (trace.app.astype(np.int64) * len(cores) + core_of) * 2 + trace.write,
        return_inverse=True)
    formats = []
    for kind in kinds.tolist():
        (app, core), write = divmod(kind >> 1, len(cores)), kind & 1
        prefix = f"{trace.apps[app]} {cores[core]} ".replace("%", "%%")
        formats.append(f"{prefix}%#x {OPS[write]}\n")
    with open(path, "w") as fh:
        for start in range(0, len(trace), CHUNK):
            end = start + CHUNK
            fh.writelines(map(str.__mod__, map(formats.__getitem__, kind_of[start:end].tolist()),
                              trace.vaddr[start:end].tolist()))


def read_trace(path) -> Trace:
    """Parse a trace file.  A malformed line is a TraceError naming
    `path:line`."""
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")            # the lines iterating the file yields
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
        text = "\n".join(lines)
    fields = text.split()
    del text
    apps, cores, vaddrs, ops = (fields[i::4] for i in range(4))
    del fields
    n = len(apps)
    if set(map(len, map(str.split, lines))) <= {0, 4} and set(ops) <= set(OPS):
        try:
            # few distinct cores: parse each once
            core_of = {s: int(s) for s in set(cores)}
            core = np.fromiter(map(core_of.__getitem__, cores), np.int64, n)
            vaddr = np.fromiter(map(int, vaddrs, repeat(16)), np.uint64, n)
        except (ValueError, OverflowError):
            pass
        else:
            index = {a: i for i, a in enumerate(dict.fromkeys(apps))}
            return Trace(tuple(index), np.fromiter(map(index.__getitem__, apps), np.int32, n),
                         core, vaddr, np.fromiter(map("w".__eq__, ops), bool, n))
    _raise_line_error(path, lines)
    raise TraceError(f"{path}: malformed trace")    # not reached


def _raise_line_error(path, lines):
    """Raise the TraceError of the first malformed line of `lines`
    (comments removed)."""
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise TraceError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        _, core_s, vaddr_s, op = parts
        if op not in OPS:
            raise TraceError(f"{path}:{lineno}: unknown op {op!r}")
        try:
            problem = _record_problem(int(core_s), int(vaddr_s, 16), op)
        except ValueError as exc:
            problem = str(exc)
        if problem:
            raise TraceError(f"{path}:{lineno}: {problem}")
