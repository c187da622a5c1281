"""Synthetic trace generation for the four application archetypes, trace
mixing, and the canonical text trace format.

Trace format, UTF-8 text, one record per line, '#' starts a comment:

    <app> <core> <hex vaddr> r|w

Fields are split on any whitespace, and a line may end in '\n', '\r\n' or
'\r'; the core and address are read as `int(core)` and `int(vaddr, 16)`
read them.  Addresses are virtual, in [0, 2^64): physical placement is the
allocator's job.  In memory a trace is a `Trace`, four read-only columns.

`read_trace` parses a file's bytes in one pass of the native kernel's
`parse_trace`, which takes the canonical form `write_trace` writes (one
space between fields, '\n' line ends, `0x` addresses) with at most
`NATIVE_NAMES` app names, plus empty lines and lines that start with '#'.
Any other file, and every file when the kernel is not built, goes through
the per-line parser `_parse_lines`, which reports the first bad line.
`write_trace` writes through the kernel's `format_trace`, or a Python loop
without it; both write the same bytes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from memcolor import _native
from memcolor.errors import MemcolorError, fits_in_memory


PAGE_BYTES = 4096
LINE_BYTES = 64
OPS = ("r", "w")                # a record's op; the write column indexes this
ADDRESS_LIMIT = 1 << 64
# Records converted to Python objects at a time (a trace iterated, written or
# replayed in Python); a whole trace at once would raise peak memory for no speed.
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


def _numbering(key: np.ndarray):
    """Number the values of `key`, an integer array, in order of first
    appearance: (each distinct value's first position, in that order
    (int64); each element's number (int32)).  One pass of the kernel's
    `number_first` when it is built, else `_sort_numbering`; a key of one
    value, as a one-app column is, needs neither."""
    if len(key) and key[0] == key[-1] and key.min() == key.max():
        return np.zeros(1, dtype=np.int64), np.zeros(len(key), dtype=np.int32)
    lib = _native.kernel()
    if lib is not None:
        # one uint64 per key, distinct for distinct keys
        wide = np.ascontiguousarray(key)
        wide = wide.view(np.uint64) if wide.dtype.itemsize == 8 else wide.astype(np.uint64)
        n = len(wide)
        bits = max(1, (2 * n - 1).bit_length())      # at least 2n slots
        first = np.empty(n, dtype=np.int64)
        number = np.empty(n, dtype=np.int32)
        distinct = lib.number_first(n, wide, 64 - bits, np.full(1 << bits, -1, dtype=np.int32),
                                    first, number)
        if distinct >= 0:
            return first[:distinct].copy(), number
    return _sort_numbering(key)


def _sort_numbering(key: np.ndarray):
    """`_numbering` by sorting, the reference for `number_first` and its
    fallback."""
    # group equal values by sorting; the sort is not stable, so a value's
    # first position is the smallest in its group
    perm = np.argsort(key)
    sorted_key = key[perm]
    starts = np.empty(len(key), dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=starts[1:])
    first = np.minimum.reduceat(perm, np.flatnonzero(starts))
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int32)
    rank[by_first] = np.arange(len(first), dtype=np.int32)
    number = np.empty(len(key), dtype=np.int32)
    number[perm] = rank[np.cumsum(starts) - 1]
    return first[by_first], number


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
        first, self.app = _numbering(app)
        self.apps = tuple(map(apps.__getitem__, app[first].tolist()))
        self.core, self.vaddr, self.write = columns
        for column in (self.app, *columns):
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
        """The same accesses, all by `app` on `core`.  An empty trace has no
        record to carry `app`, so it is a TraceError naming `app`."""
        if not len(self):
            raise TraceError(f"no records for app {app!r}")
        if self.apps == (app,) and (self.core == core).all():
            return self
        n = len(self)
        return Trace((app,), np.zeros(n, dtype=np.int32), np.full(n, core, dtype=np.int64),
                     self.vaddr, self.write)

    def pages(self, shift: int) -> Pages:
        """The trace's pages of 2^`shift` bytes; computed once per shift."""
        pages = self._pages.get(shift)
        if pages is None:
            # one key per (app, vpn); where vpn * apps could overflow 64
            # bits, the vpns' own numbers stand in for the vpns
            vpn = key = self.vaddr >> np.uint64(shift)
            if len(vpn) and int(vpn.max()) >= ADDRESS_LIMIT // len(self.apps):
                key = _numbering(vpn)[1].astype(np.uint64)
            first, of = _numbering(key * np.uint64(len(self.apps)) + self.app.astype(np.uint64))
            pages = self._pages[shift] = Pages(of, first, vpn[first])
            for column in pages:
                column.setflags(write=False)
        return pages

    def cores(self):
        """(the cores in order of first appearance, each record's position
        in that order); computed once."""
        if self._cores is None:
            first, core_of = _numbering(self.core)
            core_of.setflags(write=False)
            self._cores = (tuple(self.core[first].tolist()), core_of)
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
        if not math.isfinite(self.zipf_s):
            raise TraceError(f"zipf_s must be a finite number, got {self.zipf_s!r}")
        if self.stride < 1 or self.stride > PAGE_BYTES or PAGE_BYTES % self.stride:
            raise TraceError(f"stride must divide the page size, got {self.stride}")
        # the accesses must touch every page of the working set: once each
        # under zipf, at every stride step otherwise
        pages = self.working_set_pages
        need = pages if self.reuse == "zipf" else pages * (PAGE_BYTES // self.stride)
        if self.access_count < need:
            raise TraceError(f"{self.access_count} accesses cannot cover {pages} pages "
                             f"at stride {self.stride} (need >= {need})")


# Canonical per-kind parameterizations (desk-scale stand-ins for the four
# behaviors: private-cache resident, streaming, skewed-reuse, LLC-sized loop).
CANONICAL_PARAMS = {
    "ccf": dict(working_set_pages=8, access_count=60_000, reuse="loop", stride=LINE_BYTES),
    "llct": dict(working_set_pages=60_000, access_count=60_000, reuse="none", stride=PAGE_BYTES),
    "llcm": dict(working_set_pages=24_576, access_count=60_000, reuse="zipf",
                 stride=PAGE_BYTES, zipf_s=0.9),
    "llch": dict(working_set_pages=512, access_count=60_000, reuse="loop", stride=LINE_BYTES),
}


# The name a config entry or `memcolor gen` gives each ArchetypeParams field
# it can set, with the field and the type its value is read as.
PARAM_NAMES = {"pages": ("working_set_pages", int), "accesses": ("access_count", int),
               "reuse": ("reuse", str), "stride": ("stride", int), "zipf_s": ("zipf_s", float)}


def canonical_params(kind: str, seed: int = 0, app: str = "A", core: int = 0,
                     **overrides) -> ArchetypeParams:
    """The kind's canonical parameters, with the fields `overrides` names
    (keys of PARAM_NAMES) set; a None value keeps the canonical one."""
    if kind not in CANONICAL_PARAMS:
        raise TraceError(f"unknown archetype kind {kind!r}")
    fields = dict(CANONICAL_PARAMS[kind])
    for name, value in overrides.items():
        field, read = PARAM_NAMES[name]
        if value is not None:
            try:
                if isinstance(value, bool) and read is not str:    # YAML's true is not 1
                    raise ValueError(value)
                if read is int and isinstance(value, float) and not value.is_integer():
                    raise ValueError(value)
                fields[field] = read(value)
            except (TypeError, ValueError):
                raise TraceError(f"{name} must be {read.__name__}, got {value!r}") from None
    return ArchetypeParams(kind=kind, seed=seed, app=app, core=core, **fields)


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
    a uniform line within the page.  A trace too large for memory is a
    TraceError naming its app and access count.
    """
    with fits_in_memory(TraceError, f"app {params.app!r}: {params.access_count} accesses"):
        rng = np.random.default_rng(params.seed)
        pages = params.working_set_pages
        n = params.access_count
        per_page = PAGE_BYTES // params.stride
        page_order = rng.permutation(pages).astype(np.int64)

        if params.reuse in ("none", "loop"):
            idx = np.arange(n, dtype=np.int64) % (pages * per_page)
            vaddr = page_order[idx // per_page] * PAGE_BYTES + (idx % per_page) * params.stride
        else:
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


def mix(traces, k: int = 1) -> Trace:
    """Round-robin interleave, k records of each trace per turn.  Each record
    keeps the core set where its trace was made: `gen`'s `core`, `Trace.on`
    or a trace file's core column.  Apps of the same name are one app."""
    if not traces:
        raise TraceError("mix needs at least one trace")
    if k < 1:
        raise TraceError("k must be >= 1")
    traces = [Trace.of(t) for t in traces]
    index = {a: i for i, a in enumerate(dict.fromkeys(chain.from_iterable(
        t.apps for t in traces)))}
    lengths = [len(t) for t in traces]
    # a chunk longer than the longest trace takes the same turns as one equal to it
    k = min(k, max(lengths) or 1)
    columns = [np.empty(sum(lengths), dtype=dtype)
               for dtype in (np.int32, np.int64, np.uint64, bool)]
    sources = [(np.array([index[a] for a in t.apps], dtype=np.int32)[t.app],
                t.core, t.vaddr, t.write) for t in traces]
    # Turn u holds records [u * k, (u + 1) * k) of each trace, trace after
    # trace.  Before the turn in which the first of the m traces left ends,
    # each has k records a turn: the r-th of them fills offsets r * k to
    # r * k + k of every m * k records.  The turn it ends in is laid out
    # share by share, and the traces that end in it leave.
    at, turn, left = 0, 0, [i for i, n in enumerate(lengths) if n]
    while left:
        last = min(-(-lengths[i] // k) for i in left) - 1
        pitch = len(left) * k
        for r, i in enumerate(left):
            for out, source in zip(columns, sources[i]):
                out[at:at + (last - turn) * pitch].reshape(-1, pitch)[:, r * k:r * k + k] = \
                    source[turn * k:last * k].reshape(-1, k)
        at += (last - turn) * pitch
        for i in left:
            width = min(lengths[i] - last * k, k)
            for out, source in zip(columns, sources[i]):
                out[at:at + width] = source[last * k:last * k + width]
            at += width
        turn = last + 1
        left = [i for i in left if lengths[i] > turn * k]
    return Trace(tuple(index), *columns)


def write_trace(trace, path):
    """Write a trace file, through the kernel's `format_trace` when it is
    built.  An app name `read_trace` could not read back, one that is empty,
    holds whitespace or '#', or is not UTF-8, is a TraceError."""
    trace = Trace.of(trace)
    for name in map(str, trace.apps):
        if name.split() != [name] or "#" in name:
            raise TraceError(f"app name {name!r} cannot be written to a trace file: "
                             f"it must be one token without whitespace or '#'")
        try:
            name.encode()
        except UnicodeEncodeError:
            raise TraceError(f"app name {name!r} cannot be written to a trace file: "
                             f"it does not encode as UTF-8") from None
    cores, core_of = trace.cores()
    # one line kind per distinct (app, core): its text before the address
    key = trace.app.astype(np.int64) * len(cores) + core_of
    first, kind_of = _numbering(key)
    kinds = [f"{trace.apps[app]} {cores[core]} "
             for app, core in (divmod(k, len(cores)) for k in key[first].tolist())]
    lib = _native.kernel()
    if lib is None:
        with open(path, "w", encoding="utf-8") as fh:
            for start in range(0, len(trace), CHUNK):
                end = start + CHUNK
                fh.writelines(map("%s%#x %s\n".__mod__, zip(
                    map(kinds.__getitem__, kind_of[start:end].tolist()),
                    trace.vaddr[start:end].tolist(),
                    map(OPS.__getitem__, trace.write[start:end].tolist()))))
        return
    texts = [kind.encode() for kind in kinds]
    lengths = list(map(len, texts))
    prefixes = np.frombuffer(b"".join(texts), dtype=np.uint8)
    ends = np.cumsum(lengths, dtype=np.int64)
    vaddr = np.ascontiguousarray(trace.vaddr)
    write = np.ascontiguousarray(trace.write).view(np.uint8)
    # a record is its prefix, '0x', at most 16 digits, ' ', its op and '\n'
    out = np.empty(min(len(trace), CHUNK) * (max(lengths, default=0) + 21), dtype=np.uint8)
    with open(path, "wb") as fh:
        for start in range(0, len(trace), CHUNK):
            end = start + CHUNK
            size = lib.format_trace(len(kind_of[start:end]), kind_of[start:end],
                                    vaddr[start:end], write[start:end], prefixes, ends, out)
            fh.write(out.data[:size])


def read_trace(path) -> Trace:
    """Parse a UTF-8 trace file, through the kernel's `parse_trace` when it
    is built and handles the file, else through `_parse_lines`.  A malformed
    line is a TraceError naming `path:line`."""
    with open(path, "rb") as fh:
        data = fh.read()
    lib = _native.kernel()
    trace = None if lib is None else _parse_native(lib, data)
    return _parse_lines(path, data) if trace is None else trace


# The most app names `parse_trace` numbers; a file with more goes through
# `_parse_lines`, since the kernel looks names up one by one.
NATIVE_NAMES = 256


def _parse_native(lib, data: bytes) -> Trace | None:
    """The trace in a file's bytes as `parse_trace` reads it, or None when
    it does not handle them."""
    buffer = np.frombuffer(data, dtype=np.uint8)
    # a record a line at most: a canonical file's columns are exact, so its
    # Trace holds no unused tail
    rows = np.count_nonzero(buffer == ord("\n")) + 1
    app = np.empty(rows, dtype=np.int32)
    core = np.empty(rows, dtype=np.int64)
    vaddr = np.empty(rows, dtype=np.uint64)
    write = np.empty(rows, dtype=np.uint8)
    names = np.empty(2 * NATIVE_NAMES, dtype=np.int64)
    napps = np.empty(1, dtype=np.int64)
    n = lib.parse_trace(len(data), buffer, app, core, vaddr, write, NATIVE_NAMES, names,
                        napps)
    if n < 0:
        return None
    spans = names[:2 * int(napps[0])].tolist()
    apps = [data[s:e].decode() for s, e in zip(spans[::2], spans[1::2])]
    return Trace(apps, app[:n], core[:n], vaddr[:n], write[:n].view(bool))


def _parse_lines(path, data: bytes) -> Trace:
    """Parse a trace file's bytes line by line: UTF-8 with universal newlines,
    '#' comments, any whitespace, any token `int` reads.  The first malformed
    line is a TraceError naming `path:line`."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = _universal_newlines(data[:exc.start].decode()).count("\n") + 1
        raise TraceError(f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8 "
                         f"({exc.reason})") from None
    records = []
    for lineno, line in enumerate(_universal_newlines(text).split("\n"), start=1):
        parts = line.partition("#")[0].split()
        if not parts:
            continue
        if len(parts) != 4:
            raise TraceError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        app, core_s, vaddr_s, op = parts
        if op not in OPS:
            raise TraceError(f"{path}:{lineno}: unknown op {op!r}")
        try:
            core, vaddr = int(core_s), int(vaddr_s, 16)
        except ValueError as exc:
            raise TraceError(f"{path}:{lineno}: {exc}") from None
        problem = _record_problem(core, vaddr, op)
        if problem:
            raise TraceError(f"{path}:{lineno}: {problem}")
        records.append((app, core, vaddr, op))
    return Trace.of(records)


def _universal_newlines(text: str) -> str:
    """`text` with '\r\n' and '\r' read as '\n', as `open` reads it."""
    return text.replace("\r\n", "\n").replace("\r", "\n")
