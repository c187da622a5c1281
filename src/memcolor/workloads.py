"""Synthetic trace generation for the four application archetypes, trace
mixing, and the canonical text trace format.

Trace format, one record per line, '#' starts a comment:

    <app> <core> <hex vaddr> r|w

Addresses are virtual: physical placement is the allocator's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


PAGE_BYTES = 4096
LINE_BYTES = 64


class TraceError(ValueError):
    pass


class TraceRecord(NamedTuple):
    app: str
    core: int
    vaddr: int
    op: str


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


def gen(params: ArchetypeParams) -> list[TraceRecord]:
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

    app, core = params.app, params.core
    return [TraceRecord(app, core, int(a), "r") for a in vaddr]


def mix(traces, k: int = 1, core_count: int | None = None,
        cores=None) -> list[TraceRecord]:
    """Round-robin interleave, k records per turn, each trace on its own
    core: `cores[i]` for trace i, by default i.  Per-app record order is
    preserved."""
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
    records = [r if r.core == core else r._replace(core=core)
               for core, t in zip(cores, traces) for r in t]
    if len(traces) == 1:
        return records
    lengths = [len(t) for t in traces]
    turn = np.concatenate([np.arange(n) // k for n in lengths])
    source = np.repeat(np.arange(len(traces)), lengths)
    # by turn, then trace; stable, so each trace keeps its record order
    order = np.lexsort((source, turn))
    return list(map(records.__getitem__, order.tolist()))


def footprint_pages(trace) -> int:
    return len({r.vaddr // PAGE_BYTES for r in trace})


def write_trace(trace, path):
    with open(path, "w") as fh:
        for r in trace:
            fh.write(f"{r.app} {r.core} {r.vaddr:#x} {r.op}\n")


def read_trace(path) -> list[TraceRecord]:
    trace = []
    names = {}      # one string per app name, not one per record
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if "#" in line:
                line = line.split("#", 1)[0]
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise TraceError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            app, core_s, vaddr_s, op = parts
            if op not in ("r", "w"):
                raise TraceError(f"{path}:{lineno}: unknown op {op!r}")
            try:
                core = int(core_s)
                vaddr = int(vaddr_s, 16)
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from None
            trace.append(TraceRecord(names.setdefault(app, app), core, vaddr, op))
    return trace
