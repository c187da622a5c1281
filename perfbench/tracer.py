"""In-memory tracing for the benchmark, installed from outside the program.

`Tracer.install()` replaces public functions and methods of memcolor with
timing wrappers and `Tracer.uninstall()` puts the originals back, so an
untraced run executes the program's own code unchanged.

Two kinds of wrapper share one call stack, so every timer also knows its
self time (its duration minus the time of the wrapped calls it made):

* span wrappers, around calls that happen a few times per operation; each
  call is also kept as a span record (id, name, parent, operation, start,
  end) and written out when the benchmark ends;
* hot wrappers, around per-record methods; these only aggregate a call
  count, a total and a self time, because a record per call would cost more
  than the call.

A wrapper's own cost per call lands in its caller's self time; the
benchmark reports the whole cost of tracing as `tracing.overhead_s`.

`hierarchy.run_trace` is a span that also reads the replay's simulated
counters, so the benchmark can report exact hit and first-touch ratios over
every replay, including those the classifier and the CLI make internally.
"""

from __future__ import annotations

import time

from memcolor import (advisor, allocator, classifier, cli, config, hierarchy,
                      workloads)

# (timer name, owner objects, attribute, hot).  A module function imported
# by name into another module is looked up there, so it is wrapped in each.
TARGETS = (
    ("workloads.gen_s", (workloads, cli), "gen", False),
    ("workloads.mix_s", (workloads, cli), "mix", False),
    ("workloads.read_trace_s", (workloads, cli), "read_trace", False),
    ("workloads.write_trace_s", (workloads,), "write_trace", False),
    ("config.load_s", (config, cli), "load_config", False),
    ("allocator.init_s", (allocator.Allocator,), "__init__", False),
    ("allocator.write_alloc_csv_s", (allocator.Allocator,), "write_alloc_csv", False),
    ("hierarchy.init_s", (hierarchy.MemoryHierarchy,), "__init__", False),
    ("hierarchy.run_trace_s", (hierarchy, classifier, cli), "run_trace", False),
    ("classifier.online_s", (classifier, cli), "classify_trace_online", False),
    ("classifier.offline_s", (classifier, cli), "classify_offline", False),
    ("advisor.advise_s", (advisor, cli), "advise", False),
    ("advisor.plan_quotas_s", (advisor, cli), "plan_quotas", False),
    ("cli.main_s", (cli,), "main", False),
    ("allocator.touch", (allocator.Allocator,), "touch", True),
    ("allocator.scan", (allocator.Allocator,), "access_bit_scan_and_clear", True),
    ("hierarchy.access", (hierarchy.MemoryHierarchy,), "access", True),
    ("classifier.on_access", (classifier.PageAccessSampler,), "on_access", True),
)

TIMER_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))

REPLAY_COUNTERS = ("records", "first_touches", "private_hits", "llc_hits",
                   "llc_misses", "row_hits")


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TIMER_NAMES, 0)
        self.total = dict.fromkeys(TIMER_NAMES, 0.0)
        self.self_time = dict.fromkeys(TIMER_NAMES, 0.0)
        self.replay = dict.fromkeys(REPLAY_COUNTERS, 0)
        self.spans: list[dict] = []
        self.op = None               # name of the operation being run
        self._stack: list[list] = []   # [span id, child seconds]
        self._saved: list[tuple] = []

    def install(self):
        for name, owners, attr, hot in TARGETS:
            for owner in owners:
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                if hot:
                    wrapper = self._hot(name, orig)
                elif attr == "run_trace":
                    wrapper = self._replay(name, orig)
                else:
                    wrapper = self._span(name, orig)
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _finish(self, name, frame, t0, t1):
        dur = t1 - t0
        self._stack.pop()
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    def _hot(self, name, orig):
        stack = self._stack
        perf = time.perf_counter
        finish = self._finish

        def wrapper(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return orig(*args, **kwargs)
            finally:
                finish(name, frame, t0, perf())
        return wrapper

    def _span(self, name, orig):
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self.spans.append({"id": span_id, "name": name, "parent": parent,
                               "op": self.op})
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.spans[span_id].update(start=t0, end=t1)
                self._finish(name, frame, t0, t1)
        return wrapper

    def _replay(self, name, orig):
        span = self._span(name, orig)

        def wrapper(trace, alloc, hier, *args, **kwargs):
            frames_before = alloc.allocated_frames
            before = dict(hier.metrics.total)
            result = span(trace, alloc, hier, *args, **kwargs)
            after = hier.metrics.total
            self.replay["records"] += len(trace)
            self.replay["first_touches"] += alloc.allocated_frames - frames_before
            for key in REPLAY_COUNTERS[2:]:
                self.replay[key] += after[key] - before[key]
            return result
        return wrapper

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer seconds and call counts per traced round (every round
        does the same work), and simulated ratios over all of them."""
        out = {}
        for name in TIMER_NAMES:
            key = name if name.endswith("_s") else name + "_s"
            out[key] = self.total[name] / rounds
        out["hierarchy.run_trace_self_s"] = self.self_time["hierarchy.run_trace_s"] / rounds
        for name in ("allocator.touch", "hierarchy.access", "classifier.on_access"):
            out[name + "_calls"] = self.calls[name] // rounds
        r = self.replay
        post_private = r["llc_hits"] + r["llc_misses"]
        out["allocator.first_touch_ratio"] = _ratio(r["first_touches"], r["records"])
        out["hierarchy.private_hit_ratio"] = _ratio(r["private_hits"], r["records"])
        out["hierarchy.llc_hit_ratio"] = _ratio(r["llc_hits"], post_private)
        out["hierarchy.row_hit_ratio"] = _ratio(r["row_hits"], r["llc_misses"])
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
