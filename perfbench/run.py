"""memcolor benchmark: one closed-loop caller, one operation at a time.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-mixed --seed 0 --seconds 20 --trace 0

The workloads are described in `perfbench/suite.py`.  The program is
imported from `src/` of the current directory; nothing is installed.

--trace 0 sets the workload up several times, then runs its operations in
a fixed cyclic order until at least one whole round is done and `--seconds`
have passed, and reports the end-to-end metrics:

    round_s         seconds per round: the sum over the round's operations of
                    each operation's median time
    accesses_per_s  trace records of one round / round_s
    setup_s         import time plus the median time to build the inputs
    peak_rss_mb     peak resident memory of the process over the set-ups and
                    the first round, less the host reference's table; later
                    rounds repeat the same operations, and what they add is
                    heap fragmentation that differs from run to run

Times are normalised to a fixed host speed.  A shared host's speed drifts by
tens of percent within seconds and over minutes, and the program slows with
it, so a fixed reference loop (`HostReference`) is timed between every two timed
spans, and each span's seconds are scaled by REF_S over the mean time of the
loop just before and just after it: they are the seconds the span would
take on a host that runs the loop in REF_S.  The raw host seconds and the
reference's times go into the metadata.

--trace 1 sets up and runs one untraced round, then, with the tracer
installed (`perfbench/tracer.py`), repeats traced set-ups and rounds until
`--seconds` have passed in all (at least one).  It reports per traced
set-up and round: the per-layer seconds and call counts, the simulated
ratios, the tracing overhead (traced minus untraced seconds) and static
code sizes.

Every operation's simulated output is digested and checked: against the
digest pinned in `perfbench/digests.json` for that seed if there is one,
against the operation's first result in this run, and against counter
invariants.  A mismatch, a broken invariant, an exception or a nonzero CLI
exit counts as a failed operation.  `--pin` records this run's digests in
`perfbench/digests.json`.

The last line of standard output is the result object; the line before it
holds run metadata.  Spans and metadata are also written to
`perfbench/out/`.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3

# The host reference: random lookups in a dict of REF_KEYS int keys, about
# as memory-bound as the simulator's cache and page-table dicts, so both slow
# alike when other tenants load the host.  REF_S is about the loop's time on
# an unloaded 2-vCPU host; it only sets the unit.
REF_KEYS = 200_000
REF_LOOKUPS = 300_000
REF_S = 0.25


class HostReference:
    """Times the reference loop; `normalise` scales a span timed since the
    previous loop."""

    def __init__(self):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.table = {i * 4096: i for i in range(REF_KEYS)}
        self.rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
        self.samples: list[float] = []
        self._loop()                 # warm-up, not kept
        self.last = self.sample()

    def _loop(self) -> float:
        table, x, total = self.table, 12345, 0
        t0 = time.perf_counter()
        for _ in range(REF_LOOKUPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += table[(x % REF_KEYS) * 4096]
        return time.perf_counter() - t0

    def sample(self) -> float:
        dur = self._loop()
        self.samples.append(dur)
        return dur

    def normalise(self, seconds: float) -> float:
        """Time the loop once more and return `seconds`, timed between the
        previous loop and this one, at the reference host speed."""
        before, self.last = self.last, self.sample()
        return seconds * 2 * REF_S / (before + self.last)


class Digests:
    """Checks each operation's digest against the pinned one for the seed and
    against its first result in this run; records what it saw."""

    def __init__(self, pinned: dict | None, digest_fn):
        self.pinned = pinned
        self.digest = digest_fn
        self.seen: dict[str, str] = {}

    def check(self, op: str, payload) -> list:
        value = self.digest(payload)
        problems = []
        if self.pinned is not None and self.pinned.get(op) != value:
            problems.append("digest differs from the pinned one")
        if self.seen.setdefault(op, value) != value:
            problems.append("digest differs from this run's first result")
        return problems


def load_pinned(workload: str, seed: int) -> dict | None:
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def pin(workload: str, seed: int, seen: dict):
    doc = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            doc = json.load(fh)
    doc.setdefault(workload, {})[str(seed)] = dict(sorted(seen.items()))
    with open(DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.round_records = 0
        self.round_rss_mb = 0.0       # peak RSS when the first round is done
        self.durations: dict[str, list] = {}      # normalised seconds
        self.raw_durations: dict[str, list] = {}  # host seconds


def run_op(op, digests: Digests, tally: Tally, ref: HostReference | None = None):
    """Time one operation, then verify it untimed.  With a host reference
    the operation's time is also normalised."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        out = None
        problems = ["raised:\n" + traceback.format_exc()]
    dur = time.perf_counter() - t0
    tally.raw_durations.setdefault(op.name, []).append(dur)
    if ref is not None:
        tally.durations.setdefault(op.name, []).append(ref.normalise(dur))
    if out is not None:
        try:
            payload, problems = op.verify(out)
            problems += digests.check(op.name, payload)
        except Exception:
            problems = ["output unreadable:\n" + traceback.format_exc()]
    if problems:
        tally.failed += 1
        print(f"FAILED {op.name}: " + "; ".join(problems), file=sys.stderr)


def run_round(ops, digests, tally, tracer=None):
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        run_op(op, digests, tally)


def timed(seconds: float, wl, digests, ref: HostReference) -> Tally:
    """Cycle through the round until one whole round is done and `seconds`
    have passed."""
    ops = wl.operations()
    tally = Tally()
    start = time.perf_counter()
    tally.round_records = sum(op.records for op in ops)
    done = 0
    while done < len(ops) or time.perf_counter() - start < seconds:
        run_op(ops[done % len(ops)], digests, tally, ref)
        done += 1
        if done == len(ops):
            tally.round_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return tally


def code_lines(pattern: str) -> int:
    return sum(_read(p).count("\n") for p in glob.glob(pattern, recursive=True))


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def git_rev() -> str:
    """HEAD's commit read from .git without running git; 'none' outside a
    repository."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "none"


def metadata(args, suite_mod) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(),
        "src_digest": suite_mod.digest(
            {p: _read(p) for p in sorted(glob.glob("src/**/*.py", recursive=True))}),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "code.src_lines": code_lines("src/**/*.py"),
        "code.scripts_lines": code_lines("scripts/*.py"),
    }


def bench(name: str, seed: int, seconds: float, trace: bool, workdir: str,
          toy: bool = False, pinned: dict | None = None, import_s: float = 0.0):
    """Run one workload; returns (result dict, Digests, details for the
    metadata)."""
    import suite
    wl = suite.WORKLOADS[name](seed, workdir, toy=toy)
    digests = Digests(pinned, suite.digest)

    if not trace:
        ref = HostReference()
        import_norm = import_s * REF_S / ref.last
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            raw_setups.append(time.perf_counter() - t0)
            setups.append(ref.normalise(raw_setups[-1]))
        tally = timed(seconds, wl, digests, ref)
        round_s = sum(statistics.median(d) for d in tally.durations.values())
        metrics = {
            "round_s": (round_s, "s"),
            "accesses_per_s": (tally.round_records / round_s, "1/s"),
            "setup_s": (import_norm + statistics.median(setups), "s"),
            "peak_rss_mb": (tally.round_rss_mb - ref.rss_mb, "MB"),
        }
        details = {
            "raw_round_s": sum(statistics.median(d) for d in tally.raw_durations.values()),
            "raw_setup_s": import_s + statistics.median(raw_setups),
            "run_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                               - ref.rss_mb,
            "ref_s_nominal": REF_S, "ref_runs_s": ref.samples, "ref_rss_mb": ref.rss_mb,
            "import_s": import_s, "setup_runs_s": setups, "raw_setup_runs_s": raw_setups,
            "op_durations_s": tally.durations, "raw_op_durations_s": tally.raw_durations}
        return _result(tally, metrics), digests, details

    from tracer import Tracer
    tally = Tally()
    start = time.perf_counter()
    wl.setup()
    run_round(wl.operations(), digests, tally)
    untraced = time.perf_counter() - start

    tracer = Tracer()
    rounds = 0
    tracer.install()
    try:
        t0 = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            tracer.op = "setup"
            wl.setup()
            run_round(wl.operations(), digests, tally, tracer)
            rounds += 1
        traced = (time.perf_counter() - t0) / rounds
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(rounds)
    layers["classifier.agreement"] = wl.agreement()
    layers["tracing.overhead_s"] = traced - untraced
    layers["code.src_lines"] = code_lines("src/**/*.py")
    layers["code.scripts_lines"] = code_lines("scripts/*.py")
    metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    details = {"traced_rounds": rounds,
               "self_s": {k: v / rounds for k, v in tracer.self_time.items()},
               "spans": tracer.spans}
    return _result(tally, metrics), digests, details


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls"):
        return "count"
    if name.startswith("code."):
        return "lines"
    return "ratio"


def _result(tally: Tally, metrics: dict) -> dict:
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="memcolor benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="record this run's digests as the pinned ones for the seed")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "memcolor")):
        print("error: run from the root of a memcolor checkout (no src/memcolor here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import suite
    import_s = time.perf_counter() - T_START
    if args.workload not in suite.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    pinned = None if args.pin else load_pinned(args.workload, args.seed)
    try:
        result, digests, details = bench(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir,
            pinned=pinned, import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.pin and result["correct"]:
        pin(args.workload, args.seed, digests.seen)
    elif args.pin:
        print("error: not pinning the digests of a run with failed operations",
              file=sys.stderr)

    meta = metadata(args, suite)
    meta["pinned_digests"] = pinned is not None
    meta["round_digest"] = suite.digest(sorted(digests.seen.items()))
    spans = details.pop("spans", None)
    meta.update(details)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"meta": meta, "result": result, "spans": spans}, fh)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
