import builtins
import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import memcolor
from memcolor import _native, cli
from memcolor.allocator import Allocator
from memcolor.cli import main
from memcolor.config import TOP_KEYS, ExperimentConfig, config_from_dict, load_config
from memcolor.hierarchy import DEFAULT_LATENCIES, MemoryHierarchy, run_trace
from memcolor.policies import PolicyKind, policy_spec
from memcolor.workloads import (ARCHETYPE_KINDS, TraceRecord, canonical_params, gen,
                                read_trace, write_trace)

SMALL_WORKLOAD = [
    {"app": "H", "kind": "llch", "pages": 256, "accesses": 40000, "seed": 1},
    {"app": "T", "kind": "llct", "pages": 20000, "accesses": 20000, "seed": 2},
]


def write_config(tmp_path, **overrides):
    doc = {"seed": 3, "core_count": 4, "workload": SMALL_WORKLOAD}
    doc.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_gen_writes_trace(tmp_path, capsys):
    out = tmp_path / "t.trace"
    rc = main(["gen", "--kind", "llct", "--pages", "1000", "--accesses", "1000",
               "--seed", "1", "-o", str(out)])
    assert rc == 0
    trace = read_trace(out)
    assert len({r.vaddr // 4096 for r in trace}) == 1000


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    args = ["gen", "--kind", "ccf", "--seed", "9", "--accesses", "2000",
            "--pages", "8", "--stride", "4096"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_missing_kind_is_usage_error(tmp_path):
    assert main(["gen", "-o", str(tmp_path / "t.trace")]) == 1


@pytest.mark.parametrize("kind", ARCHETYPE_KINDS)
def test_gen_defaults_to_canonical_params(tmp_path, kind):
    # the trace a config entry {kind: K} generates
    out = tmp_path / "t.trace"
    assert main(["gen", "--kind", kind, "-o", str(out)]) == 0
    assert read_trace(out) == gen(canonical_params(kind))


@pytest.mark.parametrize("flag,value,message", [
    ("--pages", "0", "working_set_pages must be >= 1"),
    ("--pages", "-3", "working_set_pages must be >= 1"),
    ("--accesses", "0", "0 accesses cannot cover 8 pages at stride 64 (need >= 512)"),
    ("--stride", "0", "stride must divide the page size, got 0"),
])
def test_gen_zero_or_negative_flag_is_runtime_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "t.trace"
    assert main(["gen", "--kind", "ccf", flag, value, "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_zipf_s_not_finite_is_runtime_error(tmp_path, capsys, value):
    out = tmp_path / "t.trace"
    assert main(["gen", "--kind", "llcm", "--zipf-s", value, "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"error: zipf_s must be a finite number, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("app", ["a b", "x#y", ""])
def test_gen_app_name_the_reader_rejects_is_runtime_error(tmp_path, capsys, app):
    out = tmp_path / "t.trace"
    assert main(["gen", "--kind", "ccf", "--app", app, "-o", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: app name {app!r} cannot be written to a trace file: "
        f"it must be one token without whitespace or '#'\n")
    assert not out.exists()


def test_gen_app_name_not_utf8_is_runtime_error(tmp_path, capsys):
    # how Python decodes the argument bytes b'A\xff'
    out = tmp_path / "t.trace"
    assert main(["gen", "--kind", "ccf", "--app", "A\udcff", "-o", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: app name 'A\\udcff' cannot be written to a trace file: "
        "it does not encode as UTF-8\n")
    assert not out.exists()


@pytest.mark.parametrize("policy", [PolicyKind.INTERLEAVE, PolicyKind.RANDOM])
def test_run_policy_without_partitioning_matches_registered_apps(tmp_path, policy):
    # perfbench and the scripts only register the apps of these policies
    cfg = load_config(write_config(tmp_path, epoch=7000))
    traces = cli._load_traces(cfg)
    merged = cli.mix(list(traces.values()), k=cfg.mix_chunk)
    spec = policy_spec(policy, cfg.mapping)
    metrics, snapshots, alloc = cli._run_policy(cfg, merged, spec, epoch=cfg.epoch)
    registered = Allocator(cfg.mapping.total_pages, spec, cfg.mapping,
                           seed=cfg.seed, allow_fallback=cfg.allow_fallback)
    for app in traces:
        registered.register(app)
    ref_metrics, ref_snapshots = run_trace(
        merged, registered, MemoryHierarchy(cfg.mapping, cfg.private_cache, cfg.llc_ways),
        epoch=cfg.epoch)
    assert [alloc.quota_of(app) for app in traces] == [[0], [0]]
    assert metrics.to_json(cfg.latencies) == ref_metrics.to_json(cfg.latencies)
    assert json.dumps(snapshots) == json.dumps(ref_snapshots)
    assert len(snapshots) == 60000 // 7000
    alloc.write_alloc_csv(tmp_path / "run.csv")
    registered.write_alloc_csv(tmp_path / "registered.csv")
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "registered.csv").read_bytes()


def test_run_explicit_policy(tmp_path, capsys):
    cfg = write_config(tmp_path, policy="a-vp")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["total"]["llc_misses"] > 0
    alloc_lines = (out / "alloc.csv").read_text().splitlines()
    assert alloc_lines[0] == "app_id,vpn,pfn,color,llc_group,bank_group"
    assert len(alloc_lines) > 1


def test_run_auto_emits_decision(tmp_path, capsys):
    cfg = write_config(tmp_path, policy="auto")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    decision = json.loads((out / "decision.json").read_text())
    # LLCT present on 4 cores -> a-vp
    assert decision["policy"] == "a-vp"
    assert (out / "metrics.json").exists()


def test_run_empty_workload_is_config_error(tmp_path):
    cfg = write_config(tmp_path, workload=[])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_run_invalid_mapping_is_config_error(tmp_path):
    cfg = write_config(tmp_path, mapping={"o_bits": [10]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_run_unknown_policy_is_config_error(tmp_path):
    cfg = write_config(tmp_path, policy="zigzag")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_run_deterministic_reports(tmp_path, capsys):
    cfg = write_config(tmp_path, policy="random")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    assert (out1 / "alloc.csv").read_bytes() == (out2 / "alloc.csv").read_bytes()


def test_classify_online(tmp_path, capsys):
    cfg = write_config(tmp_path, workload=[
        {"app": "H", "kind": "llch", "seed": 1}])
    assert main(["classify", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["H"]["category"] == "LLCH"


def test_online_and_offline_ccf_is_what_fits_the_private_cache(tmp_path, capsys):
    # 100 pages overflow the default private cache but fit a 1 MiB one; a
    # 512-page llch loop, of which an interval shows 157 pages, fits neither
    cfg = write_config(tmp_path, hierarchy={"private": {"size": 1 << 20, "ways": 8}},
                       workload=[{"app": "C", "kind": "ccf", "pages": 100, "seed": 1},
                                 {"app": "H", "kind": "llch", "seed": 1, "core": 1}])
    categories = []
    for method in ("online", "offline"):
        assert main(["classify", "--method", method, "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        categories.append({app: out[app]["category"] for app in out})
    assert categories == [{"C": "CCF", "H": "LLCH"}] * 2


def test_advise_profile_only(tmp_path, capsys):
    cfg = write_config(tmp_path, workload=[], profile=[
        {"app": "A", "category": "LLCH"},
        {"app": "B", "category": "LLCM"},
    ])
    assert main(["advise", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["policy"] == "bank-only"


def test_advise_with_a_profile_reads_no_trace(tmp_path):
    # the profile stands for the classification: a workload entry's missing
    # trace file is never opened, and the decision is the profile's alone
    profile = [{"app": "H", "category": "LLCH"}]
    decisions = []
    for name, workload in (("alone", []), ("missing", [{"app": "H", "trace": "absent.trace"}])):
        cfg = write_config(tmp_path, workload=workload, profile=profile)
        assert main(["advise", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        decisions.append((tmp_path / name / "decision.json").read_bytes())
    assert decisions[0] == decisions[1]


def test_duplicate_workload_app_is_refused_before_any_trace_is_read(tmp_path, capsys):
    cfg = write_config(tmp_path, workload=[dict(SMALL_WORKLOAD[0], app="A"),
                                           {"app": "A", "trace": str(tmp_path / "absent")}])
    assert main(["classify", "--config", cfg]) == 2
    assert capsys.readouterr().err == \
        "config error: workload[1] (app 'A'): duplicate app, already in workload[0]\n"


def test_advise_multithreaded_random(tmp_path, capsys):
    cfg = write_config(tmp_path, workload=[], multithreaded=True, profile=[
        {"app": "A", "category": "LLCH"}])
    assert main(["advise", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["policy"] == "random"


def test_sweep_report(tmp_path, capsys):
    cfg = write_config(tmp_path, profile=[
        {"app": "H", "category": "LLCH"},
        {"app": "T", "category": "LLCT"},
    ])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "sweep.json").read_text())
    assert report["pdt_policy"] == "a-vp"
    assert set(report["per_policy"]) == {
        "interleave", "bank-only", "a-vp", "b-vp", "c-vp", "random"}
    csv_text = (out / "sweep.csv").read_text()
    assert csv_text.splitlines()[0].startswith("policy,proxy_cycles")


def test_sweep_records_infeasible_cell_as_skipped(tmp_path, capsys):
    # bank-only has 2 LLC color groups; LLCT + LLCH + CCF need 3 quota groups
    cfg = write_config(tmp_path, workload=SMALL_WORKLOAD + [
        {"app": "C", "kind": "ccf", "accesses": 20000, "seed": 3}], profile=[
        {"app": "H", "category": "LLCH"},
        {"app": "T", "category": "LLCT"},
        {"app": "C", "category": "CCF"},
    ])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = {line.split(",")[0]: line.split(",")[-1]
            for line in (out / "sweep.csv").read_text().splitlines()[1:]}
    assert rows["bank-only"].startswith("skipped: 3 quota groups")
    assert all(status == "ok" for p, status in rows.items() if p != "bank-only")
    report = json.loads((out / "sweep.json").read_text())
    assert "bank-only" not in report["per_policy"]
    assert len(report["per_policy"]) == 5


def test_sweep_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    o1, o2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", cfg, "--out", str(o1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(o2)]) == 0
    assert (o1 / "sweep.json").read_bytes() == (o2 / "sweep.json").read_bytes()
    assert (o1 / "sweep.csv").read_bytes() == (o2 / "sweep.csv").read_bytes()


def test_sweep_takes_no_epoch_snapshots(tmp_path, monkeypatch, capsys):
    epochs = []

    def replay(*args, epoch=None):
        epochs.append(epoch)
        return run_trace(*args, epoch=epoch)

    monkeypatch.setattr(cli, "run_trace", replay)
    sweeps = []
    for overrides in ({}, {"epoch": 7000}):
        out = tmp_path / f"sweep{len(sweeps)}"
        assert main(["sweep", "--config", write_config(tmp_path, **overrides),
                     "--out", str(out)]) == 0
        sweeps.append([(out / name).read_bytes() for name in ("sweep.json", "sweep.csv")])
    assert sweeps[0] == sweeps[1]
    assert epochs == [None] * 12


GOLDEN_WORKLOAD = [
    {"app": "H", "kind": "llch", "pages": 96, "accesses": 12000, "seed": 1},
    {"app": "T", "kind": "llct", "pages": 5000, "accesses": 10000, "seed": 2},
    {"app": "C", "kind": "ccf", "pages": 8, "accesses": 10000, "seed": 3},
]

# sha256 of each output of `run --policy auto` and `sweep` on GOLDEN_WORKLOAD
GOLDEN = {
    "stdout": "6f760ec8e950c111a293106a8503a48318759d50f32bf55069cd50d1c9f0f35e",
    "decision.json": "9ead415a92f9d3f41808294bf527ab66ba4dfb90c4bf3f7d0408c1b5aafdcbd0",
    "metrics.json": "011d642c383dc6cf8d87ca8d109863ea74d1b4b45e7db589ad6899648591f141",
    "alloc.csv": "9e67052052d6d707806a65a528e9a86efa245d8a0fd073cda31f696fc6955689",
    "epochs.json": "9de99f8e77a14edc2b03efb3565bf3d3292d579e53b70b7e2d4b35670b4eb550",
    "sweep.json": "3e9f94c89d18363d2578cfaa7fa83d6d43d69e45cfe8e81bcae32a5ef266b0c5",
    "sweep.csv": "bf15acb7f9e611e0a2b19dad1161c0c2dfde58e7480769b72e62aee1a4e6b3e2",
}


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
def test_artifacts_match_golden_hashes(tmp_path, capsys, kernel):
    cfg = write_config(tmp_path, workload=GOLDEN_WORKLOAD, epoch=1700)
    out = tmp_path / "out"
    loops = contextlib.nullcontext() if kernel else mock.patch.object(_native, "kernel", lambda: None)
    with loops:
        assert main(["run", "--config", cfg, "--policy", "auto", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN if name != "stdout"}
    digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    assert digests == GOLDEN


# The listings below also show that no `.memcolor-*` staging directory is
# left behind, on success or failure.
def test_failed_sweep_leaves_no_new_file(tmp_path, monkeypatch, capsys):
    real_open = open

    def full_disk_for_sweep_json(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.basename(file) == "sweep.json" \
                and "w" in mode:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), file)
        return real_open(file, mode, *args, **kwargs)

    out = tmp_path / "out"
    monkeypatch.setattr(builtins, "open", full_disk_for_sweep_json)
    assert main(["sweep", "--config", write_config(tmp_path), "--out", str(out)]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_failed_run_leaves_an_earlier_run_as_it_was(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--policy", "auto", "--out", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert sorted(before) == ["alloc.csv", "decision.json", "metrics.json"]

    def full_disk(self, path):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(Allocator, "write_alloc_csv", full_disk)
    assert main(["run", "--config", cfg, "--policy", "auto", "--seed", "4",
                 "--out", str(out)]) == 3
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


def test_run_removes_the_files_an_earlier_run_wrote_and_it_does_not(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, epoch=7000), "--policy", "auto",
                 "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["alloc.csv", "decision.json", "epochs.json",
                                       "metrics.json"]
    capsys.readouterr()
    assert main(["run", "--config", write_config(tmp_path, epoch=0), "--policy", "random",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("policy=random ")
    assert sorted(os.listdir(out)) == ["alloc.csv", "metrics.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_artifacts_have_the_mode_a_plain_open_gives(tmp_path, capsys, umask):
    cfg = write_config(tmp_path, epoch=7000)
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        for argv in (["run", "--policy", "auto"], ["sweep"], ["classify"], ["advise"]):
            assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    plain = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
    assert {name: stat.S_IMODE(os.stat(out / name).st_mode) for name in os.listdir(out)} == \
        dict.fromkeys(["alloc.csv", "classify.json", "decision.json", "epochs.json",
                       "metrics.json", "sweep.csv", "sweep.json"], plain)


def test_missing_config_file_is_runtime_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path)]) == 3


def test_short_trace_names_app_length_and_period(tmp_path, capsys):
    cfg = write_config(tmp_path, workload=[
        {"app": "S", "kind": "llch", "pages": 64, "accesses": 5000, "seed": 1}])
    assert main(["classify", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "'S'" in err and "5000 accesses" in err and "10000" in err


def test_unsupported_core_count_is_config_error(tmp_path):
    cfg = write_config(tmp_path, core_count=6, policy="auto", profile=[
        {"app": "H", "category": "LLCH"},
        {"app": "T", "category": "LLCT"},
    ])
    src = os.path.dirname(os.path.dirname(memcolor.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-m", "memcolor.cli", "run", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "core_count" in proc.stderr


def test_sweep_csv_quotes_failure_reasons(tmp_path, capsys):
    # b-vp gives T colors [3, 7], 16384 of the 65536 frames, for its 20000 pages
    cfg = write_config(tmp_path, mapping={"mem_bytes": 65536 << 12}, profile=[
        {"app": "H", "category": "LLCH"},
        {"app": "T", "category": "LLCT"},
    ])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == 6 for row in rows)
    status = {row[0]: row[5] for row in rows[1:]}
    assert status["b-vp"] == ("failed: record 32769: app 'T': all allowed color "
                              "pools empty: [3, 7]")


def test_trace_file_app_and_core_follow_the_config(tmp_path):
    path = tmp_path / "h.trace"
    records = [TraceRecord("Z", 7, 0x1000, "r"), TraceRecord("H", 1, 0x2040, "w"),
               TraceRecord("H", 0, 0x3000, "r")]
    write_trace(records, path)
    cfg = load_config(write_config(tmp_path, workload=[
        {"app": "H", "core": 1, "trace": str(path)}]))
    assert cli._load_traces(cfg) == {"H": [TraceRecord("H", 1, r.vaddr, r.op) for r in records]}


def test_run_and_sweep_use_configured_cores(tmp_path, monkeypatch, capsys):
    seen = []

    def spy(trace, *args, **kwargs):
        seen.append(dict((r.app, r.core) for r in trace))
        return run_trace(trace, *args, **kwargs)

    run_trace = cli.run_trace
    monkeypatch.setattr(cli, "run_trace", spy)
    workload = [dict(SMALL_WORKLOAD[0], core=3), dict(SMALL_WORKLOAD[1], core=2)]
    cfg = write_config(tmp_path, workload=workload, policy="interleave", profile=[
        {"app": "H", "category": "LLCH"}, {"app": "T", "category": "LLCT"}])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
    assert len(seen) == 1 + 6
    assert all(cores == {"H": 3, "T": 2} for cores in seen)


@pytest.mark.parametrize("cores,message", [
    ((0, 4), "workload[1] (app 'T'): core 4 is outside [0, 4) (core_count)"),
    ((-1, 0), "workload[0] (app 'H'): core -1 is outside [0, 4) (core_count)"),
    ((2, 2), "workload[1] (app 'T'): core 2 is already taken by workload[0] (app 'H')"),
])
def test_bad_core_is_config_error(tmp_path, capsys, cores, message):
    workload = [dict(w, core=c) for w, c in zip(SMALL_WORKLOAD, cores)]
    cfg = write_config(tmp_path, workload=workload, policy="interleave")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


# --- load-time checks, the error base, and a fuzz of small configs ----------

@pytest.mark.parametrize("overrides,message", [
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"workload": [dict(SMALL_WORKLOAD[0], seed=-3)]},
     "workload[0] (app 'H'): seed must be >= 0, got -3"),
    ({"mix_chunk": 0}, "mix_chunk must be >= 1, got 0"),
    ({"mix_chunk": -2}, "mix_chunk must be >= 1, got -2"),
    ({"epoch": -7}, "epoch must be >= 0, got -7"),
])
def test_bad_seed_chunk_or_epoch_is_config_error(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, policy="interleave", **overrides)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("llc", [{"size": 1 << 22}, {"line": 128}])
@pytest.mark.parametrize("command", [["run"], ["sweep"], ["classify", "--method", "offline"]])
def test_llc_geometry_against_mapping_is_config_error(tmp_path, capsys, command, llc):
    # the mapping alone gives the LLC's sets and lines, so a config that
    # states either names a key the LLC does not read
    cfg = write_config(tmp_path, policy="interleave", hierarchy={"llc": llc})
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: hierarchy.llc: unknown key {next(iter(llc))!r}\n")


@pytest.mark.parametrize("mapping", [
    {"set_index_bits": list(range(7, 19))},
    {"line_offset_bits": 7, "set_index_bits": list(range(7, 19))},
])
def test_mapping_alone_gives_the_cache_geometry(tmp_path, mapping):
    # 4096 LLC sets, and 128-byte lines in every cache, from the default
    # hierarchy
    cfg = write_config(tmp_path, policy="interleave", mapping=mapping)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert main(["classify", "--method", "offline", "--config", cfg]) == 0


def test_seed_flag_means_the_configs_seed(tmp_path):
    # the entries give no seed of their own, so they take the config's
    workload = [{k: v for k, v in w.items() if k != "seed"} for w in SMALL_WORKLOAD]

    def run(name, flags, **doc):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(yaml.safe_dump(
            {"core_count": 4, "policy": "interleave", "workload": workload, **doc}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name), *flags]) == 0
        return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}

    in_file = run("file", [], seed=3)
    assert run("flag", ["--seed", "3"]) == in_file
    assert run("unseeded", [])["alloc.csv"] != in_file["alloc.csv"]


@pytest.mark.parametrize("overrides,message", [
    ({"sampler": {"bucket_weights": []}},
     "sampler.bucket_weights must be a non-empty list of numbers, got []"),
    ({"sampler": {"bucket_weights": ["a"]}},
     "sampler.bucket_weights must be a non-empty list of numbers, got ['a']"),
    ({"workload": {"app": "A"}}, "workload must be a list of mappings, got {'app': 'A'}"),
    ({"workload": [5]}, "workload[0] must be a mapping, got 5"),
    ({"mapping": {"mem_bytes": 1024}},
     "mapping.mem_bytes must hold at least one 4096-byte page, got 1024"),
    ({"hierarchy": {"llc": {"ways": 3}}},
     "hierarchy.llc: cache ways must be a power of two, got 3"),
])
def test_malformed_config_field_is_config_error(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    assert main(["classify", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_readme_configs_load():
    # every yaml block of the README is a valid config, so it documents no
    # key the config does not read; config_from_dict opens no trace file.
    # The block of every key at its default is the default config.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    docs = [yaml.safe_load(block) for block in re.findall(r"```yaml\n(.*?)```", readme, re.S)]
    defaults = [doc for doc in docs if config_from_dict(doc) == ExperimentConfig()]
    assert docs and [sorted(doc) for doc in defaults] == [sorted(TOP_KEYS)]


@pytest.mark.parametrize("overrides,message", [
    ({"workload": [dict(SMALL_WORKLOAD[0], kind="zzz")]},
     "workload[0] (app 'H'): unknown archetype kind 'zzz'"),
    ({"profile": [{"app": "H"}]},
     "profile[0] (app 'H'): category must be CCF, LLCT, LLCM or LLCH, got None"),
    ({"profile": [{"app": "H", "category": "llch"}, {"app": "T", "category": "big"}]},
     "profile[1] (app 'T'): category must be CCF, LLCT, LLCM or LLCH, got 'big'"),
    ({"profile": [{"category": "llch"}]},
     "profile[0] must be a mapping with an 'app', got {'category': 'llch'}"),
    ({"workload": [dict(SMALL_WORKLOAD[0], pages=0)]},
     "workload[0] (app 'H'): working_set_pages must be >= 1"),
    ({"workload": [SMALL_WORKLOAD[0], dict(SMALL_WORKLOAD[1], pages="many")]},
     "workload[1] (app 'T'): pages must be an integer, got 'many'"),
    ({"workload": [dict(SMALL_WORKLOAD[0], core="x")]},
     "workload[0] (app 'H'): core must be an integer, got 'x'"),
    ({"workload": [{"app": "H"}]}, "workload[0] (app 'H'): needs either 'trace' or 'kind'"),
    ({"epoch": "x"}, "epoch must be an integer, got 'x'"),
    ({"core_count": "four"}, "core_count must be an integer, got 'four'"),
    ({"total_pages": 65536}, "top level: unknown key 'total_pages'"),
    ({"workload": [{"app": "H", "kind": "llch", "pages": 64, "accesses": 10}]},
     "workload[0] (app 'H'): 10 accesses cannot cover 64 pages at stride 64 (need >= 4096)"),
    ({"sampler": {"period": "x"}}, "sampler.period must be an integer, got 'x'"),
    ({"hierarchy": {"latencies": {"row_hit": "x"}}},
     "hierarchy.latencies.row_hit must be an integer, got 'x'"),
    ({"mapping": {"row_shift": "x"}}, "mapping.row_shift must be an integer, got 'x'"),
    ({"mapping": {"bank_index_bits": [13, "x"]}},
     "mapping.bank_index_bits must be an integer, got 'x'"),
    ({"thresholds": {"wpd_low": "x"}}, "thresholds.wpd_low must be a number, got 'x'"),
    ({"thresholds": {"footprint_pages": 64}}, "thresholds: unknown key 'footprint_pages'"),
    ({"hierarchy": 5}, "hierarchy must be a mapping, got 5"),
    ({"hierarchy": {"latencies": [1]}}, "hierarchy.latencies must be a mapping, got [1]"),
    ({"hierarchy": {"private": [1]}}, "hierarchy.private must be a mapping, got [1]"),
    ({"sampler": 5}, "sampler must be a mapping, got 5"),
    ({"thresholds": 5}, "thresholds must be a mapping, got 5"),
    ({"mapping": 5}, "mapping must be a mapping, got 5"),
    ({"mapping": {"set_index_bits": 5}}, "mapping.set_index_bits must be a list, got 5"),
    ({"profile": 5}, "profile must be a list, got 5"),
    ({"epochs": 100}, "top level: unknown key 'epochs'"),
    ({"latencies": {"row_hit": 100}}, "top level: unknown key 'latencies'"),
    ({"hierarchy": {"llc": {"way": 16}}}, "hierarchy.llc: unknown key 'way'"),
    ({"hierarchy": {"latencies": {"dram": 100}}}, "hierarchy.latencies: unknown key 'dram'"),
    ({"workload": [dict(SMALL_WORKLOAD[0], acceses=40000)]},
     "workload[0] (app 'H'): unknown key 'acceses'"),
    ({"thresholds": {"hot_pages_low": 60}}, "thresholds: unknown key 'hot_pages_low'"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"core_count": True}, "core_count must be an integer, got True"),
    ({"mix_chunk": True}, "mix_chunk must be an integer, got True"),
    ({"epoch": False}, "epoch must be an integer, got False"),
    ({"workload": [dict(SMALL_WORKLOAD[0], pages=True)]},
     "workload[0] (app 'H'): pages must be an integer, got True"),
    ({"hierarchy": {"latencies": {"row_miss": -200}}},
     "hierarchy.latencies.row_miss must be >= 0, got -200"),
    ({"sampler": {"period": 0}}, "sampler: sampling period must be positive"),
    ({"thresholds": {"wpd_low": 9}}, "thresholds: wpd_low must be <= wpd_high"),
    ({"hierarchy": {"private": {"line": 128}}}, "hierarchy.private: unknown key 'line'"),
    ({"thresholds": {"d_ccf_llct": 0.5, "d_llch": 0.1}},
     "thresholds: d_ccf_llct must be < d_llch"),
    ({"workload": [SMALL_WORKLOAD[0], dict(SMALL_WORKLOAD[1], app="H")]},
     "workload[1] (app 'H'): duplicate app, already in workload[0]"),
    ({"thresholds": {"wpd_low": float("nan")}},
     "thresholds: wpd_low must be finite, got nan"),
    ({"sampler": {"bucket_weights": [-1, -2]}},
     "sampler: bucket_weights must be finite and >= 0, got [-1, -2]"),
    ({"sampler": {"bucket_weights": [float("nan")]}},
     "sampler: bucket_weights must be finite and >= 0, got [nan]"),
    ({"profile": [{"app": "H", "category": "CCF"}, {"app": "H", "category": "LLCH"},
                  {"app": "T", "category": "LLCT"}]},
     "profile[1] (app 'H'): duplicate app, already in profile[0]"),
    ({"hierarchy": {"private": {"size": 256, "ways": 8}}},
     "hierarchy.private: 256 bytes hold no set of 8 64-byte lines"),
    ({"thresholds": {"hot_page_low": 64}}, "thresholds: unknown key 'hot_page_low'"),
    ({"thresholds": {"hot_page_high": 128}}, "thresholds: unknown key 'hot_page_high'"),
])
def test_config_error_names_entry_or_field(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, policy="interleave", **overrides)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_offline_classification_at_zero_latencies_is_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path, hierarchy={"latencies": dict.fromkeys(DEFAULT_LATENCIES, 0)})
    assert main(["classify", "--method", "offline", "--config", cfg]) == 3
    assert capsys.readouterr().err == (
        "error: app 'H': the full-LLC oracle run costs 0 proxy cycles, so its degradation "
        "is undefined\n")


@pytest.mark.parametrize("field", ["row_shift", "page_offset_bits", "line_offset_bits"])
@pytest.mark.parametrize("value", [64, 70])
def test_address_shift_of_64_or_more_is_config_error(tmp_path, capsys, field, value):
    # the kernel's shift by 64 or more is undefined in C, where the Python
    # replay's gives 0: at row_shift 64 the two swapped row hits and conflicts
    cfg = write_config(tmp_path, policy="interleave", mapping={field: value})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: invalid mapping: {field} must be in [0, 64), got {value}")
    assert not (tmp_path / "o").exists()


def test_index_bit_of_64_or_more_is_config_error(tmp_path, capsys):
    # the kernel's bank bit 70 reads bit 6 on x86, where the Python replay's
    # reads 0: the two reported different row hits and misses
    cfg = write_config(tmp_path, policy="interleave",
                       mapping={"bank_index_bits": [14, 15, 19, 20, 21, 22, 70]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "config error: invalid mapping: bank index bit 70 at or above 64\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides,message", [
    ({"multithreaded": "false"}, "multithreaded must be true or false, got 'false'"),
    ({"multithreaded": 0}, "multithreaded must be true or false, got 0"),
    ({"allow_fallback": "no"}, "allow_fallback must be true or false, got 'no'"),
    ({"allow_fallback": None}, "allow_fallback must be true or false, got None"),
])
def test_boolean_field_not_a_yaml_boolean_is_config_error(tmp_path, capsys, overrides,
                                                          message):
    cfg = write_config(tmp_path, policy="interleave", **overrides)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_yaml_booleans_are_read_as_written(tmp_path):
    path = tmp_path / "config.yaml"
    for text, expected in (("multithreaded: no\nallow_fallback: yes\n", (False, True)),
                           ("multithreaded: true\nallow_fallback: False\n", (True, False))):
        path.write_text(text)
        cfg = load_config(path)
        assert (cfg.multithreaded, cfg.allow_fallback) == expected


@pytest.mark.parametrize("overrides,message", [
    ({"hierarchy": {"latencies": {"private_hit": 1.5}}},
     "hierarchy.latencies.private_hit must be an integer, got 1.5"),
    ({"seed": 2.7}, "seed must be an integer, got 2.7"),
    ({"seed": float("inf")}, "seed must be an integer, got inf"),
    ({"mapping": {"row_shift": 23.5}}, "mapping.row_shift must be an integer, got 23.5"),
    ({"hierarchy": {"private": {"size": 32768.5}}},
     "hierarchy.private.size must be an integer, got 32768.5"),
    ({"workload": [dict(SMALL_WORKLOAD[0], pages=256.5)]},
     "workload[0] (app 'H'): pages must be an integer, got 256.5"),
    ({"workload": [dict(SMALL_WORKLOAD[0], accesses=float("inf"))]},
     "workload[0] (app 'H'): accesses must be an integer, got inf"),
    ({"workload": [{"app": "M", "kind": "llcm", "zipf_s": float("nan")}]},
     "workload[0] (app 'M'): zipf_s must be a finite number, got nan"),
    ({"workload": [{"app": "M", "kind": "llcm", "zipf_s": float("inf")}]},
     "workload[0] (app 'M'): zipf_s must be a finite number, got inf"),
])
def test_number_not_integral_or_finite_is_config_error(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, policy="interleave", **overrides)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Minimal example:\n\n```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.yaml"
    path.write_text(example)
    cfg = load_config(path)
    assert ([entry.app for entry in cfg.workload], cfg.policy, cfg.seed) == \
        (["H", "T", "M"], "auto", 3)


def test_integral_floats_read_as_integers(tmp_path):
    path = write_config(tmp_path, seed=3.0, hierarchy={"latencies": {"private_hit": 4.0}},
                        workload=[dict(SMALL_WORKLOAD[0], pages=256.0)])
    cfg = load_config(path)
    assert (cfg.seed, cfg.latencies["private_hit"]) == (3, 4)
    assert cfg == load_config(write_config(
        tmp_path, hierarchy={"latencies": {"private_hit": 4}}, workload=SMALL_WORKLOAD[:1]))


@pytest.mark.parametrize("workload,profile,message", [
    ([dict(SMALL_WORKLOAD[0], app="A")], ["B"], "workload[0] (app 'A') is not in the profile"),
    (SMALL_WORKLOAD, ["T", "H", "C"], "profile[2] (app 'C') is not in the workload"),
])
@pytest.mark.parametrize("command", ["run", "sweep", "advise"])
def test_profile_and_workload_apps_differ_is_config_error(tmp_path, capsys, command,
                                                          workload, profile, message):
    cfg = write_config(tmp_path, workload=workload,
                       profile=[{"app": app, "category": "LLCH"} for app in profile])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["gen", "run"])
def test_workload_too_large_for_memory_is_runtime_error(tmp_path, capsys, command):
    # 10**12 accesses ask numpy for terabytes, which fails at once; a size
    # near the host's memory could be granted and then be killed
    out = tmp_path / "o"
    if command == "gen":
        argv = ["gen", "--kind", "llch", "--app", "H", "--accesses", str(10**12),
                "-o", str(out)]
    else:
        cfg = write_config(tmp_path, policy="interleave",
                           workload=[dict(SMALL_WORKLOAD[0], accesses=10**12)])
        argv = ["run", "--config", cfg, "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == \
        f"error: app 'H': {10**12} accesses do not fit in memory\n"
    assert not out.exists()


# each size is petabytes, far beyond any host's memory, so numpy's request
# fails at once
STATE_TOO_LARGE = {
    # c-vp colors by bit 60 alone, so a color repeats every 2^49 frames
    "color-period": ({"policy": "c-vp",
                      "mapping": {"mem_bytes": 2**62, "c_bits": [60],
                                  "set_index_bits": [*range(6, 18), 60]}},
                     f"{2**49} frame colors"),
    "private-sets": ({"hierarchy": {"private": {"size": 2**60}}},
                     f"{2**51} private cache sets"),
    "banks": ({"mapping": {"bank_index_bits": [14, 15, *range(19, 64)]}},
              f"{2**47} DRAM banks"),
}


@pytest.mark.parametrize("case", STATE_TOO_LARGE)
def test_simulator_state_too_large_for_memory_is_runtime_error(tmp_path, capsys, case):
    overrides, what = STATE_TOO_LARGE[case]
    cfg = write_config(tmp_path, **{"policy": "interleave", **overrides})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {what} do not fit in memory\n"
    assert not out.exists()
    assert main(["classify", "--method", "offline", "--config", cfg]) == 3
    assert capsys.readouterr().err == f"error: {what} do not fit in memory\n"


def test_random_policy_runs_on_memory_too_large_for_a_list_of_frames(tmp_path):
    # 2^50 frames: the random pool stores only the slots its draws displace
    cfg = write_config(tmp_path, policy="random", epoch=20000,
                       mapping={"mem_bytes": 2**62})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["alloc.csv", "epochs.json", "metrics.json"]
    rows = (out / "alloc.csv").read_text().splitlines()[1:]
    pfns = [int(row.split(",")[2]) for row in rows]
    assert len(set(pfns)) == len(pfns) and max(pfns) < 2**50
    assert max(pfns) > 2**40    # drawn from all of memory


def test_sweep_cell_too_large_for_memory_fails_alone(tmp_path):
    overrides, what = STATE_TOO_LARGE["color-period"]
    out = tmp_path / "o"
    assert main(["sweep", "--config", write_config(tmp_path, **overrides),
                 "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    failed = [row for row in rows if not row.endswith(",ok")]
    assert failed == [f"c-vp,,,,,failed: {what} do not fit in memory"]
    assert len(rows) == 6


def test_mix_chunk_longer_than_every_trace_runs_as_the_longest(tmp_path):
    metrics = []
    for chunk in (10**18, max(entry["accesses"] for entry in SMALL_WORKLOAD)):
        out = tmp_path / str(chunk)
        cfg = write_config(tmp_path, policy="interleave", mix_chunk=chunk)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        metrics.append((out / "metrics.json").read_bytes())
    assert metrics[0] == metrics[1]


def test_negative_seed_option_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, policy="interleave")
    assert main(["run", "--config", cfg, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "argument --seed: must be >= 0, got -1" in err and "Traceback" not in err


def test_epoch_zero_means_no_epochs(tmp_path, capsys):
    cfg = write_config(tmp_path, policy="interleave", epoch=0)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert load_config(cfg).epoch is None
    assert not (tmp_path / "o" / "epochs.json").exists()


def test_trace_address_outside_64_bits_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "h.trace"
    path.write_text("H 0 0x1000 r\nH 0 -0x1000 r\n")
    cfg = write_config(tmp_path, workload=[{"app": "H", "trace": str(path)}],
                       policy="interleave")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == \
        f"error: {path}:2: address -0x1000 outside [0, 2^64)\n"


@pytest.mark.parametrize("text", ["", "# no records\n\n"])
def test_empty_trace_file_names_file_and_app(tmp_path, capsys, text):
    path = tmp_path / "h.trace"
    path.write_text(text)
    cfg = write_config(tmp_path, workload=[{"app": "H", "trace": str(path)}])
    assert main(["classify", "--config", cfg]) == 3
    assert capsys.readouterr().err == f"error: {path}: no records for app 'H'\n"


def test_classify_without_the_kernel_warns_once(tmp_path, capsys):
    # classify reads its trace file through the kernel; when the build fails
    # it reads with the Python parser, prints the same result and warns once
    path = tmp_path / "h.trace"
    write_trace(gen(canonical_params("llch", app="H")), path)
    cfg = write_config(tmp_path, workload=[{"app": "H", "trace": str(path)}])
    assert main(["classify", "--config", cfg]) == 0
    expected = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(memcolor.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    script = ("import sys; from memcolor import _native, cli; "
              "_native.CC = '/nonexistent/gcc'; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", script, "classify", "--config", cfg],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert proc.stderr.count("RuntimeWarning") == 1
    assert "native kernel unavailable" in proc.stderr and "/nonexistent/gcc" in proc.stderr


def test_trace_file_not_utf8_is_runtime_error(tmp_path, capsys):
    # universal newlines: '\r\n' and a lone '\r' each end a line
    path = tmp_path / "h.trace"
    path.write_bytes(b"H 0 0x1000 r\r\nH 0 0x2000 r\rH 0 0x\xff r\n")
    cfg = write_config(tmp_path, workload=[{"app": "H", "trace": str(path)}])
    assert main(["classify", "--config", cfg]) == 3
    assert capsys.readouterr().err == \
        f"error: {path}:3: byte 0xff is not UTF-8 (invalid start byte)\n"


def test_config_file_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_bytes(b"profile: [{app: H, category: llch}]\nseed: 1  # \xe9t\xe9\n")
    assert main(["advise", "--config", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"config error: {path}: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"


def test_every_library_error_has_one_base():
    from memcolor.advisor import AdvisorError
    from memcolor.allocator import AllocationError, OutOfColorMemory
    from memcolor.classifier import ClassifierError
    from memcolor.config import ConfigError
    from memcolor.errors import MemcolorError
    from memcolor.hierarchy import SimulationError
    from memcolor.mapping import MappingError
    from memcolor.policies import PolicyError
    from memcolor.workloads import TraceError
    for error, builtin in [(ConfigError, ValueError), (PolicyError, ValueError),
                           (AdvisorError, ValueError), (TraceError, ValueError),
                           (ClassifierError, ValueError), (MappingError, ValueError),
                           (AllocationError, RuntimeError), (OutOfColorMemory, RuntimeError),
                           (SimulationError, RuntimeError)]:
        assert issubclass(error, MemcolorError) and issubclass(error, builtin)


POLICY_NAMES = ["auto", "interleave", "bank-only", "a-vp", "b-vp", "c-vp", "random", "bogus"]
FUZZ_APPS = [{"app": "H", "kind": "llch", "pages": 16, "accesses": 2048},
             {"app": "C", "kind": "ccf", "pages": 4, "accesses": 1024},
             {"app": "T", "kind": "llct", "pages": 600, "accesses": 600}]


@st.composite
def fuzz_configs(draw):
    """A run or sweep of 1-3 small apps; each field is usually valid, now
    and then out of range or of the wrong shape."""
    n = draw(st.integers(1, 3))
    cores = draw(st.permutations(range(4)))[:n]
    if draw(st.integers(0, 9)) == 0:
        cores[0] = draw(st.sampled_from([-1, 4, cores[-1]]))
    workload = [dict(app, core=core, seed=draw(st.integers(-1, 50)))
                for app, core in zip(FUZZ_APPS, cores)]
    doc = {"seed": draw(st.integers(-1, 50)), "core_count": 4,
           "policy": draw(st.sampled_from(POLICY_NAMES)),
           "mix_chunk": draw(st.one_of(st.integers(-1, 8), st.just(1 << 62))),
           "epoch": draw(st.one_of(st.none(), st.integers(-2, 1500))),
           "sampler": {"period": 500}, "workload": workload}
    pages = draw(st.one_of(st.none(), st.integers(0, 1500),
                           st.sampled_from([1 << 21, (1 << 21) + 1])))
    if pages is not None:
        doc["mapping"] = {"mem_bytes": pages << 12}
    odd = draw(st.integers(0, 9))
    if odd == 0:
        doc["sampler"]["bucket_weights"] = draw(st.one_of(
            st.lists(st.integers(0, 9), max_size=3), st.lists(st.text(max_size=2), max_size=2)))
    elif odd == 1:
        doc["workload"] = draw(st.sampled_from([{"app": "A"}, [5], ["H"], "H"]))
    elif odd == 2:
        doc["mapping"] = {"mem_bytes": draw(st.sampled_from([-4096, 0, 1024]))}
    elif odd == 3:
        doc["hierarchy"] = {"llc": {"ways": draw(st.sampled_from([0, 3, 8, 16]))}}
    return draw(st.sampled_from(["run", "sweep"])), doc


@given(case=fuzz_configs())
@settings(max_examples=100, deadline=None)
def test_cli_fuzz_exits_cleanly(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", os.path.join(tmp, "o")])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
