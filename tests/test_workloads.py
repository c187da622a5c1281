import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memcolor.workloads import (ARCHETYPE_KINDS, PAGE_BYTES, ArchetypeParams,
                                TraceError, TraceRecord, canonical_params,
                                footprint_pages, gen, mix, read_trace,
                                write_trace)


def test_ccf_loop_revisits():
    trace = gen(ArchetypeParams("ccf", 8, 10_000, reuse="loop", stride=4096))
    counts = {}
    for r in trace:
        counts[r.vaddr // PAGE_BYTES] = counts.get(r.vaddr // PAGE_BYTES, 0) + 1
    assert len(counts) == 8
    assert all(c >= 1000 for c in counts.values())


def test_llct_stream_no_page_twice():
    trace = gen(ArchetypeParams("llct", 5000, 5000, reuse="none", stride=4096))
    pages = [r.vaddr // PAGE_BYTES for r in trace]
    assert len(pages) == len(set(pages)) == 5000


def test_generation_deterministic():
    p = canonical_params("llcm", seed=3)
    assert gen(p) == gen(p)
    assert gen(p) != gen(canonical_params("llcm", seed=4))


@pytest.mark.parametrize("kind", ARCHETYPE_KINDS)
def test_footprint_exactness(kind):
    p = canonical_params(kind, seed=2)
    assert footprint_pages(gen(p)) == p.working_set_pages


def test_undersized_access_count_rejected():
    with pytest.raises(TraceError):
        gen(ArchetypeParams("llct", 1000, 10, reuse="none", stride=4096))


def test_mix_single_trace_unchanged():
    t = gen(ArchetypeParams("ccf", 4, 1000, reuse="loop", stride=4096))
    assert mix([t]) == t


def test_mix_strict_alternation():
    a = [TraceRecord("A", 0, i * 64, "r") for i in range(3)]
    b = [TraceRecord("B", 0, i * 64, "r") for i in range(3)]
    merged = mix([a, b], k=1)
    assert [r.app for r in merged] == ["A", "B", "A", "B", "A", "B"]
    assert [r.core for r in merged] == [0, 1, 0, 1, 0, 1]


def test_mix_projection_identity():
    a = [TraceRecord("A", 0, i * 64, "r") for i in range(7)]
    b = [TraceRecord("B", 0, i * 128, "r") for i in range(3)]
    merged = mix([a, b], k=2)
    assert [r.vaddr for r in merged if r.app == "A"] == [r.vaddr for r in a]
    assert [r.vaddr for r in merged if r.app == "B"] == [r.vaddr for r in b]


@pytest.mark.parametrize("k", [1, 3])
def test_mix_rewrites_cores_in_chunks(k):
    # A already sits on core 0; B and C arrive on core 7 and move to 1 and 2
    a = [TraceRecord("A", 0, i * 64, "r") for i in range(7)]
    b = [TraceRecord("B", 7, i * 128, "w") for i in range(2)]
    c = [TraceRecord("C", 7, i * 256, "r") for i in range(5)]
    expected = []
    for start in range(0, 7, k):
        for core, t in enumerate((a, b, c)):
            expected += [r._replace(core=core) for r in t[start:start + k]]
    assert mix([a, b, c], k=k) == expected


@pytest.mark.parametrize("k", [1, 3])
def test_mix_puts_traces_on_given_cores(k):
    a = [TraceRecord("A", 0, i * 64, "r") for i in range(7)]
    b = [TraceRecord("B", 2, i * 128, "w") for i in range(2)]
    merged = mix([a, b], k=k, cores=[3, 2])
    assert {(r.app, r.core) for r in merged} == {("A", 3), ("B", 2)}
    assert [r._replace(core=0) for r in merged] == mix([a, b], k=k, cores=[0, 0])
    assert mix([a], cores=[5]) == [r._replace(core=5) for r in a]
    with pytest.raises(TraceError, match="1 cores for 2 traces"):
        mix([a, b], cores=[1])


def test_mix_too_many_apps():
    traces = [[TraceRecord(str(i), 0, 0, "r")] for i in range(5)]
    with pytest.raises(TraceError):
        mix(traces, core_count=4)


def test_trace_round_trip(tmp_path):
    p = tmp_path / "t.trace"
    trace = gen(canonical_params("ccf", seed=1))[:500]
    write_trace(trace, p)
    assert read_trace(p) == trace
    # canonical form is byte-stable
    first = p.read_bytes()
    write_trace(read_trace(p), p)
    assert p.read_bytes() == first


def test_trace_line_format(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("# comment\nA 0 0x1f40 r\n")
    assert read_trace(p) == [TraceRecord("A", 0, 0x1F40, "r")]


def test_trace_comments_and_blank_lines(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("# header\n\n   \nA 0 0x40 r  # trailing\n\t B 1 0x80 w\t\n"
                 "#A 0 0x1 r\n  # indented comment\nC 2 0xc0 r#tight\n\nA 0 zzzz r\n")
    with pytest.raises(TraceError, match=r"t\.trace:10: invalid literal"):
        read_trace(p)
    p.write_text("\n".join(p.read_text().splitlines()[:-1] + ["A 0 0x100 r"]))
    trace = read_trace(p)
    assert trace == [TraceRecord("A", 0, 0x40, "r"), TraceRecord("B", 1, 0x80, "w"),
                     TraceRecord("C", 2, 0xC0, "r"), TraceRecord("A", 0, 0x100, "r")]
    assert trace[0].app is trace[3].app         # one string per app name


def test_trace_field_count_error_text(tmp_path):
    p = tmp_path / "bad.trace"
    p.write_text("# one\nA 0 0x40 r # fine\nA 0 0x40 # three\n")
    with pytest.raises(TraceError) as err:
        read_trace(p)
    assert str(err.value) == f"{p}:3: expected 4 fields, got 3"


def test_trace_parse_error_has_line_number(tmp_path):
    p = tmp_path / "bad.trace"
    p.write_text("A 0 0x40 r\nA 0 zzzz r\n")
    with pytest.raises(TraceError, match=":2"):
        read_trace(p)


def test_trace_unknown_op(tmp_path):
    p = tmp_path / "bad.trace"
    p.write_text("A 0 0x40 x\n")
    with pytest.raises(TraceError, match="op"):
        read_trace(p)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=30, deadline=None)
def test_loop_footprint_property(pages, seed):
    p = ArchetypeParams("ccf", pages, pages * 2 + 64, reuse="loop",
                        stride=4096, seed=seed)
    trace = gen(p)
    assert footprint_pages(trace) == pages
    assert len(trace) == p.access_count
