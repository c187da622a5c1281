import shutil
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from memcolor import _native, workloads
from memcolor.workloads import (ARCHETYPE_KINDS, PAGE_BYTES, ArchetypeParams,
                                Trace, TraceError, TraceRecord, canonical_params,
                                gen, mix, read_trace, write_trace)

needs_gcc = pytest.mark.skipif(shutil.which(_native.CC) is None,
                               reason=f"{_native.CC} not installed")


@pytest.fixture
def failed_build(monkeypatch, fresh_kernel):
    """The kernel's build fails, so callers run their Python code."""
    monkeypatch.setattr(_native, "CC", "/nonexistent/gcc")
    with pytest.warns(RuntimeWarning):
        assert _native.kernel() is None


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
    assert len(gen(p).pages(12).first) == p.working_set_pages


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
    assert [r.core for r in merged] == [0, 0, 0, 0, 0, 0]


def test_mix_projection_identity():
    a = [TraceRecord("A", 0, i * 64, "r") for i in range(7)]
    b = [TraceRecord("B", 0, i * 128, "r") for i in range(3)]
    merged = mix([a, b], k=2)
    assert [r.vaddr for r in merged if r.app == "A"] == [r.vaddr for r in a]
    assert [r.vaddr for r in merged if r.app == "B"] == [r.vaddr for r in b]


@pytest.mark.parametrize("k", [1, 3])
def test_mix_keeps_every_record_core(k):
    # A spans cores 0, 5 and 2; B and C share core 7 and stay on it
    a = [TraceRecord("A", (0, 5, 2)[i % 3], i * 64, "r") for i in range(7)]
    b = [TraceRecord("B", 7, i * 128, "w") for i in range(2)]
    c = [TraceRecord("C", 7, i * 256, "r") for i in range(5)]
    expected = []
    for start in range(0, 7, k):
        for t in (a, b, c):
            expected += t[start:start + k]
    assert mix([a, b, c], k=k) == expected


@pytest.mark.parametrize("k", [1, 3])
def test_mix_rewrites_cores_in_chunks(k):
    # A already sits on core 0; B and C arrive on core 7, Trace.on moves
    # them to 1 and 2, and mix interleaves them in chunks of k
    a = [TraceRecord("A", 0, i * 64, "r") for i in range(7)]
    b = [TraceRecord("B", 7, i * 128, "w") for i in range(2)]
    c = [TraceRecord("C", 7, i * 256, "r") for i in range(5)]
    expected = []
    for start in range(0, 7, k):
        for core, t in enumerate((a, b, c)):
            expected += [r._replace(core=core) for r in t[start:start + k]]
    placed = [Trace.of(t).on(t[0].app, core) for core, t in enumerate((a, b, c))]
    assert mix(placed, k=k) == expected


@pytest.mark.parametrize("k", [1, 3])
def test_mix_puts_traces_on_given_cores(k):
    a = Trace.of([TraceRecord("A", 0, i * 64, "r") for i in range(7)])
    b = Trace.of([TraceRecord("B", 2, i * 128, "w") for i in range(2)])
    merged = mix([a.on("A", 3), b.on("B", 2)], k=k)
    assert {(r.app, r.core) for r in merged} == {("A", 3), ("B", 2)}
    assert [r._replace(core=0) for r in merged] == mix([a.on("A", 0), b.on("B", 0)], k=k)
    assert mix([a.on("A", 5)]) == [r._replace(core=5) for r in a]


def test_mix_chunk_longer_than_every_trace():
    ts = [[TraceRecord(app, 0, i * 64, "r") for i in range(n)]
          for app, n in (("A", 7), ("B", 0), ("C", 3))]
    assert mix(ts, k=10**30) == mix(ts, k=max(map(len, ts))) == ts[0] + ts[2]
    assert mix([[]], k=10**30) == []


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
    assert len(trace.pages(12).first) == pages
    assert len(trace) == p.access_count


# --- Trace, the columnar trace, against the record lists it replaced ---------

def reference_gen(p):
    """`gen` built record by record, from the same random draws."""
    rng = np.random.default_rng(p.seed)
    per_page = PAGE_BYTES // p.stride
    order = rng.permutation(p.working_set_pages).tolist()
    n = p.access_count
    if p.reuse in ("none", "loop"):
        pass_len = p.working_set_pages * per_page
        vaddrs = [order[i % pass_len // per_page] * PAGE_BYTES + i % pass_len % per_page * p.stride
                  for i in range(n)]
    else:
        weights = np.arange(1, p.working_set_pages + 1, dtype=np.float64) ** -p.zipf_s
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        draws = np.searchsorted(cdf, rng.random(n - p.working_set_pages), side="right")
        offsets = rng.integers(0, per_page, size=n - p.working_set_pages)
        vaddrs = [page * PAGE_BYTES for page in order]
        vaddrs += [order[d] * PAGE_BYTES + o * p.stride
                   for d, o in zip(draws.tolist(), offsets.tolist())]
    return [TraceRecord(p.app, p.core, v, "r") for v in vaddrs]


def reference_mix(traces, k):
    """Round-robin interleave, k records of each trace per turn, every
    record keeping its core."""
    out = []
    for start in range(0, max(map(len, traces)), k):
        for t in traces:
            out += t[start:start + k]
    return out


def reference_write(records) -> bytes:
    return "".join(f"{r.app} {r.core} {r.vaddr:#x} {r.op}\n" for r in records).encode()


def reference_read(path):
    """The records of a trace file; a line that holds no fit record is a
    ValueError whose argument is the line's number."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].split()
            if parts:
                try:
                    app, core, vaddr, op = parts
                    record = TraceRecord(app, int(core), int(vaddr, 16), op)
                except ValueError:
                    raise ValueError(lineno) from None
                if op not in ("r", "w") or not -(1 << 63) <= record.core < 1 << 63 \
                        or not 0 <= record.vaddr < 1 << 64:
                    raise ValueError(lineno)
                records.append(record)
    return records


def assert_plain(records):
    for r in records:
        assert (type(r), type(r.app), type(r.core), type(r.vaddr), type(r.op)) == \
            (TraceRecord, str, int, int, str)


@pytest.mark.parametrize("params", [
    canonical_params("llcm", seed=5, app="M", core=2),
    ArchetypeParams("llch", 40, 5120, seed=6, app="H", core=1),
    ArchetypeParams("llct", 3000, 3000, reuse="none", stride=4096, seed=4),
    ArchetypeParams("ccf", 8, 6000, stride=512, seed=3),
], ids=lambda p: p.kind)
def test_gen_matches_record_reference(params):
    trace = gen(params)
    expected = reference_gen(params)
    assert isinstance(trace, Trace)
    assert trace == expected and list(trace) == expected
    assert_plain(trace)


records_st = st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), st.integers(0, 9),
                                st.integers(0, (1 << 64) - 1), st.sampled_from(["r", "w"])),
                      max_size=30).map(lambda rs: [TraceRecord(*r) for r in rs])


@given(traces=st.lists(records_st.filter(bool), min_size=1, max_size=4),
       k=st.sampled_from([1, 3]), columnar=st.lists(st.booleans(), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_mix_matches_record_reference(traces, k, columnar):
    inputs = [Trace.of(t) if c else t for t, c in zip(traces, columnar)]
    expected = reference_mix(traces, k)
    merged = mix(inputs, k=k)
    assert isinstance(merged, Trace)
    assert merged == expected
    assert merged.apps == tuple(dict.fromkeys(r.app for r in expected))


@given(records=records_st, data=st.data())
@settings(max_examples=100, deadline=None)
def test_write_read_match_record_reference(tmp_path_factory, records, data):
    path = tmp_path_factory.mktemp("t") / "t.trace"
    write_trace(records, path)
    assert path.read_bytes() == reference_write(records)
    # the same records among comments, blank lines and odd spacing
    lines = []
    for r in records:
        lines += data.draw(st.lists(st.sampled_from(["", "   ", "# note", "\t# x 1 0x0 r"]),
                                    max_size=2))
        sep = data.draw(st.sampled_from([" ", "  ", "\t"]))
        tail = data.draw(st.sampled_from(["", " ", " # trailing", "#tight"]))
        lines.append(sep.join([r.app, str(r.core), hex(r.vaddr), r.op]) + tail)
    path.write_text("\n".join(lines) + data.draw(st.sampled_from(["", "\n"])))
    trace = read_trace(path)
    assert trace == reference_read(path) == records
    assert_plain(trace)
    write_trace(trace, path)
    assert path.read_bytes() == reference_write(records)


# --- the native reader against the per-line parser and the reference --------

def with_underscore(digits, draw):
    if len(digits) < 2:
        return digits
    at = draw(st.integers(1, len(digits) - 1))
    return digits[:at] + "_" + digits[at:]


@st.composite
def odd_core(draw, core):
    form = draw(st.sampled_from(["zeros", "long", "sign", "underscore", "wide"]))
    if form == "zeros":
        return "00" + str(core)
    if form == "long":                  # 19+ digits, led by zeros
        return str(core).zfill(draw(st.integers(19, 24)))
    if form == "sign":
        return draw(st.sampled_from(["+", "-"])) + str(core)
    if form == "underscore":
        return with_underscore(str(core), draw)
    return str(draw(st.integers(10 ** 18, 10 ** 19 - 1)))     # 19 digits, in range or not


@st.composite
def odd_vaddr(draw, vaddr):
    digits = f"{vaddr:x}"
    form = draw(st.sampled_from(["0X", "upper", "bare", "sign", "underscore", "zeros",
                                 "long"]))
    if form == "0X":
        return "0X" + digits
    if form == "upper":
        return "0x" + digits.upper()
    if form == "bare":
        return digits.zfill(draw(st.integers(1, 20)))
    if form == "sign":
        return draw(st.sampled_from(["+", "-"])) + "0x" + digits
    if form == "underscore":
        return "0x" + with_underscore(digits, draw)
    if form == "zeros":
        return "0x00" + digits
    return "0x" + digits.zfill(draw(st.integers(17, 20)))     # 17+ digits, led by zeros


# Each odd feature a file may have, with the forms it draws from; a file
# with none is canonical.
SEPARATORS = [" ", "  ", "\t", " \t", "\x1c", "\x1d", "\x1e", "\x1f"]
BLANK_LINES = ["", "   ", "\t", "\x1f "]
COMMENT_LINES = ["# note", "#A 0 0x1 r", "\t# x 1 0x0 r", "  # A 0 0x40 r"]
FAULTS = ["R", "x", "rw", "drop", "extra", "join"]
FEATURES = ("names", "cores", "addresses", "spacing", "comments", "newlines", "faults")


@st.composite
def trace_texts(draw):
    """A trace file's text: records, and for each feature drawn, its odd
    forms now and then: non-ASCII names, cores or addresses in forms `int`
    reads (or rejects), other whitespace and blank lines, comments, '\r\n'
    or '\r' newlines, malformed lines."""
    odd = draw(st.sets(st.sampled_from(FEATURES), max_size=3))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        app = draw(st.sampled_from(["A", "B", "app.7", "Z"] + (
            ["\u00e9t\u00e9", "\u65e5"] if "names" in odd else [])))
        core = draw(st.one_of(st.integers(0, 9), st.integers(0, (1 << 63) - 1)))
        vaddr = draw(st.one_of(st.integers(0, 1 << 20), st.integers(0, (1 << 64) - 1)))
        fields = [app, str(core), hex(vaddr), draw(st.sampled_from(["r", "w"]))]
        if "cores" in odd and draw(st.integers(0, 2)) == 0:
            fields[1] = draw(odd_core(core))
        if "addresses" in odd and draw(st.integers(0, 2)) == 0:
            fields[2] = draw(odd_vaddr(vaddr))
        if "faults" in odd and draw(st.integers(0, 7)) == 0:
            fault = draw(st.sampled_from(FAULTS))
            if fault == "drop":
                del fields[draw(st.integers(0, 3))]
            elif fault == "extra":
                fields.append("r")
            elif fault == "join":           # two records on one line
                fields += fields
            else:
                fields[3] = fault
        sep, tail = " ", ""
        if "spacing" in odd:
            sep = draw(st.sampled_from(SEPARATORS))
            tail = draw(st.sampled_from(["", " ", "\t"]))
            lines += draw(st.lists(st.sampled_from(BLANK_LINES), max_size=1))
        if "comments" in odd:
            tail += draw(st.sampled_from(["", " # trailing", "#tight"]))
            lines += draw(st.lists(st.sampled_from(COMMENT_LINES), max_size=1))
        lines.append(sep.join(fields) + tail)
    ends = ["\n", "\r\n", "\r"] if "newlines" in odd else ["\n"]
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    return text[:-1] if draw(st.booleans()) else text      # no final newline


# Files one step from canonical, whose step the native reader must see.
ONE_STEP_FROM_CANONICAL = [
    "A 0 0x40 x\n",
    "A 0 0x40 r\nA 0 0x40 r A 0 0x80 w\n",
    "A 0 0x40 r A\n0 0x80 w\n",
    "A 0 0x40\nr\n",
    "A 0 0X40 r\nA 0 00d40 r\nA 0 0x4_0 r\n",
    "A 0 0d40 r\n",
    "A 0 1x40 r\n",
    "A 0 0x r\n",
    "A 0 0x10000000000000000 r\n",
    "A 0 0x40 r\n#A 0 0x1 r\nA#B 0 0x40 r\n",
    "A 0 0x0000000000000000ff r\nA 0000000000000000000009 0x0 r\n",
    "A 9999999999999999999 0x40 r\n",
    "A 0 0x40 r#\n",
    "A 0 0x40 r\r\nB 1 0x80 w\n",
    "# x\rA 0 0x40 r\n",
]


def trace_text_cases(test):
    """Run `test` on the files above and on `trace_texts()`."""
    for text in reversed(ONE_STEP_FROM_CANONICAL):
        test = example(text=text)(test)
    return given(text=trace_texts())(test)


def check_read_trace(path, text):
    """`read_trace` of `text` gives the per-line parser's trace or error and
    the reference's records."""
    path.write_bytes(text.encode())
    outcomes = []
    for parse in (read_trace, lambda p: workloads._parse_lines(p, p.read_bytes())):
        try:
            outcomes.append(parse(path))
        except TraceError as exc:
            outcomes.append(str(exc))
    fast, lines = outcomes
    assert type(fast) is type(lines) and fast == lines
    try:
        records = reference_read(path)
    except ValueError as exc:
        assert isinstance(fast, str) and fast.startswith(f"{path}:{exc.args[0]}: ")
    else:
        assert fast == records
        assert fast.apps == lines.apps == tuple(dict.fromkeys(r.app for r in records))
        assert_plain(fast)


@trace_text_cases
@settings(max_examples=300, deadline=None)
def test_read_trace_matches_line_parser_and_reference(tmp_path_factory, text):
    check_read_trace(tmp_path_factory.mktemp("t") / "t.trace", text)


@trace_text_cases
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_trace_without_the_kernel_matches_reference(tmp_path_factory, failed_build,
                                                         text):
    check_read_trace(tmp_path_factory.mktemp("t") / "t.trace", text)


@pytest.mark.parametrize("records", [
    gen(canonical_params("ccf", seed=1)), gen(canonical_params("llct", seed=2)),
    gen(canonical_params("llcm", seed=3)), gen(canonical_params("llch", seed=4)),
    mix([gen(ArchetypeParams("llch", 16, 2048, seed=5, app="H1", core=7)),
         gen(ArchetypeParams("ccf", 4, 700, seed=6, app="c", core=0)),
         [TraceRecord("long-app-name", 99, (1 << 64) - 1, "w"),
          TraceRecord("A", 99, 0, "r")]], k=3),
    [], [TraceRecord("A", 10 ** 18 - 1, (1 << 64) - 1, "w")]])
@needs_gcc
def test_canonical_files_take_the_vectorized_path(tmp_path, monkeypatch, records):
    """The native reader reads what the native writer writes, across its
    chunks, without the per-line parser."""
    def refuse(path, data):
        raise AssertionError(f"{path} went to the per-line parser")
    monkeypatch.setattr(workloads, "_parse_lines", refuse)
    path = tmp_path / "t.trace"
    write_trace(records, path)
    assert path.read_bytes() == reference_write(records)
    trace = read_trace(path)
    assert trace == records and trace.apps == Trace.of(records).apps
    # the same file without its final newline
    path.write_bytes(path.read_bytes()[:-1])
    assert read_trace(path) == records


# (text, records) of files in the canonical form among empty and comment
# lines
PLAIN_FILES = {
    "comment": ("# header\nA 0 0x40 r\n", [("A", 0, 0x40, "r")]),
    "comment-lines": ("\n#\tnote \x1c\n\nA 0 0x40 r\n#A 0 0x1 r\n\n\nB 1 0x80 w\n#",
                      [("A", 0, 0x40, "r"), ("B", 1, 0x80, "w")]),
    "limits": ("~x 9223372036854775807 0xffffffffffffffff w\n",
               [("~x", (1 << 63) - 1, (1 << 64) - 1, "w")]),
    "names": ("".join(f"A{i % 9} 0 0x40 r\nA{i} 1 0x80 w\n"
                      for i in range(workloads.NATIVE_NAMES)),
              [r for i in range(workloads.NATIVE_NAMES)
               for r in [(f"A{i % 9}", 0, 0x40, "r"), (f"A{i}", 1, 0x80, "w")]]),
}
# files the native reader leaves to the per-line parser: not ASCII, other
# whitespace or line ends, a trailing comment, another number form, a sign
# or '_', an out-of-range number, a malformed line, too many app names
NOT_HANDLED = {
    "name": "\u00e9t\u00e9 0 0x40 r\n", "comment": "A 0 0x40 r # \u00e9t\u00e9\n",
    "nbsp": "A 0 0x40 r\u00a0\n", "plus": "A +1 0x40 r\n", "minus": "A -1 0x40 r\n",
    "negative": "A 0 -0x40 r\n", "core_": "A 1_0 0x40 r\n", "vaddr_": "A 0 0x_40 r\n",
    "core-range": "A 9223372036854775808 0x40 r\n",
    "vaddr-range": "A 0 0x10000000000000000 r\n", "prefix-only": "A 0 0x r\n",
    "op": "A 0 0x40 R\n", "three-fields": "A 0 0x40\n", "five-fields": "A 0 0x40 r r\n",
    "names": "".join(f"A{i} 0 0x40 r\n" for i in range(workloads.NATIVE_NAMES + 1)),
    "whitespace": "A\t0 \x1c0x40\x1dr\x1e\x1f\v\f\n\n  \t\n",
    "line-ends": "A 0 0x40 r\r\nB 1 0x80 w\rC 2 0xc0 r",
    "comments": "A 0 0X4f r #x 1 0x0 r\n#A 0 0x40 w\nA 0 0x40 r#\n",
    "digits": "A 0009 ffFF r\nA 0 00000000000000000000000001 w\n",
    "nul-name": "\x00x 9223372036854775807 0xffffffffffffffff w\n",
}


@needs_gcc
@pytest.mark.parametrize("text,records", PLAIN_FILES.values(), ids=PLAIN_FILES)
def test_plain_ascii_files_take_the_native_path(tmp_path, monkeypatch, text, records):
    def refuse(path, data):
        raise AssertionError(f"{path} went to the per-line parser")
    monkeypatch.setattr(workloads, "_parse_lines", refuse)
    path = tmp_path / "t.trace"
    path.write_bytes(text.encode())
    trace = read_trace(path)
    assert trace == [TraceRecord(*r) for r in records]
    assert trace.apps == tuple(dict.fromkeys(r[0] for r in records))


@needs_gcc
@pytest.mark.parametrize("text", NOT_HANDLED.values(), ids=NOT_HANDLED)
def test_other_files_take_the_line_parser(tmp_path, monkeypatch, text):
    calls = []
    parse_lines = workloads._parse_lines
    monkeypatch.setattr(workloads, "_parse_lines",
                        lambda path, data: calls.append(path) or parse_lines(path, data))
    path = tmp_path / "t.trace"
    path.write_bytes(text.encode())
    try:
        outcome = read_trace(path)
    except TraceError as exc:
        outcome = str(exc)
    assert calls == [path]
    try:
        assert outcome == reference_read(path)
    except ValueError as exc:
        assert outcome.startswith(f"{path}:{exc.args[0]}: ")


# App names with '%' and letters outside ASCII, on cores of up to 19 digits
# and either sign, at addresses from 0 to 2^64 - 1.
names_st = st.lists(st.sampled_from(["A", "50%", "%s%%", "x%x", "\u00e9t\u00e9", "\u65e5"]),
                    min_size=1, max_size=3, unique=True)
cores_st = st.lists(st.one_of(st.integers(-(1 << 63), (1 << 63) - 1),
                              st.sampled_from([0, -1, -(1 << 63), (1 << 63) - 1, 10 ** 18])),
                    min_size=1, max_size=3, unique=True)
vaddr_st = st.one_of(st.sampled_from([0, 1, 0xf, 0x10, (1 << 64) - 1]),
                     st.integers(0, (1 << 64) - 1))


@given(names=names_st, cores=cores_st, data=st.data())
@settings(max_examples=150, deadline=None)
def test_native_writer_matches_python_writer(tmp_path_factory, names, cores, data):
    records = [TraceRecord(*r) for r in data.draw(st.lists(st.tuples(
        st.sampled_from(names), st.sampled_from(cores), vaddr_st, st.sampled_from("rw")),
        max_size=40))]
    path = tmp_path_factory.mktemp("t") / "t.trace"
    write_trace(records, path)
    native = path.read_bytes()
    with mock.patch.object(_native, "kernel", lambda: None):
        write_trace(records, path)
    assert native == path.read_bytes() == reference_write(records)
    assert read_trace(path) == records


def test_trace_on_empty_trace_names_the_app():
    with pytest.raises(TraceError) as err:
        Trace.of([]).on("A", 0)
    assert str(err.value) == "no records for app 'A'"


def test_trace_columns():
    records = [TraceRecord("B", 3, 0x5040, "w"), TraceRecord("A", 1, 0x1000, "r"),
               TraceRecord("B", 3, 0x5080, "r")]
    trace = Trace.of(records)
    assert Trace.of(trace) is trace
    assert trace.apps == ("B", "A")
    assert trace.app.tolist() == [0, 1, 0]
    assert (trace.app.dtype, trace.core.dtype, trace.vaddr.dtype, trace.write.dtype) == \
        (np.int32, np.int64, np.uint64, np.bool_)
    for column in (trace.app, trace.core, trace.vaddr, trace.write):
        with pytest.raises(ValueError):
            column[0] = 0
    assert len(trace) == 3 and trace[1] == records[1] and trace[-1] == records[-1]
    assert_plain([trace[0]])
    # a slice is a Trace, its apps renumbered by first appearance
    tail = trace[1:]
    assert isinstance(tail, Trace) and tail.apps == ("A", "B") and tail == records[1:]
    assert trace[:0] == [] and trace[:0].apps == ()
    assert trace != records[:2] and trace != Trace.of(records[:2])
    assert trace.on("Z", 2) == [r._replace(app="Z", core=2) for r in records]
    assert trace.on("Z", 2).vaddr is trace.vaddr
    single = trace.on("Z", 2)
    assert single.on("Z", 2) is single


def test_trace_numbering_is_kept_per_shift():
    records = [TraceRecord(app, 0, vaddr, "r") for app, vaddr in [
        ("A", 0x3000), ("B", 0x3000), ("A", 0x3fff), ("A", 0x1000), ("B", 0x2000)]]
    trace = Trace.of(records)
    pages = trace.pages(12)
    assert trace.pages(12) is pages
    assert pages.of.tolist() == [0, 1, 0, 2, 3]
    assert pages.first.tolist() == [0, 1, 3, 4]
    assert pages.vpn.tolist() == [3, 3, 1, 2]
    assert not pages.of.flags.writeable
    assert trace.pages(13).of.tolist() == [0, 1, 0, 2, 1]
    assert trace.pages(14).of.tolist() == [0, 1, 0, 0, 1]
    assert trace.cores() == trace.cores() and trace.cores()[0] == (0,)


def test_trace_of_rejects_unfit_records():
    good = TraceRecord("A", 0, 0x40, "r")
    for bad, message in [(good._replace(op="x"), "record 1: unknown op 'x'"),
                         (good._replace(vaddr=-4096), "record 1: address -0x1000 outside"),
                         (good._replace(vaddr=1 << 64), "record 1: address 0x10000000000000000"),
                         (good._replace(core=1 << 63), "record 1: core 9223372036854775808")]:
        with pytest.raises(TraceError, match=message):
            Trace.of([good, bad])


@pytest.mark.parametrize("vaddr", ["-0x1000", "0x10000000000000000"])
def test_trace_address_outside_64_bits(tmp_path, vaddr):
    p = tmp_path / "bad.trace"
    p.write_text(f"A 0 0x40 r\n# fine\nA 0 {vaddr} r\nA 0 zzzz r\n")
    with pytest.raises(TraceError) as err:
        read_trace(p)
    assert str(err.value) == f"{p}:3: address {int(vaddr, 16):#x} outside [0, 2^64)"
    p.write_text(f"A 0 0x{(1 << 64) - 1:x} r\n")
    assert read_trace(p)[0].vaddr == (1 << 64) - 1


def test_trace_first_bad_line_wins(tmp_path):
    p = tmp_path / "bad.trace"
    p.write_text("A 0 0x40 r\nA x -0x1 q\nA 0 -0x1 r\n")
    with pytest.raises(TraceError, match=r":2: unknown op 'q'"):
        read_trace(p)
    p.write_text("A 0 0x40 r\nA 99999999999999999999 0x0 r\n")
    with pytest.raises(TraceError, match=r":2: core 99999999999999999999 outside"):
        read_trace(p)
    p.write_text("")
    assert read_trace(p) == [] and len(read_trace(p).pages(12).first) == 0


# --- first-appearance numbering, against a dict ------------------------------

def reference_numbering(values):
    """(each distinct value's first position, each value's number), in order
    of first appearance."""
    number, first = {}, []
    for i, v in enumerate(values):
        if v not in number:
            number[v] = len(first)
            first.append(i)
    return first, [number[v] for v in values]


def check_numbering(records, shift, start, stop):
    trace = Trace.of(records)
    first, of = reference_numbering([(r.app, r.vaddr >> shift) for r in records])
    pages = trace.pages(shift)
    assert (pages.of.dtype, pages.first.dtype, pages.vpn.dtype) == (np.int32, np.int64, np.uint64)
    assert pages.of.tolist() == of and pages.first.tolist() == first
    assert pages.vpn.tolist() == [records[i].vaddr >> shift for i in first]
    first, of = reference_numbering([r.core for r in records])
    cores, core_of = trace.cores()
    assert cores == tuple(records[i].core for i in first) and core_of.tolist() == of
    part = trace[start:stop]
    first, of = reference_numbering([r.app for r in records[start:stop]])
    assert part.apps == tuple(records[start + i].app for i in first)
    assert part.app.tolist() == of and part == records[start:stop]


# Addresses come from a small pool, so (app, page) keys repeat many times in
# traces long enough that numpy's sort is not stable.  Each low part appears
# under each base; bases at 2^62 or above make vpn * apps overflow 64 bits at
# shift 0, where with 2 (4) apps v + 2^63 (v + 2^62) would wrap onto v.
@given(bases=st.lists(st.sampled_from([0, 1 << 62, 1 << 63, (1 << 64) - (1 << 16)]),
                      min_size=1, max_size=4, unique=True),
       lows=st.lists(st.sampled_from([0, 0x40, 0x1000, 0xffff]), min_size=1, max_size=4,
                     unique=True),
       apps=st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True),
       shift=st.sampled_from([0, 6, 12]), n=st.integers(0, 300),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
@settings(max_examples=150, deadline=None)
def test_numbering_matches_dict_reference(bases, lows, apps, shift, n, seed, data):
    pool = [base + low for base in bases for low in lows]
    rng = np.random.default_rng(seed)
    records = [TraceRecord(apps[a], [0, 5, -2, 1 << 40][c], pool[v], "rw"[w])
               for a, c, v, w in zip(*(rng.integers(0, k, n).tolist()
                                       for k in (len(apps), 4, len(pool), 2)))]
    start, stop = sorted(data.draw(st.integers(0, len(records))) for _ in range(2))
    check_numbering(records, shift, start, stop)


def check_app_numbering(trace, names, column):
    """`trace`'s apps and app column are those `_numbering` gives `column`,
    a column indexing `names`."""
    key = np.array(column, dtype=np.int32)
    first, number = workloads._numbering(key)
    assert trace.apps == tuple(names[i] for i in key[first].tolist())
    assert trace.app.dtype == np.int32 and trace.app.tolist() == number.tolist()
    assert not trace.app.flags.writeable


@given(column=st.lists(st.integers(-1, 5), max_size=40), numbered=st.booleans(),
       unused=st.integers(0, 2),
       part=st.builds(slice, st.integers(0, 40), st.integers(0, 40), st.integers(1, 3)))
@example(column=[0, -1], numbered=False, unused=0, part=slice(1, 2, 1))
@example(column=[0, 1, 0, -1, 2], numbered=False, unused=0, part=slice(0, 5, 2))
@settings(max_examples=200, deadline=None)
def test_trace_app_column_as_numbering_gives(column, numbered, unused, part):
    # every column is numbered in first-appearance order, one numbered so
    # already included, and unused names are dropped
    if numbered:
        column = reference_numbering(column)[1]
    names = tuple("ABCDEFGH"[:max([0, *column]) + 1 + unused])
    n = len(column)
    trace = Trace(names, np.array(column, dtype=np.int32), np.zeros(n), np.zeros(n),
                  np.zeros(n))
    check_app_numbering(trace, names, column)
    check_app_numbering(trace[part], trace.apps, trace.app[part])


def test_numbering_overflow_key():
    # two apps at shift 0 with vpns v, 2^63 + v and 2^64 - 4 + v: the vpns
    # are numbered first, since vpn * 2 + app would wrap or overflow
    rng = np.random.default_rng(0)
    bases = [0, 1 << 63, (1 << 64) - 4]
    records = [TraceRecord("AB"[a], int(c), bases[b] + int(v), "r")
               for a, c, b, v in zip(rng.integers(0, 2, 400), rng.integers(0, 3, 400),
                                     rng.integers(0, 3, 400), rng.integers(0, 4, 400))]
    check_numbering(records, 0, 17, 333)
    assert len(Trace.of(records).pages(0).first) == 24


# --- the kernel's numbering against the sort ---------------------------------

MULTIPLIER_INVERSE = pow(0x9E3779B97F4A7C15, -1, 1 << 64)


def same_slot(count, last=False):
    """`count` keys whose Fibonacci hashes, key * 0x9E3779B97F4A7C15 mod 2^64,
    are the `count` smallest (largest) 64-bit values: in any table of up to
    2^40 slots they all land in the first (last) slot."""
    return [MULTIPLIER_INVERSE * (-1 - j if last else j) % (1 << 64) for j in range(count)]


numbering_keys = st.one_of(
    st.lists(st.sampled_from([0, 1, 7, 1 << 63, (1 << 64) - 1, *same_slot(5),
                              *same_slot(5, last=True)]), max_size=80).map(
        lambda v: np.array(v, dtype=np.uint64)),
    st.lists(st.integers(-(1 << 63), (1 << 63) - 1), max_size=40).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.sampled_from([-(1 << 31), -2, -1, 0, 1, (1 << 31) - 1]), max_size=60).map(
        lambda v: np.array(v, dtype=np.int32)))


def check_numbering_against_sort(key):
    first, number = workloads._numbering(key)
    expected = workloads._sort_numbering(key)
    assert (first.dtype, number.dtype) == (np.int64, np.int32)
    assert first.tolist() == expected[0].tolist() and number.tolist() == expected[1].tolist()
    assert (first.tolist(), number.tolist()) == reference_numbering(key.tolist())


def numbering_examples(test):
    """No key, one key, all equal, all distinct, and 0 and 2^64 - 1."""
    for values in ([], [5], [9] * 50, range(50), [0, (1 << 64) - 1, 0, (1 << 64) - 1]):
        test = example(key=np.array(values, dtype=np.uint64))(test)
    return test


@needs_gcc
@numbering_examples
@given(key=numbering_keys)
@settings(max_examples=300, deadline=None)
def test_native_numbering_matches_sort(key):
    assert _native.kernel() is not None
    check_numbering_against_sort(key)


@numbering_examples
@given(key=numbering_keys)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_numbering_without_the_kernel_matches_reference(failed_build, key):
    check_numbering_against_sort(key)


def test_one_value_column_is_numbered_without_a_table():
    # a one-app column of 60k records: 16 bytes a record for the new
    # trace's app, core and numbered app columns, not another hash table
    # of 2^17 int32 slots and 60k int64 first positions
    n = 60_000
    for value in (0, 5, (1 << 64) - 1):
        check_numbering_against_sort(np.full(n, value, dtype=np.uint64))
    trace = Trace(("a", "b"), np.arange(n) % 2, np.zeros(n), np.arange(n, dtype=np.uint64),
                  np.zeros(n, dtype=bool))
    tracemalloc.start()
    try:
        trace.on("x", 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 2**20


@needs_gcc
@pytest.mark.parametrize("last", [False, True])
def test_keys_in_one_slot_past_the_probe_budget_are_sorted(last):
    # 8 keys in one slot, each seen 3 times, cost 84 probes past their slot,
    # within the budget of 8 per key; 100 keys in one slot cost 4,950
    assert _native.kernel() is not None
    few = np.array(same_slot(8, last) * 3, dtype=np.uint64)
    many = np.array(same_slot(100, last) * 2, dtype=np.uint64)
    with mock.patch.object(workloads, "_sort_numbering",
                           wraps=workloads._sort_numbering) as sort:
        check_numbering_against_sort(few)
        assert sort.call_count == 1             # the reference's own call
        check_numbering_against_sort(many)
        assert sort.call_count == 3


def test_write_trace_rejects_unreadable_app_names(tmp_path):
    p = tmp_path / "t.trace"
    for app in ["a b", "x#y", "", "tab\there", "line\nbreak"]:
        with pytest.raises(TraceError) as err:
            write_trace([TraceRecord("A", 0, 0x40, "r"), TraceRecord(app, 1, 0x80, "w")], p)
        assert str(err.value) == (f"app name {app!r} cannot be written to a trace file: "
                                  f"it must be one token without whitespace or '#'")
        assert not p.exists()
    records = [TraceRecord("50%", 0, 0x40, "r"), TraceRecord("a,b:c", 1, 0x80, "w")]
    write_trace(records, p)
    assert read_trace(p) == records
