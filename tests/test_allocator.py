import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memcolor import _native
from memcolor.allocator import AllocationError, Allocator, OutOfColorMemory
from memcolor.mapping import AddressMapping, page_color
from memcolor.policies import PolicyKind, custom_spec, policy_spec

M = AddressMapping()
AVP = policy_spec(PolicyKind.A_VP, M)
TOTAL = 1 << 21


def avp_alloc(total_pages=TOTAL, **kw):
    return Allocator(total_pages, AVP, M, **kw)


def csv_bytes(a, path):
    """The bytes of `a`'s alloc.csv, written to `path`."""
    a.write_alloc_csv(path)
    return path.read_bytes()


def test_init_balanced_pools():
    a = avp_alloc()
    assert a.free_by_color() == [1 << 19] * 4
    assert a.free_frames == TOTAL


def test_init_single_pool_interleaving():
    a = Allocator(TOTAL, policy_spec(PolicyKind.INTERLEAVE, M), M)
    assert a.free_by_color() == [TOTAL]


def test_toy_memory_color_layout():
    # avp colors come from address bits {14,15} = pfn bits {2,3}
    a = avp_alloc(total_pages=16)
    expected = [page_color(pfn, AVP.color_bits, M) for pfn in range(16)]
    assert expected == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
    assert a.free_by_color() == [4, 4, 4, 4]


def test_single_color_quota():
    a = avp_alloc()
    a.assign_quota("A", {0})
    frames = [a.touch("A", vpn) for vpn in range(3)]
    assert all(page_color(f, AVP.color_bits, M) == 0 for f in frames)


def test_round_robin_over_quota_colors():
    a = avp_alloc()
    a.assign_quota("A", {0, 1})
    colors = [page_color(a.touch("A", vpn), AVP.color_bits, M) for vpn in range(4)]
    assert colors == [0, 1, 0, 1]


def test_unknown_color_rejected():
    a = avp_alloc()
    with pytest.raises(AllocationError):
        a.assign_quota("A", {5})
    with pytest.raises(AllocationError):
        a.assign_quota("A", set())


def test_touch_idempotent():
    a = avp_alloc()
    a.assign_quota("A", {2})
    assert a.touch("A", 7) == a.touch("A", 7)


def test_touch_numpy_vpns_above_32_bits():
    a = avp_alloc()
    a.assign_quota("A", {2})
    vpns = [1 << 40, (1 << 40) + (1 << 33)]
    frames = [a.touch("A", np.uint64(v)) for v in vpns]
    assert frames[0] != frames[1]
    assert [a.touch("A", v) for v in vpns] == frames
    assert a.allocated_frames == 2


def test_quota_color_respected():
    a = avp_alloc()
    a.assign_quota("A", {2})
    assert page_color(a.touch("A", 0), AVP.color_bits, M) == 2


def test_strict_quota_out_of_memory():
    a = avp_alloc(total_pages=16)
    a.assign_quota("A", {1})
    for vpn in range(4):
        a.touch("A", vpn)
    with pytest.raises(OutOfColorMemory):
        a.touch("A", 99)
    assert a.free_frames == 12          # other colors untouched


def test_fallback_flag_crosses_colors():
    a = avp_alloc(total_pages=16, allow_fallback=True)
    a.assign_quota("A", {1})
    for vpn in range(5):
        a.touch("A", vpn)
    assert a.allocated_frames == 5


def test_access_bit_scan_and_clear():
    a = avp_alloc()
    a.assign_quota("A", {0})
    for vpn in range(5):
        a.touch("A", vpn)
    assert a.access_bit_scan_and_clear("A") == 5
    assert a.access_bit_scan_and_clear("A") == 0
    for vpn in range(10, 20):
        a.touch("A", vpn)
    a.access_bit_scan_and_clear("A")
    for vpn in (10, 12, 14):
        a.touch("A", vpn)
    assert a.access_bit_scan_and_clear("A") == 3


def test_conservation():
    a = avp_alloc(total_pages=64)
    a.assign_quota("A", {0, 1})
    a.assign_quota("B", {2, 3})
    seen = set()
    for vpn in range(20):
        for app in "AB":
            pfn = a.touch(app, vpn)
            assert pfn not in seen or vpn in range(20)  # idempotence aside
    assert a.free_frames + a.allocated_frames == 64


def test_isolation_disjoint_quotas_disjoint_groups():
    a = avp_alloc(total_pages=4096)
    a.assign_quota("A", {0, 1})
    a.assign_quota("B", {2, 3})
    pairs = {"A": set(), "B": set()}
    for vpn in range(200):
        for app in "AB":
            pfn = a.touch(app, vpn)
            color = page_color(pfn, AVP.color_bits, M)
            pairs[app].add(AVP.project(color))
            assert not pairs["A"] & pairs["B"]


def test_no_double_ownership():
    a = avp_alloc(total_pages=256)
    a.assign_quota("A", {0, 1, 2, 3})
    a.assign_quota("B", {0, 1, 2, 3})
    owned = set()
    for vpn in range(30):
        for app in "AB":
            pfn = a.touch(app, vpn)
            key = (app, vpn)
            assert pfn not in owned or key in owned
            owned.add(pfn)


def test_random_policy_deterministic():
    spec = policy_spec(PolicyKind.RANDOM, M)

    def run(seed):
        a = Allocator(4096, spec, M, seed=seed)
        a.register("A")
        return [a.touch("A", vpn) for vpn in range(64)]

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_quota_change_after_allocation_rejected():
    a = avp_alloc()
    a.assign_quota("A", {0})
    a.touch("A", 0)
    with pytest.raises(AllocationError):
        a.assign_quota("A", {1})


def test_alloc_log_csv(tmp_path):
    # one row per translation in first-touch order, across apps
    a = avp_alloc(total_pages=64)
    a.assign_quota("A", {0})
    a.assign_quota("B", {3})
    for app, vpn in [("A", 3), ("B", 9), ("A", 3), ("A", 4)]:
        a.touch(app, vpn)
    path = tmp_path / "alloc.csv"
    a.write_alloc_csv(path)
    assert path.read_text().splitlines() == [
        "app_id,vpn,pfn,color,llc_group,bank_group",
        "A,3,0,0,0,0", "B,9,12,3,3,3", "A,4,1,0,0,0"]


def test_alloc_csv_without_partitioning(tmp_path):
    a = Allocator(64, policy_spec(PolicyKind.INTERLEAVE, M), M)
    a.register("A")
    a.touch("A", 5)
    path = tmp_path / "alloc.csv"
    a.write_alloc_csv(path)
    assert path.read_text().splitlines()[1:] == ["A,5,0,-1,-1,-1"]


def test_random_free_by_color_counts_drawn_frames():
    a = Allocator(64, policy_spec(PolicyKind.RANDOM, M), M)
    a.register("A")
    for vpn in range(10):
        a.touch("A", vpn)
    assert a.free_frames == 54
    assert a.free_by_color() == [54]


@pytest.mark.parametrize("kind", [PolicyKind.BANK_ONLY, PolicyKind.A_VP,
                                  PolicyKind.B_VP, PolicyKind.C_VP])
@pytest.mark.parametrize("total", [1, 7, 2047, 5000])
def test_pools_hold_each_color_in_ascending_order(kind, total):
    spec = policy_spec(kind, M)
    a = Allocator(total, spec, M)
    colors = [page_color(pfn, spec.color_bits, M) for pfn in range(total)]
    for c, size in enumerate(a._size.tolist()):
        offsets = a._offsets[a._start[c]:a._start[c + 1]].tolist()
        pool = [j // len(offsets) * a._period + offsets[j % len(offsets)] for j in range(size)]
        assert pool == [p for p in range(total) if colors[p] == c]


@pytest.mark.parametrize("allow_fallback", [False, True])
@pytest.mark.parametrize("pages", [4, 5])
def test_translate_pages_matches_touch(pages, allow_fallback, tmp_path):
    # color 1 has 4 of the 16 frames: 4 pages fit in one batch, 5 do not
    def fresh():
        a = avp_alloc(total_pages=16, allow_fallback=allow_fallback)
        a.assign_quota("A", {1})
        a.assign_quota("B", {1, 2})
        return a

    apps = ["A", "B"] * pages
    vpns = [vpn for vpn in range(pages) for _ in "AB"]
    batched = fresh()
    frames, error = batched.translate_page_array(
        ["A", "B"], np.arange(2 * pages) % 2, np.array(vpns, dtype=np.uint64))
    reference = fresh()
    expected = []
    for app, vpn in zip(apps, vpns):
        try:
            expected.append(reference.touch(app, vpn))
        except OutOfColorMemory as exc:
            assert str(error) == str(exc)
            break
    else:
        assert error is None
    assert frames.tolist() == expected
    assert batched.page_tables == reference.page_tables
    assert csv_bytes(batched, tmp_path / "b.csv") == csv_bytes(reference, tmp_path / "r.csv")
    assert batched.free_by_color() == reference.free_by_color()
    assert batched._rr.tolist() == reference._rr.tolist()


def test_random_touch_draws_the_batch_stream():
    # touch's one-page draws take the frames of the batch's one array draw,
    # down to the last free frame
    spec = policy_spec(PolicyKind.RANDOM, M)
    batched, reference = Allocator(1000, spec, M, seed=3), Allocator(1000, spec, M, seed=3)
    batched.register("A")
    reference.register("A")
    frames, error = batched.translate_page_array(
        ["A"], np.zeros(1000, dtype=np.int32), np.arange(1000, dtype=np.uint64))
    assert error is None and frames.tolist() == [reference.touch("A", v) for v in range(1000)]
    assert sorted(frames.tolist()) == list(range(1000))


def free_list(a):
    """The random pool's free frames in slot order, read from its table of
    displaced slots: slot i holds frame i unless a pair names it."""
    slots, frames = a._table[0::2].tolist(), a._table[1::2].tolist()
    displaced = {slot: frame for slot, frame in zip(slots, frames) if slot >= 0}
    assert len(displaced) == len(slots) - slots.count(-1)   # no slot in two pairs
    return [displaced.get(i, i) for i in range(a.free_frames)]


def allocator_state(a):
    pools = free_list(a) if a._random else a._cursor.tolist()
    return (a.page_tables, a.free_by_color(), pools, dict(zip(a._apps, a._rr.tolist())))


@pytest.mark.parametrize("kernel", [True, False])
@given(total=st.integers(1, 300) | st.integers(2000, 5000),
       steps=st.lists(st.integers(0, 700) | st.just("touch"), max_size=12),
       seed=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_sparse_draws_match_a_dense_swap_remove(kernel, total, steps, seed):
    # batches (of the kernel or of the Python form) mixed with touches, the
    # table growing between and within them, down to the last free frame;
    # the reference is the swap-remove over a list of every frame
    a = Allocator(total, policy_spec(PolicyKind.RANDOM, M), M, seed=seed)
    a.register("A")
    free, left, rng = np.arange(total), total, np.random.default_rng(seed)
    vpn = 0
    python = mock.patch.object(_native, "kernel", lambda: None)
    for step in steps:
        n = 1 if step == "touch" else step
        expected = []
        for slot in rng.integers(np.arange(left, left - min(n, left), -1)).tolist():
            expected.append(free[slot].item())
            left -= 1
            free[slot] = free[left]
        if step == "touch":
            try:
                drawn = [a.touch("A", vpn)]
            except OutOfColorMemory:
                drawn = []
        else:
            with contextlib.nullcontext() if kernel else python:
                frames, error = a.translate_page_array(
                    ["A"], np.zeros(n, dtype=np.int32), np.arange(vpn, vpn + n, dtype=np.uint64))
            drawn = frames.tolist()
            assert (error is None) == (n == len(expected))
        assert drawn == expected
        vpn += len(drawn)
        assert free_list(a) == free[:left].tolist()
        assert total - left <= len(a._table) // 2 * 0.5     # the load bound
    assert a._rng.bit_generator.state == rng.bit_generator.state


def test_random_pool_memory_grows_with_the_pages_drawn():
    # 2^21 frames, 16 MB as a list of every frame; 1,000 pages drawn take a
    # table of 2,048 pairs (32 KB)
    _native.kernel()    # built and loaded outside the measurement
    tracemalloc.start()
    try:
        a = Allocator(2**21, policy_spec(PolicyKind.RANDOM, M), M, seed=5)
        a.register("A")
        frames, error = a.translate_page_array(
            ["A"], np.zeros(1000, dtype=np.int32), np.arange(1000, dtype=np.uint64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert error is None and len(set(frames.tolist())) == 1000
    assert peak < 2**20


@given(data=st.data(), apps=st.integers(1, 6), random=st.booleans(),
       bits=st.lists(st.sampled_from(sorted(M.color_classes)), max_size=4, unique=True),
       total=st.integers(1, 120) | st.integers(120, 2500), disjoint=st.booleans(),
       fallback=st.booleans())
@settings(max_examples=200, deadline=None)
def test_translate_page_array_matches_touch(data, apps, random, bits, total, disjoint,
                                            fallback):
    # 1-16 colors (or random), overlapping or disjoint quotas, and two
    # batches, the second holding pages the first mapped
    spec = policy_spec(PolicyKind.RANDOM, M) if random else custom_spec(bits, M)
    colors = spec.page_colors
    names = [f"app{i}" for i in range(apps if colors == 1 or not disjoint
                                      else min(apps, colors))]
    if colors > 1 and disjoint:
        owner = data.draw(st.permutations(range(colors)))
        quotas = [owner[i::len(names)] for i in range(len(names))]
    else:
        quotas = [data.draw(st.sets(st.integers(0, colors - 1), min_size=1)) for _ in names]

    def fresh():
        a = Allocator(total, spec, M, seed=7, allow_fallback=fallback)
        for name, quota in zip(names, quotas):
            a.register(name) if colors == 1 else a.assign_quota(name, quota)
        return a

    pages = st.lists(st.tuples(st.integers(0, len(names) - 1), st.integers(0, 60)),
                     min_size=1, max_size=80, unique=True)
    first = data.draw(pages)
    mapped = data.draw(st.lists(st.sampled_from(first)))
    second = data.draw(st.permutations(list(dict.fromkeys(mapped + data.draw(pages)))))
    batched, reference = fresh(), fresh()
    for batch in (first, second):
        app = np.array([a for a, _ in batch], dtype=np.int64)
        vpn = np.array([v for _, v in batch], dtype=np.uint64)
        frames, error = batched.translate_page_array(names, app, vpn)
        expected, exc = [], None
        for a, v in batch:
            try:
                expected.append(reference.touch(names[a], v))
            except AllocationError as e:
                exc = e
                break
        assert frames.tolist() == expected
        assert type(error) is type(exc) and str(error) == str(exc)
        assert allocator_state(batched) == allocator_state(reference)
    assert batched._rng.integers(1 << 62) == reference._rng.integers(1 << 62)


def test_translate_page_array_touches_only_the_pages_past_an_empty_pool():
    # a-vp on 65,536 frames has 16,384 of color 0: the pool serves all but
    # the last of 16,385 pages, which falls back in the same batch
    spec = policy_spec(PolicyKind.A_VP, M)

    def fresh():
        a = Allocator(65536, spec, M, allow_fallback=True)
        a.assign_quota("A", {0})
        return a

    batched, reference = fresh(), fresh()
    touched, touch = [], batched.touch
    batched.touch = lambda app, vpn: touched.append(vpn) or touch(app, vpn)
    n = 16385
    frames, error = batched.translate_page_array(
        ["A"], np.zeros(n, dtype=np.int64), np.arange(n, dtype=np.uint64))
    assert error is None
    assert frames.tolist() == [reference.touch("A", v) for v in range(n)]
    assert allocator_state(batched) == allocator_state(reference)
    assert touched == []


@pytest.mark.parametrize("kernel", [True, False])
@pytest.mark.parametrize("premapped", [False, True])
def test_translate_page_array_stops_at_an_app_without_a_quota(kernel, premapped):
    # B is registered but has no quota: the batch maps A's pages up to B's
    # first page and stops there, with touch's error
    def fresh():
        a = avp_alloc(total_pages=64)
        a.assign_quota("A", {0, 1})
        a.register("B")
        if premapped:
            a.touch("A", 9)
        return a

    pages = [(0, 3), (0, 9), (0, 4), (1, 4), (0, 5), (1, 7)]
    batched, reference = fresh(), fresh()
    python = mock.patch.object(_native, "kernel", lambda: None)
    with contextlib.nullcontext() if kernel else python:
        frames, error = batched.translate_page_array(
            ["A", "B"], np.array([a for a, _ in pages]),
            np.array([v for _, v in pages], dtype=np.uint64))
    expected = []
    for a, v in pages:
        try:
            expected.append(reference.touch("AB"[a], v))
        except AllocationError as exc:
            assert str(exc) == "app 'B' has no color quota assigned"
            assert type(error) is type(exc) and str(error) == str(exc)
            break
    assert frames.tolist() == expected and len(expected) == 3
    assert allocator_state(batched) == allocator_state(reference)


def test_app_registered_after_the_row_map_exists(tmp_path):
    # A's touches build the row map before B is registered; one batch then
    # looks up A's mapped pages and maps B's new ones
    def fresh():
        a = avp_alloc(total_pages=64)
        a.assign_quota("A", {0, 1})
        return a

    batched, reference = fresh(), fresh()
    a_vpns, b_vpns = [3, 9, 4], [9, 2]
    frames = [batched.touch("A", v) for v in a_vpns]
    assert frames == [reference.touch("A", v) for v in a_vpns]
    batched.assign_quota("B", {2})
    reference.assign_quota("B", {2})
    pages = [(0, 9), (1, 9), (0, 3), (1, 2), (0, 4)]
    app = np.array([a for a, _ in pages], dtype=np.int64)
    vpn = np.array([v for _, v in pages], dtype=np.uint64)
    frames, error = batched.translate_page_array(["A", "B"], app, vpn)
    assert error is None
    assert frames.tolist() == [reference.touch("AB"[a], v) for a, v in pages]
    assert [batched.touch("B", v) for v in b_vpns] == [reference.touch("B", v) for v in b_vpns]
    assert batched.page_tables == reference.page_tables
    assert csv_bytes(batched, tmp_path / "b.csv") == csv_bytes(reference, tmp_path / "r.csv")
    assert batched.free_by_color() == reference.free_by_color()
