import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memcolor.mapping import (AddressMapping, MappingError, decompose,
                              extract_bits, page_color, validate_mapping)


def oracle_extract(value, positions):
    """Independent per-bit extraction: build the result bit by bit from a
    binary-string view of the address."""
    bits = [(value >> p) & 1 for p in sorted(positions)]
    return sum(b << i for i, b in enumerate(bits))


@pytest.fixture
def m():
    return AddressMapping()


def test_default_mapping_is_valid(m):
    assert validate_mapping(m) == []


def test_default_geometry(m):
    assert m.llc_sets == 8192
    assert m.banks == 64
    assert m.total_pages == 1 << 21
    assert m.page_bytes == 4096
    assert m.line_bytes == 64


def test_o_bit_below_page_offset_reported():
    bad = AddressMapping(o_bits=frozenset({10}),
                         set_index_bits=tuple(sorted(set(range(6, 19)) | {10})),
                         bank_index_bits=(10, 15, 19, 20, 21, 22))
    msgs = validate_mapping(bad)
    assert any("o-bit 10 below page offset" in v for v in msgs)


def test_c_bit_indexing_banks_reported():
    bad = AddressMapping(c_bits=frozenset({14, 16, 17, 18}))
    msgs = validate_mapping(bad)
    assert any("c-bit 14 indexes banks" in v for v in msgs)


def test_class_overlap_reported():
    bad = AddressMapping(b_bits=frozenset({21, 22}), o_bits=frozenset({14, 15, 21}))
    assert any("both" in v for v in validate_mapping(bad))


@pytest.mark.parametrize("fields,violation", [
    ({"set_index_bits": (5, *range(7, 19))}, "set index bit 5 below line offset"),
    ({"bank_index_bits": (5, 14, 15, 20, 21, 22)}, "bank index bit 5 below line offset"),
    ({"page_offset_bits": 5}, "line_offset_bits 6 exceeds page_offset_bits 5"),
    ({"set_index_bits": (*range(6, 19), 64)}, "set index bit 64 at or above 64"),
    ({"bank_index_bits": (14, 15, 19, 20, 21, 22, 70)}, "bank index bit 70 at or above 64"),
])
def test_index_bit_inside_a_line_reported(fields, violation):
    assert validate_mapping(AddressMapping(**fields)) == [violation]


def test_decompose_zero(m):
    d = decompose(0, m)
    assert (d.set_id, d.bank_id, d.row_id, d.line_tag) == (0, 0, 0, 0)


def test_decompose_bit14(m):
    d = decompose(0x4000, m)
    assert d.set_id == 256
    assert d.bank_id == 1
    assert d.row_id == 0


def test_decompose_bit21(m):
    d = decompose(0x200000, m)
    assert d.set_id == 0
    assert d.bank_id == 16
    assert d.row_id == 0


def test_decompose_out_of_range(m):
    with pytest.raises(MappingError):
        decompose(m.mem_bytes, m)


def test_decompose_matches_oracle_randomized(m):
    import numpy as np
    rng = np.random.default_rng(0)
    for a in rng.integers(0, m.mem_bytes, size=100_000):
        a = int(a)
        d = decompose(a, m)
        assert d.set_id == oracle_extract(a, m.set_index_bits)
        assert d.bank_id == oracle_extract(a, m.bank_index_bits)
        assert d.row_id == a >> m.row_shift
        assert d.line_tag == a >> m.line_offset_bits


def test_set_id_ignores_non_set_bits(m):
    import numpy as np
    rng = np.random.default_rng(1)
    set_bits = set(m.set_index_bits)
    for a in rng.integers(0, m.mem_bytes, size=1000):
        a = int(a)
        base = decompose(a, m).set_id
        for bit in range(33):
            if bit in set_bits:
                continue
            flipped = a ^ (1 << bit)
            if flipped >= m.mem_bytes:
                continue
            assert decompose(flipped, m).set_id == base


def test_page_color_basic(m):
    assert page_color(0, {14, 15}, m) == 0
    assert page_color(4, {14, 15}, m) == 1    # pfn bit 2 -> address bit 14
    assert page_color(12, {14, 15}, m) == 3


def test_page_color_below_page_offset(m):
    with pytest.raises(MappingError):
        page_color(1, {10}, m)


def test_equal_o_color_projects_to_same_groups(m):
    o = sorted(m.o_bits)
    frames = range(0, 4096, 3)
    groups = {}
    for pfn in frames:
        color = page_color(pfn, o, m)
        addr = pfn << m.page_offset_bits
        proj = (oracle_extract(addr, [b for b in m.set_index_bits if b in m.o_bits]),
                oracle_extract(addr, [b for b in m.bank_index_bits if b in m.o_bits]))
        groups.setdefault(color, set()).add(proj)
    # same o-color -> one projection; different o-colors never share it
    assert all(len(p) == 1 for p in groups.values())
    seen = [next(iter(p)) for p in groups.values()]
    assert len(seen) == len(set(seen))


@given(st.integers(min_value=0, max_value=(8 << 30) - 1))
@settings(max_examples=300)
def test_extract_bits_property(a):
    m = AddressMapping()
    assert extract_bits(a, m.set_index_bits) == oracle_extract(a, m.set_index_bits)
    assert extract_bits(a, m.bank_index_bits) == oracle_extract(a, m.bank_index_bits)
