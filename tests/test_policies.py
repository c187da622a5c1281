import numpy as np
import pytest

from memcolor.mapping import AddressMapping, page_color
from memcolor.policies import (PARTITIONING_KINDS, PolicyError, PolicyKind,
                               custom_spec, policy_spec)

M = AddressMapping()

TABLE_GROUPS = {
    PolicyKind.BANK_ONLY: (2, 8),
    PolicyKind.A_VP: (4, 4),
    PolicyKind.B_VP: (4, 8),
    PolicyKind.C_VP: (8, 4),
}


def all_frame_colors(spec, total_pages=1 << 21):
    pfns = np.arange(total_pages, dtype=np.int64)
    colors = np.zeros(total_pages, dtype=np.int64)
    for i, pos in enumerate(spec.color_bits):
        colors |= ((pfns >> (pos - M.page_offset_bits)) & 1) << i
    return colors


@pytest.mark.parametrize("kind,expected", sorted(TABLE_GROUPS.items()))
def test_group_counts_match_policy_table(kind, expected):
    spec = policy_spec(kind, M)
    assert (spec.llc_groups, spec.bank_groups) == expected


def test_table_bit_bindings():
    assert policy_spec(PolicyKind.BANK_ONLY, M).color_bits == (15, 21, 22)
    assert policy_spec(PolicyKind.A_VP, M).color_bits == (14, 15)
    assert policy_spec(PolicyKind.B_VP, M).color_bits == (14, 15, 22)
    assert policy_spec(PolicyKind.C_VP, M).color_bits == (14, 15, 16)


def test_non_partitioning_kinds():
    for kind in (PolicyKind.INTERLEAVE, PolicyKind.RANDOM):
        spec = policy_spec(kind, M)
        assert not spec.partitioning
        assert spec.page_colors == 1
        assert spec == custom_spec((), M, kind)
        assert kind not in PARTITIONING_KINDS


def test_spec_rejects_starved_mapping():
    skinny = AddressMapping(o_bits=frozenset({14}),
                            set_index_bits=tuple(sorted(set(range(6, 19)) - {15})),
                            bank_index_bits=(14, 19, 20, 21, 22))
    with pytest.raises(PolicyError):
        policy_spec(PolicyKind.A_VP, skinny)


def test_page_color_avp():
    spec = policy_spec(PolicyKind.A_VP, M)
    assert page_color(0, spec.color_bits, M) == 0
    assert page_color(4, spec.color_bits, M) == 1     # address bit 14


def test_bvp_b_component():
    spec = policy_spec(PolicyKind.B_VP, M)
    pfn_bit22 = 1 << (22 - 12)
    color = page_color(pfn_bit22, spec.color_bits, M)
    llc, bank = spec.project(color)
    assert llc == 0
    assert bank == 0b100                               # bit 22 is the pure bank bit


def test_bank_only_o_component():
    spec = policy_spec(PolicyKind.BANK_ONLY, M)
    pfn_bit15 = 1 << (15 - 12)
    color = page_color(pfn_bit15, spec.color_bits, M)
    llc, bank = spec.project(color)
    assert llc == 1
    assert bank & 1                                    # the o component of the bank group


def test_avp_vertical_coupling():
    spec = policy_spec(PolicyKind.A_VP, M)
    for c in range(spec.page_colors):
        assert spec.project(c) == (c, c)


def test_bvp_projection_image():
    spec = policy_spec(PolicyKind.B_VP, M)
    pairs = {spec.project(c) for c in range(spec.page_colors)}
    assert len({p[0] for p in pairs}) == 4
    assert len({p[1] for p in pairs}) == 8
    assert len(pairs) == spec.page_colors


def test_project_out_of_range():
    spec = policy_spec(PolicyKind.A_VP, M)
    with pytest.raises(PolicyError):
        spec.project(4)


@pytest.mark.parametrize("kind", PARTITIONING_KINDS)
def test_full_memory_color_enumeration(kind):
    spec = policy_spec(kind, M)
    colors = all_frame_colors(spec)
    distinct = np.unique(colors)
    assert len(distinct) == spec.page_colors
    projections = {spec.project(int(c)) for c in distinct}
    assert len({p[0] for p in projections}) == spec.llc_groups
    assert len({p[1] for p in projections}) == spec.bank_groups


def test_custom_spec_rejects_uncolorable_bits():
    with pytest.raises(PolicyError):
        custom_spec({19}, M)       # hardware bank bit, not a color class


def test_policy_names_round_trip():
    for kind in PolicyKind:
        assert PolicyKind.from_name(kind.value) is kind
    with pytest.raises(PolicyError):
        PolicyKind.from_name("nope")
