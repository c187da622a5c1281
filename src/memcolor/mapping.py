"""Physical-address bit mapping: LLC set index, DRAM bank index, row id, and
the three color-bit classes (bank-only, cache-only, overlapped).

Defaults model an Intel i7-860 style machine: 4 KiB pages, 64 B lines,
8 GiB of memory, 64 banks, an 8 MiB 16-way LLC with set-index bits 6..18.
Colorable classes default to bank-only bits {21,22}, cache-only bits
{16,17,18} and overlapped bits {14,15}.  Bank bits 19 and 20 exist in the
hardware bank function but are not colorable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from memcolor.errors import MemcolorError


DEFAULT_MEM_BYTES = 8 << 30


class MappingError(MemcolorError, ValueError):
    """Raised for addresses or bit requests a mapping cannot serve."""


def _runs(positions):
    """Group ascending bit positions into (start, length) contiguous runs."""
    runs = []
    start = prev = positions[0]
    for p in positions[1:]:
        if p == prev + 1:
            prev = p
        else:
            runs.append((start, prev - start + 1))
            start = prev = p
    runs.append((start, prev - start + 1))
    return runs


class BitExtractor:
    """Extracts a set of bit positions from an integer, LSB-first in
    ascending position order.  Precompiled into contiguous-run `segments`,
    (shift, mask, out) triples, which the native kernel also takes."""

    __slots__ = ("positions", "segments")

    def __init__(self, positions):
        self.positions = tuple(sorted(positions))
        segments = []
        if self.positions:
            out = 0
            for start, length in _runs(list(self.positions)):
                segments.append((start, (1 << length) - 1, out))
                out += length
        self.segments = tuple(segments)

    def extract(self, value: int) -> int:
        result = 0
        for shift, mask, out in self.segments:
            result |= ((value >> shift) & mask) << out
        return result


# the BitExtractor of a tuple of positions, built on its first use
_extractor = lru_cache(maxsize=None)(BitExtractor)


def extract_bits(value: int, positions) -> int:
    """LSB-first extraction of `positions` from `value`, by the BitExtractor
    of those positions (built on their first use)."""
    return _extractor(tuple(sorted(positions))).extract(value)


@dataclass(frozen=True)
class AddressMapping:
    page_offset_bits: int = 12
    line_offset_bits: int = 6
    set_index_bits: tuple = tuple(range(6, 19))
    bank_index_bits: tuple = (14, 15, 19, 20, 21, 22)
    b_bits: frozenset = frozenset({21, 22})
    c_bits: frozenset = frozenset({16, 17, 18})
    o_bits: frozenset = frozenset({14, 15})
    row_shift: int = 23
    mem_bytes: int = DEFAULT_MEM_BYTES

    def __post_init__(self):
        object.__setattr__(self, "set_index_bits", tuple(sorted(self.set_index_bits)))
        object.__setattr__(self, "bank_index_bits", tuple(sorted(self.bank_index_bits)))
        object.__setattr__(self, "b_bits", frozenset(self.b_bits))
        object.__setattr__(self, "c_bits", frozenset(self.c_bits))
        object.__setattr__(self, "o_bits", frozenset(self.o_bits))

    @property
    def page_bytes(self) -> int:
        return 1 << self.page_offset_bits

    @property
    def line_bytes(self) -> int:
        return 1 << self.line_offset_bits

    @property
    def llc_sets(self) -> int:
        return 1 << len(self.set_index_bits)

    @property
    def banks(self) -> int:
        return 1 << len(self.bank_index_bits)

    @property
    def total_pages(self) -> int:
        return self.mem_bytes >> self.page_offset_bits

    @property
    def color_classes(self) -> frozenset:
        return self.b_bits | self.c_bits | self.o_bits

    def set_extractor(self) -> BitExtractor:
        return _extractor(self.set_index_bits)

    def bank_extractor(self) -> BitExtractor:
        return _extractor(self.bank_index_bits)


class Decomposed(NamedTuple):
    set_id: int
    bank_id: int
    row_id: int
    line_tag: int


def validate_mapping(m: AddressMapping) -> list[str]:
    """Check every structural invariant of a mapping.

    Returns an empty list when the mapping is valid, otherwise one message
    per violated invariant naming the offending bit position.
    """
    violations = []
    # shifts of an address: in C a shift by 64 or more is undefined, so the
    # kernel's replay would disagree with the Python one, where it gives 0
    for name in ("page_offset_bits", "line_offset_bits", "row_shift"):
        if not 0 <= getattr(m, name) < 64:
            violations.append(f"{name} must be in [0, 64), got {getattr(m, name)}")
    set_bits = set(m.set_index_bits)
    bank_bits = set(m.bank_index_bits)

    for p in sorted(m.o_bits):
        if p not in set_bits or p not in bank_bits:
            violations.append(f"o-bit {p} not in both set and bank index bits")
        if p < m.page_offset_bits:
            violations.append(f"o-bit {p} below page offset")
    for p in sorted(m.b_bits):
        if p not in bank_bits:
            violations.append(f"b-bit {p} not a bank index bit")
        if p in set_bits:
            violations.append(f"b-bit {p} indexes LLC sets")
        if p < m.page_offset_bits:
            violations.append(f"b-bit {p} below page offset")
    for p in sorted(m.c_bits):
        if p not in set_bits:
            violations.append(f"c-bit {p} not a set index bit")
        if p in bank_bits:
            violations.append(f"c-bit {p} indexes banks")
        if p < m.page_offset_bits:
            violations.append(f"c-bit {p} below page offset")

    for name_a, a, name_b, b in (
        ("b", m.b_bits, "c", m.c_bits),
        ("b", m.b_bits, "o", m.o_bits),
        ("c", m.c_bits, "o", m.o_bits),
    ):
        for p in sorted(a & b):
            violations.append(f"bit {p} in both {name_a}-bits and {name_b}-bits")

    if len(set(m.set_index_bits)) != len(m.set_index_bits):
        violations.append("duplicate set index bits")
    if len(set(m.bank_index_bits)) != len(m.bank_index_bits):
        violations.append("duplicate bank index bits")
    # a line lies in one LLC set and one bank, so both index above its
    # offset; and below bit 64, where the kernel's shift is undefined
    for name, bits in (("set", m.set_index_bits), ("bank", m.bank_index_bits)):
        for p in bits:
            if p < m.line_offset_bits:
                violations.append(f"{name} index bit {p} below line offset")
            if p >= 64:
                violations.append(f"{name} index bit {p} at or above 64")
    if m.line_offset_bits > m.page_offset_bits:
        violations.append(f"line_offset_bits {m.line_offset_bits} exceeds "
                          f"page_offset_bits {m.page_offset_bits}")
    return violations


def decompose(a: int, m: AddressMapping) -> Decomposed:
    """Split a physical byte address into (set_id, bank_id, row_id, line_tag).

    Bit assembly is LSB-first in ascending position order, by the mapping's
    set and bank extractors, the ones the hierarchy uses.
    """
    if a < 0 or a >= m.mem_bytes:
        raise MappingError(f"address {a:#x} outside physical memory ({m.mem_bytes:#x})")
    return Decomposed(m.set_extractor().extract(a), m.bank_extractor().extract(a),
                      a >> m.row_shift, a >> m.line_offset_bits)


def page_color(pfn: int, bits, m: AddressMapping) -> int:
    """Color of a page frame over the given colorable bit positions.

    All requested bits must lie at or above page granularity; bits below the
    page offset cannot be controlled by page allocation.
    """
    bits = sorted(bits)
    for p in bits:
        if p < m.page_offset_bits:
            raise MappingError(f"bit {p} below page offset {m.page_offset_bits}: not colorable")
    return extract_bits(pfn << m.page_offset_bits, bits)
