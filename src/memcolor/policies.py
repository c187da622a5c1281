"""Partitioning policy space: which colorable address bits each policy uses
and the LLC-group / bank-group structure that falls out of that choice.

The built-in table (default mapping, groups as LLC x banks):

    interleave   no color constraint (hardware bank interleaving, random OS placement)
    bank-only    b{21,22} + o{15}        ->  2 x 8
    a-vp         o{14,15}                ->  4 x 4
    b-vp         b{22}   + o{14,15}      ->  4 x 8
    c-vp         c{16}   + o{14,15}      ->  8 x 4
    random       no color constraint (random page-interleaved, multi-threaded jobs)

The table is data-driven: each row says how many bits of each class to take.
Bank-only and overlapped bits are taken highest-position-first, cache-only
bits lowest-first; that convention reproduces the table above on the default
mapping and generalizes to any valid mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from memcolor.errors import MemcolorError
from memcolor.mapping import AddressMapping


class PolicyError(MemcolorError, ValueError):
    pass


class PolicyKind(str, Enum):
    INTERLEAVE = "interleave"
    BANK_ONLY = "bank-only"
    A_VP = "a-vp"
    B_VP = "b-vp"
    C_VP = "c-vp"
    RANDOM = "random"

    @classmethod
    def from_name(cls, name: str) -> "PolicyKind":
        try:
            return cls(name)
        except ValueError:
            raise PolicyError(f"unknown policy {name!r}; expected one of "
                              f"{[k.value for k in cls]}") from None


# (n_b, n_c, n_o); a policy with no color bits does not partition
POLICY_TABLE = {
    PolicyKind.INTERLEAVE: (0, 0, 0),
    PolicyKind.BANK_ONLY: (2, 0, 1),
    PolicyKind.A_VP: (0, 0, 2),
    PolicyKind.B_VP: (1, 0, 2),
    PolicyKind.C_VP: (0, 1, 2),
    PolicyKind.RANDOM: (0, 0, 0),
}

PARTITIONING_KINDS = tuple(k for k, row in POLICY_TABLE.items() if any(row))


@dataclass(frozen=True)
class PolicySpec:
    kind: PolicyKind | None
    color_bits: tuple            # ascending colorable positions
    llc_positions: tuple         # color_bits that affect the LLC set (c or o)
    bank_positions: tuple        # color_bits that affect the bank (b or o)

    @property
    def partitioning(self) -> bool:
        return bool(self.color_bits)

    @property
    def page_colors(self) -> int:
        return 1 << len(self.color_bits)

    @property
    def llc_groups(self) -> int:
        return 1 << len(self.llc_positions)

    @property
    def bank_groups(self) -> int:
        return 1 << len(self.bank_positions)

    def project(self, color: int) -> tuple[int, int]:
        """Split a color into its (llc_group, bank_group) components."""
        if not 0 <= color < self.page_colors:
            raise PolicyError(f"color {color} out of range [0, {self.page_colors})")
        llc = bank = 0
        li = bi = 0
        for i, pos in enumerate(self.color_bits):
            bit = (color >> i) & 1
            if pos in self.llc_positions:
                llc |= bit << li
                li += 1
            if pos in self.bank_positions:
                bank |= bit << bi
                bi += 1
        return llc, bank

    def colors_in_llc_group(self, group: int) -> list[int]:
        return [c for c in range(self.page_colors) if self.project(c)[0] == group]


def custom_spec(color_bits, m: AddressMapping, kind: PolicyKind | None = None) -> PolicySpec:
    """Build a spec from an explicit colorable bit set."""
    bits = tuple(sorted(color_bits))
    colorable = m.color_classes
    for p in bits:
        if p not in colorable:
            raise PolicyError(f"bit {p} is not a colorable (b/c/o) bit of the mapping")
    llc = tuple(p for p in bits if p in m.c_bits or p in m.o_bits)
    bank = tuple(p for p in bits if p in m.b_bits or p in m.o_bits)
    return PolicySpec(kind=kind, color_bits=bits, llc_positions=llc, bank_positions=bank)


def policy_spec(kind: PolicyKind, m: AddressMapping) -> PolicySpec:
    """Resolve a policy kind against a mapping into a concrete PolicySpec."""
    row = POLICY_TABLE.get(kind)
    if row is None:
        raise PolicyError(f"no table entry for policy {kind}")
    n_b, n_c, n_o = row
    if len(m.b_bits) < n_b or len(m.c_bits) < n_c or len(m.o_bits) < n_o:
        raise PolicyError(
            f"mapping lacks bits for {kind.value}: needs {n_b} b-bits, "
            f"{n_c} c-bits, {n_o} o-bits; has {len(m.b_bits)}/{len(m.c_bits)}/{len(m.o_bits)}")
    bits = (sorted(m.b_bits, reverse=True)[:n_b]
            + sorted(m.c_bits)[:n_c]
            + sorted(m.o_bits, reverse=True)[:n_o])
    return custom_spec(bits, m, kind=kind)
