"""Policy decision tree and quota planning.

Rules, evaluated in order over the workload's category composition:

    0. multithreaded                      -> random page-interleaved
    1. any LLCT app                       -> a-vp (4 cores) / c-vp (8 cores)
    2. any LLCH app (no LLCT)             -> bank-only
    3. any LLCM app (no LLCT/LLCH)        -> a-vp (4 cores) / b-vp (8 cores)
    4. all CCF                            -> interleave

Coalescing: LLCH and LLCM apps share one cache quota; LLCT apps share one
small quota (a single LLC color group); CCF apps likewise.  Where the
policy has pure bank bits, bank-group colors are dealt round-robin among
the members of the shared cache group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from memcolor.classifier import Category
from memcolor.errors import MemcolorError
from memcolor.mapping import AddressMapping
from memcolor.policies import PolicyKind, PolicySpec, policy_spec


TAG_CACHE_SHARE = "cache-share"
TAG_SMALL_LLCT = "small-share-llct"
TAG_SMALL_CCF = "small-share-ccf"
TAG_NONE = "none"


class AdvisorError(MemcolorError, ValueError):
    pass


@dataclass(frozen=True)
class WorkloadProfile:
    apps: tuple                      # ((app_id, Category), ...)
    multithreaded: bool = False
    core_count: int = 4

    def __post_init__(self):
        if not self.apps:
            raise AdvisorError("profile needs at least one app")
        if self.core_count not in (4, 8):
            raise AdvisorError(f"core_count must be 4 or 8, got {self.core_count}")
        object.__setattr__(self, "apps", tuple((a, Category(c)) for a, c in self.apps))

    @property
    def categories(self) -> set:
        return {c for _, c in self.apps}


@dataclass(frozen=True)
class QuotaGroup:
    apps: tuple
    tag: str
    llc_groups: tuple
    colors: tuple


@dataclass(frozen=True)
class PolicyDecision:
    policy: PolicyKind
    quotas: dict                     # app_id -> tuple of colors ('' -> all frames)
    groups: tuple                    # QuotaGroup

    def to_json(self, evidence: dict | None = None) -> str:
        doc = {
            "policy": self.policy.value,
            "groups": [
                {"apps": [str(a) for a in g.apps], "tag": g.tag,
                 "llc_groups": list(g.llc_groups), "colors": list(g.colors)}
                for g in self.groups
            ],
            "quotas": {str(a): list(cs) for a, cs in sorted(self.quotas.items(), key=lambda kv: str(kv[0]))},
        }
        if evidence is not None:
            doc["evidence"] = evidence
        return json.dumps(doc, sort_keys=True, indent=2)


def decide_policy(p: WorkloadProfile) -> PolicyKind:
    if p.multithreaded:
        return PolicyKind.RANDOM
    cats = p.categories
    if Category.LLCT in cats:
        return PolicyKind.A_VP if p.core_count == 4 else PolicyKind.C_VP
    if Category.LLCH in cats:
        return PolicyKind.BANK_ONLY
    if Category.LLCM in cats:
        return PolicyKind.A_VP if p.core_count == 4 else PolicyKind.B_VP
    return PolicyKind.INTERLEAVE


def plan_quotas(p: WorkloadProfile, policy: PolicyKind, spec: PolicySpec) -> PolicyDecision:
    apps_by_cat = {c: [a for a, ac in p.apps if ac == c] for c in Category}
    cache_share = apps_by_cat[Category.LLCH] + apps_by_cat[Category.LLCM]
    small = [(TAG_SMALL_LLCT, apps_by_cat[Category.LLCT]),
             (TAG_SMALL_CCF, apps_by_cat[Category.CCF])]
    small = [(tag, members) for tag, members in small if members]

    if not spec.partitioning:
        all_apps = tuple(a for a, _ in p.apps)
        group = QuotaGroup(all_apps, TAG_NONE, (), ())
        return PolicyDecision(policy, {a: () for a in all_apps}, (group,))

    needed = len(small) + (1 if cache_share else 0)
    if needed > spec.llc_groups:
        raise AdvisorError(
            f"{needed} quota groups but only {spec.llc_groups} LLC color groups "
            f"under {policy.value}; fall back to interleave")

    # small-share groups take the top LLC color groups, one each; the shared
    # cache group takes everything below them.
    next_group = spec.llc_groups
    groups = []
    quotas = {}
    for tag, members in small:
        next_group -= 1
        colors = tuple(spec.colors_in_llc_group(next_group))
        groups.append(QuotaGroup(tuple(members), tag, (next_group,), colors))
        for a in members:
            quotas[a] = colors

    if cache_share:
        llc_groups = tuple(range(next_group))
        colors = tuple(c for g in llc_groups for c in spec.colors_in_llc_group(g))
        groups.insert(0, QuotaGroup(tuple(cache_share), TAG_CACHE_SHARE, llc_groups, colors))
        pure_bank_bits = [pos for pos in spec.bank_positions if pos not in spec.llc_positions]
        if pure_bank_bits and len(cache_share) > 1:
            # deal colors round-robin by bank group so members use distinct banks
            by_bank = sorted(colors, key=lambda c: (spec.project(c)[1], c))
            for i, a in enumerate(cache_share):
                share = tuple(c for j, c in enumerate(by_bank) if j % len(cache_share) == i)
                quotas[a] = share if share else tuple(colors)
        else:
            for a in cache_share:
                quotas[a] = colors

    return PolicyDecision(policy, quotas, tuple(groups))


def advise(profile: WorkloadProfile, m: AddressMapping) -> PolicyDecision:
    """Profile -> policy -> quota plan (classification happens upstream)."""
    policy = decide_policy(profile)
    return plan_quotas(profile, policy, policy_spec(policy, m))
