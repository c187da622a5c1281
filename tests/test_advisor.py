import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memcolor.advisor import (TAG_CACHE_SHARE, TAG_NONE, TAG_SMALL_CCF,
                              TAG_SMALL_LLCT, AdvisorError, WorkloadProfile,
                              advise, decide_policy, plan_quotas)
from memcolor.classifier import Category
from memcolor.mapping import AddressMapping
from memcolor.policies import PolicyKind, policy_spec

M = AddressMapping()


def profile(cats, cores=4, mt=False):
    return WorkloadProfile(tuple((f"app{i}", c) for i, c in enumerate(cats)),
                           multithreaded=mt, core_count=cores)


def test_rule_multithreaded_first():
    p = profile([Category.LLCT, Category.LLCH], mt=True)
    assert decide_policy(p) is PolicyKind.RANDOM


def test_rule_llct():
    p = profile([Category.LLCT, Category.LLCH, Category.CCF, Category.CCF])
    assert decide_policy(p) is PolicyKind.A_VP
    assert decide_policy(profile([Category.LLCT], cores=8)) is PolicyKind.C_VP


def test_rule_llch_without_llct():
    p = profile([Category.LLCH, Category.LLCM])
    assert decide_policy(p) is PolicyKind.BANK_ONLY


def test_rule_llcm_only():
    assert decide_policy(profile([Category.LLCM, Category.CCF])) is PolicyKind.A_VP
    assert decide_policy(profile([Category.LLCM, Category.CCF], cores=8)) is PolicyKind.B_VP


def test_rule_all_ccf():
    assert decide_policy(profile([Category.CCF, Category.CCF])) is PolicyKind.INTERLEAVE


def test_decide_policy_order_insensitive():
    cats = [Category.LLCT, Category.LLCH, Category.LLCM, Category.CCF]
    expected = decide_policy(profile(cats))
    for perm in itertools.permutations(cats):
        assert decide_policy(profile(list(perm))) is expected


def test_adding_llct_forces_vp():
    for cats in ([Category.LLCH], [Category.LLCM], [Category.CCF]):
        for cores in (4, 8):
            got = decide_policy(profile(cats + [Category.LLCT], cores=cores))
            assert got in (PolicyKind.A_VP, PolicyKind.C_VP)


def test_exhaustive_rule_table():
    for present in itertools.product([False, True], repeat=4):
        if not any(present):
            continue
        cats = [c for c, p in zip(list(Category), present) if p]
        for cores in (4, 8):
            for mt in (False, True):
                got = decide_policy(profile(cats, cores=cores, mt=mt))
                if mt:
                    assert got is PolicyKind.RANDOM
                elif Category.LLCT in cats:
                    assert got is (PolicyKind.A_VP if cores == 4 else PolicyKind.C_VP)
                elif Category.LLCH in cats:
                    assert got is PolicyKind.BANK_ONLY
                elif Category.LLCM in cats:
                    assert got is (PolicyKind.A_VP if cores == 4 else PolicyKind.B_VP)
                else:
                    assert got is PolicyKind.INTERLEAVE


def test_plan_quotas_four_category_avp():
    p = WorkloadProfile((("A", Category.LLCH), ("B", Category.LLCM),
                         ("C", Category.LLCT), ("D", Category.CCF)))
    spec = policy_spec(PolicyKind.A_VP, M)
    decision = plan_quotas(p, PolicyKind.A_VP, spec)
    by_tag = {g.tag: g for g in decision.groups}
    assert set(by_tag) == {TAG_CACHE_SHARE, TAG_SMALL_LLCT, TAG_SMALL_CCF}
    assert set(by_tag[TAG_CACHE_SHARE].apps) == {"A", "B"}
    assert len(by_tag[TAG_CACHE_SHARE].llc_groups) == 2
    assert len(by_tag[TAG_SMALL_LLCT].llc_groups) == 1
    assert len(by_tag[TAG_SMALL_CCF].llc_groups) == 1
    # every app in exactly one quota, quotas within range
    assert set(decision.quotas) == {"A", "B", "C", "D"}
    for colors in decision.quotas.values():
        assert all(0 <= c < spec.page_colors for c in colors)
    # cache-share members coalesce under a-vp (no pure bank bits)
    assert decision.quotas["A"] == decision.quotas["B"]


def test_plan_quotas_llct_only_cvp():
    p = WorkloadProfile((("A", Category.LLCT), ("B", Category.LLCT)), core_count=8)
    spec = policy_spec(PolicyKind.C_VP, M)
    decision = plan_quotas(p, PolicyKind.C_VP, spec)
    (group,) = decision.groups
    assert group.tag == TAG_SMALL_LLCT
    assert len(group.llc_groups) == 1
    assert decision.quotas["A"] == decision.quotas["B"] == group.colors


def test_plan_quotas_non_partitioning():
    p = profile([Category.CCF, Category.CCF])
    spec = policy_spec(PolicyKind.INTERLEAVE, M)
    decision = plan_quotas(p, PolicyKind.INTERLEAVE, spec)
    (group,) = decision.groups
    assert group.tag == TAG_NONE
    assert all(colors == () for colors in decision.quotas.values())


def test_plan_quotas_bank_round_robin_under_bvp():
    p = WorkloadProfile((("A", Category.LLCH), ("B", Category.LLCM),
                         ("C", Category.LLCM)), core_count=8)
    spec = policy_spec(PolicyKind.B_VP, M)
    decision = plan_quotas(p, PolicyKind.B_VP, spec)
    share = [g for g in decision.groups if g.tag == TAG_CACHE_SHARE][0]
    quotas = [set(decision.quotas[a]) for a in share.apps]
    for qa, qb in itertools.combinations(quotas, 2):
        assert not qa & qb
    assert set().union(*quotas) == set(share.colors)


def test_plan_quotas_degenerate_policy_errors():
    p = WorkloadProfile((("A", Category.LLCH), ("B", Category.LLCT),
                         ("C", Category.CCF)))
    tiny = policy_spec(PolicyKind.BANK_ONLY, M)   # 2 llc groups < 3 groups
    with pytest.raises(AdvisorError):
        plan_quotas(p, PolicyKind.BANK_ONLY, tiny)


def test_advise_pipeline_and_json():
    p = WorkloadProfile((("A", Category.LLCH), ("B", Category.LLCM),
                         ("C", Category.LLCT), ("D", Category.CCF)))
    decision = advise(p, M)
    assert decision.policy is PolicyKind.A_VP
    doc = decision.to_json({"A": {"category": "LLCH"}})
    assert '"policy": "a-vp"' in doc
    assert '"evidence"' in doc


def test_profile_validation():
    with pytest.raises(AdvisorError):
        WorkloadProfile(())
    with pytest.raises(AdvisorError):
        profile([Category.CCF], cores=6)


@given(st.lists(st.sampled_from(list(Category)), min_size=1, max_size=8),
       st.sampled_from([4, 8]), st.booleans())
@settings(max_examples=200)
def test_plan_quotas_invariants(cats, cores, mt):
    p = profile(cats, cores=cores, mt=mt)
    policy = decide_policy(p)
    spec = policy_spec(policy, M)
    try:
        decision = plan_quotas(p, policy, spec)
    except AdvisorError:
        assert spec.partitioning
        return
    assert set(decision.quotas) == {a for a, _ in p.apps}
    seen = set()
    for g in decision.groups:
        assert not seen & set(g.apps)
        seen |= set(g.apps)
        if g.tag in (TAG_SMALL_LLCT, TAG_SMALL_CCF):
            assert len(g.llc_groups) == 1
    assert seen == {a for a, _ in p.apps}
