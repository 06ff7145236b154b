"""Ranks, the infinitude criterion, genus formula and the rational bounds."""

import random
from fractions import Fraction

import pytest

from towerbound import cft
from towerbound.errors import InconsistentModel, OutOfRange
from towerbound.ff import FieldParams


def gs_margin_raw(d: int, rd: int) -> bool:
    """True when a finite p-group with >= d generators and relation slack
    <= rd is impossible: rd <= d^2/4 - d (exact rational comparison).

    d = 0 never certifies: a trivial group satisfies everything.  This is
    the rational reference that `cft.certifies` is checked against.
    """
    if d < 0 or rd < 0:
        raise ValueError("d and rd must be nonnegative")
    if d < 1:
        return False
    return Fraction(d * d, 4) - d >= rd


P2 = FieldParams(2)
P3 = FieldParams(3)

PLAN1 = cft.RamificationPlan(P2, ((5, 1, 2), (8, 27, 2), (10, 1, 2)), 160)
PLAN2 = cft.RamificationPlan(P2, ((5, 2, 2), (6, 16, 2), (8, 15, 2), (10, 4, 2)), 192)
PLAN3A = cft.RamificationPlan(P3, ((8, 46, 3),), 567)
PLAN3B = cft.RamificationPlan(P3, ((5, 1, 3), (8, 43, 3), (9, 2, 3)), 567)


def margin_oracle(params, entries, t):
    """Literal transcription of the infinitude inequality, place by place."""
    p, e = params.p, params.e
    expanded = [(f, nu) for f, count, nu in entries for _ in range(count)]
    s_rank = sum(e * f * ((nu - 1) - (nu - 1) // p) for f, nu in expanded)
    s_quad = sum(e * f * (nu - 1) * (e * f * (nu - 1) + 1) for f, nu in expanded)
    return (1 + s_rank - t) ** 2 - 2 * s_quad - 4 * s_rank


def test_local_unit_rank_examples():
    assert cft.local_unit_rank(P2, 4, 2) == 4
    assert cft.local_unit_rank(P2, 5, 2) == 5
    assert cft.local_unit_rank(P3, 5, 3) == 10
    assert cft.local_unit_rank(P2, 9, 1) == 0
    assert cft.local_unit_rank(P3, 2, 1) == 0
    assert cft.local_unit_rank(FieldParams(2, 2), 3, 4) == 2 * 3 * (3 - 1)


def test_generator_rank_examples():
    assert cft.RamificationPlan(P2, ((4, 1, 2), (5, 1, 2)), 5).d_lower == 5
    assert cft.RamificationPlan(P3, ((5, 1, 3),), 7).d_lower == 4
    assert PLAN1.d_lower == 72  # 1 + 231 - 160


def test_local_rd_bound_examples():
    assert cft.local_rd_bound(P2, 5, 2) == 15
    assert cft.local_rd_bound(P3, 8, 3) == 136
    assert cft.local_rd_bound(P2, 8, 2) == 36


def test_useless_exponent_rejected():
    with pytest.raises(ValueError):
        cft.RamificationPlan(P2, ((5, 1, 1),), 2)


def test_margins_pinned_and_against_oracle():
    # values derived once by evaluating the inequality literally, then pinned
    for plan, genus, margin in (
        (PLAN1, 276, 92), (PLAN2, 343, 57), (PLAN3A, 601, 932), (PLAN3B, 601, 308)
    ):
        cert = cft.certify_tower(genus, plan)
        assert cert.gs_margin == margin
        assert cert.infinite
        assert plan.side_condition_ok
        assert margin_oracle(plan.params, plan.entries, plan.t) == margin


def test_check_exposes_rank_pair():
    cert = cft.certify_tower(276, PLAN1)
    assert (cert.d_lower, cert.rd_upper) == (72, 1201)
    assert Fraction(72 * 72, 4) - 72 >= 1201


def test_side_condition_raises():
    # a violated side condition gives a certificate with no bound
    plan = cft.RamificationPlan(P2, ((5, 1, 2),), 6)  # rank sum 5 < t
    assert not plan.side_condition_ok
    cert = cft.certify_tower(10, plan)
    assert not cert.side_condition_ok and cert.d_lower == 0
    assert not cert.infinite
    assert cert.bound is None and cert.bound_refined is None


def test_boundary_t_reports_negative_margin():
    plan = cft.RamificationPlan(P2, ((5, 1, 2), (8, 27, 2), (10, 1, 2)), 231)
    cert = cft.certify_tower(276, plan)  # t equals the rank sum: side condition holds
    assert cert.side_condition_ok
    assert cert.gs_margin == margin_oracle(P2, plan.entries, 231) < 0
    assert not cert.infinite


def test_certifies_matches_rational_reference():
    for d in range(-5, 80):
        for rd in range(-5, 1500):
            if d < 0 or rd < 0:
                assert not cft.certifies(d, rd)
            else:
                assert cft.certifies(d, rd) == gs_margin_raw(d, rd)


def _runs_by_scan(d, dd, rd, drd, m_max):
    certified = [m for m in range(1, m_max + 1) if cft.certifies(d + m * dd, rd + m * drd)]
    runs = []
    for m in certified:
        if runs and runs[-1][1] == m - 1:
            runs[-1] = (runs[-1][0], m)
        else:
            runs.append((m, m))
    return runs


def test_certifying_runs_match_certifies_on_a_grid():
    for d in range(-12, 13):
        for dd in range(1, 6):
            for rd in range(-12, 13):
                for drd in range(0, 6):
                    for m_max in (-1, 0, 1, 2, 7):
                        runs = cft.certifying_runs(d, dd, rd, drd, m_max)
                        assert runs == _runs_by_scan(d, dd, rd, drd, m_max), (d, dd, rd, drd)


def test_certifying_runs_match_certifies_at_search_scale():
    # the optimizer's shape: dd and drd a place's rank and rd bound, d and
    # rd the prefix's, both sides of every root and of the linear bounds
    rng = random.Random(14)
    two_runs = 0
    for _ in range(3000):
        d, rd = rng.randint(-300, 300), rng.randint(-2000, 20000)
        dd, drd = rng.randint(1, 40), rng.randint(0, 900)
        m_max = rng.randint(0, 60)
        runs = cft.certifying_runs(d, dd, rd, drd, m_max)
        assert runs == _runs_by_scan(d, dd, rd, drd, m_max), (d, dd, rd, drd, m_max)
        two_runs += len(runs) == 2
    assert two_runs


def test_certifying_runs_refuses_other_slopes():
    for dd, drd in ((0, 1), (1, -1)):
        with pytest.raises(OutOfRange):
            cft.certifying_runs(5, dd, 5, drd, 3)


def test_gs_margin_raw_examples():
    assert gs_margin_raw(72, 1201) is True
    assert gs_margin_raw(4, 1) is False
    assert gs_margin_raw(4, 0) is True
    assert gs_margin_raw(0, 0) is False  # a trivial group contradicts nothing
    with pytest.raises(ValueError):
        gs_margin_raw(-1, 0)


def test_genus_goldens():
    assert cft.genus_from_conductors(1, cft.CharacterConductorProfile(((10, 1), (18, 30)), 32)) == 276
    assert cft.genus_from_conductors(2, cft.CharacterConductorProfile(((20, 31),), 32)) == 343
    assert cft.genus_from_conductors(1, cft.CharacterConductorProfile(((15, 80),), 81)) == 601


def test_genus_parity_violation():
    with pytest.raises(InconsistentModel, match="is odd"):
        cft.genus_from_conductors(1, cft.CharacterConductorProfile(((3, 1),), 2))


def test_profile_character_count_enforced():
    with pytest.raises(ValueError):
        cft.CharacterConductorProfile(((10, 5),), 32)


def test_bounds_golden():
    assert cft.certify_tower(276, PLAN1).bound == Fraction(80, 253)
    assert cft.certify_tower(343, PLAN2).bound == Fraction(6, 19)
    assert cft.certify_tower(601, PLAN3A).bound == Fraction(63, 128)
    assert cft.certify_tower(276, PLAN1).bound_refined == Fraction(16384, 51711)
    assert cft.certify_tower(276, PLAN1).bound_refined == Fraction(2**14, 2**9 * 101 - 1)


def test_refined_decimals():
    from towerbound.cli import truncate_decimal

    refined2 = cft.certify_tower(343, PLAN2).bound_refined
    refined3 = cft.certify_tower(601, PLAN3B).bound_refined
    assert truncate_decimal(refined2)[: len("0.316999")] == "0.316999"
    assert truncate_decimal(refined3)[: len("0.492876")] == "0.492876"
    assert truncate_decimal(Fraction(80, 253))[: len("0.316205")] == "0.316205"


def test_not_certified_raises():
    # a negative margin gives a certificate with no bound
    plan = cft.RamificationPlan(P2, ((5, 1, 2),), 5)  # d = 1, margin < 0
    cert = cft.certify_tower(10, plan)
    assert cert.side_condition_ok and cert.d_lower == 1 and cert.gs_margin < 0
    assert not cert.infinite
    assert cert.bound is None and cert.bound_refined is None


def test_asymptotic_ratio_consistent_with_bounds():
    # lifting t and the genus through a degree-[K:k] cover leaves the ratio
    # equal to the plain bound: t*[K:k] / (g(K) - 1) with
    # g(K) - 1 = [K:k]*(g - 1 + conductor_degree/2)
    for genus, plan in ((276, PLAN1), (343, PLAN2), (601, PLAN3A)):
        order = 4096  # any cover degree works; the ratio is scale-invariant
        gk_minus_1 = order * (genus - 1) + order * plan.conductor_degree // 2
        plain = cft.certify_tower(genus, plan).bound
        assert Fraction(plan.t * order, gk_minus_1) == plain
    assert Fraction(567 * 81, 81 * (601 - 1 + 3 * 368 // 2)) == Fraction(63, 128)


def test_certify_tower_certificate():
    cert = cft.certify_tower(276, PLAN1)
    assert cert.infinite and cert.gs_margin == 92
    assert cert.bound == Fraction(80, 253)
    assert cert.bound_refined == Fraction(16384, 51711)
    assert cert.warnings == ()
    cert3 = cft.certify_tower(601, PLAN3B)
    assert cert3.infinite and cert3.warnings  # exponent discrepancy flagged for nu = p = 3
    bad = cft.certify_tower(276, cft.RamificationPlan(P2, ((5, 1, 2), (8, 27, 2), (10, 1, 2)), 231))
    assert not bad.infinite and bad.bound is None and bad.gs_margin < 0


def test_plan_feasibility_against_spectrum(spectrum_k1):
    cft.RamificationPlan(P2, ((5, 1, 2), (8, 27, 2), (10, 1, 2)), 160, spectrum_k1)
    with pytest.raises(InconsistentModel):
        cft.RamificationPlan(P2, ((5, 2, 2),), 160, spectrum_k1)  # only one degree-5 place
    with pytest.raises(InconsistentModel):
        cft.RamificationPlan(P2, ((8, 27, 2),), 161, spectrum_k1)  # t > a_1
    with pytest.raises(InconsistentModel):
        cft.RamificationPlan(P2, ((1, 1, 2),), 160, spectrum_k1)  # S and T need a_1 + 1 places


def random_plan(rnd):
    params = FieldParams(rnd.choice((2, 3)), rnd.choice((1, 1, 1, 2)))
    entries = tuple(
        (rnd.randint(1, 12), rnd.randint(1, 40), rnd.randint(2, 6))
        for _ in range(rnd.randint(1, 5))
    )
    rank_sum = sum(c * cft.local_unit_rank(params, f, nu) for f, c, nu in entries)
    t = rnd.randint(1, rank_sum)
    return cft.RamificationPlan(params, entries, t)


def test_random_plans_identities_10000():
    rnd = random.Random(20240803)
    for _ in range(10_000):
        plan = random_plan(rnd)
        cert = cft.certify_tower(2, plan)
        d, rd = cert.d_lower, cert.rd_upper
        # the margin is 4 * (d^2/4 - d - rd); both formulations agree
        assert cert.gs_margin == d * d - 4 * d - 4 * rd
        assert cert.infinite == gs_margin_raw(d, rd)
        assert cert.gs_margin == margin_oracle(plan.params, plan.entries, plan.t)
        # raising t by one drops the margin by exactly 2*d - 1
        bumped_margin = margin_oracle(plan.params, plan.entries, plan.t + 1)
        assert bumped_margin == cert.gs_margin - 2 * d + 1


def test_monotonicity_in_entries():
    rnd = random.Random(99)
    for _ in range(300):
        plan = random_plan(rnd)
        extra = plan.entries + ((rnd.randint(1, 9), 1, rnd.randint(2, 5)),)
        grown = cft.RamificationPlan(plan.params, extra, plan.t)
        assert grown.rank_sum >= plan.rank_sum


def test_refined_beats_plain_whenever_s_nonempty():
    rnd = random.Random(4)
    for _ in range(500):
        plan = random_plan(rnd)
        genus = rnd.randint(2, 700)
        plain = Fraction(plan.t) / cft._plain_denominator(genus, plan)
        refined = Fraction(plan.t) / cft._refined_denominator(genus, plan)
        assert refined > plain
        assert cft._refined_denominator(genus, plan) < cft._plain_denominator(genus, plan)
