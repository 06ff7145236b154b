"""Acceptance suite: one test per criterion, each printing its pass line.

Every expected value here is either pinned from an independent derivation
(brute-force enumeration, literal evaluation of the certification
inequality) or is a published golden value reproduced exactly; tolerances
are zero throughout, except where a decimal is compared by truncated
prefix, which is the stated contract for those values.
"""

import random
from fractions import Fraction

import pytest

from towerbound import cft, cli, cover, curve, search
from towerbound.errors import InconsistentModel
from towerbound.ff import FieldParams, make_ext_field

from conftest import conjugate_points, plain_eval_poly2
from test_cft import gs_margin_raw

P2 = FieldParams(2)
P3 = FieldParams(3)


def _ok(label):
    print(f"ACCEPTANCE {label}: PASS")


# -- 1: spectrum goldens ------------------------------------------------------


def test_criterion_1_spectrum_goldens(
    curve_E, curve_H, curve_E3, cover_C, spectrum_k1, spectrum_k2, spectrum_k3
):
    assert curve.spectrum_from_counts(curve_E, 8).a_tuple(8) == (5, 0, 0, 5, 4, 10, 20, 25)
    assert cover.assemble_spectrum(cover_C, 5).a_tuple(5) == (10, 0, 0, 0, 3)
    assert curve.spectrum_from_counts(curve_H, 5).a_tuple(5) == (6, 0, 1, 1, 6)
    assert curve.spectrum_from_counts(curve_E3, 5).a_tuple(5) == (7, 0, 7, 21, 42)
    assert spectrum_k1.a_tuple(10) == (160, 0, 0, 0, 1, 0, 0, 65, 0, 48)
    assert spectrum_k2.a_tuple(10) == (192, 0, 0, 0, 2, 16, 0, 16, 0, 64)
    assert spectrum_k3.a_tuple(9) == (567, 0, 0, 0, 1, 0, 0, 162, 1809)
    _ok("1 (spectrum goldens, exact)")


# -- 2: genus goldens and zeta checks ----------------------------------------


def brute_points(model, n):
    F = make_ext_field(model.params, n)
    poly = model.poly_dict
    total = sum(
        1
        for x in range(F.order)
        for y in range(F.order)
        if plain_eval_poly2(F, poly, x, y) == 0
    )
    for m, cnt in model.infinite_places:
        if n % m == 0:
            total += m * cnt
    return total


def test_criterion_2_genus_and_zeta(curve_E, curve_H, curve_E3):
    assert cft.genus_from_conductors(1, cft.CharacterConductorProfile(((10, 1), (18, 30)), 32)) == 276
    assert cft.genus_from_conductors(2, cft.CharacterConductorProfile(((20, 31),), 32)) == 343
    assert cft.genus_from_conductors(1, cft.CharacterConductorProfile(((15, 80),), 81)) == 601
    for model in (curve_E, curve_H, curve_E3):
        spec = curve.spectrum_from_counts(model, 4)
        assert curve.zeta_check(spec).passed
        for n in range(1, 5):
            assert spec.n_map[n] == brute_points(model, n)
    _ok("2 (genus goldens 276/343/601; zeta passes with brute-force N_n, n <= 4)")


# -- 3: certification margins -------------------------------------------------


def inequality_margin(params, entries, t):
    """Independent big-integer evaluation of the infinitude inequality."""
    p, e = params.p, params.e
    expanded = [(f, nu) for f, count, nu in entries for _ in range(count)]
    s_rank = sum(e * f * ((nu - 1) - (nu - 1) // p) for f, nu in expanded)
    s_quad = sum(e * f * (nu - 1) * (e * f * (nu - 1) + 1) for f, nu in expanded)
    return (1 + s_rank - t) ** 2 - 2 * s_quad - 4 * s_rank, t <= s_rank


CERT_CASES = [  # (params, entries, t, genus, margin)
    (P2, ((5, 1, 2), (8, 27, 2), (10, 1, 2)), 160, 276, 92),
    (P2, ((5, 2, 2), (6, 16, 2), (8, 15, 2), (10, 4, 2)), 192, 343, 57),
    (P3, ((8, 46, 3),), 567, 601, 932),
    (P3, ((5, 1, 3), (8, 43, 3), (9, 2, 3)), 567, 601, 308),
]


def test_criterion_3_certification_margins():
    for params, entries, t, genus, pinned in CERT_CASES:
        oracle_margin, oracle_side = inequality_margin(params, entries, t)
        assert oracle_margin == pinned
        assert oracle_side
        plan = cft.RamificationPlan(params, entries, t)
        cert = cft.certify_tower(genus, plan)
        assert cert.gs_margin == pinned
        assert cert.infinite
        assert plan.side_condition_ok
    _ok("3 (margins 92/57/932/308; all certify; side condition holds)")


# -- 4: exact rational bounds -------------------------------------------------


def test_criterion_4_bounds():
    plan1 = cft.RamificationPlan(P2, ((5, 1, 2), (8, 27, 2), (10, 1, 2)), 160)
    plan2 = cft.RamificationPlan(P2, ((5, 2, 2), (6, 16, 2), (8, 15, 2), (10, 4, 2)), 192)
    plan3a = cft.RamificationPlan(P3, ((8, 46, 3),), 567)
    plan3b = cft.RamificationPlan(P3, ((5, 1, 3), (8, 43, 3), (9, 2, 3)), 567)
    cert1 = cft.certify_tower(276, plan1)
    cert2 = cft.certify_tower(343, plan2)
    cert3a = cft.certify_tower(601, plan3a)
    cert3b = cft.certify_tower(601, plan3b)
    assert cert1.bound == Fraction(80, 253)
    assert cert2.bound == Fraction(6, 19)
    assert cert3a.bound == Fraction(63, 128)
    assert cert1.bound_refined == Fraction(16384, 51711)
    assert cli.truncate_decimal(cert2.bound_refined, 6) == "0.316999"
    assert cli.truncate_decimal(cert3b.bound_refined, 6) == "0.492876"
    _ok("4 (bounds 80/253, 6/19, 63/128, 16384/51711; decimals 0.316999 / 0.492876)")


# -- 5: remark reproduction ---------------------------------------------------


def test_criterion_5_method_comparison():
    cases = [
        (search.MethodComparisonInput(s=21, l=2, t=20, s_prime=1, t_size=81), "usual", (20, 80)),
        (search.MethodComparisonInput(s=21, l=2, t=21, s_prime=1, t_size=85), "ours", (21, 82)),
        (search.MethodComparisonInput(s=24, l=2, t=24, s_prime=1, t_size=97), "usual", (22, 96)),
        (search.MethodComparisonInput(s=24, l=2, t=24, s_prime=3, t_size=99), "ours", (22, 92)),
    ]
    for inp, which, want in cases:
        pair = getattr(search.compare_methods(inp), which)
        assert (pair.d_lower, pair.rd_upper) == want
    _ok("5 (method comparison pairs (20,80), (21,82), (22,96), (22,92))")


# -- 6: property suites -------------------------------------------------------


def test_criterion_6a_mobius_and_weil_on_synthetic_spectra():
    rnd = random.Random(61)
    for _ in range(200):
        q = rnd.choice((2, 3))
        d_max = rnd.randint(2, 6)
        a = {d: rnd.randint(0, 50) for d in range(1, d_max + 1)}
        a[1] = max(a[1], 1)
        N = curve.spectrum_to_counts(a, d_max)
        assert curve.counts_to_spectrum(N, d_max) == a  # exact round trip
        genus = 0
        for n, Nn in N.items():
            while 4 * genus * genus * q**n < (Nn - q**n - 1) ** 2:
                genus += 1
        spec = curve.PlaceSpectrum.from_spectrum(FieldParams(q), a, genus)
        spec.validate()
        if genus:
            with pytest.raises(InconsistentModel):
                curve.PlaceSpectrum.from_spectrum(FieldParams(q), a, genus - 1)
    _ok("6a (Moebius round trip and Weil bound on 200 synthetic spectra)")


def test_criterion_6b_decomposition_exhaustive_deg_le_6(cover_k1, cover_k2, cover_k3):
    for cov in (cover_k1, cover_k2, cover_k3):
        p, r = cov.params.p, cov.rank
        declared = cov.support_map()
        checked = 0
        for d in range(1, 7):
            F = make_ext_field(cov.params, d)
            for pl in curve.enumerate_places(cov.base, d):
                if pl.key in declared:
                    continue
                # one trace vector at every conjugate point of the place
                points = conjugate_points(F, pl.key)
                vectors = {tuple(cover._component_traces(cov, F, x, y)) for x, y in points}
                rec = cover.decompose_place(cov, pl)
                assert vectors == {rec.frobenius_vector}
                total = sum(deg * cnt for deg, cnt in rec.places_above)
                assert total == d * p**r
                checked += 1
        assert checked > 0
    _ok("6b (degree-index balance and representative independence, all places deg <= 6)")


def test_criterion_6c_margin_identity_10000_plans():
    rnd = random.Random(63)
    for _ in range(10_000):
        params = FieldParams(rnd.choice((2, 3)))
        entries = tuple(
            (rnd.randint(1, 12), rnd.randint(1, 40), rnd.randint(2, 6))
            for _ in range(rnd.randint(1, 5))
        )
        rank_sum = sum(c * cft.local_unit_rank(params, f, nu) for f, c, nu in entries)
        t = rnd.randint(1, rank_sum)
        plan = cft.RamificationPlan(params, entries, t)
        cert = cft.certify_tower(2, plan)
        d, rd = cert.d_lower, cert.rd_upper
        assert cert.gs_margin == d * d - 4 * d - 4 * rd
        assert cert.infinite == gs_margin_raw(d, rd)
        bumped, _ = inequality_margin(params, entries, t + 1)
        assert bumped == cert.gs_margin - 2 * d + 1
    _ok("6c (gs margin identities on 10000 random plans)")


def test_criterion_6d_refined_beats_plain():
    rnd = random.Random(64)
    for _ in range(500):
        params = FieldParams(rnd.choice((2, 3)))
        entries = tuple(
            (rnd.randint(1, 10), rnd.randint(1, 30), rnd.randint(2, 5))
            for _ in range(rnd.randint(1, 4))
        )
        rank_sum = sum(c * cft.local_unit_rank(params, f, nu) for f, c, nu in entries)
        plan = cft.RamificationPlan(params, entries, rnd.randint(1, rank_sum))
        genus = rnd.randint(2, 600)
        assert (
            Fraction(plan.t) / cft._refined_denominator(genus, plan)
            > Fraction(plan.t) / cft._plain_denominator(genus, plan)
        )
    _ok("6d (refined bound strictly beats plain whenever S is nonempty)")


# -- 7: oracle cross-check ----------------------------------------------------


def test_criterion_7_oracle_residuals(
    cover_k1, cover_k2, cover_k3, spectrum_k1, spectrum_k2, spectrum_k3
):
    for cov, spec in ((cover_k1, spectrum_k1), (cover_k2, spectrum_k2), (cover_k3, spectrum_k3)):
        for n in (1, 2):
            rep = cover.oracle_report(cov, spec, n)
            assert rep.residual == 0
            assert (
                rep.brute_count
                == rep.spectrum_points
                - rep.infinite_points
                - rep.declared_points
                + rep.singular_solutions
            )
    _ok("7 (brute-force residual accounting sums to zero, all covers, n in {1,2})")


# -- 8: optimizer -------------------------------------------------------------


def test_criterion_8_optimizer(spectrum_k1, spectrum_k2, spectrum_k3):
    targets = [
        (spectrum_k1, 276, (5, 6, 7, 8, 9, 10), ((5, 1, 2), (8, 27, 2), (10, 1, 2)), 160,
         Fraction(16384, 51711)),
        (spectrum_k2, 343, (5, 6, 7, 8, 9, 10),
         ((5, 2, 2), (6, 16, 2), (8, 15, 2), (10, 4, 2)), 192, Fraction(24576, 77527)),
        (spectrum_k3, 601, (5, 6, 7, 8, 9), ((5, 1, 3), (8, 43, 3), (9, 2, 3)), 567,
         Fraction(1240029, 2515901)),
    ]
    for spec, genus, degrees, paper_entries, paper_t, paper_bound in targets:
        space = search.SearchSpace(spectrum=spec, degrees=degrees)
        result = search.optimize(space)
        # the published plan lies inside the space and certifies
        plan = cft.RamificationPlan(spec.params, paper_entries, paper_t, available_spectrum=spec)
        assert cft.certify_tower(genus, plan).bound_refined == paper_bound
        assert result.best[1].bound_refined >= paper_bound
        again = search.optimize(space)
        assert [(p.entries, p.t) for p, _ in result.ranked] == [
            (p.entries, p.t) for p, _ in again.ranked
        ]
        assert result.candidates_evaluated == again.candidates_evaluated
    _ok("8 (optimizer dominates the published plans; double run identical)")
