"""Point counts, spectra, places and the zeta consistency check."""

import dataclasses
import random

import pytest

from towerbound import curve
from towerbound.errors import InconsistentModel
from towerbound.ff import FieldParams, make_ext_field

P2 = FieldParams(2)
P3 = FieldParams(3)


def brute_count_points(model, n):
    """Independent oracle: direct double loop over (x, y) pairs."""
    F = make_ext_field(model.params, n)
    poly = model.poly_dict
    total = 0
    for x in range(F.order):
        for y in range(F.order):
            if curve.eval_poly2(F, poly, x, y) == 0:
                total += 1
    for m, cnt in model.infinite_places:
        if n % m == 0:
            total += m * cnt
    return total


# frozen from brute_count_points at first computation; the elliptic curve
# y^2 + y = x^3 + x over F_2 has trace -2, so N_n = 2^n + 1 - a^n - b^n
E_COUNTS = {1: 5, 2: 5, 3: 5, 4: 25}
H_COUNTS = {1: 6, 2: 6, 3: 9, 4: 10}
E3_COUNTS = {1: 7, 2: 7, 3: 28, 4: 91}


@pytest.mark.parametrize("name,expected", [("E", E_COUNTS), ("H", H_COUNTS), ("E3", E3_COUNTS)])
def test_count_points_against_brute_force(name, expected, curve_E, curve_H, curve_E3):
    model = {"E": curve_E, "H": curve_H, "E3": curve_E3}[name]
    for n, want in expected.items():
        assert curve.count_points(model, n) == want
        assert brute_count_points(model, n) == want


def test_counts_over_the_largest_tabled_fields(curve_E, curve_E3):
    # both follow from N_1 through the L-polynomial: 1 + 2T + 2T^2 for E over
    # F_2, 1 + 3T + 3T^2 for E3 over F_3
    assert curve.count_points(curve_E, 17) == 131585
    assert curve.count_points(curve_E3, 10) == 58807


def test_projective_line_counts():
    p1 = curve.CurveModel.create(P2, {(0, 1): 1}, ((1, 1),), genus=0, name="P1")
    for n in (1, 2, 3, 4):
        assert curve.count_points(p1, n) == 2**n + 1
    spec = curve.spectrum_from_counts(p1, 3)
    assert spec.a_tuple(3) == (3, 1, 2)


def test_spectrum_goldens(curve_E, curve_H, curve_E3):
    assert curve.spectrum_from_counts(curve_E, 8).a_tuple(8) == (5, 0, 0, 5, 4, 10, 20, 25)
    assert curve.spectrum_from_counts(curve_H, 5).a_tuple(5) == (6, 0, 1, 1, 6)
    assert curve.spectrum_from_counts(curve_E3, 5).a_tuple(5) == (7, 0, 7, 21, 42)


def test_infinite_place_divisibility():
    # an infinite place of degree m contributes m points exactly when m | n
    model = curve.CurveModel.create(P2, {(0, 1): 1}, ((3, 1),), genus=0, name="odd-inf")
    assert curve.count_points(model, 1) == 2
    assert curve.count_points(model, 2) == 4
    assert curve.count_points(model, 3) == 8 + 3


def test_mobius_values():
    assert [curve.mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_mobius_round_trip(curve_E):
    spec = curve.spectrum_from_counts(curve_E, 10)
    amap = spec.a_map
    for n in range(1, 11):
        assert sum(d * amap[d] for d in curve.divisors(n)) == spec.n_map[n]


def test_counts_to_spectrum_rejects_negative():
    with pytest.raises(InconsistentModel):
        curve.counts_to_spectrum({1: 5, 2: 3}, 2)  # a_2 = (3 - 5)/2 < 0


def test_counts_to_spectrum_rejects_non_integral():
    with pytest.raises(InconsistentModel):
        curve.counts_to_spectrum({1: 5, 2: 8}, 2)  # a_2 = 3/2


def test_weil_violation_rejected(curve_E):
    # declaring genus 0 for the elliptic model must fail at n = 4 (N_4 = 25)
    wrong = dataclasses.replace(curve_E, genus=0)
    with pytest.raises(InconsistentModel):
        curve.spectrum_from_counts(wrong, 4)


def test_enumerate_places_counts(curve_E, curve_E3):
    specE = curve.spectrum_from_counts(curve_E, 8)
    for d in range(1, 9):
        assert len(curve.enumerate_places(curve_E, d)) == specE.a_map[d]
    specE3 = curve.spectrum_from_counts(curve_E3, 6)
    for d in range(1, 7):
        assert len(curve.enumerate_places(curve_E3, d)) == specE3.a_map[d]


def test_galois_orbit_partition(curve_E, curve_E3):
    # points over F_{q^n} partitioned by minimal field: sum of d*a_d over d | n
    # (places counted as orbits) equals the direct point count
    for model, n_max in ((curve_E, 10), (curve_E3, 9)):
        by_degree = {d: len(curve.enumerate_places(model, d)) for d in range(1, n_max + 1)}
        for n in range(1, n_max + 1):
            via_orbits = sum(d * by_degree[d] for d in curve.divisors(n))
            assert via_orbits == curve.count_points(model, n)


def test_place_keys_canonical(curve_E):
    places = curve.enumerate_places(curve_E, 4)
    F = make_ext_field(P2, 4)
    for pl in places:
        x, y = pl.rep
        conj = curve.make_affine_place(curve_E, 4, F.frobenius_base(x), F.frobenius_base(y))
        assert conj.key == pl.key
        assert conj == pl  # rep does not participate in equality


def test_make_affine_place_rejects_off_curve(curve_E):
    # over F_4, x = g has no y on E at all, and x = 0 only allows y in {0, 1}
    with pytest.raises(ValueError):
        curve.make_affine_place(curve_E, 2, 2, 0)
    with pytest.raises(ValueError):
        curve.make_affine_place(curve_E, 2, 0, 2)


def test_make_affine_place_rejects_wrong_degree(curve_E):
    with pytest.raises(ValueError):
        curve.make_affine_place(curve_E, 2, 0, 0)  # rational point, not a degree-2 place


def test_zeta_goldens(curve_E, curve_H, curve_E3):
    zE = curve.zeta_check(curve.spectrum_from_counts(curve_E, 4))
    assert zE.passed and zE.l_coeffs == (1, 2, 2)
    assert dict(zE.predicted)[2] == 5
    zH = curve.zeta_check(curve.spectrum_from_counts(curve_H, 4))
    assert zH.passed and zH.l_coeffs == (1, 3, 5, 6, 4)
    assert dict(zH.predicted) == {3: 9, 4: 10}
    zE3 = curve.zeta_check(curve.spectrum_from_counts(curve_E3, 4))
    assert zE3.passed and zE3.l_coeffs == (1, 3, 3)


def test_zeta_genus_zero():
    p1 = curve.CurveModel.create(P2, {(0, 1): 1}, ((1, 1),), genus=0)
    z = curve.zeta_check(curve.spectrum_from_counts(p1, 4))
    assert z.passed and z.l_coeffs == (1,)


def test_zeta_detects_wrong_genus(curve_E):
    spec = curve.spectrum_from_counts(curve_E, 4)
    wrong = dataclasses.replace(spec, genus=2)
    z = curve.zeta_check(wrong)
    assert not z.passed
    assert z.discrepancies


def test_random_synthetic_spectra_round_trip_and_weil():
    rnd = random.Random(7)
    for _ in range(200):
        q = rnd.choice((2, 3))
        params = FieldParams(q)
        d_max = rnd.randint(2, 6)
        a = {d: rnd.randint(0, 40) for d in range(1, d_max + 1)}
        a[1] = rnd.randint(1, 12)
        N = curve.spectrum_to_counts(a, d_max)
        # round trip is exact
        assert curve.counts_to_spectrum(N, d_max) == a
        # smallest genus making the Weil bound hold; the validator must accept
        # it and reject genus - 1 when that is lower
        need = 0
        for n, Nn in N.items():
            dev = abs(Nn - q**n - 1)
            while 4 * need * need * q**n < dev * dev:
                need += 1
        spec = curve.PlaceSpectrum.from_spectrum(params, a, need)
        assert spec.a_map == a
        if need >= 1:
            with pytest.raises(InconsistentModel):
                curve.PlaceSpectrum.from_spectrum(params, a, need - 1)
