"""Point counts, spectra, places and the zeta consistency check."""

import dataclasses
import random
import time
from itertools import product

import pytest

from towerbound import curve
from towerbound.errors import InconsistentModel, OutOfRange, UnsupportedSize
from towerbound.ff import ExtField, FieldParams, make_ext_field

from conftest import plain_eval_poly2

P2 = FieldParams(2)
P3 = FieldParams(3)


def brute_count_points(model, n):
    """Independent oracle: direct double loop over (x, y) pairs."""
    F = make_ext_field(model.params, n)
    poly = model.poly_dict
    total = 0
    for x in range(F.order):
        for y in range(F.order):
            if plain_eval_poly2(F, poly, x, y) == 0:
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


def _genus3_y_cubic():
    """y^3 + y = x^4 + x + 1 over F_2: y-degree 3, so roots come from the gcd path."""
    return curve.CurveModel.create(
        P2, {(0, 3): 1, (0, 1): 1, (4, 0): 1, (1, 0): 1, (0, 0): 1}, ((1, 1),), genus=3, name="G"
    )


def test_degree_three_root_path_against_brute_force():
    model = _genus3_y_cubic()
    N = {n: curve.count_points(model, n) for n in range(1, 5)}
    assert N == {n: brute_count_points(model, n) for n in range(1, 5)} == {1: 1, 2: 1, 3: 13, 4: 33}
    # places (enumerate_places) group the roots that the counts take the
    # lengths of; the brute force above checks the counts themselves
    a = {d: len(curve.enumerate_places(model, d)) for d in range(1, 5)}
    for n in range(1, 5):
        assert sum(d * a[d] for d in curve.divisors(n)) == N[n]


def _plane():
    """0 = 0, the whole plane: its y-polynomial vanishes over every x."""
    return curve.CurveModel.create(P2, {}, ((1, 1),), genus=0, name="0=0")


def reference_places(model, d):
    """The whole-field scan: every affine solution over F_{q^d}, grouped into
    Frobenius orbits, one (degree, key) per orbit of size d, by key."""
    F = make_ext_field(model.params, d)
    seen, out = set(), []
    for pt in curve.affine_solutions(model, d):
        if pt in seen:
            continue
        orbit = [pt]
        while (nxt := tuple(F.frobenius_base(c) for c in orbit[-1])) != pt:
            orbit.append(nxt)
        seen.update(orbit)
        if len(orbit) == d:
            out.append((d, min(orbit)))
    return sorted(out)


def test_orbit_scan_matches_whole_field_scan(curve_E, curve_H, curve_E3):
    line = curve.CurveModel.create(P2, {(0, 1): 1}, ((1, 1),), genus=0, name="y=0")
    e_over_f4 = dataclasses.replace(curve_E, params=FieldParams(2, 2))
    # x^2 + x = 0: the two vertical lines x = 0 and x = 1
    lines = curve.CurveModel.create(P2, {(2, 0): 1, (1, 0): 1}, ((1, 1),), genus=0, name="x=0,1")
    cases = [(curve_E, 12), (curve_H, 11), (curve_E3, 7), (_genus3_y_cubic(), 8),
             (line, 8), (e_over_f4, 5), (_plane(), 4), (lines, 4)]
    for model, d_max in cases:
        for d in range(1, d_max + 1):
            places = curve.enumerate_places(model, d)
            affine = [(pl.degree, pl.key) for pl in places if not pl.is_infinite]
            assert affine == reference_places(model, d), (model.name, d)
            assert curve.count_affine(model, d) == sum(1 for _ in curve.affine_solutions(model, d))


def test_vertical_component_counts_without_listing_roots():
    # over every x the y-polynomial of 0 = 0 vanishes: a list of its 2^16
    # roots per orbit takes seconds, where the count is the field order
    make_ext_field(P2, 16)  # time the count, not the field build
    start = time.perf_counter()
    assert curve.count_affine(_plane(), 16) == 2**32
    assert time.perf_counter() - start < 1.0


def test_one_y_polynomial_per_frobenius_orbit(curve_E, monkeypatch):
    # F_2^12 has 352 orbits of x -> x^2 against 4,096 elements: a fallback to
    # the whole-field scan fails here, not just runs slower
    calls = []
    chunk_roots = curve._chunk_roots

    def counted(F, coeffs, xs):
        calls.extend(xs)
        return chunk_roots(F, coeffs, xs)

    monkeypatch.setattr(curve, "_chunk_roots", counted)
    curve.count_affine(curve_E, 12)
    assert len(calls) == len(set(calls)) == 352
    calls.clear()
    curve.enumerate_places(curve_E, 12)
    assert len(calls) == len(set(calls)) == 352


# constant, pure-x, pure-y and mixed terms; mod 3 and mod 257 the
# coefficients are not all 1, and mod 5 and mod 7 some are neither 1 nor
# p - 1 (over F_3 every coefficient is one of the two, so a lost or wrong
# coefficient log could pass there)
MIXED_POLY = {(0, 0): 5, (4, 0): 7, (0, 3): 11, (2, 1): 13, (1, 2): 2}


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2), (7, 2), (257, 1)])
def test_compiled_terms_match_plain_arithmetic(p, n):
    # every point of the plane, x = 0 and y = 0 included; several polynomials
    # in one call, each compiled for the point's zero pattern
    F = make_ext_field(FieldParams(p), n)
    polys = [MIXED_POLY, {(0, 0): 3}, {(1, 0): 2, (0, 1): 1}, {}]
    canonical = [tuple(curve.normalize_poly2(poly, p).items()) for poly in polys]
    compiled = curve.compile_poly2(canonical)
    log = F._log
    for x in range(F.order):
        for y in range(F.order):
            want = [plain_eval_poly2(F, poly, x, y) for poly in polys]
            got = curve.eval_compiled(F, compiled[not x, not y], log[x], log[y])
            assert got == [_log_or_minus_one(F, v) for v in want]


def _log_or_minus_one(F, a):
    """The log of a packed element, -1 for zero: how the kernels hold values."""
    return F._log[a] if a else -1


def _quadratic_roots(F, a0, a1, a2):
    """curve._quadratic_roots on the logs of packed coefficients."""
    return curve._quadratic_roots(F, *(_log_or_minus_one(F, a) for a in (a0, a1, a2)))


def _brute_quadratic_roots(F, a0, a1, a2):
    """The roots of a2 y^2 + a1 y + a0 by a scan of F with F.add and F.mul, in
    the order _quadratic_roots promises: by the packed value of the square
    root r = 2 a2 y + a1 of the discriminant (odd p), or of the solution
    w = a2 y / a1 of w^2 + w = a0 a2 / a1^2 (p = 2, a1 != 0)."""
    add, mul = F.add, F.mul
    roots = [y for y in range(F.order) if add(add(mul(a2, mul(y, y)), mul(a1, y)), a0) == 0]
    if F.p == 2:
        return sorted(roots, key=lambda y: F.div(mul(a2, y), a1) if a1 else 0)
    return sorted(roots, key=lambda y: add(mul(2 % F.p, mul(a2, y)), a1))


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2), (7, 1)])
def test_quadratic_roots_against_brute_scan(p, n):
    # every (a0, a1, a2) with a2 != 0: over F_3, 4 = 1 and 2 = -1, so the
    # constants of the quadratic formula are only checked over F_5 and F_7
    F = make_ext_field(FieldParams(p), n)
    for a0, a1, a2 in product(range(F.order), range(F.order), range(1, F.order)):
        assert _quadratic_roots(F, a0, a1, a2) == _brute_quadratic_roots(F, a0, a1, a2), (
            a0, a1, a2,
        )


def test_quadratic_roots_over_f257():
    F = make_ext_field(FieldParams(257), 1)
    rng = random.Random(257)
    triples = [(0, 0, 1), (0, 5, 3), (7, 0, 1), (1, 2, 1)]  # zero terms and a double root
    triples += [(rng.randrange(257), rng.randrange(257), rng.randrange(1, 257)) for _ in range(300)]
    for a0, a1, a2 in triples:
        assert _quadratic_roots(F, a0, a1, a2) == _brute_quadratic_roots(F, a0, a1, a2), (
            a0, a1, a2,
        )


def test_point_kernels_call_no_element_methods(curve_E, curve_E3, monkeypatch):
    # the columns of y-coefficients, eval_compiled and _quadratic_roots read
    # the field's tables themselves, solve_additive's included
    for model in (curve_E, curve_E3):
        for n in range(1, 5):
            make_ext_field(model.params, n)  # built before the methods go

    def forbidden(*args):
        raise AssertionError("element method called from a point kernel")

    for name in ("add", "sub", "neg", "mul", "div", "inv", "pow", "sqrt_list", "solve_additive"):
        monkeypatch.setattr(ExtField, name, forbidden)
    assert {n: curve.count_points(curve_E, n) for n in range(1, 5)} == E_COUNTS
    assert {n: curve.count_points(curve_E3, n) for n in range(1, 5)} == E3_COUNTS


def test_y_polynomial_matches_plain_coefficients(curve_E, curve_H, curve_E3):
    # the shipped models would hide a lost zero pattern: at x = 0, reading
    # each x^i as 1 happens to give every coefficient's true value (x^3 + x
    # over F_2, -x^3 + x - 1 over F_3); MIXED_POLY's 2 + x^4 over F_3 does not
    mixed = curve.CurveModel.create(P3, MIXED_POLY, name="mixed")
    models = ((curve_E, 4), (curve_H, 4), (curve_E3, 3), (_genus3_y_cubic(), 4), (mixed, 3))
    for model, n_max in models:
        deg_y = max(j for (_, j), _ in model.poly)
        coeffs = curve._y_coefficients(model)
        for n in range(1, n_max + 1):
            F = make_ext_field(model.params, n)
            rows = list(zip(*curve._y_columns(F, coeffs, range(F.order))))
            assert len(rows) == F.order
            for x, row in enumerate(rows):
                want = [
                    plain_eval_poly2(F, {(i, 0): c for (i, j), c in model.poly if j == k}, x, 0)
                    for k in range(deg_y + 1)
                ]
                assert list(row) == [_log_or_minus_one(F, v) for v in want], (model.name, n, x)


def _y_degree_models():
    """Models for the chunk root routine over F_p: y-degree 1, 2 and 3,
    MIXED_POLY, a leading y-coefficient that vanishes at x = 0 and x = -1,
    and a polynomial that vanishes identically at x = 0."""
    return [
        {(1, 1): 1, (2, 0): 1, (0, 0): 1},  # x y + x^2 + 1: degree 1, then 0 at x = 0
        {(0, 2): 1, (1, 1): 1, (3, 0): 1, (0, 0): 2},  # y^2 + x y + x^3 + 2
        {(0, 3): 1, (0, 1): 1, (4, 0): 1, (1, 0): 1, (0, 0): 1},  # y^3 + y + x^4 + x + 1
        MIXED_POLY,
        {(2, 2): 1, (1, 2): 1, (0, 1): 1, (1, 0): 1},  # (x^2 + x) y^2 + y + x
        {(1, 2): 1, (1, 1): -1, (2, 0): 1, (1, 0): -1},  # x (y^2 - y + x - 1)
    ]


def _reference_roots(F, poly, x):
    """The roots over x by plain field arithmetic and a scan of every y, in
    the order the chunk routine promises: range(F.order) for the zero
    polynomial, the quadratic order of _brute_quadratic_roots, ascending
    otherwise."""
    deg_y = max(j for _, j in poly)
    cs = [
        plain_eval_poly2(F, {(i, 0): c for (i, j), c in poly.items() if j == k}, x, 0)
        for k in range(deg_y + 1)
    ]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return range(F.order)
    if len(cs) == 3:
        return _brute_quadratic_roots(F, *cs)
    return _plain_roots(F, cs)


def _plain_roots(F, cs):
    """Every y, ascending, at which sum(cs[k] y^k) vanishes."""
    roots = []
    for y in range(F.order):
        value = 0
        for c in reversed(cs):  # Horner's rule with F.mul and F.add
            value = F.add(F.mul(value, y), c)
        if value == 0:
            roots.append(y)
    return roots


def _times_root(F, cs, r):
    """The coefficients of sum(cs[k] y^k) * (y - r)."""
    out = [0] + list(cs)
    for k, c in enumerate(cs):
        out[k] = F.sub(out[k], F.mul(c, r))
    return out


_GCD_FIELDS = [(P2, k) for k in range(1, 7)] + [(P3, k) for k in range(1, 5)] + [
    (FieldParams(5), 1), (FieldParams(2, 2), 1), (FieldParams(257), 1)
]


@pytest.mark.parametrize(
    "params, n", _GCD_FIELDS, ids=[f"p{pr.p}-e{pr.e}-n{n}" for pr, n in _GCD_FIELDS]
)
def test_gcd_roots_match_plain_evaluation(params, n):
    # the roots of y-degree >= 3: gcd(f, y^q - y), split by gcds, against the
    # value at every y, for each degree 3..8 a random polynomial, one with a
    # double root and the root 0, and one with no root; and y^q - y itself
    F = make_ext_field(params, n)
    rng = random.Random(f"gcd-roots:{params}:{n}")

    def draw(d):  # degree exactly d
        return [rng.randrange(F.order) for _ in range(d)] + [rng.randrange(1, F.order)]

    everything = [0, F.neg(1)] + [0] * (F.order - 2) + [1]
    assert curve._distinct_roots(F, everything) == list(range(F.order))
    for d in range(3, 9):
        r = rng.randrange(F.order)
        rootless = next(cs for cs in iter(lambda: draw(d), None) if not _plain_roots(F, cs))
        for cs in (draw(d), _times_root(F, _times_root(F, _times_root(F, draw(d - 3), r), r), 0), rootless):
            assert curve._distinct_roots(F, cs) == _plain_roots(F, cs), (d, cs)


@pytest.mark.parametrize("p, n", [(2, 4), (3, 2), (5, 2), (7, 2), (257, 1)])
def test_chunk_roots_match_reference_scan(p, n, monkeypatch):
    # through both callers of the chunk routine: the whole-field scan in
    # ascending x and the walk over Frobenius orbit representatives, with one
    # x per chunk and with the whole field in one chunk
    F = make_ext_field(FieldParams(p), n)
    vanished = 0
    for poly in _y_degree_models():
        model = curve.CurveModel.create(FieldParams(p), poly, name=str(poly))
        want = {x: _reference_roots(F, model.poly_dict, x) for x in range(F.order)}
        vanished += sum(isinstance(r, range) for r in want.values())
        for chunk in (1, F.order + 1):
            monkeypatch.setattr(curve, "CHUNK", chunk)
            flat = [(x, y) for x in range(F.order) for y in want[x]]
            assert list(curve.affine_solutions(model, n)) == flat, (poly, chunk)
            orbits = list(curve._orbit_roots(model, n))
            assert [x for _, x, _, _ in orbits] == [x for x, _ in F.frobenius_orbits()]
            for _, x, _, roots in orbits:
                assert type(roots) is type(want[x]) and list(roots) == list(want[x]), (poly, chunk, x)
    assert vanished  # the zero polynomial is compared too


def test_y_cubic_counts_past_the_old_scan_limit():
    # over F_2^13 a brute root scan was refused (field order above 2^12); the
    # gcd path counts there, and a_13 = 640 is the spectrum that zeta passes
    model = _genus3_y_cubic()
    assert len(curve.enumerate_places(model, 13)) == 640
    assert curve.count_points(model, 13) == 1 + 13 * 640
    with pytest.raises(UnsupportedSize):  # ff.MAX_ORDER is the one size limit
        curve.spectrum_from_counts(model, 21)


def test_counts_over_the_largest_tabled_fields(curve_E, curve_E3):
    # both follow from N_1 through the L-polynomial: 1 + 2T + 2T^2 for E over
    # F_2, 1 + 3T + 3T^2 for E3 over F_3
    assert curve.count_points(curve_E, 17) == 131585
    assert curve.count_points(curve_E3, 10) == 58807


def test_count_over_the_newly_tabled_f2_18(curve_E):
    # 1 + 2T + 2T^2 has roots -1 +- i, whose 18th powers are -+512i: N_18 = 2^18 + 1
    assert curve.count_points(curve_E, 18) == 262145


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
    # declaring genus 0 for the elliptic model must fail at N_1 = 5 > 2 + 1
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
    # the key is the least point of the place's orbit under the base Frobenius,
    # an orbit of exactly `degree` points
    places = curve.enumerate_places(curve_E, 4)
    F = make_ext_field(P2, 4)
    assert places
    for pl in places:
        orbit = [pl.key]
        while (conj := tuple(map(F.frobenius_base, orbit[-1]))) != pl.key:
            orbit.append(conj)
        assert len(orbit) == 4
        assert pl.key == min(orbit)


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


def test_zeta_checks_counts_past_twice_the_genus(curve_E):
    # N_5 lies past 2g = 2: a_5 raised by 1 gives N_5 = 30, inside the Weil
    # bound, but L(T) = 1 + 2T + 2T^2 predicts 25
    a = curve.spectrum_from_counts(curve_E, 6).a_map
    assert curve.zeta_check(curve.PlaceSpectrum.from_spectrum(P2, a, 1)).passed
    a[5] += 1
    z = curve.zeta_check(curve.PlaceSpectrum.from_spectrum(P2, a, 1))
    assert not z.passed
    assert z.discrepancies == ((5, 25, 30),)
    assert z.predicted == ((2, 5),)


def test_zeta_detects_wrong_genus(curve_E):
    spec = curve.spectrum_from_counts(curve_E, 4)
    wrong = dataclasses.replace(spec, genus=2)
    z = curve.zeta_check(wrong)
    assert not z.passed
    assert z.discrepancies


def test_zeta_check_refuses_a_spectrum_short_of_twice_the_genus(curve_E):
    with pytest.raises(OutOfRange, match=r"needs N_n for n = 1..2; missing \[2\]"):
        curve.zeta_check(curve.spectrum_from_counts(curve_E, 1))


def test_unnamed_model_assumptions_say_anon():
    model = curve.CurveModel.create(P2, {(0, 2): 1, (0, 1): 1, (3, 0): 1, (1, 0): 1}, genus=1)
    assert [line.split(":")[0] for line in model.assumptions()] == ["model <anon>"] * 2


@pytest.mark.parametrize("d_max", [0, -1])
def test_degree_below_one_refused_before_counting(curve_E, monkeypatch, d_max):
    def no_counting(model, n):
        raise AssertionError("counted before the refusal")

    monkeypatch.setattr(curve, "count_points", no_counting)
    with pytest.raises(OutOfRange, match="d_max must be >= 1"):
        curve.spectrum_from_counts(curve_E, d_max)


@pytest.mark.parametrize("a", [{}, {0: 3}, {-2: 1}, {0: 3, 1: 1}])
def test_spectrum_degrees_below_one_refused(a):
    with pytest.raises(OutOfRange, match="place degrees must be >= 1"):
        curve.PlaceSpectrum.from_spectrum(P2, a, 1)


def test_spectrum_built_directly_is_validated():
    """The constructor validates: a_d = 1 for d <= 21 puts N_14 = 24 far
    below the Weil interval for genus 50 over F_2."""
    a = tuple((d, 1) for d in range(1, 22))
    with pytest.raises(InconsistentModel, match="N_14 = 24 violates the Weil bound"):
        curve.PlaceSpectrum(params=P2, a=a, genus=50)
    with pytest.raises(InconsistentModel, match="negative place count"):
        curve.PlaceSpectrum(params=P2, a=((1, 3), (2, -1)), genus=1)


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
