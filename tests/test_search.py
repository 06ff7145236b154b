"""The plan optimizer and the two-method comparison."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from towerbound import cft, config, curve, search
from towerbound.errors import DegenerateGenus, EmptySpace, InconsistentModel, OutOfRange
from towerbound.ff import FieldParams

P2 = FieldParams(2)
P3 = FieldParams(3)


def test_compare_methods_remark_values():
    cases = [
        (search.MethodComparisonInput(s=21, l=2, t=20, s_prime=1, t_size=81), "usual", (20, 80)),
        (search.MethodComparisonInput(s=21, l=2, t=21, s_prime=1, t_size=85), "ours", (21, 82)),
        (search.MethodComparisonInput(s=24, l=2, t=24, s_prime=1, t_size=97), "usual", (22, 96)),
        (search.MethodComparisonInput(s=24, l=2, t=24, s_prime=3, t_size=99), "ours", (22, 92)),
    ]
    for inp, which, want in cases:
        res = search.compare_methods(inp)
        pair = getattr(res, which)
        assert (pair.d_lower, pair.rd_upper) == want
        assert pair.certifies


def test_compare_methods_formulas():
    inp = search.MethodComparisonInput(s=10, l=3, t=7, s_prime=2, t_size=50)
    res = search.compare_methods(inp)
    tk = 9
    assert res.usual.d_lower == 10 * 3 - (tk - 1) - 3
    assert res.usual.rd_upper == 49
    assert res.ours.d_lower == 10 * 3 - (tk - 1)
    assert res.ours.rd_upper == 10 * 6 - 2 * 3 + tk - 1
    assert inp.t_k == tk


def test_compare_rejects_negative():
    with pytest.raises(ValueError):
        search.MethodComparisonInput(s=-1, l=2, t=2, s_prime=0, t_size=3)


def test_optimizer_tower1(spectrum_k1):
    space = search.SearchSpace(spectrum=spectrum_k1)
    result = search.optimize(space)
    assert result.candidates_evaluated == search.candidate_count(space)
    best_plan, best_cert = result.best
    paper = Fraction(16384, 51711)
    assert best_cert.bound_refined >= paper
    # the published plan is inside the space and certified
    plan = cft.RamificationPlan(P2, ((5, 1, 2), (8, 27, 2), (10, 1, 2)), 160, spectrum_k1)
    assert cft.certify_tower(276, plan).bound_refined == paper


def test_optimizer_tower2(spectrum_k2):
    space = search.SearchSpace(spectrum=spectrum_k2)
    result = search.optimize(space)
    best_plan, best_cert = result.best
    assert best_cert.bound_refined >= Fraction(24576, 77527)
    # the search rediscovers the published choice as the optimum of the space
    assert best_plan.entries == ((5, 2, 2), (6, 16, 2), (8, 15, 2), (10, 4, 2))
    assert best_plan.t == 192


def test_optimizer_f3(spectrum_k3):
    space = search.SearchSpace(spectrum=spectrum_k3, degrees=(5, 6, 7, 8, 9))
    result = search.optimize(space)
    best_plan, best_cert = result.best
    assert best_cert.bound_refined >= Fraction(1240029, 2515901)
    assert best_plan.entries == ((5, 1, 3), (8, 43, 3), (9, 2, 3))


def test_optimizer_deterministic(spectrum_k1):
    space = search.SearchSpace(spectrum=spectrum_k1, top_n=8)
    r1 = search.optimize(space)
    r2 = search.optimize(space)
    key = lambda res: [(p.entries, p.t, c.bound_refined) for p, c in res.ranked]
    assert key(r1) == key(r2)
    assert r1.candidates_evaluated == r2.candidates_evaluated


def test_optimizer_certificates_are_certified(spectrum_k2):
    space = search.SearchSpace(spectrum=spectrum_k2, top_n=5)
    for plan, cert in search.optimize(space).ranked:
        assert cert.infinite and cert.gs_margin >= 0
        assert plan.side_condition_ok
        assert cert.bound_refined > cert.bound


def test_completeness_count_small_space(spectrum_k1):
    # degrees 5 and 10 only: a_5 = 1, a_10 = 48 -> (1+1)*(1+48) candidates
    space = search.SearchSpace(spectrum=spectrum_k1, degrees=(5, 10))
    result = search.optimize(space)
    assert search.candidate_count(space) == 2 * 49
    assert result.candidates_evaluated == 98


def test_empty_space():
    spec = curve.PlaceSpectrum.from_spectrum(P2, {1: 3, 2: 0, 3: 0, 4: 0, 5: 0}, 9)
    with pytest.raises(EmptySpace):
        search.optimize(search.SearchSpace(spectrum=spec))


def test_bad_t_rejected(spectrum_k1):
    space = search.SearchSpace(spectrum=spectrum_k1, t_values=(161,))
    with pytest.raises(ValueError):
        search.optimize(space)


def test_space_rejects_bad_sizes(spectrum_k1):
    with pytest.raises(ValueError):
        search.SearchSpace(spectrum=spectrum_k1, top_n=0)
    with pytest.raises(ValueError):
        search.SearchSpace(spectrum=spectrum_k1, top_n=search.MAX_TOP + 1)
    with pytest.raises(ValueError):
        search.SearchSpace(spectrum=spectrum_k1, max_multiplicity=-1)
    genus_0 = curve.PlaceSpectrum.from_spectrum(P2, {1: 3, 2: 1, 3: 2}, 0)  # the projective line
    with pytest.raises(DegenerateGenus):
        search.SearchSpace(spectrum=genus_0)
    assert search.SearchSpace(spectrum=spectrum_k1, max_multiplicity=0)
    # a repeated value would rank one plan under several spellings
    for repeated in ({"degrees": (8, 8)}, {"allowed_nu": (2, 2)}, {"t_values": (9, 9)}):
        with pytest.raises(OutOfRange, match="repeat"):
            search.SearchSpace(spectrum=spectrum_k1, **repeated)


def _brute_force(space):
    """Certify every candidate plan that RamificationPlan accepts with
    certify_tower and rank by (-bound_refined, vector, t): the reference
    the optimizer must match."""
    amap = space.spectrum.a_map
    degrees = [d for d in space.degrees if amap.get(d, 0) > 0]
    caps = [min(amap[d], space.max_multiplicity) for d in degrees]
    per_degree = [
        [(0, 0)] + [(m, nu) for nu in space.nus() for m in range(1, cap + 1)] for cap in caps
    ]
    candidates = 0
    kept = []
    for vector in itertools.product(*per_degree):
        entries = tuple((d, m, nu) for d, (m, nu) in zip(degrees, vector) if m)
        for t in space.ts():
            candidates += 1
            try:
                plan = cft.RamificationPlan(
                    space.spectrum.params, entries, t, available_spectrum=space.spectrum
                )
            except InconsistentModel:  # S and T overlap on the rational places
                continue
            cert = cft.certify_tower(space.spectrum.genus, plan)
            if cert.infinite:
                kept.append((-cert.bound_refined, vector, t, plan, cert))
    kept.sort(key=lambda item: item[:3])
    return candidates, kept


@pytest.mark.parametrize(
    "degrees, nus, t_values, cap",
    [
        ((5, 10), (2, 3), (160, 100), 200),
        ((10,), (2, 3), (100,), 200),
        ((10,), (3, 2), (100,), 200),
        ((10, 1), (2, 4), (100, 160), 18),
    ],
    # at degree 10, (m, 2) and (2m/3, 3) tie in bound; the nu order decides
    # whether the better of the two meets a full heap after or before the worse.
    # Degree 1 shares the rational places with T: at t = 160 = a_1 every
    # m_1 >= 1 would overlap, and such plans certify by the margin alone
    ids=["two-degrees-two-t", "tie-winner-arrives-last", "tie-loser-arrives-last",
         "rational-places-shared-with-t"],
)
def test_optimizer_matches_brute_force(spectrum_k1, degrees, nus, t_values, cap):
    space = search.SearchSpace(
        spectrum=spectrum_k1, degrees=degrees,
        allowed_nu=nus, t_values=t_values, max_multiplicity=cap, top_n=1000,
    )
    candidates, kept = _brute_force(space)
    result = search.optimize(space)
    assert candidates == result.candidates_evaluated == search.candidate_count(space)
    assert result.certified_count == len(kept) < space.top_n
    assert {t for _, _, t, _, _ in kept} == set(t_values)
    assert [(p.entries, p.t, c) for p, c in result.ranked] == [
        (p.entries, p.t, c) for *_, p, c in kept
    ]
    # cutting the ranking inside a group of equal bounds keeps the same prefix
    ties = [k for k in range(1, len(kept)) if kept[k - 1][0] == kept[k][0]]
    assert ties
    for k in (1, *ties):
        cut = search.optimize(dataclasses.replace(space, top_n=k))
        assert cut.ranked == result.ranked[:k]
        assert cut.certified_count == result.certified_count


BUNDLED_SEARCHES = {  # config -> (candidates, certified, top-5 bound_refined)
    "f2_tower1": (6468, 5747, ("16384/51711", "1024/3239", "4096/12959", "8192/25959",
                               "8192/25965")),
    "f2_tower2": (56355, 42602, ("24576/77527", "98304/310733", "49152/155377",
                                 "98304/310775", "98304/311143")),
    "f3_tower": (65526, 63576, ("1240029/2515901", "413343/839728", "45927/93304",
                                "1240029/2519240", "1240029/2519264")),
}


@pytest.mark.parametrize("cfg_name", sorted(BUNDLED_SEARCHES))
def test_bundled_searches_pinned(cfg_name, request):
    sc = config.load_config(cfg_name).searches["default"]
    spectrum = request.getfixturevalue(f"spectrum_{sc.on}")
    space = search.SearchSpace(
        spectrum=spectrum, degrees=sc.degrees,
        allowed_nu=sc.nus, max_multiplicity=sc.cap, top_n=sc.top,
    )
    result = search.optimize(space)
    candidates, certified, top = BUNDLED_SEARCHES[cfg_name]
    assert (result.candidates_evaluated, result.certified_count) == (candidates, certified)
    assert tuple(
        f"{c.bound_refined.numerator}/{c.bound_refined.denominator}" for _, c in result.ranked
    ) == top


def _assert_matches_brute_force(space):
    """optimize agrees with _brute_force on counts and ranking, also at
    top_n values that cut the ranking inside a group of equal bounds, and
    raises EmptySpace exactly when nothing certifies."""
    candidates, kept = _brute_force(space)
    assert candidates == search.candidate_count(space)
    if not kept:
        with pytest.raises(EmptySpace):
            search.optimize(space)
        return
    ties = [k for k in range(1, len(kept)) if kept[k - 1][0] == kept[k][0]]
    for top_n in sorted({1, len(kept), *ties[:3], *ties[-3:]}):
        result = search.optimize(dataclasses.replace(space, top_n=top_n))
        assert result.candidates_evaluated == candidates
        assert result.certified_count == len(kept)
        assert [(p.entries, p.t, c) for p, c in result.ranked] == [
            (p.entries, p.t, c) for *_, p, c in kept[:top_n]
        ]


def _least_weil_genus(q, a):
    """The least genus whose Weil bound holds at every N_n of the spectrum a."""
    need = 0
    for n, Nn in curve.spectrum_to_counts(a, max(a)).items():
        dev = abs(Nn - q**n - 1)
        while 4 * need * need * q**n < dev * dev:
            need += 1
    return need


@st.composite
def _small_spaces(draw, most_candidates=600):
    """Spaces over F_2, F_3 or F_5 with up to three degrees, two nu and three
    t; the cap is lowered until the brute force stays small."""
    p = draw(st.sampled_from((2, 3, 5)))
    counts = st.sampled_from((0, 2, 5, 9, 12, 16))  # enough places for some plans to certify
    a = {d: draw(counts) for d in range(1, draw(st.integers(1, 4)) + 1)}
    a[1] = draw(counts.filter(bool))
    genus = max(draw(st.integers(1, 30)), _least_weil_genus(p, a))
    spectrum = curve.PlaceSpectrum(params=FieldParams(p), a=tuple(sorted(a.items())), genus=genus)

    def distinct(values, least, most):  # a few distinct values in a drawn order
        values = draw(st.permutations(values))
        return tuple(values[: draw(st.integers(least, min(most, len(values))))])

    space = search.SearchSpace(
        spectrum=spectrum,
        degrees=distinct(sorted(a), 1, 3),
        allowed_nu=distinct(range(2, 6), 0, 2),
        t_values=distinct(range(1, min(a[1], 6) + 1), 0, 3),
        max_multiplicity=draw(st.integers(0, 16)),
    )
    while search.candidate_count(space) > most_candidates:
        space = dataclasses.replace(space, max_multiplicity=space.max_multiplicity - 1)
    return space


def _space(p, a, genus, degrees, nus=(), ts=(), cap=6):
    spectrum = curve.PlaceSpectrum(params=FieldParams(p), a=tuple(sorted(a.items())), genus=genus)
    return search.SearchSpace(spectrum=spectrum, degrees=degrees, allowed_nu=nus,
                              t_values=ts, max_multiplicity=cap)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(space=_small_spaces())
# degree 1 as the one degree not enumerated (most options), then in the prefix
@example(space=_space(2, {1: 9, 2: 3, 3: 2}, 4, (3, 1, 2), (2, 3), (1, 2, 4)))
@example(space=_space(3, {1: 6, 2: 8, 3: 4}, 7, (1, 3, 2), (2, 4), (2, 5), cap=8))
@example(space=_space(5, {1: 2, 2: 1}, 30, (1, 2), (), (1,)))  # nothing certifies
def test_optimizer_matches_brute_force_on_small_spectra(space):
    _assert_matches_brute_force(space)


def test_optimizer_certifies_few_times_per_prefix(spectrum_k3, monkeypatch):
    """The closed form calls certifies a bounded number of times per
    enumerated prefix, not once per candidate."""
    sc = config.load_config("f3_tower").searches["default"]
    space = search.SearchSpace(
        spectrum=spectrum_k3, degrees=sc.degrees, allowed_nu=sc.nus, max_multiplicity=sc.cap
    )
    widths = [1 + min(a, sc.cap) * len(space.nus()) for a in map(spectrum_k3.a_map.get, sc.degrees)]
    prefixes = math.prod(widths) // max(widths)
    assert prefixes == 326
    calls = []
    certifies = cft.certifies
    monkeypatch.setattr(cft, "certifies", lambda d, rd: calls.append(1) or certifies(d, rd))
    search.optimize(space)
    assert 0 < len(calls) <= 10 * prefixes
