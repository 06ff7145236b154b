"""Cover decomposition, spectrum assembly and the brute-force oracle."""

import pytest

from towerbound import cft, cover, curve
from towerbound.errors import InconsistentModel, PoleAtPlace, RamifiedPlace
from towerbound.ff import FieldParams, make_ext_field

P2 = FieldParams(2)


def conjugate_places(model, place):
    """All degree-many representatives of the same place."""
    F = make_ext_field(model.params, place.degree)
    out = []
    x, y = place.rep
    for _ in range(place.degree):
        out.append(curve.make_affine_place(model, place.degree, x, y))
        x, y = F.frobenius_base(x), F.frobenius_base(y)
    return out


def test_normalization_identity(cover_k1, cover_k3):
    # v = A w maps solutions of w^p - w = B/A^p onto solutions of
    # v^p - A^(p-1) v = B at every point where A does not vanish
    for cov, n in ((cover_k1, 3), (cover_k3, 2)):
        p = cov.params.p
        F = make_ext_field(cov.params, n)
        comp = cov.components[0]
        for x, y in curve.affine_solutions(cov.base, n):
            aval = curve.eval_poly2(F, dict(comp.a), x, y)
            bval = curve.eval_poly2(F, dict(comp.b), x, y)
            if aval == 0:
                continue
            u = F.div(bval, F.pow(aval, p))
            for w in range(F.order):
                lhs_w = F.sub(F.pow(w, p), w)
                v = F.mul(aval, w)
                lhs_v = F.sub(F.pow(v, p), F.mul(F.pow(aval, p - 1), v))
                assert (lhs_w == u) == (lhs_v == bval)


def test_rational_places_split_completely(cover_k1, cover_k2, cover_k3):
    # every unramified rational place has zero Frobenius vector: all
    # rational places split, which is what forces a_1 = 160 / 192 / 567
    for cov in (cover_k1, cover_k2, cover_k3):
        p, r = cov.params.p, cov.rank
        for pl in curve.enumerate_places(cov.base, 1):
            if pl.key in cov.support_map():
                continue
            rec = cover.decompose_place(cov, pl)
            assert rec.frobenius_vector == (0,) * r
            assert rec.places_above == ((1, p**r),)


def test_nonzero_vector_rule(cover_k1):
    # unramified degree-4 places of E are not split: 16 places of degree 8
    seen = 0
    for pl in curve.enumerate_places(cover_k1.base, 4):
        if pl.key in cover_k1.support_map():
            continue
        rec = cover.decompose_place(cover_k1, pl)
        assert rec.frobenius_vector != (0, 0, 0, 0, 0)
        assert rec.places_above == ((8, 16),)
        seen += 1
    assert seen == 4  # the fifth degree-4 place is the declared conductor place


def test_degree5_rule_f3(cover_k3):
    # unramified degree-5 places of E3: tau != 0 gives 27 places of degree 15
    recs = [
        cover.decompose_place(cover_k3, pl)
        for pl in curve.enumerate_places(cover_k3.base, 5)
        if pl.key not in cover_k3.support_map()
    ]
    assert len(recs) == 41
    for rec in recs:
        assert rec.places_above in (((15, 27),), ((5, 81),))
    assert all(rec.places_above == ((15, 27),) for rec in recs)  # none split (a_5(k3) = 1)


@pytest.mark.parametrize("which", ["k1", "k2", "k3"])
def test_representative_independence_and_balance_deg_le_6(
    which, cover_k1, cover_k2, cover_k3
):
    cov = {"k1": cover_k1, "k2": cover_k2, "k3": cover_k3}[which]
    p, r = cov.params.p, cov.rank
    declared = cov.support_map()
    for d in range(1, 7):
        for pl in curve.enumerate_places(cov.base, d):
            if pl.key in declared:
                with pytest.raises(RamifiedPlace):
                    cover.decompose_place(cov, pl)
                continue
            if pl.is_infinite:
                continue
            records = [cover.decompose_place(cov, conj) for conj in conjugate_places(cov.base, pl)]
            assert len(records) == d
            first = records[0]
            for rec in records[1:]:
                assert rec.places_above == first.places_above
                assert (rec.frobenius_vector == (0,) * r) == (
                    first.frobenius_vector == (0,) * r
                )
            assert sum(deg * cnt for deg, cnt in first.places_above) == d * p**r


def test_spectrum_goldens(spectrum_k1, spectrum_k2, spectrum_k3, cover_C):
    assert spectrum_k1.a_tuple(10) == (160, 0, 0, 0, 1, 0, 0, 65, 0, 48)
    assert spectrum_k2.a_tuple(10) == (192, 0, 0, 0, 2, 16, 0, 16, 0, 64)
    assert spectrum_k3.a_tuple(9) == (567, 0, 0, 0, 1, 0, 0, 162, 1809)
    assert cover.assemble_spectrum(cover_C, 5).a_tuple(5) == (10, 0, 0, 0, 3)


def test_spectrum_genera(spectrum_k1, spectrum_k2, spectrum_k3):
    assert spectrum_k1.genus == 276
    assert spectrum_k2.genus == 343
    assert spectrum_k3.genus == 601


def test_subcover_functoriality(cover_C, cover_k1):
    # all five degree-4 places of E are inert in the degree-2 subcover C:
    # the declared conductor place by declaration, the rest by trace
    declared = cover_C.support_map()
    inert = 0
    for pl in curve.enumerate_places(cover_C.base, 4):
        if pl.key in declared:
            decl = declared[pl.key]
            assert decl.above == ((8, 1),)
            inert += 1
            continue
        rec = cover.decompose_place(cover_C, pl)
        assert rec.places_above == ((8, 1),)
        inert += 1
    assert inert == 5
    # C is the h = x component of k1
    assert cover_C.components[0] in cover_k1.components


def test_ramified_place_refused(cover_k1):
    (p5_place, decl) = next(
        (pl, d) for pl, d in cover_k1.support_places() if d.degree == 5
    )
    with pytest.raises(RamifiedPlace):
        cover.decompose_place(cover_k1, p5_place)


def test_pole_at_undeclared_place(doc1):
    # same cover as k1 but with the degree-4 conductor place undeclared:
    # decomposing it must fail loudly rather than guess
    k1 = doc1.covers["k1"]
    broken = cover.CoverSpec(
        base=k1.base,
        components=k1.components,
        profile=k1.profile,
        support=tuple(d for d in k1.support if d.degree != 4),
        infinities=k1.infinities,
        name="broken",
    )
    target = next(pl for pl, d in k1.support_places() if d.degree == 4)
    with pytest.raises(PoleAtPlace):
        cover.decompose_place(broken, target)
    with pytest.raises(PoleAtPlace):
        cover.assemble_spectrum(broken, 10)


def test_undeclared_infinity_refused(doc1):
    k1 = doc1.covers["k1"]
    inf_place = curve.Place(degree=1, key=("inf", 0), rep=None)
    with pytest.raises(RamifiedPlace):
        cover.decompose_place(k1, inf_place)  # declared: refuse with RamifiedPlace
    naked = cover.CoverSpec(
        base=k1.base,
        components=k1.components,
        profile=k1.profile,
        support=k1.support,
        infinities=(cover.DeclaredInfinity(0, ((1, 32),)),),
        name="k1b",
    )
    other = curve.Place(degree=2, key=("inf", 7), rep=None)
    with pytest.raises(PoleAtPlace):
        cover.decompose_place(naked, other)


def test_support_count_mismatch_rejected(doc2):
    k2 = doc2.covers["k2"]
    wrong = cover.CoverSpec(
        base=k2.base,
        components=k2.components,
        profile=k2.profile,
        support=(cover.DeclaredPlace(5, 2, ((5, 1),), count=3),),  # only 2 exist
        infinities=k2.infinities,
        name="wrong",
    )
    with pytest.raises(InconsistentModel):
        wrong.support_map()


def test_profile_order_mismatch_rejected(doc1):
    k1 = doc1.covers["k1"]
    with pytest.raises(InconsistentModel):
        cover.CoverSpec(
            base=k1.base,
            components=k1.components[:3],  # rank 3 but order-32 profile
            profile=k1.profile,
            support=k1.support,
            infinities=k1.infinities,
        )


# brute-force counts frozen after first computation; at every rational point
# of each base curve the right-hand sides vanish, so the full fibers appear:
# E: 4 affine points x 2^5, H: 4 x 2^5, E3: 6 x 3^4
BRUTE_N1 = {"k1": 128, "k2": 128, "k3": 486}


@pytest.mark.parametrize("which", ["k1", "k2", "k3"])
def test_brute_force_oracle(which, cover_k1, cover_k2, cover_k3,
                            spectrum_k1, spectrum_k2, spectrum_k3):
    cov = {"k1": cover_k1, "k2": cover_k2, "k3": cover_k3}[which]
    spec = {"k1": spectrum_k1, "k2": spectrum_k2, "k3": spectrum_k3}[which]
    assert cover.oracle_report(cov, spec, 1).brute_count == BRUTE_N1[which]
    for n in (1, 2):
        rep = cover.oracle_report(cov, spec, n)
        assert rep.residual == 0
        assert rep.brute_count == (
            rep.spectrum_points - rep.infinite_points - rep.declared_points
            + rep.singular_solutions
        )


def test_oracle_sees_singular_points(cover_k2, spectrum_k2):
    # over F_{2^5} the two conductor places contribute 5 points each, every
    # one carrying exactly one solution of the degenerate system v^p = B
    rep = cover.oracle_report(cover_k2, spectrum_k2, 5)
    assert rep.singular_solutions == 10
    assert rep.declared_points == 10
    assert rep.residual == 0


def test_rank_zero_cover_is_identity(curve_E):
    k0 = cover.CoverSpec(
        base=curve_E,
        components=(),
        profile=cft.CharacterConductorProfile((), 1),
        infinities=(cover.DeclaredInfinity(0, ((1, 1),)),),
        name="identity",
    )
    spec = cover.assemble_spectrum(k0, 6)
    for n in (1, 2, 3):
        assert cover.oracle_report(k0, spec, n).brute_count == curve.count_affine(curve_E, n)
    assert spec.a_tuple(6) == curve.spectrum_from_counts(curve_E, 6).a_tuple(6)
    assert spec.genus == 1


def test_weil_bound_on_assembled_spectra(spectrum_k1, spectrum_k2, spectrum_k3):
    for spec in (spectrum_k1, spectrum_k2, spectrum_k3):
        spec.validate()  # includes the exact Weil inequality at every stored n
