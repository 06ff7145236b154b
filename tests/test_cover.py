"""Cover decomposition, spectrum assembly and the brute-force oracle."""

import pytest

from towerbound import cft, cover, curve
from towerbound.errors import InconsistentModel, OutOfRange, PoleAtPlace, RamifiedPlace
from towerbound.ff import ExtField, FieldParams, make_ext_field

from conftest import conjugate_points, plain_eval_poly2

P2 = FieldParams(2)
P3 = FieldParams(3)


def test_normalization_identity(cover_k1, cover_k3):
    # v = A w maps solutions of w^p - w = B/A^p onto solutions of
    # v^p - A^(p-1) v = B at every point where A does not vanish
    for cov, n in ((cover_k1, 3), (cover_k3, 2)):
        p = cov.params.p
        F = make_ext_field(cov.params, n)
        for x, y in curve.affine_solutions(cov.base, n):
            aval = plain_eval_poly2(F, cov.a, x, y)
            bval = plain_eval_poly2(F, cov.components[0], x, y)
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
            # the trace kernel gives one vector at every point of the place
            F = make_ext_field(cov.params, d)
            vectors = list(cover._component_traces(cov, F, conjugate_points(F, pl.key)))
            assert len(vectors) == d and all(v == vectors[0] for v in vectors)
            rec = cover.decompose_place(cov, pl)
            assert rec.frobenius_vector == tuple(vectors[0])
            assert sum(deg * cnt for deg, cnt in rec.places_above) == d * p**r


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
    # C is the h = x component of k1, over the same A
    assert cover_C.a == cover_k1.a and cover_C.components[0] in cover_k1.components


def declared_place(cov, degree):
    """The resolved affine support place of the given degree, from support_map."""
    key = next(
        key for key, d in cov.support_map().items()
        if isinstance(d, cover.DeclaredPlace) and d.degree == degree
    )
    return curve.Place(degree=degree, key=key)


def test_ramified_place_refused(cover_k1):
    with pytest.raises(RamifiedPlace):
        cover.decompose_place(cover_k1, declared_place(cover_k1, 5))


def test_pole_at_undeclared_place(doc1):
    # same cover as k1 but with the degree-4 conductor place undeclared:
    # decomposing it must fail loudly rather than guess
    k1 = doc1.covers["k1"]
    broken = cover.CoverSpec(
        base=k1.base,
        a=k1.a,
        components=k1.components,
        profile=k1.profile,
        support=tuple(d for d in k1.support if d.degree != 4),
        infinities=k1.infinities,
        name="broken",
    )
    target = declared_place(k1, 4)
    with pytest.raises(PoleAtPlace):
        cover.decompose_place(broken, target)
    with pytest.raises(PoleAtPlace):
        cover.assemble_spectrum(broken, 10)


def test_undeclared_infinity_refused(doc1):
    k1 = doc1.covers["k1"]
    inf_place = curve.Place(degree=1, key=("inf", 0))
    with pytest.raises(RamifiedPlace):
        cover.decompose_place(k1, inf_place)  # declared: refuse with RamifiedPlace
    naked = cover.CoverSpec(
        base=k1.base,
        a=k1.a,
        components=k1.components,
        profile=k1.profile,
        support=k1.support,
        infinities=(cover.DeclaredInfinity(0, ((1, 32),)),),
        name="k1b",
    )
    other = curve.Place(degree=2, key=("inf", 7))
    with pytest.raises(PoleAtPlace):
        cover.decompose_place(naked, other)


def test_support_count_mismatch_rejected(doc2):
    k2 = doc2.covers["k2"]
    wrong = cover.CoverSpec(
        base=k2.base,
        a=k2.a,
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
            a=k1.a,
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


def test_oracle_refuses_out_of_reach_n_before_scanning(cover_k1, spectrum_k1, monkeypatch):
    def no_scan(model, n):
        raise AssertionError("scanned before the refusal")

    monkeypatch.setattr(cover, "affine_solutions", no_scan)
    with pytest.raises(OutOfRange, match="spectrum stops at degree 10 < 11"):
        cover.oracle_report(cover_k1, spectrum_k1, 11)


@pytest.mark.parametrize("d_max", [0, -1])
def test_degree_below_one_refused_before_assembly(cover_k1, monkeypatch, d_max):
    def no_work(*args):
        raise AssertionError("assembled before the refusal")

    monkeypatch.setattr(cover, "enumerate_places", no_work)
    monkeypatch.setattr(cover.CoverSpec, "support_map", no_work)
    with pytest.raises(OutOfRange, match="d_max must be >= 1"):
        cover.assemble_spectrum(cover_k1, d_max)


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
        a={(0, 0): 1},
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


@pytest.mark.parametrize("which", ["k1", "k3"])
def test_degrees_up_to_d_are_final_when_checked(
    which, cover_k1, cover_k3, spectrum_k1, spectrum_k3
):
    # a cover place of degree d lies over a base place of degree d or d/p,
    # so after base degree d every a[d'] with d' <= d is final (over F_3
    # the inert places land three degrees up, not two)
    cov, spec = {"k1": (cover_k1, spectrum_k1), "k3": (cover_k3, spectrum_k3)}[which]
    seen = []
    with cover.after_each_degree(lambda d, a: seen.append((d, dict(a)))):
        assert cover.assemble_spectrum(cov, spec.d_max) == spec
    assert [d for d, _ in seen] == list(range(1, spec.d_max + 1))
    final = spec.a_map
    for d, a in seen:
        assert {e: a[e] for e in range(1, d + 1)} == {e: final[e] for e in range(1, d + 1)}
    cover.assemble_spectrum(cov, 2)  # the check is gone after the block
    assert len(seen) == spec.d_max


def test_weil_bound_on_assembled_spectra(spectrum_k1, spectrum_k2, spectrum_k3):
    for spec in (spectrum_k1, spectrum_k2, spectrum_k3):
        spec.validate()  # includes the exact Weil inequality at every stored n


def traces_by_field_arithmetic(cov, F, x, y):
    """Tr(B/A^p) of each component by evaluating A and B and inverting A^p;
    None where A vanishes.  The reference for the table-read kernel."""
    a = plain_eval_poly2(F, cov.a, x, y)
    if a == 0:
        return None
    inv_ap = F.inv(F.pow(a, cov.params.p))
    return [F.trace(F.mul(plain_eval_poly2(F, b, x, y), inv_ap)) for b in cov.components]


def _mixed_terms_cover(curve_E3):
    """Rank 2 over F_3: A and the B have constant, pure-x, pure-y and mixed
    terms, with coefficients 1 and 2, so each zero pattern of (x, y) drops
    some term of each."""
    a = {(0, 0): 2, (1, 0): 1, (0, 1): 2, (1, 1): 1}
    b1 = {(0, 0): 1, (2, 0): 2, (0, 2): 1, (2, 1): 2}
    b2 = {(0, 1): 1, (3, 0): 1, (1, 2): 2}
    return cover.CoverSpec(
        base=curve_E3,
        a=a,
        components=(b1, b2),
        profile=cft.CharacterConductorProfile(((4, 8),), 9),
        infinities=(cover.DeclaredInfinity(0, ((1, 9),)),),
        name="mixed",
    )


def test_trace_kernel_matches_field_arithmetic(cover_C, cover_k1, cover_k2, cover_k3, curve_E3):
    # every point of the plane, on the curve or not, zero coordinates
    # included, passed to the kernel as one sequence
    cases = [(cover_C, 4), (cover_k1, 4), (cover_k2, 4), (cover_k3, 3),
             (_mixed_terms_cover(curve_E3), 3)]
    vanishing = 0
    for cov, n_max in cases:
        for n in range(1, n_max + 1):
            F = make_ext_field(cov.params, n)
            points = [(x, y) for x in range(F.order) for y in range(F.order)]
            got = list(cover._component_traces(cov, F, points))
            assert len(got) == len(points)
            for (x, y), taus in zip(points, got):
                want = traces_by_field_arithmetic(cov, F, x, y)
                assert taus == want, (cov.name, n, x, y)
                vanishing += want is None
    assert vanishing  # the None branch is compared too


def _cover_k257():
    """On the line y = 0 over F_257 the cover is w^p - w = x^2 / x^p =
    x^-255: ramified at x = 0, split at infinity, and x^-255 = x on
    F_257^*, so no other rational place splits."""
    p = 257
    line = curve.CurveModel.create(FieldParams(p), {(0, 1): 1}, genus=0, name="L")
    a = {(1, 0): 1, (0, 1): 1}  # x + y: the y terms are zero on the curve only
    b = {(2, 0): 1, (1, 1): 2, (0, 3): 1}
    return cover.CoverSpec(
        base=line,
        a=a,
        components=(b,),
        profile=cft.CharacterConductorProfile(((p - 1, p - 1),), p),
        support=(cover.DeclaredPlace(degree=1, nu=p - 1, above=((1, 1),)),),
        infinities=(cover.DeclaredInfinity(0, ((1, p),)),),
        name="k257",
    )


def test_cover_over_a_prime_above_255():
    # traces over F_257 do not fit in a byte
    cov, p = _cover_k257(), 257
    for n, step in ((1, 1), (2, 97)):
        F = make_ext_field(cov.params, n)
        points = [(x, y) for x in range(0, F.order, step) for y in range(0, F.order, 31 * step)]
        for (x, y), taus in zip(points, cover._component_traces(cov, F, points), strict=True):
            assert taus == traces_by_field_arithmetic(cov, F, x, y), (n, x, y)
    spec = cover.assemble_spectrum(cov, 2)
    assert spec.a_map[1] == 1 + p
    for n in (1, 2):
        assert cover.oracle_report(cov, spec, n).residual == 0


def test_direct_cover_reduces_coefficients_mod_p(cover_k3, spectrum_k3):
    # k3 written out by hand with coefficients outside 0..2 (and one term
    # that is 0 mod 3): the constructor reduces them to the config's terms
    a = {(1, 1): 4, (2, 0): 7, (0, 0): -1, (0, 5): 3}
    bs = (
        {(3, 0): 4, (1, 0): 5},  # (x^3 - x) * 1
        {(4, 0): -2, (2, 0): 2},  # (x^3 - x) * x
        {(3, 1): 10, (1, 1): -4},  # (x^3 - x) * y
        {(4, 1): 1, (2, 1): 8},  # (x^3 - x) * x*y
    )
    direct = cover.CoverSpec(
        base=cover_k3.base,
        a=a,
        components=bs,
        profile=cft.CharacterConductorProfile(((15, 80),), 81),
        support=(cover.DeclaredPlace(degree=5, nu=3, above=((5, 1),)),),
        infinities=(cover.DeclaredInfinity(0, ((1, 81),)),),
        name="k3-direct",
    )
    assert (direct.a, direct.components) == (cover_k3.a, cover_k3.components)
    assert (direct._a_terms, direct._b_terms) == (cover_k3._a_terms, cover_k3._b_terms)
    spec = cover.assemble_spectrum(direct, spectrum_k3.d_max)
    assert spec == spectrum_k3
    for n in (1, 2):
        assert cover.oracle_report(direct, spec, n) == cover.oracle_report(cover_k3, spectrum_k3, n)
        assert cover.oracle_report(direct, spec, n).residual == 0


def test_oracle_independent_of_chunk_size(cover_C, cover_k1, cover_k2, cover_k3, monkeypatch):
    # the oracle's root lists come a chunk of x at a time: one x per chunk
    # and the whole field in one chunk give the same accounting
    cov257 = _cover_k257()
    cases = [(cover_C, 4), (cover_k1, 4), (cover_k2, 4), (cover_k3, 4), (cov257, 2)]
    for cov, n_max in cases:
        spec = cover.assemble_spectrum(cov, n_max)
        by_chunk = {}
        for chunk in (1, cov.params.q**n_max + 1):
            monkeypatch.setattr(curve, "CHUNK", chunk)
            by_chunk[chunk] = [
                (rep.brute_count, rep.singular_solutions, rep.residual)
                for rep in (cover.oracle_report(cov, spec, n) for n in range(1, n_max + 1))
            ]
        first, second = by_chunk.values()
        assert first == second, cov.name
        assert all(residual == 0 for _, _, residual in first), cov.name


def test_assembly_makes_no_per_place_trace_calls(cover_k1, monkeypatch):
    # the second assembly finds every trace table built: each component trace
    # is a table read, not a call of ExtField.trace
    cover.assemble_spectrum(cover_k1, 8)
    calls = []
    trace = ExtField.trace

    def counted(F, a):
        calls.append(a)
        return trace(F, a)

    monkeypatch.setattr(ExtField, "trace", counted)
    cover.assemble_spectrum(cover_k1, 8)
    assert calls == []


def test_locating_support_reads_no_trace_table(cover_k1, monkeypatch):
    # whether A vanishes at a place is decided from A alone: no trace table
    def refuse(F):
        raise AssertionError(f"trace table of F_2^{F.degree} read")

    monkeypatch.setattr(ExtField, "trace_of_power", property(refuse))
    vanishing = [
        pl.degree
        for d in (4, 5)
        for pl in curve.enumerate_places(cover_k1.base, d)
        if cover_k1._a_vanishes(pl)
    ]
    assert vanishing == [4, 5]  # the two located conductor places of k1
