"""Field construction, trace and enumeration properties."""

import collections

import pytest

from towerbound.errors import NotPrime, UnsupportedSize
from towerbound.ff import FieldParams, make_ext_field

P2 = FieldParams(2)
P3 = FieldParams(3)


def trace_by_powering(F, x):
    """Independent trace: literal sum x + x^p + ... + x^(p^(m-1))."""
    acc = x
    cur = x
    for _ in range(F.degree - 1):
        cur = F.pow(cur, F.p)
        acc = F.add(acc, cur)
    return acc


def test_cardinalities():
    assert make_ext_field(P2, 1).order == 2
    assert make_ext_field(P2, 10).order == 1024
    assert make_ext_field(P3, 9).order == 19683


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        FieldParams(4)
    with pytest.raises(NotPrime):
        FieldParams(1)


def test_size_cap():
    with pytest.raises(UnsupportedSize):
        make_ext_field(P2, 21)
    with pytest.raises(UnsupportedSize):
        make_ext_field(FieldParams(2, 3), 7)  # e*n = 21


def test_modulus_deterministic_and_minimal():
    f = make_ext_field(P2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1 is the first irreducible quadratic
    g = make_ext_field(P2, 2)
    assert f is g  # cached
    f3 = make_ext_field(P3, 2)
    # over F_3 the monic quadratics in packed order: x^2 (9), x^2+1 (10) = irreducible
    assert f3.modulus == (1, 0, 1)


def test_trace_examples_f4():
    F = make_ext_field(P2, 2)
    assert F.trace(0) == 0
    assert F.trace(1) == 0  # 1 + 1 in characteristic 2
    g = 2  # the generator x with x^2 = x + 1
    assert F.mul(g, g) == F.add(g, 1)
    assert F.trace(g) == 1
    # cross-check against the powering formula, plus linearity and surjectivity
    for a in range(4):
        assert F.trace(a) == trace_by_powering(F, a)
    for a in range(4):
        for b in range(4):
            assert F.trace(F.add(a, b)) == (F.trace(a) + F.trace(b)) % 2
    assert {F.trace(a) for a in range(4)} == {0, 1}


@pytest.mark.parametrize("params,n", [(P2, 1), (P2, 5), (P2, 12), (P3, 1), (P3, 4), (P3, 7)])
def test_frobenius_orbit_closure_exhaustive(params, n):
    F = make_ext_field(params, n)
    assert F.order <= 1 << 12
    for a in range(F.order):
        assert F.pow(a, F.order) == a


@pytest.mark.parametrize("params,n", [(P2, 6), (P2, 11), (P3, 5), (P3, 7)])
def test_trace_balanced_exhaustive(params, n):
    F = make_ext_field(params, n)
    counts = collections.Counter(F.trace(a) for a in range(F.order))
    expected = F.order // params.p
    assert counts == {v: expected for v in range(params.p)}


@pytest.mark.parametrize("params,n", [(P2, 12), (P3, 6)])
def test_trace_matches_powering_formula(params, n):
    F = make_ext_field(params, n)
    step = 37  # sampled; the two paths share nothing but mul
    for a in range(0, F.order, step):
        assert F.trace(a) == trace_by_powering(F, a)


@pytest.mark.parametrize(
    "params,n,subdegrees",
    [(P2, 12, (1, 2, 3, 4, 6)), (P3, 6, (1, 2, 3))],
)
def test_subfield_sizes(params, n, subdegrees):
    F = make_ext_field(params, n)
    for m in subdegrees:
        sub = [a for a in range(F.order) if F.pow(a, params.p ** (params.e * m)) == a]
        assert len(sub) == params.p ** (params.e * m)
        # closed under addition and multiplication: a subfield, not just a subset
        probe = sub[: min(len(sub), 8)]
        for a in probe:
            for b in probe:
                assert F.add(a, b) in set(sub)
                assert F.mul(a, b) in set(sub)


def test_field_axioms_sampled():
    import random

    rnd = random.Random(20240801)
    for F in (make_ext_field(P2, 9), make_ext_field(P3, 6)):
        for _ in range(300):
            a, b, c = (rnd.randrange(F.order) for _ in range(3))
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            if a:
                assert F.mul(a, F.inv(a)) == 1
        assert F.add(F.neg(5), 5) == 0


def test_additive_solver_matches_trace():
    for F in (make_ext_field(P2, 6), make_ext_field(P3, 3)):
        for u in range(F.order):
            sols = F.solve_additive(u)
            if F.trace(u) == 0:
                assert len(sols) == F.p
                for w in sols:
                    assert F.sub(F.pow(w, F.p), w) == u
            else:
                assert sols == []


def test_sqrt_consistency_f3():
    for n in (2, 3, 5):
        F = make_ext_field(P3, n)
        squares = collections.Counter(F.mul(a, a) for a in range(F.order))
        for c in range(F.order):
            roots = F.sqrt_list(c)
            assert len(roots) == squares.get(c, 0)
            for r in roots:
                assert F.mul(r, r) == c
