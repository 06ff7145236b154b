"""Field construction, trace and enumeration properties."""

import collections
import hashlib
import math
import random
import time
from array import array

import pytest

from towerbound import curve, ff
from towerbound.errors import OutOfRange, UnsupportedSize
from towerbound.ff import FieldParams, make_ext_field

P2 = FieldParams(2)
P3 = FieldParams(3)
P5 = FieldParams(5)


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
    with pytest.raises(OutOfRange, match="is not prime"):
        FieldParams(4)
    with pytest.raises(OutOfRange, match="is not prime"):
        FieldParams(1)


def test_extension_degree_below_one_is_out_of_range():
    with pytest.raises(OutOfRange, match="extension degree n must be >= 1"):
        ff.ExtField(P2, 0)


def test_size_cap():
    with pytest.raises(UnsupportedSize):
        make_ext_field(P2, 21)
    with pytest.raises(UnsupportedSize):
        make_ext_field(FieldParams(2, 3), 7)  # e*n = 21
    with pytest.raises(UnsupportedSize):
        ff.require_supported_degree(FieldParams(2, 3), 7)  # the check the CLI runs first
    ff.require_supported_degree(FieldParams(2, 4), 5)  # e*n = 20 is allowed
    ff.require_supported_degree(P3, 12)  # 3^12 <= 2^20 < 3^13
    with pytest.raises(UnsupportedSize):
        ff.require_supported_degree(P3, 13)
    with pytest.raises(UnsupportedSize):
        ff.require_supported_degree(FieldParams(3, 2), 7)  # e*n = 14
    start = time.perf_counter()
    with pytest.raises(UnsupportedSize):
        ff.require_supported_degree(P2, 10**9)  # never computes 2**(10**9)
    with pytest.raises(UnsupportedSize):
        FieldParams(2**61 - 1)  # refused before the trial-division primality test
    with pytest.raises(UnsupportedSize):
        FieldParams(1048583)  # the first prime above 2^20
    with pytest.raises(UnsupportedSize):
        FieldParams(1021, 3)  # 1021^3 > 2^20
    assert time.perf_counter() - start < 0.5


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


@pytest.mark.parametrize(
    "params,n_max", [(P2, 12), (P3, 7), (FieldParams(2, 2), 4), (P5, 4)]
)
def test_frobenius_orbits_partition_exhaustive(params, n_max):
    for n in range(1, n_max + 1):
        F = make_ext_field(params, n)
        reps, short = F.orbit_table
        members = []
        for x in reps:
            e = short.get(x, n)
            orbit = [x]  # x, x^q, x^(q^2), ... up to the first return to x
            while (y := F.frobenius_base(orbit[-1])) != x:
                orbit.append(y)
            assert e == len(orbit) and n % e == 0
            assert x == min(orbit)
            members += orbit
        assert sorted(members) == list(range(F.order))  # a partition of the field
        assert list(reps) == sorted(set(reps))


def test_orbit_table_kept_up_to_the_limit(curve_E, curve_H, monkeypatch):
    # E and H both count over F_2^n: up to the limit the second curve reads the
    # first one's table, above it each count walks the field again
    walk, walked = ff.ExtField._walk_orbits, []

    def counted(F):
        walked.append(F.n)
        return walk(F)

    monkeypatch.setattr(ff.ExtField, "_walk_orbits", counted)
    monkeypatch.setattr(ff, "ORBIT_TABLE_LIMIT", 2**8)
    monkeypatch.setattr(ff, "_FIELD_CACHE", {})  # fields without a table yet
    for model in (curve_E, curve_H):
        for n in range(1, 11):
            curve.count_points(model, n)
    curve.enumerate_places(curve_E, 8)
    assert walked == list(range(1, 11)) + [9, 10]
    F, G = make_ext_field(P2, 8), make_ext_field(P2, 9)
    assert F.orbit_table is F.orbit_table
    assert G.orbit_table == G.orbit_table and G.orbit_table is not G.orbit_table


def test_orbit_table_of_a_prime_field_stores_no_entry_per_element():
    # over F_q every element is its own orbit of x -> x^q, of full size n = 1
    F = make_ext_field(FieldParams(65537), 1)
    assert F.orbit_table == (range(65537), {})
    reps, short = make_ext_field(FieldParams(2, 2), 1).orbit_table
    assert [(x, short.get(x, 1)) for x in reps] == [(0, 1), (1, 1), (2, 1), (3, 1)]


def test_orbit_table_keeps_sizes_of_short_orbits_only():
    # an orbit of size e < n lies in the subfield F_{q^e}: only those sizes
    # are stored, every other orbit having size n
    F = make_ext_field(P2, 12)
    reps, short = F.orbit_table
    in_subfields = {x for x in reps if any(F.pow(x, 2**e) == x for e in (1, 2, 3, 4, 6))}
    assert short.keys() == in_subfields
    assert len(short) == 17 < len(reps) == 352


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
    assert len(F.trace_of_power) == F.order - 1
    for k in range(0, F.order - 1, step):  # entry k is Tr(g^k)
        assert F.trace_of_power[k] == trace_by_powering(F, F._exp[k])


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


def _check_additive_solver(F, u):
    sols = F.solve_additive(u)
    assert F.trace(u) == trace_by_powering(F, u)
    if F.trace(u) == 0:
        assert len(set(sols)) == F.p and sols == sorted(sols)
        for w in sols:
            assert F.sub(F.pow(w, F.p), w) == u
    else:
        assert sols == []


def test_additive_solver_matches_trace():
    for params, n in ((P2, 1), (P3, 1), (P5, 1), (P2, 6), (P3, 3)):
        F = make_ext_field(params, n)
        for u in range(F.order):
            _check_additive_solver(F, u)


@pytest.mark.parametrize("params,n", [(P2, 17), (P3, 10)])
def test_additive_solver_sampled_on_large_fields(params, n):
    F = make_ext_field(params, n)
    rnd = random.Random(2026)
    for _ in range(2000):
        u = rnd.randrange(F.order)
        _check_additive_solver(F, u)


def test_sqrt_consistency_f3():
    for n in (2, 3, 5):
        F = make_ext_field(P3, n)
        squares = collections.Counter(F.mul(a, a) for a in range(F.order))
        for c in range(F.order):
            roots = F.sqrt_list(c)
            assert len(roots) == squares.get(c, 0)
            for r in roots:
                assert F.mul(r, r) == c


def assert_agree(F, pairs, unary):
    """Check the tabled operations against untabled polynomial arithmetic
    mod F.modulus written here: products through ff._poly_mulmod, sums
    digit by digit, squares by Euler's criterion through ff._poly_powmod,
    both over the integers mod p."""
    p, mod, K = F.p, F.modulus, ff._IntsMod(F.p)

    def mul(a, b):
        return F.from_coeffs(ff._poly_mulmod(F.coeffs(a), F.coeffs(b), mod, K))

    def add(a, b):
        return F.from_coeffs(x + y for x, y in zip(F.coeffs(a), F.coeffs(b)))

    def neg(a):
        return F.from_coeffs(-x for x in F.coeffs(a))

    def power(a, k):
        out = 1
        for _ in range(k):
            out = mul(out, a)
        return out

    def euler_square(a):
        return a == 0 or ff._poly_powmod(F.coeffs(a), (F.order - 1) // 2, mod, K) == [1]

    for a, b in pairs:
        assert F.add(a, b) == add(a, b)
        assert F.sub(a, b) == add(a, neg(b))
        assert F.mul(a, b) == mul(a, b)
    for a in unary:
        assert F.neg(a) == neg(a)
        assert F.pow(a, 5) == power(a, 5)
        if a:
            assert mul(a, F.inv(a)) == 1
            assert mul(F.pow(a, -3), power(a, 3)) == 1
        if p != 2:
            square = euler_square(a)
            roots = F.sqrt_list(a)
            assert bool(roots) == square
            for r in roots:
                assert mul(r, r) == a
                assert roots == sorted({r, neg(r)})


@pytest.mark.parametrize(
    "params,n",
    [(P2, 8), (P2, 17), (P2, 20), (P3, 7), (P3, 10), (P3, 12), (P5, 5)],
    ids=["f2_8", "f2_17", "f2_20", "f3_7", "f3_10", "f3_12", "f5_5"],
)
def test_tables_agree_with_untabled_arithmetic(params, n):
    F = make_ext_field(params, n)
    rng = random.Random(f"ff-tables:{params.p}:{n}")
    pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(3000)]
    pairs += [(0, 0), (0, 1), (1, 0), (F.order - 1, 0)]
    unary = [0, 1, F.order - 1] + [rng.randrange(F.order) for _ in range(150)]
    assert_agree(F, pairs, unary)


def test_tables_agree_exhaustively_on_a_small_odd_field():
    F = make_ext_field(P5, 2)
    every = range(F.order)
    assert_agree(F, [(a, b) for a in every for b in every], every)


def test_table_limit_covers_f2_17_and_f3_11():
    assert ff.MAX_ORDER == 2**20
    for params, n in ((P2, 17), (P3, 11), (P2, 20), (P3, 12)):
        F = make_ext_field(params, n)
        assert len(F._exp) == F.order - 1 and len(F._log) == F.order
        assert (F._zech is None) == (params.p == 2)


# -- tables built a block at a time, checked entry by entry ------------------

@pytest.mark.parametrize(
    "params,n",
    [(P2, 2), (P2, 8), (P2, 16), (P2, 17), (P2, 20), (P3, 2), (P3, 7), (P3, 10), (P3, 12),
     (P5, 5), (FieldParams(2, 2), 3), (FieldParams(257), 2)],
    ids=["f2_2", "f2_8", "f2_16", "f2_17", "f2_20", "f3_2", "f3_7", "f3_10", "f3_12",
         "f5_5", "f4_3", "f257_2"],
)
def test_tables_entry_by_entry(params, n):
    """exp is a permutation of 1..q-1 with log its inverse; at seeded k and
    at every block boundary, exp[k] is g^k by polynomial powering, the Zech
    entry is the log of 1 + g^k, and trace_of_power agrees with trace."""
    F = make_ext_field(params, n)
    q1, exp, log, p = F.order - 1, F._exp, F._log, F.p
    assert len(exp) == q1 and len(log) == F.order and log[0] == 0
    assert min(exp) >= 1 and max(exp) <= q1
    assert array("l", map(log.__getitem__, exp)) == array("l", range(q1))  # so exp is 1:1
    g, block = F.coeffs(exp[1]), math.isqrt(q1 - 1) + 1
    rng = random.Random(f"ff-blocks:{p}:{F.degree}")
    ks = [rng.randrange(q1) for _ in range(200)] + [block - 1, block, block + 1, q1 - 1]
    for k in (k for k in ks if 0 <= k < q1):
        assert exp[k] == F.from_coeffs(ff._poly_powmod(list(g), k, list(F.modulus), ff._IntsMod(p)))
        if p != 2:  # 1 + g^k digit by digit: only the constant digit moves
            z, v = F._zech[k], exp[k]
            assert (0 if z == q1 else exp[z]) == v - v % p + (v + 1) % p == F.add(1, v)
        assert F.trace_of_power[k] == F.trace(exp[k])


@pytest.mark.parametrize(
    "params,n,codes",
    [
        (P2, 16, "HH"), (P2, 17, "ii"), (P2, 20, "ii"),
        (P3, 9, "HHH"), (P3, 10, "HHH"), (P3, 12, "iii"),
        (FieldParams(257), 1, "HHHH"), (FieldParams(257), 2, "iiiH"),
    ],
    ids=["f2_16", "f2_17", "f2_20", "f3_9", "f3_10", "f3_12", "f257_1", "f257_2"],
)
def test_tables_take_the_narrowest_width(params, n, codes):
    """exp, log, zech and trace_of_power for p >= 256 each take the
    narrowest of "H"/"h" (2 bytes) and "i" (4 bytes) that holds its range:
    exp 1..q-1, log 0..q-2, zech 0..q-1 (q - 1 marking 1 + g^k = 0) and
    traces 0..p-1.  The cases sit on both sides of 2^16.  trace_of_power
    stays bytes for p < 256."""
    F = make_ext_field(params, n)
    q1, p = F.order - 1, F.p
    tables = [(F._exp, 1, q1), (F._log, 0, q1 - 1)]
    if p != 2:
        tables.append((F._zech, 0, q1))
    if p < 256:
        assert type(F.trace_of_power) is bytes
    else:
        tables.append((F.trace_of_power, 0, p - 1))
    assert "".join(t.typecode for t, _, _ in tables) == codes
    for t, low, high in tables:
        assert isinstance(t, array) and low <= min(t) and max(t) <= high
        assert _holds(t.typecode, low, high)
        assert t.itemsize == min(array(c).itemsize for c in "hHi" if _holds(c, low, high))


def _holds(code: str, low: int, high: int) -> bool:
    bits = 8 * array(code).itemsize
    if code.islower():
        return -(2 ** (bits - 1)) <= low and high < 2 ** (bits - 1)
    return 0 <= low and high < 2**bits


# sha256 of array("q", table).tobytes(), taken when the tables held 8 bytes an entry
TABLE_DIGESTS = {
    (2, 16): {
        "exp": "a9c0b9735a82fc72c5287527e2930d5f0603c0dae1bd9c70ade1fc1578a1d84d",
        "log": "94240c0c538545000a38fdd748bfeb7d43508793c0a927f0d801873e4c582cd1",
    },
    (2, 17): {
        "exp": "088c29bcac52a3fdc02f1433e23b95bdc8fa67d6b64a9f6369a8ff1f3814d715",
        "log": "316a060a3c1b8fe081275b18b61294b2d93f400cf4ed9a253a6210935964a68b",
    },
    (3, 10): {
        "exp": "05e6eecc9abe2e8fc95256f41a756ad049ea391b26cc74fa08e316ceeca86baa",
        "log": "58c4d1e8abea512f9cbdb859a3c0b2cf2863e5147d4838ba9b09dec3e6ca872f",
        "zech": "0b362223e83a185845ffe4000a1e6d1aface5614e6ebd3be6f325082e9ed8b06",
    },
    (257, 2): {
        "exp": "cc46faf006585ba43454fd1f4b59d10302569da97dc991a330de2d9018630796",
        "log": "9090944e8398c6cb1ca261d79173fc68f2ea10ae797d27ac79c3373b5b6585ae",
        "zech": "18be15fd270ae48228deff459b08946fd4e6931647584e096ac1e7cb74bdef67",
        "trace_of_power": "72d82224a9f3a3cc997329a3e4afd1afe2441148b72a8a22df4c98e9e7752289",
    },
}


@pytest.mark.parametrize("p,n", list(TABLE_DIGESTS), ids=[f"f{p}_{n}" for p, n in TABLE_DIGESTS])
def test_tables_match_pinned_digests(p, n):
    """Each table, widened to 8-byte ints, hashes to its pinned digest: the
    4-byte tables hold the same values entry for entry.  The Zech marker
    q - 1 is read back as the -1 it was when the digests were taken."""
    F = make_ext_field(FieldParams(p), n)
    q1 = F.order - 1
    zech = None if F._zech is None else [-1 if z == q1 else z for z in F._zech]
    tables = {"exp": F._exp, "log": F._log, "zech": zech, "trace_of_power": F.trace_of_power}
    want = TABLE_DIGESTS[p, n]
    assert {k: hashlib.sha256(array("q", tables[k]).tobytes()).hexdigest() for k in want} == want


def _monic(m: int, p: int):
    """Every monic polynomial of degree m over F_p, in packed order."""
    for low in range(p**m):
        yield [low // p**i % p for i in range(m)] + [1]


def _has_monic_factor(f: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(f)/2."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for g in _monic(d, p):
            rem = list(f)
            for top in range(m, d - 1, -1):  # g is monic: cancel the leading digit
                c = rem[top]
                for i in range(d + 1):
                    rem[top - d + i] = (rem[top - d + i] - c * g[i]) % p
            if not any(rem):
                return True
    return False


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_smallest_irreducible_by_trial_division(p):
    m = 1
    while p**m <= 4096:
        want = next(f for f in _monic(m, p) if not _has_monic_factor(f, p))
        assert ff._smallest_irreducible(m, p) == want, (p, m)
        m += 1
    assert ff._smallest_irreducible(1, p) == [0, 1]  # x


@pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 4)])
def test_irreducibility_test_agrees_with_trial_division(p, max_degree):
    for m in range(1, max_degree + 1):
        for f in _monic(m, p):
            assert ff._is_irreducible(f, p) == (not _has_monic_factor(f, p)), f


def test_tables_take_few_polynomial_products(monkeypatch):
    """Building a field takes polynomial products only to find the modulus,
    the generator and the columns of its linear maps, never one per table
    entry."""
    calls = [0]
    mulmod = ff._poly_mulmod

    def counted(*args):
        calls[0] += 1
        return mulmod(*args)

    monkeypatch.setattr(ff, "_poly_mulmod", counted)
    for n in (17, 20):
        calls[0] = 0
        ff.ExtField(P2, n)
        assert calls[0] <= 300, (n, calls[0])


def _least_generator_by_powering(F):
    """The least packed element c with c^((q-1)/r) != 1 for every prime r of
    q - 1, each power by polynomial powering mod the modulus."""
    q1, mod, K = F.order - 1, list(F.modulus), ff._IntsMod(F.p)
    return next(
        c for c in range(2, F.order)
        if all(ff._poly_powmod(list(F.coeffs(c)), q1 // r, mod, K) != [1]
               for r in ff._prime_factors(q1))
    )


@pytest.mark.parametrize(
    "p,n",
    [(3, n) for n in range(2, 11)] + [(5, n) for n in range(1, 7)] + [(7, n) for n in range(1, 6)]
    + [(11, 3), (13, 2), (257, 2), (1021, 2), (65521, 1)],
)
def test_generator_equals_the_powering_rule(p, n):
    """The r = 2 test by Euler's criterion on the norm picks the same least
    generator as powering by (q - 1)/2."""
    F = ff.ExtField(FieldParams(p), n)
    assert F._exp[1] == _least_generator_by_powering(F)


@pytest.mark.parametrize("p,n", [(3, 5), (5, 3), (7, 2), (257, 2)])
def test_norm_is_the_product_of_conjugates(p, n):
    """_norm(c) is c * c^p * ... * c^(p^(m-1)), an element of F_p."""
    F = make_ext_field(FieldParams(p), n)
    mod = list(F.modulus)
    for c in random.Random(f"norm:{p}:{n}").sample(range(1, F.order), 40):
        prod, conj = 1, c
        for _ in range(F.degree):
            prod, conj = F.mul(prod, conj), F.pow(conj, p)
        assert ff._norm(F.coeffs(c), mod, p) == prod
