"""Explicit affine plane curves over F_q: point counts, place spectra, zeta checks.

A curve is presented as a bivariate polynomial identity F(x, y) = 0 with
prime-field coefficients, together with an explicit list of places at
infinity (the shipped base models each have a single rational one) and a
declared genus.  The infinite places are metadata only, (degree, count)
pairs: they enter N_n through `points_over` and are never a `Place`.
Point counts and places read one walk over F_{q^n}: one x per Frobenius
orbit and its list of roots in y, the orbits read from the field's
`orbit_table`.  N_n sums the lengths of the root lists weighted by the
orbit sizes; the place spectrum a_d follows by Moebius inversion, and the
counts are validated against the L-polynomial that Newton's identities
rebuild from N_1..N_g, for every genus.  Affine places of degree d group
the same roots into orbits, each keyed by its least point (x, y); over an
x of orbit size d each root is a place of its own.

`root_lists` is the one walk over root lists: it yields (x, roots) for any
sequence of x, a chunk of at most CHUNK x values at a time, solved on the
logs of the y-coefficients, so no list holds the field.  The place counts
read it over the orbit representatives, and cover's oracle over every x.
`points_over` is the one rule for the points of places over F_{q^n}: a
place of degree m has m of them when m | n.  It gives the infinite places'
share of N_n, N_n from the spectrum a_d, and the oracle's declared points.

Every bivariate polynomial, here and in `cover`, is evaluated one way: it is
compiled once into terms (c, i, j) for each zero pattern of a point
(`compile_poly2`), and `eval_compiled` gives the log of the sum of
c * g^(i log x + j log y), one polynomial at one point.  `eval_columns`
applies the same rule a column of points at a time, one comprehension per
term: the y-coefficients of F over a chunk of x, and cover's A over a batch
of points.  These sums and the quadratic formula read the field's tables
with no element-method call per term or root: in odd characteristic a sum
is held as a log and each addition is one read of the Zech table
log(1 + g^k), whose entry q - 1 marks a zero sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InconsistentModel, OutOfRange
from .ff import ExtField, FieldParams, make_ext_field, require_supported_degree
from .ff import _poly_gcd, _poly_mulmod, _poly_powmod, _poly_sub

Poly2 = Mapping[tuple[int, int], int]  # (x exponent, y exponent) -> coefficient mod p

CHUNK = 32  # x values whose root lists are found together


def normalize_poly2(poly: Mapping[tuple[int, int], int], p: int) -> dict[tuple[int, int], int]:
    out = {}
    for (i, j), c in poly.items():
        c %= p
        if c:
            out[(i, j)] = c
    return out


def canonical_poly2(poly, p: int) -> tuple:
    """The sorted ((i, j), c) terms of poly, a mapping or such pairs, with
    each c reduced mod p and nonzero: CurveModel.poly and a cover's A and B."""
    return tuple(sorted(normalize_poly2(dict(poly), p).items()))


def total_degree(poly: Poly2) -> int:
    """max(i + j) over the terms c x^i y^j; 0 for the zero polynomial."""
    return max((i + j for i, j in poly), default=0)


@dataclass(frozen=True)
class CurveModel:
    """Affine model F(x, y) = 0 plus declared infinite places and genus.

    Infinite places are model metadata, not computed by desingularization;
    absolute irreducibility of the equation is likewise a recorded
    assumption of the model, not machine-verified.
    """

    params: FieldParams
    poly: tuple  # canonical_poly2's tuple of ((i, j), c), built by create
    infinite_places: tuple[tuple[int, int], ...]  # (degree, count)
    genus: int
    name: str = ""

    @staticmethod
    def create(
        params: FieldParams,
        poly: Mapping[tuple[int, int], int],
        infinite_places=((1, 1),),
        genus: int = 0,
        name: str = "",
    ) -> "CurveModel":
        if genus < 0:
            raise OutOfRange("genus must be nonnegative")
        for m, cnt in infinite_places:
            if m < 1 or cnt < 1:
                raise OutOfRange("infinite places need degree >= 1 and count >= 1")
        return CurveModel(
            params=params,
            poly=canonical_poly2(poly, params.p),
            infinite_places=tuple(infinite_places),
            genus=genus,
            name=name,
        )

    @property
    def poly_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.poly)

    def assumptions(self) -> list[str]:
        return [
            f"model {self.name or '<anon>'}: absolute irreducibility "
            "of the equation is declared, not machine-verified",
            f"model {self.name or '<anon>'}: infinite places {list(self.infinite_places)} "
            "are declared metadata",
        ]

    def infinite_index_degrees(self) -> list[int]:
        """Degree of each individual infinite place, in declaration order."""
        out = []
        for m, cnt in self.infinite_places:
            out.extend([m] * cnt)
        return out


@dataclass(frozen=True)
class Place:
    """An affine closed point: Galois orbit of size `degree` of curve points.

    `key` is the canonical orbit identifier, the pair (x, y) with smallest
    packed value over F_{q^degree}; trace evaluation reads it as the place's
    point.  Infinite places are never a Place: they are the model's
    `infinite_places` metadata.
    """

    degree: int
    key: tuple


# ---------------------------------------------------------------------------
# compiled polynomials and point counting
# ---------------------------------------------------------------------------


def compile_poly2(polys: Sequence[tuple]) -> dict[tuple[bool, bool], tuple]:
    """Each of polys, a canonical ((i, j), c) tuple, as the terms (c, i, j)
    that survive a zero pattern (x == 0, y == 0) of a point, keyed by the
    pattern: a zero coordinate drops every term with a positive power of it.
    """
    return {
        (x_zero, y_zero): tuple(
            tuple((c, i, j) for (i, j), c in poly if not (x_zero and i or y_zero and j))
            for poly in polys
        )
        for x_zero, y_zero in product((False, True), repeat=2)
    }


def eval_compiled(F: ExtField, terms: tuple, lx: int, ly: int) -> int:
    """The log of the compiled polynomial terms at the point whose
    coordinates have logs lx, ly, or -1 where it vanishes: the log of
    c * g^(i lx + j ly) summed over its terms.

    terms must be compiled for the point's zero pattern.  F._log[0] is 0, so
    the logs of a zero coordinate need no special case: only terms free of
    it survive.  Over F_2 every c is 1 and the terms are xored.  In odd
    characteristic the sum is held as a log (log c joins the exponent) and
    each term is added by ExtField.add's rule inlined: one Zech read.
    """
    q1, exp, log = F._q1, F._exp, F._log
    if F.p == 2:
        acc = 0
        for _, i, j in terms:
            acc ^= exp[(i * lx + j * ly) % q1]
        return log[acc] if acc else -1
    zech = F._zech
    acc = -1  # the log of the sum so far, unreduced; -1 for zero
    for c, i, j in terms:
        t = log[c] + i * lx + j * ly
        if acc < 0:
            acc = t
        else:
            z = zech[(t - acc) % q1]
            acc = -1 if z == q1 else acc + z
    return acc % q1 if acc >= 0 else -1


def eval_columns(F: ExtField, terms: tuple, lxs: Sequence[int], lys: Iterable[int]) -> list[int]:
    """eval_compiled's rule a column at a time: the log of the compiled
    polynomial terms at each point whose coordinates have logs lxs[k] and
    lys[k], or -1 where it vanishes.

    terms must be compiled for the zero pattern of every point.  The column
    starts from the first term, and each further term adds one
    comprehension; a polynomial whose terms are all constant is evaluated
    once and repeated.
    """
    if all(i == j == 0 for _, i, j in terms):
        return [eval_compiled(F, terms, 0, 0)] * len(lxs)
    q1, exp, log = F._q1, F._exp, F._log
    (c, i, j), *rest = terms
    if F.p == 2:
        col = [exp[(i * a + j * b) % q1] for a, b in zip(lxs, lys)]
        for _, i, j in rest:
            col = [v ^ exp[(i * a + j * b) % q1] for v, a, b in zip(col, lxs, lys)]
        return [log[v] if v else -1 for v in col]
    zech = F._zech
    lc = log[c]
    col = [lc + i * a + j * b for a, b in zip(lxs, lys)]  # unreduced logs; -1 for zero
    for c, i, j in rest:
        lc = log[c]
        col = [
            lc + i * a + j * b if s < 0
            else -1 if (z := zech[(lc + i * a + j * b - s) % q1]) == q1
            else s + z
            for s, a, b in zip(col, lxs, lys)
        ]
    return [s % q1 if s >= 0 else -1 for s in col]


def _y_coefficients(model: CurveModel) -> dict[tuple[bool, bool], tuple]:
    """The coefficients of F(x, y) as a polynomial in y, low to high, compiled."""
    deg_y = max((j for (_, j), _ in model.poly), default=0)
    return compile_poly2(
        [tuple(((i, 0), c) for (i, j), c in model.poly if j == k) for k in range(deg_y + 1)]
    )


def _y_columns(F: ExtField, coeffs: dict, xs: Sequence[int]) -> list[list[int]]:
    """Column k holds the log of the y^k coefficient of F(x, y) at each x of
    xs, or -1 where it vanishes; coeffs holds the coefficients compiled by
    _y_coefficients.

    Each column is eval_columns' over the logs of xs, with no y (j = 0):
    at x = g^k the term c x^i is g^(log c + i k).  x = 0 keeps its own zero
    pattern, through eval_compiled.
    """
    log = F._log
    lxs = [log[x] for x in xs]
    cols = [eval_columns(F, terms, lxs, repeat(0)) for terms in coeffs[False, False]]
    if 0 in xs:
        at = xs.index(0)
        for col, terms in zip(cols, coeffs[True, False]):
            col[at] = eval_compiled(F, terms, 0, 0)
    return cols


def root_lists(model: CurveModel, F: ExtField, xs: Sequence[int]) -> Iterator[tuple]:
    """(x, roots) for each x of xs, in its order: roots are the distinct y in
    F with F(x, y) = 0.

    The x values are taken a chunk of at most CHUNK at a time, and each row
    of _y_columns, the coefficient logs at one x, is solved by the degree of
    its last nonzero entry: the zero polynomial has the roots range(F.order),
    not a list (counting over a vertical component takes its len() without
    holding q^n roots per x); degree 0 none; degree 1 -a0/a1; degree 2
    _quadratic_roots; degree >= 3 (user-supplied models only)
    _distinct_roots, by gcds.
    """
    coeffs = _y_coefficients(model)
    exp, q1 = F._exp, F._q1
    neg = F._half if F.p != 2 else 0  # log(-1)
    for start in range(0, len(xs), CHUNK):
        chunk = xs[start:start + CHUNK]
        cols = _y_columns(F, coeffs, chunk)
        top = len(cols) - 1
        for x, row in zip(chunk, zip(*cols)):
            deg = top
            while deg >= 0 and row[deg] < 0:
                deg -= 1
            if deg == 2:
                yield x, _quadratic_roots(F, row[0], row[1], row[2])
            elif deg == 1:
                yield x, [exp[(row[0] - row[1] + neg) % q1] if row[0] >= 0 else 0]
            elif deg == 0:
                yield x, []
            elif deg < 0:
                yield x, range(F.order)
            else:
                yield x, _distinct_roots(F, [exp[c] if c >= 0 else 0 for c in row[:deg + 1]])


def _quadratic_roots(F: ExtField, l0: int, l1: int, l2: int) -> list[int]:
    """The roots of a2 y^2 + a1 y + a0 (a2 != 0) from the logs l0, l1, l2 of
    its coefficients, -1 standing for the log of zero.  Products are log
    sums, and in odd characteristic each sum of two elements is
    ExtField.add's rule inlined, one Zech read.

    The order is that of the square roots sqrt_list lists (odd p), or of the
    solutions solve_additive lists (p = 2).
    """
    exp, log, q1 = F._exp, F._log, F._q1
    if F.p == 2:
        if l1 < 0:  # y^2 = a0/a2; the square root halves the log mod the odd q1
            return [exp[(l0 - l2) * ((q1 + 1) // 2) % q1] if l0 >= 0 else 0]
        # substitute y = (a1/a2) w: w^2 + w = a0*a2/a1^2, whose solutions
        # are t and t + 1 when the trace digit of t vanishes (solve_additive's
        # two table reads inlined; over F_2 their field sum is an xor)
        u = exp[(l0 + l2 - 2 * l1) % q1] if l0 >= 0 else 0
        t = F._lin_lo[u % F._split] ^ F._lin_hi[u // F._split]
        if t & 1:
            return []
        return [exp[(log[t] + l1 - l2) % q1] if t else 0, exp[(log[t + 1] + l1 - l2) % q1]]
    zech, half, p = F._zech, F._half, F.p  # g^half = -1
    d = log[4 % p] + half + l0 + l2 if l0 >= 0 else -1  # -4 a0 a2, then plus a1^2
    if l1 >= 0:
        z = zech[(d - 2 * l1) % q1] if d >= 0 else 0
        d = -1 if z == q1 else 2 * l1 + z
    if d < 0:
        roots = [-1]  # the double root r = 0
    elif d % 2:  # q1 is even: an odd log is a nonsquare
        return []
    else:
        r = d // 2 % q1
        roots = sorted((r, (r + half) % q1), key=exp.__getitem__)
    shift = log[2 % p] + l2
    out = []
    for r in roots:  # y = (r - a1)/(2 a2)
        m = r
        if l1 >= 0:
            m = l1 + half  # -a1
            if r >= 0:
                z = zech[(m - r) % q1]
                m = -1 if z == q1 else r + z
        out.append(exp[(m - shift) % q1] if m >= 0 else 0)
    return out


def _distinct_roots(F: ExtField, cs: list[int]) -> list[int]:
    """The distinct roots in F = F_Q of sum(cs[k] y^k), cs[-1] != 0, ascending:
    those of g = gcd(f, y^Q - y), f monic, split by gcds for b = 1, 2, ... in
    turn: against Tr(b y) and Tr(b y) + 1 over F_2, Tr the absolute trace
    (Berlekamp, Math. Comp. 24, 1970); against y + b and (y + b)^((Q-1)/2)
    -+ 1, by the quadratic character of r + b at each root r, in odd
    characteristic.  Some b parts any two roots r != s (a basis element with
    Tr(b (r - s)) = 1, or b = -r or -s).  A b that does not split g splits no
    factor of it, so the factors go on from b + 1.  Each split costs
    O(deg^2 log Q) field operations.
    """
    f = [F.div(c, cs[-1]) for c in cs]
    todo = [(_poly_gcd(f, _poly_sub(_poly_powmod([0, 1], F.order, f, F), [0, 1], F), F), 1)]
    roots = []
    while todo:
        g, b = todo.pop()
        if len(g) <= 2:  # one root or none
            roots += [F.neg(g[0])] if len(g) == 2 else []
            continue
        if F.p == 2:
            t = tr = [0, b]
            for _ in range(F.degree - 1):
                t = _poly_mulmod(t, t, g, F)
                tr = _poly_sub(tr, t, F)  # a sum, in characteristic 2
            parts = [tr, _poly_sub(tr, [1], F)]
        else:
            s = _poly_powmod([b, 1], (F.order - 1) // 2, g, F)
            parts = [[b, 1], _poly_sub(s, [1], F), _poly_sub(s, [F.neg(1)], F)]
        factors = [_poly_gcd(g, h, F) for h in parts]
        todo += [(h, b + 1) for h in factors] if max(map(len, factors)) < len(g) else [(g, b + 1)]
    return sorted(roots)


def count_affine(model: CurveModel, n: int) -> int:
    """Number of solutions of F(x, y) = 0 in F_{q^n} x F_{q^n}.

    The length of each orbit representative's root list, weighted by the
    orbit size: the coefficients lie in F_p, so y -> y^q maps the roots over
    x onto those over x^q.
    """
    F = make_ext_field(model.params, n)
    reps, short = F.orbit_table
    return sum(short.get(x, n) * len(roots) for x, roots in root_lists(model, F, reps))


def points_over(places: Iterable[tuple[int, int]], n: int) -> int:
    """The points over F_{q^n} of places given as (degree m, count) pairs: a
    place of degree m has m of them when m | n, and none otherwise."""
    return sum(m * count for m, count in places if n % m == 0)


def count_points(model: CurveModel, n: int) -> int:
    """N_n: affine solutions plus the points of the infinite places."""
    return count_affine(model, n) + points_over(model.infinite_places, n)


# ---------------------------------------------------------------------------
# Moebius inversion between point counts and the place spectrum
# ---------------------------------------------------------------------------


def mobius(n: int) -> int:
    if n == 1:
        return 1
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def counts_to_spectrum(N: Mapping[int, int], d_max: int) -> dict[int, int]:
    """a_d = (1/d) sum_{m | d} mu(d/m) N_m, validated nonnegative integral."""
    a = {}
    for d in range(1, d_max + 1):
        s = sum(mobius(d // m) * N[m] for m in divisors(d))
        if s % d or s < 0:
            raise InconsistentModel(
                f"Moebius inversion gives a_{d} = {s}/{d}: "
                "wrong equation or wrong infinite-place list"
            )
        a[d] = s // d
    return a


def spectrum_to_counts(a: Mapping[int, int], n_max: int) -> dict[int, int]:
    return {n: points_over(a.items(), n) for n in range(1, n_max + 1)}


def _check_weil_bound(q: int, genus: int, n: int, Nn: int) -> None:
    """Raise InconsistentModel unless (N_n - q^n - 1)^2 <= 4 g^2 q^n, the
    exact form of the Weil bound."""
    if (Nn - q**n - 1) ** 2 > 4 * genus**2 * q**n:
        raise InconsistentModel(
            f"N_{n} = {Nn} violates the Weil bound for genus {genus} over F_{q}"
        )


@dataclass(frozen=True)
class PlaceSpectrum:
    """Counts a_d of places by degree and the genus; N_n derives from a_d.

    Validated when built: a negative a_d or an N_n past the Weil bound
    raises InconsistentModel."""

    params: FieldParams
    a: tuple  # ((d, a_d), ...), d = 1..d_max
    genus: int

    def __post_init__(self):
        self.validate()

    @property
    def a_map(self) -> dict[int, int]:
        return dict(self.a)

    @property
    def n_map(self) -> dict[int, int]:
        return spectrum_to_counts(self.a_map, self.d_max)

    @property
    def d_max(self) -> int:
        return max((d for d, _ in self.a), default=0)

    def a_tuple(self, d_max: int | None = None) -> tuple[int, ...]:
        amap = self.a_map
        d_max = d_max or self.d_max
        return tuple(amap.get(d, 0) for d in range(1, d_max + 1))

    @staticmethod
    def from_spectrum(params: FieldParams, a: Mapping[int, int], genus: int) -> "PlaceSpectrum":
        if not a or min(a) < 1:
            raise OutOfRange(f"place degrees must be >= 1 and present, got {sorted(a)}")
        full = {d: a.get(d, 0) for d in range(1, max(a) + 1)}
        return PlaceSpectrum(params=params, a=tuple(sorted(full.items())), genus=genus)

    def validate(self):
        for d, v in self.a:
            if v < 0:
                raise InconsistentModel(f"negative place count a_{d} = {v}")
        for n, Nn in self.n_map.items():
            _check_weil_bound(self.params.q, self.genus, n, Nn)


def spectrum_from_counts(model: CurveModel, d_max: int) -> PlaceSpectrum:
    """Place spectrum of the model up to degree d_max, from exact point counts.

    Raises OutOfRange before counting when d_max < 1, UnsupportedSize when
    F_{q^d_max} is out of reach, and InconsistentModel as soon as a count
    breaks the Weil bound.
    """
    if d_max < 1:
        raise OutOfRange(f"d_max must be >= 1, got {d_max}")
    require_supported_degree(model.params, d_max)
    N = {}
    for n in range(1, d_max + 1):
        N[n] = count_points(model, n)
        _check_weil_bound(model.params.q, model.genus, n, N[n])
    return PlaceSpectrum.from_spectrum(model.params, counts_to_spectrum(N, d_max), model.genus)


# ---------------------------------------------------------------------------
# places as Galois orbits
# ---------------------------------------------------------------------------


def enumerate_places(model: CurveModel, d: int) -> list[Place]:
    """One canonical representative per place of degree exactly d, ascending by key.

    Affine places come from one x per Frobenius orbit over F_{q^d}: with e
    the orbit size of x, the points of a place over x form one orbit of
    y -> y^(q^e) among the roots over x, and the place has degree e times
    its size.  Its key, the least point of the orbit, is (x, least such y).
    When e == d, y^(q^d) = y: each root is a place of its own, with no
    powering.  Infinite places are not listed: they are the model's
    `infinite_places` metadata.
    """
    F = make_ext_field(model.params, d)
    reps, short = F.orbit_table
    places = []
    for x, roots in root_lists(model, F, reps):
        e = short.get(x, d)
        if e == d:
            places += [Place(degree=d, key=(x, y)) for y in sorted(roots)]
            continue
        step = model.params.q**e
        for y in sorted(roots):
            orbit = [y]
            while (cy := F.pow(orbit[-1], step)) != y:
                orbit.append(cy)
            if e * len(orbit) == d and y == min(orbit):
                places.append(Place(degree=d, key=(x, y)))
    return places


# ---------------------------------------------------------------------------
# zeta consistency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaReport:
    passed: bool
    l_coeffs: tuple[int, ...]  # L(T) = sum c_i T^i, c_0 = 1
    predicted: tuple  # ((n, N_n) for genus < n <= 2*genus)
    discrepancies: tuple  # ((n, predicted, stored), ...)

    def describe(self) -> str:
        lpoly = " + ".join(
            f"{c}T^{i}" if i > 1 else (f"{c}T" if i == 1 else str(c))
            for i, c in enumerate(self.l_coeffs)
        )
        status = "pass" if self.passed else "FAIL"
        return f"zeta {status}: L(T) = {lpoly}"


def zeta_check(spectrum: PlaceSpectrum) -> ZetaReport:
    """Rebuild the L-polynomial from N_1..N_g and re-predict every stored
    N_n with n > g.

    Newton's identities convert the power sums q^k + 1 - N_k of the
    reciprocal roots into the low-order coefficients; the functional
    equation c_{2g-i} = q^{g-i} c_i supplies the rest, and c_k = 0 past 2g.
    Any non-integral coefficient raises; mismatched predictions are reported
    as failures.  `predicted` lists g < n <= 2g.
    """
    g = spectrum.genus
    q = spectrum.params.q
    nmap = spectrum.n_map
    need = range(1, 2 * g + 1)
    missing = [n for n in need if n not in nmap]
    if missing:
        raise OutOfRange(f"zeta check needs N_n for n = 1..{2 * g}; missing {missing}")
    P = {k: q**k + 1 - nmap[k] for k in need}
    c = [1] + [0] * (2 * g)
    for k in range(1, g + 1):
        s = P[k] + sum(c[i] * P[k - i] for i in range(1, k))
        if s % k:
            raise InconsistentModel(
                f"Newton identity gives non-integral coefficient c_{k} = -{s}/{k}"
            )
        c[k] = -s // k
    for i in range(g):
        c[2 * g - i] = q ** (g - i) * c[i]
    # forward recurrence over the full polynomial predicts the upper counts
    Phat = dict(P)
    predicted = []
    discrepancies = []
    for k in range(g + 1, spectrum.d_max + 1):
        ck = c[k] if k <= 2 * g else 0
        Phat[k] = -(k * ck + sum(c[i] * Phat[k - i] for i in range(1, min(k, 2 * g + 1))))
        Nhat = q**k + 1 - Phat[k]
        if k <= 2 * g:
            predicted.append((k, Nhat))
        if Nhat != nmap[k]:
            discrepancies.append((k, Nhat, nmap[k]))
    return ZetaReport(
        passed=not discrepancies,
        l_coeffs=tuple(c),
        predicted=tuple(predicted),
        discrepancies=tuple(discrepancies),
    )
