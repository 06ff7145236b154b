"""Explicit affine plane curves over F_q: point counts, place spectra, zeta checks.

A curve is presented as a bivariate polynomial identity F(x, y) = 0 with
prime-field coefficients, together with an explicit list of places at
infinity (the shipped base models each have a single rational one) and a
declared genus.  Point counts N_n over F_{q^n} are obtained by direct
enumeration in x with exact root counting in y; the place spectrum a_d
follows by Moebius inversion, and for genus <= 2 the counts are validated
against the L-polynomial reconstructed through Newton's identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import FunctionalEquationViolation, InconsistentModel, OutOfRange, UnsupportedSize
from .ff import ExtField, FieldParams, make_ext_field

Poly2 = Mapping[tuple[int, int], int]  # (x exponent, y exponent) -> coefficient mod p

ROOT_SCAN_LIMIT = 1 << 12  # brute root scan allowed only on tiny fields


def normalize_poly2(poly: Mapping[tuple[int, int], int], p: int) -> dict[tuple[int, int], int]:
    out = {}
    for (i, j), c in poly.items():
        c %= p
        if c:
            out[(i, j)] = c
    return out


def poly2_str(poly: Poly2) -> str:
    if not poly:
        return "0"
    parts = []
    for (i, j), c in sorted(poly.items(), key=lambda kv: (-kv[0][1], -kv[0][0])):
        mono = "*".join(
            ([] if c == 1 and (i or j) else [str(c)])
            + ([f"x^{i}" if i > 1 else "x"] if i else [])
            + ([f"y^{j}" if j > 1 else "y"] if j else [])
        )
        parts.append(mono or str(c))
    return " + ".join(parts)


@dataclass(frozen=True)
class CurveModel:
    """Affine model F(x, y) = 0 plus declared infinite places and genus.

    Infinite places are model metadata, not computed by desingularization;
    absolute irreducibility of the equation is likewise a recorded
    assumption of the model, not machine-verified.
    """

    params: FieldParams
    poly: tuple  # canonical tuple of ((i, j), c), built via the constructor helper
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
        norm = normalize_poly2(poly, params.p)
        if genus < 0:
            raise OutOfRange("genus must be nonnegative")
        for m, cnt in infinite_places:
            if m < 1 or cnt < 1:
                raise OutOfRange("infinite places need degree >= 1 and count >= 1")
        return CurveModel(
            params=params,
            poly=tuple(sorted(norm.items())),
            infinite_places=tuple(infinite_places),
            genus=genus,
            name=name,
        )

    @property
    def poly_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.poly)

    def assumptions(self) -> list[str]:
        return [
            f"model {self.name or poly2_str(self.poly_dict)}: absolute irreducibility "
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
    """A closed point: Galois orbit of size `degree` of curve points.

    `rep` is the representative actually supplied (any point of the orbit,
    packed coordinates over F_{q^degree}); `key` is the canonical orbit
    identifier, the coordinate pair with smallest packed value, or
    ('inf', index) for a declared infinite place.
    """

    degree: int
    key: tuple
    rep: tuple[int, int] | None = field(default=None, compare=False)

    @property
    def is_infinite(self) -> bool:
        return self.rep is None


# ---------------------------------------------------------------------------
# point counting
# ---------------------------------------------------------------------------


class PolyEvaluator:
    """Evaluates a fixed list of polynomials in (x, y) at points over F_p-extensions.

    The work shared between the polynomials is done once per point: the
    powers of x and y, and each distinct mixed monomial x^i y^j.
    Coefficients are reduced mod p once, at construction.
    """

    def __init__(self, polys: Iterable[Poly2], p: int):
        polys = [normalize_poly2(dict(poly), p) for poly in polys]
        monos = {m for poly in polys for m in poly}
        self._max_x = max((i for i, _ in monos), default=0)
        self._max_y = max((j for _, j in monos), default=0)
        # slots: x^0..x^max_x, then y^1..y^max_y, then the mixed monomials
        self._mixed = tuple(sorted((i, j) for i, j in monos if i and j))
        slot = {(i, 0): i for i in range(self._max_x + 1)}
        slot.update({(0, j): self._max_x + j for j in range(1, self._max_y + 1)})
        base = self._max_x + self._max_y + 1
        slot.update({m: base + k for k, m in enumerate(self._mixed)})
        # per polynomial: (constant term, ((slot, coefficient), ...))
        self._terms = tuple(
            (poly.pop((0, 0), 0), tuple((slot[m], c) for m, c in sorted(poly.items())))
            for poly in polys
        )

    def __call__(self, F: ExtField, x: int, y: int) -> list[int]:
        """The value of each polynomial at (x, y), packed, in construction order."""
        mul, add = F.mul, F.add
        values = F.powers(x, self._max_x)
        if self._max_y:
            xp, yp = values, F.powers(y, self._max_y)
            values = xp + yp[1:] + [mul(xp[i], yp[j]) for i, j in self._mixed]
        out = []
        for acc, terms in self._terms:
            for k, c in terms:
                v = values[k] if c == 1 else mul(c, values[k])
                acc = add(acc, v) if acc else v
            out.append(acc)
        return out


def eval_poly2(F: ExtField, poly: Poly2, x: int, y: int) -> int:
    """Evaluate sum c * x^i * y^j at a point with packed coordinates."""
    return PolyEvaluator((poly,), F.p)(F, x, y)[0]


def _y_coefficients(model: CurveModel) -> PolyEvaluator:
    """Evaluator of the coefficients of F(x, y) as a polynomial in y, low to high."""
    deg_y = max((j for (_, j), _ in model.poly), default=0)
    return PolyEvaluator(
        [{(i, 0): c for (i, j), c in model.poly if j == k} for k in range(deg_y + 1)],
        model.params.p,
    )


def _y_polynomial(F: ExtField, coeffs: PolyEvaluator, x: int) -> list[int]:
    """Coefficient list (low to high in y) of F(x, y) at x, trailing zeros trimmed."""
    cs = coeffs(F, x, 0)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _quadratic_root_count(F: ExtField, a0: int, a1: int, a2: int) -> int:
    """Distinct roots of a2 y^2 + a1 y + a0, a2 != 0."""
    if F.p == 2:
        if a1 == 0:
            return 1  # y^2 = c has a unique root: Frobenius is bijective
        u = F.div(F.mul(a0, a2), F.mul(a1, a1))
        return 2 if F.trace(u) == 0 else 0
    four = 4 % F.p
    disc = F.sub(F.mul(a1, a1), F.mul(four, F.mul(a2, a0)))
    if disc == 0:
        return 1
    return 2 if F.is_square(disc) else 0


def _quadratic_roots(F: ExtField, a0: int, a1: int, a2: int) -> list[int]:
    if F.p == 2:
        if a1 == 0:
            return [F.pth_root(F.div(F.neg(a0), a2))]
        # substitute y = (a1/a2) w: w^2 + w = a0*a2/a1^2
        u = F.div(F.mul(a0, a2), F.mul(a1, a1))
        scale = F.div(a1, a2)
        return sorted(F.mul(scale, w) for w in F.solve_additive(u))
    four = 4 % F.p
    disc = F.sub(F.mul(a1, a1), F.mul(four, F.mul(a2, a0)))
    roots = F.sqrt_list(disc)
    if not roots:
        return []
    inv2a = F.inv(F.mul(2 % F.p, a2))
    return sorted({F.mul(F.add(F.neg(a1), r), inv2a) for r in roots})


def _poly_root_count(F: ExtField, cs: list[int]) -> int:
    """Distinct roots in F of the univariate polynomial with coefficients cs."""
    deg = len(cs) - 1
    if deg <= 0:
        return F.order if not cs else 0
    if deg == 1:
        return 1
    if deg == 2:
        return _quadratic_root_count(F, cs[0], cs[1], cs[2])
    return len(_poly_roots_generic(F, cs))


def _poly_roots(F: ExtField, cs: list[int]) -> list[int]:
    deg = len(cs) - 1
    if deg <= 0:
        return list(range(F.order)) if not cs else []
    if deg == 1:
        return [F.div(F.neg(cs[0]), cs[1])]
    if deg == 2:
        return _quadratic_roots(F, cs[0], cs[1], cs[2])
    return _poly_roots_generic(F, cs)


def _poly_roots_generic(F: ExtField, cs: list[int]) -> list[int]:
    # degree >= 3 only happens for user-supplied models; scan, with a size guard
    if F.order > ROOT_SCAN_LIMIT:
        raise UnsupportedSize(
            f"degree-{len(cs) - 1} root finding over a field of order {F.order} "
            "is outside the supported range"
        )
    return [y for y in range(F.order) if _eval_univariate(F, cs, y) == 0]


def _eval_univariate(F: ExtField, cs: list[int], y: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = F.add(F.mul(acc, y), c)
    return acc


def count_affine(model: CurveModel, n: int) -> int:
    """Number of solutions of F(x, y) = 0 in F_{q^n} x F_{q^n}."""
    F = make_ext_field(model.params, n)
    coeffs = _y_coefficients(model)
    return sum(_poly_root_count(F, _y_polynomial(F, coeffs, x)) for x in range(F.order))


def affine_solutions(model: CurveModel, n: int) -> Iterator[tuple[int, int]]:
    """All (x, y) solutions over F_{q^n}, root finding rather than counting."""
    F = make_ext_field(model.params, n)
    coeffs = _y_coefficients(model)
    for x in range(F.order):
        for y in _poly_roots(F, _y_polynomial(F, coeffs, x)):
            yield (x, y)


def count_points(model: CurveModel, n: int) -> int:
    """N_n: affine solutions plus infinite places of degree m | n (m points each)."""
    total = count_affine(model, n)
    for m, cnt in model.infinite_places:
        if n % m == 0:
            total += m * cnt
    return total


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
    return {n: sum(d * a[d] for d in divisors(n)) for n in range(1, n_max + 1)}


@dataclass(frozen=True)
class PlaceSpectrum:
    """Counts a_d of places by degree, with the derived N_n and the genus."""

    params: FieldParams
    a: tuple  # ((d, a_d), ...), d = 1..d_max
    N: tuple  # ((n, N_n), ...)
    genus: int

    @property
    def a_map(self) -> dict[int, int]:
        return dict(self.a)

    @property
    def n_map(self) -> dict[int, int]:
        return dict(self.N)

    @property
    def d_max(self) -> int:
        return max((d for d, _ in self.a), default=0)

    def a_tuple(self, d_max: int | None = None) -> tuple[int, ...]:
        amap = self.a_map
        d_max = d_max or self.d_max
        return tuple(amap.get(d, 0) for d in range(1, d_max + 1))

    @staticmethod
    def from_counts(params: FieldParams, N: Mapping[int, int], genus: int) -> "PlaceSpectrum":
        d_max = max(N)
        a = counts_to_spectrum(N, d_max)
        spec = PlaceSpectrum(
            params=params,
            a=tuple(sorted(a.items())),
            N=tuple(sorted(N.items())),
            genus=genus,
        )
        spec.validate()
        return spec

    @staticmethod
    def from_spectrum(params: FieldParams, a: Mapping[int, int], genus: int) -> "PlaceSpectrum":
        d_max = max(a)
        full = {d: a.get(d, 0) for d in range(1, d_max + 1)}
        N = spectrum_to_counts(full, d_max)
        spec = PlaceSpectrum(
            params=params,
            a=tuple(sorted(full.items())),
            N=tuple(sorted(N.items())),
            genus=genus,
        )
        spec.validate()
        return spec

    def validate(self):
        amap, nmap = self.a_map, self.n_map
        q = self.params.q
        for d, v in amap.items():
            if v < 0:
                raise InconsistentModel(f"negative place count a_{d} = {v}")
        for n, Nn in nmap.items():
            if all(m in amap for m in divisors(n)):
                derived = sum(m * amap[m] for m in divisors(n))
                if derived != Nn:
                    raise InconsistentModel(
                        f"divisor sum over a_d gives N_{n} = {derived}, stored {Nn}"
                    )
            # Weil bound, exact form: (N_n - q^n - 1)^2 <= 4 g^2 q^n
            if (Nn - q**n - 1) ** 2 > 4 * self.genus**2 * q**n:
                raise InconsistentModel(
                    f"N_{n} = {Nn} violates the Weil bound for genus {self.genus} over F_{q}"
                )


def spectrum_from_counts(model: CurveModel, d_max: int) -> PlaceSpectrum:
    """Place spectrum of the model up to degree d_max, from exact point counts."""
    N = {n: count_points(model, n) for n in range(1, d_max + 1)}
    return PlaceSpectrum.from_counts(model.params, N, model.genus)


# ---------------------------------------------------------------------------
# places as Galois orbits
# ---------------------------------------------------------------------------


def _frobenius_orbit(F: ExtField, x: int, y: int) -> list[tuple[int, int]]:
    orbit = [(x, y)]
    cx, cy = F.frobenius_base(x), F.frobenius_base(y)
    while (cx, cy) != (x, y):
        orbit.append((cx, cy))
        cx, cy = F.frobenius_base(cx), F.frobenius_base(cy)
    return orbit


def make_affine_place(model: CurveModel, d: int, x: int, y: int) -> Place:
    """Build the degree-d place through (x, y) over F_{q^d}; validates membership."""
    F = make_ext_field(model.params, d)
    if eval_poly2(F, model.poly_dict, x, y) != 0:
        raise OutOfRange(f"({x}, {y}) does not lie on the curve over F_{F.order}")
    orbit = _frobenius_orbit(F, x, y)
    if len(orbit) != d:
        raise OutOfRange(
            f"point ({x}, {y}) generates an orbit of size {len(orbit)}, not {d}; "
            "it belongs to a place of smaller degree"
        )
    return Place(degree=d, key=min(orbit), rep=(x, y))


def enumerate_places(model: CurveModel, d: int) -> list[Place]:
    """One canonical representative per place of degree exactly d.

    Affine places are found by enumerating points over F_{q^d} and grouping
    into Frobenius orbits; infinite places come from the model metadata and
    are returned as symbolic entries.
    """
    F = make_ext_field(model.params, d)
    seen: set[tuple[int, int]] = set()
    places = []
    for pt in affine_solutions(model, d):
        if pt in seen:
            continue
        orbit = _frobenius_orbit(F, *pt)
        seen.update(orbit)
        if len(orbit) == d:
            key = min(orbit)
            places.append(Place(degree=d, key=key, rep=key))
    places.sort(key=lambda pl: pl.key)
    idx = 0
    for m, cnt in model.infinite_places:
        for _ in range(cnt):
            if m == d:
                places.append(Place(degree=d, key=("inf", idx), rep=None))
            idx += 1
    return places


# ---------------------------------------------------------------------------
# zeta consistency (genus <= 2 models)
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
    """Rebuild the L-polynomial from N_1..N_g and re-predict N_n for n <= 2g.

    Newton's identities convert the power sums q^k + 1 - N_k of the
    reciprocal roots into the low-order coefficients; the functional
    equation c_{2g-i} = q^{g-i} c_i supplies the rest.  Any non-integral
    coefficient raises; mismatched predictions are reported as failures.
    """
    g = spectrum.genus
    q = spectrum.params.q
    nmap = spectrum.n_map
    if g == 0:
        bad = tuple(
            (n, q**n + 1, Nn) for n, Nn in sorted(nmap.items()) if Nn != q**n + 1
        )
        return ZetaReport(passed=not bad, l_coeffs=(1,), predicted=(), discrepancies=bad)
    need = range(1, 2 * g + 1)
    missing = [n for n in need if n not in nmap]
    if missing:
        raise ValueError(f"zeta check needs N_n for n = 1..{2 * g}; missing {missing}")
    P = {k: q**k + 1 - nmap[k] for k in need}
    c = [1] + [0] * (2 * g)
    for k in range(1, g + 1):
        s = P[k] + sum(c[i] * P[k - i] for i in range(1, k))
        if s % k:
            raise FunctionalEquationViolation(
                f"Newton identity gives non-integral coefficient c_{k} = -{s}/{k}"
            )
        c[k] = -s // k
    for i in range(g):
        c[2 * g - i] = q ** (g - i) * c[i]
    # forward recurrence over the full polynomial predicts the upper counts
    Phat = dict(P)
    predicted = []
    discrepancies = []
    for k in range(g + 1, 2 * g + 1):
        s = k * c[k] + sum(c[i] * Phat[k - i] for i in range(1, k))
        Phat[k] = -s
        Nhat = q**k + 1 - Phat[k]
        predicted.append((k, Nhat))
        if Nhat != nmap[k]:
            discrepancies.append((k, Nhat, nmap[k]))
    return ZetaReport(
        passed=not discrepancies,
        l_coeffs=tuple(c),
        predicted=tuple(predicted),
        discrepancies=tuple(discrepancies),
    )
