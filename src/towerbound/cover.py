"""Elementary abelian p-covers built from Artin-Schreier components.

A cover of rank r over a base curve is the compositum of r degree-p
extensions with one A shared by all and one B = B_i for each:

    v^p - A^(p-1) v = B        (v^2 + A v = B in characteristic 2),

each equivalent, wherever A does not vanish, to the normalized form
w^p - w = B / A^p.  At an unramified place of degree m the splitting is
decided by the Frobenius vector: the tuple of absolute traces of the
normalized right-hand sides at the place.  Zero vector: the place splits
completely into p^r places of degree m.  Nonzero: p^(r-1) places of degree
p*m.

Places where A vanishes (and the places at infinity) cannot be decided
by traces; their behavior is declared cover data, kept in one auditable
list and cross-checked by the brute-force compositum oracle.

One trace kernel serves both: `_component_traces` walks a sequence of
points with every value held as a log.  `decompose_place` passes its one
point; the oracle streams every affine point of the base over F_{q^n},
whose root lists `curve` finds a chunk of x values at a time.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import cft
from .curve import (
    CurveModel,
    Place,
    PlaceSpectrum,
    Poly2,
    enumerate_places,
    affine_solutions,
    compile_poly2,
    eval_compiled,
    normalize_poly2,
    total_degree,
)
from .errors import InconsistentModel, OutOfRange, PoleAtPlace, RamifiedPlace
from .ff import make_ext_field, require_supported_degree


def _check_above(above: tuple[tuple[int, int], ...]) -> None:
    if any(deg < 1 or cnt < 1 for deg, cnt in above):
        raise OutOfRange(f"places above need degree >= 1 and count >= 1, got {list(above)}")


@dataclass(frozen=True)
class DeclaredPlace:
    """A support place whose behavior in the cover is input, not derived.

    nu is the conductor exponent (0 for places that are unramified but
    carry a pole of the raw component form, so trace evaluation is
    impossible); `above` lists (degree, count) of the places of the cover
    over it.  Located among the zeros of A on the base curve by degree;
    `count` such places share one declaration.
    """

    degree: int
    nu: int
    above: tuple[tuple[int, int], ...]
    count: int = 1

    def __post_init__(self):
        if self.degree < 1 or self.count < 1 or self.nu < 0:
            raise OutOfRange(
                "support places need degree >= 1, count >= 1 and nu >= 0, got "
                f"degree {self.degree}, count {self.count}, nu {self.nu}"
            )
        _check_above(self.above)


@dataclass(frozen=True)
class DeclaredInfinity:
    index: int
    above: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_above(self.above)


class CoverSpec:
    """Immutable description of an elementary abelian p-cover of a base curve."""

    def __init__(
        self,
        base: CurveModel,
        a: Poly2,
        components: Iterable[Poly2],
        profile: cft.CharacterConductorProfile,
        support: tuple[DeclaredPlace, ...] = (),
        infinities: tuple[DeclaredInfinity, ...] = (),
        name: str = "",
    ):
        params = base.params
        if params.e != 1:
            raise OutOfRange(
                "trace-based decomposition is only valid over prime constant fields (e = 1)"
            )
        self.base = base

        def canonical(poly):  # the ((i, j), c) tuple form of CurveModel.poly
            return tuple(sorted(normalize_poly2(dict(poly), params.p).items()))

        self.a = canonical(a)
        self.components = tuple(map(canonical, components))
        self.profile = profile
        self.support = tuple(support)
        self.infinities = tuple(infinities)
        self.name = name
        self.rank = len(self.components)
        if profile.group_order != params.p**self.rank:
            raise InconsistentModel(
                f"conductor profile is for a group of order {profile.group_order}, "
                f"cover has rank {self.rank} (order {params.p ** self.rank})"
            )
        inf_degrees = base.infinite_index_degrees()
        declared_idx = [d.index for d in infinities]
        if sorted(declared_idx) != list(range(len(inf_degrees))):
            raise InconsistentModel(
                f"cover must declare behavior for all {len(inf_degrees)} infinite "
                f"places (indices {declared_idx} given)"
            )
        # A and the B, compiled once into curve's terms per zero pattern
        self._a_terms = compile_poly2([self.a])
        self._b_terms = compile_poly2(self.components)
        self._support_map = None

    @property
    def params(self):
        return self.base.params

    @property
    def group_order(self) -> int:
        return self.params.p**self.rank

    def assumptions(self) -> list[str]:
        out = self.base.assumptions()
        out.append(
            f"cover {self.name or '<anon>'}: F_p-linear independence of the "
            f"{self.rank} components is assumed, not verified"
        )
        out.append(
            f"cover {self.name or '<anon>'}: behavior above {len(self.support)} "
            f"support place(s) and {len(self.infinities)} infinite place(s) is declared input"
        )
        return out

    # -- declared place resolution -------------------------------------------

    def _a_vanishes(self, place: Place) -> bool:
        F = make_ext_field(self.params, place.degree)
        x, y = place.key
        return eval_compiled(F, self._a_terms[not x, not y], F._log[x], F._log[y])[0] < 0

    def support_map(self) -> dict:
        """Canonical place key -> (DeclaredPlace | DeclaredInfinity)."""
        if self._support_map is not None:
            return self._support_map
        out = {}
        for inf in self.infinities:
            out[("inf", inf.index)] = inf
        for dp in self.support:
            require_supported_degree(self.params, dp.degree)
        # support places are zeros of A on the curve: affine Bezout bounds
        # their points by deg A * deg F
        declared = sum(dp.count * dp.degree for dp in self.support)
        bound = total_degree(dict(self.a)) * total_degree(self.base.poly_dict)
        if declared > bound:
            raise InconsistentModel(
                f"declared support places of total degree {declared} exceed the Bezout "
                f"bound {bound} on the zeros of the component coefficients"
            )
        by_degree: dict[int, list[DeclaredPlace]] = {}
        for dp in self.support:
            by_degree.setdefault(dp.degree, []).extend([dp] * dp.count)
        for degree, decls in by_degree.items():
            zeros = [
                pl.key
                for pl in enumerate_places(self.base, degree)
                if not pl.is_infinite and self._a_vanishes(pl)
            ]
            if len(zeros) != len(decls):
                raise InconsistentModel(
                    f"declared {len(decls)} support place(s) of degree {degree}, "
                    f"found {len(zeros)} zero(s) of the component coefficients"
                )
            out.update(zip(zeros, decls))
        self._support_map = out
        return out


@dataclass(frozen=True)
class DecompositionRecord:
    """How one unramified base place decomposes in the cover."""

    base_place: Place
    frobenius_vector: tuple[int, ...]
    places_above: tuple[tuple[int, int], ...]  # (degree, count)


def _component_traces(
    cover: CoverSpec, F, points: Iterable[tuple[int, int]]
) -> Iterator[list | None]:
    """For each point (x, y) of points in turn, Tr(B/A^p) over F of each
    component; None for the whole vector where A vanishes.

    The trace is F_p-linear: Tr(B/A^p) = sum c * Tr(x^i y^j A^-p) over the
    terms c x^i y^j of B, and each Tr(x^i y^j A^-p) is one read of
    F.trace_of_power at the log i log x + j log y - p log A, with log A as
    eval_compiled gives it.
    """
    p, q1, log, tr = F.p, F.order - 1, F._log, F.trace_of_power
    a_terms, b_terms = cover._a_terms, cover._b_terms
    for x, y in points:
        lx, ly, pattern = log[x], log[y], (not x, not y)
        (la,) = eval_compiled(F, a_terms[pattern], lx, ly)
        if la < 0:
            yield None
            continue
        s = p * la
        taus = []
        for terms in b_terms[pattern]:
            t = 0
            for c, i, j in terms:
                t += c * tr[(i * lx + j * ly - s) % q1]
            taus.append(t % p)
        yield taus


def decompose_place(cover: CoverSpec, place: Place) -> DecompositionRecord:
    """Splitting of an unramified place from its Frobenius trace vector.

    The vector is read at the key; every point of the place gives the same
    one (traces are invariant under the residue Frobenius).  Declared places
    are refused: their behavior must come from the declaration, not a trace.
    """
    if place.key in cover.support_map():
        raise RamifiedPlace(
            f"place {place.key} is declared cover data; use the declared behavior"
        )
    if place.is_infinite:
        raise PoleAtPlace(
            f"infinite place {place.key} has no affine representative and no declaration"
        )
    p = cover.params.p
    m = place.degree
    taus = next(_component_traces(cover, make_ext_field(cover.params, m), [place.key]))
    if taus is None:
        raise PoleAtPlace(
            f"component coefficient vanishes at undeclared place {place.key}: "
            "inconsistent cover data"
        )
    r = cover.rank
    if any(taus):
        above = ((p * m, p ** (r - 1)),)
    else:
        above = ((m, p**r),)
    return DecompositionRecord(
        base_place=place, frobenius_vector=tuple(taus), places_above=above
    )


# set by after_each_degree: a context, not a parameter, so that every caller
# of assemble_spectrum keeps its one signature (cover, d_max)
_degree_check = ContextVar("degree_check", default=None)


@contextmanager
def after_each_degree(check):
    """Within the block, assemble_spectrum calls check(d, a) once the base
    places of degree d are decomposed.  Then a[d'] is final for every
    d' <= d (a place of degree d' lies over one of degree d' or d'/p), so
    check can refuse the rest of the assembly by raising."""
    token = _degree_check.set(check)
    try:
        yield
    finally:
        _degree_check.reset(token)


def assemble_spectrum(cover: CoverSpec, d_max: int) -> PlaceSpectrum:
    """Place spectrum of the cover up to degree d_max.

    Unramified base places of degree <= d_max are decomposed by trace, in
    increasing degree; declared support and infinite places contribute their
    declared lists; the genus comes from the conductor-discriminant formula
    applied to the cover's character profile.  Raises, before any work,
    OutOfRange when d_max < 1, UnsupportedSize when degree d_max is out of
    reach, and ParityViolation when the profile gives no integral genus.
    """
    if d_max < 1:
        raise OutOfRange(f"d_max must be >= 1, got {d_max}")
    require_supported_degree(cover.params, d_max)
    genus = cft.genus_from_conductors(cover.base.genus, cover.profile)
    check = _degree_check.get()
    declared = cover.support_map()
    a = {d: 0 for d in range(1, d_max + 1)}
    for decl in declared.values():
        for deg, cnt in decl.above:
            if deg <= d_max:
                a[deg] += cnt
    for d in range(1, d_max + 1):
        for place in enumerate_places(cover.base, d):
            if place.key in declared:
                continue
            rec = decompose_place(cover, place)
            for deg, cnt in rec.places_above:
                if deg <= d_max:
                    a[deg] += cnt
        if check is not None:
            check(d, a)
    return PlaceSpectrum.from_spectrum(cover.params, a, genus)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    """Accounting of the brute-force count against the assembled spectrum.

    residual = brute count
               - (points of the cover over F_{q^n}
                  - points above declared infinite places
                  - points above declared support places)
               - solutions sitting over base points where A vanishes.

    A correct cover description makes the residual exactly zero.
    """

    n: int
    brute_count: int
    spectrum_points: int
    infinite_points: int
    declared_points: int
    singular_solutions: int
    residual: int


def oracle_report(cover: CoverSpec, spectrum: PlaceSpectrum, n: int) -> OracleReport:
    if n > spectrum.d_max:
        raise OutOfRange(f"spectrum stops at degree {spectrum.d_max} < {n}")
    full_fiber = cover.group_order
    F = make_ext_field(cover.params, n)
    total = 0
    singular_solutions = 0
    for taus in _component_traces(cover, F, affine_solutions(cover.base, n)):
        # the solutions (v_1..v_r) over F at the point: where A vanishes every
        # component degenerates to v^p = B, one root each; elsewhere each has
        # p roots or none, by the trace criterion over F itself
        if taus is None:
            total += 1
            singular_solutions += 1
        elif not any(taus):
            total += full_fiber
    spectrum_points = spectrum.n_map[n]
    inf_pts = 0
    decl_pts = 0
    for key, decl in cover.support_map().items():
        pts = sum(deg * cnt for deg, cnt in decl.above if n % deg == 0)
        if isinstance(decl, DeclaredInfinity):
            inf_pts += pts
        else:
            decl_pts += pts
    # declared support entries shared by several places (count > 1) appear once
    # per resolved place in support_map, so the sum above is already per place
    residual = total - (spectrum_points - inf_pts - decl_pts) - singular_solutions
    return OracleReport(
        n=n,
        brute_count=total,
        spectrum_points=spectrum_points,
        infinite_points=inf_pts,
        declared_points=decl_pts,
        singular_solutions=singular_solutions,
        residual=residual,
    )
