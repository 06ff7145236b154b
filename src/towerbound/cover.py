"""Elementary abelian p-covers built from Artin-Schreier components.

A cover of rank r over a base curve is the compositum of r degree-p
extensions of the shape

    v^p - A^(p-1) v = B        (v^2 + A v = B in characteristic 2),

each equivalent, wherever A does not vanish, to the normalized form
w^p - w = B / A^p.  At an unramified place of degree m the splitting is
decided by the Frobenius vector: the tuple of absolute traces of the
normalized right-hand sides at the place.  Zero vector: the place splits
completely into p^r places of degree m.  Nonzero: p^(r-1) places of degree
p*m.

Places where some A vanishes (and the places at infinity) cannot be decided
by traces; their behavior is declared cover data, kept in one auditable
list and cross-checked by the brute-force compositum oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cft
from .curve import (
    CurveModel,
    Place,
    PlaceSpectrum,
    PolyEvaluator,
    divisors,
    enumerate_places,
    affine_solutions,
)
from .errors import InconsistentModel, OutOfRange, PoleAtPlace, RamifiedPlace
from .ff import make_ext_field


@dataclass(frozen=True)
class ASComponent:
    """One degree-p component v^p - a^(p-1) v = b, polynomials in (x, y)."""

    a: tuple  # canonical tuple form, as in CurveModel.poly
    b: tuple

    @staticmethod
    def create(a, b, p: int) -> "ASComponent":
        from .curve import normalize_poly2

        return ASComponent(
            a=tuple(sorted(normalize_poly2(a, p).items())),
            b=tuple(sorted(normalize_poly2(b, p).items())),
        )


@dataclass(frozen=True)
class DeclaredPlace:
    """A support place whose behavior in the cover is input, not derived.

    nu is the conductor exponent (0 for places that are unramified but
    carry a pole of the raw component form, so trace evaluation is
    impossible); `above` lists (degree, count) of the places of the cover
    over it.  Located among the zeros of the component coefficients by
    degree unless an explicit representative is given.
    """

    degree: int
    nu: int
    above: tuple[tuple[int, int], ...]
    count: int = 1
    rep: tuple[int, int] | None = None


@dataclass(frozen=True)
class DeclaredInfinity:
    index: int
    above: tuple[tuple[int, int], ...]


class CoverSpec:
    """Immutable description of an elementary abelian p-cover of a base curve."""

    def __init__(
        self,
        base: CurveModel,
        components: tuple[ASComponent, ...],
        profile: cft.CharacterConductorProfile,
        support: tuple[DeclaredPlace, ...] = (),
        infinities: tuple[DeclaredInfinity, ...] = (),
        h_basis: tuple = (),
        name: str = "",
    ):
        params = base.params
        if params.e != 1:
            raise OutOfRange(
                "trace-based decomposition is only valid over prime constant fields (e = 1)"
            )
        self.base = base
        self.components = tuple(components)
        self.profile = profile
        self.support = tuple(support)
        self.infinities = tuple(infinities)
        self.h_basis = tuple(h_basis)
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
        # the components' A and B, compiled once: each distinct A (the shipped
        # covers share one) is evaluated and inverted once per point
        distinct_a = list(dict.fromkeys(c.a for c in self.components))
        self._a_count = len(distinct_a)
        self._a_slot = tuple(distinct_a.index(c.a) for c in self.components)
        self._evaluate = PolyEvaluator(
            [dict(a) for a in distinct_a] + [dict(c.b) for c in self.components], params.p
        )
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
        return 0 in self._evaluate(F, *place.rep)[: self._a_count]

    def support_map(self) -> dict:
        """Canonical place key -> (DeclaredPlace | DeclaredInfinity)."""
        if self._support_map is not None:
            return self._support_map
        out = {}
        for inf in self.infinities:
            out[("inf", inf.index)] = inf
        by_degree: dict[int, list[DeclaredPlace]] = {}
        for dp in self.support:
            by_degree.setdefault(dp.degree, []).append(dp)
        for degree, decls in by_degree.items():
            explicit = [d for d in decls if d.rep is not None]
            located_need = sum(d.count for d in decls if d.rep is None)
            for dp in explicit:
                from .curve import make_affine_place

                pl = make_affine_place(self.base, degree, *dp.rep)
                out[pl.key] = dp
            if located_need:
                zeros = [
                    pl
                    for pl in enumerate_places(self.base, degree)
                    if not pl.is_infinite and self._a_vanishes(pl) and pl.key not in out
                ]
                if len(zeros) != located_need:
                    raise InconsistentModel(
                        f"declared {located_need} support place(s) of degree {degree}, "
                        f"found {len(zeros)} zero(s) of the component coefficients"
                    )
                it = iter(zeros)
                for dp in decls:
                    if dp.rep is None:
                        for _ in range(dp.count):
                            out[next(it).key] = dp
        self._support_map = out
        return out

    def support_places(self) -> list[tuple[Place, DeclaredPlace]]:
        """The resolved affine support places with their declarations."""
        out = []
        for key, decl in self.support_map().items():
            if isinstance(decl, DeclaredPlace):
                out.append((Place(degree=decl.degree, key=key, rep=key), decl))
        return out


@dataclass(frozen=True)
class DecompositionRecord:
    """How one unramified base place decomposes in the cover."""

    base_place: Place
    frobenius_vector: tuple[int, ...]
    places_above: tuple[tuple[int, int], ...]  # (degree, count)


def _component_traces(cover: CoverSpec, F, x: int, y: int) -> list[int | None]:
    """Tr(B/A^p) over F of each component at the point (x, y); None for a
    component whose A vanishes there."""
    p = cover.params.p
    values = cover._evaluate(F, x, y)
    inv_ap = [F.inv(F.pow(a, p)) if a else None for a in values[: cover._a_count]]
    out = []
    for slot, b in zip(cover._a_slot, values[cover._a_count :]):
        w = inv_ap[slot]
        out.append(None if w is None else F.trace(F.mul(b, w)))
    return out


def decompose_place(cover: CoverSpec, place: Place) -> DecompositionRecord:
    """Splitting of an unramified place from its Frobenius trace vector.

    Conjugate representatives give the same record (traces are invariant
    under the residue Frobenius).  Declared places are refused: their
    behavior must come from the declaration, not a trace.
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
    taus = _component_traces(cover, make_ext_field(cover.params, m), *place.rep)
    if None in taus:
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


def assemble_spectrum(cover: CoverSpec, d_max: int) -> PlaceSpectrum:
    """Place spectrum of the cover up to degree d_max.

    Unramified base places of degree <= d_max are decomposed by trace;
    declared support and infinite places contribute their declared lists;
    the genus comes from the conductor-discriminant formula applied to the
    cover's character profile.
    """
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
    genus = cft.genus_from_conductors(cover.base.genus, cover.profile)
    return PlaceSpectrum.from_spectrum(cover.params, a, genus)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def _fiber_count(cover: CoverSpec, F, x: int, y: int) -> tuple[int, bool]:
    """Solutions (v_1..v_r) over F at a base point, and whether some A vanished.

    Where A != 0 each component contributes p or 0 by the trace criterion
    over F itself; where A = 0 the equation degenerates to v^p = B with
    exactly one root.
    """
    p = cover.params.p
    taus = _component_traces(cover, F, x, y)
    fiber = 1
    for tau in taus:
        if tau is not None:
            fiber *= 0 if tau else p
    return fiber, None in taus


@dataclass(frozen=True)
class OracleReport:
    """Accounting of the brute-force count against the assembled spectrum.

    residual = brute count
               - (points of the cover over F_{q^n}
                  - points above declared infinite places
                  - points above declared support places)
               - solutions sitting over base points where some A vanishes.

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
    F = make_ext_field(cover.params, n)
    total = 0
    singular_solutions = 0
    for x, y in affine_solutions(cover.base, n):
        fiber, singular = _fiber_count(cover, F, x, y)
        total += fiber
        if singular:
            singular_solutions += fiber
    amap = spectrum.a_map
    if any(d not in amap for d in divisors(n)):
        raise ValueError(f"spectrum does not cover all divisors of {n}")
    spectrum_points = sum(d * amap[d] for d in divisors(n))
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
