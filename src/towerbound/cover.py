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

Places where A vanishes, and the places at infinity, which are the base
model's metadata and never a `Place`, cannot be decided by traces.  Their
behavior is declared cover data: the support records, which `support_map`
locates among the zeros of A, and one `infinities` record per infinite
place.  When the cover is built, the declarations must imply its
conductor profile: each declared place P has the ramification index
e_P = G deg P / sum(deg * count) over the places above it, G = p^r,
which must divide G; a support place needs nu > 0 exactly when it is
ramified, an infinite place (which has no nu) must be unramified, and
sum(count * deg P * nu_P * (G - G/e_P)) over the support must be the
profile's conductor degree sum.  The brute-force compositum oracle does
not check the declarations: the declared places' points enter its
prediction and its subtraction alike, so a wrong declaration cancels
out.  What the oracle checks is the code, the orbit grouping, the trace
kernel and the assembly of the undeclared places, against a plain scan.

Traces are read on two paths, both with every value held as a log and
each Tr(x^i y^j / A^p) one read of the field's trace_of_power table.
`decompose_place` passes its key to the trace kernel `_component_traces`,
which gives the whole trace vector at that one point.  The oracle
scans every affine point of the base over F_{q^n}, read from
`curve.root_lists` over every x with no orbit grouping, and sieves their
fibres a batch of BATCH points at a time (`_fibres`): log A as one
column, then each component over the points whose traces so far vanish.
Most points drop out at their first component.  The two paths share only
the field's tables, so a fault in the kernel shows as a residual.  The
declared places' points over F_{q^n} come from `curve.points_over`, the
rule that also gives N_n from the spectrum.
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
    canonical_poly2,
    compile_poly2,
    enumerate_places,
    eval_columns,
    eval_compiled,
    points_over,
    root_lists,
    total_degree,
)
from .errors import InconsistentModel, OutOfRange
from .ff import make_ext_field, require_supported_degree

BATCH = 256  # points whose fibres the oracle sieves together, like curve.CHUNK for x values


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
    `count` such places share one declaration, the only one of its degree.
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
    """The places of the cover above one infinite place of the base, which
    must be unramified: an infinity declares no nu."""

    index: int
    above: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_above(self.above)


def _ramification_index(group_order: int, degree: int, above, where: str) -> int:
    """e = G deg P / sum(deg * count) over the places above P, G the group
    order: the G/e places above P share one residue degree.  Raises
    InconsistentModel unless e is an integer dividing G."""
    total = sum(deg * cnt for deg, cnt in above)
    if total and group_order * degree % total == 0:
        e = group_order * degree // total
        if group_order % e == 0:
            return e
    raise InconsistentModel(
        f"{where}: places above of total degree {total} give the ramification index "
        f"{group_order}*{degree}/{total}, not a divisor of the group order {group_order}"
    )


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
        self.a = canonical_poly2(a, params.p)
        self.components = tuple(canonical_poly2(b, params.p) for b in components)
        self.profile = profile
        self.support = tuple(support)
        self.infinities = tuple(infinities)
        self.name = name
        self.rank = len(self.components)
        degrees = [dp.degree for dp in self.support]
        if len(set(degrees)) < len(degrees):  # which zero of A would each record describe?
            raise InconsistentModel(
                f"support declares degrees {degrees}: "
                "one record per degree, whose count says how many places share it"
            )
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
        for dp in self.support:
            require_supported_degree(params, dp.degree)
        # support places are zeros of A on the curve: affine Bezout bounds
        # their points by deg A * deg F
        declared = sum(dp.count * dp.degree for dp in self.support)
        bound = total_degree(dict(self.a)) * total_degree(base.poly_dict)
        if declared > bound:
            raise InconsistentModel(
                f"declared support places of total degree {declared} exceed the Bezout "
                f"bound {bound} on the zeros of the component coefficients"
            )
        self.genus = cft.genus_from_conductors(base.genus, profile)
        self._check_support_implies_profile(inf_degrees)
        # A and the B, compiled once into curve's terms per zero pattern
        self._a_terms = {pattern: a for pattern, (a,) in compile_poly2([self.a]).items()}
        self._b_terms = compile_poly2(self.components)
        self._support_map = None

    def _check_support_implies_profile(self, inf_degrees: list[int]) -> None:
        """The declared places must give the profile's conductor degree sum.

        A place P with ramification index e (`_ramification_index`) lies in
        the conductor of the G - G/e characters nontrivial on its inertia
        group, each with exponent nu_P, so the sum is that of
        count * deg P * nu_P * (G - G/e) over the support.  A support place
        needs nu > 0 exactly when it is ramified, and an infinite place,
        which has no nu, must be unramified.
        """
        G = self.group_order
        for inf in self.infinities:
            where = f"infinite place {inf.index}"
            e = _ramification_index(G, inf_degrees[inf.index], inf.above, where)
            if e > 1:
                raise InconsistentModel(
                    f"{where} is ramified (index {e}), but an infinity declares no nu"
                )
        implied = 0
        for dp in self.support:
            where = f"support place of degree {dp.degree}"
            e = _ramification_index(G, dp.degree, dp.above, where)
            if e > 1 and dp.nu == 0:
                raise InconsistentModel(f"{where} is ramified (index {e}) but declares nu = 0")
            if e == 1 and dp.nu > 0:
                raise InconsistentModel(f"{where} is unramified but declares nu = {dp.nu}")
            implied += dp.count * dp.degree * dp.nu * (G - G // e)
        if implied != self.profile.conductor_degree_sum:
            raise InconsistentModel(
                f"the support gives the conductor degree sum {implied}, "
                f"the profile {self.profile.conductor_degree_sum}"
            )

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
        return eval_compiled(F, self._a_terms[not x, not y], F._log[x], F._log[y]) < 0

    def support_map(self) -> dict:
        """Canonical place key -> DeclaredPlace, for each zero of A."""
        if self._support_map is not None:
            return self._support_map
        out = {}
        for dp in self.support:
            places = enumerate_places(self.base, dp.degree)
            zeros = [pl.key for pl in places if self._a_vanishes(pl)]
            if len(zeros) != dp.count:
                raise InconsistentModel(
                    f"declared {dp.count} support place(s) of degree {dp.degree}, "
                    f"found {len(zeros)} zero(s) of the component coefficients"
                )
            out.update(dict.fromkeys(zeros, dp))
        self._support_map = out
        return out


@dataclass(frozen=True)
class DecompositionRecord:
    """How one unramified base place decomposes in the cover."""

    frobenius_vector: tuple[int, ...]
    places_above: tuple[tuple[int, int], ...]  # (degree, count)


def _component_traces(cover: CoverSpec, F, x: int, y: int) -> list | None:
    """Tr(B/A^p) over F of each component at the point (x, y); None where
    A vanishes.

    The trace is F_p-linear: Tr(B/A^p) = sum c * Tr(x^i y^j A^-p) over the
    terms c x^i y^j of B, and each Tr(x^i y^j A^-p) is one read of
    F.trace_of_power at the log i log x + j log y - p log A, with log A as
    eval_compiled gives it.
    """
    p, q1, tr = F.p, F._q1, F.trace_of_power
    lx, ly, pattern = F._log[x], F._log[y], (not x, not y)
    la = eval_compiled(F, cover._a_terms[pattern], lx, ly)
    if la < 0:
        return None
    s = p * la
    taus = []
    for terms in cover._b_terms[pattern]:
        t = 0
        for c, i, j in terms:
            t += c * tr[(i * lx + j * ly - s) % q1]
        taus.append(t % p)
    return taus


def decompose_place(cover: CoverSpec, place: Place) -> DecompositionRecord:
    """Splitting of an unramified place from its Frobenius trace vector.

    The vector is read at the key; every point of the place gives the same
    one (traces are invariant under the residue Frobenius).  Declared places
    are refused: their behavior must come from the declaration, not a trace.
    """
    if place.key in cover.support_map():
        raise InconsistentModel(
            f"place {place.key} is declared cover data; use the declared behavior"
        )
    p = cover.params.p
    m = place.degree
    taus = _component_traces(cover, make_ext_field(cover.params, m), *place.key)
    if taus is None:
        raise InconsistentModel(
            f"component coefficient vanishes at undeclared place {place.key}: "
            "inconsistent cover data"
        )
    r = cover.rank
    if any(taus):
        above = ((p * m, p ** (r - 1)),)
    else:
        above = ((m, p**r),)
    return DecompositionRecord(frobenius_vector=tuple(taus), places_above=above)


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
    increasing degree; the support places and the infinities contribute
    their declared lists; the genus comes from the conductor-discriminant
    formula applied to the cover's character profile, once, when the cover
    is built.
    Raises, before any work, OutOfRange when d_max < 1 and UnsupportedSize
    when degree d_max is out of reach.
    """
    if d_max < 1:
        raise OutOfRange(f"d_max must be >= 1, got {d_max}")
    require_supported_degree(cover.params, d_max)
    check = _degree_check.get()
    declared = cover.support_map()
    a = {d: 0 for d in range(1, d_max + 1)}
    for decl in [*declared.values(), *cover.infinities]:
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
    return PlaceSpectrum.from_spectrum(cover.params, a, cover.genus)


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


def _batches(pairs: Iterable[tuple]) -> Iterator[tuple[tuple[bool, bool], list]]:
    """(pattern, batch): the points (x, y) of the (x, roots) pairs, in
    batches of at most BATCH, each batch of one zero pattern (x == 0, y == 0).
    The roots are read one at a time: a vertical row's are range(q^n)."""
    open_batches: dict[tuple[bool, bool], list] = {}
    for x, ys in pairs:
        for y in ys:
            pattern = (not x, not y)
            batch = open_batches.setdefault(pattern, [])
            batch.append((x, y))
            if len(batch) == BATCH:
                yield pattern, open_batches.pop(pattern)
    yield from open_batches.items()


def _fibres(cover: CoverSpec, F, pattern: tuple[bool, bool], points: list) -> tuple[int, int]:
    """(solutions, singular solutions) of the cover's system over F at the
    points, all of zero pattern pattern.  Where A vanishes each component
    degenerates to v^p = B, one root; elsewhere it has p roots or none, by
    its trace over F, so a fibre is empty at its first nonzero trace and
    the sieve keeps only the points whose traces so far all vanish."""
    p, q1, log, tr = F.p, F._q1, F._log, F.trace_of_power
    lxs = [log[x] for x, _ in points]
    lys = [log[y] for _, y in points]
    las = eval_columns(F, cover._a_terms[pattern], lxs, lys)
    live = [(a, b, p * s) for a, b, s in zip(lxs, lys, las) if s >= 0]
    singular = len(points) - len(live)
    for terms in cover._b_terms[pattern]:
        if not live:
            break
        t = [0] * len(live)
        for c, i, j in terms:
            t = [u + c * tr[(i * a + j * b - s) % q1] for u, (a, b, s) in zip(t, live)]
        live = [pt for pt, u in zip(live, t) if u % p == 0]
    return singular + cover.group_order * len(live), singular


def oracle_report(cover: CoverSpec, spectrum: PlaceSpectrum, n: int) -> OracleReport:
    """The solutions of the cover's system over every affine point of the
    base over F_{q^n}, by a plain scan, accounted against spectrum.  The
    fibres are sieved a batch at a time (_fibres), apart from
    _component_traces, so the oracle checks that kernel too."""
    if n > spectrum.d_max:
        raise OutOfRange(f"spectrum stops at degree {spectrum.d_max} < {n}")
    F = make_ext_field(cover.params, n)
    total = 0
    singular_solutions = 0
    for pattern, batch in _batches(root_lists(cover.base, F, range(F.order))):
        solutions, singular = _fibres(cover, F, pattern, batch)
        total += solutions
        singular_solutions += singular
    spectrum_points = spectrum.n_map[n]
    # a support record shared by several places (count > 1) appears once per
    # resolved place in support_map, so the sum over it is per place
    declared = cover.support_map().values()
    decl_pts = points_over((pair for decl in declared for pair in decl.above), n)
    inf_pts = points_over((pair for inf in cover.infinities for pair in inf.above), n)
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
