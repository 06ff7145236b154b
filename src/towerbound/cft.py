"""Class-field-theoretic bounds: generator ranks, relation slack, the
Golod-Shafarevich infinitude criterion, genus via the conductor-discriminant
formula, and exact rational lower bounds on the Ihara constant A(q).

Everything here is exact integer or rational arithmetic; decimal strings are
produced only for display and never compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .curve import PlaceSpectrum
from .errors import InconsistentModel, OutOfRange, ParityViolation
from .ff import FieldParams


def local_unit_rank(params: FieldParams, f: int, nu: int) -> int:
    """p-rank of U^(1)/U^(nu) at a place of degree f: f*e*(nu - 1 - floor((nu-1)/p))."""
    if f < 1 or nu < 1:
        raise OutOfRange("need degree f >= 1 and exponent nu >= 1")
    k = nu - 1
    return f * params.e * (k - k // params.p)


def local_rd_bound(params: FieldParams, f: int, nu: int) -> int:
    """Binomial bound on r_p(G_p) - d_p(G_p) for an abelian local extension
    of ramification depth at most nu: binom(e*f*(nu-1) + 1, 2)."""
    if f < 1 or nu < 2:
        raise OutOfRange("need degree f >= 1 and exponent nu >= 2")
    m = params.e * f * (nu - 1)
    return m * (m + 1) // 2


@dataclass(frozen=True)
class RamificationPlan:
    """A conductor choice: entries (degree f, multiplicity, exponent nu) plus
    the number t of completely split rational places.

    Exponents nu = 1 are rejected outright (they contribute zero local rank,
    so such an entry can never help).  When a spectrum of the underlying
    field is supplied, multiplicities are checked against the available
    place counts and t against the rational places left over for T.
    """

    params: FieldParams
    entries: tuple[tuple[int, int, int], ...]  # (f, count, nu)
    t: int
    available_spectrum: PlaceSpectrum | None = None

    def __post_init__(self):
        if self.t < 1:
            raise OutOfRange("t must be positive: the tower needs a nonempty split set")
        for f, count, nu in self.entries:
            if f < 1 or count < 1:
                raise OutOfRange(f"bad plan entry (f={f}, count={count}, nu={nu})")
            if nu < 2:
                raise OutOfRange(
                    f"conductor exponent nu = {nu} at degree {f} contributes zero "
                    "local rank and is rejected as useless"
                )
        spec = self.available_spectrum
        if spec is not None:
            amap = spec.a_map
            per_degree: dict[int, int] = {}
            for f, count, _ in self.entries:
                per_degree[f] = per_degree.get(f, 0) + count
            for f, need in per_degree.items():
                have = amap.get(f, 0)
                if need > have:
                    raise InconsistentModel(
                        f"plan uses {need} places of degree {f}, spectrum has {have}"
                    )
            a1 = amap.get(1, 0)
            if self.t > a1:
                raise InconsistentModel(f"t = {self.t} exceeds a_1 = {a1}")
            if self.t + per_degree.get(1, 0) > a1:
                raise InconsistentModel(
                    "S and T overlap: not enough rational places for both "
                    f"(t = {self.t}, degree-1 ramified = {per_degree.get(1, 0)}, a_1 = {a1})"
                )

    @property
    def rank_sum(self) -> int:
        return sum(
            count * local_unit_rank(self.params, f, nu) for f, count, nu in self.entries
        )

    @property
    def rd_sum(self) -> int:
        return sum(
            count * local_rd_bound(self.params, f, nu) for f, count, nu in self.entries
        )

    @property
    def side_condition_ok(self) -> bool:
        """t <= sum of local unit ranks over S."""
        return self.t <= self.rank_sum

    @property
    def d_lower(self) -> int:
        """Lower bound for the p-rank of the ray class group: 1 + sum of local
        unit ranks - t.  The global unit defect term is a nonnegative unknown
        and is dropped, which only weakens the bound."""
        return 1 + self.rank_sum - self.t

    @property
    def rd_upper(self) -> int:
        return self.rd_sum + self.t - 1

    @property
    def conductor_degree(self) -> int:
        return sum(count * f * nu for f, count, nu in self.entries)

    def describe(self) -> str:
        inner = " + ".join(f"{count}x(f={f},nu={nu})" for f, count, nu in self.entries)
        return f"S = {inner or 'empty'}, t = {self.t}"


def gs_margin(d: int, rd: int) -> int:
    """The Golod-Shafarevich margin d^2 - 4d - 4(r - d) of a group with at
    least d generators and relation slack at most rd = r - d.

    This is the one integer form of the infinitude criterion: a nonnegative
    margin rules out a finite p-group (for d >= 1, rd >= 0).
    """
    return d * d - 4 * d - 4 * rd


def certifies(d: int, rd: int) -> bool:
    """The infinitude verdict: True when no finite p-group has at least
    d >= 1 generators and relation slack at most rd >= 0.

    Every verdict in the package comes from here.
    """
    return d >= 1 and rd >= 0 and gs_margin(d, rd) >= 0


def certifying_runs(d: int, dd: int, rd: int, drd: int, m_max: int) -> list[tuple[int, int]]:
    """The m in 1..m_max with certifies(d + m*dd, rd + m*drd), as at most
    two disjoint runs [(lo, hi), ...] of consecutive integers, ascending,
    for slopes dd >= 1 and drd >= 0: a place's unit rank and rd bound.

    d + m*dd >= 1 and rd + m*drd >= 0 bound m from below, and the margin
    is the quadratic dd^2 m^2 + (2dd(d - 2) - 4drd) m + gs_margin(d, rd),
    convex in m, so it is nonnegative outside one open interval of roots.
    The roots are found in integers with isqrt, and every run endpoint is
    confirmed with certifies.
    """
    if dd < 1 or drd < 0:
        raise OutOfRange(f"need slopes dd >= 1 and drd >= 0, got {dd} and {drd}")
    # conditionals, not max() and min(): this runs once per prefix of a search
    lo = (dd - d) // dd  # the least m with d + m*dd >= 1
    if lo < 1:
        lo = 1
    if drd:
        bound = -(rd // drd)  # the least m with rd + m*drd >= 0
        if bound > lo:
            lo = bound
    elif rd < 0:
        return []
    hi = m_max
    if lo > hi:
        return []
    # the margin a2 m^2 + a1 m + a0 is nonnegative where |2 a2 m + a1| >= s,
    # s the ceiling of the square root of the discriminant (0 if negative):
    # for m <= left and for m >= right
    a2, a1, a0 = dd * dd, 2 * dd * (d - 2) - 4 * drd, gs_margin(d, rd)
    disc = a1 * a1 - 4 * a2 * a0
    s = math.isqrt(disc - 1) + 1 if disc > 0 else 0
    left, right = (-a1 - s) // (2 * a2), -((a1 - s) // (2 * a2))
    if left + 1 >= right:  # no integer m strictly between the roots
        runs = [(lo, hi)]
    else:
        runs = []
        if left >= lo:
            runs.append((lo, left if left < hi else hi))
        if right <= hi:
            runs.append((right if right > lo else lo, hi))
    for a, b in runs:
        if not certifies(d + a * dd, rd + a * drd) or (
            b != a and not certifies(d + b * dd, rd + b * drd)
        ):
            raise RuntimeError(f"closed form disagrees with certifies on the run {(a, b)}")
    return runs


@dataclass(frozen=True)
class CharacterConductorProfile:
    """Conductor degrees of the nontrivial characters of an abelian cover group."""

    degree_multiset: tuple[tuple[int, int], ...]  # (conductor degree, multiplicity)
    group_order: int

    def __post_init__(self):
        if self.group_order < 1:
            raise OutOfRange("group order must be >= 1")
        total = sum(mult for _, mult in self.degree_multiset)
        if total != self.group_order - 1:
            raise OutOfRange(
                f"profile lists {total} characters, group of order {self.group_order} "
                f"has {self.group_order - 1} nontrivial ones"
            )
        for deg, mult in self.degree_multiset:
            if deg < 0 or mult < 1:
                raise OutOfRange(f"bad profile entry ({deg}, {mult})")

    @property
    def conductor_degree_sum(self) -> int:
        return sum(deg * mult for deg, mult in self.degree_multiset)


def genus_from_conductors(base_genus: int, profile: CharacterConductorProfile) -> int:
    """Conductor-discriminant formula for an abelian cover:
    2 g(K) - 2 = [K:F] (2 g(F) - 2) + sum over characters of deg(conductor)."""
    total = profile.group_order * (2 * base_genus - 2) + profile.conductor_degree_sum
    if total % 2:
        raise ParityViolation(
            f"2g - 2 = {total} is odd: conductor degrees inconsistent with the cover"
        )
    return total // 2 + 1


def _plain_denominator(genus: int, plan: RamificationPlan) -> Fraction:
    """g - 1 + (1/2) sum f*nu: the plain bound t / (this) takes the
    worst-case conductor degree for every character."""
    return Fraction(genus - 1) + Fraction(plan.conductor_degree, 2)


def _refined_denominator(genus: int, plan: RamificationPlan) -> Fraction:
    """g - 1 + (1/2) sum f*nu*(1 - q^-f): the refined bound damps each place,
    since a place of degree f can appear in the conductor of at most that
    fraction of the characters.

    The damping exponent is f even when the local unit rank e*f*(nu-1-...)
    differs from e*f: see refinement_warnings.
    """
    q = plan.params.q
    den = Fraction(genus - 1)
    for f, count, nu in plan.entries:
        den += Fraction(count * f * nu, 2) * (1 - Fraction(1, q**f))
    return den


def refinement_warnings(plan: RamificationPlan) -> list[str]:
    """Flag entries where the damping exponent f differs from the local rank."""
    affected = sorted(
        {f for f, _, nu in plan.entries if (nu - 1 - (nu - 1) // plan.params.p) != 1}
    )
    if not affected:
        return []
    return [
        "refined bound damps the conductor contribution of degree-f places by "
        f"1 - q^-f (degrees {affected}); the local unit rank at those places "
        "exceeds e*f, and the damping exponent follows the per-place character "
        "fraction, not the rank"
    ]


@dataclass(frozen=True)
class TowerCertificate:
    """Everything the infinitude criterion produced for one plan; the two
    bounds are None unless the plan certifies an infinite tower."""

    d_lower: int
    rd_upper: int
    gs_margin: int
    side_condition_ok: bool
    infinite: bool
    bound: Fraction | None
    bound_refined: Fraction | None
    genus: int
    plan: RamificationPlan
    warnings: tuple[str, ...] = ()


def certify_tower(genus: int, plan: RamificationPlan) -> TowerCertificate:
    """Ranks, margin, side condition and, only when the plan certifies, the
    exact rational bounds A(q) >= t / denominator; otherwise both bounds
    are None.  The margin is reported even when negative.

    For d = 1 + sum ef(nu-1-[(nu-1)/p]) - t the margin equals
    d^2 - 2 sum ef(nu-1)(ef(nu-1)+1) - 4 sum ef(nu-1-[(nu-1)/p]), and the
    side condition t <= rank sum is d >= 1.
    """
    d, rd = plan.d_lower, plan.rd_upper
    infinite = certifies(d, rd)
    t = Fraction(plan.t)
    return TowerCertificate(
        d_lower=d,
        rd_upper=rd,
        gs_margin=gs_margin(d, rd),
        side_condition_ok=plan.side_condition_ok,
        infinite=infinite,
        bound=t / _plain_denominator(genus, plan) if infinite else None,
        bound_refined=t / _refined_denominator(genus, plan) if infinite else None,
        genus=genus,
        plan=plan,
        warnings=tuple(refinement_warnings(plan)),
    )
