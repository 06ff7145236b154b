"""Bounded exhaustive search over ramification plans, and the side-by-side
comparison of the two inequality systems for towers built from rank-l
elementary abelian covers.

The search treats places of equal degree as interchangeable: every formula
in the certification depends only on (degree, exponent, multiplicity), so
candidates are multiplicity vectors indexed by degree, not subsets of
places.  Enumeration order and tie-breaking are deterministic, so two runs
over the same space return identical ranked lists.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import cft
from .curve import PlaceSpectrum
from .errors import DegenerateGenus, EmptySpace, OutOfRange, UnsupportedSize

MAX_CANDIDATES = 10**7  # 10^6 candidates take about 0.8 s; the bundled spaces have at most 65,526


@dataclass(frozen=True)
class SearchSpace:
    """Candidate plans over a fixed base field; the spectrum carries its genus."""

    spectrum: PlaceSpectrum
    degrees: tuple[int, ...] = (5, 6, 7, 8, 9, 10)
    allowed_nu: tuple[int, ...] = ()  # empty means (p,)
    t_values: tuple[int, ...] = ()  # empty means (a_1,)
    max_multiplicity: int = 200
    top_n: int = 10

    def __post_init__(self):
        if self.top_n < 1:
            raise OutOfRange(f"top_n must be >= 1, got {self.top_n}")
        if self.max_multiplicity < 0:
            raise OutOfRange(f"max_multiplicity must be >= 0, got {self.max_multiplicity}")
        if self.spectrum.genus < 1:
            raise DegenerateGenus(
                f"base genus {self.spectrum.genus} < 1: the refined denominator can be nonpositive"
            )

    def nus(self) -> tuple[int, ...]:
        return self.allowed_nu or (self.spectrum.params.p,)

    def ts(self) -> tuple[int, ...]:
        return self.t_values or (self.spectrum.a_map.get(1, 0),)


@dataclass(frozen=True)
class SearchResult:
    ranked: tuple  # ((plan, certificate), ...) best first
    candidates_evaluated: int
    certified_count: int
    space: SearchSpace = field(compare=False)

    @property
    def best(self):
        return self.ranked[0]


def optimize(space: SearchSpace) -> SearchResult:
    """Enumerate every multiplicity vector in the space, keep the candidates
    that certify an infinite tower, and rank them by the refined bound.

    Ties break toward the lexicographically smaller multiplicity vector,
    then the smaller t.  Rational places serve S and T alike, so a
    candidate certifies only with m_1 + t <= a_1, as RamificationPlan
    requires.  Raises EmptySpace when nothing certifies, and
    UnsupportedSize before enumerating more than MAX_CANDIDATES.

    The inner loop is integer only.  With D the largest degree searched, the
    refined denominator (g - 1) + sum m*f*nu/2 * (1 - q^-f) scaled by 2*q^D
    is the integer E = 2*q^D*(g - 1) + sum m*f*nu*(q^D - q^(D-f)), and the
    refined bound is t*2*q^D / E; two candidates compare by t1*E2 vs t2*E1.
    Candidates stream past a heap of the best top_n, so memory is O(top_n);
    a Fraction is built only when a candidate enters the heap.
    """
    params = space.spectrum.params
    q = params.q
    amap = space.spectrum.a_map
    nus = space.nus()
    ts = sorted(space.ts())
    a1 = amap.get(1, 0)
    for t in ts:
        if t < 1 or t > a1:
            raise OutOfRange(f"split count t = {t} not available (a_1 = {a1})")
    size = candidate_count(space)
    _refuse_above_cap(size)

    nothing = f"no plan over degrees {list(space.degrees)} certifies an infinite tower"
    degrees = [d for d in space.degrees if amap.get(d, 0) > 0]
    if not degrees:
        raise EmptySpace(nothing)
    d_top = max(degrees)
    scale = 2 * q**d_top

    # per-degree options: (unit rank, rd bound, scaled refined term, (-m, -nu),
    # rational places taken from T); a min-heap on negated vectors keeps the
    # largest vector at its root
    options = []
    for d in degrees:
        damped = d * (q**d_top - q ** (d_top - d))
        opts = [(0, 0, 0, (0, 0), 0)]
        for nu in nus:
            r1 = cft.local_unit_rank(params, d, nu)
            rd1 = cft.local_rd_bound(params, d, nu)
            for m in range(1, min(amap[d], space.max_multiplicity) + 1):
                opts.append((m * r1, m * rd1, m * damped * nu, (-m, -nu), m if d == 1 else 0))
        options.append(opts)
    *head, last = options

    base_e = scale * (space.spectrum.genus - 1)
    top_n = space.top_n
    certifies = cft.certifies
    heap = []  # (bound, negated vector, -t, E); the root is the worst kept
    certified = 0
    for prefix in itertools.product(*head):
        rank0 = sum(o[0] for o in prefix)
        rd0 = sum(o[1] for o in prefix)
        e0 = base_e + sum(o[2] for o in prefix)
        free0 = a1 - sum(o[4] for o in prefix)
        for r, rd, e, neg, taken in last:
            rank, free = rank0 + r, free0 - taken
            t_max = rank if rank < free else free  # min() here doubled the time of this loop
            for t in ts:
                if t > t_max:
                    break  # d < 1, or S and T overlap, here and for every later t; ts ascend
                if not certifies(1 + rank - t, rd0 + rd + t - 1):
                    continue
                certified += 1
                big_e = e0 + e
                if len(heap) == top_n:
                    worst = heap[0]
                    if t * worst[3] < -worst[2] * big_e:  # t/E below the worst t_w/E_w
                        continue
                negated = tuple(o[3] for o in prefix) + (neg,)
                item = (Fraction(t * scale, big_e), negated, -t, big_e)
                if len(heap) < top_n:
                    heapq.heappush(heap, item)
                elif item > heap[0]:
                    heapq.heapreplace(heap, item)

    if not heap:
        raise EmptySpace(nothing)
    ranked = []
    for bound, negated, neg_t, _ in sorted(heap, reverse=True):
        entries = tuple((d, -m, -nu) for d, (m, nu) in zip(degrees, negated) if m)
        plan = cft.RamificationPlan(params, entries, -neg_t, available_spectrum=space.spectrum)
        cert = cft.certify_tower(space.spectrum.genus, plan)
        if not cert.infinite or cert.bound_refined != bound:
            raise RuntimeError("optimizer bound disagrees with certify_tower")
        ranked.append((plan, cert))
    return SearchResult(
        ranked=tuple(ranked),
        candidates_evaluated=size,
        certified_count=certified,
        space=space,
    )


def candidate_count(space: SearchSpace) -> int:
    """Size of the enumeration; optimize refuses spaces above MAX_CANDIDATES."""
    vectors = _vector_count(
        space.spectrum.a_map, space.degrees, len(space.nus()), space.max_multiplicity
    )
    return vectors * len(space.ts())


def _vector_count(a, degrees, nu_count: int, cap: int) -> int:
    """The multiplicity vectors over degrees: each d with a_d > 0 takes
    m = 0, or m in 1..min(a_d, cap) with each of nu_count values of nu."""
    total = 1
    for d in degrees:
        if a.get(d, 0) > 0:
            total *= 1 + min(a[d], cap) * nu_count
    return total


def _refuse_above_cap(size: int, complete: bool = True) -> None:
    if size > MAX_CANDIDATES:
        bound = "" if complete else "at least "  # a lower bound of the count
        raise UnsupportedSize(
            f"search space of {bound}{size} candidates exceeds the cap {MAX_CANDIDATES}"
        )


def size_check(degrees, nus, cap: int):
    """A check(d, a) for cover.after_each_degree: raises UnsupportedSize once
    the vectors over the searched degrees up to d, whose a_d are final,
    exceed MAX_CANDIDATES.  Each other degree multiplies their count by at
    least 1, so a space optimize would refuse is refused before the rest of
    its spectrum is assembled.  Empty nus stands for (p,), as in SearchSpace."""

    def check(d: int, a) -> None:
        final = [f for f in degrees if f <= d]
        _refuse_above_cap(_vector_count(a, final, len(nus) or 1, cap), final == list(degrees))

    return check


# ---------------------------------------------------------------------------
# the two inequality systems for towers over rank-l elementary abelian covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodComparisonInput:
    """Parameters of a tower whose middle step is a rank-l elementary abelian
    p-cover, totally ramified at s rational places, with t completely split
    rational places and s_prime ramified places included in the split set."""

    s: int
    l: int
    t: int
    s_prime: int
    t_size: int  # |T|, counted in the cover

    def __post_init__(self):
        for name in ("s", "l", "t", "s_prime", "t_size"):
            if getattr(self, name) < 0:
                raise OutOfRange(f"{name} must be nonnegative")

    @property
    def t_k(self) -> int:
        return self.t + self.s_prime


@dataclass(frozen=True)
class MethodPair:
    d_lower: int
    rd_upper: int
    certifies: bool


@dataclass(frozen=True)
class MethodComparison:
    input: MethodComparisonInput
    usual: MethodPair
    ours: MethodPair


def compare_methods(inp: MethodComparisonInput) -> MethodComparison:
    """Both bound systems for the same tower data.

    usual:  d >= s*l - (|T_k| - 1) - l,   r - d <= |T| - 1
    ours:   d >= s*l - (|T_k| - 1),       r - d <= s*C(l+1, 2) - s'*l + |T_k| - 1
    """
    tk = inp.t_k
    usual_d = inp.s * inp.l - (tk - 1) - inp.l
    usual_rd = inp.t_size - 1
    ours_d = inp.s * inp.l - (tk - 1)
    ours_rd = inp.s * (inp.l * (inp.l + 1) // 2) - inp.s_prime * inp.l + tk - 1
    return MethodComparison(
        input=inp,
        usual=MethodPair(usual_d, usual_rd, cft.certifies(usual_d, usual_rd)),
        ours=MethodPair(ours_d, ours_rd, cft.certifies(ours_d, ours_rd)),
    )
