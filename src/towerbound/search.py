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
from dataclasses import dataclass, field
from fractions import Fraction

from . import cft
from .curve import PlaceSpectrum
from .errors import EmptySpace, OutOfRange, UnsupportedSize

# 2^20 candidates over twenty degrees of one place each take 1 to 2 s, 10^6 with
# one large degree about 2 ms; the bundled spaces have at most 65,526
MAX_CANDIDATES = 10**7
# ranked plans kept and printed, each re-certified with Fractions: optimize on f2_tower2
# takes 0.4 s at top 2,000 and 3.7 s for all 42,602 of its certified plans
MAX_TOP = 2000


@dataclass(frozen=True)
class SearchSpace:
    """Candidate plans over a fixed base field; the spectrum carries its genus.
    Without one the space only describes a search: optimize needs it."""

    spectrum: PlaceSpectrum | None = None
    degrees: tuple[int, ...] = (5, 6, 7, 8, 9, 10)
    allowed_nu: tuple[int, ...] = ()  # empty means (p,)
    t_values: tuple[int, ...] = ()  # empty means (a_1,)
    max_multiplicity: int = 200
    top_n: int = 10

    def __post_init__(self):
        if not 1 <= self.top_n <= MAX_TOP:
            raise OutOfRange(f"top_n must be in 1..{MAX_TOP}, got {self.top_n}")
        if self.max_multiplicity < 0:
            raise OutOfRange(f"max_multiplicity must be >= 0, got {self.max_multiplicity}")
        for name, least in (("degrees", 1), ("allowed_nu", 2), ("t_values", 1)):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise OutOfRange(f"{name} repeat a value: {list(values)}")
            if any(v < least for v in values):
                raise OutOfRange(f"{name} must be >= {least}, got {list(values)}")
        if self.spectrum is not None and self.spectrum.genus < 1:
            raise OutOfRange(
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
    """Rank every multiplicity vector in the space that certifies an
    infinite tower by its refined bound, and keep the best top_n.

    Ties break toward the lexicographically smaller multiplicity vector,
    then the smaller t.  Rational places serve S and T alike, so a
    candidate certifies only with m_1 + t <= a_1, as RamificationPlan
    requires.  Raises EmptySpace when nothing certifies, UnsupportedSize
    before enumerating more than MAX_CANDIDATES, and OutOfRange without a spectrum.

    The arithmetic is integer only.  With D the largest degree searched,
    the refined denominator (g - 1) + sum m*f*nu/2 * (1 - q^-f) scaled by
    2*q^D is the integer E = 2*q^D*(g - 1) + sum m*f*nu*(q^D - q^(D-f)),
    and the refined bound is t*2*q^D / E; two candidates compare by
    t1*E2 vs t2*E1.

    One degree c, the one with the most options, is never enumerated.  The
    other degrees (the prefix) are enumerated as two precombined halves of
    running sums, so a prefix costs four additions.  Per prefix, nu and t,
    the multiplicities m >= 1 at c that certify are at most two runs, which
    cft.certifying_runs solves in closed form; each run counts by its
    length.  E grows with m, so a run is offered to a heap of the best
    top_n in ascending m until the heap refuses one.  Memory is the two
    halves plus O(top_n); a Fraction is built only when a candidate can
    enter the heap.
    """
    if space.spectrum is None:
        raise OutOfRange("the search space has no spectrum to search")
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
    cap = space.max_multiplicity

    # per degree and nu: (unit rank, rd bound, scaled refined term, -nu) of one place
    steps = {
        d: [
            (cft.local_unit_rank(params, d, nu), cft.local_rd_bound(params, d, nu),
             d * (q**d_top - q ** (d_top - d)) * nu, -nu)
            for nu in nus
        ]
        for d in degrees
    }
    c = max(reversed(degrees), key=lambda d: min(amap[d], cap))  # most options; the last on a tie
    c_steps, c_cap = steps[c], min(amap[c], cap)
    options = {  # every choice at a degree: m = 0, or m places with one nu
        d: [(0, 0, 0, 0, (0, 0))] + [
            (m * r1, m * rd1, m * de, m if d == 1 else 0, (-m, neg_nu))
            for r1, rd1, de, neg_nu in steps[d]
            for m in range(1, min(amap[d], cap) + 1)
        ]
        for d in degrees if d != c
    }
    (pos_a, half_a), (pos_b, half_b) = _halves(degrees, options)

    base_e = scale * (space.spectrum.genus - 1)
    top_n = space.top_n
    certifies = cft.certifies
    certifying_runs = cft.certifying_runs
    heap = []  # (bound, negated vector, -t, E); a min-heap, so the root is the worst kept
    certified = 0

    def offer(t, big_e, neg_a, neg_b, entry) -> bool:
        """Put the candidate on the heap unless it is full and the root is
        at least as good; True when it entered."""
        vector = [entry] * len(degrees)
        for i, v in zip(pos_a, neg_a):
            vector[i] = v
        for i, v in zip(pos_b, neg_b):
            vector[i] = v
        item = (Fraction(t * scale, big_e), tuple(vector), -t, big_e)
        if len(heap) < top_n:
            heapq.heappush(heap, item)
        elif item > heap[0]:
            heapq.heapreplace(heap, item)
        else:
            return False
        return True

    for rank_a, rd_a, e_a, taken_a, neg_a in half_a:
        for rank_b, rd_b, e_b, taken_b, neg_b in half_b:
            rank, rd0, e0 = rank_a + rank_b, rd_a + rd_b, base_e + e_a + e_b
            free = a1 - taken_a - taken_b
            # each t loop stops at the first t that certifies nothing: a larger t
            # lowers d and raises rd, and rd >= 0 here, so it certifies nothing either
            for t in ts:  # m = 0 at c
                if t > rank or t > free or not certifies(1 + rank - t, rd0 + t - 1):
                    break
                certified += 1
                if len(heap) < top_n or t * heap[0][3] >= -heap[0][2] * e0:
                    offer(t, e0, neg_a, neg_b, (0, 0))
            for r1, rd1, de, neg_nu in c_steps:
                for t in ts:
                    # degree-1 places at c leave t + m <= free rational places to T
                    m_max = min(c_cap, free - t) if c == 1 else c_cap if t <= free else 0
                    runs = certifying_runs(1 + rank - t, r1, rd0 + t - 1, rd1, m_max)
                    if not runs:
                        break
                    for lo, hi in runs:
                        certified += hi - lo + 1
                        for m in range(lo, hi + 1):  # E grows with m: the bound falls
                            big_e = e0 + m * de
                            if len(heap) == top_n and t * heap[0][3] < -heap[0][2] * big_e:
                                break  # t/E below the worst t_w/E_w
                            if not offer(t, big_e, neg_a, neg_b, (-m, neg_nu)):
                                break

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


def _halves(degrees, options):
    """Split the degrees in options into two halves whose products of
    option counts are close, largest first into the smaller product, and
    precombine each half: (positions in degrees, [(rank, rd, E, rational
    places taken, negated vector)] over every choice in the half).  The
    larger half comes second, for the inner loop."""
    sides, products = ([], []), [1, 1]
    for d in sorted(options, key=lambda d: -len(options[d])):
        k = products[1] < products[0]
        sides[k].append(d)
        products[k] *= len(options[d])
    halves = []
    for side in sides:
        combined = [(0, 0, 0, 0, ())]
        for d in side:
            combined = [
                (r + r2, rd + rd2, e + e2, taken + taken2, neg + (neg2,))
                for r, rd, e, taken, neg in combined
                for r2, rd2, e2, taken2, neg2 in options[d]
            ]
        halves.append(([degrees.index(d) for d in side], combined))
    return sorted(halves, key=lambda half: len(half[1]))


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


def size_check(space: SearchSpace):
    """A check(d, a) for cover.after_each_degree: raises UnsupportedSize once
    the vectors over the space's degrees up to d, whose a_d are final,
    exceed MAX_CANDIDATES.  Each other degree multiplies their count by at
    least 1, so a space optimize would refuse is refused before the rest of
    its spectrum is assembled.  The space needs no spectrum: empty allowed_nu
    stands for the one nu = p, as in SearchSpace.nus."""

    def check(d: int, a) -> None:
        final = [f for f in space.degrees if f <= d]
        size = _vector_count(a, final, len(space.allowed_nu) or 1, space.max_multiplicity)
        _refuse_above_cap(size, final == list(space.degrees))

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
