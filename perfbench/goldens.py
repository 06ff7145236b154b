"""Known exact values, and the checker that compares a pass's outputs with them.

A pass produces a list of outputs `(label, exit_code, block)`, where block
is a flat `key -> str` map in the CLI's `--json` machine-block format.
`expected(workload)` maps each label to the keys and exact string values it
must carry.  Sources of the values:

- the selftest goldens (a_d tuples, genera, margins, bounds, method
  comparison pairs) and zero oracle residuals;
- curve counts N_n and spectra a_d for every n, predicted from the
  L-polynomial rebuilt from N_1..N_g and the functional equation
  (genus <= 2 base curves);
- the search counts and top-5 rankings, recorded from the bundled
  `[search]` sections.

Every value is independent of the seed: the seeded change of coordinates
gives the same function fields.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# base curves: (q, genus, N_1..N_g) fixes every N_n through the L-polynomial
# ---------------------------------------------------------------------------

CURVES = {
    "E": (2, 1, (5,)),  # y^2 + y = x^3 + x over F_2
    "H": (2, 2, (6, 6)),  # y^2 + (x^3 + x + 1)y = x^2 + x over F_2
    "E3": (3, 1, (7,)),  # y^2 = x^3 - x + 1 over F_3
}

# infinite places of each base curve as (degree, count)
CURVE_INFINITY = {"E": ((1, 1),), "H": ((1, 2),), "E3": ((1, 1),)}


def predicted_counts(q: int, genus: int, low: tuple[int, ...], n_max: int) -> dict[int, int]:
    """N_1..N_nmax of a genus-g curve over F_q from N_1..N_g.

    With L(T) = prod(1 - alpha_i T) = sum c_k T^k, the power sums
    S_k = sum alpha_i^k = q^k + 1 - N_k obey Newton's identities
    S_k = -(k c_k + sum_{i=1}^{k-1} c_i S_{k-i}).  The first g of them give
    c_1..c_g, the functional equation c_{2g-i} = q^{g-i} c_i gives the rest
    (c_k = 0 beyond 2g), and the same identities then give every S_k.
    """
    c = [1] + [0] * (2 * genus)
    S: dict[int, int] = {}
    for k in range(1, genus + 1):
        S[k] = q**k + 1 - low[k - 1]
        s = S[k] + sum(c[i] * S[k - i] for i in range(1, k))
        if s % k:
            raise ValueError(f"non-integral L-polynomial coefficient c_{k}")
        c[k] = -s // k
    for i in range(genus):
        c[2 * genus - i] = q ** (genus - i) * c[i]
    for k in range(genus + 1, n_max + 1):
        ck = c[k] if k <= 2 * genus else 0
        S[k] = -(k * ck + sum(c[i] * S[k - i] for i in range(1, min(k, 2 * genus + 1))))
    return {n: q**n + 1 - S[n] for n in range(1, n_max + 1)}


def _mobius(n: int) -> int:
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def counts_to_places(N: dict[int, int]) -> dict[int, int]:
    """a_d = (1/d) sum_{m | d} mu(d/m) N_m."""
    out = {}
    for d in range(1, max(N) + 1):
        s = sum(_mobius(d // m) * N[m] for m in range(1, d + 1) if d % m == 0)
        if s % d:
            raise ValueError(f"a_{d} = {s}/{d} is not integral")
        out[d] = s // d
    return out


def curve_counts(name: str, n_max: int) -> dict[int, int]:
    q, genus, low = CURVES[name]
    return predicted_counts(q, genus, low, n_max)


def affine_points(name: str, n: int) -> int:
    """Affine solutions of the base model over F_{q^n}: N_n minus infinite points."""
    inf = sum(m * cnt for m, cnt in CURVE_INFINITY[name] if n % m == 0)
    return curve_counts(name, n)[n] - inf


# ---------------------------------------------------------------------------
# covers, certificates, comparisons, searches
# ---------------------------------------------------------------------------

COVERS = {  # name -> (config, base curve, genus, a_1..a_dmax at the CLI default d_max)
    "k1": ("f2_tower1", "E", 276, (160, 0, 0, 0, 1, 0, 0, 65, 0, 48)),
    "k2": ("f2_tower2", "H", 343, (192, 0, 0, 0, 2, 16, 0, 16, 0, 64)),
    "k3": ("f3_tower", "E3", 601, (567, 0, 0, 0, 1, 0, 0, 162, 1809)),
}

CERTIFICATES = {  # plan -> (config, gs_margin, plain bound, refined bound)
    "tower1": ("f2_tower1", 92, Fraction(80, 253), Fraction(16384, 51711)),
    "tower2": ("f2_tower2", 57, Fraction(6, 19), Fraction(24576, 77527)),
    "deg8_only": ("f3_tower", 932, Fraction(63, 128), Fraction(1240029, 2519240)),
    "mixed": ("f3_tower", 308, None, Fraction(1240029, 2515901)),
}

COMPARISONS = {  # name -> (system, d_lower, rd_upper)
    "nx98_usual": ("usual", 20, 80),
    "nx98_ours": ("ours", 21, 82),
    "xy07_usual": ("usual", 22, 96),
    "xy07_ours": ("ours", 22, 92),
}

SEARCHES = {  # config -> (candidates, certified, top 5 as (plan, gs_margin, bound_refined))
    "f2_tower1": (6468, 5747, (
        ("S = 1x(f=5,nu=2) + 27x(f=8,nu=2) + 1x(f=10,nu=2), t = 160", 92, "16384/51711"),
        ("S = 29x(f=8,nu=2), t = 160", 225, "1024/3239"),
        ("S = 24x(f=8,nu=2) + 4x(f=10,nu=2), t = 160", 65, "4096/12959"),
        ("S = 1x(f=5,nu=2) + 26x(f=8,nu=2) + 2x(f=10,nu=2), t = 160", 300, "8192/25959"),
        ("S = 1x(f=5,nu=2) + 21x(f=8,nu=2) + 6x(f=10,nu=2), t = 160", 140, "8192/25965"),
    )),
    "f2_tower2": (56355, 42602, (
        ("S = 2x(f=5,nu=2) + 16x(f=6,nu=2) + 15x(f=8,nu=2) + 4x(f=10,nu=2), t = 192", 57,
         "24576/77527"),
        ("S = 1x(f=5,nu=2) + 16x(f=6,nu=2) + 12x(f=8,nu=2) + 7x(f=10,nu=2), t = 192", 36,
         "98304/310733"),
        ("S = 1x(f=5,nu=2) + 15x(f=6,nu=2) + 14x(f=8,nu=2) + 6x(f=10,nu=2), t = 192", 52,
         "49152/155377"),
        ("S = 1x(f=5,nu=2) + 14x(f=6,nu=2) + 16x(f=8,nu=2) + 5x(f=10,nu=2), t = 192", 68,
         "98304/310775"),
        ("S = 2x(f=5,nu=2) + 16x(f=6,nu=2) + 14x(f=8,nu=2) + 5x(f=10,nu=2), t = 192", 277,
         "98304/311143"),
    )),
    "f3_tower": (65526, 63576, (
        ("S = 1x(f=5,nu=3) + 43x(f=8,nu=3) + 2x(f=9,nu=3), t = 567", 308, "1240029/2515901"),
        ("S = 1x(f=5,nu=3) + 42x(f=8,nu=3) + 3x(f=9,nu=3), t = 567", 836, "413343/839728"),
        ("S = 1x(f=5,nu=3) + 33x(f=8,nu=3) + 11x(f=9,nu=3), t = 567", 260, "45927/93304"),
        ("S = 46x(f=8,nu=3), t = 567", 932, "1240029/2519240"),
        ("S = 37x(f=8,nu=3) + 8x(f=9,nu=3), t = 567", 356, "1240029/2519264"),
    )),
}


def rational(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


# ---------------------------------------------------------------------------
# the workloads' commands and their expected blocks
# ---------------------------------------------------------------------------

# ("spectrum", config, name, dmax or None) | ("certify", config, plan)
# | ("compare", config) | ("optimize", config) | ("oracle", config, cover, n_max)
WORKLOADS = {
    "reproduce": (
        ("spectrum", "f2_tower1", "E", 8),
        ("spectrum", "f2_tower2", "H", 8),
        ("spectrum", "f3_tower", "E3", 8),
        ("spectrum", "f2_tower1", "k1", None),
        ("spectrum", "f2_tower2", "k2", None),
        ("spectrum", "f3_tower", "k3", None),
        ("certify", "f2_tower1", "tower1"),
        ("certify", "f2_tower2", "tower2"),
        ("certify", "f3_tower", "deg8_only"),
        ("certify", "f3_tower", "mixed"),
        ("compare", "remark_comparisons"),
    ),
    "search": (
        ("optimize", "f2_tower1"),
        ("optimize", "f2_tower2"),
        ("optimize", "f3_tower"),
    ),
    "fieldscan": (
        ("spectrum", "f2_tower1", "E", 17),
        ("spectrum", "f2_tower2", "H", 16),
        ("spectrum", "f3_tower", "E3", 10),
        ("oracle", "f2_tower1", "k1", 10),
        ("oracle", "f2_tower2", "k2", 10),
        ("oracle", "f3_tower", "k3", 9),
    ),
}


def label(command: tuple) -> str:
    return " ".join(str(part) for part in command if part is not None)


def _expected_block(command: tuple) -> dict[str, str]:
    kind = command[0]
    out: dict[str, str] = {}
    if kind == "spectrum" and command[2] in CURVES:
        d_max = command[3]
        N = curve_counts(command[2], d_max)
        a = counts_to_places(N)
        for d in range(1, d_max + 1):
            out[f"a.{d}"] = str(a[d])
            out[f"N.{d}"] = str(N[d])
        out["zeta.pass"] = "true"
    elif kind == "spectrum":
        _, _, genus, a_tuple = COVERS[command[2]]
        out["genus"] = str(genus)
        for d, a_d in enumerate(a_tuple, start=1):
            out[f"a.{d}"] = str(a_d)
        out["oracle.1.residual"] = "0"
        out["oracle.2.residual"] = "0"
    elif kind == "certify":
        _, margin, plain, refined = CERTIFICATES[command[2]]
        out["gs_margin"] = str(margin)
        out["side_condition"] = "ok"
        out["infinite"] = "true"
        if plain is not None:
            out["bound"] = rational(plain)
        out["bound_refined"] = rational(refined)
    elif kind == "compare":
        for name, (system, d_lower, rd_upper) in COMPARISONS.items():
            out[f"{name}.{system}.d_lower"] = str(d_lower)
            out[f"{name}.{system}.rd_upper"] = str(rd_upper)
            out[f"{name}.{system}.certifies"] = "true"
    elif kind == "optimize":
        candidates, certified, top = SEARCHES[command[1]]
        out["default.candidates"] = str(candidates)
        out["default.certified"] = str(certified)
        for i, (plan, margin, refined) in enumerate(top):
            out[f"default.rank.{i}.plan"] = plan
            out[f"default.rank.{i}.gs_margin"] = str(margin)
            out[f"default.rank.{i}.bound_refined"] = refined
    elif kind == "oracle":
        for n in range(1, command[3] + 1):
            out[f"oracle.{n}.residual"] = "0"
    else:
        raise ValueError(f"unknown command kind {kind!r}")
    return out


def expected(workload: str) -> dict[str, dict[str, str]]:
    return {label(cmd): _expected_block(cmd) for cmd in WORKLOADS[workload]}


def check(outputs: list, want: dict[str, dict[str, str]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, first failure messages) over exit codes and expected keys.

    Every expected label must appear exactly once; a missing output counts
    its exit code and each of its keys as failed.
    """
    attempted = failed = 0
    failures: list[str] = []

    def record(ok: bool, what: str):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            if len(failures) < 20:
                failures.append(what)

    got = {}
    for lab, code, block in outputs:
        record(lab not in got, f"{lab}: produced twice")
        got[lab] = (code, block)
    for lab, keys in want.items():
        code, block = got.get(lab, (None, {}))
        record(code == 0, f"{lab}: exit code {code}")
        for key, value in keys.items():
            record(block.get(key) == value, f"{lab}: {key} = {block.get(key)!r}, want {value!r}")
    for lab in got:
        record(lab in want, f"{lab}: unexpected output")
    return attempted, failed, failures
