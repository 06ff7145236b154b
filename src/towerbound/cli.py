"""Command-line front end.

Subcommands: spectrum, certify, optimize, compare, selftest.  Configuration
documents describe curves, covers, profiles, plans and search spaces; four
reproduction configs ship with the package (f2_tower1, f2_tower2, f3_tower,
remark_comparisons) and are addressable by bare name.

Exit codes are a stable contract:
    0  success (for certify: the tower is certified infinite)
    2  input problem (bad config, unresolvable name, malformed flags)
    3  model inconsistency (spectra, zeta or cover data contradict)
    4  not certified (the plan fails the infinitude criterion)
    5  empty search space (nothing certifies)

Machine-readable output (--json) is a flat block of `key = value` lines,
one per record field, chosen over a nested format so golden-file diffs
stay trivial.  Rationals are printed in lowest terms and as decimals
truncated (not rounded) at 12 digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction

from . import FieldParams, cft, config, cover as cover_mod, curve as curve_mod, search as search_mod
from .errors import (
    ConfigError,
    EmptySpace,
    InconsistentModel,
    TowerboundError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_NOT_CERTIFIED = 4
EXIT_EMPTY_SEARCH = 5

DECIMAL_DIGITS = 12


def truncate_decimal(fr: Fraction, digits: int = DECIMAL_DIGITS) -> str:
    """Decimal expansion truncated toward zero; display only, never compared."""
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    whole, rem = divmod(fr.numerator, fr.denominator)
    frac = rem * 10**digits // fr.denominator
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


def rational_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


class Report:
    """Collects a human-readable transcript and a flat machine block."""

    def __init__(self):
        self.human: list[str] = []
        self.machine: list[tuple[str, str]] = []

    def line(self, text: str = ""):
        self.human.append(text)

    def kv(self, key: str, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.machine.append((key, str(value)))

    def rational(self, key: str, fr: Fraction):
        self.kv(key, rational_str(fr))
        self.kv(f"{key}.decimal", truncate_decimal(fr))

    def warnings(self, notes):
        for i, note in enumerate(notes):
            self.kv(f"warning.{i}", note)
        if notes:
            self.line("warnings:")
            for note in notes:
                self.line(f"  - {note}")

    def render(self, as_json: bool) -> str:
        if as_json:
            return "\n".join(f"{k} = {v}" for k, v in self.machine)
        return "\n".join(self.human)


def parse_machine_block(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def replay_certificate(block: dict) -> cft.TowerCertificate:
    """Rebuild the plan from a machine block and re-certify it.

    Used to verify the round-trip contract: re-parsed report inputs must
    reproduce identical certificates.
    """
    params = FieldParams(int(block["plan.p"]), int(block["plan.e"]))
    entries = []
    i = 0
    while f"plan.entry.{i}" in block:
        f, count, nu = (int(v) for v in block[f"plan.entry.{i}"].split(":"))
        entries.append((f, count, nu))
        i += 1
    plan = cft.RamificationPlan(params, tuple(entries), int(block["plan.t"]))
    return cft.certify_tower(int(block["genus"]), plan)


def _default_dmax(params) -> int:
    return 10 if params.p == 2 else 9


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _spectrum_tables(report: Report, spec: curve_mod.PlaceSpectrum, d_max: int):
    amap, nmap = spec.a_map, spec.n_map
    report.line("  d:   " + "  ".join(f"{d:>6}" for d in range(1, d_max + 1)))
    report.line("  a_d: " + "  ".join(f"{amap.get(d, 0):>6}" for d in range(1, d_max + 1)))
    report.line("  n:   " + "  ".join(f"{n:>6}" for n in sorted(nmap) if n <= d_max))
    report.line("  N_n: " + "  ".join(f"{nmap[n]:>6}" for n in sorted(nmap) if n <= d_max))
    for d in range(1, d_max + 1):
        report.kv(f"a.{d}", amap.get(d, 0))
    for n in sorted(nmap):
        if n <= d_max:
            report.kv(f"N.{n}", nmap[n])


def cmd_spectrum(doc: config.ConfigDocument, name: str, d_max: int | None) -> tuple[int, Report]:
    report = Report()
    report.kv("record", "spectrum")
    report.kv("config", doc.source)
    report.kv("name", name)
    d_max = _default_dmax(doc.params) if d_max is None else d_max
    report.kv("dmax", d_max)
    if name in doc.curves:
        model = doc.curves[name]
        # the zeta check reads N_n up to n = 2g
        spec = curve_mod.spectrum_from_counts(model, max(d_max, 2 * model.genus))
        report.line(f"place spectrum of curve {name} over F_{model.params.q}, genus {model.genus}")
        _spectrum_tables(report, spec, d_max)
        zres = curve_mod.zeta_check(spec)
        report.line("  " + zres.describe())
        report.kv("zeta.pass", zres.passed)
        report.kv("zeta.l_coeffs", ",".join(str(c) for c in zres.l_coeffs))
        for n, pred in zres.predicted:
            report.kv(f"zeta.predicted.{n}", pred)
        if not zres.passed:
            report.line("  discrepancies: " + str(zres.discrepancies))
            return EXIT_MODEL, report
        report.warnings(model.assumptions())
        return EXIT_OK, report
    if name in doc.covers:
        cov = doc.covers[name]
        spec = cover_mod.assemble_spectrum(cov, max(d_max, 2))  # the oracle runs at n = 1, 2
        report.line(
            f"place spectrum of cover {name} (rank {cov.rank} over {cov.base.name}), "
            f"genus {spec.genus}"
        )
        report.kv("genus", spec.genus)
        _spectrum_tables(report, spec, d_max)
        report.line("  brute-force compositum cross-check:")
        for n in (1, 2):
            orep = cover_mod.oracle_report(cov, spec, n)
            report.line(
                f"    n={n}: {orep.brute_count} affine solutions; spectrum points "
                f"{orep.spectrum_points} - infinite {orep.infinite_points} - declared "
                f"{orep.declared_points}; singular {orep.singular_solutions}; "
                f"residual {orep.residual}"
            )
            report.kv(f"oracle.{n}.count", orep.brute_count)
            report.kv(f"oracle.{n}.residual", orep.residual)
            if orep.residual != 0:
                return EXIT_MODEL, report
        report.warnings(cov.assumptions())
        return EXIT_OK, report
    raise ConfigError(f"no curve or cover named {name!r} in {doc.source}")


def _emit_certificate(report: Report, cert: cft.TowerCertificate):
    plan = cert.plan
    report.kv("plan.p", plan.params.p)
    report.kv("plan.e", plan.params.e)
    for i, (f, count, nu) in enumerate(plan.entries):
        report.kv(f"plan.entry.{i}", f"{f}:{count}:{nu}")
    report.kv("plan.t", plan.t)
    report.kv("genus", cert.genus)
    report.kv("d_lower", cert.d_lower)
    report.kv("rd_upper", cert.rd_upper)
    report.kv("gs_margin", cert.gs_margin)
    report.kv("side_condition", "ok" if cert.side_condition_ok else "violated")
    report.kv("infinite", cert.infinite)
    report.line(f"plan: {plan.describe()}")
    report.line(f"genus of the base of the tower: {cert.genus}")
    report.line(
        f"generator rank lower bound d = {cert.d_lower}, relation slack upper bound "
        f"r - d = {cert.rd_upper}"
    )
    report.line(
        f"side condition t <= rank sum: {'ok' if cert.side_condition_ok else 'VIOLATED'}"
    )
    report.line(f"gs margin d^2 - 4d - 4(r - d) = {cert.gs_margin}")
    if cert.infinite:
        report.line("tower: INFINITE (criterion satisfied)")
        report.rational("bound", cert.bound)
        report.rational("bound_refined", cert.bound_refined)
        report.line(
            f"A({plan.params.q}) >= {rational_str(cert.bound)} "
            f"= {truncate_decimal(cert.bound)} (worst-case conductors)"
        )
        report.line(
            f"A({plan.params.q}) >= {rational_str(cert.bound_refined)} "
            f"= {truncate_decimal(cert.bound_refined)} (damped conductors)"
        )
    else:
        d, rd = cert.d_lower, cert.rd_upper
        report.line("tower: NOT certified")
        if not cert.side_condition_ok:
            report.line(
                f"  side condition fails: t = {plan.t} > sum of local ranks {plan.rank_sum}"
            )
        else:
            report.line(
                f"  need r - d <= d^2/4 - d: {rd} > {Fraction(d * d, 4) - d} "
                f"(margin {cert.gs_margin} < 0)"
            )
    report.warnings(list(cert.warnings))


def cmd_certify(doc: config.ConfigDocument, plan_name: str) -> tuple[int, Report]:
    if plan_name not in doc.plans:
        raise ConfigError(f"no plan named {plan_name!r} in {doc.source} (have {list(doc.plans)})")
    plan_cfg = doc.plans[plan_name]
    cov = doc.covers[plan_cfg.on]
    # built first, so a bad entry is refused before any assembly
    plan = cft.RamificationPlan(cov.params, plan_cfg.entries, plan_cfg.t)
    spectrum = cover_mod.assemble_spectrum(cov, max(f for f, _, _ in plan.entries))
    infeasible = None
    try:
        dataclasses.replace(plan, available_spectrum=spectrum)
    except InconsistentModel as exc:
        # evaluate the criterion anyway so the report can spell the failure out
        infeasible = str(exc)
    cert = cft.certify_tower(spectrum.genus, plan)
    report = Report()
    report.kv("record", "certificate")
    report.kv("config", doc.source)
    report.kv("name", plan_name)
    report.line(f"certificate for plan {plan_name} on cover {plan_cfg.on}")
    if infeasible:
        report.kv("feasible", False)
        report.line(f"plan is not realizable on this spectrum: {infeasible}")
    _emit_certificate(report, cert)
    if infeasible and cert.infinite:
        # a certificate for an unrealizable plan proves nothing
        return EXIT_MODEL, report
    return (EXIT_OK if cert.infinite else EXIT_NOT_CERTIFIED), report


def cmd_optimize(doc: config.ConfigDocument, top: int | None) -> tuple[int, Report]:
    if not doc.searches:
        raise ConfigError(f"{doc.source} has no [search] section")
    report = Report()
    report.kv("record", "search")
    report.kv("config", doc.source)
    for sname, sc in sorted(doc.searches.items()):
        cov = doc.covers[sc.on]
        with cover_mod.after_each_degree(search_mod.size_check(sc.degrees, sc.nus, sc.cap)):
            spectrum = cover_mod.assemble_spectrum(cov, max(sc.degrees, default=1))
        t_values = () if sc.t == "a1" else (int(sc.t),)
        space = search_mod.SearchSpace(
            spectrum=spectrum,
            degrees=sc.degrees,
            allowed_nu=sc.nus,
            t_values=t_values,
            max_multiplicity=sc.cap,
            top_n=sc.top if top is None else top,
        )
        result = search_mod.optimize(space)
        report.kv(f"{sname}.candidates", result.candidates_evaluated)
        report.kv(f"{sname}.certified", result.certified_count)
        report.line(
            f"search {sname} over {sc.on}: {result.candidates_evaluated} candidates, "
            f"{result.certified_count} certify; top {len(result.ranked)}:"
        )
        for i, (plan, cert) in enumerate(result.ranked):
            report.kv(f"{sname}.rank.{i}.plan", plan.describe())
            report.kv(f"{sname}.rank.{i}.gs_margin", cert.gs_margin)
            report.rational(f"{sname}.rank.{i}.bound_refined", cert.bound_refined)
            marker = " <= best" if i == 0 else ""
            report.line(
                f"  #{i + 1}: {plan.describe()}; margin {cert.gs_margin}; "
                f"A({plan.params.q}) >= {rational_str(cert.bound_refined)} "
                f"= {truncate_decimal(cert.bound_refined)}{marker}"
            )
        report.line(
            "  (optimality holds within this search space only; "
            "no claim beyond the listed degrees and caps)"
        )
    return EXIT_OK, report


def cmd_compare(
    doc: config.ConfigDocument | None,
    name: str | None,
    inline: search_mod.MethodComparisonInput | None,
) -> tuple[int, Report]:
    report = Report()
    report.kv("record", "comparison")
    items: list[tuple[str, search_mod.MethodComparisonInput]] = []
    if inline is not None:
        items.append(("inline", inline))
    elif doc is not None:
        if name is not None:
            if name not in doc.compares:
                raise ConfigError(f"no comparison named {name!r} in {doc.source}")
            items.append((name, doc.compares[name]))
        else:
            items.extend(sorted(doc.compares.items()))
        report.kv("config", doc.source)
    if not items:
        raise ConfigError("compare needs --config with [compare] sections or the five inline flags")
    for cname, inp in items:
        res = search_mod.compare_methods(inp)
        report.line(
            f"{cname}: s={inp.s} l={inp.l} t={inp.t} s'={inp.s_prime} |T|={inp.t_size}"
        )
        for label, pair in (("usual", res.usual), ("ours", res.ours)):
            verdict = "infinite" if pair.certifies else "inconclusive"
            report.line(
                f"  {label:>5}: d >= {pair.d_lower}, r - d <= {pair.rd_upper}  -> {verdict}"
            )
            report.kv(f"{cname}.{label}.d_lower", pair.d_lower)
            report.kv(f"{cname}.{label}.rd_upper", pair.rd_upper)
            report.kv(f"{cname}.{label}.certifies", pair.certifies)
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# selftest: the full reproduction battery
# ---------------------------------------------------------------------------


def cmd_selftest() -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(label: str, got, want):
        ok = got == want
        checks.append((label, ok, f"got {got}, want {want}"))
        print(f"  {'PASS' if ok else 'FAIL'}  {label}" + ("" if ok else f": got {got}, want {want}"))

    print("spectra:")
    doc1 = config.load_config("f2_tower1")
    doc2 = config.load_config("f2_tower2")
    doc3 = config.load_config("f3_tower")
    specE = curve_mod.spectrum_from_counts(doc1.curves["E"], 8)
    check("a_d(E) d<=8", specE.a_tuple(8), (5, 0, 0, 5, 4, 10, 20, 25))
    specH = curve_mod.spectrum_from_counts(doc2.curves["H"], 5)
    check("a_d(H) d<=5", specH.a_tuple(5), (6, 0, 1, 1, 6))
    specE3 = curve_mod.spectrum_from_counts(doc3.curves["E3"], 5)
    check("a_d(E3) d<=5", specE3.a_tuple(5), (7, 0, 7, 21, 42))
    sC = cover_mod.assemble_spectrum(doc1.covers["C"], 5)
    check("a_d(C) d<=5", sC.a_tuple(5), (10, 0, 0, 0, 3))
    s1 = cover_mod.assemble_spectrum(doc1.covers["k1"], 10)
    check("a_d(k1) d<=10", s1.a_tuple(10), (160, 0, 0, 0, 1, 0, 0, 65, 0, 48))
    s2 = cover_mod.assemble_spectrum(doc2.covers["k2"], 10)
    check("a_d(k2) d<=10", s2.a_tuple(10), (192, 0, 0, 0, 2, 16, 0, 16, 0, 64))
    s3 = cover_mod.assemble_spectrum(doc3.covers["k3"], 9)
    check("a_d(k3) d<=9", s3.a_tuple(9), (567, 0, 0, 0, 1, 0, 0, 162, 1809))

    print("genera and zeta:")
    check("genus k1", s1.genus, 276)
    check("genus k2", s2.genus, 343)
    check("genus k3", s3.genus, 601)
    check("zeta(E)", curve_mod.zeta_check(curve_mod.spectrum_from_counts(doc1.curves["E"], 4)).passed, True)
    check("zeta(H)", curve_mod.zeta_check(curve_mod.spectrum_from_counts(doc2.curves["H"], 4)).passed, True)
    check("zeta(E3)", curve_mod.zeta_check(curve_mod.spectrum_from_counts(doc3.curves["E3"], 4)).passed, True)

    print("certificates and bounds:")
    expected = {
        ("f2_tower1", "tower1"): (92, Fraction(80, 253), Fraction(16384, 51711)),
        ("f2_tower2", "tower2"): (57, Fraction(6, 19), Fraction(24576, 77527)),
        ("f3_tower", "deg8_only"): (932, Fraction(63, 128), None),
        ("f3_tower", "mixed"): (308, None, Fraction(1240029, 2515901)),
    }
    docs = {"f2_tower1": doc1, "f2_tower2": doc2, "f3_tower": doc3}
    spectra = {"k1": s1, "k2": s2, "k3": s3}
    for (cfg_name, plan_name), (margin, plain, refined) in expected.items():
        doc = docs[cfg_name]
        pc = doc.plans[plan_name]
        spectrum = spectra[pc.on]
        plan = cft.RamificationPlan(doc.params, pc.entries, pc.t, available_spectrum=spectrum)
        cert = cft.certify_tower(spectrum.genus, plan)
        check(f"{plan_name}: margin", cert.gs_margin, margin)
        check(f"{plan_name}: infinite", cert.infinite, True)
        if plain is not None:
            check(f"{plan_name}: bound", cert.bound, plain)
        if refined is not None:
            check(f"{plan_name}: bound_refined", cert.bound_refined, refined)
    cert2 = cft.certify_tower(343, cft.RamificationPlan(doc2.params, doc2.plans["tower2"].entries, 192))
    check("tower2 decimal prefix", truncate_decimal(cert2.bound_refined)[:8], "0.316999")
    cert3 = cft.certify_tower(601, cft.RamificationPlan(doc3.params, doc3.plans["mixed"].entries, 567))
    check("mixed decimal prefix", truncate_decimal(cert3.bound_refined)[:8], "0.492876")

    print("oracle residuals:")
    for cname, cov, spec in (("k1", doc1.covers["k1"], s1), ("k2", doc2.covers["k2"], s2), ("k3", doc3.covers["k3"], s3)):
        for n in (1, 2):
            check(f"{cname} residual n={n}", cover_mod.oracle_report(cov, spec, n).residual, 0)

    print("method comparison:")
    doc4 = config.load_config("remark_comparisons")
    for cname, which, want in (
        ("nx98_usual", "usual", (20, 80)),
        ("nx98_ours", "ours", (21, 82)),
        ("xy07_usual", "usual", (22, 96)),
        ("xy07_ours", "ours", (22, 92)),
    ):
        pair = getattr(search_mod.compare_methods(doc4.compares[cname]), which)
        check(f"{cname} ({which})", (pair.d_lower, pair.rd_upper), want)
        check(f"{cname} certifies", pair.certifies, True)

    failed = [label for label, ok, _ in checks if not ok]
    print(f"selftest: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_MODEL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="towerbound",
        description="certify infinite class field towers and compute Ihara constant lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=False, help="config file path or bundled name")
        sp.add_argument("--json", action="store_true", help="emit the flat machine-readable block")

    sp = sub.add_parser("spectrum", help="place spectrum of a curve or cover")
    common(sp)
    sp.add_argument("--name", required=True)
    sp.add_argument("--dmax", type=int, default=None)

    sp = sub.add_parser("certify", help="run the infinitude criterion on a named plan")
    common(sp)
    sp.add_argument("--name", required=True)

    sp = sub.add_parser("optimize", help="search ramification plans for the best refined bound")
    common(sp)
    sp.add_argument("--top", type=int, default=None)

    sp = sub.add_parser("compare", help="usual-method vs our-method inequality systems")
    common(sp)
    sp.add_argument("--name", default=None)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--l", type=int, default=None)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--s-prime", dest="s_prime", type=int, default=None)
    sp.add_argument("--T", dest="t_size", type=int, default=None)

    sub.add_parser("selftest", help="reproduce every shipped golden value")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()
        if args.command == "compare":
            inline_fields = (args.s, args.l, args.t, args.s_prime, args.t_size)
            inline = None
            if all(v is not None for v in inline_fields):
                if args.config or args.name is not None:
                    raise ConfigError("inline compare flags exclude --config and --name")
                inline = search_mod.MethodComparisonInput(
                    s=args.s, l=args.l, t=args.t, s_prime=args.s_prime, t_size=args.t_size
                )
            elif any(v is not None for v in inline_fields):
                raise ConfigError("inline compare needs all of --s --l --t --s-prime --T")
            doc = config.load_config(args.config) if args.config else None
            code, report = cmd_compare(doc, args.name, inline)
        else:
            if not args.config:
                raise ConfigError(f"{args.command} requires --config")
            for flag in ("dmax", "top"):
                value = getattr(args, flag, None)
                if value is not None and value < 1:
                    raise ConfigError(f"--{flag} must be >= 1, got {value}")
            top = getattr(args, "top", None)
            if top is not None and top > search_mod.MAX_TOP:
                raise ConfigError(f"--top must be <= {search_mod.MAX_TOP}, got {top}")
            doc = config.load_config(args.config)
            if args.command == "spectrum":
                code, report = cmd_spectrum(doc, args.name, args.dmax)
            elif args.command == "certify":
                code, report = cmd_certify(doc, args.name)
            else:
                code, report = cmd_optimize(doc, args.top)
    except InconsistentModel as exc:
        print(f"model inconsistency: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except EmptySpace as exc:
        print(f"empty search space: {exc}", file=sys.stderr)
        return EXIT_EMPTY_SEARCH
    except TowerboundError as exc:  # anything else of ours is an input problem
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(report.render(args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
