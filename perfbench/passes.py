"""One pass of a workload, and the hooks that trace it.

A pass is what a user runs: each command goes through
`cli.main([..., "--json"])` with stdout captured.  The `oracle` commands
of `fieldscan` have no CLI form; they call `cover.oracle_report` on
spectra built from the golden a_d.

`traced(tracer)` swaps the package's public functions for wrappers that
open a span around each call and count its work.  Each wrapper is set at
the module global through which the program looks the function up, so a
traced pass runs the program's own code, call for call, and its outputs
pass the same checks as an untraced one.

Import this module only after `towerbound` is importable from the
checkout's `src` directory.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import time

from towerbound import cft, cli, config, cover, curve, ff, search
from towerbound.errors import TowerboundError

import goldens


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


def _cli_argv(command: tuple, paths: dict[str, str]) -> list[str]:
    kind, cfg = command[0], paths[command[1]]
    argv = [kind, "--config", cfg, "--json"]
    if kind in ("spectrum", "certify"):
        argv += ["--name", command[2]]
    if kind == "spectrum" and command[3] is not None:
        argv += ["--dmax", str(command[3])]
    return argv


def _oracle(command: tuple, paths: dict[str, str]) -> tuple[int, dict[str, str]]:
    """cover.oracle_report at n = 1..n_max on the golden spectrum of a cover."""
    _, cfg, cover_name, n_max = command
    _, _, genus, a_tuple = goldens.COVERS[cover_name]
    block: dict[str, str] = {}
    try:
        cov = config.load_config(paths[cfg]).covers[cover_name]
        spec = curve.PlaceSpectrum.from_spectrum(cov.params, dict(enumerate(a_tuple, 1)), genus)
        for n in range(1, n_max + 1):
            block[f"oracle.{n}.residual"] = str(cover.oracle_report(cov, spec, n).residual)
    except TowerboundError as exc:
        block["error"] = str(exc)
        return 1, block
    return (3 if any(v != "0" for v in block.values()) else 0), block


def run_pass(workload: str, paths: dict[str, str]) -> list:
    """[(label, exit code, machine block)] for every command of the workload."""
    outputs = []
    for command in goldens.WORKLOADS[workload]:
        if command[0] == "oracle":
            code, block = _oracle(command, paths)
        else:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(_cli_argv(command, paths))
            block = cli.parse_machine_block(buf.getvalue())
        outputs.append((goldens.label(command), code, block))
    return outputs


# ---------------------------------------------------------------------------
# tracing hooks
# ---------------------------------------------------------------------------


def _spanned(tracer, name: str, fn, after=None):
    """fn inside a span; after(result, *args, **kwargs) records its counters,
    so its parameters carry fn's names."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out, *args, **kwargs)
        return out

    return wrapper


@contextlib.contextmanager
def traced(tracer):
    """Trace every call the program makes into the measured functions.

    Counters on `tracer`: ff.fields_built, curve.x_scanned, curve.places,
    cover.places_decomposed, cover.assemble_calls, cover.assembled
    (distinct (cover, d_max)), cover.oracle_points, cft.certificates,
    search.candidates, search.certified.
    """
    add = tracer.add
    requested: set = set()
    assembled: set = set()
    make_ext_field = ff.make_ext_field

    def field(params, n):
        # make_ext_field caches per process: only a first request builds
        key = (params.p, params.e, n)
        if key in requested:
            return make_ext_field(params, n)
        requested.add(key)
        add("ff.fields_built")
        with tracer.span("ff.make_ext_field"):
            return make_ext_field(params, n)

    def on_assemble(spec, cover, d_max):
        assembled.add((cover.name, d_max))
        add("cover.assemble_calls")
        tracer.counters["cover.assembled"] = len(assembled)

    def on_optimize(result, space):
        add("search.candidates", result.candidates_evaluated)
        add("search.certified", result.certified_count)

    enumerate_places = _spanned(
        tracer, "curve.enumerate_places", curve.enumerate_places,
        lambda places, model, d: add("curve.places", len(places)),
    )
    hooks = [
        (config, "load_config", _spanned(tracer, "config.load_config", config.load_config)),
        (curve, "make_ext_field", field),
        (cover, "make_ext_field", field),
        (curve, "count_points", _spanned(
            tracer, "curve.count_points", curve.count_points,
            lambda value, model, n: add("curve.x_scanned", model.params.q**n),
        )),
        (curve, "enumerate_places", enumerate_places),
        (cover, "enumerate_places", enumerate_places),
        (cover.CoverSpec, "support_map", _spanned(
            tracer, "cover.support_map", cover.CoverSpec.support_map,
        )),
        (cover, "decompose_place", _spanned(
            tracer, "cover.decompose_place", cover.decompose_place,
            lambda rec, cover, place: add("cover.places_decomposed"),
        )),
        (cover, "assemble_spectrum", _spanned(
            tracer, "cover.assemble_spectrum", cover.assemble_spectrum, on_assemble,
        )),
        (cover, "oracle_report", _spanned(
            tracer, "cover.oracle_report", cover.oracle_report,
            lambda rep, cover, spectrum, n: add(
                "cover.oracle_points", goldens.affine_points(cover.base.name, n)
            ),
        )),
        (cft, "certify_tower", _spanned(
            tracer, "cft.certify_tower", cft.certify_tower,
            lambda cert, genus, plan: add("cft.certificates"),
        )),
        (search, "optimize", _spanned(tracer, "search.optimize", search.optimize, on_optimize)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in hooks]
    try:
        for owner, attr, wrapper in hooks:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# seeded element-operation probe
# ---------------------------------------------------------------------------

PROBE_FIELDS = (  # label, p, n, elements drawn (fewer where operations are untabled)
    ("f2_16", 2, 16, 20000),
    ("f2_17", 2, 17, 1000),
    ("f3_10", 3, 10, 20000),
    ("f3_11", 3, 11, 200),
)


def ff_probe(seed: int, position: int) -> tuple[dict[str, float], int, int, list[str]]:
    """ns per mul/add/inv/trace (and sqrt_list in odd characteristic) on
    seeded nonzero elements, then a check of every result."""
    metrics: dict[str, float] = {}
    attempted = failed = 0
    failures: list[str] = []
    for lab, p, n, count in PROBE_FIELDS:
        F = ff.make_ext_field(ff.FieldParams(p), n)
        rng = random.Random(f"towerbound-perfbench-probe:{seed}:{position}:{lab}")
        xs = [rng.randrange(1, F.order) for _ in range(count)]
        ys = [rng.randrange(1, F.order) for _ in range(count)]
        ops = {
            "mul": lambda: [F.mul(a, b) for a, b in zip(xs, ys)],
            "add": lambda: [F.add(a, b) for a, b in zip(xs, ys)],
            "inv": lambda: [F.inv(a) for a in xs],
            "trace": lambda: [F.trace(a) for a in xs],
        }
        if p != 2:
            ops["sqrt"] = lambda: [F.sqrt_list(a) for a in xs]
        results = {}
        for op, fn in ops.items():
            t0 = time.perf_counter()
            results[op] = fn()
            metrics[f"ff.{op}_ns.{lab}"] = (time.perf_counter() - t0) / count * 1e9
        checks = [F.mul(a, inv) == 1 for a, inv in zip(xs, results["inv"])]
        checks += [0 <= t < p for t in results["trace"]]
        for a, roots in zip(xs, results.get("sqrt", ())):
            checks += [F.mul(r, r) == a for r in roots]
        bad = checks.count(False)
        attempted += len(checks)
        failed += bad
        if bad:
            failures.append(f"ff probe {lab}: {bad} of {len(checks)} element checks failed")
    return metrics, attempted, failed, failures
