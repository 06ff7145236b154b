"""One sample: a fresh interpreter that sets up, runs one pass and checks it.

Run by run.py, one at a time:

    python3 perfbench/sample.py --root R --workdir W --workload NAME
        --seed N --position I --trace 0|1 --t-spawn T

`--t-spawn` is the parent's time.perf_counter() just before it started
this process (CLOCK_MONOTONIC, shared by all processes), so setup_s covers
interpreter start, importing towerbound and writing the seeded configs.
`--position` is the sample's position in its cycle; with the seed it fixes
the changes of coordinates (seeded.py).  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--position", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import towerbound

    if not os.path.realpath(towerbound.__file__).startswith(src + os.sep):
        print(f"towerbound imported from {towerbound.__file__}, not {src}", file=sys.stderr)
        return 2
    import goldens
    import passes
    import seeded
    from spans import Tracer

    made = seeded.write_seeded_configs(
        os.path.join(src, "towerbound", "data"), args.workdir, args.seed, args.position
    )
    paths = {name: info["path"] for name, info in made.items()}
    setup_s = time.perf_counter() - args.t_spawn

    tracer = Tracer()
    hooks = passes.traced(tracer) if args.trace else contextlib.nullcontext()
    with hooks:
        t0, c0 = time.perf_counter(), time.process_time()
        with tracer.span("pass"):
            outputs = passes.run_pass(args.workload, paths)
        pass_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0

    attempted, failed, failures = goldens.check(outputs, goldens.expected(args.workload))
    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "configs": {name: {k: info[k] for k in ("change", "sha256")} for name, info in made.items()},
    }
    if args.trace:
        probe, p_attempted, p_failed, p_failures = passes.ff_probe(args.seed, args.position)
        attempted, failed = attempted + p_attempted, failed + p_failed
        failures += p_failures
        result["layers"] = layer_metrics(tracer, pass_s) | probe
    result.update(attempted=attempted, failed=failed, failures=failures)
    print(json.dumps(result))
    return 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, pass_s: float) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    st = tracer.self_times()
    c = tracer.counters
    m = {
        "config.load_s": st.get("config.load_config", 0.0),
        "ff.build_s": st.get("ff.make_ext_field", 0.0),
        "ff.fields_built": c["ff.fields_built"],
        "curve.count_s": st.get("curve.count_points", 0.0),
        "curve.x_scanned": c["curve.x_scanned"],
        "curve.enumerate_s": st.get("curve.enumerate_places", 0.0),
        "curve.places": c["curve.places"],
        "cover.support_s": st.get("cover.support_map", 0.0),
        "cover.decompose_s": st.get("cover.decompose_place", 0.0),
        "cover.places_decomposed": c["cover.places_decomposed"],
        "cover.assemble_calls": c["cover.assemble_calls"],
        "cover.assemble_repeat_ratio": _ratio(c["cover.assemble_calls"], c["cover.assembled"]),
        "cover.oracle_s": st.get("cover.oracle_report", 0.0),
        "cover.oracle_points": c["cover.oracle_points"],
        "cft.certify_s": st.get("cft.certify_tower", 0.0),
        "cft.certificates": c["cft.certificates"],
        "search.optimize_s": st.get("search.optimize", 0.0),
        "search.candidates": c["search.candidates"],
        "search.certified": c["search.certified"],
    }
    m["curve.count_ns_per_x"] = _ratio(m["curve.count_s"] * 1e9, m["curve.x_scanned"])
    m["cover.decompose_us_per_place"] = _ratio(
        m["cover.decompose_s"] * 1e6, m["cover.places_decomposed"]
    )
    m["cover.oracle_ns_per_point"] = _ratio(m["cover.oracle_s"] * 1e9, m["cover.oracle_points"])
    m["search.certified_ratio"] = _ratio(m["search.certified"], m["search.candidates"])
    m["search.candidates_per_s"] = _ratio(m["search.candidates"], m["search.optimize_s"])
    m["unattributed_s"] = pass_s - sum(tracer.layer_times().values())
    return m


if __name__ == "__main__":
    sys.exit(main())
