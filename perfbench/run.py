"""towerbound benchmark: cold CLI passes on seeded configs, checked exactly.

    python3 perfbench/run.py --workload reproduce|search|fieldscan
                             --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/towerbound` and
`BENCHMARK.json`.  Each sample is a fresh interpreter (sample.py), run one
at a time, because a CLI user pays for imports and field construction on
every invocation.  Samples run in cycles: a cycle gives each of a fixed
number of positions its own seeded change of coordinates (seeded.py), and
a new cycle starts only while the last one's duration still fits in
--seconds (at least one cycle).  So a faster program runs more cycles of
the same inputs, never a different mix of inputs.  With --trace 1 each
position runs untraced, then traced: the traced samples give the
per-layer metrics and their ratio to the untraced ones the tracing
overhead.

Prints a summary with quartiles and sample counts, writes a result file
with provenance under .perfbench_out/results/, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}, the metrics being
those BENCHMARK.json names for the kind of run.  Exits 2 without a result
when the checkout has no towerbound source or a sample cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reproduce", "search", "fieldscan")
# positions per cycle of untraced samples: a cycle takes 30 to 45 s on 2 vCPUs
CYCLE = {"reproduce": 10, "search": 7, "fieldscan": 4}
RUN_LIMIT_S = 170  # every run ends well inside 180 s


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def run_sample(root: Path, workdir: Path, args, position: int, traced: int, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "sample.py"),
        "--root", str(root), "--workdir", str(workdir), "--workload", args.workload,
        "--seed", str(args.seed), "--position", str(position), "--trace", str(traced),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--t-spawn", repr(t_spawn)],
        capture_output=True, text=True, timeout=timeout, env=env, cwd=root,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["traced"] = traced
    record["position"] = position
    return record


def collect(root: Path, workdir: Path, args) -> list[dict]:
    """Whole cycles of samples while the last cycle's duration fits in --seconds."""
    positions = CYCLE[args.workload]
    if args.trace:
        positions = (positions + 1) // 2
    kinds = (0, 1) if args.trace else (0,)
    cycle = [(pos, kind) for pos in range(positions) for kind in kinds]
    start = time.perf_counter()
    records: list[dict] = []
    while True:
        cycle_start = time.perf_counter()
        for pos, kind in cycle:
            remaining = RUN_LIMIT_S - (time.perf_counter() - start)
            if remaining <= 0:
                raise RuntimeError(f"run limit of {RUN_LIMIT_S} s reached")
            records.append(run_sample(root, workdir, args, pos, kind, remaining))
        now = time.perf_counter()
        if now + (now - cycle_start) > start + args.seconds:
            return records


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(records: list[dict], names: list[str]) -> tuple[dict, dict]:
    """(the named metrics for the final line, {name: (q1, median, q3, n)} for the report)."""
    plain = [r for r in records if not r["traced"]]
    stats = {}
    for name in ("setup_s", "pass_s", "cpu_s", "peak_rss_mb"):
        values = [r[name] for r in plain]
        stats[name] = (*quartiles(values), len(values))
    exact = sum(r["failed"] == 0 for r in records) / len(records)
    stats["sample_pass_frac"] = (exact, exact, exact, len(records))
    traced = [r for r in records if r["traced"]]
    if traced:
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            stats[name] = (*quartiles(values), len(values))
        overhead = statistics.median(r["pass_s"] for r in traced) / stats["pass_s"][1] - 1
        stats["trace.overhead_frac"] = (overhead, overhead, overhead, len(records))
    return {name: stats[name][1] for name in names}, stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    src = root / "src" / "towerbound"
    if not (src / "__init__.py").is_file() or not list((src / "data").glob("*.cfg")):
        print(f"error: no towerbound source under {root / 'src'}", file=sys.stderr)
        return 2
    out = root / ".perfbench_out"
    workdir = out / f"work-{os.getpid()}"
    # SystemExit unwinds through subprocess.run, which kills and reaps the sample
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(root / "src"), str(HERE)],
            check=True, capture_output=True, timeout=60,
        )
        records = collect(root, workdir, args)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    values, stats = summarize(records, list(units))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "configs": [r["configs"] for r in records],
        "python": sys.version,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    results_dir = out / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    result_path.write_text(json.dumps(
        {"provenance": provenance, "summary": stats, "result": result, "samples": records},
        indent=1,
    ))

    print(f"workload {args.workload}, seed {args.seed}; changes (c, d, e) per sample:")
    for i, r in enumerate(records):
        print(f"  {i} position {r['position']} {'traced' if r['traced'] else 'plain '} "
              + ", ".join(f"{n} {tuple(c['change'])}" for n, c in r["configs"].items()))
    for name, (q1, med, q3, n) in stats.items():
        print(f"  {name:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {n}")
    for r in records:
        for failure in r["failures"]:
            print(f"  check failed: {failure}")
    print(f"  checks {attempted - failed}/{attempted} passed; result file {result_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
