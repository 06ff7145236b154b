"""Tests of the benchmark's own parts: seeded inputs, goldens, checker, tracing, summary.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DATA = ROOT / "src" / "towerbound" / "data"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import goldens  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
import sample  # noqa: E402
import seeded  # noqa: E402
from spans import Tracer  # noqa: E402
from towerbound import cli  # noqa: E402


def _cli_block(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--json"])
    block = cli.parse_machine_block(buf.getvalue())
    block.pop("config", None)  # the config path differs between copies
    return code, block


# -- seeded inputs -------------------------------------------------------------


def test_seed_zero_copies_bundled_configs_verbatim(tmp_path):
    made = seeded.write_seeded_configs(str(DATA), str(tmp_path), 0, 3)
    for name, info in made.items():
        original = (DATA / f"{name}.cfg").read_bytes()
        assert info["change"] == [0, 0, 0]
        assert info["sha256"] == hashlib.sha256(original).hexdigest()
        assert Path(info["path"]).read_bytes() == original


def test_draws_are_seeded_and_in_the_prime_field():
    for seed in range(1, 30):
        for name, p in (("f2_tower1", 2), ("f3_tower", 3)):
            change = seeded.draw_change(seed, 2, name, p)
            assert change == seeded.draw_change(seed, 2, name, p)
            assert all(0 <= v < p for v in change)


def test_positions_of_a_cycle_take_distinct_changes():
    for name, p in (("f2_tower1", 2), ("f3_tower", 3)):
        draws = [seeded.draw_change(7, i, name, p) for i in range(p**3)]
        assert sorted(draws) == [(c, d, e) for c in range(p) for d in range(p) for e in range(p)]
        assert seeded.draw_change(7, p**3, name, p) == draws[0]
    assert [seeded.draw_change(7, i, "f3_tower", 3) for i in range(4)] != [
        seeded.draw_change(8, i, "f3_tower", 3) for i in range(4)
    ]


def test_substitution_rewrites_only_polynomial_keys():
    text = (DATA / "f2_tower1.cfg").read_text()
    new = seeded.transform_config(text, (1, 1, 0))
    assert "equation = (y+1*x+0)^2 + (y+1*x+0) = (x+1)^3 + (x+1)" in new
    assert "h_basis = 1 ; (x+1) ; (y+1*x+0) ; (x+1)^2 ; (x+1)^3" in new
    changed = [a for a, b in zip(text.splitlines(), new.splitlines()) if a != b]
    assert all(line.split("=", 1)[0].strip() in seeded.POLY_KEYS for line in changed)


@pytest.mark.parametrize(
    "cfg, commands, change",
    [
        ("f2_tower1", (["spectrum", "--name", "E", "--dmax", "6"],
                       ["spectrum", "--name", "k1", "--dmax", "6"]), (1, 1, 1)),
        ("f2_tower2", (["spectrum", "--name", "k2", "--dmax", "6"],), (1, 0, 1)),
        ("f3_tower", (["spectrum", "--name", "E3", "--dmax", "5"],
                      ["spectrum", "--name", "k3", "--dmax", "5"]), (2, 1, 2)),
        ("f3_tower", (["spectrum", "--name", "k3", "--dmax", "5"],), (1, 2, 0)),
    ],
)
def test_change_of_coordinates_reproduces_machine_blocks(tmp_path, cfg, commands, change):
    path = tmp_path / f"{cfg}.cfg"
    path.write_text(seeded.transform_config((DATA / f"{cfg}.cfg").read_text(), change))
    for argv in commands:
        want = _cli_block(argv[:1] + ["--config", cfg] + argv[1:])
        got = _cli_block(argv[:1] + ["--config", str(path)] + argv[1:])
        assert want[0] == 0
        assert got == want


# -- goldens and the checker ---------------------------------------------------


def test_lpolynomial_predictions_match_known_counts():
    assert goldens.curve_counts("E", 17)[17] == 131585
    assert goldens.curve_counts("H", 16)[16] == 65314
    assert goldens.curve_counts("E3", 10)[10] == 58807
    a_E = goldens.counts_to_places(goldens.curve_counts("E", 8))
    assert tuple(a_E.values()) == (5, 0, 0, 5, 4, 10, 20, 25)
    a_H = goldens.counts_to_places(goldens.curve_counts("H", 5))
    assert tuple(a_H.values()) == (6, 0, 1, 1, 6)
    a_E3 = goldens.counts_to_places(goldens.curve_counts("E3", 5))
    assert tuple(a_E3.values()) == (7, 0, 7, 21, 42)


def _perfect_outputs(workload):
    return [(lab, 0, dict(block)) for lab, block in goldens.expected(workload).items()]


@pytest.mark.parametrize("workload", sorted(goldens.WORKLOADS))
def test_checker_passes_perfect_outputs(workload):
    attempted, failed, failures = goldens.check(
        _perfect_outputs(workload), goldens.expected(workload)
    )
    assert attempted > 0 and failed == 0 and failures == []


def test_flipped_bound_numerator_counts_as_failure():
    outputs = _perfect_outputs("reproduce")
    for lab, _, block in outputs:
        if lab == "certify f2_tower1 tower1":
            assert block["bound_refined"] == "16384/51711"
            block["bound_refined"] = "16385/51711"
    attempted, failed, failures = goldens.check(outputs, goldens.expected("reproduce"))
    assert failed == 1
    assert "bound_refined" in failures[0]


def test_perturbed_golden_counts_as_failure():
    want = goldens.expected("search")
    outputs = _perfect_outputs("search")
    want["optimize f3_tower"]["default.certified"] = "63577"
    assert goldens.check(outputs, want)[1] == 1


def test_bad_exit_code_and_missing_output_count_as_failures():
    want = goldens.expected("fieldscan")
    outputs = _perfect_outputs("fieldscan")
    lab, _, block = outputs[0]
    outputs[0] = (lab, 3, block)
    dropped = outputs.pop()
    attempted, failed, _ = goldens.check(outputs, want)
    assert failed == 1 + 1 + len(want[dropped[0]])


# -- traced pass and spans -----------------------------------------------------

SMALL = (  # every command kind, on the fastest covers
    ("spectrum", "f2_tower1", "E", 6),
    ("spectrum", "f2_tower1", "k1", None),
    ("certify", "f2_tower1", "tower1"),
    ("compare", "remark_comparisons"),
    ("optimize", "f2_tower1"),
    ("oracle", "f2_tower1", "k1", 3),
)


def test_traced_pass_runs_the_cli_and_matches_untraced(monkeypatch):
    monkeypatch.setitem(goldens.WORKLOADS, "small", SMALL)
    paths = {name: str(DATA / f"{name}.cfg") for name in seeded.CONFIG_NAMES}
    originals = (cli.config.load_config, passes.cover.assemble_spectrum,
                 passes.cover.CoverSpec.support_map, passes.curve.make_ext_field)
    plain = passes.run_pass("small", paths)
    tracer = Tracer()
    with passes.traced(tracer):
        traced = passes.run_pass("small", paths)
    assert traced == plain
    assert all(code == 0 for _, code, _ in plain)
    assert (cli.config.load_config, passes.cover.assemble_spectrum,
            passes.cover.CoverSpec.support_map, passes.curve.make_ext_field) == originals
    c = tracer.counters
    assert c["cover.assemble_calls"] == 3 and c["cover.assembled"] == 1  # k1 at d_max 10
    assert c["search.candidates"] == 6468 and c["search.certified"] == 5747
    assert c["cover.oracle_points"] == sum(goldens.affine_points("E", n) for n in (1, 2, 1, 2, 3))
    assert c["curve.x_scanned"] == sum(2**n for n in range(1, 7))
    assert c["cover.places_decomposed"] > 0 and c["curve.places"] > 0
    assert c["cft.certificates"] >= 1 and c["ff.fields_built"] >= 10
    names = {name for name, _, _, _ in tracer.spans}
    assert {"config.load_config", "cover.assemble_spectrum", "cover.decompose_place",
            "curve.enumerate_places", "cover.support_map", "cover.oracle_report",
            "cft.certify_tower", "search.optimize", "curve.count_points"} <= names
    assert all(end is not None for _, _, end, _ in tracer.spans)


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.spans = [
        ["pass", 0.0, 10.0, None],
        ["cover.decompose_place", 1.0, 4.0, 0],
        ["ff.make_ext_field", 2.0, 3.0, 1],
        ["curve.count_points", 5.0, 9.0, 0],
    ]
    st = tr.self_times()
    assert st == {"pass": 3.0, "cover.decompose_place": 2.0, "ff.make_ext_field": 1.0,
                  "curve.count_points": 4.0}
    assert tr.layer_times()["cover"] == 2.0


def test_probe_checks_its_own_results():
    metrics, attempted, failed, failures = passes.ff_probe(seed=5, position=0)
    assert failed == 0 and attempted > 0 and failures == []
    assert all(v > 0 for v in metrics.values())
    assert {"ff.sqrt_ns.f3_11", "ff.inv_ns.f2_16", "ff.trace_ns.f3_10"} <= set(metrics)


# -- the runner ------------------------------------------------------------------


def _record(traced, failed, pass_s=1.0):
    r = {"traced": traced, "failed": failed, "setup_s": 0.1, "pass_s": pass_s,
         "cpu_s": pass_s, "peak_rss_mb": 50.0}
    if traced:
        r["layers"] = {"cover.assemble_calls": 7.0}
    return r


def test_one_bad_sample_moves_the_exactness_metric():
    records = [_record(0, 0), _record(0, 3), _record(0, 0), _record(0, 0)]
    values, _ = run.summarize(records, ["sample_pass_frac", "pass_s"])
    assert values == {"sample_pass_frac": 0.75, "pass_s": 1.0}
    every_sample_bad = [_record(0, 1) for _ in range(4)]
    assert run.summarize(every_sample_bad, ["sample_pass_frac"])[0]["sample_pass_frac"] == 0


def test_traced_summary_gives_layers_and_overhead():
    records = [_record(0, 0, 2.0), _record(1, 0, 2.2), _record(0, 0, 2.0), _record(1, 0, 2.2)]
    values, _ = run.summarize(records, ["cover.assemble_calls", "trace.overhead_frac"])
    assert values["cover.assemble_calls"] == 7.0
    assert values["trace.overhead_frac"] == pytest.approx(0.1)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.CYCLE) == set(run.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    tracer = Tracer()
    layers = sample.layer_metrics(tracer, 1.0) | passes.ff_probe(seed=1, position=0)[0]
    assert set(layers) | {"trace.overhead_frac"} == per_layer
    records = [_record(0, 0), _record(1, 0)]
    records[1]["layers"] = layers
    names = [m["name"] for m in spec["end_to_end"]] + sorted(per_layer)
    assert set(run.summarize(records, names)[0]) == set(names)


def test_runner_refuses_a_directory_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
