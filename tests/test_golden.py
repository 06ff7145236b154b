"""Golden transcripts: the stdout and exit code of every bundled command.

Each file under data/golden holds one run of `cli.main`, in process: a
first line `$ towerbound <argv> -> exit <code>`, then the run's stdout byte
for byte.  When a change is meant to alter an output, regenerate the files
from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/data/golden as part of the change.
"""

import contextlib
import io
from pathlib import Path

from towerbound import cli

GOLDEN = Path(__file__).parent / "data" / "golden"

SPECTRA = [
    ("f2_tower1", "E"), ("f2_tower2", "H"), ("f3_tower", "E3"), ("f2_tower1", "C"),
    ("f2_tower1", "k1"), ("f2_tower2", "k2"), ("f3_tower", "k3"),
]
PLANS = [("f2_tower1", "tower1"), ("f2_tower2", "tower2"), ("f3_tower", "mixed"),
         ("f3_tower", "deg8_only")]
SEARCHES = ["f2_tower1", "f2_tower2", "f3_tower"]


def _runs() -> dict[str, list[str]]:
    """Transcript name -> argv: each command at its default options, with and
    without --json, and selftest once."""
    runs = {"selftest": ["selftest"]}
    for suffix, flags in (("", []), ("_json", ["--json"])):
        for cfg, name in SPECTRA:
            runs[f"spectrum_{name}{suffix}"] = ["spectrum", "--config", cfg, "--name", name, *flags]
        for cfg, name in PLANS:
            runs[f"certify_{name}{suffix}"] = ["certify", "--config", cfg, "--name", name, *flags]
        for cfg in SEARCHES:
            runs[f"optimize_{cfg}{suffix}"] = ["optimize", "--config", cfg, *flags]
        runs[f"compare{suffix}"] = ["compare", "--config", "remark_comparisons", *flags]
    return runs


RUNS = _runs()


def transcript(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"$ towerbound {' '.join(argv)} -> exit {code}\n{out.getvalue()}"


def test_bundled_commands_match_their_golden_transcripts():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(RUNS)
    changed = [
        name for name, argv in RUNS.items()
        if transcript(argv) != (GOLDEN / f"{name}.txt").read_text()
    ]
    assert changed == [], "regenerate only if the output change is intended (module docstring)"


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS.items():
        (GOLDEN / f"{name}.txt").write_text(transcript(argv))
