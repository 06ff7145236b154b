"""Hostile configs through the CLI: every run keeps the exit-code contract.

Each example takes a bundled config, replaces the values of one or two of
its `key = value` lines with entries from a small alphabet of hostile and
ordinary values, and runs `spectrum --dmax <= 3`, `certify`, `compare` or
`optimize` in-process.
Whatever the edit, the run must end with an exit code in {0, 2, 3, 4, 5},
let no exception escape, and finish within a time bound.  The bound is an
interval timer armed around each example, so a run that never ends fails
its example instead of hanging the suite.
"""

import contextlib
import io
import re
import signal
from importlib import resources

from hypothesis import example, given, settings, strategies as st

from towerbound import cli

CONFIGS = ("f2_tower1", "f2_tower2", "f3_tower", "remark_comparisons")
TEXTS = {
    name: resources.files("towerbound.data").joinpath(name + ".cfg").read_text()
    for name in CONFIGS
}
KEY_LINE = re.compile(r"^(\w+) = (.*)$")
DEEP = "(" * 400 + "x" + ")" * 400

VALUES = (
    "", "0", "1", "2", "3", "-1", "5", "99999999", "a1", "x", "y", "x^64", "(x+1)^65",
    "x^2 + x", "0 = 0", "x^2 + x = 0",
    "y^2 + y = x^3 + x", "y^3 + y = x^4 + x + 1", "y^4 + x*y = x^3", f"{DEEP} = y", DEEP,
    "1:1", "0:0", "0:1", "1:32", "10:1 ; 18:30", "0:1:2", "21:1:2",
    "1..10", "5..13", "1, 5, 8, 10", "8 ; 8", "2, 2",
    "deg=0 nu=0 above=1:1", "idx=0 above=0:0", "deg=4 nu=0 above=8:1", "deg=5 nu=-1 above=5:1",
    "deg=5 nu=2 above=5:1 count=2", "deg=4 nu=2 above=8:1 rep=1:1",
    "deg=4 nu=2 above=8:1 rep=99999:3", "deg=4 nu=2 above=8:1 rep=-1:12",
)
SECONDS_PER_RUN = 5.0


def _time_out(signum, frame):
    raise TimeoutError(f"example ran past {SECONDS_PER_RUN} s")


def _edit(text: str, edits) -> str:
    """Replace the value of the (index mod #key lines)-th key line per edit."""
    lines = text.splitlines()
    keyed = [i for i, line in enumerate(lines) if KEY_LINE.match(line)]
    for index, value in edits:
        i = keyed[index % len(keyed)]
        lines[i] = f"{KEY_LINE.match(lines[i]).group(1)} = {value}"
    return "\n".join(lines) + "\n"


def _names(text: str, sections: str) -> list[str]:
    return re.findall(rf"^\[(?:{sections}) (\w+)\]$", text, flags=re.M) or ["none"]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    cfg_name=st.sampled_from(CONFIGS),
    edits=st.lists(st.tuples(st.integers(0, 63), st.sampled_from(VALUES)), max_size=2),
    command=st.sampled_from(("spectrum", "certify", "compare", "optimize")),
    name_index=st.integers(0, 7),
    dmax=st.integers(1, 3),
)
@example("f2_tower1", [], "spectrum", 3, 1)  # k1 at --dmax 1: the oracle needs degree 2
@example("f3_tower", [], "spectrum", 1, 1)  # k3 at --dmax 1
@example("f2_tower1", [(5, f"{DEEP} = y")], "spectrum", 1, 1)  # 400 nested parentheses in E
@example("f2_tower1", [(24, "deg=0 nu=0 above=1:1")], "spectrum", 3, 2)  # k1 support of degree 0
@example("f2_tower1", [(25, "idx=0 above=0:0")], "spectrum", 3, 2)  # no places above k1's infinity
@example("f2_tower1", [(30, "1..10")], "optimize", 0, 1)  # degree-1 places shared with T
@example("f2_tower1", [(30, "8 ; 8")], "optimize", 0, 1)  # a searched degree twice
@example("f2_tower1", [(31, "2, 2")], "optimize", 0, 1)  # a conductor exponent twice
@example("f2_tower1", [(33, "0")], "optimize", 0, 1)  # cap = 0: every degree has one option
@example("f2_tower1", [(24, "deg=4 nu=2 above=8:1 rep=99999:3")], "spectrum", 3, 1)  # unknown field
@example("f2_tower1", [(24, "deg=4 nu=2 above=8:1 rep=-1:12")], "spectrum", 3, 1)  # unknown, negative
@example("f2_tower1", [(27, "0:1:2")], "certify", 0, 1)  # a plan entry of degree 0
@example("f2_tower1", [(27, "21:1:2")], "certify", 0, 1)  # a plan degree past F_2^20
@example("f2_tower2", [(22, "99999999")], "optimize", 0, 1)  # top = 99999999: every plan ranked
def test_hostile_config_keeps_exit_contract(
    tmp_path_factory, cfg_name, edits, command, name_index, dmax
):
    text = _edit(TEXTS[cfg_name], edits)
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command in ("spectrum", "certify"):
        names = _names(text, "curve|cover" if command == "spectrum" else "plan")
        argv += ["--name", names[name_index % len(names)]]
    if command == "spectrum":
        argv += ["--dmax", str(dmax)]
    handler = signal.signal(signal.SIGALRM, _time_out)
    timer = signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_RUN)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)
    assert code in (0, 2, 3, 4, 5), (argv, edits)
