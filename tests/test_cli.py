"""CLI exit codes, report formats and the machine-block round trip."""

import re
import time
from importlib import resources

import pytest

from towerbound import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_curve_golden(capsys):
    code, out, _ = run(capsys, "spectrum", "--config", "f2_tower1", "--name", "E", "--dmax", "8")
    assert code == 0
    assert "5       0       0       5       4      10      20      25" in out
    assert "zeta pass" in out


def test_spectrum_p1(capsys):
    code, out, _ = run(capsys, "spectrum", "--config", "f2_tower1", "--name", "P1", "--dmax", "3")
    assert code == 0
    machine_code, machine_out, _ = run(
        capsys, "spectrum", "--config", "f2_tower1", "--name", "P1", "--dmax", "3", "--json"
    )
    block = cli.parse_machine_block(machine_out)
    assert (block["a.1"], block["a.2"], block["a.3"]) == ("3", "1", "2")


def test_spectrum_cover_json(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--config", "f3_tower", "--name", "k3", "--dmax", "9", "--json"
    )
    assert code == 0
    block = cli.parse_machine_block(out)
    assert [block[f"a.{d}"] for d in range(1, 10)] == [
        "567", "0", "0", "0", "1", "0", "0", "162", "1809",
    ]
    assert block["oracle.1.residual"] == "0"
    assert block["oracle.2.residual"] == "0"
    assert block["genus"] == "601"


def test_spectrum_unknown_name_exit_2(capsys):
    code, _, err = run(capsys, "spectrum", "--config", "f2_tower1", "--name", "nope")
    assert code == 2
    assert "no curve or cover" in err


def test_unknown_config_exit_2(capsys):
    code, _, err = run(capsys, "spectrum", "--config", "missing_config", "--name", "E")
    assert code == 2


def test_model_inconsistency_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[field]\np = 2\ne = 1\n\n[curve B]\nequation = y^2 + y = x^3 + x\n"
        "infinity = 1:1\ngenus = 0\n"
    )
    code, _, err = run(capsys, "spectrum", "--config", str(bad), "--name", "B", "--dmax", "4")
    assert code == 3
    assert "Weil" in err or "inconsisten" in err.lower()


def test_certify_golden_and_roundtrip(capsys):
    code, out, _ = run(capsys, "certify", "--config", "f2_tower1", "--name", "tower1", "--json")
    assert code == 0
    block = cli.parse_machine_block(out)
    assert block["gs_margin"] == "92"
    assert block["bound"] == "80/253"
    assert block["bound_refined"] == "16384/51711"
    assert block["infinite"] == "true"
    # round trip: re-parsed machine values reproduce the identical certificate
    cert = cli.replay_certificate(block)
    assert cert.gs_margin == 92
    assert cert.d_lower == int(block["d_lower"])
    assert cert.rd_upper == int(block["rd_upper"])
    assert cli.rational_str(cert.bound) == block["bound"]
    assert cli.rational_str(cert.bound_refined) == block["bound_refined"]
    assert cli.truncate_decimal(cert.bound_refined) == block["bound_refined.decimal"]


def _bundled_text(name):
    from importlib import resources

    return resources.files("towerbound.data").joinpath(name + ".cfg").read_text()


def test_certify_not_certified_exit_4(capsys, tmp_path):
    cfg = tmp_path / "weak.cfg"
    base = _bundled_text("f2_tower1")
    cfg.write_text(base + "\n[plan weak]\non = k1\nentries = 5:1:2\nt = 5\n")
    code, out, _ = run(capsys, "certify", "--config", str(cfg), "--name", "weak")
    assert code == 4
    assert "NOT certified" in out


def test_certify_infeasible_t_reports_and_exits_4(capsys, tmp_path):
    cfg = tmp_path / "over.cfg"
    base = _bundled_text("f2_tower1")
    cfg.write_text(base + "\n[plan over]\non = k1\nentries = 5:1:2 ; 8:27:2 ; 10:1:2\nt = 231\n")
    code, out, _ = run(capsys, "certify", "--config", str(cfg), "--name", "over", "--json")
    assert code == 4
    block = cli.parse_machine_block(out)
    assert block["feasible"] == "false"
    assert int(block["gs_margin"]) < 0
    assert block["infinite"] == "false"


def test_certify_unknown_plan_exit_2(capsys):
    code, _, _ = run(capsys, "certify", "--config", "f2_tower1", "--name", "ghost")
    assert code == 2


def test_optimize_golden(capsys):
    code, out, _ = run(capsys, "optimize", "--config", "f2_tower2", "--top", "2", "--json")
    assert code == 0
    block = cli.parse_machine_block(out)
    assert block["default.rank.0.bound_refined"] == "24576/77527"
    assert block["default.rank.0.bound_refined.decimal"].startswith("0.316999")


def test_optimize_empty_space_exit_5(capsys, tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(
        "[field]\np = 2\ne = 1\n\n"
        "[curve E]\nequation = y^2 + y = x^3 + x\ninfinity = 1:1\ngenus = 1\n\n"
        "[profile one]\ngroup_order = 1\nconductors = \n"
    )
    # a profile with an empty conductor list is invalid; build the degenerate
    # search differently: rank-0 cover over E via inline config
    cfg.write_text(
        "[field]\np = 2\ne = 1\n\n"
        "[curve E]\nequation = y^2 + y = x^3 + x\ninfinity = 1:1\ngenus = 1\n\n"
        "[profile two]\ngroup_order = 2\nconductors = 10:1\n\n"
        "[cover C]\nbase = E\na = (x^2 + x)*(x*y + x + y) + 1\nb_factor = x^2 + x\n"
        "h_basis = x\nprofile = two\n"
        "support = deg=5 nu=2 above=5:1 ; deg=4 nu=0 above=8:1\n"
        "infinity = idx=0 above=1:2\n\n"
        "[search]\non = C\ndegrees = 2..3\nnu = 2\n"
    )
    code, _, err = run(capsys, "optimize", "--config", str(cfg))
    assert code == 5
    assert "certif" in err


def test_compare_config_and_inline(capsys):
    code, out, _ = run(capsys, "compare", "--config", "remark_comparisons", "--json")
    assert code == 0
    block = cli.parse_machine_block(out)
    assert block["nx98_usual.usual.d_lower"] == "20"
    assert block["nx98_usual.usual.rd_upper"] == "80"
    assert block["nx98_ours.ours.d_lower"] == "21"
    assert block["nx98_ours.ours.rd_upper"] == "82"
    assert block["xy07_usual.usual.d_lower"] == "22"
    assert block["xy07_usual.usual.rd_upper"] == "96"
    assert block["xy07_ours.ours.d_lower"] == "22"
    assert block["xy07_ours.ours.rd_upper"] == "92"
    code, out, _ = run(
        capsys, "compare", "--s", "21", "--l", "2", "--t", "20", "--s-prime", "1", "--T", "81"
    )
    assert code == 0
    assert "d >= 20, r - d <= 80" in out


def test_compare_partial_inline_exit_2(capsys):
    code, _, _ = run(capsys, "compare", "--s", "21", "--l", "2")
    assert code == 2


def test_truncate_decimal_truncates_not_rounds():
    from fractions import Fraction

    assert cli.truncate_decimal(Fraction(2, 3), 6) == "0.666666"
    assert cli.truncate_decimal(Fraction(1, 1), 4) == "1.0000"
    assert cli.truncate_decimal(Fraction(-1, 8), 4) == "-0.1250"
    assert cli.truncate_decimal(Fraction(24576, 77527), 6) == "0.316999"


def test_jobs_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", "f2_tower1", "--name", "E", "--jobs", "4"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


_WEAK_PLAN = "\n[plan weak]\non = k1\nentries = {entries}\nt = {t}\n"


@pytest.mark.parametrize(
    "pattern, replacement, argv",
    [
        (r"^genus = 1$", "genus = -1", ("spectrum", "--name", "E")),
        (r"^infinity = 1:1$", "infinity = 0:1", ("spectrum", "--name", "E")),
        (r"^e = 1$", "e = 0", ("spectrum", "--name", "E")),
        (r"^e = 1$", "e = 2", ("spectrum", "--name", "E")),
        (r"^conductors = 10:1 ; 18:30$", "conductors = 10:1 ; 18:29", ("spectrum", "--name", "k1")),
        (r"\Z", _WEAK_PLAN.format(entries="5:1:1", t=5), ("certify", "--name", "weak")),
        (r"\Z", _WEAK_PLAN.format(entries="5:1:2", t=0), ("certify", "--name", "weak")),
        (r"^nu = 2$", "nu = 1", ("optimize",)),
        (r"^t = a1$", "t = 999", ("optimize",)),
        (r"deg=4 nu=2 above=8:1 ;", "deg=4 nu=2 above=8:1 rep=1:1 ;", ("spectrum", "--name", "k1")),
        (None, None, ("compare", "--s", "-1", "--l", "2", "--t", "20", "--s-prime", "1", "--T", "81")),
    ],
    ids=[
        "genus-negative", "infinity-degree-zero", "field-e-zero", "cover-over-e-2",
        "profile-count", "plan-nu-1", "plan-t-0", "search-nu-1", "search-t-above-a1",
        "support-rep-off-degree", "compare-s-negative",
    ],
)
def test_out_of_range_model_values_exit_2(capsys, tmp_path, pattern, replacement, argv):
    if pattern is None:
        code, out, err = run(capsys, *argv)
    else:
        text, hits = re.subn(pattern, replacement, _bundled_text("f2_tower1"), count=1, flags=re.M)
        assert hits == 1
        cfg = tmp_path / "out_of_range.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, argv[0], "--config", str(cfg), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_huge_exponent_rejected_quickly(capsys, tmp_path):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[field]\np = 2\n\n[curve X]\nequation = (x+1)^99999999 = y\ninfinity = 1:1\ngenus = 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--config", str(cfg), "--name", "X")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "exponent 99999999 exceeds the cap" in err


def test_nested_power_rejected_quickly(capsys, tmp_path):
    cfg = tmp_path / "nested.cfg"
    cfg.write_text("[field]\np = 2\n\n[curve X]\nequation = ((x+y+1)^64)^64 = y\ninfinity = 1:1\ngenus = 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--config", str(cfg), "--name", "X", "--dmax", "1")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert "exceeds the degree cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--config", "f2_tower1", "--name", "E", "--dmax", "25"),
        ("spectrum", "--config", "f2_tower1", "--name", "k1", "--dmax", "21"),
        ("certify", "--config", "FAR", "--name", "far"),
        ("optimize", "--config", "FAR"),
    ],
    ids=["curve-spectrum", "cover-spectrum", "certify", "optimize"],
)
def test_degree_beyond_field_cap_rejected_before_counting(capsys, tmp_path, argv):
    bundled = resources.files("towerbound.data").joinpath("f2_tower1.cfg").read_text()
    far = tmp_path / "far.cfg"
    far.write_text(
        bundled.replace("degrees = 5..10", "degrees = 5..22")
        + "\n[plan far]\non = k1\nentries = 25:1:2\nt = 160\n"
    )
    argv = [str(far) if a == "FAR" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert out == ""
    assert "exceeds the supported cap 20" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("optimize", "--config", "f2_tower1", "--top", "-1"),
        ("optimize", "--config", "f2_tower1", "--top", "0"),
        ("spectrum", "--config", "f2_tower1", "--name", "E", "--dmax", "0"),
        ("spectrum", "--config", "f2_tower1", "--name", "E", "--dmax", "-3"),
    ],
    ids=["top-negative", "top-zero", "dmax-zero", "dmax-negative"],
)
def test_flag_below_one_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be >= 1" in err


@pytest.mark.parametrize("key, value", [("top", "0"), ("cap", "-1")])
def test_search_section_out_of_range_exit_2(capsys, tmp_path, key, value):
    cfg = tmp_path / "bad_search.cfg"
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", _bundled_text("f2_tower1"), flags=re.M)
    cfg.write_text(text)
    code, _, err = run(capsys, "optimize", "--config", str(cfg))
    assert code == 2
    assert f"{key} >= " in err
