"""CLI exit codes, report formats and the machine-block round trip."""

import re
import time
from importlib import resources
from pathlib import Path

import pytest

from towerbound import cft, cli, config, cover, search


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


@pytest.mark.parametrize("cfg_name, name, a1", [("f2_tower1", "k1", "160"), ("f3_tower", "k3", "567")])
def test_spectrum_cover_dmax_1(capsys, cfg_name, name, a1):
    # the oracle runs at n = 2, past the table's last degree
    code, out, _ = run(capsys, "spectrum", "--config", cfg_name, "--name", name, "--dmax", "1", "--json")
    assert code == 0
    block = cli.parse_machine_block(out)
    assert block["a.1"] == a1 and "a.2" not in block
    assert block["oracle.1.residual"] == block["oracle.2.residual"] == "0"


Y_CUBIC = "[field]\np = 2\n\n[curve Y]\nequation = y^3 + y = x^4 + x + 1\ninfinity = 1:1\ngenus = {}\n"


def test_zeta_check_runs_above_genus_two(capsys, tmp_path):
    cfg = tmp_path / "ycubic.cfg"
    argv = ("spectrum", "--config", str(cfg), "--name", "Y", "--dmax", "7", "--json")
    cfg.write_text(Y_CUBIC.format(3))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    block = cli.parse_machine_block(out)
    assert block["zeta.pass"] == "true"
    assert block["zeta.l_coeffs"] == "1,-2,0,4,0,-8,8"
    assert [block[f"zeta.predicted.{n}"] for n in (4, 5, 6)] == ["33", "41", "97"]
    cfg.write_text(Y_CUBIC.format(4))  # the true genus is 3
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert cli.parse_machine_block(out)["zeta.pass"] == "false"


def test_spectrum_unknown_name_exit_2(capsys):
    code, _, err = run(capsys, "spectrum", "--config", "f2_tower1", "--name", "nope")
    assert code == 2
    assert "no curve or cover" in err


def test_unknown_config_exit_2(capsys):
    code, _, err = run(capsys, "spectrum", "--config", "missing_config", "--name", "E")
    assert code == 2


@pytest.mark.parametrize(
    "kind, message",
    [
        ("directory", "cannot read config"),
        ("non-utf8", "is not UTF-8"),
        ("oversized", f"is longer than {config.MAX_CONFIG_BYTES} bytes"),
    ],
)
def test_unreadable_config_exit_2(capsys, tmp_path, kind, message):
    # a config that cannot be read as text is an input error: exit 2, one
    # line naming the file, no traceback
    path = tmp_path / "doc.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b"\xff\xfe[field]\np = 2\n")
    else:
        path.write_bytes(b"#" * (config.MAX_CONFIG_BYTES + 1))
    code, out, err = run(capsys, "spectrum", "--config", str(path), "--name", "E")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(path)) in err and message in err


def test_config_at_the_size_limit_is_read(capsys, tmp_path):
    text = resources.files("towerbound.data").joinpath("f2_tower1.cfg").read_bytes() + b"#"
    path = tmp_path / "padded.cfg"
    path.write_bytes(text.ljust(config.MAX_CONFIG_BYTES, b"#"))
    code, out, _ = run(capsys, "spectrum", "--config", str(path), "--name", "E", "--dmax", "2")
    assert code == 0 and out


def test_model_inconsistency_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[field]\np = 2\ne = 1\n\n[curve B]\nequation = y^2 + y = x^3 + x\n"
        "infinity = 1:1\ngenus = 0\n"
    )
    code, _, err = run(capsys, "spectrum", "--config", str(bad), "--name", "B", "--dmax", "4")
    assert code == 3
    assert "Weil" in err or "inconsisten" in err.lower()


def test_weil_violation_refused_at_the_first_count(capsys, tmp_path):
    # 0 = 0 declared genus 0 breaks the Weil bound at N_1 = 4 + 1; each N_n is
    # checked as it is counted, so F_2^2..F_2^20 are never scanned
    cfg = tmp_path / "plane.cfg"
    cfg.write_text("[field]\np = 2\ne = 1\n\n[curve Z]\nequation = 0 = 0\ninfinity = 1:1\ngenus = 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--config", str(cfg), "--name", "Z", "--dmax", "20")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "N_1 = 5 violates the Weil bound" in err


@pytest.mark.parametrize(
    "degree, code, message",
    [(20, 3, "exceed the Bezout bound 12"), (21, 2, "exceeds the supported field order")],
)
def test_declared_support_checked_before_enumerating(capsys, tmp_path, degree, code, message):
    # k1's A has degree 4 and E degree 3, so A has at most 12 zeros on E: places
    # of degrees 4 + 5 + 20 cannot all be among them, and no F_2^20 scan is
    # needed to find that out; a degree beyond the field cap is still refused first
    text = _bundled_text("f2_tower1").replace(
        "deg=5 nu=2 above=5:1\n", f"deg=5 nu=2 above=5:1 ; deg={degree} nu=2 above={degree}:1\n"
    )
    assert text.count(f"deg={degree} ") == 1  # k1's support line only
    cfg = tmp_path / "far_support.cfg"
    cfg.write_text(text)
    start = time.perf_counter()
    got, out, err = run(capsys, "spectrum", "--config", str(cfg), "--name", "k1", "--dmax", "1")
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert out == ""
    assert message in err


MUTANTS = Path(__file__).parent / "data" / "mutants"


@pytest.mark.parametrize(
    "argv", [("spectrum", "--name", "{cover}"), ("certify", "--name", "{plan}"), ("optimize",)]
)
@pytest.mark.parametrize(
    "mutant, code",
    [
        ("rep_override", 2),
        ("extra_degree4", 3),
        ("repeated_degree5", 3),
        ("conductors_18_31", 3),
        ("degree5_two_above", 3),
        ("degree5_nu9", 3),
        ("degree4_above_4", 3),
        ("unramified_nu3", 3),
    ],
)
def test_mutant_cover_data_prints_no_bound(capsys, mutant, code, argv):
    # each mutant is a bundled config with one wrong edit to its cover's data
    # (see the comment at its top); none may reach a spectrum or a bound
    cfg = str(MUTANTS / f"{mutant}.cfg")
    cover_name, plan = {"repeated_degree5": ("k2", "tower2")}.get(mutant, ("k1", "tower1"))
    argv = [a.format(cover=cover_name, plan=plan) for a in argv]
    got, out, err = run(capsys, argv[0], "--config", cfg, *argv[1:], "--json")
    assert got == code
    assert out == ""
    assert not [k for k in cli.parse_machine_block(out) if k.startswith(("a.", "bound"))]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("spectrum", "--name", "k1"), ("certify", "--name", "tower1")])
def test_odd_conductor_sum_exits_3_before_enumerating(capsys, tmp_path, monkeypatch, argv):
    # 2g - 2 = 32 (2 - 2) + 11 + 18 * 30 = 551 has no integral genus: the
    # declared profile contradicts the cover, found before any place is listed
    text = _bundled_text("f2_tower1").replace(
        "conductors = 10:1 ; 18:30", "conductors = 11:1 ; 18:30"
    )
    cfg = tmp_path / "odd.cfg"
    cfg.write_text(text)

    def refuse(model, d):
        raise AssertionError("places enumerated before the genus was checked")

    monkeypatch.setattr(cover, "enumerate_places", refuse)
    code, out, err = run(capsys, argv[0], "--config", str(cfg), *argv[1:])
    assert code == 3
    assert out == ""
    assert err.startswith("model inconsistency:")
    assert "2g - 2 = 551 is odd" in err


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


@pytest.mark.parametrize(
    "cfg_name, plan, reach",
    [("f2_tower1", "tower1", 10), ("f3_tower", "deg8_only", 8), ("f3_tower", "mixed", 9)],
)
def test_certify_assembles_to_the_plan_degrees(capsys, monkeypatch, cfg_name, plan, reach):
    reached = []
    assemble = cover.assemble_spectrum

    def recording(cov, d_max):
        reached.append(d_max)
        return assemble(cov, d_max)

    monkeypatch.setattr(cover, "assemble_spectrum", recording)
    code, _, _ = run(capsys, "certify", "--config", cfg_name, "--name", plan)
    assert code == 0
    assert reached == [reach]


@pytest.mark.parametrize("entries", ["0:1:2", "8:46:3 ; 0:1:2"])
def test_certify_bad_plan_entry_refused_before_assembly(capsys, tmp_path, monkeypatch, entries):
    def no_assembly(cov, d_max):
        raise AssertionError("assembled before the refusal")

    monkeypatch.setattr(cover, "assemble_spectrum", no_assembly)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_bundled_text("f3_tower") + f"\n[plan bad]\non = k3\nentries = {entries}\nt = 5\n")
    code, out, err = run(capsys, "certify", "--config", str(cfg), "--name", "bad")
    assert code == 2
    assert out == ""
    assert "bad plan entry (f=0, count=1, nu=2)" in err


@pytest.mark.parametrize(
    "cfg_name, header, repeat, argv",
    [
        ("f2_tower1", "[curve E]", "[curve E]", ("spectrum", "--name", "E")),
        ("f2_tower1", "[profile k1]", "[profile k1]", ("spectrum", "--name", "k1")),
        ("f2_tower1", "[cover k1]", "[cover k1]", ("spectrum", "--name", "k1")),
        ("f2_tower1", "[plan tower1]", "[plan tower1]", ("certify", "--name", "tower1")),
        ("f2_tower1", "[search]", "[search default]", ("optimize",)),  # unnamed is default
        ("remark_comparisons", "[compare nx98_ours]", "[compare nx98_ours]", ("compare",)),
    ],
    ids=["curve", "profile", "cover", "plan", "search", "compare"],
)
def test_repeated_section_exit_2(capsys, tmp_path, cfg_name, header, repeat, argv):
    # a second section of one kind and name used to replace the first
    # silently; it is refused at its header, before any key of it is read
    text = _bundled_text(cfg_name)
    first = text.splitlines().index(header) + 1
    second = len(text.splitlines()) + 2
    cfg = tmp_path / "repeated.cfg"
    cfg.write_text(text + "\n" + repeat + "\n")
    code, out, err = run(capsys, argv[0], "--config", str(cfg), *argv[1:])
    assert code == 2
    assert out == ""
    kind, _, name = repeat[1:-1].partition(" ")
    assert err == f"error: {cfg}:{second}: section [{kind} {name}] repeats the one at line {first}\n"


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


@pytest.mark.parametrize(
    "named", [("--config", "remark_comparisons"), ("--name", "nx98_usual")], ids=["config", "name"]
)
def test_compare_inline_with_a_named_form_exit_2(capsys, named):
    inline = ("--s", "21", "--l", "2", "--t", "20", "--s-prime", "1", "--T", "81")
    code, out, err = run(capsys, "compare", *named, *inline)
    assert code == 2
    assert out == ""
    assert err == "error: inline compare flags exclude --config and --name\n"


def test_compare_without_input_names_five_flags(capsys):
    code, out, err = run(capsys, "compare")
    assert code == 2
    assert out == ""
    assert "the five inline flags" in err


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
        # every plan is built when its config loads, as curves and covers are
        (r"\Z", _WEAK_PLAN.format(entries="5:1:1", t=5), ("spectrum", "--name", "E")),
        (r"^nu = 2$", "nu = 1", ("optimize",)),
        (r"^t = a1$", "t = 999", ("optimize",)),
        (r"^degrees = 5..10$", "degrees = 8 ; 8", ("optimize",)),
        (r"^degrees = 5..10$", "degrees = 9..5", ("optimize",)),
        (r"^degrees = 5..10$", "degrees = ,", ("optimize",)),
        (r"^nu = 2$", "nu = 2, 2", ("optimize",)),
        (r"deg=4 nu=2 above=8:1 ;", "deg=4 nu=2 above=8:1 rep=1:1 ;", ("spectrum", "--name", "k1")),
        (r"^support = deg=4 nu=2 above=8:1 ; deg=5 nu=2 above=5:1$", "support = deg=0 nu=0 above=1:1",
         ("spectrum", "--name", "k1")),
        (r"^infinity = idx=0 above=1:32$", "infinity = idx=0 above=0:0", ("spectrum", "--name", "k1")),
        (None, None, ("compare", "--s", "-1", "--l", "2", "--t", "20", "--s-prime", "1", "--T", "81")),
    ],
    ids=[
        "genus-negative", "infinity-degree-zero", "field-e-zero", "cover-over-e-2",
        "profile-count", "plan-nu-1", "plan-t-0", "plan-nu-1-spectrum", "search-nu-1",
        "search-t-above-a1",
        "search-degree-repeated", "search-degrees-empty-range", "search-degrees-empty-list",
        "search-nu-repeated",
        "support-rep-unknown-field", "support-degree-zero", "infinity-above-zero", "compare-s-negative",
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
    if replacement is not None and "rep=" in replacement:
        # support places come only from the zeros of A: no pinned representative
        assert "unknown support field" in err


@pytest.mark.parametrize("depth", [400, 5000])
def test_deep_parentheses_rejected_quickly(capsys, tmp_path, depth):
    cfg = tmp_path / "deep.cfg"
    equation = "(" * depth + "x" + ")" * depth
    cfg.write_text(f"[field]\np = 2\n\n[curve X]\nequation = {equation} = y\ninfinity = 1:1\ngenus = 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--config", str(cfg), "--name", "X", "--dmax", "1")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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
    text = bundled + "\n[plan far]\non = k1\nentries = 25:1:2\nt = 160\n"
    if argv[0] == "optimize":  # refused while the config loads; certify reaches its own check
        text = text.replace("degrees = 5..10", "degrees = 5..22")
    far.write_text(text)
    argv = [str(far) if a == "FAR" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert out == ""
    assert "exceeds the supported field order 1048576" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("optimize", "--top", "-1"), "--top: top_n must be in 1..2000, got -1"),
        (("optimize", "--top", "0"), "--top: top_n must be in 1..2000, got 0"),
        (("spectrum", "--name", "E", "--dmax", "0"), "--dmax must be >= 1, got 0"),
        (("spectrum", "--name", "E", "--dmax", "-3"), "--dmax must be >= 1, got -3"),
    ],
    ids=["top-negative", "top-zero", "dmax-zero", "dmax-negative"],
)
def test_flag_below_one_exit_2(capsys, argv, message):
    code, out, err = run(capsys, argv[0], "--config", "f2_tower1", *argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "line, edit, message",
    [
        ("top = 5", "top = 0", "[search default]: top: top_n must be in 1..2000, got 0"),
        ("cap = 200", "cap = -1", "[search default]: cap: max_multiplicity must be >= 0, got -1"),
        # a_1 is known only once the spectrum is assembled
        ("t = a1", "t = 999", "[search default]: split count t = 999 not available (a_1 = 160)"),
    ],
    ids=["top-0", "cap--1", "t-999"],
)
def test_search_section_out_of_range_exit_2(capsys, tmp_path, line, edit, message):
    cfg = tmp_path / "bad_search.cfg"
    text = _bundled_text("f2_tower1")
    assert text.count(f"\n{line}\n") == 1  # the [search] section's line
    cfg.write_text(text.replace(f"\n{line}\n", f"\n{edit}\n"))
    code, out, err = run(capsys, "optimize", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: {cfg}: {message}\n"


@pytest.mark.parametrize("where", ["flag", "section"])
def test_top_above_bound_exit_2_before_assembly(capsys, tmp_path, monkeypatch, where):
    """top has an upper bound: 99,999,999 on f2_tower2 would rank, re-certify and
    print all 42,602 certified plans.  It is refused before any spectrum is assembled."""
    def assemble(*args, **kwargs):
        raise AssertionError("assembled before the top check")

    monkeypatch.setattr(cover, "assemble_spectrum", assemble)
    if where == "flag":
        argv = ("optimize", "--config", "f2_tower2", "--top", str(search.MAX_TOP + 1))
    else:
        cfg = tmp_path / "big_top.cfg"
        text = re.sub(r"^top = .*$", "top = 99999999", _bundled_text("f2_tower2"), flags=re.M)
        cfg.write_text(text)
        argv = ("optimize", "--config", str(cfg))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    named = "--top" if where == "flag" else f"{cfg}: [search default]: top"
    assert err.startswith(f"error: {named}: top_n must be in 1..{search.MAX_TOP}, got ")


@pytest.mark.parametrize(
    "line, edit, argv, code, section",
    [
        ("infinity = idx=0 above=1:32", "infinity = idx=1 above=1:32", "compare", 3, "cover k1"),
        ("cap = 200", "cap = lots", "compare", 2, "search default"),
        ("p = 2", "p = 4", "compare", 2, "field"),
        ("degrees = 5..10", "degrees = 5..30", "compare", 2, "search default"),
        ("entries = 5:1:2 ; 8:27:2 ; 10:1:2", "entries = 5:1", "compare", 2, "plan tower1"),
        ("on = k1", "on = k9", "compare", 2, "plan tower1"),
        ("t = a1", "t = 999", "optimize", 2, "search default"),
        ("degrees = 5..10", "degrees = 2,3", "optimize", 5, "search default"),
        (None, "repeated_degree5", "optimize", 3, "cover k2"),
    ],
    ids=["cover-infinity", "search-cap", "field-p", "search-degrees", "plan-entries", "plan-on",
         "search-t", "search-empty", "cover-repeated-degree"],
)
def test_config_errors_name_file_and_section_once(capsys, tmp_path, line, edit, argv, code, section):
    if line is None:
        cfg = MUTANTS / f"{edit}.cfg"
    else:
        text = _bundled_text("f2_tower1")
        assert f"\n{line}\n" in text
        cfg = tmp_path / "edited.cfg"
        cfg.write_text(text.replace(f"\n{line}\n", f"\n{edit}\n", 1))
    got, out, err = run(capsys, argv, "--config", str(cfg))
    prefix = {2: "error: ", 3: "model inconsistency: ", 5: "empty search space: "}[code]
    assert got == code
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert err.startswith(f"{prefix}{cfg}: [{section}]: ")
    assert err.count(str(cfg)) == err.replace(str(cfg), "").count(section) == 1


_BIG_P = "[field]\np = {p}\n\n[curve X]\nequation = y^2 = x^3 + x + 1\ninfinity = 1:1\ngenus = 1\n"


@pytest.mark.parametrize(
    "cfg_text, argv",
    [
        (None, ("spectrum", "--config", "f3_tower", "--name", "E3", "--dmax", "13")),
        (None, ("spectrum", "--config", "f2_tower1", "--name", "E", "--dmax", "1000000000")),
        (_BIG_P.format(p=2**61 - 1), ("spectrum", "--config", "BIG", "--name", "X")),
        (_BIG_P.format(p=1048583), ("spectrum", "--config", "BIG", "--name", "X", "--dmax", "1")),
    ],
    ids=["f3-13", "dmax-huge", "p-mersenne-61", "p-above-2^20"],
)
def test_field_above_max_order_rejected_quickly(capsys, tmp_path, cfg_text, argv):
    if cfg_text is not None:
        big = tmp_path / "big.cfg"
        big.write_text(cfg_text)
        argv = [str(big) if a == "BIG" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds the supported field order 1048576" in err


_Y_CUBIC = """[field]
p = 2

[curve G]
equation = y^3 + y = x^4 + x + 1
infinity = 1:1
genus = 3

[profile kG]
group_order = 2
conductors = 2:1

[cover kG]
base = G
a = x + 1
b_factor = x
h_basis = 1
profile = kG
support = deg=1 nu=2 above=1:1
infinity = idx=0 above=1:2

[plan far]
on = kG
entries = 13:1:2
t = 1

[search]
on = kG
degrees = 5..13
"""


@pytest.mark.parametrize(
    "argv, want",
    [
        (("spectrum", "--name", "G", "--dmax", "13"), 0),
        (("spectrum", "--name", "kG", "--dmax", "13"), 3),
        (("certify", "--name", "far"), 3),
        (("optimize",), 3),
    ],
    ids=["curve-spectrum", "cover-spectrum", "certify", "optimize"],
)
def test_y_cubic_runs_past_the_old_scan_limit(capsys, tmp_path, argv, want):
    # over F_2^13 a brute root scan was refused (exit 2); the gcd path counts
    # there.  The toy cover kG is inconsistent: A = x + 1 has no zero of
    # degree 1 on G, so its declared support place is refused (exit 3).
    cfg = tmp_path / "cubic.cfg"
    cfg.write_text(_Y_CUBIC)
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], "--config", str(cfg), "--json", *argv[1:])
    assert time.perf_counter() - start < 3.0
    assert code == want
    if want:
        assert out == ""
        assert "declared 1 support place(s) of degree 1, found 0 zero(s)" in err
        return
    block = cli.parse_machine_block(out)
    assert [int(block[f"a.{d}"]) for d in range(1, 14)] == [
        1, 0, 4, 8, 8, 14, 16, 28, 52, 92, 192, 320, 640,
    ]
    assert block["zeta.pass"] == "true"


def test_root_scan_within_limit_runs(capsys, tmp_path):
    cfg = tmp_path / "cubic.cfg"
    cfg.write_text(_Y_CUBIC)
    code, out, _ = run(capsys, "spectrum", "--config", str(cfg), "--name", "G", "--dmax", "8")
    assert code == 0
    assert "N_n:      1       1      13      33      41      97     113     257" in out


def test_search_space_above_cap_rejected(capsys, tmp_path):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(_bundled_text("f2_tower1").replace("degrees = 5..10", "degrees = 5..13"))
    start = time.perf_counter()
    code, out, err = run(capsys, "optimize", "--config", str(cfg))
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert out == ""
    assert "search space of 209310948 candidates exceeds the cap 10000000" in err


def test_search_space_refused_before_its_spectrum_is_assembled(capsys, tmp_path):
    # the vectors over degrees 5..13 already exceed the cap, so k1 is not
    # assembled past base degree 13 (to degree 20 that took over 6 s)
    cfg = tmp_path / "wider.cfg"
    cfg.write_text(_bundled_text("f2_tower1").replace("degrees = 5..10", "degrees = 5..20"))
    start = time.perf_counter()
    code, out, err = run(capsys, "optimize", "--config", str(cfg))
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {cfg}: [search default]: search space of at least 209310948 candidates "
        "exceeds the cap 10000000\n"
    )


@pytest.mark.parametrize(
    "search", ["degrees = 1..10", "degrees = 1, 5, 8, 10\nt = 100"], ids=["t-a1", "t-100"]
)
def test_search_over_rational_places(capsys, tmp_path, search):
    # degree-1 places are also the candidates for T: plans that would use a
    # rational place twice are not counted as certified or ranked
    cfg = tmp_path / "rational.cfg"
    text = _bundled_text("f2_tower1").replace("degrees = 5..10", search)
    if "t = 100" in search:
        text = text.replace("t = a1\n", "")
    cfg.write_text(text)
    code, _, err = run(capsys, "optimize", "--config", str(cfg))
    assert code in (0, 5)
    assert "overlap" not in err


def test_search_with_no_degrees_is_empty(capsys, tmp_path):
    # an empty degree list is an input error (exit 2), not a search in which
    # nothing certifies (exit 5)
    cfg = tmp_path / "nodegrees.cfg"
    for degrees in ("10..5", ","):
        cfg.write_text(_bundled_text("f2_tower1").replace("degrees = 5..10", f"degrees = {degrees}"))
        code, out, err = run(capsys, "optimize", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"no degrees in {degrees!r}" in err


@pytest.mark.parametrize(
    "degrees, message",
    [
        ("0, -7, 5, 6, 7, 8, 9, 10", "degrees must be >= 1, got -7"),
        ("0..10", "degrees must be >= 1, got 0"),
        ("5..1000000000", "F_2^1000000000 exceeds the supported field order 1048576"),
    ],
    ids=["list-below-one", "range-from-zero", "range-huge"],
)
def test_search_degrees_checked_before_building(capsys, tmp_path, degrees, message):
    cfg = tmp_path / "degrees.cfg"
    cfg.write_text(_bundled_text("f2_tower1").replace("degrees = 5..10", f"degrees = {degrees}"))
    start = time.perf_counter()
    code, out, err = run(capsys, "optimize", "--config", str(cfg))
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_p_flag_rejected(capsys):
    argv = ["compare", "--s", "21", "--l", "2", "--t", "20", "--s-prime", "1", "--T", "81"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--p", "4"])
    assert exc.value.code == 2
    assert "--p" in capsys.readouterr().err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest: 43/43 checks passed" in out


def test_selftest_takes_no_json_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err


def test_selftest_failure_exits_3(capsys, monkeypatch):
    margin = cft.gs_margin
    monkeypatch.setattr(cft, "gs_margin", lambda d, rd: margin(d, rd) - 1)
    code, out, _ = run(capsys, "selftest")
    assert code == 3
    assert "  FAIL  tower1: margin: got 91, want 92" in out
