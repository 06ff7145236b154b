"""The polynomial grammar and the strict config document schema."""

import pytest

from towerbound import cft, config, search
from towerbound.errors import ConfigError, InconsistentModel, OutOfRange, located


def test_parse_poly_basics():
    assert config.parse_poly("x^3 + x", 2) == {(3, 0): 1, (1, 0): 1}
    assert config.parse_poly("y^2 + y", 2) == {(0, 2): 1, (0, 1): 1}
    assert config.parse_poly("2*x*y - y + 0", 3) == {(1, 1): 2, (0, 1): 2}
    assert config.parse_poly("x - x", 3) == {}
    assert config.parse_poly("3*x", 3) == {}  # coefficient vanishes mod 3
    assert config.parse_poly("-x", 3) == {(1, 0): 2}


def test_parse_poly_products_and_parens():
    got = config.parse_poly("(x^2 + x)*(x*y + x + y) + 1", 2)
    assert got == {(3, 1): 1, (3, 0): 1, (2, 0): 1, (1, 1): 1, (0, 0): 1}
    assert config.parse_poly("(x + 1)^2", 2) == {(2, 0): 1, (0, 0): 1}
    assert config.parse_poly("x**2 + x", 2) == {(2, 0): 1, (1, 0): 1}


def test_parse_equation():
    assert config.parse_equation("y^2 + y = x^3 + x", 2) == {
        (0, 2): 1, (0, 1): 1, (3, 0): 1, (1, 0): 1,
    }
    assert config.parse_equation("y^2 = x^3 - x + 1", 3) == {
        (0, 2): 1, (3, 0): 2, (1, 0): 1, (0, 0): 2,
    }


@pytest.mark.parametrize(
    "bad", ["x +", "(x", "x ^ y", "z + 1", "x 2", "^2", "y^2 + y"]
)
def test_parse_equation_rejects(bad):
    with pytest.raises(ConfigError):
        config.parse_equation(bad, 2)


def test_bundled_names():
    assert config.bundled_names() == [
        "f2_tower1", "f2_tower2", "f3_tower", "remark_comparisons",
    ]


def test_bundled_configs_resolve(doc1, doc2, doc3, doc4):
    assert set(doc1.curves) == {"P1", "E"}
    assert set(doc1.covers) == {"C", "k1"}
    assert doc1.plans["tower1"][1].t == 160
    assert set(doc2.covers) == {"k2"}
    assert set(doc3.plans) == {"deg8_only", "mixed"}
    assert len(doc4.compares) == 4
    assert doc1.searches["default"][1].degrees == (5, 6, 7, 8, 9, 10)
    assert doc3.searches["default"][1].degrees == (5, 6, 7, 8, 9)


def test_sections_parse_into_library_objects(doc1):
    on, plan = doc1.plans["tower1"]
    assert on == "k1"
    assert plan == cft.RamificationPlan(doc1.params, ((5, 1, 2), (8, 27, 2), (10, 1, 2)), 160)
    on, space = doc1.searches["default"]
    assert on == "k1"
    assert space == search.SearchSpace(
        degrees=(5, 6, 7, 8, 9, 10), allowed_nu=(2,), max_multiplicity=200, top_n=5
    )


_COVER_E = """
[curve E]
equation = y^2 + y = x^3 + x
infinity = 1:1
genus = 1

[profile C]
group_order = 2
conductors = 10:1

[cover C]
base = E
a = (x^2 + x)*(x*y + x + y) + 1
b_factor = x^2 + x
h_basis = x
profile = C
support = deg=5 nu=2 above=5:1 ; deg=4 nu=0 above=8:1
infinity = idx=0 above=1:2
"""


def test_search_keys_left_out_take_the_library_defaults():
    doc = config.parse_config(MINIMAL + _COVER_E + "\n[search]\non = C\ndegrees = 5, 7\n")
    assert doc.searches == {"default": ("C", search.SearchSpace(degrees=(5, 7)))}


@pytest.mark.parametrize(
    "section, message",
    [
        ("[plan P]\non = C\nentries = 5:1:2\nt = 0", "[plan P]: t must be positive"),
        ("[plan P]\non = C\nentries = 5:1:1\nt = 3", "[plan P]: conductor exponent nu = 1"),
        ("[search]\non = C\ndegrees = 5\ntop = 0", "[search default]: top: top_n must be in 1..2000"),
        ("[search S]\non = C\ndegrees = 5\ncap = -1", "[search S]: cap: max_multiplicity must be"),
        ("[search]\non = C\ndegrees = 5, 5", "[search default]: degrees: degrees repeat a value"),
        ("[search]\non = C\ndegrees = 5\nnu = 3, 3", "[search default]: nu: allowed_nu repeat a value"),
        ("[search]\non = C\ndegrees = 5\nt = 0", "[search default]: t: t_values must be >= 1"),
        ("[compare Q]\ns = -1\nl = 2\nt = 1\ns_prime = 0\nT = 1", "[compare Q]: s must be"),
    ],
    ids=["plan-t", "plan-nu", "search-top", "search-cap", "search-degrees", "search-nu", "search-t",
         "compare"],
)
def test_range_errors_name_their_section(section, message):
    with pytest.raises(OutOfRange) as err:
        config.parse_config(MINIMAL + _COVER_E + "\n" + section + "\n")
    assert str(err.value).startswith(f"<string>: {message}")


def test_located_keeps_the_class_and_prefixes_the_message():
    with pytest.raises(InconsistentModel) as err:
        with located("w"):
            raise InconsistentModel("counts contradict")
    assert type(err.value) is InconsistentModel
    assert str(err.value) == "w: counts contradict"


def test_unknown_config_name():
    with pytest.raises(ConfigError):
        config.load_config("no_such_config")


MINIMAL = """
[field]
p = 2
e = 1

[curve X]
equation = y = 0
infinity = 1:1
genus = 0
"""


def test_minimal_document():
    doc = config.parse_config(MINIMAL)
    assert doc.params.p == 2
    assert doc.curves["X"].genus == 0


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ("[curve X]\nbogus = 1", "unknown key"),
        ("[widget W]\nx = 1", "unknown section"),
        ("[curve X]\nequation = y = 0", "missing required"),
        ("stray line", "content before any section"),
        ("[plan P]\non = nowhere\nentries = 5:1:2\nt = 3", "unknown cover"),
    ],
)
def test_strict_schema_rejections(mutation, needle):
    if mutation.startswith("stray"):
        text = mutation + "\n" + MINIMAL
    elif needle in ("missing required", "unknown key"):  # the only [curve X]
        text = "[field]\np = 2\n\n" + mutation
    else:
        text = MINIMAL + "\n" + mutation
    with pytest.raises(ConfigError) as err:
        config.parse_config(text)
    assert needle in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        config.parse_config(MINIMAL + "\n[curve Y]\nequation = y = 0\nequation = y = x\ninfinity = 1:1\ngenus = 0")


def test_two_field_sections_rejected():
    with pytest.raises(ConfigError, match="exactly one"):
        config.parse_config(MINIMAL + "\n[field]\np = 3")


def test_comments_and_blank_lines():
    doc = config.parse_config("# leading comment\n\n[field]\np = 3  # inline\ne = 1\n")
    assert doc.params.q == 3


def test_support_records_round_trip(doc1):
    k1 = doc1.covers["k1"]
    assert {(d.degree, d.nu, d.above) for d in k1.support} == {
        (4, 2, ((8, 1),)),
        (5, 2, ((5, 1),)),
    }
    assert [i.above for i in k1.infinities] == [((1, 32),)]
    assert len(k1.components) == 5
