"""The polynomial grammar and the strict config document schema."""

import pytest

from towerbound import config
from towerbound.errors import ConfigError


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
    assert doc1.plans["tower1"].t == 160
    assert set(doc2.covers) == {"k2"}
    assert set(doc3.plans) == {"deg8_only", "mixed"}
    assert len(doc4.compares) == 4
    assert doc1.searches["default"].degrees == (5, 6, 7, 8, 9, 10)
    assert doc3.searches["default"].degrees == (5, 6, 7, 8, 9)


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
    elif "missing required" in needle:
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
