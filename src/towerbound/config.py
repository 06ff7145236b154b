"""Line-oriented configuration documents for curves, covers, profiles and plans.

The format is strict: sections `[kind name]` hold `key = value` lines,
unknown sections or keys are rejected, and all cross-references must
resolve.  Polynomials are written in the usual expression syntax over the
variables x and y with integer coefficients (reduced mod p), e.g.

    equation = y^2 + y = x^3 + x
    a = (x^2 + x)*(x*y + x + y) + 1

Record-valued keys use ';' between records, whitespace-separated k=v
fields inside a record, and ','/':' inside small tuples:

    support = deg=4 nu=2 above=8:1 ; deg=5 nu=2 above=5:1
    char_conductors = 10:1 ; 18:30
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from . import cft, cover as cover_mod, curve as curve_mod, search as search_mod
from .errors import ConfigError
from .ff import FieldParams, require_supported_degree

# ---------------------------------------------------------------------------
# polynomial expression grammar over x, y
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[xy]|\*\*|[()^*+-])")
MAX_EXPONENT = 64  # each power is that many multiplications; the shipped configs need ^5
MAX_DEGREE = 64  # total degree of any product; bounds the terms a multiplication works through


def _tokenize(text: str) -> list[str]:
    text = text.strip()
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ConfigError(f"bad character in polynomial at ...{text[pos:pos + 12]!r}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


class _PolyParser:
    """Recursive descent over +, -, *, ^ and parentheses; values are
    dictionaries (x exponent, y exponent) -> integer coefficient."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> dict:
        poly = self.expr()
        if self.peek() is not None:
            raise ConfigError(f"trailing tokens in polynomial: {self.tokens[self.pos:]}")
        return poly

    def expr(self) -> dict:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        acc = _scale(self.term(), sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            acc = _add(acc, _scale(self.term(), -1 if op == "-" else 1))
        return acc

    def term(self) -> dict:
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            acc = _mul(acc, self.factor())
        return acc

    def factor(self) -> dict:
        base = self.base()
        if self.peek() == "^":
            self.take()
            exp = self.take()
            if exp is None or not exp.isdigit():
                raise ConfigError("exponent must be a nonnegative integer")
            e = _parse_int(exp, "exponent")
            if e > MAX_EXPONENT:
                raise ConfigError(f"exponent {e} exceeds the cap {MAX_EXPONENT}")
            return _power(base, e)
        return base

    def base(self) -> dict:
        tok = self.take()
        if tok is None:
            raise ConfigError("unexpected end of polynomial")
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ConfigError("unbalanced parentheses in polynomial")
            return inner
        if tok.isdigit():
            value = _parse_int(tok, "coefficient")
            return {(0, 0): value} if value else {}
        if tok == "x":
            return {(1, 0): 1}
        if tok == "y":
            return {(0, 1): 1}
        raise ConfigError(f"unexpected token {tok!r} in polynomial")


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _scale(a: dict, s: int) -> dict:
    return {k: v * s for k, v in a.items()} if s != 1 else a


def _mul(a: dict, b: dict) -> dict:
    da, db = curve_mod.total_degree(a), curve_mod.total_degree(b)
    if da + db > MAX_DEGREE:
        raise ConfigError(
            f"a product of degree {da} and degree {db} polynomials "
            f"exceeds the degree cap {MAX_DEGREE}"
        )
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _power(a: dict, e: int) -> dict:
    out = {(0, 0): 1}
    for _ in range(e):
        out = _mul(out, a)
    return out


def _parse_expr(text: str) -> dict:
    try:
        return _PolyParser(_tokenize(text)).parse()
    except RecursionError:  # each nesting level is a few frames of the descent
        raise ConfigError("parentheses in polynomial nest too deeply") from None


def parse_poly(text: str, p: int) -> dict:
    """Polynomial in x, y with coefficients reduced mod p."""
    return curve_mod.normalize_poly2(_parse_expr(text), p)


def parse_equation(text: str, p: int) -> dict:
    """`lhs = rhs` becomes the vanishing polynomial lhs - rhs mod p."""
    if "=" not in text:
        raise ConfigError(f"equation needs '=': {text!r}")
    lhs, rhs = text.split("=", 1)
    diff = _add(_parse_expr(lhs), _scale(_parse_expr(rhs), -1))
    return curve_mod.normalize_poly2(diff, p)


# ---------------------------------------------------------------------------
# small record values
# ---------------------------------------------------------------------------


def _parse_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _parse_pairs(value: str, what: str) -> tuple[tuple[int, int], ...]:
    """`10:1 ; 18:30` or `10:1, 18:30` -> ((10, 1), (18, 30))."""
    out = []
    for part in re.split(r"[;,]", value):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 2:
            raise ConfigError(f"{what} entries must be deg:count, got {part!r}")
        out.append((_parse_int(bits[0], what), _parse_int(bits[1], what)))
    if not out:
        raise ConfigError(f"{what} must be nonempty")
    return tuple(out)


def _parse_records(value: str) -> list[dict[str, str]]:
    records = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        rec = {}
        for token in part.split():
            if "=" not in token:
                raise ConfigError(f"record field must be key=value, got {token!r}")
            k, v = token.split("=", 1)
            if k in rec:
                raise ConfigError(f"duplicate field {k!r} in record {part!r}")
            rec[k] = v
        records.append(rec)
    return records


def _parse_entries(value: str) -> tuple[tuple[int, int, int], ...]:
    """`5:1:2 ; 8:27:2` -> ((5, 1, 2), (8, 27, 2)) as (degree, count, nu)."""
    out = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 3:
            raise ConfigError(f"plan entries must be deg:count:nu, got {part!r}")
        out.append(tuple(_parse_int(b, "plan entry") for b in bits))
    if not out:
        raise ConfigError("plan needs at least one entry")
    return tuple(out)


def _parse_degrees(value: str, params: FieldParams, where: str) -> tuple[int, ...]:
    """`lo..hi` or a list; the ends are checked before a range is built."""
    value = value.strip()
    if ".." in value:
        lo, hi = (_parse_int(v, "degree") for v in value.split("..", 1))
        degrees, ends = range(lo, hi + 1), (lo, hi)
    else:
        degrees = ends = [_parse_int(v, "degree") for v in re.split(r"[;,]", value) if v.strip()]
    if not degrees:
        raise ConfigError(f"{where}: no degrees in {value!r}")
    if min(ends) < 1:
        raise ConfigError(f"{where}: degrees must be >= 1, got {min(ends)}")
    require_supported_degree(params, max(ends))
    return _distinct(degrees, "degrees", where)


def _distinct(values, what: str, where: str) -> tuple[int, ...]:
    """The values as a tuple; a repeat would rank one plan under several spellings."""
    values = tuple(values)
    if len(set(values)) < len(values):
        raise ConfigError(f"{where}: {what} repeat a value: {list(values)}")
    return values


# ---------------------------------------------------------------------------
# the document
# ---------------------------------------------------------------------------


@dataclass
class PlanConfig:
    name: str
    on: str  # cover name
    entries: tuple[tuple[int, int, int], ...]
    t: int


@dataclass
class SearchConfig:
    on: str
    degrees: tuple[int, ...]
    nus: tuple[int, ...]
    t: str  # "a1" or an integer literal
    cap: int
    top: int


@dataclass
class ConfigDocument:
    params: FieldParams
    curves: dict[str, curve_mod.CurveModel] = field(default_factory=dict)
    covers: dict[str, cover_mod.CoverSpec] = field(default_factory=dict)
    profiles: dict[str, cft.CharacterConductorProfile] = field(default_factory=dict)
    plans: dict[str, PlanConfig] = field(default_factory=dict)
    searches: dict[str, SearchConfig] = field(default_factory=dict)
    compares: dict[str, search_mod.MethodComparisonInput] = field(default_factory=dict)
    source: str = "<string>"


_SECTION_KEYS = {
    "field": {"p", "e"},
    "curve": {"equation", "infinity", "genus"},
    "cover": {"base", "a", "b_factor", "h_basis", "profile", "support", "infinity"},
    "profile": {"group_order", "conductors"},
    "plan": {"on", "entries", "t"},
    "search": {"on", "degrees", "nu", "t", "cap", "top"},
    "compare": {"s", "l", "t", "s_prime", "T"},
}


def _split_sections(text: str, source: str):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith("["):
            header = line.strip()
            if not header.endswith("]"):
                raise ConfigError(f"{source}:{lineno}: malformed section header {header!r}")
            parts = header[1:-1].split()
            kind = parts[0] if parts else ""
            if kind not in _SECTION_KEYS:
                raise ConfigError(f"{source}:{lineno}: unknown section kind {kind!r}")
            if kind in ("field", "search") and len(parts) > 2:
                raise ConfigError(f"{source}:{lineno}: too many names in {header!r}")
            if kind not in ("field", "search") and len(parts) != 2:
                raise ConfigError(f"{source}:{lineno}: section {kind!r} needs exactly one name")
            name = parts[1] if len(parts) > 1 else ""
            current = {"kind": kind, "name": name, "keys": {}, "line": lineno}
            sections.append(current)
            continue
        if current is None:
            raise ConfigError(f"{source}:{lineno}: content before any section")
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _SECTION_KEYS[current["kind"]]:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r} in [{current['kind']}] section"
            )
        if key in current["keys"]:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        current["keys"][key] = value
    return sections


def _require(keys: dict, names: tuple[str, ...], where: str):
    missing = [n for n in names if n not in keys]
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {missing}")


def parse_config(text: str, source: str = "<string>") -> ConfigDocument:
    sections = _split_sections(text, source)
    field_secs = [s for s in sections if s["kind"] == "field"]
    if len(field_secs) != 1:
        raise ConfigError(f"{source}: exactly one [field] section required")
    fkeys = field_secs[0]["keys"]
    _require(fkeys, ("p",), f"{source}: [field]")
    params = FieldParams(_parse_int(fkeys["p"], "p"), _parse_int(fkeys.get("e", "1"), "e"))
    doc = ConfigDocument(params=params, source=source)

    for sec in sections:
        kind, name, keys = sec["kind"], sec["name"], sec["keys"]
        where = f"{source}: [{kind} {name}]"
        if kind == "field":
            continue
        if kind == "curve":
            _require(keys, ("equation", "infinity", "genus"), where)
            doc.curves[name] = curve_mod.CurveModel.create(
                params,
                parse_equation(keys["equation"], params.p),
                _parse_pairs(keys["infinity"], "infinity"),
                genus=_parse_int(keys["genus"], "genus"),
                name=name,
            )
        elif kind == "profile":
            _require(keys, ("group_order", "conductors"), where)
            doc.profiles[name] = cft.CharacterConductorProfile(
                degree_multiset=_parse_pairs(keys["conductors"], "conductors"),
                group_order=_parse_int(keys["group_order"], "group_order"),
            )
        elif kind == "compare":
            _require(keys, ("s", "l", "t", "s_prime", "T"), where)
            doc.compares[name] = search_mod.MethodComparisonInput(
                s=_parse_int(keys["s"], "s"),
                l=_parse_int(keys["l"], "l"),
                t=_parse_int(keys["t"], "t"),
                s_prime=_parse_int(keys["s_prime"], "s_prime"),
                t_size=_parse_int(keys["T"], "T"),
            )
        elif kind == "plan":
            _require(keys, ("on", "entries", "t"), where)
            doc.plans[name] = PlanConfig(
                name=name,
                on=keys["on"],
                entries=_parse_entries(keys["entries"]),
                t=_parse_int(keys["t"], "t"),
            )
        elif kind == "search":
            _require(keys, ("on", "degrees"), where)
            cap = _parse_int(keys.get("cap", "200"), "cap")
            top = _parse_int(keys.get("top", "10"), "top")
            if cap < 0 or not 1 <= top <= search_mod.MAX_TOP:
                raise ConfigError(
                    f"{where}: need cap >= 0 and top >= 1 and <= {search_mod.MAX_TOP}, "
                    f"got {cap} and {top}"
                )
            doc.searches[name or "default"] = SearchConfig(
                on=keys["on"],
                degrees=_parse_degrees(keys["degrees"], params, where),
                nus=_distinct(
                    (_parse_int(v, "nu") for v in keys.get("nu", "").split(",") if v.strip()),
                    "nu values", where,
                ),
                t=keys.get("t", "a1").strip(),
                cap=cap,
                top=top,
            )
    # covers last: they reference curves and profiles
    for sec in sections:
        if sec["kind"] != "cover":
            continue
        name, keys = sec["name"], sec["keys"]
        where = f"{source}: [cover {name}]"
        _require(keys, ("base", "a", "b_factor", "h_basis", "profile"), where)
        base = doc.curves.get(keys["base"])
        if base is None:
            raise ConfigError(f"{where}: unknown base curve {keys['base']!r}")
        profile = doc.profiles.get(keys["profile"])
        if profile is None:
            raise ConfigError(f"{where}: unknown profile {keys['profile']!r}")
        a_poly = parse_poly(keys["a"], params.p)
        b_factor = parse_poly(keys["b_factor"], params.p)
        h_basis = tuple(
            parse_poly(part, params.p) for part in keys["h_basis"].split(";") if part.strip()
        )
        if not h_basis:
            raise ConfigError(f"{where}: empty h_basis")
        support = []
        for rec in _parse_records(keys.get("support", "")):
            unknown = set(rec) - {"deg", "nu", "above", "count"}
            if unknown:
                raise ConfigError(f"{where}: unknown support field(s) {sorted(unknown)}")
            _require(rec, ("deg", "nu", "above"), where)
            support.append(
                cover_mod.DeclaredPlace(
                    degree=_parse_int(rec["deg"], "deg"),
                    nu=_parse_int(rec["nu"], "nu"),
                    above=_parse_pairs(rec["above"], "above"),
                    count=_parse_int(rec.get("count", "1"), "count"),
                )
            )
        infinities = []
        for rec in _parse_records(keys.get("infinity", "")):
            unknown = set(rec) - {"idx", "above"}
            if unknown:
                raise ConfigError(f"{where}: unknown infinity field(s) {sorted(unknown)}")
            _require(rec, ("idx", "above"), where)
            infinities.append(
                cover_mod.DeclaredInfinity(
                    index=_parse_int(rec["idx"], "idx"),
                    above=_parse_pairs(rec["above"], "above"),
                )
            )
        doc.covers[name] = cover_mod.CoverSpec(
            base=base,
            a=a_poly,
            components=[_mul(b_factor, h) for h in h_basis],
            profile=profile,
            support=tuple(support),
            infinities=tuple(infinities),
            name=name,
        )
    # cross-references from plans and searches
    for plan in doc.plans.values():
        if plan.on not in doc.covers:
            raise ConfigError(f"{source}: plan {plan.name!r} references unknown cover {plan.on!r}")
    for sname, sc in doc.searches.items():
        if sc.on not in doc.covers:
            raise ConfigError(f"{source}: search {sname!r} references unknown cover {sc.on!r}")
        if sc.t != "a1":
            _parse_int(sc.t, "t")
    return doc


def bundled_names() -> list[str]:
    files = resources.files("towerbound.data")
    return sorted(f.name[: -len(".cfg")] for f in files.iterdir() if f.name.endswith(".cfg"))


def load_config(path_or_name: str) -> ConfigDocument:
    """Load a config from a file path, or from the bundled set by bare name."""
    import os

    if os.path.exists(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as fh:
            return parse_config(fh.read(), source=path_or_name)
    candidate = resources.files("towerbound.data").joinpath(path_or_name + ".cfg")
    if candidate.is_file():
        return parse_config(candidate.read_text(encoding="utf-8"), source=path_or_name)
    raise ConfigError(
        f"config {path_or_name!r} is neither a file nor one of the bundled set {bundled_names()}"
    )
