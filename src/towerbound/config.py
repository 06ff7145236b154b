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

import dataclasses
import os
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import cft, cover as cover_mod, curve as curve_mod, search as search_mod
from .errors import ConfigError, located
from .ff import FieldParams, require_supported_degree

# ---------------------------------------------------------------------------
# polynomial expression grammar over x, y
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[xy]|\*\*|[()^*+-])")
MAX_EXPONENT = 64  # each power is that many multiplications; the shipped configs need ^5
MAX_DEGREE = 64  # total degree of any product; bounds the terms a multiplication works through
MAX_CONFIG_BYTES = 2**20  # a longer file is refused after that many bytes; the bundled are < 1.5 KB


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


def _parse_tuples(value: str, what: str, shape: str, separators: str = "[;,]") -> tuple:
    """`10:1 ; 18:30` -> ((10, 1), (18, 30)) for the shape deg:count; one
    integer per ':'-separated field of the shape."""
    out = []
    for part in re.split(separators, value):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != shape.count(":") + 1:
            raise ConfigError(f"{what} entries must be {shape}, got {part!r}")
        out.append(tuple(_parse_int(b, what) for b in bits))
    if not out:
        raise ConfigError(f"{what} needs at least one entry")
    return tuple(out)


def _parse_records(value: str, what: str, required: tuple, optional=()) -> list:
    """`k=v k=v ; k=v ...` -> one dict per record, holding every required
    field, and otherwise only optional ones."""
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
        unknown = set(rec) - set(required) - set(optional)
        if unknown:
            raise ConfigError(f"unknown {what} field(s) {sorted(unknown)}")
        _require(rec, required)
        records.append(rec)
    return records


def _parse_degrees(value: str, params: FieldParams) -> tuple[int, ...]:
    """`lo..hi` or a list; the ends are checked before a range is built."""
    value = value.strip()
    if ".." in value:
        lo, hi = (_parse_int(v, "degree") for v in value.split("..", 1))
        degrees, ends = range(lo, hi + 1), (lo, hi)
    else:
        degrees = ends = [_parse_int(v, "degree") for v in re.split(r"[;,]", value) if v.strip()]
    if not degrees:
        raise ConfigError(f"no degrees in {value!r}")
    if min(ends) < 1:
        raise ConfigError(f"degrees must be >= 1, got {min(ends)}")
    require_supported_degree(params, max(ends))
    return tuple(degrees)


def _search_space(keys: dict, params: FieldParams) -> search_mod.SearchSpace:
    """The library's default space with each key of the section applied in
    turn, so a value out of range is refused naming its key."""
    space = search_mod.SearchSpace()
    for key, value in keys.items():
        if key == "degrees":
            fields = {"degrees": _parse_degrees(value, params)}
        elif key == "nu":
            nus = (_parse_int(v, "nu") for v in value.split(",") if v.strip())
            fields = {"allowed_nu": tuple(nus)}
        elif key == "t":
            fields = {"t_values": () if value == "a1" else (_parse_int(value, "t"),)}
        elif key == "cap":
            fields = {"max_multiplicity": _parse_int(value, "cap")}
        elif key == "top":
            fields = {"top_n": _parse_int(value, "top")}
        else:  # on: resolved by the caller
            continue
        with located(key):
            space = dataclasses.replace(space, **fields)
    return space


# ---------------------------------------------------------------------------
# the document
# ---------------------------------------------------------------------------


@dataclass
class ConfigDocument:
    params: FieldParams
    curves: dict[str, curve_mod.CurveModel] = field(default_factory=dict)
    covers: dict[str, cover_mod.CoverSpec] = field(default_factory=dict)
    profiles: dict[str, cft.CharacterConductorProfile] = field(default_factory=dict)
    # name -> (cover name, library object); an unnamed [search] is "default"
    plans: dict[str, tuple[str, cft.RamificationPlan]] = field(default_factory=dict)
    searches: dict[str, tuple[str, search_mod.SearchSpace]] = field(default_factory=dict)
    compares: dict[str, search_mod.MethodComparisonInput] = field(default_factory=dict)
    source: str = "<string>"


# kind -> (required keys, optional keys)
_SECTION_KEYS = {
    "field": (("p",), ("e",)),
    "curve": (("equation", "infinity", "genus"), ()),
    "cover": (("base", "a", "b_factor", "h_basis", "profile"), ("support", "infinity")),
    "profile": (("group_order", "conductors"), ()),
    "plan": (("on", "entries", "t"), ()),
    "search": (("on", "degrees"), ("nu", "t", "cap", "top")),
    "compare": (("s", "l", "t", "s_prime", "T"), ()),
}
# covers reference curves and profiles; plans and searches reference covers
_BUILD_ORDER = {"cover": 1, "plan": 2, "search": 2}


def _split_sections(text: str, source: str):
    sections = []
    seen: dict[str, int] = {}  # section label -> line of its header
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
            if kind == "field" and len(parts) > 1:
                raise ConfigError(f"{source}:{lineno}: section 'field' takes no name")
            if kind == "search" and len(parts) > 2:
                raise ConfigError(f"{source}:{lineno}: too many names in {header!r}")
            if kind not in ("field", "search") and len(parts) != 2:
                raise ConfigError(f"{source}:{lineno}: section {kind!r} needs exactly one name")
            name = parts[1] if len(parts) > 1 else "default"
            label = "field" if kind == "field" else f"{kind} {name}"
            if kind != "field":  # its count is checked once every section is read
                first = seen.setdefault(label, lineno)
                if first != lineno:
                    raise ConfigError(
                        f"{source}:{lineno}: section [{label}] repeats the one at line {first}"
                    )
            current = {"kind": kind, "name": name, "keys": {}, "where": f"{source}: [{label}]"}
            sections.append(current)
            continue
        if current is None:
            raise ConfigError(f"{source}:{lineno}: content before any section")
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        required, optional = _SECTION_KEYS[current["kind"]]
        if key not in required + optional:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r} in [{current['kind']}] section"
            )
        if key in current["keys"]:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        current["keys"][key] = value
    return sections


def _require(keys: dict, names: tuple[str, ...]):
    missing = [n for n in names if n not in keys]
    if missing:
        raise ConfigError(f"missing required key(s) {missing}")


def _lookup(named: dict, what: str, name: str):
    if name not in named:
        raise ConfigError(f"unknown {what} {name!r}")
    return named[name]


def parse_config(text: str, source: str = "<string>") -> ConfigDocument:
    sections = _split_sections(text, source)
    field_secs = [s for s in sections if s["kind"] == "field"]
    if len(field_secs) != 1:
        raise ConfigError(f"{source}: exactly one [field] section required")
    fkeys = field_secs[0]["keys"]
    with located(field_secs[0]["where"]):
        _require(fkeys, _SECTION_KEYS["field"][0])
        params = FieldParams(_parse_int(fkeys["p"], "p"), _parse_int(fkeys.get("e", "1"), "e"))
    doc = ConfigDocument(params=params, source=source)

    for sec in sorted(sections, key=lambda sec: _BUILD_ORDER.get(sec["kind"], 0)):
        kind, name, keys = sec["kind"], sec["name"], sec["keys"]
        if kind == "field":
            continue
        with located(sec["where"]):
            _require(keys, _SECTION_KEYS[kind][0])
            if kind in ("plan", "search"):
                _lookup(doc.covers, "cover", keys["on"])
            if kind == "curve":
                doc.curves[name] = curve_mod.CurveModel.create(
                    params,
                    parse_equation(keys["equation"], params.p),
                    _parse_tuples(keys["infinity"], "infinity", "deg:count"),
                    genus=_parse_int(keys["genus"], "genus"),
                    name=name,
                )
            elif kind == "profile":
                doc.profiles[name] = cft.CharacterConductorProfile(
                    degree_multiset=_parse_tuples(keys["conductors"], "conductors", "deg:count"),
                    group_order=_parse_int(keys["group_order"], "group_order"),
                )
            elif kind == "compare":
                doc.compares[name] = search_mod.MethodComparisonInput(
                    s=_parse_int(keys["s"], "s"),
                    l=_parse_int(keys["l"], "l"),
                    t=_parse_int(keys["t"], "t"),
                    s_prime=_parse_int(keys["s_prime"], "s_prime"),
                    t_size=_parse_int(keys["T"], "T"),
                )
            elif kind == "plan":
                entries = _parse_tuples(keys["entries"], "plan", "deg:count:nu", ";")
                plan = cft.RamificationPlan(params, entries, _parse_int(keys["t"], "t"))
                doc.plans[name] = keys["on"], plan
            elif kind == "search":
                doc.searches[name] = keys["on"], _search_space(keys, params)
            else:
                base = _lookup(doc.curves, "base curve", keys["base"])
                profile = _lookup(doc.profiles, "profile", keys["profile"])
                b_factor = parse_poly(keys["b_factor"], params.p)
                parts = keys["h_basis"].split(";")
                h_basis = tuple(parse_poly(part, params.p) for part in parts if part.strip())
                if not h_basis:
                    raise ConfigError("empty h_basis")
                support = _parse_records(
                    keys.get("support", ""), "support", ("deg", "nu", "above"), ("count",)
                )
                infinities = _parse_records(keys.get("infinity", ""), "infinity", ("idx", "above"))
                doc.covers[name] = cover_mod.CoverSpec(
                    base=base,
                    a=parse_poly(keys["a"], params.p),
                    components=[_mul(b_factor, h) for h in h_basis],
                    profile=profile,
                    support=[
                        cover_mod.DeclaredPlace(
                            degree=_parse_int(rec["deg"], "deg"),
                            nu=_parse_int(rec["nu"], "nu"),
                            above=_parse_tuples(rec["above"], "above", "deg:count"),
                            count=_parse_int(rec.get("count", "1"), "count"),
                        )
                        for rec in support
                    ],
                    infinities=[
                        cover_mod.DeclaredInfinity(
                            index=_parse_int(rec["idx"], "idx"),
                            above=_parse_tuples(rec["above"], "above", "deg:count"),
                        )
                        for rec in infinities
                    ],
                    name=name,
                )
    return doc


def bundled_names() -> list[str]:
    files = resources.files("towerbound.data")
    return sorted(f.name[: -len(".cfg")] for f in files.iterdir() if f.name.endswith(".cfg"))


def load_config(path_or_name: str) -> ConfigDocument:
    """Load a config from a file path, or from the bundled set by bare name.

    Either is read as at most MAX_CONFIG_BYTES bytes of UTF-8; a file that
    cannot be read, is longer or is not UTF-8 raises ConfigError."""
    if os.path.exists(path_or_name):
        source = Path(path_or_name)
    else:
        source = resources.files("towerbound.data").joinpath(path_or_name + ".cfg")
        if not source.is_file():
            raise ConfigError(
                f"config {path_or_name!r} is neither a file nor one of the bundled set "
                f"{bundled_names()}"
            )
    try:
        with source.open("rb") as fh:
            data = fh.read(MAX_CONFIG_BYTES + 1)
        if len(data) > MAX_CONFIG_BYTES:
            raise ConfigError(f"config {path_or_name!r} is longer than {MAX_CONFIG_BYTES} bytes")
        text = data.decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path_or_name!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config {path_or_name!r} is not UTF-8: byte {exc.start} ({exc.reason})"
        ) from None
    return parse_config(text, source=path_or_name)
