"""Seeded inputs: an F_p-affine change of coordinates applied to the bundled configs.

For a seed other than 0, every polynomial-valued key (`equation`, `a`,
`b_factor`, `h_basis`) of a config is rewritten under

    x -> x + c,    y -> y + d*x + e,        c, d, e in F_p.

The substitution is an automorphism of the affine plane that fixes the
places at infinity, so it gives the same function fields: every exact
output of the program (spectra, genera, margins, bounds, search rankings)
must be identical, while the polynomials the program evaluates change.
Seed 0 is the identity and copies the bundled files verbatim.

The work does depend on the change: over F_3, d != 0 makes the k3
assembly about a third slower than d = 0.  So a run does not hinge on one
change: the seed shuffles the p^3 changes of each config, and the sample
at position i of a cycle takes the i-th of them.  The positions of a cycle
therefore use distinct changes, and every cycle of a run the same ones.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import re

CONFIG_NAMES = ("f2_tower1", "f2_tower2", "f3_tower", "remark_comparisons")
POLY_KEYS = ("equation", "a", "b_factor", "h_basis")

_FIELD_P = re.compile(r"^\s*p\s*=\s*(\d+)", re.M)
_KEY_LINE = re.compile(r"^(\s*(\w+)\s*=\s*)([^#\n]*)(.*)$")
_VAR = re.compile(r"[xy]")


def draw_change(seed: int, position: int, name: str, p: int) -> tuple[int, int, int]:
    """(c, d, e) for one config at `position` of a cycle; (0, 0, 0) for seed 0."""
    if seed == 0:
        return (0, 0, 0)
    changes = list(itertools.product(range(p), repeat=3))
    random.Random(f"towerbound-perfbench:{seed}:{name}").shuffle(changes)
    return changes[position % len(changes)]


def substitute(poly_text: str, change: tuple[int, int, int]) -> str:
    """Rewrite a polynomial expression over x, y under the change of coordinates."""
    c, d, e = change
    images = {"x": f"(x+{c})", "y": f"(y+{d}*x+{e})"}
    return _VAR.sub(lambda m: images[m.group(0)], poly_text)


def transform_config(text: str, change: tuple[int, int, int]) -> str:
    """Apply the change to every polynomial-valued key; other lines are kept verbatim."""
    if change == (0, 0, 0):
        return text
    out = []
    for line in text.splitlines(keepends=True):
        m = _KEY_LINE.match(line)
        if m and m.group(2) in POLY_KEYS:
            line = m.group(1) + substitute(m.group(3), change) + m.group(4) + (
                "\n" if line.endswith("\n") else ""
            )
        out.append(line)
    return "".join(out)


def field_characteristic(text: str) -> int:
    m = _FIELD_P.search(text)
    if m is None:
        raise ValueError("config has no [field] p = ... line")
    return int(m.group(1))


def write_seeded_configs(src_data_dir: str, out_dir: str, seed: int, position: int) -> dict:
    """Write every bundled config, transformed for (`seed`, `position`), into out_dir.

    Returns {name: {"path", "change", "sha256"}} as provenance.
    """
    os.makedirs(out_dir, exist_ok=True)
    made = {}
    for name in CONFIG_NAMES:
        with open(os.path.join(src_data_dir, name + ".cfg"), encoding="utf-8") as fh:
            text = fh.read()
        change = draw_change(seed, position, name, field_characteristic(text))
        new_text = transform_config(text, change)
        path = os.path.join(out_dir, name + ".cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(new_text)
        made[name] = {
            "path": path,
            "change": list(change),
            "sha256": hashlib.sha256(new_text.encode("utf-8")).hexdigest(),
        }
    return made
