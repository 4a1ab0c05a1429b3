"""JSON file formats and polynomial strings for the CLI layer.

Complex files:

    {"group": {"type": "cyclic", "order": n} | {"type": "table", "mul": [[...]]},
     "ranks": [r5, ..., r0],                       # top degree first
     "differentials": [d5, ..., d1],               # d_i is ranks[i-1] x ranks[i]
     "generators": {"top": [...], "bottom": [...]} # optional
    }

Matrices are grids of term lists; a group-ring element is a list of
[coefficient, element_index] pairs with zero terms omitted.  Serialization
is canonical (sorted keys, two-space indent, terms by ascending index), so
load/dump round-trips are bit-exact.  Every number read is a JSON integer
(no bool, float or string), and ranks, rows and cols are >= 0.

Cyclic groups additionally accept polynomial strings such as "1 - t^4".
"""

from __future__ import annotations

import json
import re

from zgdual.complexes import ChainComplex, ChainMap, dualize_complex
from zgdual.group_core import FiniteGroup, GroupRingElement, cyclic_group, group_from_table
from zgdual.gr_linalg import GRMatrix


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _integer(value, what: str) -> int:
    """``value`` if it is an int; like group_from_table, refuses bool, float and str."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _size(value, what: str) -> int:
    """A rank, row count or column count: an integer >= 0."""
    if _integer(value, what) < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


# -- groups ------------------------------------------------------------


def group_to_json(group: FiniteGroup) -> dict:
    if group.is_cyclic:
        return {"type": "cyclic", "order": group.order}
    return {"type": "table", "mul": [list(row) for row in group.mul_table]}


def group_from_json(data) -> FiniteGroup:
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("group must be an object with a 'type' field")
    if data["type"] == "cyclic":
        return cyclic_group(_integer(data["order"], "group order"))
    if data["type"] == "table":
        return group_from_table(data["mul"])
    raise ValueError(f"unknown group type {data['type']!r}")


# -- elements and matrices ----------------------------------------------


def element_from_json(group: FiniteGroup, terms) -> GroupRingElement:
    """Term-list form; cyclic groups also accept polynomial strings."""
    if isinstance(terms, str):
        if not group.is_cyclic:
            raise ValueError("polynomial strings are only defined for cyclic groups")
        return parse_poly(group, terms)
    pairs = [(_integer(c, "coefficient"), _integer(i, "element index")) for c, i in terms]
    return GroupRingElement.from_terms(group, pairs)


def matrix_to_json(A: GRMatrix) -> dict:
    return {
        "rows": A.rows,
        "cols": A.cols,
        "entries": [[e.terms() for e in row] for row in A.entries],
    }


def matrix_from_json(group: FiniteGroup, data) -> GRMatrix:
    rows, cols = _size(data["rows"], "rows"), _size(data["cols"], "cols")
    grid = data["entries"]
    if len(grid) != rows or any(len(r) != cols for r in grid):
        raise ValueError(f"matrix entry grid does not match declared shape {rows}x{cols}")
    return GRMatrix(
        group,
        rows,
        cols,
        tuple(tuple(element_from_json(group, cell) for cell in row) for row in grid),
    )


# -- complexes -----------------------------------------------------------


def complex_to_json(C: ChainComplex) -> dict:
    T = C.top_degree
    out = {
        "group": group_to_json(C.group),
        "ranks": [C.ranks[i] for i in range(T, -1, -1)],
        "differentials": [matrix_to_json(C.boundary(i)) for i in range(T, 0, -1)],
    }
    gens = {}
    if C.top_generator is not None:
        gens["top"] = list(C.top_generator)
    if C.bottom_generator is not None:
        gens["bottom"] = list(C.bottom_generator)
    if gens:
        out["generators"] = gens
    return out


def complex_from_json(data) -> ChainComplex:
    group = group_from_json(data["group"])
    ranks_desc = [_size(r, "rank") for r in data["ranks"]]
    ranks = tuple(reversed(ranks_desc))
    diffs_desc = data["differentials"]
    if len(diffs_desc) != max(len(ranks) - 1, 0):
        raise ValueError("need exactly one differential per adjacent pair of degrees")
    diffs = tuple(matrix_from_json(group, d) for d in reversed(diffs_desc))
    gens = data.get("generators", {})
    top = tuple(_integer(v, "generator entry") for v in gens["top"]) if "top" in gens else None
    bottom = tuple(_integer(v, "generator entry") for v in gens["bottom"]) if "bottom" in gens else None
    return ChainComplex(group, ranks, diffs, top_generator=top, bottom_generator=bottom)


# -- chain map files ------------------------------------------------------


def duality_map_to_json(f: ChainMap) -> dict:
    T = f.source.top_degree
    return {"components": [matrix_to_json(f.components[i]) for i in range(T, -1, -1)]}


def duality_map_from_json(target: ChainComplex, data) -> ChainMap:
    """Read the components of a map dualize(target) -> target."""
    comps_desc = data["components"]
    if len(comps_desc) != len(target.ranks):
        raise ValueError("need one component per degree")
    comps = tuple(matrix_from_json(target.group, c) for c in reversed(comps_desc))
    return ChainMap(dualize_complex(target), target, comps)


# -- polynomial strings (cyclic groups) -----------------------------------

_TERM = re.compile(r"^([+-]?)(\d*)(t(?:\^(-?\d+))?)?$")


def parse_poly(group: FiniteGroup, text: str) -> GroupRingElement:
    """Parse "c0 + c1 t^e1 - ..." into Z[C_n]; exponents reduce mod n."""
    s = text.replace("−", "-").replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return GroupRingElement.zero(group)
    n = group.order
    coeffs = [0] * n
    # split at +/- signs, except a sign that is part of an exponent
    pieces = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur and not cur.endswith("^"):
            pieces.append(cur)
            cur = ch
        else:
            cur += ch
    pieces.append(cur)
    for piece in pieces:
        m = _TERM.match(piece)
        if not m or (not m.group(2) and not m.group(3)):
            raise ValueError(f"cannot parse term {piece!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) else 1
        if m.group(3):
            exp = int(m.group(4)) if m.group(4) is not None else 1
        else:
            exp = 0
        coeffs[exp % n] += sign * coeff
    return GroupRingElement(group, tuple(coeffs))


def poly_string(e: GroupRingElement) -> str:
    """Render an element of Z[C_n] as a polynomial in t."""
    parts = []
    for exp, c in enumerate(e.coeffs):
        if not c:
            continue
        if exp == 0:
            head = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            head = f"{mag}t" if exp == 1 else f"{mag}t^{exp}"
        if not parts:
            parts.append(head if c > 0 else f"-{head}")
        else:
            parts.append(f"+ {head}" if c > 0 else f"- {head}")
    return " ".join(parts) if parts else "0"
