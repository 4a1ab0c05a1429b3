"""JSON file formats and polynomial strings for the CLI layer.

Complex files:

    {"group": {"type": "cyclic", "order": n} | {"type": "table", "mul": [[...]]},
     "ranks": [r5, ..., r0],                       # top degree first
     "differentials": [d5, ..., d1],               # d_i is ranks[i-1] x ranks[i]
     "generators": {"top": [...], "bottom": [...]} # optional
    }

Matrices are grids of term lists; a group-ring element is a list of
[coefficient, element_index] pairs with zero terms omitted.  The grid and
each of its rows must be JSON arrays: a string or an object would be read
one character or key at a time, as if it were a row of cells.  A grid is
read in one loop over its cells in row-major order: each term's types are
checked, the terms of a cell are summed by index and their indices checked
against the group order, and the cell's sorted nonzero terms become its
element directly; a cell whose terms sum to zero, [] included, builds
none.  The first bad cell raises, with the error it would raise alone
(types before ranges within a cell).  Serialization
is canonical (sorted keys, two-space indent, terms by ascending index), so
load/dump round-trips are bit-exact.  ``canonical_dumps`` writes exactly
the bytes of ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.
With ``indent`` set, json runs its pure-Python encoder, so one recursive
writer emits dicts with string keys, lists, tuples, strings (through
json's C string escaper), ints, bools, None and finite floats itself, and
hands every other value to ``json.dumps``.  Every number read is a JSON
integer (no bool, float or string), and ranks, rows and cols are >= 0.

Cyclic groups additionally accept polynomial strings such as "1 - t^4".
Every group's order is at most MAX_CYCLIC_ORDER: a cyclic order is checked
before any table is built, a table's row count before any row of it is
read as a group (the JSON decoder has read the whole table by then).
Each module of a complex file has Z-rank (rank times |G|) at most
MAX_MODULE_ZRANK, checked once the group and the ranks are read and before
any matrix is: a declared rank needs no content behind it, and the Smith
reduction of a boundary allocates in proportion to its Z-rank.
"""

from __future__ import annotations

import json
import math
import re

from zgdual.complexes import ChainComplex, ChainMap, dualize_complex
from zgdual.group_core import FiniteGroup, GroupRingElement, _support, cyclic_group, group_from_table
from zgdual.gr_linalg import GRMatrix

# the largest group order a file or ``zgdual lens --n`` may ask for, cyclic or
# given by its table (group_to_json writes a cyclic table as an order): its N x N
# table grows as N^2, to 7.7 MiB (tracemalloc peak) and about 30 ms at N = 1000
# on a 2-core host under Python 3.11
MAX_CYCLIC_ORDER = 1000

# the largest Z-rank, rank times |G|, of a module in a complex file.  It
# admits the stage-6 file of every L(n) a file may hold (Z-rank 4n <= 4,000).
# A Smith reduction keeps a few ints per column, so `zgdual homology` on a
# 0 x 2^16 boundary over the trivial group peaks at 5.2 MiB (tracemalloc, on
# a 2-core host under Python 3.11)
MAX_MODULE_ZRANK = 2**16


_encode_str = json.encoder.encode_basestring_ascii


def canonical_dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte."""
    out = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(o, nl: str, emit) -> None:
    """Emit the indented JSON text of ``o``, whose first line starts at the
    indentation that follows ``nl`` ("\\n" plus the current indent)."""
    t = type(o)
    if t is str:
        emit(_encode_str(o))
    elif t is int:
        emit(int.__repr__(o))
    elif t is bool:
        emit("true" if o else "false")
    elif o is None:
        emit("null")
    elif t is float and math.isfinite(o):
        emit(float.__repr__(o))
    elif t is list or t is tuple:
        if not o:
            emit("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in o:
            emit(sep)
            _write(item, inner, emit)
            sep = "," + inner
        emit(nl + "]")
    elif t is dict and not o:
        emit("{}")
    elif t is dict and set(map(type, o)) == {str}:
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            emit(sep + _encode_str(key) + ": ")
            _write(o[key], inner, emit)
            sep = "," + inner
        emit(nl + "}")
    else:
        # NaN, infinities, non-str keys, subclasses: json indents relative to
        # the outermost value, so its text shifted to this indent is exact
        emit(json.dumps(o, sort_keys=True, indent=2).replace("\n", nl))


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
        order = _integer(data["order"], "group order")
        if order > MAX_CYCLIC_ORDER:
            raise ValueError(f"cyclic group order {order} exceeds the limit {MAX_CYCLIC_ORDER}")
        return cyclic_group(order)
    if data["type"] == "table":
        mul = data["mul"]
        if len(mul) > MAX_CYCLIC_ORDER:
            raise ValueError(f"group table of order {len(mul)} exceeds the limit {MAX_CYCLIC_ORDER}")
        return group_from_table(mul)
    raise ValueError(f"unknown group type {data['type']!r}")


# -- elements and matrices ----------------------------------------------


def matrix_to_json(A: GRMatrix) -> dict:
    return {
        "rows": A.rows,
        "cols": A.cols,
        "entries": [[line[j].terms() if j in line else [] for j in range(A.cols)] for line in A.sparse_rows],
    }


def matrix_from_json(group: FiniteGroup, data) -> GRMatrix:
    """The matrix over ``group`` that ``data`` holds, read in one pass over
    its grid (see the module docstring)."""
    rows, cols = _size(data["rows"], "rows"), _size(data["cols"], "cols")
    grid = data["entries"]
    if type(grid) is not list:
        raise ValueError(f"matrix entries must be an array, got {type(grid).__name__}")
    if len(grid) != rows or any(len(r) != cols for r in grid):
        raise ValueError(f"matrix entry grid does not match declared shape {rows}x{cols}")
    order = group.order
    lines = []
    for row in grid:
        if type(row) is not list:
            raise ValueError(f"matrix row must be an array, got {type(row).__name__}")
        line = {}
        for j, cell in enumerate(row):
            if isinstance(cell, str):
                if not group.is_cyclic:
                    raise ValueError("polynomial strings are only defined for cyclic groups")
                support = parse_poly(group, cell).support
            else:
                c = {}
                for coeff, idx in cell:
                    if type(coeff) is not int or type(idx) is not int:
                        # raises for the first of the two that is not an int
                        _integer(coeff, "coefficient")
                        _integer(idx, "element index")
                    c[idx] = c.get(idx, 0) + coeff
                if not c:
                    continue
                if min(c) < 0 or max(c) >= order:
                    idx = next(i for i in c if not 0 <= i < order)
                    raise ValueError(f"element index {idx} out of range for order {order}")
                support = _support(c)
            if support:
                line[j] = GroupRingElement._from_support(group, support)
        lines.append(line)
    return GRMatrix._from_sparse_rows(group, cols, lines)


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
    for degree, r in enumerate(ranks):
        if r * group.order > MAX_MODULE_ZRANK:
            raise ValueError(
                f"the degree-{degree} module has Z-rank {r} x {group.order} = {r * group.order}, "
                f"above the limit {MAX_MODULE_ZRANK}"
            )
    diffs_desc = data["differentials"]
    if len(diffs_desc) != max(len(ranks) - 1, 0):
        raise ValueError("need exactly one differential per adjacent pair of degrees")
    diffs = tuple(matrix_from_json(group, d) for d in reversed(diffs_desc))
    gens = data.get("generators", {})
    if not isinstance(gens, dict):
        raise ValueError(f"generators must be an object, got {type(gens).__name__}")
    unknown = sorted(set(gens) - {"top", "bottom"})
    if unknown:
        raise ValueError(f"unknown generators key {unknown[0]!r}; the keys are top and bottom")
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

_TERM = re.compile(r"([+-]?)(\d*)(t(?:\^(-?\d+))?)?", re.ASCII)  # no non-ASCII digits, as in JSON


def parse_poly(group: FiniteGroup, text: str) -> GroupRingElement:
    """Parse "c0 + c1 t^e1 - ..." into Z[C_n]; exponents reduce mod n."""
    s = text.replace("−", "-").replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    n = group.order
    terms = []
    # split before each +/- sign, except a sign that is part of an exponent
    pieces = re.split(r"(?<!\^)(?=[+-])", s)
    for piece in pieces if pieces[0] else pieces[1:]:
        m = _TERM.fullmatch(piece)  # the whole piece, a trailing newline included
        if not m or (not m.group(2) and not m.group(3)):
            raise ValueError(f"cannot parse term {piece!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) else 1
        if m.group(3):
            exp = int(m.group(4)) if m.group(4) is not None else 1
        else:
            exp = 0
        terms.append((sign * coeff, exp % n))
    return GroupRingElement.from_terms(group, terms)


def poly_string(e: GroupRingElement) -> str:
    """Render an element of Z[C_n] as a polynomial in t."""
    parts = []
    for exp, c in e.support:
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
