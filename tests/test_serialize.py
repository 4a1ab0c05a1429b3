import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_sym3, reference_parse_poly
from zgdual.complexes import dualize_complex, homology
from zgdual.group_core import GroupRingElement, cyclic_group, norm_element
from zgdual.gr_linalg import GRMatrix
from zgdual.lens import lens_asd_transform, lens_complex, lens_duality_map
from zgdual.dual_form import to_dual_form_stage6
from zgdual.serialize import (
    MAX_CYCLIC_ORDER,
    MAX_MODULE_ZRANK,
    canonical_dumps,
    complex_from_json,
    complex_to_json,
    duality_map_from_json,
    duality_map_to_json,
    group_from_json,
    group_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_poly,
    poly_string,
)


GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli"


def json_dumps_reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# escapes, control characters, a lone surrogate, non-ASCII and astral characters
_strings = st.text(alphabet=st.sampled_from('a"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600 '))
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | _strings
)
json_like = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_strings, inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4),
    max_leaves=24,
)


class TestCanonicalDumps:
    """canonical_dumps writes the bytes of json.dumps(sort_keys=True, indent=2)
    plus a newline."""

    @pytest.mark.parametrize("path", sorted(GOLDEN_CLI.glob("*.json")), ids=lambda p: p.name)
    def test_matches_json_on_every_cli_golden(self, path):
        obj = json.loads(path.read_text())
        assert canonical_dumps(obj) == json_dumps_reference(obj)

    @settings(max_examples=200)
    @given(json_like)
    @example({"b": [1.5, {"c": {2: [True, None, float("nan")]}}], "a": (), "d": {}, "e": [[]]})
    @example([-(10**80), float("-inf"), float("inf"), -0.0, "\u00e9\"\n"])
    def test_matches_json_on_nested_objects(self, obj):
        assert canonical_dumps(obj) == json_dumps_reference(obj)


class TestGroupJson:
    def test_cyclic_round_trip(self):
        G = cyclic_group(6)
        assert group_to_json(G) == {"type": "cyclic", "order": 6}
        assert group_from_json(group_to_json(G)) == G

    def test_table_round_trip(self):
        G = make_sym3()
        data = group_to_json(G)
        assert data["type"] == "table"
        assert group_from_json(data) == G

    def test_bad_type(self):
        with pytest.raises(ValueError):
            group_from_json({"type": "free"})

    def test_cyclic_order_is_bounded(self):
        assert group_from_json({"type": "cyclic", "order": MAX_CYCLIC_ORDER}).order == MAX_CYCLIC_ORDER
        for order in (MAX_CYCLIC_ORDER + 1, 10**9):
            with pytest.raises(ValueError, match=f"cyclic group order {order} exceeds the limit"):
                group_from_json({"type": "cyclic", "order": order})

    def test_table_order_is_bounded(self):
        """A table is held to the cyclic bound too, before any group axiom
        is checked; else the standard C_1001 table would read as a group
        that group_to_json writes as a cyclic order the reader refuses."""
        def standard(n):
            return [[(i + j) % n for j in range(n)] for i in range(n)]

        big = MAX_CYCLIC_ORDER + 1
        with pytest.raises(ValueError, match=f"group table of order {big} exceeds the limit {MAX_CYCLIC_ORDER}"):
            group_from_json({"type": "table", "mul": standard(big)})
        # the bound comes first, so a table that is not even square names it
        with pytest.raises(ValueError, match=f"group table of order {big} exceeds the limit {MAX_CYCLIC_ORDER}"):
            group_from_json({"type": "table", "mul": [[0]] * big})
        G = group_from_json({"type": "table", "mul": standard(MAX_CYCLIC_ORDER)})
        assert G.is_cyclic and G.order == MAX_CYCLIC_ORDER
        assert group_from_json(group_to_json(G)) == G

    def test_standard_cyclic_table_serializes_as_cyclic(self):
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        G = group_from_json({"type": "table", "mul": table})
        assert G.is_cyclic
        assert group_to_json(G) == {"type": "cyclic", "order": 4}
        A = matrix_from_json(G, {"rows": 1, "cols": 1, "entries": [["1 - t^3"]]})
        assert A == GRMatrix.one_by_one(GroupRingElement.from_terms(G, [(1, 0), (-1, 3)]))

    def test_relabelled_cyclic_table_is_not_standard(self):
        # C_4 with the labels of t and t^2 swapped: isomorphic, not the t^i table
        p = [0, 2, 1, 3]
        G = group_from_json({"type": "table", "mul": [[p[(p[i] + p[j]) % 4] for j in range(4)] for i in range(4)]})
        assert not G.is_cyclic
        assert group_to_json(G)["type"] == "table"
        with pytest.raises(ValueError):
            matrix_from_json(G, {"rows": 1, "cols": 1, "entries": [["1 - t"]]})


def _reference_matrix_from_json(group, data):
    """The grid reader that reads each cell on its own: every term's types,
    then the cell's element through GroupRingElement.from_terms."""

    def integer(value, what):
        if type(value) is not int:
            raise ValueError(f"{what} must be an integer, got {value!r}")
        return value

    lines = []
    for row in data["entries"]:
        line = {}
        for j, cell in enumerate(row):
            if cell == []:
                continue
            if isinstance(cell, str):
                if not group.is_cyclic:
                    raise ValueError("polynomial strings are only defined for cyclic groups")
                e = parse_poly(group, cell)
            else:
                pairs = [(integer(c, "coefficient"), integer(i, "element index")) for c, i in cell]
                e = GroupRingElement.from_terms(group, pairs)
            if e.support:
                line[j] = e
        lines.append(line)
    return GRMatrix._from_sparse_rows(group, data["cols"], lines)


def _read(reader, group, grid):
    """The sparse rows that reader reads from grid, or the type and message
    of what it raises."""
    data = {"rows": len(grid), "cols": len(grid[0]), "entries": grid}
    try:
        return reader(group, data).sparse_rows
    except Exception as exc:
        return type(exc), str(exc)


C3 = cyclic_group(3)
_POLYS = ("1 - t", "t^2 + 2 - t^2", "3t^-1 + t^5", "0", "", "1 + x", "t^^2")
# ints, mostly in range, and the values that compare equal to them or are not numbers
_NUMBERS = st.integers(-1, 4) | st.integers(-1, 6) | st.sampled_from((True, False, 1.0, 0.0, "1"))


@st.composite
def _grids(draw):
    """A grid of at most 3 x 3 cells over C3 or S3: term lists, which may
    repeat an index, cancel, be unsorted or hold a bad number or a term of
    the wrong length, [] and the cells that are no term list, None, 0 and
    "", and polynomial strings."""
    group = draw(st.sampled_from((C3, make_sym3())))
    term = st.tuples(_NUMBERS, _NUMBERS).map(list)
    good_term = st.tuples(st.integers(-2, 2), st.integers(0, group.order - 1)).map(list)
    cell = (
        st.just([])
        | st.lists(term, max_size=3)
        | st.lists(good_term, max_size=5)
        | st.sampled_from((None, 0, "", [[1]], [[1, 0, 2]]) + _POLYS)
    )
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return group, [[draw(cell) for _ in range(cols)] for _ in range(rows)]


def _bad_cell_pairs(test):
    """Every ordered pair of bad cells after a good row, as explicit examples."""
    bad = ("", 0, None, [[1, 3]], [[0.5, 1]])
    for first in bad:
        for other in bad:
            test = example((C3, [[[], [[1, 0], [0, 2]]], [first, other]]))(test)
    return test


class TestMatrixJson:
    def test_round_trip_with_zero_shape(self):
        G = cyclic_group(4)
        for shape in [(2, 2), (0, 3), (3, 0)]:
            A = GRMatrix.zeros(G, *shape)
            assert matrix_from_json(G, matrix_to_json(A)) == A

    def test_terms_omit_zeros(self):
        G = cyclic_group(3)
        e = GroupRingElement.from_terms(G, [(2, 1)])
        data = matrix_to_json(GRMatrix.one_by_one(e))
        assert data["entries"] == [[[[2, 1]]]]

    def test_shape_mismatch_detected(self):
        G = cyclic_group(2)
        with pytest.raises(ValueError):
            matrix_from_json(G, {"rows": 2, "cols": 1, "entries": [[[]]]})

    def test_entries_accept_polynomial_strings_for_cyclic(self):
        G = cyclic_group(5)
        data = {"rows": 1, "cols": 1, "entries": [["1 - t^4"]]}
        A = matrix_from_json(G, data)
        assert A == GRMatrix.one_by_one(GroupRingElement.from_terms(G, [(1, 0), (-1, 4)]))

    def test_polynomial_strings_rejected_for_tables(self):
        G = make_sym3()
        with pytest.raises(ValueError):
            matrix_from_json(G, {"rows": 1, "cols": 1, "entries": [["1 - t"]]})

    def test_empty_cells_allocate_no_elements(self):
        # a 120x120 grid of [] over C_60: one dense zero element per cell
        # would be 14,400 tuples of 60 ints, about 10 MB at the peak
        G = cyclic_group(60)
        data = {"rows": 120, "cols": 120, "entries": [[[] for _ in range(120)] for _ in range(120)]}
        tracemalloc.start()
        try:
            A = matrix_from_json(G, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert A == GRMatrix.zeros(G, 120, 120)
        assert peak < 500_000

    @settings(max_examples=300, deadline=None)
    @given(_grids())
    @_bad_cell_pairs
    # a range error in the first term, a type error in the second
    @example((C3, [[[[1, 7], [0.5, 1]]]]))
    def test_cells_fail_in_row_major_order(self, case):
        # the grid reads as the per-cell reference reads it, and a grid that
        # fails raises the error of its first bad cell read alone
        G, grid = case
        got = _read(matrix_from_json, G, grid)
        assert got == _read(_reference_matrix_from_json, G, grid)
        if isinstance(got[0], type):
            alone = (_read(matrix_from_json, G, [[cell]]) for row in grid for cell in row)
            assert got == next(r for r in alone if isinstance(r[0], type))

    def test_zero_terms_leave_no_entry(self):
        G = cyclic_group(3)
        A = matrix_from_json(G, {"rows": 1, "cols": 3, "entries": [[[[0, 1]], [[1, 2], [-1, 2]], "0"]]})
        assert A.sparse_rows == ({},)


class TestComplexJson:
    def test_round_trip_lens(self):
        A = lens_complex(5)
        data = complex_to_json(A)
        assert data["ranks"] == [1, 1, 1, 1, 1, 1]
        assert data["generators"] == {"top": [1], "bottom": [1]}
        assert complex_from_json(data) == A

    def test_bit_exact_round_trip(self):
        A = lens_complex(7)
        text = canonical_dumps(complex_to_json(A))
        again = canonical_dumps(complex_to_json(complex_from_json(json.loads(text))))
        assert text == again

    def test_round_trip_asd_target(self):
        t = lens_asd_transform(5)
        assert complex_from_json(complex_to_json(t.complex)) == t.complex

    def test_round_trip_without_generators(self):
        A = replace(lens_complex(3), top_generator=None, bottom_generator=None)
        data = complex_to_json(A)
        assert "generators" not in data
        assert complex_from_json(data) == A

    def test_rank_zero_modules_round_trip(self):
        from zgdual.complexes import ChainComplex

        G = cyclic_group(3)
        C = ChainComplex(
            G,
            (1, 0, 2),
            (GRMatrix.zeros(G, 1, 0), GRMatrix.zeros(G, 0, 2)),
        )
        assert complex_from_json(complex_to_json(C)) == C

    def test_differential_order_is_top_down(self):
        A = lens_complex(4)
        data = complex_to_json(A)
        # first listed differential is boundary(5), i.e. x(1 - t^-1)
        top = matrix_from_json(A.group, data["differentials"][0])
        assert top == A.boundary(5)
        bottom = matrix_from_json(A.group, data["differentials"][-1])
        assert bottom == A.boundary(1)


class TestModuleSizeLimit:
    """A declared rank needs no content behind it, so each module's Z-rank,
    rank times |G|, is bounded before any matrix is read."""

    @staticmethod
    def one_boundary(order, rank, differentials=None):
        zero_rows = [{"rows": 0, "cols": rank, "entries": []}]
        return {
            "group": {"type": "cyclic", "order": order},
            "ranks": [rank, 0],
            "differentials": zero_rows if differentials is None else differentials,
        }

    @pytest.mark.parametrize(
        "order, rank",
        [(1, 10**9), (1, MAX_MODULE_ZRANK + 1), (MAX_CYCLIC_ORDER, 10**9), (MAX_CYCLIC_ORDER, 66)],
    )
    def test_above_the_limit_before_any_matrix(self, order, rank):
        zrank = order * rank
        message = f"the degree-1 module has Z-rank {rank} x {order} = {zrank}, above the limit {MAX_MODULE_ZRANK}"
        # the differentials are never read: a matrix error would name them
        for differentials in (None, "not a list of matrices"):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=message):
                    complex_from_json(self.one_boundary(order, rank, differentials))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the cyclic table of order 1000 is the only sizeable allocation
            assert peak < 10_000_000

    def test_a_zero_row_boundary_at_the_limit(self):
        C = complex_from_json(self.one_boundary(1, MAX_MODULE_ZRANK))
        assert C.ranks == (0, MAX_MODULE_ZRANK)
        assert str(homology(C, 1)) == f"Z^{MAX_MODULE_ZRANK}"
        assert str(homology(C, 0)) == "0"

    def test_the_limit_admits_every_lens_stage6_file(self):
        # the stage-6 ranks are the same for every L(n)
        ranks = to_dual_form_stage6(lens_complex(3)).complex.ranks
        assert max(ranks) * MAX_CYCLIC_ORDER <= MAX_MODULE_ZRANK


class TestDualityMapJson:
    def test_round_trip(self):
        phi = lens_duality_map(5)
        data = duality_map_to_json(phi)
        again = duality_map_from_json(lens_complex(5), data)
        assert again.components == phi.components
        assert again.source == dualize_complex(lens_complex(5))


class TestPolyStrings:
    def test_parse_examples(self):
        G = cyclic_group(5)
        assert parse_poly(G, "1 - t^4") == GroupRingElement.from_terms(G, [(1, 0), (-1, 4)])
        assert parse_poly(G, "1 + t - t^3") == GroupRingElement.from_terms(G, [(1, 0), (1, 1), (-1, 3)])
        assert parse_poly(G, "2t^2") == GroupRingElement.from_terms(G, [(2, 2)])
        assert parse_poly(G, "-t") == GroupRingElement.from_terms(G, [(-1, 1)])
        assert parse_poly(G, "0") == GroupRingElement.zero(G)
        assert parse_poly(G, "t^-1") == GroupRingElement.basis(G, 4)
        assert parse_poly(G, "3") == GroupRingElement.one(G).scale(3)

    def test_exponents_reduce(self):
        G = cyclic_group(5)
        assert parse_poly(G, "t^7") == GroupRingElement.basis(G, 2)

    def test_round_trip(self):
        G = cyclic_group(7)
        for text in ("1 - t^4", "2 + 3t - t^2", "t", "-2t^6", "0"):
            e = parse_poly(G, text)
            assert parse_poly(G, poly_string(e)) == e

    def test_print_examples(self):
        G = cyclic_group(5)
        assert poly_string(norm_element(G)) == "1 + t + t^2 + t^3 + t^4"
        assert poly_string(GroupRingElement.from_terms(G, [(-1, 1), (-1, 3)])) == "-t - t^3"
        assert poly_string(GroupRingElement.zero(G)) == "0"

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rendered_terms_parse_to_their_sum(self, data):
        n = data.draw(st.integers(1, 40))
        G = cyclic_group(n)
        terms = data.draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-3 * n, 3 * n)), min_size=1, max_size=8))
        spaces = st.sampled_from(["", " ", "  "])
        text = ""
        for c, e in terms:
            if c < 0:
                sign = data.draw(st.sampled_from(["-", "\u2212"]))
            else:
                sign = data.draw(st.sampled_from(["+", ""])) if not text else "+"
            if e == 0 and data.draw(st.booleans()):
                body = str(abs(c))
            else:
                power = "t" if e == 1 and data.draw(st.booleans()) else f"t^{e}"
                if data.draw(st.booleans()):
                    power = power.replace("-", "\u2212")
                magnitude = "" if abs(c) == 1 and data.draw(st.booleans()) else str(abs(c))
                body = magnitude + data.draw(spaces) + power
            text += data.draw(spaces) + sign + data.draw(spaces) + body
        e = parse_poly(G, text)
        assert e == GroupRingElement.from_terms(G, [(c, x % n) for c, x in terms])
        assert parse_poly(G, poly_string(e)) == e
        for zero in ("0", "-0", "0t^3"):
            assert parse_poly(G, zero) == GroupRingElement.zero(G)

    @given(st.text(alphabet="0123t^+- \u2212\n", max_size=14))
    @example("+")
    @example("-")
    @example("1--t")
    @example("t^-1")
    @example("t^+2")
    @example("1+")
    @example("^-")
    @settings(max_examples=400, deadline=None)
    def test_pieces_are_those_of_the_per_character_split(self, text):
        # the same element, or the same ValueError message, as the loop splitter
        G = cyclic_group(5)

        def outcome(parse):
            try:
                return parse(G, text)
            except ValueError as err:
                return str(err)

        assert outcome(parse_poly) == outcome(reference_parse_poly)

    def test_parse_errors(self):
        G = cyclic_group(3)
        for bad in ("", "t^", "x + 1", "1 ++ t"):
            with pytest.raises(ValueError):
                parse_poly(G, bad)

    @pytest.mark.parametrize("text", ["\u0663 + t", "\uff12t", "1 + t^\u0662"])
    def test_non_ascii_digits_are_rejected(self, text):
        # every other number in the file format is a JSON integer, so ASCII
        with pytest.raises(ValueError, match="cannot parse term"):
            parse_poly(cyclic_group(5), text)

    @pytest.mark.parametrize("text", ["1 + t\n", "1\n+ t", "t^2\n"])
    def test_a_term_ending_in_a_newline_is_rejected(self, text):
        # a term is matched whole; "$" alone would also match before a final newline
        with pytest.raises(ValueError, match="cannot parse term"):
            parse_poly(cyclic_group(5), text)
