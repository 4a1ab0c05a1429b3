import json
from dataclasses import replace

import pytest

from conftest import make_sym3
from zgdual.complexes import dualize_complex
from zgdual.group_core import GroupRingElement, cyclic_group, norm_element
from zgdual.gr_linalg import GRMatrix
from zgdual.lens import lens_asd_transform, lens_complex, lens_duality_map
from zgdual.serialize import (
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

    def test_parse_errors(self):
        G = cyclic_group(3)
        for bad in ("", "t^", "x + 1", "1 ++ t"):
            with pytest.raises(ValueError):
                parse_poly(G, bad)
