import json

import pytest

from conftest import broken_lens, c70_loop_table, twisted_lens
from zgdual.cli import main
from zgdual.complexes import ChainComplex, validate_complex
from zgdual.group_core import GroupRingElement
from zgdual.gr_linalg import GRMatrix
from zgdual.lens import lens_complex, lens_duality_map
from zgdual.serialize import (
    canonical_dumps,
    complex_to_json,
    duality_map_to_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_complex(tmp_path, C, name):
    path = tmp_path / name
    path.write_text(canonical_dumps(complex_to_json(C)))
    return str(path)


def write_lens(tmp_path, n, name="lens.json"):
    path = tmp_path / name
    path.write_text(canonical_dumps(complex_to_json(lens_complex(n))))
    return str(path)


class TestLensCommand:
    def test_lens_asd_report(self, capsys, tmp_path):
        out_file = tmp_path / "a5.json"
        code, out, _ = run(capsys, "lens", "--n", "5", "--asd", "-o", str(out_file), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["asd_status"] == "anti-self-dual"
        assert report["asd_data"]["beta"] == "1 + t - t^3"
        assert all(v["pass"] for v in report["verdicts"])
        assert out_file.exists()

    def test_round_trip_check(self, capsys, tmp_path):
        out_file = tmp_path / "lens9.json"
        code, _, _ = run(capsys, "lens", "--n", "9", "-o", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "check", str(out_file), "--json")
        assert code == 0
        report = json.loads(out)
        assert all(v["pass"] for v in report["verdicts"])
        assert report["dual_form"]["recognized"] is True
        # loading and re-serializing reproduces the file byte for byte
        from zgdual.serialize import complex_from_json

        text = out_file.read_text()
        again = canonical_dumps(complex_to_json(complex_from_json(json.loads(text))))
        assert text == again

    def test_unknown_status_for_three_mod_four(self, capsys):
        code, out, _ = run(capsys, "lens", "--n", "7", "--json")
        assert code == 0
        assert json.loads(out)["asd_status"] == "unknown"

    def test_even_is_obstructed_status(self, capsys):
        code, out, _ = run(capsys, "lens", "--n", "6", "--json")
        assert code == 0
        assert json.loads(out)["asd_status"] == "obstructed"

    def test_asd_flag_needs_4k_plus_1(self, capsys):
        code, _, err = run(capsys, "lens", "--n", "7", "--asd")
        assert code == 2
        assert "4k+1" in err

    def test_json_reports_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "lens", "--n", "5", "--asd", "--json")
        code2, out2, _ = run(capsys, "lens", "--n", "5", "--asd", "--json")
        assert code1 == code2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timings")
        r2.pop("timings")
        assert r1 == r2


class TestCheckCommand:
    def test_valid_file(self, capsys, tmp_path):
        path = write_lens(tmp_path, 4)
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        assert "PASS" in out

    def test_invalid_complex_fails(self, capsys, tmp_path):
        data = complex_to_json(lens_complex(4))
        # corrupt one differential so a composition is nonzero
        data["differentials"][2]["entries"][0][0] = [[1, 0]]
        path = tmp_path / "broken.json"
        path.write_text(canonical_dumps(data))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_six_modules_with_nonzero_compositions_reason(self, capsys, tmp_path):
        path = write_complex(tmp_path, broken_lens(5), "broken.json")
        code, out, _ = run(capsys, "check", path, "--json")
        assert code == 1
        report = json.loads(out)
        assert report["dual_form"]["recognized"] is False
        reasons = report["dual_form"]["reasons"]
        assert "compositions are nonzero" in reasons
        assert "complex does not have six modules" not in reasons

    def test_wrong_length_reason(self, capsys, tmp_path):
        A = lens_complex(3)
        short = ChainComplex(A.group, A.ranks[:3], A.differentials[:2], bottom_generator=(1,))
        path = write_complex(tmp_path, short, "short.json")
        code, out, _ = run(capsys, "check", path, "--json")
        assert code == 0
        assert json.loads(out)["dual_form"]["reasons"] == ["complex does not have six modules"]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "line" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/file.json")
        assert code == 2

    def test_nonassociative_order_70_table_is_a_usage_error(self, capsys, tmp_path):
        data = complex_to_json(lens_complex(70))
        data["group"] = {"type": "table", "mul": c70_loop_table()}
        path = tmp_path / "loop.json"
        path.write_text(canonical_dumps(data))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert "associativity fails at (1,1,2)" in err

    def test_out_of_range_table_entry_is_a_usage_error(self, capsys, tmp_path):
        data = complex_to_json(lens_complex(3))
        data["group"] = {"type": "table", "mul": [[0, 1, 2], [1, 2, 3], [2, 0, 1]]}
        path = tmp_path / "range.json"
        path.write_text(canonical_dumps(data))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert "row 1 contains an out-of-range index" in err

    def test_integral_float_table_entry_is_a_usage_error(self, capsys, tmp_path):
        data = complex_to_json(lens_complex(2))
        data["group"] = {"type": "table", "mul": [[0, 1.0], [1.0, 0]]}
        path = tmp_path / "float.json"
        path.write_text(canonical_dumps(data))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert "row 0 contains an out-of-range index" in err


# 1 - t on Z[C2]; each case below breaks one number of this file
def _c2_file(**fields):
    data = {
        "group": {"type": "cyclic", "order": 2},
        "ranks": [1, 1],
        "differentials": [{"rows": 1, "cols": 1, "entries": [[[[1, 0], [-1, 1]]]]}],
    }
    data.update(fields)
    return data


def _c2_cell(*terms):
    return [{"rows": 1, "cols": 1, "entries": [[list(terms)]]}]


MALFORMED_NUMBERS = [
    (
        _c2_file(ranks=[-1, 0], differentials=[{"rows": 0, "cols": -1, "entries": []}]),
        "rank must be nonnegative, got -1",
    ),
    (_c2_file(ranks=[1.7, 1.2]), "rank must be an integer, got 1.7"),
    (_c2_file(ranks=[True, 1]), "rank must be an integer, got True"),
    (
        _c2_file(differentials=[{"rows": 1.9, "cols": 1, "entries": [[[[1, 0]]]]}]),
        "rows must be an integer, got 1.9",
    ),
    (
        _c2_file(differentials=[{"rows": 1, "cols": "1", "entries": [[[[1, 0]]]]}]),
        "cols must be an integer, got '1'",
    ),
    (_c2_file(group={"type": "cyclic", "order": 2.5}), "group order must be an integer, got 2.5"),
    (_c2_file(differentials=_c2_cell([True, 0], [-1, 1])), "coefficient must be an integer, got True"),
    (_c2_file(differentials=_c2_cell([1, 0], [-1.0, 1])), "coefficient must be an integer, got -1.0"),
    (_c2_file(differentials=_c2_cell([1, "0"], [-1, 1])), "element index must be an integer, got '0'"),
    (_c2_file(generators={"bottom": [1.0]}), "generator entry must be an integer, got 1.0"),
]


class TestMalformedNumbers:
    @pytest.mark.parametrize("data, message", MALFORMED_NUMBERS)
    def test_is_a_usage_error(self, capsys, tmp_path, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert "malformed complex file" in err and message in err
        code, out, _ = run(capsys, "homology", str(path), "--json")
        assert code == 2
        report = json.loads(out)
        assert "homology" not in report
        assert "malformed complex file" in report["error"] and message in report["error"]

    def test_the_unbroken_file_loads(self, capsys, tmp_path):
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(_c2_file(generators={"bottom": [1]})))
        code, out, _ = run(capsys, "homology", str(path), "--json")
        assert code == 0
        assert json.loads(out)["homology"]["groups"] == {"0": "Z", "1": "Z"}

    def test_malformed_map_file_is_a_usage_error(self, capsys, tmp_path):
        path = write_lens(tmp_path, 3)
        data = duality_map_to_json(lens_duality_map(3))
        data["components"][0]["rows"] = 1.0
        mapfile = tmp_path / "map.json"
        mapfile.write_text(json.dumps(data))
        code, out, err = run(capsys, "normalize", path, str(mapfile))
        assert code == 2
        assert out == ""
        assert "rows must be an integer, got 1.0" in err


class TestHomologyCommand:
    def test_table(self, capsys, tmp_path):
        path = write_lens(tmp_path, 5)
        code, out, _ = run(capsys, "homology", path, "--coefficients", "trivial", "--json")
        assert code == 0
        groups = json.loads(out)["homology"]["groups"]
        assert groups == {"0": "Z", "1": "Z/5", "2": "0", "3": "Z/5", "4": "0", "5": "Z"}

    def test_single_degree(self, capsys, tmp_path):
        path = write_lens(tmp_path, 5)
        code, out, _ = run(capsys, "homology", path, "--degree", "3", "--json")
        assert code == 0
        assert json.loads(out)["homology"]["groups"] == {"3": "0"}

    def test_degree_out_of_range(self, capsys, tmp_path):
        path = write_lens(tmp_path, 5)
        code, _, _ = run(capsys, "homology", path, "--degree", "7")
        assert code == 2

    def test_nonzero_composition_is_a_failing_verdict(self, capsys, tmp_path):
        path = write_complex(tmp_path, broken_lens(5), "broken.json")
        code, out, err = run(capsys, "homology", path, "--json")
        assert code == 1
        assert err == ""
        report = json.loads(out)
        assert "homology" not in report
        (verdict,) = report["verdicts"]
        assert verdict["name"] == "homology_computed"
        assert verdict["pass"] is False
        assert verdict["witness"] == [
            "boundary(1) . boundary(2) is nonzero at degree 1: not a complex at this spot"
        ]
        # a valid spot of the same complex still answers
        code, out, _ = run(capsys, "homology", path, "--degree", "3", "--json")
        assert code == 0
        assert json.loads(out)["homology"]["groups"] == {"3": "0"}


class TestObstructionCommand:
    def test_lens_four_obstructed_exit_zero(self, capsys, tmp_path):
        path = write_lens(tmp_path, 4)
        code, out, _ = run(capsys, "obstruction", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["obstruction"]["obstructed"] is True
        assert report["obstruction"]["j_rank_congruence"] == 3

    def test_lens_five_not_obstructed(self, capsys, tmp_path):
        path = write_lens(tmp_path, 5)
        code, out, _ = run(capsys, "obstruction", path, "--json")
        assert code == 0
        assert json.loads(out)["obstruction"]["obstructed"] is False

    def test_not_dual_form_is_usage_error(self, capsys, tmp_path):
        data = complex_to_json(lens_complex(4))
        data["differentials"][0]["entries"][0][0] = [[1, 0]]  # break the mirror
        path = tmp_path / "notdf.json"
        path.write_text(canonical_dumps(data))
        code, _, err = run(capsys, "obstruction", str(path))
        assert code == 2


class TestAsdCommand:
    def test_lens_not_asd(self, capsys, tmp_path):
        path = write_lens(tmp_path, 5)
        code, out, _ = run(capsys, "asd", path, "--json")
        assert code == 0
        assert json.loads(out)["anti_self_dual"] is False

    def test_asd_representative(self, capsys, tmp_path):
        out_file = tmp_path / "a5.json"
        run(capsys, "lens", "--n", "5", "--asd", "-o", str(out_file))
        code, out, _ = run(capsys, "asd", str(out_file), "--json")
        assert code == 0
        assert json.loads(out)["anti_self_dual"] is True


class TestDualformCommand:
    def test_pipeline_with_assembly(self, capsys, tmp_path):
        path = write_lens(tmp_path, 3)
        out_file = tmp_path / "stage6.json"
        code, out, _ = run(
            capsys, "dualform", path, "-o", str(out_file), "--assemble", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["assembled"] is True
        assert [m["position"] for m in report["moves"]] == [0, 4, 3, 1, 2]
        from zgdual.serialize import complex_from_json

        result = complex_from_json(json.loads(out_file.read_text()))
        assert validate_complex(result).ok
        assert result.ranks == (2, 4, 6, 6, 4, 2)

    def test_twisted_lens_assembly_round_trip(self, capsys, tmp_path):
        # the tail and dual head of this stage-6 complex differ by a unit
        # twist, so assembly needs a non-identity chain isomorphism
        A = lens_complex(5)
        G = A.group
        u = GRMatrix.one_by_one(GroupRingElement.basis(G, 1))
        u_inv = GRMatrix.one_by_one(GroupRingElement.basis(G, 4))
        d1, d2, *rest = A.differentials
        twisted = ChainComplex(G, A.ranks, (d1 @ u_inv, u @ d2, *rest), A.top_generator, A.bottom_generator)
        path = tmp_path / "twisted5.json"
        path.write_text(canonical_dumps(complex_to_json(twisted)))
        out_file = tmp_path / "assembled.json"
        code, out, _ = run(capsys, "dualform", str(path), "--assemble", "-o", str(out_file), "--json")
        assert code == 0
        assert json.loads(out)["assembled"] is True
        code, out, _ = run(capsys, "check", str(out_file), "--json")
        assert code == 0
        report = json.loads(out)
        assert all(v["pass"] for v in report["verdicts"])
        assert report["dual_form"]["recognized"] is True

    def test_pipeline_requires_membership(self, capsys, tmp_path):
        data = complex_to_json(lens_complex(3))
        data["differentials"][2]["entries"][0][0] = [[1, 0]]
        path = tmp_path / "notalg5.json"
        path.write_text(canonical_dumps(data))
        code, _, err = run(capsys, "dualform", str(path), "-o", str(tmp_path / "x.json"))
        assert code == 2


class TestNormalizeCommand:
    def test_lens_normalization(self, capsys, tmp_path):
        path = write_lens(tmp_path, 5)
        map_path = tmp_path / "phi.json"
        map_path.write_text(canonical_dumps(duality_map_to_json(lens_duality_map(5))))
        code, out, _ = run(capsys, "normalize", path, str(map_path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["normalization"]["theta1_aug_residue"] == 1
        assert report["normalization"]["theta2_aug_residue"] == 4
        assert report["normalization"]["negated_input"] is False

    def test_non_duality_map_fails(self, capsys, tmp_path):
        path = write_lens(tmp_path, 5)
        # identity components do not form a chain map dual(A) -> A
        from zgdual.complexes import dualize_complex, identity_map

        A = lens_complex(5)
        bogus = {"components": [{"rows": 1, "cols": 1, "entries": [[[[1, 0]]]]} for _ in range(6)]}
        map_path = tmp_path / "bogus.json"
        map_path.write_text(canonical_dumps(bogus))
        code, _, _ = run(capsys, "normalize", path, str(map_path), "--json")
        assert code == 1

    def test_not_in_dual_form_names_the_reasons(self, capsys, tmp_path):
        path = write_complex(tmp_path, twisted_lens(3), "twisted3.json")
        map_path = tmp_path / "phi.json"
        map_path.write_text(canonical_dumps(duality_map_to_json(lens_duality_map(3))))
        code, out, _ = run(capsys, "normalize", path, str(map_path), "--json")
        assert code == 2
        assert "boundary(5) is not the dual of boundary(1)" in json.loads(out)["error"]
