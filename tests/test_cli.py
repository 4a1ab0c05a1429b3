import json
import time
import tracemalloc
from dataclasses import replace
from itertools import product

import pytest

from conftest import broken_lens, c70_loop_table, twisted_lens
from zgdual import lens
from zgdual.cli import main
from zgdual.complexes import ChainComplex, ChainMap, _direct_sum, dualize_complex, is_chain_map, validate_complex
from zgdual.dual_form import MAX_SEARCH_UNKNOWNS
from zgdual.group_core import GroupRingElement
from zgdual.gr_linalg import GRMatrix
from zgdual.lens import lens_complex, lens_duality_map
from zgdual.serialize import (
    MAX_CYCLIC_ORDER,
    MAX_MODULE_ZRANK,
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

    def test_report_and_duality_map_share_one_build(self, capsys, monkeypatch):
        # one L(n) and its C_n serve the report and the duality map, one more
        # the ASD transform; each build of C_997 is an O(n^2) table
        calls = {"lens_complex": 0, "cyclic_group": 0}

        def counted(name):
            real = getattr(lens, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(lens, name, wrapper)

        counted("lens_complex")
        counted("cyclic_group")
        code, out, _ = run(capsys, "lens", "--n", "997", "--json")
        assert code == 0
        assert json.loads(out)["asd_status"] == "anti-self-dual"
        assert calls == {"lens_complex": 2, "cyclic_group": 2}

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
    # the first bad term is reported, not the three-number term after it
    (_c2_file(differentials=_c2_cell([True, 0], [1, 2, 3])), "coefficient must be an integer, got True"),
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


class TestMalformedGenerators:
    """A generators field that is not an object with keys among top and
    bottom is a usage error, not a file without certificates."""

    @pytest.mark.parametrize(
        "generators, message",
        [
            ([], "generators must be an object, got list"),
            ([1], "generators must be an object, got list"),
            ("x", "generators must be an object, got str"),
            ({"top": [1], "botom": [1]}, "unknown generators key 'botom'"),
        ],
    )
    def test_is_a_usage_error(self, capsys, tmp_path, generators, message):
        data = complex_to_json(lens_complex(3))
        data["generators"] = generators
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 2
        report = json.loads(out)
        assert report["verdicts"] == []
        assert "malformed complex file" in report["error"] and message in report["error"]
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert message in err

    def test_either_certificate_alone_loads(self, capsys, tmp_path):
        for key in ("top", "bottom"):
            data = complex_to_json(lens_complex(3))
            data["generators"] = {key: [1]}
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(data))
            code, out, _ = run(capsys, "check", str(path), "--json")
            assert code == 0
            assert all(v["pass"] for v in json.loads(out)["verdicts"])


class TestHostileJson:
    def assert_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (2, "")
        assert message in json.loads(out)["error"]

    def test_deeply_nested_complex_file(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        for command in ("check", "homology"):
            self.assert_usage_error(capsys, (command, str(path)), "is not valid JSON: maximum recursion depth")

    def test_deeply_nested_map_file(self, capsys, tmp_path):
        mapfile = tmp_path / "nested.json"
        mapfile.write_text("[" * 100_000)
        argv = ("normalize", write_lens(tmp_path, 3), str(mapfile))
        self.assert_usage_error(capsys, argv, "is not valid JSON: maximum recursion depth")

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff\xfe{}")
        self.assert_usage_error(capsys, ("check", str(path)), "is not valid JSON: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("cell", ["\u0663 + t", "\uff12t", "1 + t^\u0662"])
    def test_non_ascii_digits_in_a_polynomial_string(self, capsys, tmp_path, cell):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(_c2_file(differentials=[{"rows": 1, "cols": 1, "entries": [[cell]]}])))
        self.assert_usage_error(capsys, ("check", str(path)), "cannot parse term")

    def test_a_cell_ending_in_a_newline(self, capsys, tmp_path):
        path = tmp_path / "newline.json"
        path.write_text(json.dumps(_c2_file(differentials=[{"rows": 1, "cols": 1, "entries": [["1 - t\n"]]}])))
        self.assert_usage_error(capsys, ("check", str(path)), "malformed complex file")

    # a grid or a row that is a string or an object, which a loop over cells
    # would read one character or key at a time, each a polynomial string
    GRIDS_THAT_ARE_NOT_ARRAYS = [
        (1, ["t"], "matrix row must be an array, got str"),
        (2, ["1t", "tt"], "matrix row must be an array, got str"),
        (1, {"t": 0}, "matrix entries must be an array, got dict"),
        (1, [{"t": 0}], "matrix row must be an array, got dict"),
        (1, "t", "matrix entries must be an array, got str"),
    ]

    @pytest.mark.parametrize("size, entries, message", GRIDS_THAT_ARE_NOT_ARRAYS)
    def test_a_grid_or_row_that_is_not_an_array(self, capsys, tmp_path, size, entries, message):
        matrix = {"rows": size, "cols": size, "entries": entries}
        data = _c2_file(group={"type": "cyclic", "order": 5}, ranks=[size, size], differentials=[matrix])
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(data))
        self.assert_usage_error(capsys, ("check", str(path)), f"malformed complex file: {message}")

    @pytest.mark.parametrize("size, entries, message", GRIDS_THAT_ARE_NOT_ARRAYS[:1] + GRIDS_THAT_ARE_NOT_ARRAYS[2:])
    def test_a_map_grid_or_row_that_is_not_an_array(self, capsys, tmp_path, size, entries, message):
        data = duality_map_to_json(lens_duality_map(5))
        data["components"][0]["entries"] = entries
        mapfile = tmp_path / "map.json"
        mapfile.write_text(json.dumps(data))
        argv = ("normalize", write_lens(tmp_path, 5), str(mapfile))
        self.assert_usage_error(capsys, argv, f"malformed chain map file: {message}")

    def test_integer_too_long_to_convert(self, capsys, tmp_path):
        text = json.dumps(_c2_file(group={"type": "cyclic", "order": 2}))
        path = tmp_path / "order.json"
        path.write_text(text.replace('"order": 2', '"order": ' + "7" * 5000))
        self.assert_usage_error(capsys, ("check", str(path)), "is not valid JSON: Exceeds the limit")


class TestOneReader:
    """Complex files and chain map files are read by one loader: each
    hostile file exits 2 without a traceback, and the two kinds of file
    report it in words that differ only in the kind's name."""

    FAILURES = {
        "missing": (None, "cannot read"),
        "not_utf8": (b"\xff\xfe{}", "is not valid JSON: 'utf-8' codec can't decode"),
        "not_json": (b"{not json", "is not valid JSON (line 1, column 2)"),
        "nested": (b"[" * 100_000, "is not valid JSON: maximum recursion depth"),
        "long_integer": (b"[" + b"7" * 5000 + b"]", "is not valid JSON: Exceeds the limit"),
        "wrong_structure": (b"[]", "malformed {what}: list indices must be integers"),
    }
    KINDS = {"complex file": ("check", "{bad}"), "chain map file": ("normalize", "{lens}", "{bad}")}

    def error(self, capsys, tmp_path, what, failure):
        content, _ = self.FAILURES[failure]
        bad = tmp_path / "input.json"
        if content is not None:
            bad.write_bytes(content)
        lens = write_lens(tmp_path, 3)
        argv = [a.format(bad=bad, lens=lens) for a in self.KINDS[what]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("failure", FAILURES)
    @pytest.mark.parametrize("what", KINDS)
    def test_exits_2_and_names_the_failure(self, capsys, tmp_path, what, failure):
        assert self.FAILURES[failure][1].format(what=what) in self.error(capsys, tmp_path, what, failure)

    @pytest.mark.parametrize("failure", FAILURES)
    def test_both_kinds_report_alike(self, capsys, tmp_path, failure):
        complex_error = self.error(capsys, tmp_path, "complex file", failure)
        map_error = self.error(capsys, tmp_path, "chain map file", failure)
        assert map_error.replace("chain map file", "complex file") == complex_error


class TestBoundedArguments:
    """A search budget below 1, a group order above MAX_CYCLIC_ORDER and a
    module Z-rank above MAX_MODULE_ZRANK are usage errors, reported before
    any work is done; a search lattice above MAX_SEARCH_UNKNOWNS, before
    the search builds anything."""

    def assert_usage_error(self, capsys, argv, as_json, message):
        code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 2
        if as_json:
            report = json.loads(out)
            assert (report["error"], report["verdicts"], err) == (message, [], "")
        else:
            assert (out, err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("budget", [0, -3])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_budget_below_one(self, capsys, tmp_path, budget, as_json):
        out_file = tmp_path / "stage6.json"
        argv = ["dualform", write_lens(tmp_path, 3), "--assemble", "--budget", str(budget), "-o", str(out_file)]
        self.assert_usage_error(capsys, argv, as_json, f"--budget must be at least 1, got {budget}")
        assert not out_file.exists()
        # checked before the file is read
        argv[1] = str(tmp_path / "missing.json")
        self.assert_usage_error(capsys, argv, as_json, f"--budget must be at least 1, got {budget}")

    @pytest.mark.parametrize("as_json", [False, True])
    def test_cyclic_order_above_the_limit(self, capsys, tmp_path, as_json):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(_c2_file(group={"type": "cyclic", "order": 10**9})))
        tracemalloc.start()
        try:
            self.assert_usage_error(
                capsys, ("check", str(path)), as_json,
                f"{path}: malformed complex file: cyclic group order {10**9} exceeds the limit {MAX_CYCLIC_ORDER}",
            )
            for n in (10**9, MAX_CYCLIC_ORDER + 1):
                self.assert_usage_error(
                    capsys, ("lens", "--n", str(n)), as_json,
                    f"lens spaces need n <= {MAX_CYCLIC_ORDER}, the cyclic order limit",
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a table of order 10**9 would need 10**18 entries; none is started
        assert peak < 1_000_000

    @pytest.mark.parametrize("as_json", [False, True])
    def test_table_order_above_the_limit(self, capsys, tmp_path, as_json):
        """The standard C_1001 table, which a table of order above the bound
        would otherwise be read as, and which -o would write as an order."""
        n = MAX_CYCLIC_ORDER + 1
        path = tmp_path / "big_table.json"
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        path.write_text(json.dumps(_c2_file(group={"type": "table", "mul": table})))
        self.assert_usage_error(
            capsys, ("check", str(path)), as_json,
            f"{path}: malformed complex file: group table of order {n} exceeds the limit {MAX_CYCLIC_ORDER}",
        )

    @pytest.mark.parametrize("as_json", [False, True])
    def test_module_zrank_above_the_limit(self, capsys, tmp_path, as_json):
        """The 128-byte file that declared a rank of 10**6 with no content
        behind it, and one just above the limit."""
        for rank in (10**6, MAX_MODULE_ZRANK + 1):
            path = tmp_path / "wide.json"
            data = {
                "group": {"type": "cyclic", "order": 1},
                "ranks": [rank, 0],
                "differentials": [{"rows": 0, "cols": rank, "entries": []}],
            }
            path.write_text(json.dumps(data))
            tracemalloc.start()
            try:
                self.assert_usage_error(
                    capsys, ("homology", str(path)), as_json,
                    f"{path}: malformed complex file: the degree-1 module has Z-rank {rank} x 1 = {rank}, "
                    f"above the limit {MAX_MODULE_ZRANK}",
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    def test_search_lattice_above_the_limit(self, capsys, tmp_path):
        """A 17 KiB member whose stage-6 tail has ranks (2, 4, 26): its
        lattice has 70,296 unknowns.  Budget 1 tries the identity alone."""
        path = write_complex(tmp_path, _direct_sum(twisted_lens(101), [(2, 10)]), "wide_tail.json")
        message = f"the chain-map lattice has 70296 unknowns, above the search limit {MAX_SEARCH_UNKNOWNS}"
        for budget, code, error in ((64, 2, message), (1, 0, None)):
            tracemalloc.start()
            started = time.monotonic()
            try:
                result = run(capsys, "dualform", path, "--assemble", "--budget", str(budget), "--json")
                elapsed = time.monotonic() - started
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (result[0], json.loads(result[1]).get("error")) == (code, error)
            assert elapsed < 1 and peak < 10 * 2**20


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


class TestUnwritableOutput:
    """An -o path that cannot be written is a usage error, not a traceback."""

    @pytest.mark.parametrize("command", ["lens", "dualform"])
    @pytest.mark.parametrize("target", ["missing_dir/x.json", "."])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_exit_2_with_the_path_named(self, capsys, tmp_path, command, target, as_json):
        args = ["lens", "--n", "5"] if command == "lens" else ["dualform", write_lens(tmp_path, 3)]
        output = str(tmp_path / target)
        code, out, err = run(capsys, *args, "-o", output, *(["--json"] if as_json else []))
        assert code == 2
        if as_json:
            assert json.loads(out)["error"].startswith(f"cannot write {output}: ")
            assert err == ""
        else:
            assert out == ""
            assert err.startswith(f"error: cannot write {output}: ")


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

    @pytest.mark.parametrize("n", [2, 5, 7, 9])
    def test_certificate_signs_change_nothing(self, capsys, tmp_path, n):
        # the end scalars read both certificates in one sign, so a file whose
        # two certificates differ in sign normalizes like the (1, 1) file
        phi = lens_duality_map(n)
        map_path = tmp_path / "phi.json"
        map_path.write_text(canonical_dumps(duality_map_to_json(phi)))
        results = {}
        for bottom, top in product((1, -1), repeat=2):
            C = replace(lens_complex(n), bottom_generator=(bottom,), top_generator=(top,))
            path = write_complex(tmp_path, C, f"lens_{bottom}_{top}.json")
            code, out, _ = run(capsys, "normalize", path, str(map_path), "--json")
            assert code == 0
            report = json.loads(out)
            results[bottom, top] = report["normalization"], report["verdicts"]
            assert is_chain_map(ChainMap(dualize_complex(C), C, phi.components)).end_scalars == (1, -1)
        assert all(r == results[1, 1] for r in results.values())

    @pytest.mark.parametrize("bottom, top, end", [(3, 3, "bottom"), (1, 3, "top"), (-3, -1, "bottom")])
    def test_invalid_certificates_fail(self, capsys, tmp_path, bottom, top, end):
        # 3 kills the augmented boundary but does not generate the end: check
        # rejects it, and normalize does not read end scalars through it
        C = replace(lens_complex(5), bottom_generator=(bottom,), top_generator=(top,))
        path = write_complex(tmp_path, C, "lens.json")
        map_path = tmp_path / "phi.json"
        map_path.write_text(canonical_dumps(duality_map_to_json(lens_duality_map(5))))
        assert run(capsys, "check", path)[0] == 1
        code, out, _ = run(capsys, "normalize", path, str(map_path), "--json")
        assert code == 1
        (verdict,) = json.loads(out)["verdicts"]
        assert verdict == {
            "name": "normalization",
            "pass": False,
            "info": f"the stored {end} certificate does not generate the {end} end",
        }

    def test_non_duality_map_fails(self, capsys, tmp_path):
        path = write_lens(tmp_path, 5)
        # identity components do not form a chain map dual(A) -> A
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


class TestExitRule:
    """Every subcommand exits 2 on an error, else 1 when a verdict fails, else 0."""

    @staticmethod
    def files(tmp_path):
        phi = tmp_path / "phi5.json"
        phi.write_text(canonical_dumps(duality_map_to_json(lens_duality_map(5))))
        # identity components do not form a chain map dual(A) -> A
        bogus = tmp_path / "bogus.json"
        bogus.write_text(canonical_dumps({"components": [{"rows": 1, "cols": 1, "entries": [[[[1, 0]]]]}] * 6}))
        return {
            "lens3": write_lens(tmp_path, 3, "lens3.json"),
            "lens4": write_lens(tmp_path, 4, "lens4.json"),
            "lens5": write_lens(tmp_path, 5, "lens5.json"),
            "broken5": write_complex(tmp_path, broken_lens(5), "broken5.json"),
            "phi5": str(phi),
            "bogus": str(bogus),
            "missing": str(tmp_path / "missing.json"),
            "out": str(tmp_path / "out.json"),
        }

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ("check {lens5}", 0),
            ("homology {lens5} --coefficients trivial", 0),
            ("dualform {lens3} --assemble -o {out}", 0),
            ("normalize {lens5} {phi5}", 0),
            ("asd {lens5}", 0),
            ("obstruction {lens4}", 0),
            ("lens --n 5 --asd -o {out}", 0),
            ("check {broken5}", 1),
            ("homology {broken5}", 1),
            ("normalize {lens5} {bogus}", 1),
            ("check {missing}", 2),
            ("homology {missing}", 2),
            ("dualform {missing}", 2),
            ("normalize {lens5} {missing}", 2),
            ("asd {missing}", 2),
            ("obstruction {missing}", 2),
            ("lens --n 1", 2),
        ],
    )
    def test_code_follows_the_verdicts(self, capsys, tmp_path, argv, expected):
        files = self.files(tmp_path)
        code, out, _ = run(capsys, *(word.format(**files) for word in argv.split()), "--json")
        body = json.loads(out)
        assert code == (2 if "error" in body else 1 if any(not v["pass"] for v in body["verdicts"]) else 0)
        assert code == expected


class TestInternalErrors:
    """An exception inside a handler is a failing verdict, not a traceback."""

    @pytest.mark.parametrize(
        "target, exc, argv",
        [
            ("zgdual.dual_form.assemble_dual_form", ValueError("no inverse"),
             ("dualform", "{lens3}", "--assemble", "-o", "{out}")),
            ("zgdual.complexes.five_complex_report", AssertionError("broken invariant"), ("check", "{lens3}")),
        ],
    )
    @pytest.mark.parametrize("as_json", [True, False])
    def test_exit_1_with_the_report(self, capsys, tmp_path, monkeypatch, target, exc, argv, as_json):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(target, fail)
        files = {"lens3": write_lens(tmp_path, 3, "lens3.json"), "out": str(tmp_path / "out.json")}
        words = [word.format(**files) for word in argv]
        info = f"{type(exc).__name__}: {exc}"
        code, out, err = run(capsys, *words, *(["--json"] if as_json else []))
        assert code == 1
        assert "Traceback" not in out + err and err == ""
        if as_json:
            body = json.loads(out)
            assert "error" not in body
            assert body["verdicts"][-1] == {"name": "internal_error", "pass": False, "info": info}
        else:
            assert f"FAIL internal_error  ({info})" in out.splitlines()
