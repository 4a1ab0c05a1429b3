"""Every CLI subcommand prints, exits and writes what tests/golden/cli/ records.

Each case runs zgdual.cli.main in process, in a fresh directory holding the
recorded input files, once with --json and once without.  A --json body is
compared without its wall-clock "timings"; human output and stderr are
compared as text, and the file a case writes byte for byte.  The inputs are
L(7), its duality map, the S3 presentation complex, twisted L(4) and L(5)
with boundary(2) broken (conftest.broken_lens), as the library writes them.
The broken complex pins the wording of a failing check's witness.
"""

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import broken_lens, sym3_presentation, twisted_lens
from zgdual.cli import main
from zgdual.lens import lens_complex, lens_duality_map
from zgdual.serialize import canonical_dumps, complex_to_json, duality_map_to_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
WRITTEN = "out.json"


def inputs():
    """Input file name -> its text as the library writes it."""
    return {
        "L7.json": canonical_dumps(complex_to_json(lens_complex(7))),
        "L7_map.json": canonical_dumps(duality_map_to_json(lens_duality_map(7))),
        "S3.json": canonical_dumps(complex_to_json(sym3_presentation()[0])),
        "twisted_L4.json": canonical_dumps(complex_to_json(twisted_lens(4))),
        "broken_L5.json": canonical_dumps(complex_to_json(broken_lens(5))),
    }


def _per_complex(stem):
    f = f"{stem}.json"
    return {
        f"check_{stem}": ("check", f),
        f"homology_{stem}": ("homology", f),
        f"homology_trivial_{stem}": ("homology", f, "--coefficients", "trivial"),
        f"obstruction_{stem}": ("obstruction", f),
        f"asd_{stem}": ("asd", f),
    }


CASES = {
    "lens_5": ("lens", "--n", "5"),
    "lens_9_asd": ("lens", "--n", "9", "--asd", "-o", WRITTEN),
    **_per_complex("L7"),
    **_per_complex("S3"),
    "normalize_L7": ("normalize", "L7.json", "L7_map.json"),
    "dualform_assemble_twisted_L4": ("dualform", "twisted_L4.json", "--assemble", "-o", WRITTEN),
    "check_broken_L5": ("check", "broken_L5.json"),
    "homology_broken_L5": ("homology", "broken_L5.json"),
}


def run_case(argv, workdir: Path) -> dict:
    """The exit code, stdout and stderr of argv with and without --json, run
    in workdir (the --json body without "timings"), and the text of the file
    it writes, or None."""
    record = {}
    for mode, extra in (("json", ["--json"]), ("human", [])):
        (workdir / WRITTEN).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, *extra])
        stdout = out.getvalue()
        if mode == "json":
            body = json.loads(stdout)
            del body["timings"]
            stdout = body
        written = workdir / WRITTEN
        record[mode] = {
            "code": code,
            "stdout": stdout,
            "stderr": err.getvalue(),
            "written": written.read_text() if written.exists() else None,
        }
    return record


def test_every_case_matches_its_golden(tmp_path, monkeypatch):
    for name, text in inputs().items():
        assert (GOLDEN / name).read_text() == text, f"{name} is not written as recorded"
        shutil.copy(GOLDEN / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    expected = json.loads((GOLDEN / "expected.json").read_text())
    assert sorted(expected) == sorted(CASES)
    differs = []
    for name, argv in CASES.items():
        got = run_case(argv, tmp_path)
        for mode in ("json", "human"):
            want = dict(expected[name][mode])
            if want["written"] is not None:
                want["written"] = (GOLDEN / want["written"]).read_text()
            for key, value in want.items():
                if got[mode][key] != value:
                    differs.append(f"{name} ({mode}): {key}")
    assert not differs, differs
