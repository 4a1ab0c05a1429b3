"""The two sweep scripts print exactly the lines recorded in tests/golden/.

Each script runs in its own interpreter with src/ first on PYTHONPATH, as
the scripts' usage lines describe, and its stdout is compared with the
recorded file line for line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = {
    "stage6_assembly_search_max_n_11.txt": ("stage6_assembly_search.py", "--max-n", "11"),
    "lens_family_report_max_n_60.txt": ("lens_family_report.py", "--max-n", "60"),
}


@pytest.mark.parametrize("golden", GOLDEN)
def test_script_prints_its_golden_lines(golden):
    script, *args = GOLDEN[golden]
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == (ROOT / "tests" / "golden" / golden).read_text().splitlines()
