"""README's verdict catalogue lists exactly the verdict names the CLI emits.

The names are collected from the _verdict("...") calls in zgdual/cli.py
and from the recorded CLI goldens; the catalogue is the table under
README's "Verdicts" heading, one backquoted name per row.
"""

import ast
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cli_names():
    tree = ast.parse((ROOT / "src" / "zgdual" / "cli.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_verdict"
    ]
    # a name built at run time would escape the catalogue
    assert all(isinstance(call.args[0], ast.Constant) for call in calls)
    return {call.args[0].value for call in calls}


def _golden_names():
    names = set()

    def walk(obj):
        if isinstance(obj, dict):
            if "name" in obj and "pass" in obj:
                names.add(obj["name"])
            obj = list(obj.values())
        if isinstance(obj, list):
            for item in obj:
                walk(item)

    for path in (ROOT / "tests" / "golden" / "cli").glob("*.json"):
        walk(json.loads(path.read_text()))
    return names


def _catalogue():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n### Verdicts\n", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE))


def test_every_emitted_verdict_is_catalogued():
    emitted = _cli_names() | _golden_names()
    listed = _catalogue()
    assert sorted(emitted - listed) == []
    assert sorted(listed - emitted) == []
