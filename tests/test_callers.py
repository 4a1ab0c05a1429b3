"""The library is no larger than its callers.

Every top-level function and class of src/zgdual (outside __init__.py)
must be named, as a whole word, somewhere besides its own definition: in
the library (again outside __init__.py), in scripts/ or in bench/, test
files excluded.  A name that only tests or the package's exports reach has
no caller; it goes, with its tests.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources(directory):
    paths = (ROOT / directory).glob("*.py")
    return sorted(p for p in paths if p.name != "__init__.py" and not p.name.startswith("test_"))


def test_every_library_name_has_a_caller():
    library = _sources("src/zgdual")
    callers = library + _sources("scripts") + _sources("bench")
    words = Counter(word for path in callers for word in re.findall(r"\w+", path.read_text()))
    definitions = Counter(
        node.name
        for path in library
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )
    assert definitions
    assert sorted(name for name, count in definitions.items() if words[name] <= count) == []
