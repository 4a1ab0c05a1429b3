"""The library is no larger than its callers.

Every top-level function and class of src/zgdual (outside __init__.py),
and every method, property and dataclass field of those classes, must be
read by code outside tests: the library (again outside __init__.py),
scripts/ or bench/.  A read is what ``ast`` sees, not a word.  A top-level
name counts when it is loaded as ``name`` or ``.name``; a class member
counts only when it is loaded as ``.name``.  Either counts when
bench/spans.py's ``_targets`` wraps it by its string name.  Docstrings and
comments count for nothing.  A name that only tests or the package's
exports reach has no caller; it goes, with its tests.

Dunder methods are exempt, since Python calls them.  The scan matches
names, not types, so a read of any attribute of the same name keeps a
member alive.  Before they were deleted, ``IntegerMatrix.identity`` and
``AsdTransform.n`` had no caller outside tests, yet escaped: the first
because the library reads ``GRMatrix.identity``, the second because
the CLI reads ``args.n``.  ``NormalizedDuality.homotopy`` escapes the
same way today, through bench's ``t.homotopy`` on an ``AsdTransform``; it
stays as the witness that a re-checkable normalize verdict will write out.

Every input file is parsed at one ``json.load`` or ``json.loads`` site in
src/zgdual, so each meets the same hostile-input handling.

Every module-level import of src/zgdual (outside __init__.py) and scripts/
is read in its module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources(directory):
    paths = (ROOT / directory).glob("*.py")
    return [
        p.read_text()
        for p in sorted(paths)
        if p.name != "__init__.py" and not p.name.startswith("test_")
    ]


def _definitions(library):
    """(shown name, read name, is a member) for each top-level function and
    class, and each non-dunder method, property and annotated field of the
    top-level classes."""
    for source in library:
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield node.name, node.name, False
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{node.name}.{name}", name, True


def _traced(spans):
    """The attribute names that ``_targets`` in a bench/spans.py source
    wraps: the third entry of each tuple in the list it returns."""
    targets = next(n for n in ast.walk(ast.parse(spans)) if isinstance(n, ast.FunctionDef) and n.name == "_targets")
    returned = next(n.value for n in ast.walk(targets) if isinstance(n, ast.Return))
    return {target.elts[2].value for target in returned.elts}


def unread(library, callers, spans):
    """The definitions of the ``library`` sources that neither they nor the
    ``callers`` sources read, and that the ``spans`` source does not trace."""
    names, attributes = set(), set()
    for source in library + callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    attributes |= _traced(spans)
    return sorted(
        shown
        for shown, name, member in _definitions(library)
        if name not in attributes and (member or name not in names)
    )


def test_every_library_name_has_a_caller():
    library = _sources("src/zgdual")
    assert list(_definitions(library))
    callers = _sources("scripts") + _sources("bench")
    assert unread(library, callers, (ROOT / "bench" / "spans.py").read_text()) == []


def json_reads(library):
    """The number of calls of ``json.load`` and ``json.loads`` in the
    ``library`` sources."""
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("load", "loads")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        for source in library
        for node in ast.walk(ast.parse(source))
    )


def test_one_json_reader():
    assert json_reads(_sources("src/zgdual")) == 1
    assert json_reads(["json.load(fh)\njson.loads(text)\nfh.load()\n"]) == 2


def unused_imports(source):
    """The names that the module-level imports of ``source`` bind and that
    its code never loads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in loaded]


def test_every_import_is_read():
    sources = _sources("src/zgdual") + _sources("scripts")
    assert sources
    assert [name for source in sources for name in unused_imports(source)] == []
    source = """from __future__ import annotations

import json
import os.path
import re as regex
from math import gcd, prod
from zgdual import lens as L


def f(x):  # gcd
    return json.dumps(prod(x)), L.lens_complex, "os"
"""
    assert unused_imports(source) == ["os", "regex", "gcd"]


def test_the_scan_reads_code_not_words():
    library = '''
@dataclass(frozen=True)
class Box:
    """Box.size, Box.open() and helper() are named here only."""

    size: int
    used: int

    def open(self):
        return self

    def close(self):
        return self

    def __len__(self):
        return self.used


def helper():  # helper
    return None


def traced():
    return None


def run(box):
    return box.close()
'''
    callers = ["box = Box(size=1, used=2)\nbox.size = 3\nrun(box)\n"]
    spans = 'def _targets():\n    return [("lib.traced", lib, "traced", None, ())]\n'
    assert unread([library], callers, spans) == ["Box.open", "Box.size", "helper"]
