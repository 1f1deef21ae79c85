"""Every name the package and its tests import is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """(line, name) of each name `path` imports and never loads.

    A package's ``__init__`` re-exports what it imports, and an import
    marked ``# noqa: F401`` is made for its side effect; both count as
    used.  ``from __future__`` imports set compiler flags, not names.
    """
    if path.name == "__init__.py":
        return []
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            name = (alias.asname or alias.name).partition(".")[0]
            if name not in loaded:
                out.append((node.lineno, name))
    return out


def test_every_import_is_used():
    files = sorted([*ROOT.glob("src/torus_cse/*.py"), *ROOT.glob("tests/*.py")])
    assert len(files) > 20
    unused = {str(f.relative_to(ROOT)): found for f in files
              if (found := unused_imports(f))}
    assert unused == {}
