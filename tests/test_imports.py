"""Every name the package and its tests import is used, and the modules
kept apart on purpose import nothing of each other."""

import ast
from collections import defaultdict
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


def package_imports(module):
    """Per module of the package that src/torus_cse/`module`.py imports
    from, the names it takes; a module imported whole takes "*"."""
    tree = ast.parse((ROOT / "src" / "torus_cse" / f"{module}.py").read_text())
    out = defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if source.partition(".")[0] != "torus_cse":
                    continue
                source = source.partition(".")[2]
            if source:
                out[source.partition(".")[0]] |= {a.name for a in node.names}
            else:
                for alias in node.names:
                    out[alias.name].add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "torus_cse" and len(parts) > 1:
                    out[parts[1]].add("*")
    return dict(out)


def test_engine_only_counts():
    # the walk hands over counts and one torus shift; the sections, the
    # rank and the container are the codec's
    found = package_imports("engine")
    assert found and not {"codec", "oracle", "verify"} & set(found)
    assert "shift_ids" not in found.get("blocks", set())


def test_oracle_stands_alone():
    # the brute-force reference shares nothing with what it checks but
    # the Block type
    found = package_imports("oracle")
    assert found["blocks"] == {"Block"}
    assert not {"engine", "codec", "verify"} & set(found)


def test_verify_uses_only_public_oracle_names():
    # the exhaustive sweep enumerates through `oracle.all_blocks`, guard
    # and all, not through the oracle's private helpers
    found = package_imports("verify")
    assert "all_blocks" in found["oracle"]
    assert not {name for name in found["oracle"] if name.startswith("_")}


# numpy's Python-level wrappers, each with the C entry point a per-build
# step calls instead: the wrapper costs a few microseconds more per call
# (np.clip 7.9 us against 3.2 us for np.maximum and np.minimum on 300 ids,
# np.broadcast_to 6.4 us against 1.2 us for the view), and a walk makes
# thousands of builds per grid
C_ENTRY_POINTS = {
    "clip": "np.maximum and np.minimum",
    "broadcast_to": "a read-only zero-stride np.ndarray view",
    "full": "np.empty, then .fill",
    "flatnonzero": ".nonzero()[0]",
    "take": "the ndarray method .take",
    "cumsum": "np.add.accumulate, with a dtype for a mask",
    "repeat": "the ndarray method .repeat",
    "argsort": "the ndarray method .argsort",
    "searchsorted": "the ndarray method .searchsorted",
    "diff": "a difference of slices, a[1:] - a[:-1]",
}


def wrapper_calls(tree):
    """(line, name) of each call under `tree` of a numpy wrapper named in
    `C_ENTRY_POINTS`, written `np.name(...)` or `numpy.name(...)`."""
    return [(node.lineno, node.func.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and node.func.attr in C_ENTRY_POINTS]


def test_per_build_steps_call_numpy_c_entry_points():
    # the walk's builds and the blocks helpers each build runs
    src = ROOT / "src" / "torus_cse"
    scopes = {"engine.py": ast.parse((src / "engine.py").read_text())}
    blocks = {node.name: node
              for node in ast.parse((src / "blocks.py").read_text()).body
              if isinstance(node, ast.FunctionDef)}
    for name in ("_run_bases", "_expand_runs", "slab_bounds"):
        scopes[f"blocks.{name}"] = blocks[name]
    found = [f"{scope} line {line}: np.{name}; call {C_ENTRY_POINTS[name]}"
             for scope, tree in scopes.items()
             for line, name in wrapper_calls(tree)]
    assert not found, "\n".join(found)
