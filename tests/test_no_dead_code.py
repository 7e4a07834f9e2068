"""Guard against dead code in the library.

Every top-level function and class, every method other than dunders, and
every module-level name assigned (dunders excluded) of `src/gcba/*.py` must
be named somewhere in `src/`, `tests/` or `bench/` besides its own
definition.  A name counts as used when it is read as a name, or appears as
an attribute, an imported name or a word inside a string constant (the
benchmark tracer locates its targets by strings such as
"GeodesicEngine.distance"); storing to a name does not use it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "bench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, name) of top-level functions and classes, of the
    non-dunder methods of top-level classes and of the non-dunder names
    assigned at module level."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not _dunder(name.id):
                    yield name.id, name.id
        if not isinstance(node, defs):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(WORD.findall(node.value))
    return used


def unused_definitions(root: Path = ROOT) -> list[str]:
    trees = {}
    for top in SEARCHED:
        for path in sorted((root / top).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(), filename=str(path))
    used: set[str] = set()
    for tree in trees.values():
        used |= _used_names(tree)
    out = []
    for path in sorted((root / "src" / "gcba").glob("*.py")):
        for qualname, name in _definitions(trees[path]):
            if name not in used:
                out.append(f"{path.name}:{qualname}")
    return out


def test_every_definition_is_named_somewhere():
    assert unused_definitions() == []


# The complex builders take the Settings a complex carries; every other
# function reads the settings of the complex it works on.  In corpus.py each
# top-level function is a builder.
BUILDERS = {"complexes.py:MetricComplex.__init__", "complexes.py:build_complex",
            "complexes.py:load_complex", "complexes.py:complex_from_json_dict"}


def _functions(node, prefix=""):
    """(qualified name, node) of every function and method below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def settings_parameters(root: Path = ROOT) -> list[str]:
    """Functions and methods of `src/gcba`, other than the complex builders,
    with a parameter named `settings`."""
    out = []
    for path in sorted((root / "src" / "gcba").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, fn in _functions(tree):
            a = fn.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            name = f"{path.name}:{qualname}"
            builder = name in BUILDERS or (path.name == "corpus.py"
                                           and "." not in qualname)
            if "settings" in params and not builder:
                out.append(name)
    return out


def test_only_builders_take_settings():
    assert settings_parameters() == []
