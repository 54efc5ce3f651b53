"""The public surface of the package.

`treeqi` exports exactly the names that README's "Public API" lists, and no
module of the package defines or imports a name of the tuple model of the
tree, which lives in tests/reference.py.
"""

import ast
import re
import types
from pathlib import Path

import treeqi

README = Path(__file__).resolve().parent.parent / "README.md"

# the tuple model of the tree, kept in tests/reference.py
MOVED = {
    "lca",
    "lca_pair",
    "is_descendant",
    "common_prefix_len",
    "distance",
    "depth",
    "parent",
    "geodesic",
    "d_children",
    "d_children_count",
    "FiniteSubtree",
    "boundary",
    "grow_subtree",
}


def _readme_api() -> set:
    """The names in the list of README's "Public API" section."""
    section = README.read_text(encoding="utf-8").split("\n## Public API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)`", section[section.index("\n- ") :]))


def _bound_names(tree: ast.Module) -> list:
    """(line, name) for every module-level definition and every import."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.append((node.lineno, alias.name.split(".")[-1]))
                out += [(node.lineno, alias.asname)] if alias.asname else []
    return out


def test_treeqi_exports_the_readme_list():
    # the package binds each name on first use (PEP 562), so `vars()` holds
    # only the names read so far: the list is `__all__`, `dir()` shows it,
    # and every name in it resolves
    public = {
        name
        for name in dir(treeqi)
        if not name.startswith("_") and not isinstance(getattr(treeqi, name), types.ModuleType)
    }
    assert set(treeqi.__all__) == public == _readme_api()


def test_no_module_defines_or_imports_a_moved_name():
    modules = sorted(Path(treeqi.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        moved = [(line, name) for line, name in _bound_names(tree) if name in MOVED]
        assert not moved, (path.name, moved)
