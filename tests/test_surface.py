"""The library exports only what the library itself uses.

Every name a module of flowsketch lists in ``__all__`` must be read
somewhere in the package outside ``__init__.py``, as a plain name or as an
attribute. A name that only the tests read belongs in ``tests/helpers.py``.
"""

import ast
from pathlib import Path

import flowsketch

PACKAGE = Path(flowsketch.__file__).parent


def _exported(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def test_every_exported_name_has_a_caller_in_the_package():
    exported, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _exported(tree):
            exported[name] = path.name
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert exported, f"no __all__ found under {PACKAGE}"
    unused = sorted(f"{mod}: {name}" for name, mod in exported.items()
                    if name not in used)
    assert not unused, f"exported but never used in the package: {unused}"
