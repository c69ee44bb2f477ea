"""The library exports only what the library itself uses.

Every public name of flowsketch, whether a module lists it in ``__all__``
or defines it at module level as a function or a class, must be read
somewhere in the package outside ``__init__.py``, as a plain name or as an
attribute. A name that only the tests read belongs in ``tests/helpers.py``.
``__init__.py`` is skipped: it only re-exports names that its modules list
in their own ``__all__`` (``tests/test_cli.py`` checks that).

The warning filter in ``pyproject.toml`` makes a deprecation warned from
a flowsketch module fail the tests, so a deprecated numpy or scipy call in
the package is found before the call is removed.
"""

import ast
import warnings
from pathlib import Path

import pytest

import flowsketch

PACKAGE = Path(flowsketch.__file__).parent


def _public(tree: ast.Module) -> set:
    """Names listed in __all__, and public module-level functions and
    classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                not node.name.startswith("_"):
            names.add(node.name)
    return names


def test_every_exported_name_has_a_caller_in_the_package():
    public, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _public(tree):
            public[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert public, f"no public names found under {PACKAGE}"
    unused = sorted(f"{mod}: {name}" for name, mod in public.items()
                    if name not in used)
    assert not unused, f"public but never used in the package: {unused}"


@pytest.mark.parametrize(
    "category", [DeprecationWarning, PendingDeprecationWarning, RuntimeWarning])
def test_a_deprecation_warned_in_the_package_is_an_error(category):
    # pyproject's filterwarnings: raised from a flowsketch module, it fails
    # the test; raised from another module, it stays a warning. numpy's
    # floating-point warnings are RuntimeWarnings
    with pytest.raises(category):
        warnings.warn_explicit("deprecated", category, "cli.py", 1,
                               module="flowsketch.cli")
    with warnings.catch_warnings(record=True):
        warnings.warn_explicit("deprecated", category, "core.py", 1,
                               module="numpy.core")
