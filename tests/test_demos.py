"""The demos are not run by the test suite, so a keyword removed from the
package would only show when someone runs one. Each call a demo makes to a
name it imports from dawin is bound against that name's signature."""
import ast
import importlib
import inspect
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _dawin_names(tree: ast.Module) -> dict:
    """Local name -> object for every `from dawin... import name`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dawin":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _callee(func: ast.expr, names: dict):
    """The dawin object a call goes to (a name, or a module's attribute), else None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module = names.get(func.value.id)
        if inspect.ismodule(module):
            assert hasattr(module, func.attr), f"{module.__name__} has no {func.attr}"
            return getattr(module, func.attr)
    return None


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_match_dawin_signatures(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = _dawin_names(tree)
    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = _callee(node.func, names)
        if fn is None or not callable(fn):
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        args = [] if starred else [None] * len(node.args)
        kwargs = {k.arg: None for k in node.keywords if k.arg is not None}
        try:
            inspect.signature(fn).bind_partial(*args, **kwargs)
        except TypeError as exc:
            pytest.fail(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}: {exc}")
        checked += 1
    assert checked > 0
