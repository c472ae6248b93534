"""README's code references name objects and test files that exist."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import bncsim

ROOT = Path(__file__).resolve().parent.parent
#: README without its fenced code blocks, and its inline code spans.
README = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
SPANS = re.findall(r"`([^`]+)`", README)
MODULES = {info.name for info in pkgutil.iter_modules(bncsim.__path__)}


def test_module_names_resolve():
    """Each `module.name` span, a call's arguments aside, names an
    attribute of that bncsim module."""
    refs = {
        (match[1], match[2])
        for span in SPANS
        if (match := re.match(r"(\w+)\.(\w+)", span)) and match[1] in MODULES
    }
    assert refs
    missing = [
        f"{module}.{name}"
        for module, name in sorted(refs)
        if not hasattr(importlib.import_module(f"bncsim.{module}"), name)
    ]
    assert not missing


def test_test_paths_resolve():
    """Each `tests/...` span names a file that exists, and each
    `tests/x.py::a::b` a class or function a, with b inside it."""
    refs = {span for span in SPANS if span.startswith("tests/")}
    assert refs
    for ref in refs:
        path, *names = ref.split("::")
        assert (ROOT / path).is_file(), ref
        scope = ast.parse((ROOT / path).read_text()).body
        for name in names:
            found = [
                node for node in scope
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            ]
            assert found, ref
            scope = found[0].body
