"""Public surface: every exported name is one the library or the README uses.

A name in `noma_ggn.__all__` or in a module's `__all__` must be read
somewhere in the package's own modules (a Name load or an attribute access,
`__init__.py` aside) or in a README `python` block; a symbol only tests call
has no place in the public surface.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import noma_ggn

PACKAGE = Path(noma_ggn.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def loaded_names(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def used_names() -> set:
    names = set()
    for path in MODULES:
        names |= loaded_names(path.read_text(encoding="utf-8"))
    for block in re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        names |= loaded_names(block)
    return names


def exported():
    yield from (("noma_ggn", name) for name in noma_ggn.__all__)
    for path in MODULES:
        module = importlib.import_module(f"noma_ggn.{path.stem}")
        yield from ((module.__name__, name) for name in getattr(module, "__all__", ()))


USED = used_names()


@pytest.mark.parametrize("module,name", sorted(set(exported())))
def test_exported_name_is_used(module, name):
    assert name in USED, f"{module}.{name} is exported but only tests use it"
