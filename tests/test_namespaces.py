"""The lazy package namespaces keep the eager ones' contract.

Every package ``__init__`` (and the flat ``repro.api`` facade) hands one
table, submodule -> names, to ``repro._lazy_namespace``; a name is
imported on first access.  For each of them: every ``__all__`` name
resolves to the object its submodule holds, ``dir()`` lists it, ``from X
import *`` binds it, an unknown name raises an ``AttributeError`` that
names the module, and the docstring's examples run in a fresh
interpreter.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

NAMESPACES = ["repro", "repro.api"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def lazy_table(module) -> dict:
    """The literal table the module passes to ``_lazy_namespace``."""
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_lazy_namespace"):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{module.__name__} builds no lazy namespace")


def resolve(module, sub, export):
    """``export`` read from the submodule ``sub`` names, bypassing ``module``."""
    if sub == ".":
        return importlib.import_module(f"{module.__package__}.{export}")
    return getattr(importlib.import_module(sub, module.__package__), export)


@pytest.mark.parametrize("name", NAMESPACES)
def test_namespace_contract(name):
    module = importlib.import_module(name)
    # Import every submodule first: an export must not be shadowed by a
    # submodule of the same name once that submodule has been loaded.
    for info in pkgutil.iter_modules(getattr(module, "__path__", [])):
        importlib.import_module(f"{name}.{info.name}")
    table = lazy_table(module)
    exported = [export for names in table.values() for export in names]
    assert len(exported) == len(set(exported)), "a name is listed twice"
    assert set(module.__all__) - set(exported) <= {"__version__"}

    for sub, names in table.items():
        for export in names:
            expected = resolve(module, sub, export)
            assert getattr(module, export) is expected, export
            if isinstance(expected, (type, types.FunctionType)):
                # The module that defines a class or function holds it
                # under the exported name.
                assert getattr(sys.modules[expected.__module__], export) is expected, export

    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match=repr(name)):
        module.no_such_name

    namespace = {}
    exec(f"from {name} import *", namespace)
    for export in module.__all__:
        assert namespace[export] is getattr(module, export), export

    if ">>>" in (module.__doc__ or ""):
        # The docstring's examples (the quick start of ``repro``), with
        # nothing imported beforehand.
        script = (
            f"import doctest, {name} as m\n"
            "r = doctest.testmod(m)\n"
            "assert r.attempted and not r.failed, r\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=SRC),
            check=True,
            capture_output=True,
            text=True,
        )
