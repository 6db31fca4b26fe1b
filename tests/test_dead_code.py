"""No function, method or class in ``src/repro`` that only its tests call.

Every ``def``/``class`` has to serve an entry point: the CLI, the
daemon, perf or an example.  The scan is by name: a definition is dead
when its name occurs, as a whole word, in ``src/``, ``perf/``,
``examples/`` and ``pyproject.toml`` (the console-script entry point)
no more often than it is defined.  A docstring or comment that names a
definition therefore keeps it, and a common name (``run``) cannot be
judged this way; what the scan does catch is the accessor added for a
test and then never called.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLERS = ("src", "perf", "examples")

#: Definitions kept although nothing outside ``tests/`` names them.
ALLOWED = {
    # Test seam: forgets the memoized C library so a test can load it
    # again under another environment.
    "_reset": "repro.native.bindings test hook",
}


def _words() -> collections.Counter:
    texts = [(ROOT / "pyproject.toml").read_text()]
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
                texts.append(path.read_text())
    return collections.Counter(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", "\n".join(texts)))


def _definitions():
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.relative_to(ROOT), node.lineno, node.name


def test_every_definition_has_a_caller_outside_tests():
    definitions = list(_definitions())
    assert len(definitions) > 500
    defined = collections.Counter(name for _, _, name in definitions)
    words = _words()
    dead = [
        f"{path}:{line} {name}"
        for path, line, name in definitions
        if words[name] <= defined[name] and name not in ALLOWED
    ]
    assert not dead, "defined but never used outside tests/:\n" + "\n".join(dead)
    assert set(ALLOWED) <= set(defined), "an allowlisted definition is gone"
