"""Source rules that a code review would otherwise have to catch by eye.

``assert`` statements vanish under ``python -O``, so a structural identity
must raise instead; imports belong at module level, where the dependency
graph between modules stays visible.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "spherindex")


def test_no_assert_and_no_function_local_import():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        name = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{name}:{node.lineno}: assert")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        found.append(f"{name}:{inner.lineno}: import inside {node.name}")
    assert found == []
