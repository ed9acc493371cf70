"""Print each line of src/spherindex that holds code and never runs under the given tests.

Usage: PYTHONPATH=src python3 tools/line_reach.py tests/test_cli.py [more test files]

pytest runs in this process under a ``sys.settrace`` line tracer.  Each
line of a module of src/spherindex that holds code, ``def`` and ``class``
headers aside, and that no test ran is printed as ``path:line``; the count
comes last.  Lines reached only in a subprocess (a test that starts the CLI
with ``subprocess``) are not counted as reached, so they are listed.  Each
module is read and compiled before the tests run; if its text differs after
them, the tool names it and exits with no list, since the traced line numbers
belong to the old text.
"""

import argparse
import ast
import os
import sys
import types

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "spherindex")


def code_lines(code) -> set:
    """The lines of a code object and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def sources(src) -> dict:
    """The text of each module in ``src``, by path, in sorted order."""
    out = {}
    for path in sorted(os.path.join(src, f) for f in os.listdir(src) if f.endswith(".py")):
        with open(path) as fh:
            out[path] = fh.read()
    return out


def unreached(src, run) -> list:
    """(path, line) of each line of the modules in ``src`` that holds code, but is
    no def or class header, and that does not run while ``run()`` does.  A module
    added, removed or rewritten while ``run()`` runs raises ``SystemExit``."""
    src = os.path.realpath(src)
    texts = sources(src)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    lines = {}
    for path, text in texts.items():
        headers = {n.lineno for n in ast.walk(ast.parse(text)) if isinstance(n, kinds)}
        lines[path] = code_lines(compile(text, path, "exec")) - headers
    where, reached = {}, set()  # where: co_filename -> its real path if it lies in src, else None

    def local(frame, event, arg):
        if event == "line":
            reached.add((where[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in where:
            path = os.path.realpath(name)
            where[name] = path if os.path.dirname(path) == src else None
        return local if where[name] else None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    after = sources(src)
    if changed := sorted(p for p in texts.keys() | after.keys() if texts.get(p) != after.get(p)):
        raise SystemExit(f"line_reach: {', '.join(changed)} changed while the tests ran; no lines listed")
    return [(path, n) for path in texts for n in sorted(lines[path]) if (path, n) not in reached]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tests", nargs="+", help="test files, passed to pytest")
    args = parser.parse_args(argv)
    status = []
    lines = unreached(SRC, lambda: status.append(pytest.main(["-q", "-p", "no:cacheprovider", *args.tests])))
    for path, n in lines:
        print(f"{os.path.relpath(path)}:{n}")
    print(f"{len(lines)} lines never ran")
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main())
