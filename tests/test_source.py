"""Source rules that a code review would otherwise have to catch by eye.

``assert`` statements vanish under ``python -O``, so a structural identity
must raise instead; imports belong at module level, where the dependency
graph between modules stays visible; ``/`` on two ints gives a float, so
exact division is written ``Fraction(a, b)``; a function that nothing in
``src/`` names, or a class member that nothing in ``src/`` reads, is dead
code; a sum of products belongs to the one product kernel in ``linalg``; an
underscore-prefixed name is private to its module, so no other module of the
package imports it; an import that its module never names is dead;
``json.dumps`` with ``indent`` runs the pure-Python encoder and builds the
whole text, so reports go through the streaming writer ``cli.emit``; a
function the benchmark traces by name that no longer exists reads 0 calls
there, so each traced name resolves to a function in ``src/``; every CLI
call is a new process, so ``src/`` imports no ``dataclasses`` (nor, through
it, ``inspect``): its records derive from ``record.Record``; the project
requires Python 3.10, so no source, tool or test uses newer syntax; each
kind of matrix is inverted in one place, so the functions that call
``scaled_inverse``, the elimination kernel and its Schur complement are
pinned; the class of an error decides the CLI's exit code, so only
``cli.main`` catches a class of ``spherindex.errors``, and ``cli.py``
defines no exception class but ``InvalidDatum``; an error class that no
``except`` clause and no ``isinstance`` call names decides nothing, so each
class of ``errors.py`` is told apart somewhere in ``src/``.
"""

import ast
import glob
import importlib
import inspect
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "spherindex")


def source_trees():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), filename=path)


def test_no_assert_and_no_function_local_import():
    found = []
    for name, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{name}:{node.lineno}: assert")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        found.append(f"{name}:{inner.lineno}: import inside {node.name}")
    assert found == []


def test_no_true_division():
    found = [
        f"{name}:{node.lineno}: /"
        for name, tree in source_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert found == []


def products_summed_outside_linalg(trees):
    """Each ``sum(... * ... for ...)`` outside ``linalg.py``: a Python frame per
    term, where ``linalg.dot`` and ``linalg.mat_mul`` run the one product kernel."""
    return [
        f"{name}:{node.lineno}: sum of products"
        for name, tree in trees
        if name != "linalg.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
        and node.args
        and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
        and isinstance(node.args[0].elt, ast.BinOp)
        and isinstance(node.args[0].elt.op, ast.Mult)
    ]


def test_products_go_through_the_linalg_kernel():
    assert products_summed_outside_linalg(source_trees()) == []
    planted = ast.parse("pair = sum(x * row[j] for x, row in zip(v, c))")
    assert products_summed_outside_linalg([("rootsys.py", planted)]) == ["rootsys.py:1: sum of products"]


def private_imports(trees):
    """Each underscore-prefixed name imported from a module of the package."""
    return [
        f"{name}:{node.lineno}: imports {alias.name}"
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "spherindex")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name_of_another():
    assert private_imports(source_trees()) == []
    planted = ast.parse("from .linalg import _eliminate, rank\nfrom spherindex.fans import _issues")
    assert private_imports([("restrict.py", planted)]) == [
        "restrict.py:1: imports _eliminate",
        "restrict.py:2: imports _issues",
    ]


JSON_WRITERS = {"dump", "dumps"}


def json_writer_uses(trees):
    """Each use of ``json.dump`` or ``json.dumps``, by attribute or by import."""
    return [
        f"{name}:{node.lineno}: json writer"
        for name, tree in trees
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr in JSON_WRITERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "json"
            and any(alias.name in JSON_WRITERS for alias in node.names)
        )
    ]


def test_no_json_dump_in_src():
    assert json_writer_uses(source_trees()) == []
    planted = ast.parse(
        "import json\nprint(json.dumps(report, indent=2))\nfrom json import dump, load\n"
        "doc = json.load(fh)"
    )
    assert sorted(json_writer_uses([("cli.py", planted)])) == ["cli.py:2: json writer", "cli.py:3: json writer"]


# imports allowed to go unused in their module, each with its reason
UNUSED_IMPORTS_ALLOWED = {
    # perfbench/tests asserts that the tracer wraps this binding of index
    "index.py: imports dot",
}


def unused_imports(trees):
    """Each name that a module imports and never names (as a Name, or as
    the root of an attribute chain); ``__future__`` imports are directives."""
    found = []
    for name, tree in trees:
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{name}: imports {bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (bound := alias.asname or alias.name.split(".")[0]) not in named
        ]
    return found


def test_every_import_is_used():
    assert set(unused_imports(source_trees())) == UNUSED_IMPORTS_ALLOWED
    planted = ast.parse(
        "from itertools import islice\nfrom math import gcd, lcm\nimport os.path\n"
        "print(gcd(4, 6))"
    )
    assert unused_imports([("index.py", planted)]) == [
        "index.py: imports islice",
        "index.py: imports lcm",
        "index.py: imports os",
    ]


PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

# layer names the benchmark traces that name no function in src/, left for
# the next change to the benchmark: two functions were deleted from linalg,
# the base coordinates of the roots now come from rootsys.root_images, the
# ``cli.emit`` group still names ``cli.ser`` and the ``restrict.checks`` group
# the deleted facet check
DEAD_LAYER_NAMES_ALLOWED = {
    "linalg.rref",
    "linalg.smith_normal_form",
    "rootsys.positive_roots_in_base_coords",
    "cli.ser",
    "restrict.facet_inheritance_check",
}


def layertrace_literal(name):
    """The literal that ``perfbench/layertrace.py`` assigns to ``name``, read without importing it."""
    with open(os.path.join(PERFBENCH, "layertrace.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"layertrace.py assigns no {name}")


def layer_names():
    """Each function the benchmark traces: ``FUNCTIONS`` and every member of ``GROUPS``."""
    groups = layertrace_literal("GROUPS")
    return [*layertrace_literal("FUNCTIONS"), *(n for members in groups.values() for n in members)]


def dead_layer_names(names):
    """Each dotted name that resolves to no function of a module in ``src/``."""
    dead = []
    for name in names:
        module, *path = name.split(".")
        obj = importlib.import_module(f"spherindex.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if not inspect.isfunction(obj):
            dead.append(name)
    return dead


def test_every_traced_layer_name_is_a_function_in_src():
    """A rename in src/ fails here instead of reading 0 calls in the benchmark."""
    names = layer_names()
    assert {"rootsys.generate_roots", "cli.parse_fan", "restrict.predicates"} <= set(names)
    assert set(dead_layer_names(names)) == DEAD_LAYER_NAMES_ALLOWED
    planted = ["index.res_A", "rootsys.AmbientRootDatum.form", "rootsys.simple_reflection", "rootsys.Gone.form"]
    assert dead_layer_names(planted) == ["rootsys.simple_reflection", "rootsys.Gone.form"]


def callers(trees, callee):
    """The dotted name (module, classes, function) of each function whose own
    body calls ``callee``, by name or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and callee in (getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.add(".".join(scope))
            visit(child, scope)

    for name, tree in trees:
        visit(tree, (name.removesuffix(".py"),))
    return found


# one home per matrix inversion: the normals of the maximal cones of a fan;
# the walls of an index need none, since characters restrict to fiber sums,
# and every other inverse is taken as a Schur complement: the dual basis
# G^-1 U F, the projection of the lifts off the annihilator of N_k, and the
# Gram matrix of the restricted simple roots off the compact block
SCALED_INVERSE_CALLERS = {
    "fans.Fan.normals",
}

# one elimination kernel, for the pivots of an echelon form and for a Schur
# complement, which is how every inverse is taken
ELIMINATE_CALLERS = {"linalg.pivot_columns", "linalg.scaled_schur_complement"}
SCHUR_COMPLEMENT_CALLERS = {"linalg._scaled_solve", "index.restricted_simple_roots", "restrict._project"}


def test_each_inversion_has_one_home():
    trees = list(source_trees())
    assert callers(trees, "scaled_inverse") == SCALED_INVERSE_CALLERS
    assert callers(trees, "_eliminate") == ELIMINATE_CALLERS
    assert callers(trees, "scaled_schur_complement") == SCHUR_COMPLEMENT_CALLERS
    planted = ast.parse(
        "class Fan:\n    def normals(self):\n        return {c: scaled_inverse(c) for c in self.cones}\n"
        "def beta(d):\n    a, det = linalg.scaled_inverse(walls(d))\n    return a\n"
        "def dual(rows):\n    return scaled_dual_basis(rows)\n"
    )
    assert callers([("cli.py", planted)], "scaled_inverse") == {"cli.Fan.normals", "cli.beta"}


# rationals enter in four places, each by one division: the parser, the
# report's division by a stored scale, an inexact lattice coordinate and the
# point of a phase-1 LP; input is scaled to integers only where a lattice or
# an abstract datum is built, and every other datum keeps integers
FRACTION_CALLERS = {"cli._rat", "linalg.divide", "linalg.Lattice.coordinates", "linalg._phase1"}
SCALE_INTEGRAL_CALLERS = {"linalg.Lattice.from_rows", "datum.SphericalDatumK.abstract"}


def test_rationals_enter_in_named_places():
    trees = list(source_trees())
    assert callers(trees, "Fraction") == FRACTION_CALLERS
    assert callers(trees, "scale_integral") == SCALE_INTEGRAL_CALLERS
    planted = ast.parse(
        "class SphericalDatumK:\n    def ambient(ix):\n        return Fraction(1, 2)\n"
        "def _project(f):\n    fc, _ = linalg.scale_integral(f)\n"
    )
    trees.append(("datum.py", planted))
    assert callers(trees, "Fraction") - FRACTION_CALLERS == {"datum.SphericalDatumK.ambient"}
    assert callers(trees, "scale_integral") - SCALE_INTEGRAL_CALLERS == {"datum._project"}


def errors_caught_outside_main(tree, error_classes):
    """Each ``except`` clause of ``cli.py`` outside ``main`` that names one of
    ``error_classes``, bare or as an attribute, alone or in a tuple."""
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = set(map(id, ast.walk(main)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None and id(node) not in in_main:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found += [
                f"cli.py:{node.lineno}: except {name}"
                for name in (getattr(t, "id", None) or getattr(t, "attr", None) for t in caught)
                if name in error_classes
            ]
    return found


def test_only_main_catches_a_package_error():
    trees = dict(source_trees())
    error_classes = {node.name for node in ast.walk(trees["errors.py"]) if isinstance(node, ast.ClassDef)}
    assert {"ParseError", "SpherindexError", "TheoremViolation"} <= error_classes
    assert [node.name for node in ast.walk(trees["cli.py"]) if isinstance(node, ast.ClassDef)] == ["InvalidDatum"]
    assert errors_caught_outside_main(trees["cli.py"], error_classes) == []
    planted = ast.parse(
        "def parse_index(doc):\n    try:\n        return of(doc)\n"
        "    except (KeyError, errors.NotFiniteType) as e:\n        raise ParseError(str(e))\n"
        "def _load(path):\n    try:\n        return open(path)\n    except OSError:\n        raise ParseError(path)\n"
        "def main():\n    try:\n        run()\n    except ParseError:\n        return 2\n"
    )
    assert errors_caught_outside_main(planted, error_classes) == ["cli.py:4: except NotFiniteType"]


def untold_error_classes(trees):
    """Each class that ``errors.py`` defines and that no ``except`` clause and
    no ``isinstance`` call in ``trees`` names, bare or as an attribute, alone or
    in a tuple: raising it differs in nothing from raising its base."""
    trees = dict(trees)
    told = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = node.type
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                named = node.args[1]
            else:
                continue
            told |= {getattr(t, "id", None) or getattr(t, "attr", None) for t in getattr(named, "elts", [named])}
    return [node.name for node in ast.walk(trees["errors.py"]) if isinstance(node, ast.ClassDef) and node.name not in told]


def test_every_error_class_is_told_apart():
    assert untold_error_classes(source_trees()) == []
    planted = {
        "errors.py": ast.parse(
            "class SpherindexError(Exception):\n    pass\n"
            "class TheoremViolation(SpherindexError):\n    pass\n"
            "class NotFiniteType(SpherindexError):\n    pass\n"
            "class ZeroVector(SpherindexError):\n    pass\n"
        ),
        "cli.py": ast.parse(
            "def main():\n    try:\n        run()\n"
            "    except (errors.TheoremViolation, KeyError):\n        return 3\n"
            "    except SpherindexError:\n        return 1\n"
        ),
        "datum.py": ast.parse(
            "def validate(d):\n    try:\n        base = d.root_base\n    except ValueError as e:\n        base = e\n"
            "    return isinstance(base, errors.NotFiniteType)\n"
            "def primitive(v):\n    raise ZeroVector(v)\n"
        ),
    }
    assert untold_error_classes(planted.items()) == ["ZeroVector"]


# names allowed to go unreferenced in src/: none
UNREFERENCED_ALLOWED = set()


def _members(cls: ast.ClassDef):
    """The fields, methods and properties of a class body, dunders left out."""
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = item.name
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            name = item.target.id
        else:
            continue
        if not (name.startswith("__") and name.endswith("__")):
            yield name


def test_every_module_function_is_referenced_in_src():
    """Dead code is deleted: each module-level function is named (as a Name
    or an Attribute) somewhere in ``src/`` outside its own ``def``, and each
    field, method and property of a class is read as an Attribute."""
    defs = {}
    members = {}
    referenced = set()
    read = set()
    for name, tree in source_trees():
        module = name.removesuffix(".py")
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{module}.{top.name}"] = top.name
            for node in ast.walk(top):
                if isinstance(node, ast.ClassDef):
                    members.update((f"{module}.{node.name}.{m}", m) for m in _members(node))
                if isinstance(node, ast.Name):
                    used = node.id
                elif isinstance(node, ast.Attribute):
                    used = node.attr
                    if isinstance(node.ctx, ast.Load):
                        read.add(used)
                else:
                    continue
                # a function naming itself (recursion) does not count
                if not (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) and top.name == used):
                    referenced.add(used)
    unused = {q for q, f in defs.items() if f not in referenced}
    unused |= {q for q, m in members.items() if m not in read}
    assert unused == UNREFERENCED_ALLOWED


# member names that two or more classes define; the rule above matches bare
# names, so a read of one hides a dead namesake (``Cone.contains`` stayed
# behind ``Lattice.contains``). Each name here was checked to be read on
# every class that defines it; a new shared name fails until it is checked.
SHARED_MEMBER_NAMES = {
    "ambient", "components", "detail", "fibers", "of", "rank", "roots",
    "sigma", "types",
}


def test_shared_member_names_are_pinned():
    owners = {}
    for name, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for m in _members(node):
                    owners.setdefault(m, set()).add(f"{name}:{node.name}")
    assert {m for m, classes in owners.items() if len(classes) > 1} == SHARED_MEMBER_NAMES


def dataclasses_imports(trees):
    """Each import of ``dataclasses``, by ``import`` or by ``from``."""
    return [
        f"{name}:{node.lineno}: imports dataclasses"
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]


def test_no_module_imports_dataclasses():
    assert dataclasses_imports(source_trees()) == []
    planted = ast.parse("from dataclasses import dataclass, field\nimport json, dataclasses as dc\nimport ast")
    assert dataclasses_imports([("fans.py", planted)]) == [
        "fans.py:1: imports dataclasses",
        "fans.py:2: imports dataclasses",
    ]


SLOW_TO_IMPORT = ("dataclasses", "inspect")


def left_imported(statement):
    """The modules of ``SLOW_TO_IMPORT`` that a fresh interpreter holds after ``statement``."""
    src = os.path.abspath(os.path.join(SRC, os.pardir))
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); {statement}; "
        f"print(*[m for m in {SLOW_TO_IMPORT!r} if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    assert left_imported("import spherindex.cli") == []
    assert left_imported("import spherindex.cli, dataclasses") == ["dataclasses", "inspect"]


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
OLDEST_PYTHON = (3, 10)  # pyproject.toml: requires-python = ">=3.10"


def newer_syntax(sources):
    """Each (name, text) that the parser of the oldest supported Python rejects."""
    found = []
    for name, text in sources:
        try:
            ast.parse(text, filename=name, feature_version=OLDEST_PYTHON)
        except SyntaxError as e:
            found.append(f"{name}:{e.lineno}: {e.msg}")
    return found


def test_every_python_file_parses_as_the_oldest_supported_python():
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        assert 'requires-python = ">=3.10"' in fh.read()
    sources = []
    for top in ("src", "tools", "tests"):
        paths = sorted(glob.glob(os.path.join(ROOT, top, "**", "*.py"), recursive=True))
        assert paths, top
        for path in paths:
            with open(path) as fh:
                sources.append((os.path.relpath(path, ROOT), fh.read()))
    assert newer_syntax(sources) == []
    planted = [
        ("generic.py", "def f[T](x: T) -> T:\n    return x\n"),
        ("groups.py", "try:\n    pass\nexcept* ValueError:\n    pass\n"),
        ("match.py", "match x:\n    case 1:\n        pass\n"),
    ]
    assert [line.split(":")[0] for line in newer_syntax(planted)] == ["generic.py", "groups.py"]
