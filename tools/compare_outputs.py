#!/usr/bin/env python3
"""Compare the CLI output of two source trees on every benchmark reference job.

    python3 tools/compare_outputs.py [--python EXE] PARENT_DIR [--python EXE] CHANGE_DIR

PARENT_DIR and CHANGE_DIR are checkouts of this repository (each with its
own ``src/spherindex``); they may be one directory.  ``--python EXE`` names
the interpreter that runs the child of the tree after it, so two
interpreters are compared on one tree; a tree with none runs on the
interpreter of the script.  The child imports the standard library and
the tree's package alone.  The jobs are those of
``perfbench.gen.all_reference_jobs()`` of the repository holding this
script, which is imported and never written to.  Each job runs in
``--format json`` and in ``--format text`` on both trees, in process, one
child interpreter per tree, on the same input files.  A fixed list of
command lines that argparse reads (help, usage errors, and the fixtures
spelled with ``--format=json``, options before the path and an abbreviated
flag) runs as well, and so does every ``localize`` job at the subsets J
``--roots ""``, ``2``, ``1,2`` and ``1,2,3`` in both formats, and so does
``restrict-index`` on a fixed, seeded list of random index documents in
both formats, and on a fixed sweep of
every finite type up to rank 12 and of A-D at ranks 16, 24, 32 and 40,
split and, where the diagram involution moves a root, quasi-split by it,
and so does ``analyze``
on a fixed, seeded list of random abstract documents in both formats, with
indefinite pairings, each a second time with its pairing multiplied by a
seeded positive rational and written as "p/q" strings; each of these
documents as written goes through ``standard-fan``, ``localize --roots 1``
and ``degenerate`` too, in both formats.  So do the split datum of every
type up to rank 8 through ``analyze``, which prints its Weyl order, once
with its spherical roots in Bourbaki order and once in a seeded shuffled
order, so that ``classify`` matches them by its walk, and a seeded list
of ambient documents whose component labels hold non-ASCII characters, a
quote, a backslash and "%" through ``restrict-index`` and ``analyze``, so
that the root names reach the string escapes and the ``%`` templates of
the writer, and a
seeded list of abstract documents whose valuation cones are most often
strictly convex, so that they reach the fan engine, through ``analyze``,
``standard-fan``, ``localize --roots 1`` and ``degenerate``, in both
formats.  The standard fan of each split type up to rank 4, and of each of
these convex documents that has one, is computed once by the
``standard-fan`` of the repository holding this script, and both trees read
it through ``fan --saturate --check complete --check smooth --strata`` in
both formats.  For each tree the script prints one table: each kind of run,
its count and how many of its runs exit with each code, and the total.
Every execution whose (exit code, stdout, stderr) differs between the
trees is printed, and the script exits 1 if any does, else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMATS = ("json", "text")
INDEX_SEED, INDEX_COUNT = 3619, 200
ABSTRACT_SEED, ABSTRACT_COUNT = 3737, 200
CONVEX_SEED, CONVEX_COUNT = 4412, 100
SCALE_SEED = 4242  # the rational each abstract pairing is sent again at
SHUFFLE_SEED = 4848  # the order of the spherical roots of each split datum analyzed again
LABEL_SEED, LABEL_COUNT = 5353, 30
LABELS = ["é", "×€", 'say "a"', "back\\slash", "100%", "%s", "%(a)s", "\U0001f600", 'ÿ%\\"']
INDEX_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("A", 7),
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("F", 4), ("G", 2),
]
SWEEP_RANK = 12  # every type of rootsys.VALID_RANKS up to this rank
SWEEP_TYPES = [(f, n) for f in "ABCD" for n in range(1 if f == "A" else 2, SWEEP_RANK + 1)]
SWEEP_TYPES += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
WIDE_TYPES = [(f, n) for f in "ABCD" for n in (16, 24, 32, 40)]  # many digits per packed root
SPLIT_TYPES = [(f, n) for f, n in SWEEP_TYPES if n <= 8]  # analyzed split: every Weyl order of rank <= 8
LOCALIZE_ROOTS = ("", "2", "1,2", "1,2,3")  # subsets J besides a localize job's own
ABSTRACT_COMMANDS = ("standard-fan", "localize --roots 1", "degenerate")  # besides analyze
SATURATE_RANK = 4  # split types up to this rank have their standard fans saturated
SATURATE = ["--saturate", "--check", "complete", "--check", "smooth", "--strata"]


def run_tree(src: str, argvs_path: str, out_path: str) -> None:
    """In a child: run each argv through the CLI of ``src``, and write one
    [exit, stdout sha256, stderr] per argv."""
    sys.path.insert(0, src)
    from spherindex import cli

    with open(argvs_path) as fh:
        argvs = json.load(fh)
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse
                code = e.code if isinstance(e.code, int) else 1
            except Exception:  # an escaped exception is a difference like any other
                code = 1
                err.write(traceback.format_exc(limit=0))
        results.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()])
    with open(out_path, "w") as fh:
        json.dump(results, fh)


USAGE_ERRORS = [
    [], ["analyze"], ["nosuch", "x.json"], ["fan", "x.json"], ["--format", "xml", "analyze", "x.json"],
    ["fan", "x.json", "--fan", "f.json", "--check", "nope"], ["analyze", "x.json", "extra"],
]


def other_spellings(fan_path: str) -> list[list[str]]:
    """Command lines outside the canonical ``[--format F] CMD PATH [OPTION ...]``."""
    argvs = [["--help"], ["fan", "--help"], *USAGE_ERRORS]
    for name in sorted(os.listdir(os.path.join(ROOT, "fixtures"))):
        path = os.path.join(ROOT, "fixtures", name)
        argvs += [
            ["--format=json", "analyze", path],
            ["fan", "--fan", fan_path, "--strata", path],
            ["--format", "json", "fan", path, "--fan", fan_path, "--sat"],
        ]
    return argvs


def diagram_flip(family: str, rank: int) -> list[int]:
    """The canonical diagram involution of a type on 0-based positions."""
    if family == "A":
        return list(range(rank - 1, -1, -1))
    if family == "D":
        return [*range(rank - 2), rank - 1, rank - 2]
    return [5, 1, 4, 3, 2, 0] if (family, rank) == ("E", 6) else list(range(rank))


def random_index_document(rng: random.Random) -> dict:
    """A ``restrict-index`` document that passes the star checks: 1 to 3
    components of types A-G, equal components swapped by one star generator
    each, the diagram flip on chosen components, and a random union of star
    orbits as the compact set, now and then all of them (the anisotropic
    case).  Most such compact sets are not Satake diagrams."""
    spec = [rng.choice(INDEX_TYPES) for _ in range(rng.randint(1, 3))]
    if len(spec) > 1 and rng.random() < 0.5:
        spec[-1] = spec[0]
    starts = [sum(rk for _, rk in spec[:k]) for k in range(len(spec) + 1)]
    n = starts[-1]
    flip = list(range(n))
    for (family, rk), s in zip(spec, starts):
        if rng.random() < 0.5:
            flip[s:s + rk] = [s + j for j in diagram_flip(family, rk)]
    perms = [flip] if flip != list(range(n)) else []
    for a in range(len(spec)):
        for b in range(a + 1, len(spec)):
            if spec[a] == spec[b] and rng.random() < 0.7:
                swap, one, other = list(range(n)), slice(starts[a], starts[a + 1]), slice(starts[b], starts[b + 1])
                swap[one], swap[other] = swap[other], swap[one]
                perms.append(swap)
    orbits = []
    for i in range(n):
        if not any(i in o for o in orbits):
            o = {i}
            while (grown := o | {p[j] for p in perms for j in o}) != o:
                o = grown
            orbits.append(sorted(o))
    chosen = orbits if rng.random() < 0.08 else [o for o in orbits if rng.random() < 0.4]
    names = [f"c{k + 1}.a{i + 1}" if len(spec) > 1 else f"a{i + 1}" for k, (_, rk) in enumerate(spec) for i in range(rk)]
    return {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": family, "rank": rk} for family, rk in spec]},
        "compact_simple": [names[i] for i in sorted(i for o in chosen for i in o)],
        "star_generators": [[[int(p[i] == j) for j in range(n)] for i in range(n)] for p in perms],
    }


def label_document(rng: random.Random) -> dict:
    """An ambient document of two or three components of rank at most 4, each
    with a label of ``LABELS``, so that the labels make the root names: no
    star, a random set of simple roots compact (none half the time), and the
    other simple roots as the spherical roots."""
    spec = [rng.choice([t for t in INDEX_TYPES if t[1] <= 4]) for _ in range(rng.randint(2, 3))]
    labels = rng.sample(LABELS, len(spec))
    names = [f"{label}.a{i + 1}" for label, (_, rk) in zip(labels, spec) for i in range(rk)]
    compact = sorted(rng.sample(range(len(names)), rng.randint(1, 2))) if rng.random() < 0.5 else []
    return {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": f, "rank": rk, "label": label} for (f, rk), label in zip(spec, labels)]},
        "compact_simple": [names[i] for i in compact],
        "spherical": {"sigma": [[int(i == j) for j in range(len(names))] for i in range(len(names)) if i not in compact]},
    }


def split_documents(rng: random.Random | None = None) -> list[tuple[str, dict]]:
    """The split datum of each of ``SPLIT_TYPES``, as named ``analyze``
    documents: no compact root, no star, and the simple roots as the
    spherical roots, in Bourbaki order or, given ``rng``, in an order it
    shuffles."""
    docs = []
    for family, rank in SPLIT_TYPES:
        order = rng.sample(range(rank), rank) if rng else range(rank)
        docs.append((f"{family}{rank}", {
            "schema_version": "1",
            "mode": "ambient",
            "ambient": {"components": [{"family": family, "rank": rank}]},
            "compact_simple": [],
            "star_generators": [],
            "spherical": {"sigma": [[int(i == j) for j in range(rank)] for i in order]},
        }))
    return docs


def sweep_documents(types=SWEEP_TYPES) -> list[tuple[str, dict]]:
    """Each of the ``types`` split, and quasi-split by its diagram involution
    where that moves a root, as named ``restrict-index`` documents."""
    docs = []
    for family, rank in types:
        stars = [[]] + ([["flip"]] if diagram_flip(family, rank) != list(range(rank)) else [])
        docs += [(f"{family}{rank}{' flip' * len(star)}", {
            "schema_version": "1",
            "mode": "ambient",
            "ambient": {"components": [{"family": family, "rank": rank}]},
            "star_generators": star,
        }) for star in stars]
    return docs


ABSTRACT_GRAMS = {  # Gram matrices of root bases of finite type
    "A1": [[2]], "A1xA1": [[2, 0], [0, 2]], "A2": [[2, -1], [-1, 2]], "B2": [[2, -2], [-2, 4]],
    "G2": [[2, -3], [-3, 6]], "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
}


def _product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def random_abstract_document(rng: random.Random) -> dict:
    """An ``analyze`` document in abstract mode: the simple roots of a random
    type (or none) on the last coordinates, a random or hyperbolic pairing on
    the first o, a star generator made of the diagram flip and up to two signed
    swaps of the first o coordinates, a random union of star orbits as
    ``sigma0``, and a unimodular change of basis.  The pairing is indefinite
    on many annihilators of N_k, and degenerate on some; swapping the two
    hyperbolic planes gives isotropic rows g - 1."""
    gram = ABSTRACT_GRAMS.get(name := rng.choice(["", *ABSTRACT_GRAMS]), [])
    s, hyperbolic = len(gram), rng.random() < 0.5
    o = rng.choice([2, 4] if hyperbolic else [int(not s), 1, 2, 3, 4])
    n = o + s
    perm, signs = list(range(n)), [1] * n
    if name in ("A1xA1", "A2", "A3") and rng.random() < 0.5:
        perm[o:] = perm[o:][::-1]
    free = list(range(o))
    if hyperbolic:  # the planes are (0, 1) and (2, 3)
        free[:4] = free[0:4:2] + free[1:4:2]
    else:
        rng.shuffle(free)
    for i, j in zip(free[0:4:2], free[1:4:2]):
        if rng.random() < 0.6:
            perm[i], perm[j] = j, i
            signs[i] = signs[j] = rng.choice([1, -1])
    g = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    f = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i >= o:
                x = gram[i - o][j - o]
            elif hyperbolic:
                x = int(j == i + 1 and i % 2 == 0 and j < o)
            else:
                x = rng.randint(-1, 1)
            f[i][j] = f[j][i] = x
    moved = perm != list(range(n)) or -1 in signs
    if moved:  # f + g f g^T is invariant under the involution g
        f = [[a + b for a, b in zip(r, q)] for r, q in zip(f, _product(_product(g, f), list(zip(*g))))]
    return _abstract_document(rng, f, g if moved else None, perm, o)


def random_convex_abstract_document(rng: random.Random) -> dict:
    """An ``analyze`` document in abstract mode whose valuation cone is most
    often strictly convex: the Gram matrix of a random type of
    ``ABSTRACT_GRAMS`` as the pairing with no further coordinates, so that the
    simple roots span, now and then the diagram flip as the star, a random
    union of star orbits as ``sigma0``, and a unimodular change of basis."""
    name = rng.choice(sorted(ABSTRACT_GRAMS))
    n = len(f := ABSTRACT_GRAMS[name])
    perm, g = list(range(n)), None
    if name in ("A1xA1", "A2", "A3") and rng.random() < 0.5:
        perm = perm[::-1]  # an isometry of each of these Gram matrices
        g = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    return _abstract_document(rng, f, g, perm, 0)


def _abstract_document(rng: random.Random, f, g, perm: list[int], o: int) -> dict:
    """The abstract document of the pairing f and the star g (None for none)
    on n coordinates, the simple roots on the last n - o of them: a random
    union of the orbits of perm there as ``sigma0``, and a random unimodular
    change of basis."""
    n = len(f)
    orbits = {tuple(sorted({i - o, perm[i] - o})) for i in range(o, n)}
    sigma0 = sorted(i for orbit in sorted(orbits) if rng.random() < 0.4 for i in orbit)
    # vectors v -> v t, the pairing to t^-1 f t^-T and the star to t^-1 g t
    t, ti = ([[int(i == j) for j in range(n)] for i in range(n)] for _ in range(2))
    if n > 1 and rng.random() < 0.7:
        i, j = rng.sample(range(n), 2)
        a = rng.choice([-2, -1, 1, 2])
        t[i][j], ti[i][j] = a, -a
    return {
        "schema_version": "1",
        "mode": "abstract",
        "abstract": {
            "rank": n,
            "pairing": _product(_product(ti, f), list(zip(*ti))),
            "star": [_product(_product(ti, g), t)] if g is not None else [],
            "sigma": [t[i] for i in range(o, n)],
            "sigma0": sigma0,
        },
    }


def scaled_pairing(doc: dict, q: Fraction) -> dict:
    """An abstract document with its pairing, of ints or rational strings,
    multiplied by q > 0, each entry written as a "p/q" string."""
    pairing = [[f"{(x := q * Fraction(v)).numerator}/{x.denominator}" for v in row] for row in doc["abstract"]["pairing"]]
    return {**doc, "abstract": {**doc["abstract"], "pairing": pairing}}


def saturation_runs(cli, kind: str, name: str, datum_path: str) -> list[tuple[str, str, list[str]]]:
    """``fan`` on the datum's own standard fan, saturated, with every check that
    reads the saturated cones and the strata, in both formats; none when the
    datum has no standard fan.  ``cli`` is the one of the repository holding
    this script: it writes the fan file once, and both trees read it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if cli.main(["--format", "json", "standard-fan", datum_path]):
            return []
    fan_path = datum_path.removesuffix(".json") + "_fan.json"
    with open(fan_path, "w") as fh:
        json.dump({"cones": json.loads(out.getvalue())["cones"]}, fh)
    return [
        (kind, f"{name} fan {' '.join(SATURATE)} --format {fmt}", ["--format", fmt, "fan", datum_path, "--fan", fan_path, *SATURATE])
        for fmt in FORMATS
    ]


def inventory(kinds: list[str], codes: list[int]) -> list[str]:
    """The lines of a table of runs: per kind, in order of first appearance,
    the count and how many runs exit with each code, then the total."""
    by_kind: dict[str, Counter] = {}
    for kind, code in zip(kinds, codes):
        by_kind.setdefault(kind, Counter())[code] += 1
    rows = [*by_kind.items(), ("total", sum(by_kind.values(), Counter()))]
    width = max(len(kind) for kind in ["kind of run", *by_kind])
    return [f"  {'kind of run':<{width}}  {'count':>6}  exit codes"] + [
        f"  {kind:<{width}}  {sum(codes.values()):>6,}  " + "  ".join(f"{c}: {n:,}" for c, n in sorted(codes.items()))
        for kind, codes in rows
    ]


def _without_format(argv: list[str]) -> list[str]:
    """The argv of a job without its leading ``--format`` option, if any."""
    return argv[2:] if argv[:1] == ["--format"] else argv


def trees_and_interpreters(argv: list[str]) -> list[tuple[str, str]] | None:
    """(tree, interpreter) for each tree of ``[--python EXE] TREE`` twice over,
    or None when argv is not of that form."""
    pairs, rest = [], list(argv)
    while rest:
        python = sys.executable
        if rest[0] == "--python" and len(rest) > 2:
            python, rest = rest[1], rest[2:]
        if rest[0].startswith("--"):
            return None
        pairs.append((os.path.abspath(rest[0]), python))
        rest = rest[1:]
    return pairs if len(pairs) == 2 else None


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--run":
        run_tree(*argv[1:])
        return 0
    pairs = trees_and_interpreters(argv)
    if pairs is None:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for tree, python in pairs:
        if not os.path.isfile(os.path.join(tree, "src", "spherindex", "cli.py")):
            print(f"error: no src/spherindex/cli.py under {tree}", file=sys.stderr)
            return 2
        if shutil.which(python) is None:
            print(f"error: no interpreter {python}", file=sys.stderr)
            return 2
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    import gen
    from spherindex import cli

    jobs = gen.all_reference_jobs()
    with tempfile.TemporaryDirectory() as work:
        paths = gen.write_inputs(jobs, os.path.join(work, "inputs"))
        runs = [
            ("reference job", f"{job.name} --format {fmt}", ["--format", fmt] + _without_format(argv))
            for job, argv in zip(jobs, paths)
            for fmt in FORMATS
        ]
        runs += [  # a localize job's argv ends in its --roots value
            ("localize reference job at 4 more J", f"{job.name} --roots {roots!r} --format {fmt}",
             ["--format", fmt, *_without_format(argv)[:-1], roots])
            for job, argv in zip(jobs, paths)
            if _without_format(argv)[0] == "localize"
            for roots in LOCALIZE_ROOTS
            for fmt in FORMATS
        ]
        fan_path = os.path.join(work, "fan.json")
        with open(fan_path, "w") as fh:
            json.dump({"cones": [[[-1, 0], [0, -1]]]}, fh)
        runs += [("argparse command line", " ".join(argv) or "(no arguments)", argv) for argv in other_spellings(fan_path)]
        rng = random.Random(INDEX_SEED)
        for k in range(INDEX_COUNT):
            index_path = os.path.join(work, f"index{k}.json")
            with open(index_path, "w") as fh:
                json.dump(random_index_document(rng), fh)
            runs += [
                ("random index restrict-index", f"random index {k} --format {fmt}", ["--format", fmt, "restrict-index", index_path])
                for fmt in FORMATS
            ]
        for k, (name, doc) in enumerate(sweep_documents() + sweep_documents(WIDE_TYPES)):
            sweep_path = os.path.join(work, f"sweep{k}.json")
            with open(sweep_path, "w") as fh:
                json.dump(doc, fh)
            runs += [
                ("sweep restrict-index", f"sweep {name} --format {fmt}", ["--format", fmt, "restrict-index", sweep_path])
                for fmt in FORMATS
            ]
        rng, scales = random.Random(ABSTRACT_SEED), random.Random(SCALE_SEED)
        for k in range(ABSTRACT_COUNT):
            doc = random_abstract_document(rng)
            q = Fraction(scales.randint(1, 12), scales.randint(2, 12))
            for j, (kind, name, datum) in enumerate([
                ("random abstract analyze", f"{k}", doc),
                ("random abstract analyze, scaled pairing", f"{k} with its pairing times {q}", scaled_pairing(doc, q)),
            ]):
                datum_path = os.path.join(work, f"abstract{k}_{j}.json")
                with open(datum_path, "w") as fh:
                    json.dump(datum, fh)
                runs += [(kind, f"random abstract datum {name} --format {fmt}", ["--format", fmt, "analyze", datum_path]) for fmt in FORMATS]
            doc_path = os.path.join(work, f"abstract{k}_0.json")  # the document as written
            runs += [
                (f"random abstract {command}", f"random abstract datum {k} {command} --format {fmt}",
                 ["--format", fmt, cmd, doc_path, *options])
                for command in ABSTRACT_COMMANDS
                for cmd, *options in [command.split()]
                for fmt in FORMATS
            ]
        for k, (name, doc) in enumerate(split_documents()):
            split_path = os.path.join(work, f"split{k}.json")
            with open(split_path, "w") as fh:
                json.dump(doc, fh)
            runs += [("split analyze", f"split {name} analyze --format {fmt}", ["--format", fmt, "analyze", split_path]) for fmt in FORMATS]
            if SPLIT_TYPES[k][1] <= SATURATE_RANK:
                runs += saturation_runs(cli, "split saturated fan", f"split {name}", split_path)
        for k, (name, doc) in enumerate(split_documents(random.Random(SHUFFLE_SEED))):
            shuffled_path = os.path.join(work, f"shuffled{k}.json")
            with open(shuffled_path, "w") as fh:
                json.dump(doc, fh)
            runs += [
                ("split analyze, shuffled spherical roots", f"split {name} shuffled analyze --format {fmt}",
                 ["--format", fmt, "analyze", shuffled_path])
                for fmt in FORMATS
            ]
        rng = random.Random(LABEL_SEED)
        for k in range(LABEL_COUNT):
            label_path = os.path.join(work, f"label{k}.json")
            with open(label_path, "w", encoding="utf-8") as fh:
                json.dump(label_document(rng), fh, ensure_ascii=False)
            runs += [
                (f"labelled {command}", f"labelled document {k} {command} --format {fmt}", ["--format", fmt, command, label_path])
                for command in ("restrict-index", "analyze")
                for fmt in FORMATS
            ]
        rng = random.Random(CONVEX_SEED)
        for k in range(CONVEX_COUNT):
            convex_path = os.path.join(work, f"convex{k}.json")
            with open(convex_path, "w") as fh:
                json.dump(random_convex_abstract_document(rng), fh)
            runs += [
                (f"convex abstract {command}", f"convex abstract datum {k} {command} --format {fmt}",
                 ["--format", fmt, cmd, convex_path, *options])
                for command in ("analyze", *ABSTRACT_COMMANDS)
                for cmd, *options in [command.split()]
                for fmt in FORMATS
            ]
            runs += saturation_runs(cli, "convex abstract saturated fan", f"convex abstract datum {k}", convex_path)
        argvs_path = os.path.join(work, "argvs.json")
        with open(argvs_path, "w") as fh:
            json.dump([a for _, _, a in runs], fh)
        results = []
        for k, (tree, python) in enumerate(pairs):
            out_path = os.path.join(work, f"results{k}.json")
            cmd = [python, os.path.abspath(__file__), "--run", os.path.join(tree, "src"), argvs_path, out_path]
            subprocess.run(cmd, check=True, cwd=work)
            with open(out_path) as fh:
                results.append(json.load(fh))
    for (tree, python), result in zip(pairs, results):
        print(f"runs of {tree} on {python}:")
        print("\n".join(inventory([kind for kind, _, _ in runs], [code for code, _, _ in result])))
    differ = 0
    for (_, name, _), old, new in zip(runs, *results):
        if old != new:
            differ += 1
            print(f"{name}: exit {old[0]} -> {new[0]}, stdout "
                  f"{'same' if old[1] == new[1] else 'differs'}, stderr {'same' if old[2] == new[2] else 'differs'}")
    print(f"{len(runs) - differ} of {len(runs)} executions identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
