#!/usr/bin/env python3
"""Compare the CLI output of two source trees on every benchmark reference job.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are checkouts of this repository (each with its
own ``src/spherindex``).  The jobs are those of
``perfbench.gen.all_reference_jobs()`` of the repository holding this
script, which is imported and never written to.  Each job runs in
``--format json`` and in ``--format text`` on both trees, in process, one
child interpreter per tree, on the same input files.  A fixed list of
command lines that argparse reads (help, usage errors, and the fixtures
spelled with ``--format=json``, options before the path and an abbreviated
flag) runs as well.  Every execution whose (exit code, stdout, stderr)
differs between the trees is printed, and the script exits 1 if any does,
else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMATS = ("json", "text")


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


def _without_format(argv: list[str]) -> list[str]:
    """The argv of a job without its leading ``--format`` option, if any."""
    return argv[2:] if argv[:1] == ["--format"] else argv


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--run":
        run_tree(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [os.path.abspath(t) for t in argv]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "src", "spherindex", "cli.py")):
            print(f"error: no src/spherindex/cli.py under {tree}", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    jobs = gen.all_reference_jobs()
    with tempfile.TemporaryDirectory() as work:
        paths = gen.write_inputs(jobs, os.path.join(work, "inputs"))
        runs = [(f"{job.name} --format {fmt}", ["--format", fmt] + _without_format(argv)) for job, argv in zip(jobs, paths) for fmt in FORMATS]
        fan_path = os.path.join(work, "fan.json")
        with open(fan_path, "w") as fh:
            json.dump({"cones": [[[-1, 0], [0, -1]]]}, fh)
        runs += [(" ".join(argv) or "(no arguments)", argv) for argv in other_spellings(fan_path)]
        argvs_path = os.path.join(work, "argvs.json")
        with open(argvs_path, "w") as fh:
            json.dump([a for _, a in runs], fh)
        results = []
        for k, tree in enumerate(trees):
            out_path = os.path.join(work, f"results{k}.json")
            cmd = [sys.executable, os.path.abspath(__file__), "--run", os.path.join(tree, "src"), argvs_path, out_path]
            subprocess.run(cmd, check=True, cwd=work)
            with open(out_path) as fh:
                results.append(json.load(fh))
    differ = 0
    for (name, _), old, new in zip(runs, *results):
        if old != new:
            differ += 1
            print(f"{name}: exit {old[0]} -> {new[0]}, stdout "
                  f"{'same' if old[1] == new[1] else 'differs'}, stderr {'same' if old[2] == new[2] else 'differs'}")
    print(f"{len(runs) - differ} of {len(runs)} executions identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
