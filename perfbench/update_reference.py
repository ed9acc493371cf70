#!/usr/bin/env python3
"""Rewrite perfbench/reference.json from the current program.

    python3 perfbench/update_reference.py

Runs every job any seed can produce once and records, per job name, the
sha256 of its input documents, its exit code and the sha256 of its stdout.
Regenerate only when an output change is intended, and say why in the
commit: the benchmark counts every other difference as a wrong answer.
Jobs whose report breaks their oracle are listed and nothing is written.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import gen
import oracles
import run


def main() -> int:
    cli = run.load_cli()
    jobs = [j for j in gen.all_reference_jobs() if j.hashed]
    argvs = gen.write_inputs(jobs, os.path.join(run.WORK, "reference"))
    reference, problems = {}, []
    for job, argv in zip(jobs, argvs):
        ex = run.execute(cli, argv)
        if ex.crash or ex.code != job.expect:
            problems.append(f"{job.name}: exit {ex.code}, contract says {job.expect}")
        elif (reason := oracles.check(job, ex.stdout)) is not None:
            problems.append(f"{job.name}: {reason}")
        reference[job.name] = {
            "input_sha256": gen.input_digest(job),
            "exit": ex.code,
            "stdout_sha256": hashlib.sha256(ex.stdout.encode()).hexdigest(),
        }
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(reference)} reference hashes written to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
