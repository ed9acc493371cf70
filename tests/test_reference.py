"""The benchmark's reference jobs, run in process.

``perfbench/reference.json`` records, per job, the sha256 of its input, its
exit code and the sha256 of its stdout.  These tests read ``perfbench/``
and write the job inputs under ``tmp_path`` only.
"""

import hashlib
import json
import os
import sys

import pytest

from datagen import random_data
from spherindex import cli
from spherindex.cli import parse_datum
from spherindex.datum import is_valid, validate
from spherindex.linalg import hermite_normal_form, identity, integer_kernel, transpose
from spherindex.restrict import _annihilator

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)

import gen  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def jobs():
    return [j for j in gen.all_reference_jobs() if j.hashed]


def test_every_reference_job_reproduces_its_recorded_report(tmp_path, jobs):
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    assert sorted(j.name for j in jobs) == sorted(reference)
    wrong = []
    for job, argv in zip(jobs, gen.write_inputs(jobs, str(tmp_path))):
        ex = run.execute(cli, argv)
        got = {
            "input_sha256": gen.input_digest(job),
            "exit": ex.code,
            "stdout_sha256": hashlib.sha256(ex.stdout.encode()).hexdigest(),
        }
        if got != reference[job.name]:
            wrong.append((job.name, {k: v for k, v in got.items() if v != reference[job.name][k]}))
    assert wrong == []


def test_nk_spans_the_restriction_onto_every_little_coordinate(jobs):
    """``restrict_datum`` reads the restriction of a character as its values on
    ``nk``: that is the little weight lattice Z^dk because ``nk`` is a basis of a
    saturated lattice, so the Hermite form of nk^T is [I; 0]."""
    docs = {
        json.dumps(doc, sort_keys=True): doc
        for job in jobs for doc in job.files.values() if isinstance(doc, dict) and "mode" in doc
    }
    data = [parse_datum(doc) for doc in docs.values()] + random_data(20261018, 24)
    checked = 0
    for d in data:
        if not is_valid(validate(d)):
            continue
        nk = integer_kernel(_annihilator(d, d.compact_split), width=d.m)
        h, _ = hermite_normal_form(transpose(nk))
        assert h == [list(r) for r in identity(len(nk))] + [[0] * len(nk)] * (d.m - len(nk))
        checked += 1
    assert checked > 250
