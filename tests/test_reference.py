"""The benchmark's reference jobs, run in process.

``perfbench/reference.json`` records, per job, the sha256 of its input, its
exit code and the sha256 of its stdout.  These tests read ``perfbench/``
and write the job inputs under ``tmp_path`` only.
"""

import hashlib
import json
import os
import sys
from fractions import Fraction
from itertools import repeat

import pytest

from datagen import (
    beta_by_walls_inverse,
    chamber_by_walls_inverse,
    chamber_generators,
    facet_inheritance_by_rank,
    random_data,
)
from test_fuzz import _commands
from spherindex import cli, restrict
from spherindex.cli import parse_datum
from spherindex.datum import is_valid, validate
from spherindex.degeneration import build_degeneration
from spherindex.fans import standard_fan, strata, weyl_saturate
from spherindex.linalg import Lattice, hermite_normal_form, identity, integer_kernel, transpose
from spherindex.restrict import (
    _annihilator,
    chamber_containment_check,
    coweight_identity_check,
    localize,
    phi_k_res,
    restrict_datum,
)
from spherindex.rootsys import generate_roots

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
sys.path.insert(0, PERFBENCH)

import gen  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def jobs():
    return [j for j in gen.all_reference_jobs() if j.hashed]


def _no_parser():
    raise AssertionError("the argparse parser was built")


def test_every_reference_job_reproduces_its_recorded_report(tmp_path, jobs, monkeypatch):
    """Each job's argv is read off ``cli.COMMANDS``: the parser is never built."""
    monkeypatch.setattr(cli, "_parser", _no_parser)
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


def test_no_reference_job_or_fixture_builds_the_parser(tmp_path, monkeypatch):
    """Every reference job in text, the unhashed ones in JSON as well (the test
    above checks the hashed ones against their recorded reports), and each
    fixture through each command in both formats: with the parser made to
    raise, each gives the exit code and stdout of the argparse path."""
    jobs = gen.all_reference_jobs()
    argvs = []
    for job, argv in zip(jobs, gen.write_inputs(jobs, str(tmp_path))):
        argv = argv[2:] if argv[:1] == ["--format"] else argv
        argvs += [["--format", fmt, *argv] for fmt in ("text", "json")[: 1 + (not job.hashed)]]
    fan_path = tmp_path / "fan.json"
    fan_path.write_text(json.dumps({"cones": [[[-1, 0], [0, -1]]]}))
    for name in sorted(os.listdir(FIXTURES)):
        path = os.path.join(FIXTURES, name)
        for argv in [["restrict-index", path], *_commands(path, str(fan_path)), ["fan", path, "--fan", str(fan_path), "--saturate", "--check", "support"]]:
            argvs += [["--format", "json", *argv], ["--format", "text", *argv], argv]

    def outcomes():
        return [(ex.code, hashlib.sha256(ex.stdout.encode()).digest(), ex.crash) for ex in map(run.execute, repeat(cli), argvs)]

    monkeypatch.setattr(cli, "_canonical_args", lambda argv: None)
    slow = outcomes()
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_parser", _no_parser)
    assert outcomes() == slow
    assert len(argvs) == len(jobs) + 14 + 4 * 7 * 3  # 14 unhashed jobs; 4 fixtures, 7 command lines, 3 spellings


def reference_data(jobs) -> list:
    """Each distinct datum of the reference jobs, parsed."""
    docs = {
        json.dumps(doc, sort_keys=True): doc
        for job in jobs for doc in job.files.values() if isinstance(doc, dict) and "mode" in doc
    }
    return [parse_datum(doc) for doc in docs.values()]


def test_nk_spans_the_restriction_onto_every_little_coordinate(jobs):
    """``restrict_datum`` reads the restriction of a character as its values on
    ``nk``: that is the little weight lattice Z^dk because ``nk`` is a basis of a
    saturated lattice, so the Hermite form of nk^T is [I; 0]."""
    data = reference_data(jobs) + random_data(20261018, 24)
    checked = 0
    for d in data:
        if not is_valid(validate(d)):
            continue
        nk = integer_kernel(_annihilator(d, d.compact_split), width=len(d.pairing))
        assert hermite_normal_form(transpose(nk)) == [list(r) for r in identity(len(nk))] + [[0] * len(nk)] * (len(d.pairing) - len(nk))
        checked += 1
    assert checked > 250


def test_restricted_roots_and_strata_have_the_ranks_their_readers_assume(jobs, monkeypatch):
    """The valuation cone is strictly convex exactly when ``sigma_k`` has ``rank``
    roots, and a stratum's rank is ``rank`` minus its cone's size: ``sigma_k``
    classifies, so it is independent, and so are the generators of the standard
    fan and of its Weyl saturation.  ``restrict_datum`` computes N_k alone."""
    kernels = []

    def counting(rows, width):
        kernels.append(width)
        return integer_kernel(rows, width=width)

    checked = 0
    for d in reference_data(jobs) + random_data(20261020, 40):
        if not is_valid(validate(d)):
            continue
        with monkeypatch.context() as m:
            m.setattr(restrict, "integer_kernel", counting)
            kernels.clear()
            rd = restrict_datum(d)
        assert kernels == [len(d.pairing)]
        assert len(integer_kernel(rd.sigma_k, width=rd.rank)) == rd.rank - len(rd.sigma_k)
        if len(rd.sigma_k) == rd.rank:
            f = standard_fan(rd)
            for fan in (f, weyl_saturate(f, rd)):
                sp = strata(fan, rd)
                assert [len(s.lattice_basis) for s in sp] == [rd.rank - len(c) for c in fan.cones]
        checked += 1
    assert checked > 300


def test_every_reference_datum_inherits_its_facets(jobs):
    """Facet inheritance holds by construction of the restricted datum: the
    rank-per-face oracle passes on every valid reference datum."""
    checked = 0
    for d in reference_data(jobs):
        if is_valid(validate(d)):
            assert isinstance(facet_inheritance_by_rank(d, restrict_datum(d)), dict)
            checked += 1
    assert checked > 250


def test_fiber_sums_match_the_inverse_of_the_walls(jobs, monkeypatch):
    """On every valid ambient reference datum, the ``sigma_k_in_beta`` rows are
    the restrictions times the inverse of the walls, exactly, and the chamber
    check's generators are that inverse's up to its positive scale."""
    checked = 0
    for d in reference_data(jobs):
        if d.index is None or not is_valid(validate(d)):
            continue
        beta = d.index.simple_roots.fiber_sums(d.sigma_input)
        assert beta == [list(row) for row in beta_by_walls_inverse(d, d.sigma_input)]
        old, det = chamber_by_walls_inverse(d)
        gens = chamber_generators(monkeypatch, d, restrict_datum(d))
        assert det > 0 and list(old) == [tuple(det * x for x in row) for row in gens]
        checked += 1
    assert checked == 265


def test_restriction_of_integral_data_creates_no_fraction(jobs, monkeypatch):
    """The restricted datum keeps its lifts, form and coweights as integers over
    stored scales, so on every integral valid reference datum restriction, the
    root restriction, the two identity checks, the standard fan with its
    strata, localization and the degeneration create no ``Fraction``."""
    data = []
    for d in reference_data(jobs):
        if all(type(x) is int for row in d.sigma + d.pairing for x in row) and is_valid(validate(d)):
            data.append(d)
    created = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for d in data:
        rd = restrict_datum(d)
        phi_k_res(d, rd, generate_roots(rd.roots))
        coweight_identity_check(d, rd)
        chamber_containment_check(d, rd)
        if len(rd.sigma_k) == rd.rank:
            strata(standard_fan(rd), rd)
            for t in range(len(rd.sigma_k)):
                localize(rd, [t])
            build_degeneration(Lattice.standard(rd.rank), rd.sigma_k)
    assert created == []
    assert len(data) > 200
