"""The benchmark's reference jobs, run in process.

``perfbench/reference.json`` records, per job, the sha256 of its input, its
exit code and the sha256 of its stdout.  These tests read ``perfbench/``
and write the job inputs under ``tmp_path`` only.
"""

import hashlib
import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import repeat

import pytest

from datagen import (
    beta_by_walls_inverse,
    chamber_by_walls_inverse,
    chamber_generators,
    facet_inheritance_by_rank,
    load_tool,
    random_data,
    simple_root_datum,
    split_product_datum,
    to_abstract,
    with_identity_star,
)
from test_fuzz import _commands
from spherindex import cli, restrict
from spherindex.cli import parse_datum
from spherindex.datum import SphericalDatumK, is_valid, validate
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
from spherindex.errors import SpherindexError
from spherindex.rootsys import VALID_RANKS, generate_roots

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
    fan and of its Weyl saturation.  ``restrict_datum`` computes N_k alone,
    and no kernel at all when the annihilator of N_k is empty: N_k is N_K."""
    kernels, checked = [], Counter()

    def counting(rows, width):
        kernels.append(width)
        return integer_kernel(rows, width=width)

    for d in reference_data(jobs) + random_data(20261020, 40):
        if not is_valid(validate(d)):
            continue
        with monkeypatch.context() as m:
            m.setattr(restrict, "integer_kernel", counting)
            kernels.clear()
            rd = restrict_datum(d)
        split = not _annihilator(d, d.compact_split)
        assert kernels == ([] if split else [len(d.pairing)])
        assert len(integer_kernel(rd.sigma_k, width=rd.rank)) == rd.rank - len(rd.sigma_k)
        if len(rd.sigma_k) == rd.rank:
            f = standard_fan(rd)
            for fan in (f, weyl_saturate(f, rd)):
                sp = strata(fan, rd)
                assert [len(s.lattice_basis) for s in sp] == [rd.rank - len(c) for c in fan.cones]
        checked[split] += 1
    assert checked[True] > 200 and checked[False] > 50, checked


RESTRICTED_FIELDS = ("rank", "sigma_k", "fibers", "form_k", "roots", "coweights", "coweight_den", "projected_lifts", "lifts_den")


def restricted_fields(d) -> dict | tuple:
    """The fields of ``restrict_datum(d)``, or the class and message of what it raises."""
    try:
        rd = restrict_datum(d)
    except SpherindexError as e:
        return type(e).__name__, str(e)
    return {f: getattr(rd, f) for f in RESTRICTED_FIELDS}


def test_a_split_datum_restricts_to_itself_as_the_general_path_does(jobs):
    """With no compact spherical root and no star generator ``restrict_datum``
    reads its record off the datum.  The identity star keeps the group action
    but sends the datum down the general path (kernel, Hermite lifts,
    projection, classification, dual basis), which gives the same fields, or
    the same error, on: every valid split reference datum; random split data
    on several components, B2, C2, D2 and D3 among them, with enlarged weight
    lattices; the simple roots of every split type up to rank 12 in Bourbaki
    and in reversed order; and abstract data with no star and no sigma0, some
    of them indefinite, and four whose roots repeat or are no root base."""
    reference = [d for d in reference_data(jobs) if is_valid(validate(d)) and not d.star_xi and not d.compact_split.sigma0]
    rng = random.Random(20261021)
    products = [split_product_datum(rng) for _ in range(80)]
    types = [(f, n) for f in "ABCDEFG" for n in range(1, 13) if VALID_RANKS[f](n)]
    simple = [simple_root_datum(f, n, order) for f, n in types for order in (range(n), range(n - 1, -1, -1))]
    tool = load_tool("compare_outputs")
    documents = [tool.random_abstract_document(rng) for _ in range(120)]
    abstract = [to_abstract(d) for d in products] + [
        parse_datum({**doc, "abstract": {**doc["abstract"], "star": [], "sigma0": []}}) for doc in documents
    ]
    abstract += [  # a repeated root, an indefinite pair, an affine pair and a dependent triple
        SphericalDatumK.abstract(2, pairing, [], sigma)
        for pairing, sigma in [
            ([[2, 0], [0, 2]], [[1, 0], [0, 1], [1, 0]]),
            ([[2, 0], [0, -2]], [[1, 0], [0, 1]]),
            ([[2, -2], [-2, 2]], [[1, 0], [0, 1]]),
            ([[2, -1], [-1, 2]], [[1, 0], [0, 1], [1, 1]]),
        ]
    ]
    outcomes = Counter()
    for d in reference + products + simple + abstract:
        assert not d.star_xi and not d.compact_split.sigma0
        fields = restricted_fields(d)
        assert fields == restricted_fields(with_identity_star(d)), d
        outcomes[fields[0] if isinstance(fields, tuple) else "restricted"] += 1
    assert len(reference) > 200 and len(simple) == 100, (len(reference), len(simple))
    families = Counter(c.family + str(c.rank) for d in products for c in d.index.ambient.components)
    assert min(families[t] for t in ("B2", "C2", "D2", "D3")) > 0, families
    assert sum(len(d.index.ambient.components) > 1 for d in products) > 20
    assert sum(len(d.pairing) > len(d.sigma) for d in products) > 20  # lattices larger than the roots' span
    assert outcomes == {"restricted": 600, "TheoremViolation": 1, "NotARootBase": 1, "NotFiniteType": 1, "LinearlyDependent": 1}


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
