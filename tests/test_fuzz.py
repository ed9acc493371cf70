"""Random abstract and ambient documents through every command that reads
a datum, and random ``--roots`` strings through ``localize``.

The exit-code contract holds for any input file, so no exception may escape
``cli.main``: a random document exits 0, 1 or 2.  Exit 3 is kept for a
structural identity that consistent input cannot break, and a document
either fails validation or is consistent, so none exits 3.  The ambient
documents also send seeded random user fans in their little rank through
``fan``, with and without ``--saturate`` under a small ``SPHERINDEX_ORBIT_CAP``.
"""

import contextlib
import io
import json
import os
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from spherindex import cli
from spherindex.restrict import restrict_datum

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

# passes validation, but the pairing vanishes on the annihilator of N_k: the
# span of g - 1 for the swap g, on which (e1 - e2) F (e1 - e2)^T = 0
DEGENERATE_FORM = {
    "schema_version": "1",
    "mode": "abstract",
    "abstract": {"rank": 2, "pairing": [[2, 2], [2, 2]], "star": [[[0, 1], [1, 0]]], "sigma": [[1, 1]]},
}

# the swap of the two coordinates does not preserve this pairing:
# g F g^T = [[1, 1], [1, 2]] != F, so the datum is refused where it is built
NON_ISOMETRIC_STAR = {
    "schema_version": "1",
    "mode": "abstract",
    "abstract": {"rank": 2, "pairing": [[2, 1], [1, 1]], "star": [[[0, 1], [1, 0]]], "sigma": [[1, 1]]},
}

# the swap exchanges the two roots, but only the second is compact: the
# compact roots are not a union of star orbits, so the datum is refused
UNSTABLE_SIGMA0 = {
    "schema_version": "1",
    "mode": "abstract",
    "abstract": {"rank": 2, "pairing": [[2, 0], [0, 2]], "star": [[[0, 1], [1, 0]]], "sigma": [[1, 0], [0, 1]], "sigma0": [1]},
}

# one restricted root, but gamma has rank 2: it leaves the span of the root,
# so no multiples of the root can be a basis of it
GAMMA_OUTSIDE_THE_ROOT_SPAN = {
    "schema_version": "1",
    "mode": "abstract",
    "abstract": {"rank": 2, "pairing": [[2, 0], [0, 2]], "star": [], "sigma": [[1, 0]]},
    "gamma": [[1, 0], [0, 1]],
}

# gamma is Z^2, which holds both primitive roots, so both multipliers are 1;
# but (1, 1) and (1, -1) span a sublattice of index 2 in it
GAMMA_NOT_SPANNED_BY_ROOT_MULTIPLES = {
    "schema_version": "1",
    "mode": "abstract",
    "abstract": {"rank": 2, "pairing": [[2, 0], [0, 2]], "star": [], "sigma": [[1, 1], [1, -1]]},
    "gamma": [[1, 0], [0, 1]],
}


def _pairing(rng, r):
    """A symmetric integer form: 2I, the Cartan form of A_r, a random one, or
    the Gram matrix of r vectors in Z^k, k <= r (degenerate when k < r)."""
    kind = rng.randrange(4)
    if kind == 0:
        return [[2 * (i == j) for j in range(r)] for i in range(r)]
    if kind == 1:
        return [[2 if i == j else -(abs(i - j) == 1) for j in range(r)] for i in range(r)]
    if kind == 2:
        m = [[0] * r for _ in range(r)]
        for i in range(r):
            m[i][i] = rng.choice([0, 2, 2, 4])
            for j in range(i):
                m[i][j] = m[j][i] = rng.randint(-2, 2)
        return m
    cols = list(zip(*([rng.randint(-1, 1) for _ in range(r)] for _ in range(rng.randint(1, r)))))
    return [[sum(x * y for x, y in zip(a, b)) for b in cols] for a in cols]


def _star(rng, r):
    """A permutation of the coordinates, or now and then any small matrix."""
    if rng.random() < 0.8:
        p = rng.sample(range(r), r)
        return [[int(p[i] == j) for j in range(r)] for i in range(r)]
    return [[rng.randint(-1, 1) for _ in range(r)] for _ in range(r)]


def _root(rng, r):
    v = [0] * r
    for i in rng.sample(range(r), rng.randint(1, min(r, 2))):
        v[i] = rng.choice([1, 1, 2, -1, -1])
    return v


def _orthogonal_roots(rng, r):
    """Roots orthogonal under 2I: e_i + e_j and e_i - e_j for disjoint pairs
    (i, j), or e_i alone; a pair spans a sublattice of index 2 in its plane."""
    coords = rng.sample(range(r), r)
    roots = []
    while coords:
        i = coords.pop()
        if coords and rng.random() < 0.7:
            j = coords.pop()
            roots += [[int(k == i) + sign * int(k == j) for k in range(r)] for sign in (1, -1)]
        else:
            roots.append([int(k == i) for k in range(r)])
    return rng.sample(roots, rng.randint(1, len(roots)))


def _gamma(rng, r, sigma):
    """Rows of a sublattice: the spherical roots with half the sum or the
    difference of two of them (as ``"p/q"`` strings), or any rank from 0 to
    r of doubled axes and small rows off the axes."""
    if sigma and rng.random() < 0.5:
        halves = [[str(Fraction(x + sign * y, 2)) for x, y in zip(a, b)] for a in sigma for b in sigma if a < b for sign in (1, -1)]
        return sigma + rng.sample(halves, min(len(halves), rng.randint(0, 2)))
    pool = [[2 * (i == j) for j in range(r)] for i in range(r)] + [[rng.randint(-1, 1) for _ in range(r)] for _ in range(r)]
    return rng.sample(pool, rng.randint(0, r))


def random_document(rng):
    r = rng.randint(1, 4)
    if rng.random() < 0.2:  # orthogonal roots, which may span a sublattice of index 2
        sigma, pairing, star = _orthogonal_roots(rng, r), [[2 * (i == j) for j in range(r)] for i in range(r)], []
    else:
        sigma, pairing = [_root(rng, r) for _ in range(rng.randint(0, r))], _pairing(rng, r)
        star = [_star(rng, r) for _ in range(rng.choice([0, 0, 1, 1, 2]))]
    abstract = {"rank": r, "pairing": pairing, "star": star, "sigma": sigma}
    if sigma and rng.random() < 0.3:
        abstract["sigma0"] = rng.sample(range(len(sigma)), rng.randint(1, len(sigma)))
    doc = {"schema_version": "1", "mode": "abstract", "abstract": abstract}
    if rng.random() < 0.5:
        doc["gamma"] = _gamma(rng, r, sigma)
    return doc


AMBIENT_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]


def _ambient_root(rng, m):
    """e_i, e_i + e_j or 2 e_i: a small nonnegative row."""
    v = [0] * m
    for i in rng.sample(range(m), rng.randint(1, min(m, 2))):
        v[i] += 1
    if rng.random() < 0.15:
        v = [2 * x for x in v]
    return v


def random_ambient_document(rng):
    """One or two components of small type with labelled roots, a random
    compact set, a ``"flip"`` or a permutation star, ``sp``, and small
    nonnegative spherical roots."""
    types = [rng.choice(AMBIENT_TYPES) for _ in range(rng.randint(1, 2))]
    components = [{"family": fam, "rank": n, "label": f"x{k}"} for k, (fam, n) in enumerate(types)]
    if len(types) == 1:
        names = [f"a{i + 1}" for i in range(types[0][1])]
    else:
        names = [f"x{k}.a{i + 1}" for k, (_, n) in enumerate(types) for i in range(n)]
    m = len(names)
    star = rng.choice([[], [], ["flip"], ["flip"], [_star(rng, m)]])
    spherical = {"sigma": [_ambient_root(rng, m) for _ in range(rng.randint(0, m))]}
    if rng.random() < 0.3:
        spherical["sp"] = rng.sample(names, rng.randint(1, m))
    return {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": components},
        "compact_simple": [x for x in names if rng.random() < 0.2],
        "star_generators": star,
        "spherical": spherical,
    }


def _commands(path, fan_path):
    return [
        ["analyze", path],
        ["standard-fan", path],
        ["localize", path, "--roots", "1"],
        ["degenerate", path],
        ["fan", path, "--fan", fan_path, "--check", "complete", "--check", "smooth", "--strata"],
    ]


def _outcome(argv):
    """The exit code of ``main(argv)``, or the exception that escapes it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as e:  # noqa: BLE001 - any escape is the failure
            return e


def _every_command(capsys, tmp_path, fmt, doc, fan_cones):
    """The set of (exit code, stdout, stderr) of the five commands on ``doc``."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    fan_path = tmp_path / "fan.json"
    fan_path.write_text(json.dumps({"cones": fan_cones}))
    outcomes = set()
    for argv in _commands(str(path), str(fan_path)):
        outcomes.add((cli.main(["--format", fmt] + argv), *capsys.readouterr()))
    return outcomes


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_the_degenerate_form_exits_1_with_one_error_line(capsys, tmp_path, fmt):
    assert _every_command(capsys, tmp_path, fmt, DEGENERATE_FORM, [[[-1]]]) == {
        (1, "", "error: pairing is degenerate on the annihilator of N_k\n")
    }


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_star_that_is_not_an_isometry_exits_2_with_one_error_line(capsys, tmp_path, fmt):
    assert _every_command(capsys, tmp_path, fmt, NON_ISOMETRIC_STAR, [[[-1, 0], [0, -1]]]) == {
        (2, "", "error: star generator is not an isometry of the pairing\n")
    }


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_compact_roots_that_are_not_star_stable_exit_2_with_one_error_line(capsys, tmp_path, fmt):
    assert _every_command(capsys, tmp_path, fmt, UNSTABLE_SIGMA0, [[[-1, 0], [0, -1]]]) == {
        (2, "", "error: compact roots are not a union of star orbits of the spherical roots\n")
    }


def _degenerate(capsys, tmp_path, fmt, doc):
    """(exit code, stdout, stderr) of ``degenerate`` on ``doc``."""
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(doc))
    return cli.main(["--format", fmt, "degenerate", str(path)]), *capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_gamma_outside_the_root_span_exits_1_with_one_error_line(capsys, tmp_path, fmt):
    assert _degenerate(capsys, tmp_path, fmt, GAMMA_OUTSIDE_THE_ROOT_SPAN) == (
        1, "", "error: sublattice leaves the span of the restricted roots\n"
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_gamma_not_spanned_by_root_multiples_exits_1_with_one_error_line(capsys, tmp_path, fmt):
    assert _degenerate(capsys, tmp_path, fmt, GAMMA_NOT_SPANNED_BY_ROOT_MULTIPLES) == (
        1, "", "error: sublattice is not spanned by multiples of the restricted roots\n"
    )


def _random_fan(rng, r):
    """1 to 3 cones of 1 to r small primitive generators in Z^r."""
    if r == 0:
        return [[]]

    def ray():
        while gcd(*(v := [rng.randint(-2, 2) for _ in range(r)])) != 1:
            pass
        return v

    return [[ray() for _ in range(rng.randint(1, r))] for _ in range(rng.randint(1, 3))]


def _fuzz(tmp_path, docs, rank_of, rng=None, codes=None):
    """Each (command, document, outcome) of the five commands on ``docs`` that
    does not exit 0, 1 or 2; the fan is the negative orthant in ``rank_of(doc)``.
    With ``rng``, a random fan in that rank also goes through ``fan``, checked
    and saturated.  ``codes`` counts the exit codes of each command."""
    fans = {}
    failed = []
    for k, doc in enumerate(docs):
        path = tmp_path / f"d{k}.json"
        path.write_text(json.dumps(doc))
        r = rank_of(doc)
        if r not in fans:
            fans[r] = tmp_path / f"fan{r}.json"
            fans[r].write_text(json.dumps({"cones": [[[-int(i == j) for j in range(r)] for i in range(r)]]}))
        runs = [(argv[0], argv) for argv in _commands(str(path), str(fans[r]))]
        if rng is not None:
            user = tmp_path / f"user{k}.json"
            user.write_text(json.dumps({"cones": _random_fan(rng, r)}))
            argv = ["fan", str(path), "--fan", str(user), "--check", "complete", "--check", "smooth", "--strata"]
            runs += [("user fan", argv), ("user fan --saturate", argv + ["--saturate"])]
        for label, argv in runs:
            if (outcome := _outcome(argv)) not in (0, 1, 2):
                failed.append((label, doc, repr(outcome)))
            if codes is not None:
                codes[label, outcome] += 1
    return failed


def little_rank(doc):
    """The rank of the restricted datum, or the ambient rank when restriction fails."""
    try:
        return restrict_datum(cli.parse_datum(doc)).rank
    except Exception:  # noqa: BLE001 - any failure leaves the ambient rank
        return sum(c["rank"] for c in doc["ambient"]["components"])


def test_no_exception_escapes_main_on_random_abstract_documents(tmp_path):
    rng = random.Random(20261018)
    docs = [DEGENERATE_FORM] + [random_document(rng) for _ in range(1000)]
    # the orthant is of the little rank when N_k is all of Q^r
    assert _fuzz(tmp_path, docs, lambda doc: doc["abstract"]["rank"]) == []


def test_no_exception_escapes_main_on_random_ambient_documents(tmp_path, monkeypatch):
    """The fans are in the little rank, so most documents pass the width check;
    saturation runs under a cap of 8 cones, which one fan of this seed hits."""
    rng = random.Random(20261019)
    docs = [random_ambient_document(rng) for _ in range(400)]
    monkeypatch.setenv("SPHERINDEX_ORBIT_CAP", "8")
    codes = Counter()
    assert _fuzz(tmp_path, docs, little_rank, random.Random(20261029), codes) == []
    assert min(codes["fan", 0], codes["user fan", 0], codes["user fan --saturate", 0]) > 50


# digits, signs, commas, whitespace, underscores, digits of other scripts that
# ``int`` reads (Arabic-Indic, Devanagari, fullwidth) and a superscript 2 it refuses
ROOTS_ALPHABET = "0123456789" + "12,,," + "+-" + " \t\u3000" + "_" + "\u0661\u0662\u0967\uff11\uff12\u00b2"


def test_random_roots_strings_exit_0_or_2_without_a_traceback(capsys):
    rng = random.Random(20261020)
    path = os.path.join(FIXTURES, "e6.json")  # convex, two restricted roots
    codes = set()
    for _ in range(400):
        roots = "".join(rng.choice(ROOTS_ALPHABET) for _ in range(rng.randint(0, 6)))
        code = cli.main(["localize", path, f"--roots={roots}"])
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err, (roots, code, err)
        assert (code == 0) == (err == ""), (roots, err)
        codes.add(code)
    assert codes == {0, 2}
