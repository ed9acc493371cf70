"""Random abstract documents through every command that reads a datum.

The exit-code contract holds for any input file, so no exception may escape
``cli.main``: a random document exits 0, 1 or 2.  Exit 3 is kept for a
structural identity that consistent input cannot break, and a document
either fails validation or is consistent, so none exits 3.
"""

import contextlib
import io
import json
import random

import pytest

from spherindex import cli

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
        v[i] = rng.choice([1, 1, 1, 2])
    return v


def random_document(rng):
    r = rng.randint(1, 4)
    sigma = [_root(rng, r) for _ in range(rng.randint(0, r))]
    abstract = {
        "rank": r,
        "pairing": _pairing(rng, r),
        "star": [_star(rng, r) for _ in range(rng.choice([0, 0, 1, 1, 2]))],
        "sigma": sigma,
    }
    if sigma and rng.random() < 0.3:
        abstract["sigma0"] = rng.sample(range(len(sigma)), rng.randint(1, len(sigma)))
    doc = {"schema_version": "1", "mode": "abstract", "abstract": abstract}
    if rng.random() < 0.3:  # a sublattice of any rank from 0 to r
        doc["gamma"] = [[2 * (i == j) for j in range(r)] for i in rng.sample(range(r), rng.randint(0, r))]
    return doc


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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_gamma_outside_the_root_span_exits_1_with_one_error_line(capsys, tmp_path, fmt):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(GAMMA_OUTSIDE_THE_ROOT_SPAN))
    assert cli.main(["--format", fmt, "degenerate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: sublattice leaves the span of the restricted roots\n"


def test_no_exception_escapes_main_on_random_abstract_documents(tmp_path):
    rng = random.Random(20261018)
    docs = [DEGENERATE_FORM] + [random_document(rng) for _ in range(1000)]
    fans = {}
    failed = []
    for k, doc in enumerate(docs):
        path = tmp_path / f"d{k}.json"
        path.write_text(json.dumps(doc))
        r = doc["abstract"]["rank"]
        if r not in fans:  # the negative orthant: of the little rank when N_k is all of Q^r
            fans[r] = tmp_path / f"fan{r}.json"
            fans[r].write_text(json.dumps({"cones": [[[-int(i == j) for j in range(r)] for i in range(r)]]}))
        for argv in _commands(str(path), str(fans[r])):
            if (outcome := _outcome(argv)) not in (0, 1, 2):
                failed.append((argv[0], doc, repr(outcome)))
    assert failed == []
