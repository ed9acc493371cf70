import copy
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from datagen import random_data
from spherindex import fans
from spherindex import cli
from spherindex.cli import main
from spherindex.restrict import restrict_datum

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, os.pardir, "fixtures")
SRC = os.path.abspath(os.path.join(HERE, os.pardir, "src"))


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_analyze_text_ok(capsys):
    code, out, _ = run(capsys, "analyze", fixture("sp42.json"))
    assert code == 0
    assert "valid: true" in out
    assert "wk_type: A1" in out


def test_analyze_json_fixtures(capsys):
    for name, wk in [("sp42", "A1"), ("e6", "B2"), ("su22", "A1"), ("u11", "A1")]:
        code, out, _ = run(capsys, "--format", "json", "analyze", fixture(name + ".json"))
        assert code == 0
        report = json.loads(out)
        assert report["valid"] is True
        assert report["wk_type"] == wk


def test_output_deterministic(capsys):
    outs = set()
    for _ in range(2):
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, "--format", fmt, "analyze", fixture("e6.json"))
            assert code == 0
            outs.add((fmt, out))
    assert len(outs) == 2


def test_json_roundtrip(capsys):
    code, out, _ = run(capsys, "--format", "json", "analyze", fixture("e6.json"))
    assert json.loads(json.dumps(json.loads(out), sort_keys=True)) == json.loads(out)


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent.json")
    assert code == 2
    assert "error" in err


def test_bad_schema_exit_2(capsys, tmp_path):
    path = write(tmp_path, "bad.json", {"schema_version": "1", "mode": "nosuch"})
    assert run(capsys, "analyze", path)[0] == 2
    path = write(tmp_path, "bad2.json", {"cones": []})
    assert run(capsys, "analyze", path)[0] == 2
    good = {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "A", "rank": 3}]},
        "spherical": {"sigma": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    }
    no_family = dict(good, ambient={"components": [{"rank": 3}]})
    rank_not_int = {
        "schema_version": "1",
        "mode": "abstract",
        "abstract": {"rank": "x", "pairing": [[2]], "sigma": [[1]]},
    }
    short_generator = write(tmp_path, "fan.json", {"cones": [[[-1, 0, 0], [0, -1]]]})
    abstract = json.load(open(fixture("u11.json")))
    cases = [
        ("restrict-index", no_family, []),
        ("analyze", rank_not_int, []),
        ("fan", good, ["--fan", short_generator]),
        ("degenerate", dict(good, gamma=[[1, 0]]), []),
        ("analyze", dict(good, star_generators=None), []),
        ("analyze", dict(good, compact_simple=-1), []),
        ("restrict-index", dict(good, ambient={"components": 7}), []),
        ("analyze", dict(good, star_generators=[[True, True, True]]), []),
        ("analyze", dict(abstract, abstract=dict(abstract["abstract"], star=7)), []),
        ("analyze", dict(abstract, abstract=dict(abstract["abstract"], sigma0=40)), []),
        ("analyze", dict(good, spherical=dict(good["spherical"], xi_basis=[[1, 2]])), []),
    ]
    for k, (cmd, doc, extra) in enumerate(cases):
        code, _, err = run(capsys, cmd, write(tmp_path, f"hole{k}.json", doc), *extra)
        assert code == 2, cmd
        assert err.startswith("error: ") and "Traceback" not in err


def test_validation_failure_exit_1_with_report(capsys, tmp_path):
    # dependent spherical roots parse fine but fail validation
    doc = {
        "schema_version": "1",
        "mode": "abstract",
        "abstract": {
            "rank": 2,
            "pairing": [[1, 0], [0, 1]],
            "star": [],
            "sigma": [[1, 0], [2, 0]],
        },
    }
    path = write(tmp_path, "dep.json", doc)
    code, out, _ = run(capsys, "--format", "json", "analyze", path)
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    failed = {v["name"] for v in report["validation"] if not v["passed"]}
    assert "linearly_independent" in failed


def test_theorem_violation_exit_3(capsys, tmp_path):
    # valid-looking folded datum whose root restricts to thrice a primitive
    doc = {
        "schema_version": "1",
        "mode": "abstract",
        "abstract": {
            "rank": 2,
            "pairing": [["14/9", "-13/9"], ["-13/9", "14/9"]],
            "star": [[[0, 1], [1, 0]]],
            "sigma": [[2, 1], [1, 2]],
        },
    }
    path = write(tmp_path, "viol.json", doc)
    code, _, err = run(capsys, "analyze", path)
    assert code == 3
    assert "violation" in err


def test_restrict_index(capsys):
    code, out, _ = run(capsys, "--format", "json", "restrict-index", fixture("e6.json"))
    assert code == 0
    report = json.loads(out)
    assert report["type"] == "F4"
    assert report["fibers"] == [["a2"], ["a4"], ["a3", "a5"], ["a1", "a6"]]
    assert report["reduced"] is True


def test_restrict_index_bad_star_exit_1(capsys, tmp_path):
    doc = {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "A", "rank": 3}]},
        "compact_simple": ["a1"],
        "star_generators": ["flip"],
        "spherical": {"sigma": []},
    }
    path = write(tmp_path, "badix.json", doc)
    code, out, _ = run(capsys, "--format", "json", "restrict-index", path)
    assert code == 1
    assert json.loads(out)["violations"]


def test_star_generator_of_infinite_order_exits_1_at_once(capsys, tmp_path):
    """|det| = 10**30: the group is infinite, and saying so takes no closure
    (the closure ran to its cap in 4 s, with entries of ~300,000 digits)."""
    doc = json.load(open(fixture("su22.json")))
    doc["star_generators"] = [[[10**30, 0, 0], [0, 1, 0], [0, 0, 1]]]
    path = write(tmp_path, "su22_det.json", doc)
    # sha256 of each report as the closure gave it
    expected = {
        "restrict-index": "a11e0747d8008a8a370f9d2e328151d00da8aef5abf029fa90cce54759e47488",
        "analyze": "42f129e02cf6928e6e2f3eaafb4f4e6a9630ceb937ad4ee5caef16b65cc20096",
    }
    for cmd, digest in expected.items():
        start = time.perf_counter()
        code, out, _ = run(capsys, "--format", "json", cmd, path)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert json.loads(out)["validation"][0]["detail"] == (
        "star generator does not permute the simple roots; "
        "star action does not generate a finite group"
    )


def non_finite_doc(pairing):
    """Two orthogonal coordinate roots under a pairing of non-finite type."""
    return {
        "schema_version": "1",
        "mode": "abstract",
        "abstract": {"rank": 2, "pairing": pairing, "star": [], "sigma": [[1, 0], [0, 1]], "sigma0": []},
    }


AFFINE_DOC = non_finite_doc([[2, -2], [-2, 2]])


@pytest.mark.parametrize("pairing", [[[2, -2], [-2, 2]], [[2, -3], [-3, 2]]], ids=["affine", "hyperbolic"])
def test_spherical_roots_of_non_finite_type_fail_opposition(tmp_path, pairing):
    """The affine A1~ pairing ended in a traceback and the hyperbolic one
    never returned; both fail opposition_stable, in a subprocess that a
    hang would time out."""
    path = write(tmp_path, "non_finite.json", non_finite_doc(pairing))
    proc = subprocess.run(
        [sys.executable, "-m", "spherindex.cli", "--format", "json", "analyze", path],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    item = next(it for it in json.loads(proc.stdout)["validation"] if it["name"] == "opposition_stable")
    assert item["passed"] is False
    assert item["detail"] == "spherical roots do not span a finite root system: Cartan matrix is not of finite type"


def test_inadmissible_index_is_a_named_violation(capsys, tmp_path):
    """Split D8 with compact {a1, a3, a5}: the restricted simple roots have a
    non-integral Cartan number, which restrict-index and analyze report."""
    doc = {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "D", "rank": 8}]},
        "compact_simple": ["a1", "a3", "a5"],
        "star_generators": [],
        "spherical": {"sigma": [[0, 0, 0, 0, 0, 0, 0, 1]]},
    }
    path = write(tmp_path, "d8.json", doc)
    expected = "restricted simple roots do not form a root base: non-integral Cartan number at (1, 2)"
    code, out, _ = run(capsys, "--format", "json", "restrict-index", path)
    assert code == 1
    assert json.loads(out)["violations"] == [expected]
    code, out, _ = run(capsys, "--format", "json", "analyze", path)
    assert code == 1
    item = next(it for it in json.loads(out)["validation"] if it["name"] == "index_well_formed")
    assert item["passed"] is False and item["detail"] == expected


def test_ambient_rank_ceiling_exit_2_before_allocation(capsys, tmp_path, monkeypatch):
    doc = {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "A", "rank": 3}, {"family": "A", "rank": 3}]},
    }
    path = write(tmp_path, "a3a3.json", doc)
    assert run(capsys, "restrict-index", path)[0] == 0
    monkeypatch.setattr(cli, "HARD_RANK_CEILING", 5)
    doc["ambient"]["components"][1]["rank"] = 2
    assert run(capsys, "restrict-index", write(tmp_path, "a3a2.json", doc))[0] == 0  # rank 5

    def no_allocation(spec):
        raise AssertionError("the ambient datum was built past the ceiling")

    monkeypatch.setattr(cli.AmbientRootDatum, "of", staticmethod(no_allocation))
    code, out, err = run(capsys, "restrict-index", path)  # rank 6
    assert code == 2 and not out
    assert "total ambient rank 6 exceeds HARD_RANK_CEILING 5" in err


def test_standard_fan(capsys):
    code, out, _ = run(capsys, "--format", "json", "standard-fan", fixture("e6.json"))
    assert code == 0
    report = json.loads(out)
    assert len(report["cones"]) == 4
    assert len(report["strata"]) == 4
    assert report["smooth"] is True


def test_fan_checks(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", {"cones": [[[-1, 0], [0, -1]]]})
    code, out, _ = run(
        capsys,
        "--format", "json",
        "fan", fixture("e6.json"),
        "--fan", fan_path,
        "--check", "support", "--check", "complete", "--check", "smooth",
        "--strata",
    )
    assert code == 0
    report = json.loads(out)
    assert report["fan_valid"] is True
    assert report["support"] is True
    assert report["complete"] is True
    assert report["smooth"] is True
    assert len(report["strata"]) == 4


@pytest.mark.parametrize("entry", [1.7, True])
def test_fan_entry_that_is_not_an_integer_exits_2(capsys, tmp_path, entry):
    """A float is not truncated and a bool is not read as 1: both are schema errors."""
    fan_path = write(tmp_path, "fan.json", {"cones": [[[-1, 0], [0, entry]]]})
    code, out, err = run(capsys, "fan", fixture("e6.json"), "--fan", fan_path, "--check", "smooth")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "name, cone",
    [("e6.json", [[1, 0], [0, 1], [-1, -1]]), ("sp42.json", [[1], [-1]])],
)
def test_smooth_check_on_a_cone_that_is_not_simplicial(capsys, tmp_path, name, cone):
    """More generators than dimensions: reported, not smooth, no traceback."""
    fan_path = write(tmp_path, "fan.json", {"cones": [cone]})
    code, out, err = run(
        capsys, "--format", "json", "fan", fixture(name), "--fan", fan_path, "--check", "smooth"
    )
    assert code == 1
    assert "Traceback" not in err
    report = json.loads(out)
    assert "not_simplicial" in [i["kind"] for i in report["issues"]]
    assert report["smooth"] is False
    by_cone = {tuple(map(tuple, c["cone"])): c["smooth"] for c in report["smooth_by_cone"]}
    assert by_cone[tuple(sorted(map(tuple, cone)))] is False


def test_fan_incomplete(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", {"cones": [[[-1, 0]]]})
    code, out, _ = run(
        capsys, "--format", "json",
        "fan", fixture("e6.json"), "--fan", fan_path, "--check", "complete",
    )
    assert code == 0
    assert json.loads(out)["complete"] is False


def test_fan_saturate(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", {"cones": [[[-1, 0], [0, -1]]]})
    code, out, _ = run(
        capsys, "--format", "json",
        "fan", fixture("e6.json"), "--fan", fan_path, "--saturate", "--check", "complete",
    )
    assert code == 0
    report = json.loads(out)
    assert len([c for c in report["saturated_cones"] if len(c) == 2]) == 8
    assert report["complete"] is True


def test_localize(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "localize", fixture("e6.json"), "--roots", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 1
    assert report["roots"] == [1]


def test_localize_bad_root_exit_2(capsys):
    code, _, _ = run(capsys, "localize", fixture("e6.json"), "--roots", "7")
    assert code == 2


def test_localize_not_convex_exit_1(capsys):
    code, _, err = run(capsys, "localize", fixture("su22.json"), "--roots", "1")
    assert code == 1
    assert "error" in err


def test_degenerate_u11(capsys):
    code, out, _ = run(capsys, "--format", "json", "degenerate", fixture("u11.json"))
    assert code == 0
    report = json.loads(out)
    assert report["xiZ_index"] == 2
    assert report["boundary_cone"] == [[-1, -1]]
    assert any(f["horospherical"] for f in report["fibers"])


def test_degenerate_with_gamma(capsys, tmp_path):
    doc = json.load(open(fixture("u11.json")))
    doc["gamma"] = [[2]]
    path = write(tmp_path, "u11g.json", doc)
    code, out, _ = run(capsys, "--format", "json", "degenerate", path)
    assert code == 0
    report = json.loads(out)
    assert report["n_aut"] == [2]
    assert report["sigma_aut"] == [[2]]


def saturate_e6(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", {"cones": [[[-1, 0], [0, -1]]]})
    return run(capsys, "fan", fixture("e6.json"), "--fan", fan_path, "--saturate")


def test_orbit_cap_not_a_positive_integer_exit_2(capsys, tmp_path, monkeypatch):
    for value in ("abc", "0", "-3"):
        monkeypatch.setenv("SPHERINDEX_ORBIT_CAP", value)
        code, _, err = saturate_e6(capsys, tmp_path)
        assert code == 2, value
        assert err.startswith("error: SPHERINDEX_ORBIT_CAP") and "Traceback" not in err


def test_orbit_cap_budget_names_the_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPHERINDEX_ORBIT_CAP", "4")
    code, _, err = saturate_e6(capsys, tmp_path)
    assert code == 1
    assert "> cap 4 (set SPHERINDEX_ORBIT_CAP)" in err


def test_orbit_cap_budget_says_when_clamped(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(fans, "HARD_ORBIT_CEILING", 4)
    monkeypatch.setenv("SPHERINDEX_ORBIT_CAP", "50")
    code, _, err = saturate_e6(capsys, tmp_path)
    assert code == 1
    assert "> cap 4 (50 clamped to HARD_ORBIT_CEILING)" in err


FIXTURE_DOCS = [json.load(open(fixture(n + ".json"))) for n in ("sp42", "e6", "su22", "u11")]
FUZZ_INTS = st.integers(-2, 8) | st.integers(-(10**30), 10**30)
FUZZ_LEAVES = (
    st.none()
    | st.booleans()
    | FUZZ_INTS
    | st.sampled_from(["", "x", "1/2", "1/0", "flip", "a1", "A", "E"])
)


def json_values(depth):
    """JSON values nested at most ``depth`` deep, lists of up to 20 items.

    Ints up to 10**30 reach the eliminations and the Hermite forms; a rank
    that large exits 2 at HARD_RANK_CEILING, and no list comes near it.
    """
    if depth == 0:
        return FUZZ_LEAVES
    inner = json_values(depth - 1)
    return (
        FUZZ_LEAVES
        | st.lists(inner, max_size=20)
        | st.dictionaries(st.sampled_from(["family", "rank", "sigma", "star", "cones"]), inner, max_size=3)
    )


FUZZ_JSON = json_values(4)
FUZZ_COMMANDS = [
    ["analyze"],
    ["restrict-index"],
    ["standard-fan"],
    ["degenerate"],
    ["localize", "--roots", "1"],
    ["fan", "--saturate", "--check", "complete"],
    ["fan", "--check", "smooth", "--check", "support", "--strata"],
]


def _paths(node, prefix=()):
    """Every key path of a JSON document, starting with the empty path."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for k, v in children:
        yield from _paths(v, prefix + (k,))


def with_value(doc, path, value):
    """A copy of doc with the value at path replaced."""
    doc = copy.deepcopy(doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return doc


@st.composite
def mutated(draw, docs, least=1):
    """One of ``docs`` with ``least`` to three values replaced or deleted; an
    int is replaced by an int half the time, so large ones reach the kernels."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(least, 3))):
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], int) and draw(st.booleans()):
            parent[path[-1]] = draw(FUZZ_INTS)
        else:
            parent[path[-1]] = draw(FUZZ_JSON)
    return doc


FAN_DOC = {"cones": [[[-1, 0], [0, -1]]]}


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=mutated(FIXTURE_DOCS), fan_doc=mutated([FAN_DOC], least=0), cmd=st.sampled_from(FUZZ_COMMANDS))
@example(doc=with_value(FIXTURE_DOCS[0], ("spherical", "sigma", 0, 0), 10**30), fan_doc=FAN_DOC, cmd=["analyze"])
@example(
    doc=with_value(FIXTURE_DOCS[2], ("spherical", "xi_basis", 1, 1), -(10**30)),
    fan_doc=FAN_DOC,
    cmd=["localize", "--roots", "1"],
)
@example(doc=with_value(FIXTURE_DOCS[3], ("abstract", "sigma", 0, 0), 10**30), fan_doc=FAN_DOC, cmd=["standard-fan"])
@example(doc=AFFINE_DOC, fan_doc=FAN_DOC, cmd=["analyze"])
@example(
    doc=FIXTURE_DOCS[1],
    fan_doc={"cones": [[[1, 0], [0, 1], [-1, -1]]]},
    cmd=["fan", "--check", "smooth", "--check", "support", "--strata"],
)
def test_mutated_fixtures_exit_cleanly(capsys, tmp_path, doc, fan_doc, cmd):
    path = write(tmp_path, "fuzz.json", doc)
    if cmd[0] == "fan":
        cmd = [*cmd, "--fan", write(tmp_path, "fan.json", fan_doc)]
    code, _, err = run(capsys, cmd[0], path, *cmd[1:])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def _rows(m):
    return [[str(x) for x in row] for row in m]


def datum_doc(d):
    """The JSON document of a datum, in the mode it was built in."""
    doc = {"schema_version": "1", "mode": d.mode}
    if d.mode == "abstract":
        doc["abstract"] = {
            "rank": d.m,
            "pairing": _rows(d.pairing),
            "star": [_rows(g) for g in d.star_xi],
            "sigma": _rows(d.sigma),
            "sigma0": list(d.sigma0_input),
        }
        return doc
    ix = d.index
    names = ix.ambient.root_names()
    doc["ambient"] = {
        "components": [
            {"family": c.family, "rank": c.rank, "label": c.label} for c in ix.ambient.components
        ]
    }
    doc["compact_simple"] = [names[i] for i in ix.compact]
    doc["star_generators"] = [_rows(g) for g in ix.star.generators]
    doc["spherical"] = {
        "sigma": _rows(d.sigma_input),
        "xi_basis": _rows(d.xi_K.rows_q()),
        "sp": [names[i] for i in d.sp],
    }
    return doc


def _no_float(text):
    raise AssertionError(f"report holds the float {text}")


def test_json_reports_hold_no_float(capsys, tmp_path):
    """Every number in a JSON report is an int or a "p/q" string: an int
    path that divided with ``/`` would leak a float."""
    docs = FIXTURE_DOCS + [datum_doc(d) for d in random_data(20261018, 24)]
    parsed = dict.fromkeys(
        ["analyze", "restrict-index", "standard-fan", "fan", "localize", "degenerate"], 0
    )

    def report(*argv):
        code, out, err = run(capsys, "--format", "json", *argv)
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if not out:
            return None
        parsed[argv[0]] += 1
        return json.loads(out, parse_float=_no_float, parse_constant=_no_float)

    for k, doc in enumerate(docs):
        path = write(tmp_path, f"d{k}.json", doc)
        analysis = report("analyze", path)
        report("restrict-index", path)
        report("localize", path, "--roots", "1")
        report("degenerate", path)
        std = report("standard-fan", path)
        cones = std["cones"] if std and "cones" in std else []
        fan_path = write(tmp_path, f"f{k}.json", {"cones": cones})
        checks = ["--check", "support", "--check", "complete", "--check", "smooth", "--strata"]
        if analysis.get("wk_order", 1) <= 24:
            checks.append("--saturate")
        report("fan", path, "--fan", fan_path, *checks)
    assert all(parsed.values()), parsed


def _numbers(node):
    """Every JSON leaf of a document that reads as a rational."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for v in node:
            yield from _numbers(v)
    elif isinstance(node, (int, str)) and not isinstance(node, bool):
        try:
            yield Fraction(node)
        except ValueError:
            pass


def test_integral_input_stays_int():
    """Lattice coordinates come from exact divisions, so integral documents
    give int data from the parser through the restricted datum."""
    docs = FIXTURE_DOCS + [datum_doc(d) for d in random_data(20261018, 24)]
    integral = [doc for doc in docs if all(q.denominator == 1 for q in _numbers(doc))]
    assert len(integral) == len(docs) - 1  # all but e6, whose second root has halves
    for doc in integral:
        d = cli.parse_datum(doc)
        rd = restrict_datum(d)
        for rows in (d.sigma, d.pairing, rd.sigma_k, rd.sigma_k_pr, rd.xik_image_basis):
            assert all(type(x) is int for r in rows for x in r), rows
