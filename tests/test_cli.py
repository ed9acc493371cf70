import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, zip_longest

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from datagen import (
    FACET_PLANTS,
    beta_by_walls_inverse,
    chamber_by_walls_inverse,
    chamber_generators,
    load_tool,
    random_data,
    replace,
    solve_left,
    to_abstract,
    weyl_order_of,
)
from test_fuzz import _every_command
from spherindex import fans, linalg
from spherindex import cli, rootsys
from spherindex.cli import emit, main
from spherindex.errors import ParseError
from spherindex.index import res_A
from spherindex.linalg import Lattice, primitive_vector
from spherindex.restrict import chamber_containment_check, restrict_datum

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


# sha256 of the --format text stdout and the exit code of each command on
# each fixture; the bench reference pins the JSON output only
TEXT_OUTPUT_SHA256 = {
    ("e6", "analyze"): (0, "4cc199862fe33b92d2cef3275fa615ae12124c077a9f2c793c34c24480bfd1bb"),
    ("e6", "restrict-index"): (0, "5c41bbc9559d6aaadeaad7fe4517ae4108f8fabc5f4ee9740285dfa855e3e0b9"),
    ("e6", "standard-fan"): (0, "5173f5f8e5c14f4a028a1175379c18372e50a0474487a4e66967d48018e1ea60"),
    ("e6", "localize --roots 1"): (0, "043ff622f2fcc7016b283210f29215402e97f2417f19552284e6bdca7fe8cda3"),
    ("e6", "degenerate"): (0, "3eb86566608abcc463ce30c833b7c869b46802a4e39df0c722f85ccb736b88c4"),
    ("sp42", "analyze"): (0, "00776d6a49674c0e899db21e4ffceeb937cae420ef3a9c8746a8dd3893190cfb"),
    ("sp42", "restrict-index"): (0, "58499bd7defa430ba6199efa93ebbd121a32982881288b63d3fcd649894a1080"),
    ("sp42", "standard-fan"): (0, "232410a1e0860be2e681f4bdb1e3f5ad90d298e0c5b4f437d5bff339b85fdd5d"),
    ("sp42", "localize --roots 1"): (0, "7b56ec76b7a62d74c8d208896bdd7a063eb886839e129be1f2ff6a640b2d399e"),
    ("sp42", "degenerate"): (0, "caebde302280e835064f094d60e1260717fe055af7d3006dce73f5c6e53a47b4"),
    ("su22", "analyze"): (0, "1b02dba72dce53c3c4dc09220e15ce4bcf48b9e84a119f9515feb98b90917e31"),
    ("su22", "restrict-index"): (0, "25a517e2abfa293f7379392de8573c2615d054b6b822dc75dae3042ddd31bb55"),
    ("su22", "standard-fan"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("su22", "localize --roots 1"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("su22", "degenerate"): (0, "60c0781b4c9a318cc468c1c3140e9c3847f558688e4f4d0a07148b071d828b62"),
    ("u11", "analyze"): (0, "e711717178d54138e53cc9ebf404cd578cbcd5f38fe98fc0907d72a0f63e4626"),
    ("u11", "restrict-index"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("u11", "standard-fan"): (0, "232410a1e0860be2e681f4bdb1e3f5ad90d298e0c5b4f437d5bff339b85fdd5d"),
    ("u11", "localize --roots 1"): (0, "b17394ee974714d924db8dad2b93bb369af25c44ccf3a2f34cfbfc99c44bd7e7"),
    ("u11", "degenerate"): (0, "d22379bf2e76359602635896988d2b103a8dcc849934ee32b0c8f16821379f26"),
}


def test_text_output_is_pinned(capsys):
    got = {}
    for name, command in TEXT_OUTPUT_SHA256:
        cmd, *options = command.split()
        code, out, _ = run(capsys, "--format", "text", cmd, fixture(name + ".json"), *options)
        got[name, command] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == TEXT_OUTPUT_SHA256


def _json_rational(q):
    """The reference writer's hook: a Fraction as an int when integral, else "p/q"."""
    return int(q) if q.denominator == 1 else str(q)


def reference_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_json_rational) + "\n"


def emitted_json(report) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit(report, "json")
    return out.getvalue()


def first_difference(got: str, want: str):
    """(line number, got line, wanted line) at the first line where two texts
    differ, or None.  Asserting on this, not on ``got == want``, keeps pytest
    from diffing texts of ~100 KB with difflib, which took minutes."""
    pairs = zip_longest(got.split("\n"), want.split("\n"))
    return next(((k, a, b) for k, (a, b) in enumerate(pairs) if a != b), None)


KEYS = st.text(st.sampled_from('ab{}%"\\/\x00\x1f\n\t\x7f×é€\U0001f600'), max_size=4)
LEAVES = (
    KEYS
    | st.integers()
    | st.fractions()
    | st.integers().map(Fraction)
    | st.sampled_from([True, False, 0, 1, None])
    | st.lists(st.integers(-2, 2), max_size=4).map(tuple)
)


def rows(width: int):
    """Rows of one width: of ints, or with a bool or a Fraction among them."""
    return st.lists(st.integers(-2, 2), min_size=width, max_size=width).map(tuple) | st.lists(
        st.integers(-2, 2) | st.booleans() | st.fractions(), min_size=width, max_size=width
    )


def matrices(width: int):
    """Lists and tuples of rows of one width, with 0, 1 or more rows, whose
    entries come from three ints so that rows repeat across values; or now
    and then a list holding a row that no matrix column takes: of another
    width, empty, or with a bool or a Fraction among its entries."""
    clean = st.lists(st.integers(-1, 1), min_size=width, max_size=width).map(tuple)
    matrix = st.lists(clean | clean.map(list), max_size=3)
    odd = st.lists(clean | rows(width) | rows(width + 1) | st.just(()), min_size=1, max_size=3)
    return matrix | matrix.map(tuple) | odd


def same_keyed(values):
    """Nonempty lists of dicts that all share one key set, the empty set too.
    Keys come often from a pool of three, so that neighbouring runs often
    have key sets of one size but other keys.  Each key draws its column from
    one kind: the values given or a row of the list's one width, matrices of
    rows of that width, bools, or strings, so that whole columns are often of
    one kind."""
    keys = st.lists(st.sampled_from(["a", "b", "{}"]) | KEYS, unique=True, max_size=3)

    def table(keys, width):
        kind = st.sampled_from([values | rows(width), matrices(width), st.booleans(), KEYS])
        return st.lists(kind, min_size=len(keys), max_size=len(keys)).flatmap(
            lambda kinds: st.lists(st.fixed_dictionaries(dict(zip(keys, kinds))), min_size=1, max_size=4)
        )

    return st.tuples(keys, st.integers(0, 3)).flatmap(lambda kw: table(*kw))


def runs(values):
    """Lists made of runs of same-keyed dicts, the key set changing from run
    to run; half of them have other values between the runs."""
    parts = st.lists(same_keyed(values), max_size=3) | st.lists(same_keyed(values) | values.map(lambda x: [x]), max_size=4)
    return parts.map(lambda parts: [x for part in parts for x in part])


def nodes(depth: int):
    """Nested lists, tuples and dicts, ``depth`` levels below the one given;
    the lists include runs of dicts that share one key set."""
    if depth == 0:
        return LEAVES
    inner = nodes(depth - 1)
    return (
        LEAVES
        | st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | runs(inner)
        | runs(inner).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=3)
    )


def key_set_change_at(boundary: int) -> list:
    """Two slices and one item of a top-level list; the key set of its dicts
    changes after ``boundary`` items."""
    return [{"a": i, "b{": [i, -i]} if i < boundary else {"a": i} for i in range(2 * cli.EMIT_SLICE + 1)]


LONG_LISTS = {f"change at {cli.EMIT_SLICE + d}": key_set_change_at(cli.EMIT_SLICE + d) for d in (-1, 0, 1)}
LONG_LISTS |= {"empty after one slice": [{"a": 0}] * cli.EMIT_SLICE + [{}] * 3, "tuple": tuple(key_set_change_at(1))}
# top-level lists of matrices: the first slice is a matrix column, and the next
# starts with a row of another width, a row with a bool or a Fraction, or no row
LONG_MATRICES = {
    f"matrices then {tail!r}": [((i % 3, 1), (0, i % 2))[: i % 3] for i in range(cli.EMIT_SLICE)] + [tail, ((1, 0),)]
    for tail in [((1, 0, 0),), ((True, 0),), (), ((Fraction(1, 2), 0),)]
}


@settings(max_examples=400, deadline=None)
@given(report=st.dictionaries(KEYS, nodes(3) | runs(nodes(1)), max_size=4))
@example(report=LONG_LISTS)
@example(report=LONG_MATRICES)
@example(
    report={
        "repeated": [{"m": ((1, 0), (1, 0)), "n": []}, {"m": [(1, 0)], "n": [[2, 3]]}, {"m": (), "n": [[2, 3], [2, 3]]}],
        "widths": [{"m": [(1, 2), (3,)]}, {"m": [(1, 2)]}],
        "empty row": [{"m": [()]}, {"m": [(), ()]}],
        "bool row": [{"m": [(True, 0)]}, {"m": [(1, 0)]}, {"m": [(1, False)]}],
        "fraction row": [{"m": [(Fraction(1, 2), 0)]}, {"m": [(Fraction(4, 2), 0)]}],
        "bools": [{"b": True, "s": 'q"\\\n×'}, {"b": False, "s": ""}],
        "strings": ['a"b', "\\", "\x00é\U0001f600", "{}"],
        "flags": [True, False, True],
    }
)
@example(report={"a": [{"r": (), "s": []}] * 2, "b": [{"r": (1, True)}, {"r": (0, 2)}], "c": [{"r": (True,)}]})
@example(report={"a": [{"r": (1, 2)}, {"r": [3]}], "b": [{"r": [1, 2]}, {"r": (3, 4)}], "c": [{"r": (1, Fraction(2))}]})
@example(report={})
@example(report={"a": [{}], "b": [[{}]], "c": [{}, {}, {"": 0}], "d": [{"x": 1}, {"x": {}}, {}], "e": [{"k": 1}, {"j": 2}]})
@example(report={"{}": [{"{a}": [{"}{": 1, '"\\é': ()}], "{0}": 2}, {"{a}": [], "{0}": {"{": [{}]}}]})
@example(report={"%s": [{"%": [{"%s": 1, "a%%": (2, 3)}], "%(a)s": 2}, {"%": [], "%(a)s": {"%": [{}]}}]})
@example(report={"a": [{"k": 1, "j": 2}, {"j": 3, "k": 4}, {"k": 5}, {"i": 6}, {"k": 6, "j": 7, "i": 8}, 9, (10,)]})
@example(
    report={
        "rays": [(1, 0), (True, False), [1, 0], (1, 0), ((1, 0), (0, 1))],
        "leaves": [Fraction(-3), Fraction(-1, 2), Fraction(4, 2), 0, 1, True, False, None, '×é"\\\x01'],
        "empty": [[], (), {}, [[], {"": ()}]],
    }
)
def test_emit_writes_the_bytes_of_json_dumps(report):
    """The writer prints what ``json.dumps(sort_keys=True, indent=2)`` with
    the Fraction hook printed: True beside 1, and a tuple of bools beside an
    equal tuple of ints, each keep their own text.  Lists of dicts that share
    a key set, which go one column at a time, are drawn on purpose, with
    braces, quotes, backslashes and non-ASCII in their keys; top-level lists
    longer than a slice change their key set at its boundary (LONG_LISTS), or
    their rows from a matrix column to rows no matrix column takes
    (LONG_MATRICES).  Columns of matrices, bools and strings are drawn whole."""
    assert first_difference(emitted_json(report), reference_json(report)) is None


@pytest.mark.parametrize("value", [1.5, {1, 2}, b"x", object()])
def test_emit_refuses_a_value_that_no_report_holds(value):
    """A float, which json.dumps would print, is refused as well: a report
    holds only ints and "p/q" strings (test_json_reports_hold_no_float)."""
    with pytest.raises(TypeError):
        emitted_json({"a": [value]})


class RecordedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


def split_a6(tmp_path, n=6):
    """The split A6 datum, or split A_n: its spherical roots are the simple roots."""
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    return write(tmp_path, f"a{n}.json", {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "A", "rank": n}]},
        "spherical": {"sigma": basis},
    })


def test_json_report_is_streamed(tmp_path, monkeypatch):
    """The report of split A6's standard fan (64 strata) goes out in pieces,
    none a tenth of the whole; the whole is what json.dumps wrote."""
    datum = split_a6(tmp_path)
    reports = []
    monkeypatch.setattr(cli, "emit", lambda report, fmt: reports.append(report) or emit(report, fmt))
    out = RecordedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["--format", "json", "standard-fan", datum]) == 0
    assert len(reports[0]["strata"]) == 64
    assert first_difference(out.getvalue(), reference_json(reports[0])) is None
    assert max(out.sizes) < len(out.getvalue()) / 10


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_a_full_disk_exits_1_with_one_error_line(fmt):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "spherindex.cli", "--format", fmt, "analyze", fixture("e6.json")],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write report: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_a_pipe_closed_early_exits_1_in_silence(tmp_path, fmt):
    """Split A9's standard fan is 264 KB of text and 1 MB of JSON, more than a
    pipe holds, so the writer is still writing when the reader leaves."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "spherindex.cli", "--format", fmt, "standard-fan", split_a6(tmp_path, 9)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (1, b"")


class FailingStdout(io.StringIO):
    """A stdout on the file descriptor ``fd`` whose every write raises ``error``."""

    def __init__(self, error, fd):
        super().__init__()
        self.error, self.fd = error, fd

    def write(self, text):
        raise self.error

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize(
    "error, err",
    [
        (BrokenPipeError(32, "Broken pipe"), ""),
        (OSError(28, "No space left on device"), "error: cannot write report: [Errno 28] No space left on device\n"),
    ],
    ids=["closed-pipe", "full-disk"],
)
def test_a_failed_write_ends_main_with_exit_1(capsys, monkeypatch, tmp_path, fmt, error, err):
    """Either error points the descriptor at the null device, so that the exit
    flush of what is left is silent; a closed pipe prints nothing, any other
    error one line."""
    with open(tmp_path / "out", "w") as fh:
        monkeypatch.setattr(sys, "stdout", FailingStdout(error, fh.fileno()))
        assert main(["--format", fmt, "analyze", fixture("e6.json")]) == 1
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == err


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
        ("analyze", [good], []),
        ("fan", good, ["--fan", write(tmp_path, "cones.json", {"cones": 5})]),
    ]
    for k, (cmd, doc, extra) in enumerate(cases):
        code, _, err = run(capsys, cmd, write(tmp_path, f"hole{k}.json", doc), *extra)
        assert code == 2, cmd
        assert err.startswith("error: ") and "Traceback" not in err
    # files that json.load cannot read, by a ValueError, a RecursionError and a
    # UnicodeDecodeError: each exits 2 with one line
    unreadable = [
        b'{"schema_version": "1", "mode": ' + b"1" * 4301 + b"}",  # past the int-string digit limit
        b"[" * 100_000 + b"]" * 100_000,  # past the recursion limit
        b'{"mode": "\xff"}',  # not UTF-8
    ]
    datum = write(tmp_path, "good.json", good)
    for k, text in enumerate(unreadable):
        path = tmp_path / f"unreadable{k}.json"
        path.write_bytes(text)
        for argv in (["analyze", str(path)], ["fan", datum, "--fan", str(path)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1, err[:200]


LABELLED = {  # two components, so that the labels reach the root names of the report
    "schema_version": "1",
    "mode": "ambient",
    "ambient": {"components": [{"family": "A", "rank": 2, "label": "é"}, {"family": "A", "rank": 1, "label": "x"}]},
}


def cli_process(argv, env=None, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "spherindex.cli", *argv], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})}, **kwargs,
    )


def test_a_document_is_read_as_utf8_whatever_the_locale(tmp_path):
    """Under the C locale, with neither UTF-8 mode nor locale coercion, the
    locale's encoding is ASCII; the document is still read as UTF-8, and the
    JSON report, which escapes every non-ASCII character, has the same bytes."""
    path = tmp_path / "label.json"
    path.write_bytes(json.dumps(LABELLED, ensure_ascii=False).encode())
    assert "é".encode() in path.read_bytes()
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    default, c_locale = (cli_process(["--format", "json", "restrict-index", path], env) for env in (None, ascii_locale))
    assert (default.returncode, c_locale.returncode, c_locale.stderr) == (0, 0, b"")
    assert c_locale.stdout == default.stdout and b"\\u00e9" in default.stdout


def test_a_text_report_that_stdout_cannot_encode_exits_1_with_one_line(tmp_path):
    proc = cli_process(["restrict-index", write(tmp_path, "label.json", LABELLED)], {"PYTHONIOENCODING": "ascii"}, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: cannot write report: 'ascii' codec can't encode") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


SPLIT_A3 = {
    "schema_version": "1",
    "mode": "ambient",
    "ambient": {"components": [{"family": "A", "rank": 3}]},
    "spherical": {"sigma": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
}
ONE_ROOT = {"schema_version": "1", "mode": "abstract", "abstract": {"rank": 1, "pairing": [[2]], "sigma": [[1]]}}


def amend(doc, key, **fields):
    return dict(doc, **{key: dict(doc[key], **fields)})


@pytest.mark.parametrize(
    "doc, message",
    [
        (amend(ONE_ROOT, "abstract", sigma0=[5]), "compact root index out of range"),
        (amend(ONE_ROOT, "abstract", pairing=[[2, 0]]), "pairing has wrong shape"),
        (amend(ONE_ROOT, "abstract", sigma=[[1, 0]]), "spherical root has wrong length"),
        (amend(SPLIT_A3, "spherical", sigma=[[1, 0]]), "spherical root has wrong length"),
        (
            amend(SPLIT_A3, "spherical", xi_basis=[[1, 0, 0], [0, 1, 0]]),
            "spherical root outside the span of the weight lattice",
        ),
        (dict(SPLIT_A3, star_generators=[[[1, 0], [0, 1]]]), "star generator has wrong shape"),
        (dict(SPLIT_A3, compact_simple=["a9"]), "unknown simple root 'a9'"),
        (amend(SPLIT_A3, "spherical", sp=["a9"]), "unknown simple root 'a9'"),
        (dict(SPLIT_A3, compact_simple=[5]), "unknown simple root 5"),
        (amend(SPLIT_A3, "spherical", sp=[5]), "unknown simple root 5"),
        (dict(SPLIT_A3, compact_simple=[["a1"]]), "unknown simple root ['a1']"),
        (dict(SPLIT_A3, compact_simple=[{"a": 1}]), "unknown simple root {'a': 1}"),
        (amend(SPLIT_A3, "spherical", sp=[["a1"]]), "unknown simple root ['a1']"),
        (amend(SPLIT_A3, "spherical", sp=[{"a": 1}]), "unknown simple root {'a': 1}"),
        (amend(ONE_ROOT, "abstract", star=[[[1, 0]]]), "star generator has wrong shape"),
    ],
)
def test_a_datum_that_cannot_be_built_exits_2_with_one_error_line(capsys, tmp_path, doc, message):
    """Checks on outside input made while the datum is built: each raises the
    exit-2 class, which reaches ``main`` from every command in both formats
    and prints its message, unquoted, as the one line on stderr."""
    for fmt in ("json", "text"):
        assert _every_command(capsys, tmp_path, fmt, doc, [[[-1]]]) == {(2, "", f"error: {message}\n")}, fmt


@pytest.mark.parametrize(
    "components, compact, message",
    [
        # the second component's default label is c2, the first's explicit one
        ([{"family": "A", "rank": 1, "label": "c2"}, {"family": "A", "rank": 2}], ["c2.a1"], "duplicate component label 'c2'"),
        ([{"family": "A", "rank": 1, "label": "x"}, {"family": "B", "rank": 2, "label": "x"}], [], "duplicate component label 'x'"),
        ([{"family": "A", "rank": 0}], [], "A0 is not a finite type"),
        ([{"family": "B", "rank": 1}], [], "B1 is not a finite type"),
        ([{"family": "E", "rank": 9}], [], "E9 is not a finite type"),
        ([{"family": "X", "rank": 3}], [], "X3 is not a finite type"),
        ([{"family": "A", "rank": 2}, {"family": "e", "rank": "9"}], [], "E9 is not a finite type"),
        # a family of another length, or no string, would run into the rank as a false type
        ([{"family": "A1", "rank": 1}], [], "bad family 'A1'"),
        ([{"family": 1, "rank": 1}], [], "bad family 1"),
        ([{"family": " A", "rank": 2}], [], "bad family ' A'"),
        ([{"family": "ß", "rank": 2}], [], "bad family 'ß'"),  # one character, "SS" in upper case
    ],
)
def test_components_that_describe_no_index_exit_2_with_one_error_line(capsys, tmp_path, components, compact, message):
    """A family that is not one letter, a component of no finite type, or two
    components of one label, whose root names would then name two roots: ``restrict-index`` and every
    datum command exit 2 in both formats, with one line on stderr."""
    doc = {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": components},
        "compact_simple": compact,
        "spherical": {"sigma": []},
    }
    path = write(tmp_path, "index.json", doc)
    for fmt in ("json", "text"):
        assert run(capsys, "--format", fmt, "restrict-index", path) == (2, "", f"error: {message}\n"), fmt
        assert _every_command(capsys, tmp_path, fmt, doc, [[[-1]]]) == {(2, "", f"error: {message}\n")}, fmt


@pytest.mark.parametrize(
    "family, rank, order",
    # |W| from Bourbaki, Lie Groups and Lie Algebras, ch. VI, Plates IV-VII
    [("D", 4, 192), ("D", 5, 1_920), ("E", 6, 51_840), ("E", 7, 2_903_040), ("E", 8, 696_729_600)],
)
def test_analyze_names_the_weyl_group_of_split_d_and_e(capsys, tmp_path, family, rank, order):
    doc = {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": family, "rank": rank}]},
        "spherical": {"sigma": [[int(i == j) for j in range(rank)] for i in range(rank)]},
    }
    code, out, _ = run(capsys, "--format", "json", "analyze", write(tmp_path, "split.json", doc))
    report = json.loads(out)
    assert (code, report["wk_type"], report["wk_order"]) == (0, f"{family}{rank}", order)


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


NEGATIVE_COEFFICIENT_DOC = {
    "schema_version": "1",
    "mode": "ambient",
    "ambient": {"components": [{"family": "A", "rank": 2}]},
    "spherical": {"sigma": [[1, -1]]},
}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_negative_coefficient_is_reported_not_raised(capsys, tmp_path, fmt):
    """support() refuses a negative coefficient; validate reports it, so the
    nonnegative_combination item fails in a printed report."""
    path = write(tmp_path, "neg.json", NEGATIVE_COEFFICIENT_DOC)
    for cmd in ("analyze", "standard-fan"):
        code, out, err = run(capsys, "--format", fmt, cmd, path)
        assert (code, err) == (1, "")
        if fmt == "json":
            report = json.loads(out)
            assert report["command"] == cmd and report["valid"] is False
            failed = {v["name"]: v["detail"] for v in report["validation"] if not v["passed"]}
            assert failed == {
                "nonnegative_combination": "roots [0] have negative coefficients",
                "compact_split_consistent": "coefficient -1 of simple root 1 is negative",
            }
        else:
            assert "name: nonnegative_combination\n" in out and "valid: false" in out


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


def test_a_report_does_not_see_the_scale_of_the_pairing(capsys, tmp_path):
    """Root data, reflections and dual bases do not change when the pairing is
    scaled by q > 0, so no command's output does, whether q is integral or
    not, written as "p/q" strings: on random abstract documents of
    ``tools/compare_outputs.py``, few of whose cones are strictly convex, and
    on the abstract twins of the fixtures."""
    tool = load_tool("compare_outputs")
    rng = random.Random(20261020)
    docs = [tool.random_abstract_document(rng) for _ in range(40)]
    docs += [datum_doc(to_abstract(cli.parse_datum(doc))) for doc in FIXTURE_DOCS]
    commands = [["analyze"], ["standard-fan"], ["localize", "--roots", "1"], ["degenerate"]]
    codes = Counter()
    for k, doc in enumerate(docs):
        scaled = [doc] + [tool.scaled_pairing(doc, q) for q in (Fraction(2, 3), 5)]
        paths = [write(tmp_path, f"{k}_{j}.json", d) for j, d in enumerate(scaled)]
        for fmt in ("json", "text"):
            for cmd in commands:
                outputs = [run(capsys, "--format", fmt, cmd[0], path, *cmd[1:]) for path in paths]
                assert outputs[1] == outputs[0] and outputs[2] == outputs[0], (k, fmt, cmd)
                codes[cmd[0], outputs[0][0]] += 1
    assert all(codes[cmd[0], 0] >= 8 for cmd in commands), codes


def test_the_convex_abstract_documents_reach_the_fan_engine(capsys, tmp_path):
    """``standard-fan`` exits 0 on most ``random_convex_abstract_document``s of
    ``tools/compare_outputs.py``, and on few of its other abstract documents."""
    tool = load_tool("compare_outputs")
    codes = Counter()
    for kind, seed, make in [("convex", tool.CONVEX_SEED, tool.random_convex_abstract_document),
                             ("other", tool.ABSTRACT_SEED, tool.random_abstract_document)]:
        rng = random.Random(seed)
        for k in range(40):
            codes[kind, run(capsys, "standard-fan", write(tmp_path, f"{kind}{k}.json", make(rng)))[0]] += 1
    assert codes["convex", 0] >= 30 and codes["other", 0] <= 10, codes


def test_analyze_prints_the_weyl_order_of_every_split_type_up_to_rank_8(capsys, tmp_path):
    """On the split documents of ``tools/compare_outputs.py`` the little Weyl
    group is the whole Weyl group: the product of the degrees that ``analyze``
    prints is the classical order on every type."""
    tool = load_tool("compare_outputs")
    assert len(tool.split_documents()) == 34
    for (family, rank), (name, doc) in zip(tool.SPLIT_TYPES, tool.split_documents()):
        code, out, _ = run(capsys, "--format", "json", "analyze", write(tmp_path, f"{name}.json", doc))
        assert code == 0 and json.loads(out)["wk_order"] == weyl_order_of(family, rank), name


def test_the_shuffled_split_documents_list_the_simple_roots_in_another_order(capsys, tmp_path, monkeypatch):
    """The tool's second pass of the split types lists the same spherical
    roots in a seeded order, most often not Bourbaki's, so ``classify``
    matches them by its walk; ``analyze`` prints the same Weyl order."""
    tool = load_tool("compare_outputs")
    calls, match = [], rootsys._match
    monkeypatch.setattr(rootsys, "_match", lambda c, family, n: calls.append(n) or match(c, family, n))
    shuffled_docs = tool.split_documents(random.Random(tool.SHUFFLE_SEED))
    moved = 0
    for (family, rank), (name, doc), (_, shuffled) in zip(tool.SPLIT_TYPES, tool.split_documents(), shuffled_docs):
        rows, shuffled_rows = doc["spherical"]["sigma"], shuffled["spherical"]["sigma"]
        assert sorted(shuffled_rows) == sorted(rows) and {**shuffled, "spherical": {"sigma": rows}} == doc, name
        moved += shuffled_rows != rows
        code, out, _ = run(capsys, "--format", "json", "analyze", write(tmp_path, f"{name}.json", shuffled))
        assert code == 0 and json.loads(out)["wk_order"] == weyl_order_of(family, rank), name
    assert moved >= 25 and len(calls) >= 25, (moved, len(calls))


def test_the_comparison_tool_tabulates_its_runs_by_kind_and_exit_code():
    """``tools/compare_outputs.py`` prints, for each tree, every kind of run in
    order of first appearance with its count and its exit codes, then the total."""
    tool = load_tool("compare_outputs")
    assert tool.inventory(["sweep", "random index", "sweep", "sweep"], [0, 1, 2, 0]) == [
        "  kind of run    count  exit codes",
        "  sweep              3  0: 2  2: 1",
        "  random index       1  1: 1",
        "  total              4  0: 2  1: 1  2: 1",
    ]


def test_the_comparison_tool_names_the_interpreter_of_each_tree():
    """``--python EXE`` before a tree names the interpreter of that tree's
    child; a tree with none runs on the tool's own.  Anything but two trees
    prints the usage."""
    tool = load_tool("compare_outputs")
    a, b, py = os.path.abspath("a"), os.path.abspath("b"), sys.executable
    assert tool.trees_and_interpreters(["a", "b"]) == [(a, py), (b, py)]
    assert tool.trees_and_interpreters(["--python", "p", "a", "--python", "q", "a"]) == [(a, "p"), (a, "q")]
    assert tool.trees_and_interpreters(["a", "--python", "q", "b"]) == [(a, py), (b, "q")]
    for argv in [[], ["a"], ["a", "b", "c"], ["--python", "p", "a"], ["a", "--python", "q"], ["a", "--rogue", "b"]]:
        assert tool.trees_and_interpreters(argv) is None, argv


def test_a_validated_split_datum_builds_one_root_base_and_its_restriction_shares_it(monkeypatch):
    """``_validated_rd`` on split A3-A6 builds one ``RootBase`` for the datum,
    when validation classifies it, and the restricted datum holds that base:
    the only other classification is of the index's restricted simple roots."""
    built, classified = [], []
    from_vectors, classify = rootsys.RootBase.from_vectors, rootsys.classify
    monkeypatch.setattr(rootsys.RootBase, "from_vectors", staticmethod(lambda v, f: built.append(from_vectors(v, f)) or built[-1]))
    monkeypatch.setattr(rootsys, "classify", lambda c: classified.append(len(c)) or classify(c))
    docs = dict(load_tool("compare_outputs").split_documents())
    for n in range(3, 7):
        built.clear()
        classified.clear()
        rd = cli._validated_rd(docs[f"A{n}"])
        assert len(built) == 1 and rd.roots is built[0], n
        assert classified == [n, n], n


def _negated(rows):
    return tuple(tuple(-x for x in row) for row in rows)


@pytest.mark.parametrize(
    "plant, message",
    [
        (
            lambda rd: replace(rd, coweights=tuple(tuple(2 * x for x in w) for w in rd.coweights)),
            "coweight of restricted root 0 differs from its fiber sum",
        ),
        (
            lambda rd: replace(rd, sigma_k=_negated(rd.sigma_k)),
            "a chamber generator projects outside the valuation cone",
        ),
    ],
    ids=["coweight", "chamber"],
)
def test_analyze_exits_3_on_a_planted_identity_violation(capsys, monkeypatch, plant, message):
    """Each identity check of analyze reads the restricted datum; a violation
    planted there, and in no earlier check, exits 3 with the check's message."""
    monkeypatch.setattr(cli, "restrict_datum", lambda d: plant(restrict_datum(d)))
    code, out, err = run(capsys, "analyze", fixture("e6.json"))
    assert (code, out, err) == (3, "", f"theorem violation: {message}\n")


# the identity of analyze that each plant of FACET_PLANTS but the compact one trips
FACET_CAUGHT_BY = {
    "valuation cone is not full dimensional": "coweight of restricted root 0 differs from its fiber sum",
    "a restricted root is positive somewhere on the valuation cone": "a chamber generator projects outside the valuation cone",
    "a big facet does not trace a facet of the little cone": "coweight of restricted root 0 differs from its fiber sum",
}


@pytest.mark.parametrize("message", list(FACET_PLANTS)[1:], ids=["dimension", "positive", "trace"])
def test_analyze_exits_3_on_each_planted_facet_violation(capsys, monkeypatch, message):
    """A violation of facet inheritance planted in the coweights or the roots
    (named by the oracle's message) trips the coweight or the chamber
    identity, so ``analyze`` still exits 3 on each."""
    monkeypatch.setattr(cli, "restrict_datum", lambda d: FACET_PLANTS[message](restrict_datum(d)))
    code, out, err = run(capsys, "analyze", fixture("e6.json"))
    assert (code, out, err) == (3, "", f"theorem violation: {FACET_CAUGHT_BY[message]}\n")


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


@pytest.mark.parametrize("g, stable", [([[2, 0], [0, 1]], True), ([[1, 1], [0, 1]], False)])
def test_sp_star_stable_reads_a_generator_by_its_rows(capsys, tmp_path, g, stable):
    """a1 leaves S^(p) = {a1} when the row of a1 in the generator has a nonzero entry
    outside it.  Read as a permutation, the first generator (which keeps a1)
    failed the item and the second (which sends a1 to a1 + a2) passed it."""
    doc = {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "A", "rank": 2}]},
        "star_generators": [g],
        "spherical": {"sigma": [], "sp": ["a1"]},
    }
    code, out, _ = run(capsys, "--format", "json", "analyze", write(tmp_path, "sp.json", doc))
    assert code == 1
    checks = {c["name"]: c["passed"] for c in json.loads(out)["validation"]}
    assert checks["index_well_formed"] is False
    assert checks["sp_star_stable"] is stable


def test_star_generator_of_infinite_order_exits_1_at_once(capsys, tmp_path):
    """|det| = 10**30: the generator is not a permutation, which fails the
    index with no group closure (a closure ran to its cap in 4 s, with
    entries of ~300,000 digits)."""
    doc = json.load(open(fixture("su22.json")))
    doc["star_generators"] = [[[10**30, 0, 0], [0, 1, 0], [0, 0, 1]]]
    path = write(tmp_path, "su22_det.json", doc)
    # sha256 of each report; the closure's "star action does not generate a
    # finite group" is gone, the rest is unchanged
    expected = {
        "restrict-index": "a214746a6981b5280e7691c84ac7ab7c9854c7fb14d6a4226389cdc0910fac72",
        "analyze": "66aff383a8908ec5cb66c7d420393357744bde66d367075adcb6a48e7c1db697",
    }
    for cmd, digest in expected.items():
        start = time.perf_counter()
        code, out, _ = run(capsys, "--format", "json", cmd, path)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert json.loads(out)["validation"][0]["detail"] == "star generator does not permute the simple roots"


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


@pytest.mark.parametrize("command", ["analyze", "standard-fan"])
def test_abstract_rank_ceiling_exits_2_at_parse_time(tmp_path, command):
    """An abstract rank above HARD_RANK_CEILING exits 2 with one error line
    before its pairing is read.  Without the bound, analyze printed a report
    for this document and standard-fan set out to list its 2^101 faces."""
    n = cli.HARD_RANK_CEILING + 1
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    doc = {"schema_version": "1", "mode": "abstract", "abstract": {"rank": n, "pairing": identity, "sigma": identity}}
    proc = subprocess.run(
        [sys.executable, "-m", "spherindex.cli", "--format", "json", command, write(tmp_path, "big.json", doc)],
        capture_output=True,
        text=True,
        timeout=2,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: abstract rank {n} exceeds HARD_RANK_CEILING {n - 1}\n"


def test_analyze_of_split_a20_with_its_roots_out_of_order_takes_no_search(tmp_path):
    """Sigma row i is the simple root p(i).  ``classify`` assigned input
    indices in turn and backtracked, and this document did not finish in 60 s;
    the walk of the diagram tree takes a fraction of a second."""
    p = [4, 13, 17, 19, 8, 16, 7, 0, 3, 14, 10, 9, 15, 11, 18, 5, 12, 2, 6, 1]
    sigma = [[int(j == p[i]) for j in range(20)] for i in range(20)]
    doc = amend(dict(SPLIT_A3, ambient={"components": [{"family": "A", "rank": 20}]}), "spherical", sigma=sigma)
    proc = subprocess.run(
        [sys.executable, "-m", "spherindex.cli", "--format", "json", "analyze", write(tmp_path, "a20.json", doc)],
        capture_output=True,
        text=True,
        timeout=2,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["wk_type"] == "A20"


def test_more_spherical_roots_than_coordinates_fail_at_once(tmp_path):
    """3,000 rank-1 roots are dependent before any Gram matrix is built: the
    3,000 x 3,000 one took over 3 s."""
    doc = {"schema_version": "1", "mode": "abstract", "abstract": {"rank": 1, "pairing": [[2]], "sigma": [[1]] * 3000}}
    proc = subprocess.run(
        [sys.executable, "-m", "spherindex.cli", "--format", "json", "analyze", write(tmp_path, "rows.json", doc)],
        capture_output=True,
        text=True,
        timeout=2,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    items = {it["name"]: it for it in json.loads(proc.stdout)["validation"]}
    assert items["linearly_independent"]["passed"] is False


A1_DOC = {"schema_version": "1", "mode": "ambient", "ambient": {"components": [{"family": "A", "rank": 1}]}}


@pytest.mark.parametrize("value", ["1e9999999", "1E9999999", " -1.5e+9999999 ", "1e-9999999", "1e5000"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_rational_of_more_digits_than_an_int_literal_exits_2_at_once(tmp_path, value, fmt):
    """Fraction() expands an exponent: "1e9999999" did not finish in 40 s, and
    "1e5000" was read, then printed a traceback after part of the report."""
    doc = dict(A1_DOC, spherical={"sigma": [[value]], "xi_basis": [[value]]})
    proc = subprocess.run(
        [sys.executable, "-m", "spherindex.cli", "--format", fmt, "analyze", write(tmp_path, "a1.json", doc)],
        capture_output=True,
        text=True,
        timeout=2,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: bad rational {value!r}\n")


def test_a_rational_string_keeps_its_value_up_to_the_digits_of_an_int_literal():
    """Numerator and denominator may have 4,300 digits, as an int literal may."""
    assert [cli._rat(x) for x in ["1e3", "0.5", "4/2", " -1.5E+2 ", "1_0e1", ".5", "5."]] == [1000, Fraction(1, 2), 2, -150, 100, Fraction(1, 2), 5]
    assert (cli._rat("1e4299"), cli._rat("1e-4299"), cli._rat("1.5e4299")) == (10**4299, Fraction(1, 10**4299), 15 * 10**4298)
    for x in ["1e4300", "1e-4300", "1" * 3000 + "." + "1" * 3000, "2/" + "1" * 4301]:
        with pytest.raises(ParseError, match="bad rational"):
            cli._rat(x)


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


def test_fan_of_a_zero_and_a_non_primitive_generator_exits_1_naming_both(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", {"cones": [[[0, 0]], [[-2, 0], [0, -1]]]})
    code, out, err = run(capsys, "--format", "json", "fan", fixture("e6.json"), "--fan", fan_path)
    assert (code, err) == (1, "")
    assert [(i["kind"], i["detail"]) for i in json.loads(out)["issues"]] == [
        ("not_primitive", "generator (-2, 0)"),
        ("zero_generator", "cone ((0, 0),)"),
        ("not_simplicial", "cone ((0, 0),)"),
        ("not_primitive", "generator (-2, 0)"),
    ]


def test_a_dependent_cone_on_a_wall_of_a_chamber_exits_1_as_not_simplicial(capsys, tmp_path):
    """The wall (0, -1) joins a chamber to a cone of two opposite rays: the
    facet normals, carried across the wall, find that cone singular, and it
    is reported once, and not smooth."""
    fan_path = write(tmp_path, "fan.json", {"cones": [[[-1, 0], [0, -1]], [[0, -1], [0, 1]]]})
    code, out, err = run(capsys, "--format", "json", "fan", fixture("e6.json"), "--fan", fan_path, "--check", "smooth")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert [(i["kind"], i["detail"]) for i in report["issues"]] == [
        ("not_simplicial", "cone ((0, -1), (0, 1))"),
        *[("outside_support", "generator (0, 1) violates (Fraction(0, 1), Fraction(1, 1))")] * 2,
    ]
    assert [c["cone"] for c in report["smooth_by_cone"] if not c["smooth"]] == [[[0, -1], [0, 1]]]


@pytest.mark.parametrize(
    "rays",
    [
        # the first cone's generators sum to (-4, -4), on the ray (-1, -1) of another cone
        [(-3, 1), (-1, -5), (2, 5), (-1, -1), (2, 1)],
        # the walls (1, 1) and (2, 1) have both their cones on one side
        [(0, -1), (1, 1), (2, 1), (-1, 1)],
    ],
)
def test_paired_walls_that_make_no_fan_report_the_pairs_the_lp_finds(capsys, tmp_path, monkeypatch, rays):
    """Every wall lies in two cones, but the wall criterion gives up: the
    intersection issues are the pairs of cones that the pair LP rejects."""
    cones = [[a, b] for a, b in zip(rays, rays[1:] + rays[:1])]
    fan_path = write(tmp_path, "fan.json", {"cones": cones})
    decided, by_walls = [], fans._complete_by_walls
    monkeypatch.setattr(fans, "_complete_by_walls", lambda f: decided.append(by_walls(f)) or decided[-1])
    code, out, _ = run(capsys, "--format", "json", "fan", fixture("e6.json"), "--fan", fan_path, "--check", "complete")
    f = fans.Fan.from_maximal(cones)
    assert all(len(cs) == 2 for cs in f.walls.values()) and decided == [False]
    pairs = [
        f"{g1} vs {g2}"
        for (c1, g1), (c2, g2) in combinations(zip(f.cones, f.generators), 2)
        if not fans._pair_intersection_is_face(f.rays, c1, c2)
    ]
    report = json.loads(out)
    assert (code, report["complete"]) == (1, None) and pairs
    assert [i["detail"] for i in report["issues"] if i["kind"] == "intersection_not_a_face"] == pairs


def test_support_check_tests_each_ray_once(capsys, tmp_path, monkeypatch):
    """Every generator of a cone is a ray of a maximal cone: the two rays of
    the quadrant are tested, not their four occurrences in its cones."""
    tested = []
    monkeypatch.setattr(cli, "cone_membership", lambda v, rd: tested.append(v) or fans.cone_membership(v, rd))
    fan_path = write(tmp_path, "fan.json", {"cones": [[[-1, 0], [0, -1]]]})
    code, out, _ = run(capsys, "--format", "json", "fan", fixture("e6.json"), "--fan", fan_path, "--check", "support")
    assert (code, json.loads(out)["support"]) == (0, True)
    assert sorted(tested) == [(-1, 0), (0, -1)]


def test_fan_generator_of_a_wrong_width_exits_2_naming_the_least(capsys, tmp_path):
    """Each ray is checked once, in sorted order, before validation."""
    cones = [[[0, -1, 5], [-1, 0]], [[-1, 0], [0, -1]], [[1, 2, 3, 4]]]
    fan_path = write(tmp_path, "fan.json", {"cones": cones})
    code, out, err = run(capsys, "fan", fixture("e6.json"), "--fan", fan_path)
    assert (code, out, err) == (2, "", "error: fan generator has length 3, expected 2\n")


@pytest.mark.parametrize("entry", [1.7, True])
def test_fan_entry_that_is_not_an_integer_exits_2(capsys, tmp_path, entry):
    """A float is not truncated and a bool is not read as 1: both are schema errors."""
    fan_path = write(tmp_path, "fan.json", {"cones": [[[-1, 0], [0, entry]]]})
    code, out, err = run(capsys, "fan", fixture("e6.json"), "--fan", fan_path, "--check", "smooth")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "cones, message",
    [
        ([["10"]], "expected a list for a fan generator"),  # was read as the generator (1, 0)
        ({"a": 1}, "expected a list for cones"),  # was read as the cone of the generator ("a",)
        ("1", "expected a list for cones"),
    ],
)
def test_a_string_or_an_object_where_a_fan_has_a_list_exits_2(capsys, tmp_path, fmt, cones, message):
    """The cones, each cone and each generator must be JSON lists: a string
    or an object is not iterated as one."""
    fan_path = write(tmp_path, "fan.json", {"cones": cones})
    code, out, err = run(capsys, "--format", fmt, "fan", fixture("e6.json"), "--fan", fan_path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("sigma, dependent", [([["1/2", 0], [1, 0]], True), ([["1/2", 0], [1, 1]], False)])
def test_rational_roots_that_fail_the_cartan_checks_are_eliminated_once_scaled(capsys, tmp_path, sigma, dependent):
    """A base that fails the Cartan checks is eliminated to tell a dependent
    one from the failed check; a root with a rational entry is scaled to
    integers first, and the report names both failures."""
    path = write(tmp_path, "rational.json", {
        "schema_version": "1",
        "mode": "abstract",
        "abstract": {"rank": 2, "pairing": [[1, 0], [0, 1]], "sigma": sigma},
    })
    code, out, err = run(capsys, "--format", "json", "analyze", path)
    failed = {i["name"]: i["detail"] for i in json.loads(out)["validation"] if not i["passed"]}
    assert (code, err) == (1, "")
    assert "roots_in_lattice" in failed and ("linearly_independent" in failed) == dependent
    assert failed["opposition_stable"].endswith(
        "base vectors are linearly dependent" if dependent else "non-integral Cartan number at (0, 1)"
    )


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


def test_a_cone_of_more_generators_than_coordinates_is_not_closed_under_faces(capsys, tmp_path):
    """20 generators in the plane: 2^20 faces were built, each face of three
    or more generators reported (16 generators took 8.9 s).  The cone is kept
    as given and reported once."""
    cone = [[1, k] for k in range(20)]
    fan_path = write(tmp_path, "fan.json", {"cones": [cone, [[-1, 0], [0, -1]]]})
    start = time.perf_counter()
    code, out, err = run(
        capsys, "--format", "json", "fan", fixture("e6.json"), "--fan", fan_path,
        "--check", "smooth", "--check", "complete", "--strata", "--saturate",
    )
    assert time.perf_counter() - start < 1
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    kinds = [i["kind"] for i in report["issues"]]
    assert kinds.count("not_simplicial") == 1 and "missing_face" not in kinds
    assert report["smooth_by_cone"] == [
        {"cone": [], "smooth": True},
        {"cone": [[-1, 0]], "smooth": True},
        {"cone": [[0, -1]], "smooth": True},
        {"cone": [[-1, 0], [0, -1]], "smooth": True},
        {"cone": cone, "smooth": False},
    ]
    assert report["complete"] is None and "strata" not in report and "saturated_cones" not in report


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


@pytest.mark.parametrize(
    "roots", ["1_0", "\u0661", "\uff12", "+1", "-1", "1.0", "\u00b2", pytest.param("1" * 5000, id="5000-digits")]
)
def test_localize_reads_ascii_digits_only(capsys, roots):
    """A root index is a nonempty run of ASCII digits, with whitespace around it:
    int() would read "+1", "1_0" as 10, and Arabic-Indic or fullwidth digits,
    and would raise on more than 4,300 digits."""
    code, out, err = run(capsys, "localize", fixture("e6.json"), f"--roots={roots}")
    assert (code, out, err) == (2, "", f"error: bad root index {roots!r}\n")
    code, _, err = run(capsys, "localize", fixture("e6.json"), "--roots= 2 ,\t1")
    assert (code, err) == (0, "")


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


def test_degenerate_resolves_each_root_once(capsys, tmp_path, monkeypatch):
    """On split A6 the boundary cone has 64 faces; neither a face nor one of
    the 6 quotient roots costs a solve on Q^12: each face reads its fiber off
    the rays of the boundary cone, one per root, and the index of xiZ is the
    product of its Hermite pivots."""
    calls = []
    coordinates = Lattice.coordinates

    def counting(self, v):
        calls.append(self.ambient_rank)
        return coordinates(self, v)

    monkeypatch.setattr(Lattice, "coordinates", counting)
    code, out, _ = run(capsys, "--format", "json", "degenerate", split_a6(tmp_path))
    assert code == 0 and len(json.loads(out)["fibers"]) == 64
    # 6 in building the datum, one per spherical root, and none on Q^12
    assert (calls.count(6), calls.count(12), len(calls)) == (6, 0, 6)


def test_only_analyze_builds_the_little_root_system(capsys, monkeypatch):
    """The little root system is derived where the analyze report prints it:
    on the fixtures, analyze builds one root system per datum, and
    standard-fan, localize and degenerate build none, at every module of
    the package that binds ``generate_roots``."""
    calls = []
    generate_roots = rootsys.generate_roots

    def counting(base):
        calls.append(len(base))
        return generate_roots(base)

    bound = [m for name, m in sorted(sys.modules.items())
             if name.startswith("spherindex.") and vars(m).get("generate_roots") is generate_roots]
    assert rootsys in bound
    for module in bound:
        monkeypatch.setattr(module, "generate_roots", counting)
    runs = [(name, command) for name in ("sp42", "e6", "su22", "u11")
            for command in ("analyze", "standard-fan", "localize --roots 1", "degenerate")]
    got = {}
    for name, command in runs:
        calls.clear()
        cmd, *options = command.split()
        code, _, _ = run(capsys, cmd, fixture(name + ".json"), *options)
        got[name, command] = code, len(calls)
    # su22's valuation cone is not strictly convex: it has no standard fan or localization
    exits = {("su22", "standard-fan"): 1, ("su22", "localize --roots 1"): 1}
    assert got == {(name, command): (exits.get((name, command), 0), int(command == "analyze")) for name, command in runs}


# spherindex --help and spherindex fan --help at 80 columns
MAIN_HELP = """\
usage: spherindex [-h] [--format {text,json}]
                  {analyze,restrict-index,standard-fan,fan,localize,degenerate}
                  ...

exact combinatorics of spherical varieties over non-closed fields

positional arguments:
  {analyze,restrict-index,standard-fan,fan,localize,degenerate}
    analyze             validate a datum and compute all invariants
    restrict-index      restricted root data of a group index
    standard-fan        standard fan and strata of a convex datum
    fan                 check a user fan against a datum
    localize            localize a datum at restricted roots
    degenerate          boundary degeneration lattice data

options:
  -h, --help            show this help message and exit
  --format {text,json}
"""
FAN_HELP = """\
usage: spherindex fan [-h] --fan FAN_PATH [--check {smooth,complete,support}]
                      [--strata] [--saturate]
                      path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --fan FAN_PATH
  --check {smooth,complete,support}
  --strata
  --saturate
"""


@pytest.mark.parametrize("argv, expected", [(["--help"], MAIN_HELP), (["fan", "--help"], FAN_HELP)], ids=["main", "fan"])
def test_help_is_unchanged(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [[], ["analyze"], ["nosuch", "x.json"], ["fan", "x.json"], ["--format", "xml", "analyze", "x.json"],
     ["fan", "x.json", "--fan", "f.json", "--check", "nope"], ["analyze", "x.json", "extra"]],
)
def test_usage_error_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "usage: spherindex" in out.err


FLAGS = {flag: spec for _, _, options in cli.COMMANDS.values() for flag, spec in options.items()}
ARGV_TOKENS = [
    *cli.COMMANDS, "--format", "json", "text", "xml", *FLAGS, *{c for spec in FLAGS.values() for c in spec.get("choices", ())},
    "-h", "--help", "--", "-", "-1", "", "a b", "--format=json", "--fan=f", "--sat", "--roo", "x.json",
]


@st.composite
def argvs(draw):
    """A prefix of a canonical argv (``[--format F] CMD PATH`` and its options in
    any order, each zero to two times) followed by any tokens; a value is one
    of its choices, or any token."""
    def value(choices):
        return draw(st.sampled_from(choices) | st.sampled_from(ARGV_TOKENS))

    name = draw(st.sampled_from(list(cli.COMMANDS)))
    options = []
    for flag, spec in cli.COMMANDS[name][2].items():
        arg = [] if spec.get("action") == "store_true" else [value(spec.get("choices", ["f.json", ""]))]
        options += [[flag, *arg]] * draw(st.integers(0, 2))
    head = draw(st.sampled_from([[], ["--format", value(cli.FORMATS)]])) + [name, "x.json"]
    canonical = head + [token for option in draw(st.permutations(options)) for token in option]
    cut = draw(st.just(len(canonical)) | st.integers(0, len(canonical)))
    return canonical[:cut] + draw(st.just([]) | st.lists(st.sampled_from(ARGV_TOKENS), max_size=4))


@settings(max_examples=600, deadline=None)
@given(argv=argvs())
@example(argv=["fan", "x.json", "--check", "smooth"])
@example(argv=["fan", "x.json", "--fan", "--strata"])
@example(argv=["fan", "x.json", "--fan", "f.json", "--check", "nope"])
@example(argv=["--format", "text", "fan", "x.json", "--fan", "f.json", "--check", "smooth", "--check", "smooth", "--strata"])
def test_canonical_args_are_none_or_the_parsers_namespace(argv):
    """The fast path reads an argv exactly as argparse does, or leaves it to
    argparse; where argparse exits (help, usage errors) it must leave it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli._parser().parse_args(argv))
        except SystemExit:
            parsed = None
    fast = cli._canonical_args(argv)
    assert fast is None or fast == parsed


def test_the_shared_parser_keeps_no_options_between_calls(capsys, tmp_path):
    """The parser is built once per process: options of one call (append,
    store_true) must not reach the next, whose output is a fresh process's."""
    fan_path = write(tmp_path, "fan.json", {"cones": [[[-1, 0], [0, -1]]]})
    argv = ["fan", fixture("e6.json"), "--fan", fan_path]
    code, first, _ = run(capsys, *argv, "--check", "smooth", "--check", "complete", "--saturate")
    assert code == 0 and "saturated_cones" in first
    code, second, _ = run(capsys, *argv)
    fresh = subprocess.run(
        [sys.executable, "-m", "spherindex.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (code, second) == (fresh.returncode, fresh.stdout) == (0, "command: fan\nissues: []\nfan_valid: true\n")


A5_SATURATED_SHA256 = "6e8139675dbec676d78feab96fac6e04861e31be2b06dbca5a5d8faad846785a"
A5_SATURATED_TEXT_SHA256 = "131a211a8041acba9220ed3efcf4393501d7d38f4b289dfd986025b5840082a0"


def test_saturated_standard_fan_of_split_a5_is_pinned(tmp_path):
    """The saturated standard fan of split A5 is the braid fan: Fubini(6) =
    4,683 cones (OEIS A000670), of which 6! = 720 are chambers.  The JSON
    digest was captured before the fan engine tested once per maximal cone,
    the text digest before the JSON writer replaced ``json.dumps``."""
    n = 5
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    datum = write(tmp_path, "a5.json", {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "A", "rank": n}]},
        "spherical": {"sigma": basis},
    })
    fan_path = write(tmp_path, "fan.json", {"cones": [[[-x for x in row] for row in basis]]})
    stdout = {}
    for fmt in ("json", "text"):
        proc = subprocess.run(
            [sys.executable, "-m", "spherindex.cli", "--format", fmt, "fan", datum, "--fan", fan_path,
             "--saturate", "--check", "complete", "--check", "smooth", "--strata"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0
        stdout[fmt] = proc.stdout
    assert hashlib.sha256(stdout["json"].encode()).hexdigest() == A5_SATURATED_SHA256
    assert hashlib.sha256(stdout["text"].encode()).hexdigest() == A5_SATURATED_TEXT_SHA256
    cones = json.loads(stdout["json"])["saturated_cones"]
    assert len(cones) == 4683
    assert sum(len(c) == n for c in cones) == 720


def saturate_e6(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", {"cones": [[[-1, 0], [0, -1]]]})
    return run(capsys, "fan", fixture("e6.json"), "--fan", fan_path, "--saturate")


def test_orbit_cap_not_a_positive_integer_exit_2(capsys, tmp_path, monkeypatch):
    # int() would read the last four as 10, 3, 3 and 3
    for value in ("abc", "0", "-3", "1" * 5000, "1_0", "+3", "\u0663", "\uff13"):
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


FIXTURE_NAMES = ("sp42", "e6", "su22", "u11")
FIXTURE_DOCS = [json.load(open(fixture(n + ".json"))) for n in FIXTURE_NAMES]
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


def object_levels(doc):
    """(path, kind) of each object of a document: the top level, and every
    object below it, of the kind of the key that holds it."""
    for path in _paths(doc):
        if isinstance(functools.reduce(operator.getitem, path, doc), dict):
            yield path, "document" if not path else "component" if path[-2:-1] == ("components",) else path[-1]


OBJECT_LEVELS = [(name, path, kind) for name, doc in zip(FIXTURE_NAMES, FIXTURE_DOCS) for path, kind in object_levels(doc)]
# every command reads the whole datum, but restrict-index reads no spherical and no abstract object
SCHEMA_COMMANDS = [["analyze"], ["standard-fan"], ["localize", "--roots", "1"], ["degenerate"], ["fan", "--fan"], ["restrict-index"]]


def with_key(doc, path, key, value):
    """A copy of doc whose object at path also holds key."""
    doc = copy.deepcopy(doc)
    functools.reduce(operator.getitem, path, doc)[key] = value
    return doc


@pytest.mark.parametrize("name, path, kind", OBJECT_LEVELS)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_key_the_parser_does_not_read_exits_2_naming_it(capsys, tmp_path, name, path, kind, data):
    """An unread key inserted into any object of a fixture: a command that
    reads that object exits 2 with one line that names the key and the kind
    of its object."""
    key = data.draw(st.text(max_size=12).filter(lambda k: k not in cli.FIELDS[kind]), label="key")
    commands = SCHEMA_COMMANDS if kind in ("document", "ambient", "component") else SCHEMA_COMMANDS[:-1]
    cmd, *options = data.draw(st.sampled_from(commands), label="command")
    doc = with_key(FIXTURE_DOCS[FIXTURE_NAMES.index(name)], path, key, data.draw(FUZZ_LEAVES, label="value"))
    if cmd == "fan":
        options.append(write(tmp_path, "fan.json", FAN_DOC))
    code, out, err = run(capsys, cmd, write(tmp_path, "doc.json", doc), *options)
    assert (code, out, err) == (2, "", f"error: unknown field {key!r} in {kind}\n")


@pytest.mark.parametrize("name, path, kind", OBJECT_LEVELS)
def test_a_key_given_twice_exits_2_naming_it(capsys, tmp_path, name, path, kind):
    """The first key of each object of a fixture given a second time, last,
    with another value: json.load would keep the second and say nothing."""
    doc = FIXTURE_DOCS[FIXTURE_NAMES.index(name)]
    key = next(iter(functools.reduce(operator.getitem, path, doc)))
    text = json.dumps(with_key(doc, path, "\0twice", [])).replace(json.dumps("\0twice"), json.dumps(key))
    (tmp_path / "doc.json").write_text(text)
    for cmd in ("analyze", "restrict-index"):
        assert run(capsys, cmd, str(tmp_path / "doc.json")) == (2, "", f"error: repeated field {key!r}\n")


def test_a_misspelt_optional_key_exits_2_where_it_read_as_absent(capsys, tmp_path):
    """Written "star" for "star_generators", SU(1,2) read as split A2; a fan
    file holds a top level as any document does."""
    typo = {"schema_version": "1", "mode": "ambient", "ambient": {"components": [{"family": "A", "rank": 2}]}, "star": "flip"}
    assert run(capsys, "restrict-index", write(tmp_path, "typo.json", typo)) == (2, "", "error: unknown field 'star' in document\n")
    fan = write(tmp_path, "fan.json", {"cones": [[[-1, 0], [0, -1]]], "cone": []})
    assert run(capsys, "fan", fixture("e6.json"), "--fan", fan) == (2, "", "error: unknown field 'cone' in document\n")


def _rows(m):
    return [[str(x) for x in row] for row in m]


def datum_doc(d):
    """The JSON document of a datum, in the mode it was built in."""
    doc = {"schema_version": "1", "mode": "abstract" if d.index is None else "ambient"}
    if d.index is None:
        doc["abstract"] = {
            "rank": len(d.pairing),
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
    doc["star_generators"] = [_rows(g) for g in ix.star]
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
    give int data from the parser through the restricted datum, whose
    lifts, form and coweights are integers over stored scales.  The pairing
    is an integer multiple of the invariant form whatever the input."""
    docs = FIXTURE_DOCS + [datum_doc(d) for d in random_data(20261018, 24)]
    integral = [doc for doc in docs if all(q.denominator == 1 for q in _numbers(doc))]
    assert len(integral) == len(docs) - 1  # all but e6, whose second root has halves
    e6 = cli.parse_datum(FIXTURE_DOCS[1])
    assert e6.pairing == ((8, -4), (-4, 4))  # den^2 = 4 times the form of its basis
    third = cli.parse_datum({"schema_version": "1", "mode": "abstract", "abstract": {"rank": 1, "pairing": [["1/3"]]}})
    assert third.pairing == ((1,),) and type(third.pairing[0][0]) is int
    for doc in integral:
        d = cli.parse_datum(doc)
        rd = restrict_datum(d)
        for rows in (d.sigma, d.pairing, rd.sigma_k, tuple(map(primitive_vector, rd.sigma_k)), rd.projected_lifts, rd.form_k, rd.coweights):
            assert all(type(x) is int for r in rows for x in r), rows


ANISOTROPIC_DOC = {
    "schema_version": "1",
    "mode": "ambient",
    "ambient": {"components": [{"family": "C", "rank": 2}]},
    "compact_simple": ["a1", "a2"],
    "spherical": {"sigma": [[1, 0], [0, 1]]},
}


def ambient_fixture_data():
    docs = [doc for doc in FIXTURE_DOCS if doc["mode"] == "ambient"] + [ANISOTROPIC_DOC]
    return [cli.parse_datum(doc) for doc in docs]


def test_beta_coordinates_match_the_elimination():
    """The fiber sums are the coordinates that the inverse of the walls and
    solve_left find; the anisotropic index has no restricted simple roots."""
    data = ambient_fixture_data()
    assert len(data) == 4
    for d in data:
        srs = d.index.simple_roots
        beta = srs.fiber_sums(d.sigma_input)
        assert beta == [list(row) for row in beta_by_walls_inverse(d, d.sigma_input)]
        assert beta == [list(solve_left(srs.roots, res_A(d.index, row))) for row in d.sigma_input]
    report, code = cli.cmd_analyze(ANISOTROPIC_DOC)
    assert code == 0 and report["sigma_k_in_beta"] == [[], []]


def test_chamber_generators_are_a_positive_scale_of_the_walls_inverse(monkeypatch):
    """The chamber check pairs minus the fiber sums of the weight-lattice basis;
    the generators of det W^-1 give det times that matrix, so both test the
    same signs."""
    for d in ambient_fixture_data():
        rd = restrict_datum(d)
        old, det = chamber_by_walls_inverse(d)
        assert det > 0
        assert list(old) == [tuple(det * x for x in row) for row in chamber_generators(monkeypatch, d, rd)]


def test_beta_coordinates_run_no_elimination(monkeypatch):
    calls = []
    eliminate = linalg._eliminate

    def counting(m, k):
        calls.append(len(m))
        return eliminate(m, k)

    data = ambient_fixture_data()
    for d in data:
        d.index.simple_roots  # computed once per index, before the count
    monkeypatch.setattr(linalg, "_eliminate", counting)
    for d in data:
        d.index.simple_roots.fiber_sums(d.sigma_input + d.sigma_input)
    assert calls == []


def test_chamber_check_and_beta_coordinates_run_no_elimination(monkeypatch):
    """Both read the fibers of the restricted simple roots, computed once per index."""
    calls = []
    eliminate = linalg._eliminate

    def counting(m, k):
        calls.append(len(m))
        return eliminate(m, k)

    pairs = [(d, restrict_datum(d)) for d in ambient_fixture_data()]
    for d, _ in pairs:
        d.index.simple_roots  # computed once per index, before the count
    monkeypatch.setattr(linalg, "_eliminate", counting)
    for d, rd in pairs:
        chamber_containment_check(d, rd)
        d.index.simple_roots.fiber_sums(d.sigma_input)
    assert calls == []


def test_text_renderer_joins_each_run_of_ints_once(monkeypatch):
    """A row of ints is written by one join, not one _flat call per entry."""
    calls = []
    flat = cli._flat

    def counting(v):
        calls.append(v)
        return flat(v)

    monkeypatch.setattr(cli, "_flat", counting)
    rows = ((1, -2, 3), (0, 0, 40), (True, 5), (Fraction(1, 2), 7))
    assert cli._render_text({"rows": rows}) == ["rows: [[1, -2, 3], [0, 0, 40], [true, 5], [1/2, 7]]"]
    assert len(calls) == 1 + len(rows) + 4  # the list, each row, and the entries of the two mixed rows
