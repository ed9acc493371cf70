import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from sympy import Matrix

from datagen import (
    ambient_roots,
    cartan_matrix,
    counted_restriction,
    divisor_scan_indivisible,
    flip_matrix,
    fvec,
    image_lattice,
    load_tool,
    random_tits_index,
    restricted_simple_roots_by_split_gram,
    solve_left,
    split_product_datum,
    with_identity_star,
)
from spherindex import index, linalg, rootsys
from spherindex.cli import cmd_analyze, cmd_restrict_index, emit, parse_index
from spherindex.errors import SpherindexError
from spherindex.index import (
    TitsIndex,
    res_A,
    restricted_root_system,
    restricted_simple_roots,
    split_subspace,
)
from spherindex.linalg import Lattice, dot, identity, mat_mul, mat_mul_t, rank, scaled_inverse, transpose, vec_mat
from spherindex.rootsys import (
    VALID_RANKS,
    AmbientRootDatum,
    RestrictedRoots,
    RootBase,
    classify,
    diagram_involution,
    type_name_of,
)

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def split_index(fam, n):
    amb = AmbientRootDatum.of([(fam, n)])
    return TitsIndex.of(amb, [], [])


def c3_rank_one_index():
    # compact a1, a3 inside type C3
    amb = AmbientRootDatum.of([("C", 3)])
    return TitsIndex.of(amb, [0, 2], [])


def e6_flip_index():
    amb = AmbientRootDatum.of([("E", 6)])
    return TitsIndex.of(amb, [], [flip_matrix(6, [(0, 5), (2, 4)])])


def a_flip_index(n):
    # type A_{2n-1} with the diagram flip, no compact roots
    amb = AmbientRootDatum.of([("A", 2 * n - 1)])
    pairs = [(i, 2 * n - 2 - i) for i in range(n - 1)]
    return TitsIndex.of(amb, [], [flip_matrix(2 * n - 1, pairs)])


def test_split_index_whole_space():
    ix = split_index("A", 3)
    v = split_subspace(ix)
    assert len(v) == 3 and rank(v) == 3
    assert ix.violations() == []


def test_c3_index_rank_one():
    ix = c3_rank_one_index()
    assert ix.violations() == []
    v = split_subspace(ix)
    assert len(v) == 1


def test_e6_flip_rank_four():
    ix = e6_flip_index()
    assert ix.violations() == []
    assert len(split_subspace(ix)) == 4


def test_res_kills_compact_roots():
    ix = c3_rank_one_index()
    assert all(x == 0 for x in res_A(ix, [1, 0, 0]))
    assert all(x == 0 for x in res_A(ix, [0, 0, 1]))
    assert any(x != 0 for x in res_A(ix, [0, 1, 0]))


def test_res_constant_on_star_orbits():
    ix = e6_flip_index()
    assert res_A(ix, [1, 0, 0, 0, 0, 0]) == res_A(ix, [0, 0, 0, 0, 0, 1])
    assert res_A(ix, [0, 0, 1, 0, 0, 0]) == res_A(ix, [0, 0, 0, 0, 1, 0])
    g = ix.star[0]
    for chi in ambient_roots(ix.ambient)[:20]:
        from spherindex.linalg import vec_mat

        assert res_A(ix, chi) == res_A(ix, vec_mat(chi, g))


def test_e6_restricted_simple_roots_f4():
    ix = e6_flip_index()
    srs = restricted_simple_roots(ix)
    assert srs.types == (("F", 4),)
    assert srs.fibers == ((1,), (3,), (2, 4), (0, 5))


def test_a3_flip_restricted_c2():
    ix = a_flip_index(2)
    srs = restricted_simple_roots(ix)
    assert srs.types in ((("B", 2),), (("C", 2),))
    assert sorted(srs.fibers) == [(0, 2), (1,)]
    phi = restricted_root_system(ix)
    assert len(phi.indivisible) == 8
    assert phi.reduced


def test_split_restriction_is_identity_like():
    ix = split_index("A", 2)
    srs = restricted_simple_roots(ix)
    assert len(srs.roots) == 2
    assert srs.types == (("A", 2),)
    phi = restricted_root_system(ix)
    assert sum(m for _, m in phi.multiplicities) == 6
    assert all(m == 1 for _, m in phi.multiplicities)


def test_e6_restricted_system_f4_indivisible():
    ix = e6_flip_index()
    phi = restricted_root_system(ix)
    assert ix.simple_roots.types == (("F", 4),)
    assert len(phi.indivisible) == 48


def test_restricted_roots_are_integer_combinations_of_s_k():
    for ix in [c3_rank_one_index(), e6_flip_index(), a_flip_index(2)]:
        srs = restricted_simple_roots(ix)
        phi = restricted_root_system(ix)
        for r, _ in phi.multiplicities:
            coords = solve_left(srs.roots, r)
            assert coords is not None
            assert all(x.denominator == 1 for x in coords)
            assert all(x >= 0 for x in coords) or all(x <= 0 for x in coords)


def test_res_surjects_root_lattice_onto_s_k_lattice():
    for ix in [e6_flip_index(), a_flip_index(2), c3_rank_one_index()]:
        n = ix.ambient.dim
        m = tuple(res_A(ix, [int(i == j) for j in range(n)]) for i in range(n))
        srs = restricted_simple_roots(ix)
        img = image_lattice(m, Lattice.standard(n))
        assert img == Lattice.from_rows(len(srs.roots[0]), srs.roots)


def block_shear(n):
    """The blocks [[B, 1], [1, 0]] and [[-B, 1], [1, 0]], B = 10**30, on the
    diagonal of the n x n identity: trace n - 4, det 1 and infinite order."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for k, b in ((0, 10**30), (2, -(10**30))):
        g[k][k], g[k][k + 1], g[k + 1][k], g[k + 1][k + 1] = b, 1, 1, 0
    return g


NON_PERMUTATION_STARS = {
    "A4-shear": (4, block_shear(4)),
    "A5-block-shear": (5, block_shear(5)),
    "A6-block-shear": (6, block_shear(6)),
    "A2-det": (2, [[10**30, 0], [0, 1]]),
    "A2-idempotent": (2, [[1, 0], [0, 0]]),
    "A2-finite-half": (2, [["0", "1/2"], ["2", "0"]]),
}


@pytest.mark.parametrize("command", ["restrict-index", "analyze"])
@pytest.mark.parametrize("case", list(NON_PERMUTATION_STARS))
def test_non_permutation_star_generator_fails_at_once(tmp_path, case, command):
    """A star generator that is not a permutation matrix fails, whatever the
    group it generates: finite, infinite or a monoid.  The group closure that
    ran here grew entries without bound (the A6 block shear ran 16 s into a
    MemoryError); a subprocess with a timeout catches a hang."""
    n, g = NON_PERMUTATION_STARS[case]
    doc = {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "A", "rank": n}]},
        "star_generators": [g],
        "spherical": {"sigma": []},
    }
    path = tmp_path / "star.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "spherindex.cli", "--format", "json", command, str(path)],
        capture_output=True,
        text=True,
        timeout=2,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    if command == "restrict-index":
        assert report["violations"] == ["star generator does not permute the simple roots"]
    else:
        checks = {c["name"]: c for c in report["validation"]}
        assert checks["index_well_formed"]["detail"] == "star generator does not permute the simple roots"


@pytest.mark.parametrize("g", [[[2, 0], [0, 1]], [[1, 1], [0, 1]]])
def test_a_non_permutation_star_generator_reports_no_compact_root_line(g):
    """Which compact roots a generator moves out is read off a permutation
    matrix.  Read off these two, the line was wrong both ways: the first keeps
    a1 on its own line yet was said to move it out, the second sends a1 to
    a1 + a2 with no line."""
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 2)]), [0], [g])
    assert ix.violations() == ["star generator does not permute the simple roots"]


def emitted(capsys, report):
    """A report as ``--format json`` prints it."""
    emit(report, "json")
    return json.loads(capsys.readouterr().out)


def permutation_matrix(p):
    """The matrix sending simple root i to p[i], on character coordinates."""
    return [[int(p[i] == j) for j in range(len(p))] for i in range(len(p))]


def test_permutation_star_action_needs_no_closure(capsys):
    """A1^8 with a transposition and an 8-cycle: they generate S8, 40,320
    elements, which is a valid star action.  A group of permutation matrices
    is finite, so the group is never closed (a closure capped at 10,000
    elements reported it infinite)."""
    doc = {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "A", "rank": 1, "label": f"p{i + 1}"} for i in range(8)]},
        "star_generators": [
            permutation_matrix([1, 0, 2, 3, 4, 5, 6, 7]),
            permutation_matrix([(i + 1) % 8 for i in range(8)]),
        ],
        "spherical": {"sigma": []},
    }

    report, code = cmd_restrict_index(doc)
    report = emitted(capsys, report)
    assert code == 0 and report["violations"] == []
    assert report["fibers"] == [[f"p{i + 1}.a1" for i in range(8)]]
    assert report["restricted_roots"] == [{"root": [-2], "multiplicity": 8}, {"root": [2], "multiplicity": 8}]
    assert cmd_analyze(doc)[1] == 0


def test_permutation_that_is_not_a_diagram_automorphism_is_named():
    """The star action permutes the simple roots by diagram automorphisms:
    a1 <-> a2 on A3, or the A1 root with a B2 root, is named as such (it was
    rejected only as a linearly dependent restricted base)."""
    a3 = AmbientRootDatum.of([("A", 3)])
    a1b2 = AmbientRootDatum.of([("A", 1, "x"), ("B", 2, "y")])
    cases = [
        (a3, [permutation_matrix([1, 0, 2])]),
        (a1b2, [permutation_matrix([1, 0, 2])]),
        (a1b2, [permutation_matrix([2, 1, 0])]),
        (a3, [permutation_matrix([2, 1, 0]), permutation_matrix([0, 2, 1])]),
    ]
    for amb, gens in cases:
        expected = f"star generator {len(gens) - 1} is not a diagram automorphism"
        assert TitsIndex.of(amb, [], gens).violations() == [expected]
    # diagram automorphisms pass: the A3 flip, the swap of two A1 or two A2
    a1a1 = AmbientRootDatum.of([("A", 1), ("A", 1)])
    a2a2 = AmbientRootDatum.of([("A", 2), ("A", 2)])
    for amb, gens in [
        (a3, [permutation_matrix([2, 1, 0])]),
        (a1a1, [permutation_matrix([1, 0])]),
        (a2a2, [permutation_matrix([2, 3, 0, 1])]),
        (a2a2, [permutation_matrix([3, 2, 1, 0])]),
    ]:
        assert TitsIndex.of(amb, [], gens).violations() == []


# products of total rank <= 6 with their number of diagram automorphisms:
# B3 and C3 are not isomorphic, so B3 x C3 has none but the identity
AUTOMORPHISM_COUNTS = {
    (("B", 2), ("C", 2)): 2, (("G", 2), ("G", 2)): 2, (("A", 2), ("B", 2)): 2,
    (("B", 3), ("C", 3)): 1, (("D", 4),): 6, (("F", 4),): 1, (("A", 3), ("A", 3)): 8,
}


def test_a_permutation_keeps_the_form_exactly_when_it_keeps_the_cartan_matrix():
    """``violations`` compares the form, which the Cartan matrix's diagram
    automorphisms keep (a proof is at the check): every permutation of each
    product above keeps both or neither."""
    for spec, count in AUTOMORPHISM_COUNTS.items():
        amb = AmbientRootDatum.of(list(spec))
        n, b = amb.dim, amb.form()
        c = cartan_matrix(identity(n), b)
        kept = 0
        for p in permutations(range(n)):
            keeps_c = all(c[p[i]][p[j]] == c[i][j] for i in range(n) for j in range(n))
            keeps_b = all(b[p[i]][p[j]] == b[i][j] for i in range(n) for j in range(n))
            assert keeps_c == keeps_b, (spec, p)
            kept += keeps_c
        assert kept == count, spec
    # the cross swap of B2 x C2 sends the long root a1 of B2 to the long root
    # a2 of C2; the swap inside B2 sends a long root to a short one
    b2c2 = AmbientRootDatum.of([("B", 2), ("C", 2)])
    assert TitsIndex.of(b2c2, [], [permutation_matrix([3, 2, 1, 0])]).violations() == []
    assert TitsIndex.of(b2c2, [], [permutation_matrix([1, 0, 2, 3])]).violations() == [
        "star generator 0 is not a diagram automorphism"
    ]


def test_violations_reported():
    amb = AmbientRootDatum.of([("A", 2)])
    bad = TitsIndex.of(amb, [0], [flip_matrix(2, [(0, 1)])])
    msgs = bad.violations()
    assert any("compact" in m for m in msgs)
    ugly = TitsIndex.of(amb, [], [[[1, 1], [0, 1]]])
    assert any("permute" in m for m in ugly.violations())


def test_dim_bookkeeping():
    # dim V = number of star orbits on S outside the compact set, for these
    assert len(split_subspace(c3_rank_one_index())) == 1
    assert len(split_subspace(e6_flip_index())) == 4
    assert len(split_subspace(a_flip_index(3))) == 3


def test_res_A_pairs_with_the_split_basis():
    compact_c8 = TitsIndex.of(AmbientRootDatum.of([("C", 8)]), [0, 2, 4, 6], [])
    for ix in [split_index("E", 8), e6_flip_index(), compact_c8]:
        b = ix.ambient.form()
        v = split_subspace(ix)
        for chi in ambient_roots(ix.ambient):
            assert res_A(ix, chi) == tuple(dot(vec_mat(fvec(chi), b), row) for row in v)


def large_indices():
    """Split E8 and A12, quasi-split E6, C8 with compact a1, a3, a5, a7 and the A6 x A6 swap."""
    swap = TitsIndex.of(
        AmbientRootDatum.of([("A", 6), ("A", 6)]), [], [flip_matrix(12, [(i, i + 6) for i in range(6)])]
    )
    compact_c8 = TitsIndex.of(AmbientRootDatum.of([("C", 8)]), [0, 2, 4, 6], [])
    return [split_index("E", 8), split_index("A", 12), e6_flip_index(), compact_c8, swap]


def test_restricted_cartan_matches_the_fraction_inverse():
    for ix in large_indices():
        distinct = []
        for img in ix.restriction:
            if any(img) and img not in distinct:
                distinct.append(img)
        inv = Matrix(mat_mul(split_subspace(ix), ix.restriction)).inv()
        form = tuple(tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in inv.tolist())
        c = cartan_matrix(distinct, form)
        order = [i for _, _, positions in classify(c) for i in positions]
        srs = restricted_simple_roots(ix)
        scaled, _ = scaled_inverse([vec_mat(v, ix.restriction) for v in split_subspace(ix)])
        assert RootBase.from_vectors(srs.roots, scaled) == RootBase.from_vectors(srs.roots, form)
        assert cartan_matrix(srs.roots, scaled) == cartan_matrix(srs.roots, form)
        assert srs.roots == tuple(distinct[i] for i in order)


def test_restrict_index_path_creates_no_fraction(monkeypatch):
    indices = large_indices()

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was created")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    for ix in indices:
        assert ix.violations() == []
        restricted_root_system(ix)


def quasi_split_a(n):
    """Type A_n with the diagram flip, no compact roots."""
    pairs = [(i, n - 1 - i) for i in range(n // 2)]
    return TitsIndex.of(AmbientRootDatum.of([("A", n)]), [], [flip_matrix(n, pairs)])


def test_reducedness_matches_the_fraction_halves():
    # quasi-split A2 and A4 restrict to the non-reduced BC1 and BC2
    cases = large_indices() + [quasi_split_a(n) for n in (2, 3, 4, 5)] + [c3_rank_one_index()]
    for ix in cases:
        support = {img for chi in ambient_roots(ix.ambient) if any(img := res_A(ix, chi))}
        halves = {tuple(Fraction(x, 2) for x in r) for r in support}
        indivisible = {r for r in support if tuple(Fraction(x, 2) for x in r) not in support}
        phi = restricted_root_system(ix)
        assert phi.reduced == (not support & halves)
        assert len(phi.indivisible) == len(indivisible) == len(divisor_scan_indivisible(support))
    assert [restricted_root_system(quasi_split_a(n)).reduced for n in (2, 4)] == [False, False]
    assert [len(restricted_root_system(quasi_split_a(n)).indivisible) for n in (2, 4)] == [2, 8]


def test_a_triple_of_a_root_is_divisible():
    """G2 with its long simple root compact restricts to {+-1, +-2, +-3}: not
    a root system, and only +-1 is indivisible, as the type A1 says."""
    ix = TitsIndex.of(AmbientRootDatum.of([("G", 2)]), [1], [])
    phi = restricted_root_system(ix)
    assert {r for r, _ in phi.multiplicities} == {(-3,), (-2,), (-1,), (1,), (2,), (3,)}
    assert (phi.reduced, len(phi.indivisible)) == (False, 2)
    assert type_name_of(ix.simple_roots.types) == "A1"


def test_anisotropic_index_has_empty_restriction(capsys):
    doc = {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "C", "rank": 2}]},
        "compact_simple": ["a1", "a2"],
    }
    ix = parse_index(doc)
    assert split_subspace(ix) == () and ix.restriction == ((), ())
    report, code = cmd_restrict_index(doc)
    assert code == 0
    assert emitted(capsys, report) == {
        "command": "restrict-index",
        "violations": [],
        "restricted_simple_roots": [],
        "fibers": [],
        "type": "",
        "restricted_roots": [],
        "reduced": True,
        "indivisible_type": "",
        "indivisible_count": 0,
    }


def test_split_subspace_runs_once_per_index(monkeypatch):
    calls = []

    def counting(ix):
        calls.append(ix)
        return split_subspace(ix)

    monkeypatch.setattr(index, "split_subspace", counting)
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "e6.json")) as fh:
        doc = json.load(fh)
    for command in (cmd_restrict_index, cmd_analyze):
        calls.clear()
        _, code = command(doc)
        assert code == 0
        assert len(calls) == 1, command.__name__


def brute_force_restriction(ix):
    """Every ambient root written out in n coordinates, times the n x r
    restriction matrix: the |Phi| x n x r product that the steps avoid,
    every image counted, and the indivisible ones found by a divisor scan."""
    return counted_restriction(mat_mul_t(ambient_roots(ix.ambient), transpose(ix.restriction)))


def flip_index(fam, n):
    """Type fam n with its diagram involution as the star action, no compact roots."""
    return TitsIndex.of(AmbientRootDatum.of([(fam, n)]), [], [permutation_matrix(diagram_involution(fam, n))])


def random_compact_indices(seed, count):
    """Split-star indices with a random compact subset that ``violations()`` accepts."""
    rng, out = random.Random(seed), []
    types = [(f, n) for f in "ABCDEFG" for n in range(1, 7) if VALID_RANKS[f](n)]
    while len(out) < count:
        fam, n = rng.choice(types)
        ix = TitsIndex.of(AmbientRootDatum.of([(fam, n)]), rng.sample(range(n), rng.randrange(n)), [])
        if ix.violations() == []:
            out.append(ix)
    return out


def oracle_indices():
    split = [split_index(f, n) for f in "ABCDEFG" for n in range(1, 9) if VALID_RANKS[f](n)]
    flips = [flip_index("A", n) for n in range(2, 12)] + [flip_index("D", n) for n in range(4, 9)]
    a3a3b2 = AmbientRootDatum.of([("A", 3, "x"), ("A", 3, "y"), ("B", 2, "z")])
    a3_swap = flip_matrix(8, [(i, i + 3) for i in range(3)])
    return (
        split
        + flips
        + [flip_index("E", 6)]
        + large_indices()[3:]  # compact C8 {a1, a3, a5, a7} and the A6 x A6 swap
        + [TitsIndex.of(a3a3b2, [], []), TitsIndex.of(a3a3b2, [0, 2, 3, 5, 6], [a3_swap])]
        + random_compact_indices(seed=2203, count=24)
    )


def test_the_restriction_is_the_form_times_the_split_basis():
    """R = B V^T on every split type up to rank 12 and on products of types,
    where V is the identity and R is taken as B itself, and on the quasi-split,
    compact and swapped indices of the oracle, where it is a product."""
    split = [split_index(f, n) for f in "ABCDEFG" for n in range(1, 13) if VALID_RANKS[f](n)]
    products = [
        TitsIndex.of(AmbientRootDatum.of(spec), [], [])
        for spec in ([("A", 3), ("B", 2)], [("G", 2), ("G", 2)], [("E", 6), ("D", 4), ("A", 1)], [("C", 3), ("F", 4)])
    ]
    others = [ix for ix in oracle_indices() if ix.compact or ix.star]
    assert len(split) == 50 and len(others) == 34
    for ix in split + products + others:
        assert ix.restriction == mat_mul_t(ix.ambient.form(), split_subspace(ix))


def test_restricted_root_system_matches_the_brute_force_product():
    indices = oracle_indices()
    assert len(indices) == 34 + 15 + 1 + 2 + 2 + 24
    for ix in indices:
        assert ix.violations() == []
        assert restricted_root_system(ix) == brute_force_restriction(ix)


def test_restricted_roots_are_counted_from_the_positive_images_alone(monkeypatch):
    """Split E8 hands ``RestrictedRoots.of`` its 120 positive images, not all
    240 roots, and still reports every root once."""
    sizes, of = [], RestrictedRoots.of

    def counting(images):
        sizes.append(len(images))
        return of(images)

    monkeypatch.setattr(RestrictedRoots, "of", staticmethod(counting))
    phi = restricted_root_system(split_index("E", 8))
    assert sizes == [120]
    assert sum(m for _, m in phi.multiplicities) == 240 == len(phi.indivisible)


def test_restricted_root_system_makes_no_matrix_product(monkeypatch):
    """Images come by steps from the rows of the restriction, cold closure
    included: no product of the ambient roots with the restriction matrix."""
    indices = [split_index("E", 8), e6_flip_index()] + large_indices()[3:]
    expected = [brute_force_restriction(ix) for ix in indices]  # also computes each ix.restriction
    calls = []

    def counted(name):
        product = getattr(linalg, name)
        return lambda *args: calls.append(name) or product(*args)

    rootsys._standard_positive_roots.cache_clear()
    for module in (index, rootsys):
        for name in ("mat_mul_t", "mat_mul"):
            monkeypatch.setattr(module, name, counted(name), raising=False)
    assert [restricted_root_system(ix) for ix in indices] == expected
    assert calls == []


def outcome(f, ix):
    """What ``f(ix)`` returns, or the class name and message of what it raises."""
    try:
        return f(ix)
    except SpherindexError as e:
        return type(e).__name__, str(e)


def kind(result) -> str:
    if isinstance(result, tuple):
        return result[0]
    if not result.roots:
        return "anisotropic"
    return "mixed fibers" if len({*map(len, result.fibers)}) > 1 else "base"


def test_restricted_simple_roots_agree_with_the_split_gram_inverse():
    """The Gram matrix read off the ambient form gives the roots, fibers and
    types, or the error and its message, that the inverse of the split Gram
    matrix S B S^T gave: on random indices with A-G components, swaps, flips
    (A_odd mixes fibers of sizes 1 and 2) and unions of star orbits as the
    compact set, the anisotropic case among them."""
    rng = random.Random(20261019)
    kinds = Counter()
    for _ in range(1000):
        ix = random_tits_index(rng)
        new = outcome(restricted_simple_roots, ix)
        assert new == outcome(restricted_simple_roots_by_split_gram, ix), ix
        kinds[kind(new)] += 1
    assert set(kinds) == {"base", "mixed fibers", "anisotropic", "NotARootBase"}, kinds


def test_a_split_index_restricts_to_itself_as_the_general_path_does():
    """A split index's restricted simple roots are the rows of its form, one
    per fiber, classified once.  The identity star keeps the group action but
    sends the index down the general path (fiber sums, bordered matrix, Schur
    complement), which gives the same roots, fibers and types on every split
    type up to rank 12, where D2 and D3 classify as A1 x A1 and A3, on
    products of types and on the indices of random split data."""
    split = [split_index(f, n) for f in "ABCDEFG" for n in range(1, 13) if VALID_RANKS[f](n)]
    products = [
        TitsIndex.of(AmbientRootDatum.of(spec), [], [])
        for spec in ([("A", 3), ("B", 2)], [("G", 2), ("G", 2)], [("C", 2), ("D", 3), ("D", 2)], [("C", 3), ("F", 4)])
    ]
    rng = random.Random(20261021)
    data = [split_product_datum(rng).index for _ in range(40)]
    for ix in split + products + data:
        general = with_identity_star(ix)
        assert ix.is_split and not general.is_split
        assert restricted_simple_roots(ix) == restricted_simple_roots(general), ix
    types = {(c.family, c.rank): restricted_simple_roots(ix).types for ix in split for c in ix.ambient.components}
    assert (types["D", 2], types["D", 3]) == ((("A", 1), ("A", 1)), (("A", 3),))


def test_the_documents_flip_each_type_by_its_diagram_involution():
    tool = load_tool("compare_outputs")
    for family, rank in tool.INDEX_TYPES:
        assert tuple(tool.diagram_flip(family, rank)) == diagram_involution(family, rank)


def test_the_sweep_holds_every_type_up_to_rank_12_and_flips_each_it_moves():
    tool = load_tool("compare_outputs")
    valid = [(f, n) for f, ok in VALID_RANKS.items() for n in range(1, tool.SWEEP_RANK + 1) if ok(n)]
    assert sorted(tool.SWEEP_TYPES) == valid
    flipped = [(f, n) for f, n in valid if diagram_involution(f, n) != tuple(range(n))]
    docs = dict(tool.sweep_documents())
    assert sorted(docs) == sorted([f"{f}{n}" for f, n in valid] + [f"{f}{n} flip" for f, n in flipped])
    for name, doc in docs.items():
        assert cmd_restrict_index(doc)[1] == 0, name


def test_the_wide_sweep_holds_a_to_d_at_four_ranks_and_flips_a_and_d():
    tool = load_tool("compare_outputs")
    docs = dict(tool.sweep_documents(tool.WIDE_TYPES))
    ranks = (16, 24, 32, 40)
    assert sorted(docs) == sorted([f"{f}{n}" for f in "ABCD" for n in ranks] + [f"{f}{n} flip" for f in "AD" for n in ranks])
    for name, doc in docs.items():
        assert cmd_restrict_index(doc)[1] == 0, name


def index_document(components, compact=(), star=()):
    return {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": f, "rank": n} for f, n in components]},
        "compact_simple": list(compact),
        "star_generators": list(star),
    }


def test_restrict_index_runs_one_forward_elimination(monkeypatch):
    """Quasi-split indices, C8 with compact a1, a3, a5, a7 and the chain
    a2..a11 of SU(1,11) run one elimination each, (rows, k): the Gram matrix
    is the Schur complement of the compact block joined to a fiber in the
    bordered matrix of the r restricted simple roots, and a quasi-split index
    has no such block, so it takes no pivot.  A split index restricts to
    itself, its Gram matrix the form: it runs none."""
    swap = flip_matrix(12, [(i, i + 6) for i in range(6)])
    cases = [(index_document([(t, n)]), []) for t, n in [("E", 7), ("E", 8), ("D", 8), ("A", 12)]]
    cases += [
        (index_document([t], star=["flip"]), [(r, 0)])
        for t, r in [(("A", 2), 1), (("A", 3), 2), (("A", 12), 6), (("D", 5), 4), (("E", 6), 4)]
    ]
    cases += [
        (index_document([("A", 6), ("A", 6)], star=[swap]), [(6, 0)]),
        (index_document([("C", 8)], compact=["a1", "a3", "a5", "a7"]), [(8, 4)]),
        (index_document([("A", 12)], compact=[f"a{i}" for i in range(2, 12)], star=["flip"]), [(11, 10)]),
    ]
    calls, eliminate = [], linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda m, k: calls.append((len(m), k)) or eliminate(m, k))
    for doc, expected in cases:
        calls.clear()
        report, code = cmd_restrict_index(doc)
        assert (code, report["violations"], calls) == (0, [], expected), doc
