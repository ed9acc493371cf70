import json
import os
from fractions import Fraction

import pytest

from datagen import divisor_scan_indivisible, flip_matrix, fvec, image_lattice
from spherindex import index
from spherindex.cli import cmd_analyze, cmd_restrict_index, parse_index
from spherindex.errors import BudgetExceeded
from spherindex.index import (
    StarAction,
    TitsIndex,
    ambient_roots,
    res_A,
    restricted_root_system,
    restricted_simple_roots,
    split_subspace,
)
from spherindex.linalg import Lattice, dot, inverse, mat_mul, rank, vec_mat
from spherindex.rootsys import AmbientRootDatum, RootBase, classify


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
    g = ix.star.generators[0]
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
    assert phi.indivisible_count == 8
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
    assert phi.indivisible_types == (("F", 4),)
    assert phi.indivisible_count == 48


def test_restricted_roots_are_integer_combinations_of_s_k():
    for ix in [c3_rank_one_index(), e6_flip_index(), a_flip_index(2)]:
        srs = restricted_simple_roots(ix)
        phi = restricted_root_system(ix)
        for r, _ in phi.multiplicities:
            from spherindex.linalg import solve_left

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


def test_star_action_finite_group():
    s = StarAction.of([flip_matrix(2, [(0, 1)])], 2)
    assert len(s.elements()) == 2
    shear = StarAction.of([[[1, 1], [0, 1]]], 2)
    with pytest.raises(BudgetExceeded, match=r"star action generated 51 elements > cap 50"):
        shear.elements(cap=50)


def test_star_generator_determinant_decides_infinite_order():
    # |det| not in {0, 1}: the powers are distinct, decided before any product
    for g in ([[2, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 1]], [[10**30, 1], [1, 1]]):
        with pytest.raises(BudgetExceeded, match=r"star generator 1 has infinite order"):
            StarAction.of([flip_matrix(2, [(0, 1)]), g], 2).elements(cap=100)
    # |det| = 1 with rational entries, and a singular idempotent: finite closures
    half = StarAction.of([[[0, Fraction(1, 2)], [2, 0]]], 2)
    assert len(half.elements()) == 2
    assert len(StarAction.of([[[1, 0], [0, 0]]], 2).elements()) == 2


def test_star_generator_trace_decides_infinite_order(monkeypatch):
    """|det| = 1 but |tr| > n: the group is infinite, decided with no product
    (the closure ran to its cap, about 10 s with entries of huge size)."""

    def refuse(*args):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(index, "mat_mul", refuse)
    for g in ([[10**30, 1], [1, 0]], [[2, 1], [1, 1]], [[-3, 1], [-1, 0]]):
        with pytest.raises(BudgetExceeded, match=r"star generator 0 has infinite order \(\|tr\| > 2\)"):
            StarAction.of([g], 2).elements()


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
        form = inverse(mat_mul(ix.split, ix.restriction))
        c = RootBase.from_vectors(distinct, form).cartan
        order = [i for _, _, positions in classify(c) for i in positions]
        srs = restricted_simple_roots(ix)
        assert srs.cartan == tuple(tuple(c[i][j] for j in order) for i in order)
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
        assert phi.indivisible_count == len(indivisible) == len(divisor_scan_indivisible(support))
    assert [restricted_root_system(quasi_split_a(n)).reduced for n in (2, 4)] == [False, False]
    assert [restricted_root_system(quasi_split_a(n)).indivisible_count for n in (2, 4)] == [2, 8]


def test_a_triple_of_a_root_is_divisible():
    """G2 with its long simple root compact restricts to {+-1, +-2, +-3}: not
    a root system, and only +-1 is indivisible, as the type A1 says."""
    phi = restricted_root_system(TitsIndex.of(AmbientRootDatum.of([("G", 2)]), [1], []))
    assert phi.support() == {(-3,), (-2,), (-1,), (1,), (2,), (3,)}
    assert (phi.reduced, phi.type_name, phi.indivisible_count) == (False, "A1", 2)


def test_anisotropic_index_has_empty_restriction():
    doc = {
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "C", "rank": 2}]},
        "compact_simple": ["a1", "a2"],
    }
    ix = parse_index(doc)
    assert ix.split == () and ix.restriction == ((), ())
    report, code = cmd_restrict_index(doc)
    assert code == 0
    assert report == {
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
