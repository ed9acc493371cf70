import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagen import (
    cover_edges,
    dominates,
    fan_of_rows,
    flip_matrix,
    no_cone,
    normals_by_inversion,
    per_cone_validate,
    random_convex_data,
    raises_exit_1,
)
from spherindex import fans, linalg
from spherindex.datum import SphericalDatumK
from spherindex.errors import ParseError, SpherindexError, TheoremViolation
from spherindex.fans import (
    Fan,
    FanIssue,
    _pair_intersection_is_face,
    cone_membership,
    faces,
    fan_validate,
    is_complete_for,
    is_smooth,
    standard_fan,
    strata,
    weyl_saturate,
)
from spherindex.index import TitsIndex
from spherindex.linalg import (
    dot,
    find_feasible,
    hermite_normal_form,
    integer_kernel,
    lattice_index,
    primitive_vector,
    rank,
    transpose,
    vec_mat,
)
from spherindex.restrict import restrict_datum
from spherindex.rootsys import AmbientRootDatum, orbit, weyl_order

H = Fraction(1, 2)


def e6_rd():
    ix = TitsIndex.of(
        AmbientRootDatum.of([("E", 6)]), [], [flip_matrix(6, [(0, 5), (2, 4)])]
    )
    d = SphericalDatumK.ambient(ix, [[1, 0, 1, 1, 1, 1], [0, 1, H, 1, H, 0]])
    return d, restrict_datum(d)


def rank1_rd():
    d = SphericalDatumK.abstract(1, [[2]], [], [[1]])
    return d, restrict_datum(d)


def a1a1_rd():
    d = SphericalDatumK.abstract(2, [[2, 0], [0, 2]], [], [[1, 0], [0, 1]])
    return d, restrict_datum(d)


def test_cone_canonical_ordering():
    f = Fan.from_maximal([[[1, 0], [0, 1]]])
    assert f == Fan.from_maximal([[[0, 1], [1, 0]]])
    assert f.rays == ((0, 1), (1, 0)) and f.cones == ((), (0,), (1,), (0, 1))


def test_fan_from_maximal_closes_faces():
    f = Fan.from_maximal([[[1, 0], [0, 1]]])
    dims = sorted(len(c) for c in f.cones)
    assert dims == [0, 1, 1, 2]


def is_overfull(f, c) -> bool:
    """More generators than coordinates: not simplicial, with 2^dim faces."""
    return len(c) > min((len(f.rays[i]) for i in c), default=0)


def closed_under_faces(f) -> bool:
    cones = set(f.cones)
    return all(face in cones for c in f.cones if not is_overfull(f, c) for face in faces(c))


def well_formed(f) -> bool:
    """The ray table is sorted, of distinct rays, each a generator of a cone;
    each cone is a sorted index tuple, and the cones are distinct and sorted by
    dimension, then generators."""
    used = {i for c in f.cones for i in c}
    return (
        list(f.rays) == sorted(set(f.rays))
        and used == set(range(len(f.rays)))
        and all(list(c) == sorted(c) for c in f.cones)
        and len(set(f.cones)) == len(f.cones)
        and list(f.generators) == sorted(f.generators, key=lambda g: (len(g), g))
        and f.generators == tuple(tuple(f.rays[i] for i in c) for c in f.cones)
    )


def test_built_fans_hold_every_face_of_a_cone_that_is_not_overfull(corpus_rds):
    """``fan_validate`` looks for no missing face: each fan it is given comes from
    ``Fan.from_maximal``, and saturation keeps the closure, overfull input included."""
    a2 = split_rd("A", 2)
    overfull = [[1, k] for k in range(6)]
    given = [
        [],
        [[[1, 0], [0, 1]]],
        [overfull, [[-1, 0], [0, -1]]],
        [overfull[:3], overfull[2:5], [[0, -1]]],  # overfull cones that share a generator
        [[[-1, 0], [-1, 0]], [[0, 1]]],  # a repeated generator
    ]
    for gens in given:
        f = Fan.from_maximal(gens)
        sat = weyl_saturate(f, a2, cap=10_000)
        assert closed_under_faces(f) and closed_under_faces(sat)
        assert well_formed(f) and well_formed(sat)
    f = Fan.from_maximal(given[2])
    assert any(is_overfull(f, c) for c in f.cones)
    for rd in corpus_rds[:20]:
        f = standard_fan(rd)
        sat = weyl_saturate(f, rd)
        assert closed_under_faces(f) and closed_under_faces(sat)
        assert well_formed(f) and well_formed(sat)


def test_fan_validate_clean():
    _, rd = e6_rd()
    f = standard_fan(rd)
    assert fan_validate(f, rd) == []


def test_fan_validate_flags_overlap():
    # two 2-dim cones overlapping in a wedge, not in a common face
    f = Fan.from_maximal([[[1, 0], [0, 1]], [[1, 1], [1, -1]]])
    issues = fan_validate(f, no_cone(f))
    assert any(i.kind == "intersection_not_a_face" for i in issues)


def test_fan_validate_flags_primitivity_and_support():
    f = Fan.from_maximal([[[2, 0]]])
    issues = fan_validate(f, no_cone(f))
    assert any(i.kind == "not_primitive" for i in issues)
    _, rd = a1a1_rd()
    g = Fan.from_maximal([[[1, 0]]])  # sigma1 is positive on (1, 0)
    issues2 = fan_validate(g, rd)
    assert any(i.kind == "outside_support" for i in issues2)


def test_standard_fan_counts():
    _, rd1 = rank1_rd()
    assert len(standard_fan(rd1).cones) == 2
    _, rd2 = e6_rd()
    assert len(standard_fan(rd2).cones) == 4
    d3 = SphericalDatumK.abstract(
        3,
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
        [],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )
    rd3 = restrict_datum(d3)
    f3 = standard_fan(rd3)
    assert len(f3.cones) == 8
    from collections import Counter

    assert Counter(len(c) for c in f3.cones) == Counter({0: 1, 1: 3, 2: 3, 3: 1})
    # the faces of the one maximal cone are the cones on the subsets of the rays,
    # in the order of dimension, then generators
    rd0 = restrict_datum(SphericalDatumK.abstract(0, [], [], []))
    for rd in (rd0, rd1, rd2, rd3):
        rays = [primitive_vector(tuple(-x for x in w)) for w in rd.coweights]
        subsets = [tuple(sorted(sub)) for k in range(len(rays) + 1) for sub in combinations(rays, k)]
        f = standard_fan(rd)
        assert f == fan_of_rows(subsets)
        assert f.generators == tuple(sorted(subsets, key=lambda c: (len(c), c)))


def test_standard_fan_requires_convex():
    d = SphericalDatumK.abstract(2, [[2, 0], [0, 2]], [], [[1, 0]])
    with raises_exit_1("^valuation cone is not strictly convex$"):
        standard_fan(restrict_datum(d))


def test_standard_fan_complete():
    for mk in [rank1_rd, e6_rd, a1a1_rd]:
        _, rd = mk()
        f = standard_fan(rd)
        assert is_complete_for(f, rd)


def test_single_ray_not_complete():
    _, rd = a1a1_rd()
    f = Fan.from_maximal([[[-1, 0]]])
    assert not is_complete_for(f, rd)
    # the zero cone alone covers the space of rank 0 only
    zero = Fan.from_maximal([])
    assert not is_complete_for(zero, rd)
    assert is_complete_for(zero, restrict_datum(SphericalDatumK.abstract(0, [], [], [])))


def test_smoothness():
    f = Fan.from_maximal([[[1, 0], [0, 1]]])
    assert all(is_smooth(f))
    g = Fan.from_maximal([[[1, 0], [1, 2]]])
    flags = dict(zip(g.generators, is_smooth(g), strict=True))
    assert flags[((1, 0), (1, 2))] is False
    assert flags[((1, 0),)] is True


def test_wonderful_iff_standard_fan_smooth():
    from spherindex.restrict import predicates

    for mk in [e6_rd, rank1_rd, a1a1_rd]:
        d, rd = mk()
        f = standard_fan(rd)
        assert all(is_smooth(f)) == predicates(d, rd)["k_wonderful"]
    # non-wonderful example: lattice Z, sigma_k = {2}, primitive root 1
    # with the lattice rescaled so sigma_pr does not span
    d2 = SphericalDatumK.abstract(2, [[2, 0], [0, 2]], [], [[1, 1]])
    rd2 = restrict_datum(d2)
    assert len(integer_kernel(rd2.sigma_k, width=rd2.rank)) == 1  # not convex, standard fan refused
    with raises_exit_1("^valuation cone is not strictly convex$"):
        standard_fan(rd2)


def test_strata_standard_fan():
    d, rd = e6_rd()
    f = standard_fan(rd)
    sp = strata(f, rd)
    assert len(sp) == 4
    by_codim = {}
    for c, node in zip(f.cones, sp, strict=True):
        by_codim.setdefault(len(c), []).append(node)
    assert len(by_codim[0]) == 1 and len(by_codim[1]) == 2 and len(by_codim[2]) == 1
    open_node = by_codim[0][0]
    assert open_node.sigma_indices == (0, 1)
    assert len(open_node.lattice_basis) == 2
    assert not open_node.horospherical
    closed = by_codim[2][0]
    assert closed.sigma_indices == ()
    assert closed.lattice_basis == ()
    assert closed.horospherical
    # J-labels of the two facets are the complementary singletons
    labels = sorted(n.sigma_indices for n in by_codim[1])
    assert labels == [(0,), (1,)]


def test_strata_localization_consistency():
    from spherindex.linalg import Lattice
    from spherindex.restrict import localize

    d, rd = e6_rd()
    f = standard_fan(rd)
    sp = strata(f, rd)
    for node in sp:
        loc = localize(rd, node.sigma_indices)
        assert len(loc.xi_basis_in_parent) == len(node.lattice_basis)
        assert Lattice.from_rows(rd.rank, loc.xi_basis_in_parent) == Lattice.from_rows(
            rd.rank, node.lattice_basis
        )
        assert len(loc.roots.vectors) == len(node.sigma_indices)


def test_strata_poset_edges():
    _, rd = e6_rd()
    f = standard_fan(rd)
    sp = strata(f, rd)
    # boolean lattice on 2 atoms: 4 cover relations
    edges = cover_edges(f)
    assert len(edges) == 4
    for i, j in edges:
        assert len(sp[i].lattice_basis) == len(sp[j].lattice_basis) + 1


def test_dominates():
    f = Fan.from_maximal([[[1, 0], [0, 1]]])
    assert dominates(f, f)
    sub = Fan.from_maximal([[[1, 0], [1, 1]], [[1, 1], [0, 1]]])
    assert dominates(sub, f)
    assert not dominates(f, sub)
    trivial = Fan.from_maximal([])
    assert dominates(trivial, f)
    assert not dominates(f, trivial)


def test_cone_membership():
    _, rd = e6_rd()
    assert cone_membership([0, 0], rd)
    assert len(rd.sigma_k) == rd.rank  # strictly convex: the rays of Z_k are minus the coweights
    for w in rd.coweights:
        assert cone_membership(tuple(-x for x in w), rd)
    for s in rd.sigma_k:
        assert not cone_membership(s, rd)


def test_weyl_saturate_a1():
    _, rd = rank1_rd()
    f = standard_fan(rd)
    sat = weyl_saturate(f, rd)
    assert len(sat.cones) == 3  # two rays and the origin


def test_weyl_saturate_b2():
    _, rd = e6_rd()
    f = standard_fan(rd)
    sat = weyl_saturate(f, rd)
    maximal = sat.maximal_cones
    assert len(maximal) == 8
    assert len([c for c in sat.cones if len(c) == 1]) == 8
    assert fan_validate(sat, no_cone(sat)) == []
    # saturation of a complete fan is classically complete
    assert is_complete_for(sat, no_cone(sat))


def test_weyl_saturate_reflection_stable():
    from spherindex.fans import _reflection_on_dual
    from datagen import fvec
    from spherindex.linalg import vec_mat, primitive_vector

    _, rd = e6_rd()
    sat = weyl_saturate(standard_fan(rd), rd)
    for s in rd.sigma_k:
        m = _reflection_on_dual(rd, s)
        imgs = {tuple(sorted(primitive_vector(vec_mat(fvec(g), m)) for g in gens)) for gens in sat.generators}
        assert imgs == set(sat.generators)


def test_weyl_saturate_budget():
    _, rd = e6_rd()
    with raises_exit_1(r"^Weyl saturation reached \d+ cones > cap 3 \(set SPHERINDEX_ORBIT_CAP\)$"):
        weyl_saturate(standard_fan(rd), rd, cap=3)


def test_weyl_saturate_no_roots():
    d = SphericalDatumK.abstract(1, [[2]], [], [])
    rd = restrict_datum(d)
    f = Fan.from_maximal([[[1]], [[-1]]])
    assert weyl_saturate(f, rd) == f


def split_rd(family, n):
    """Split datum whose spherical roots are the simple roots."""
    ix = TitsIndex.of(AmbientRootDatum.of([(family, n)]), [], [])
    d = SphericalDatumK.ambient(ix, [[int(i == j) for j in range(n)] for i in range(n)])
    return restrict_datum(d)


def chamber_fan(rd):
    return weyl_saturate(standard_fan(rd), rd)


@pytest.fixture(scope="module")
def corpus_rds():
    return [restrict_datum(d) for d in random_convex_data(826, 100)]


def all_pairs_issues(f):
    """fan_validate(f, no_cone(f)) with the intersection check run over every pair of cones."""
    issues = [i for i in fan_validate(f, no_cone(f)) if i.kind != "intersection_not_a_face"]
    if any(i.kind in ("not_simplicial", "zero_generator") for i in issues):
        return issues
    return issues + [
        FanIssue("intersection_not_a_face", f"{g1} vs {g2}")
        for (c1, g1), (c2, g2) in combinations(zip(f.cones, f.generators), 2)
        if not _pair_intersection_is_face(f.rays, c1, c2)
    ]


def swap_in_overlap(f):
    """f with one maximal cone F + {p} swapped for (F - {g}) + {p, g + q},
    where F + {q} is a neighbouring maximal cone: g + q lies in the
    neighbour but outside the face the two cones share."""
    maximal = [tuple(f.rays[i] for i in c) for c in f.maximal_cones]
    for s, t in combinations(maximal, 2):
        common = set(s) & set(t)
        if len(common) != len(s) - 1:
            continue
        (q,) = set(t) - common
        for g in sorted(common):
            gens = [h for h in s if h != g]
            gens.append(primitive_vector([a + b for a, b in zip(g, q)]))
            if rank(gens) == len(gens):
                return Fan.from_maximal([gens if c == s else c for c in maximal])
    raise AssertionError("no neighbouring maximal cones")


def test_fan_validate_matches_all_pairs_oracle(corpus_rds):
    chambers = [chamber_fan(split_rd(fam, n)) for fam, n in [("A", 2), ("B", 2), ("A", 3)]]
    for f in chambers:
        assert fan_validate(f, no_cone(f)) == all_pairs_issues(f) == []
    for rd in corpus_rds:
        f = standard_fan(rd)
        assert fan_validate(f, no_cone(f)) == all_pairs_issues(f) == []
    for f in chambers + [chamber_fan(e6_rd()[1])]:
        broken = swap_in_overlap(f)
        issues = fan_validate(broken, no_cone(broken))
        assert any(i.kind == "intersection_not_a_face" for i in issues)
        assert issues == all_pairs_issues(broken)


def test_maximal_cones_and_strata_edges_match_brute_force(corpus_rds):
    """The facet relation gives the same maximal cones and cover edges as
    comparing every pair of cones."""
    rds = [split_rd("A", 2), split_rd("B", 2), split_rd("A", 3), e6_rd()[1]]
    chambers = [(rd, chamber_fan(rd)) for rd in rds]
    cases = chambers + [(rd, swap_in_overlap(f)) for rd, f in chambers]
    cases += [(rd, standard_fan(rd)) for rd in corpus_rds]
    for rd, f in cases:
        gens = [set(c) for c in f.cones]
        assert f.maximal_cones == tuple(
            c for c, g in zip(f.cones, gens) if not any(g < h for h in gens)
        )
        assert cover_edges(f) == tuple(
            (i, j)
            for i, a in enumerate(f.cones)
            for j, b in enumerate(f.cones)
            if len(a) + 1 == len(b) and gens[i] < gens[j]
        )


def test_fan_lp_counts(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return find_feasible(*args, **kwargs)

    rd6 = split_rd("A", 6)
    f6 = standard_fan(rd6)
    a3 = chamber_fan(split_rd("A", 3))
    monkeypatch.setattr(fans, "find_feasible", counting)
    assert fan_validate(f6, rd6) == []
    strata(f6, rd6)
    assert len(calls) == 0
    assert fan_validate(a3, no_cone(a3)) == []
    assert len(calls) == 0  # the walls pair up: no LP on the 24 chambers
    rd4 = split_rd("A", 4)
    a4 = chamber_fan(rd4)
    assert len(a4.cones) == 541
    assert fan_validate(a4, no_cone(a4)) == []
    assert len(calls) == 0
    assert is_complete_for(a4, no_cone(a4))


PENTAGRAM = [(1, 0), (-4, 3), (3, -5), (1, 5), (-5, -3)]


def cycle_fan(rays, apexes=()):
    """Cones on consecutive rays of a cycle, or their joins with each apex."""
    pairs = [[a, b] for a, b in zip(rays, rays[1:] + rays[:1])]
    if not apexes:
        return Fan.from_maximal(pairs)
    return Fan.from_maximal([p + [apex] for p in pairs for apex in apexes])


def test_paired_walls_that_do_not_make_a_fan_reach_the_lp_path(monkeypatch):
    """Every wall lies in two cones, yet the cones cover the space twice, the
    generic point lies on a wall, or two cones fold onto one side of a wall:
    the LP path decides."""
    lps = []

    def counting(*args, **kwargs):
        lps.append(kwargs)
        return find_feasible(*args, **kwargs)

    monkeypatch.setattr(fans, "find_feasible", counting)
    pentagram = cycle_fan(PENTAGRAM)
    suspension = cycle_fan([(x, y, 0) for x, y in PENTAGRAM], apexes=[(0, 0, 1), (0, 0, -1)])
    # the first cone's generators sum to (-4, -4), on the ray (-1, -1) of
    # the second sheet: without the wall test the point would count once
    on_a_wall = cycle_fan([(-3, 1), (-1, -5), (2, 5), (-1, -1), (2, 1)])
    assert tuple(map(sum, zip(*(on_a_wall.rays[i] for i in on_a_wall.maximal_cones[0])))) == (-4, -4)
    # the walls (1, 1) and (2, 1) have both their cones on one side, and the
    # first cone's point (-1, 0) lies in that cone only
    folded = cycle_fan([(0, -1), (1, 1), (2, 1), (-1, 1)])
    for f in (pentagram, suspension, on_a_wall, folded):
        assert all(len(cs) == 2 for cs in f.walls.values())
        lps.clear()
        issues = fan_validate(f, no_cone(f))
        assert lps
        assert any(i.kind == "intersection_not_a_face" for i in issues)
        assert issues == all_pairs_issues(f)


def bfs_saturate(f, rd, cap=None):
    """The orbit of every cone under the reflections, one image at a time,
    with the reflections in Fractions."""
    if cap is None:
        cap = weyl_order(rd.roots.types) * max(len(f.cones), 1)
    limit = min(cap, fans.HARD_ORBIT_CEILING)
    hint = f"{cap} clamped to HARD_ORBIT_CEILING" if cap > limit else f"set {fans.ORBIT_CAP_ENV}"
    refl = []
    for s in rd.sigma_k:
        fs = vec_mat(s, rd.form_k)
        ss = dot(fs, s)
        refl.append([[Fraction(int(i == j)) - Fraction(2 * s[i] * fs[j], ss)
                      for j in range(rd.rank)] for i in range(rd.rank)])
    seen = set(f.generators)
    frontier = list(f.generators)
    while frontier:
        nxt = []
        for c in frontier:
            for m in refl:
                img = tuple(sorted(primitive_vector(vec_mat(g, m)) for g in c))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
                    if len(seen) > limit:
                        raise SpherindexError(
                            f"Weyl saturation reached {len(seen)} cones > cap {limit} ({hint})"
                        )
        frontier = nxt
    return fan_of_rows(seen)


def outcome(saturate, f, rd, cap=None):
    try:
        return saturate(f, rd, cap)
    except SpherindexError as e:  # the cap message, which exits 1
        assert not isinstance(e, (ParseError, TheoremViolation)), repr(e)
        return str(e)


def test_weyl_saturate_matches_the_bfs_orbit():
    rds = [rank1_rd()[1], split_rd("A", 2), e6_rd()[1], split_rd("A", 3), split_rd("A", 4)]
    for rd in rds:
        f = standard_fan(rd)
        assert weyl_saturate(f, rd) == bfs_saturate(f, rd)
    _, e6 = e6_rd()  # 17 cones in the orbit
    f = standard_fan(e6)
    for cap in [1, 3, 4, 5, 16, 17, 18, 10**6]:
        assert outcome(weyl_saturate, f, e6, cap) == outcome(bfs_saturate, f, e6, cap)
    assert outcome(weyl_saturate, f, e6, 16) == (
        "Weyl saturation reached 17 cones > cap 16 (set SPHERINDEX_ORBIT_CAP)"
    )
    sat = bfs_saturate(f, e6)
    assert outcome(weyl_saturate, sat, e6, 3) == outcome(bfs_saturate, sat, e6, 3) == sat


def all_faces_saturate(f, rd, cap):
    """weyl_saturate testing every face of every image against the set."""
    limit = min(cap, fans.HARD_ORBIT_CEILING)
    refl = [fans._reflection_on_dual(rd, s) for s in rd.sigma_k]

    def images(c):
        return [tuple(sorted(primitive_vector(vec_mat(g, m)) for g in c)) for m in refl]

    cones = set(f.generators)
    for img in orbit([tuple(f.rays[i] for i in c) for c in f.maximal_cones], images):
        for face in fans.faces(img):
            if face not in cones:
                cones.add(face)
                if len(cones) > limit:
                    raise SpherindexError(
                        f"Weyl saturation reached {len(cones)} cones > cap {limit} (set {fans.ORBIT_CAP_ENV})"
                    )
    return fan_of_rows(cones)


def test_weyl_saturate_walks_facets_down_only_from_new_cones(monkeypatch):
    """A cone already in the set has all its faces there, so the facet walk stops
    at it; an overfull cone is not closed under faces, so its images keep the face
    loop.  The result and the cap message are those of the all-faces loop at every
    cap, and fewer faces are built: each face is a subset that ``fans.combinations``
    yields, counted for each loop."""
    a3, e6 = split_rd("A", 3), e6_rd()[1]
    overfull = Fan.from_maximal([[[-1, 0], [0, -1], [-1, -1]], [[1, 1]]])
    for f, rd in ((standard_fan(a3), a3), (overfull, e6), (Fan.from_maximal([[[-1, 0]]]), e6)):
        size = len(all_faces_saturate(f, rd, 10**6).cones)
        for cap in range(1, size + 2):
            assert outcome(weyl_saturate, f, rd, cap) == outcome(all_faces_saturate, f, rd, cap)
    built = Counter()

    def counting(c, k):
        for sub in combinations(c, k):
            built[caller] += 1
            yield sub

    a4 = split_rd("A", 4)
    std = standard_fan(a4)
    assert len(std.maximal_cones) == 1
    monkeypatch.setattr(fans, "combinations", counting)
    for caller in (weyl_saturate, all_faces_saturate):
        assert len(caller(std, a4, 10**6).cones) == 541
    assert 0 < built[weyl_saturate] < built[all_faces_saturate]


def lp_meets_interior(gens, rd):
    """The plain LP: some point of the cone on ``gens`` has every root <= -1."""
    if not rd.sigma_k:
        return True
    if not gens:
        return False
    n = len(gens)
    a_ub = [[dot(s, g) for g in gens] for s in rd.sigma_k]
    a_ub += [[-int(i == j) for j in range(n)] for i in range(n)]
    b_ub = [-1] * len(rd.sigma_k) + [0] * n
    return find_feasible(a_ub=a_ub, b_ub=b_ub, nvars=n) is not None


def test_strata_sign_certificates_match_lp(corpus_rds):
    """On fans in W_k.Z_k, the only fans the CLI hands to strata, the sign masks
    decide what the LP decides: standard fans, chamber fans, and the Weyl
    orbits of the faces of standard fans."""
    _, e6 = e6_rd()  # the datum of fixtures/e6.json, little root system B2
    small = [e6, split_rd("A", 3), split_rd("G", 2)]
    cases = [(standard_fan(rd), rd) for rd in corpus_rds]
    cases += [(chamber_fan(rd), rd) for rd in small]
    cases += [
        (weyl_saturate(Fan.from_maximal([[f.rays[i] for i in c]]), rd), rd)
        for rd in small
        for f in [standard_fan(rd)]
        for c in f.cones
        if 0 < len(c) < rd.rank
    ]
    flags = set()
    for f, rd in cases:
        for gens, node in zip(f.generators, strata(f, rd), strict=True):
            assert node.horospherical == lp_meets_interior(gens, rd)
            flags.add(node.horospherical)
    assert flags == {True, False}


def counted_eliminations(monkeypatch) -> list:
    """The matrices that ``linalg._eliminate`` is given from now on."""
    calls, eliminate = [], linalg._eliminate

    def counting(m, k):
        calls.append(m)
        return eliminate(m, k)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    return calls


@pytest.mark.parametrize(
    "make, chambers, issues",
    [(lambda: split_rd("A", 3), 24, 132), (lambda: e6_rd()[1], 8, 18)],
    ids=["split-A3", "e6-B2"],
)
def test_fan_validate_runs_one_elimination_per_component_of_the_wall_graph(monkeypatch, make, chambers, issues):
    """A square maximal cone that ``Fan.normals`` inverts is independent, so
    ``fan_validate`` runs no rank on it, and ``Fan.normals`` inverts one chamber
    and crosses the walls to the others: one elimination on the 24 chambers of
    split A3, with the 132 issues, and one on the 8 chambers of the B2 fan of
    fixtures/e6.json, with its 18."""
    rd = make()
    f = chamber_fan(rd)
    calls = counted_eliminations(monkeypatch)
    assert len(fan_validate(f, rd)) == issues
    assert len(f.maximal_cones) == chambers and len(calls) == 1


def test_outside_support_detail_text_of_a3_chamber_fan():
    """The detail prints each root as a tuple of Fractions, whatever type the
    root has: reports that pinned this text stay byte-identical."""
    rd = split_rd("A", 3)
    details = [i.detail for i in fan_validate(chamber_fan(rd), rd)]
    assert len(details) == 132
    assert details[0] == (
        "generator (-1, 0, 1) violates (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))"
    )
    digest = hashlib.sha256("\n".join(details).encode()).hexdigest()
    assert digest == "054ed1079d6853976aa58fbddfc7b9a25276aab9f025e53a7e262832a952858b"


def test_fan_validate_matches_the_per_cone_walk(corpus_rds):
    """Generators tested once each and independence on the maximal cones
    only give the issues of the walk over every cone, in its order."""
    for rd in corpus_rds:
        f = standard_fan(rd)
        assert fan_validate(f, rd) == per_cone_validate(f, rd) == []
    a2, a3 = split_rd("A", 2), split_rd("A", 3)
    _, e6 = e6_rd()  # the datum of fixtures/e6.json: Z_k is the negative quadrant
    quadrants = [[[1, 0], [0, -1]], [[0, -1], [-1, 0]], [[-1, 0], [0, 1]], [[0, 1], [1, 0]]]
    planted = [
        (chamber_fan(a3), a3, "outside_support", 132),
        (Fan.from_maximal([[[0, 0], [-1, 0]], [[-1, 0], [0, -1]]]), e6, "zero_generator", 2),
        (Fan.from_maximal([[[-2, 0], [0, -1]], [[0, -1], [1, -3]]]), e6, "not_primitive", 2),
        # every pair of the three generators is independent
        (Fan.from_maximal([[[-1, 0, 0], [0, -1, 0], [-1, -1, 0]]]), a3, "not_simplicial", 1),
        (Fan.from_maximal([[[-1, -k] for k in range(12)], [[0, -1], [1, 0]]]), e6, "not_simplicial", 1),
        # a repeated generator is kept, so the cone is dependent
        (Fan.from_maximal([[[-1, 0], [-1, 0]]]), e6, "not_simplicial", 1),
        # (1, 0) and (0, 1) leave Z_k, each a generator of three cones
        (Fan.from_maximal(quadrants), e6, "outside_support", 6),
    ]
    for f, rd, kind, count in planted:
        issues = fan_validate(f, rd)
        assert Counter(i.kind for i in issues)[kind] == count
        assert issues == per_cone_validate(f, rd)
        assert fan_validate(f, no_cone(f)) == per_cone_validate(f, no_cone(f))


def test_smoothness_and_strata_match_lattice_index_and_integer_kernel(corpus_rds):
    """Faces of a unimodular full-dimensional maximal cone inherit smoothness
    and read their kernel off its inverse; every other cone computes both."""
    _, e6 = e6_rd()
    non_unimodular = Fan.from_maximal([[[1, 0], [1, 2]]])  # index 2
    single_ray = Fan.from_maximal([[[1, 0]]])  # a maximal cone of dimension 1
    mixed = Fan.from_maximal([[[1, 0], [0, 1]], [[0, 1], [-2, -1]]])  # index 1 and 2
    cases = [(standard_fan(rd), rd) for rd in corpus_rds]
    cases += [(non_unimodular, e6), (single_ray, e6), (mixed, e6)]
    for f, rd in cases:
        for gens, flag, node in zip(f.generators, is_smooth(f), strata(f, rd), strict=True):
            assert flag == (lattice_index(transpose(gens), len(gens)) == 1)
            assert node.lattice_basis == integer_kernel(gens, width=rd.rank)
    assert non_unimodular.unimodular_home == single_ray.unimodular_home == {}
    assert (mixed.rays.index((-2, -1)),) not in mixed.unimodular_home
    assert (mixed.rays.index((0, 1)),) in mixed.unimodular_home
    assert not is_smooth(non_unimodular)[non_unimodular.cones.index(non_unimodular.maximal_cones[0])]
    # the corpus reaches both branches: some standard fans are not smooth
    assert {c in f.unimodular_home for f, _ in cases[:-3] for c in f.cones} == {True, False}


def test_fan_engine_runs_each_check_once_per_maximal_cone_or_ray(monkeypatch):
    """A walk over every cone makes 63/192/64/64 calls of rank,
    primitive_vector, lattice_index and integer_kernel on the standard fan of
    split A6, and 540/1,530/541/541 on the A4 chamber fan."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    rd6, rd4 = split_rd("A", 6), split_rd("A", 4)
    a6, a4 = standard_fan(rd6), chamber_fan(rd4)
    assert (len(a6.cones), len(a6.maximal_cones)) == (64, 1)
    assert (len(a4.cones), len(a4.maximal_cones)) == (541, 120)
    for name in ("rank", "primitive_vector", "lattice_index", "integer_kernel"):
        monkeypatch.setattr(fans, name, counting(name, getattr(fans, name)))
    for f, rd, zk in [(a6, rd6, rd6), (a4, rd4, no_cone(a4))]:
        rays = len({g for gens in f.generators for g in gens})
        calls.clear()
        assert fan_validate(f, zk) == []
        assert calls["rank"] <= len(f.maximal_cones) and calls["primitive_vector"] <= rays
        calls.clear()
        assert all(is_smooth(f))
        assert calls["lattice_index"] <= len(f.maximal_cones)
        calls.clear()
        strata(f, rd)
        assert calls["integer_kernel"] == 0


def test_strata_run_at_most_one_hermite_form_per_cone(monkeypatch, corpus_rds):
    """A cone in a unimodular home reduces the duals of the generators it misses
    once; any other cone runs ``integer_kernel``, which reduces [C^T | I] once."""
    calls = []

    def counting(m):
        calls.append(m)
        return hermite_normal_form(m)

    _, e6 = e6_rd()
    a4 = split_rd("A", 4)
    non_unimodular = Fan.from_maximal([[[1, 0], [1, 2]]])  # no cone has a home
    mixed = Fan.from_maximal([[[1, 0], [0, 1]], [[0, 1], [-2, -1]]])
    cases = [(standard_fan(rd), rd) for rd in corpus_rds] + [(chamber_fan(a4), a4), (non_unimodular, e6), (mixed, e6)]
    monkeypatch.setattr(fans, "hermite_normal_form", counting)
    monkeypatch.setattr(linalg, "hermite_normal_form", counting)
    for f, rd in cases:
        calls.clear()
        strata(f, rd)
        assert len(calls) <= len(f.cones)
    assert len(calls) == len(mixed.cones)
    calls.clear()
    strata(non_unimodular, e6)
    # the zero cone's kernel is the whole lattice, which needs no Hermite form
    assert len(calls) == len(non_unimodular.cones) - 1 == 3


def test_strata_share_one_object_per_distinct_basis_row():
    """The JSON writer formats each row object of a column once, so equal
    rows of the lattice bases must be one object."""
    rd = split_rd("A", 6)
    rows = [row for node in strata(standard_fan(rd), rd) for row in node.lattice_basis]
    assert len({*map(id, rows)}) == len({*rows}) < len(rows)


def fubini(n):
    """The ordered set partitions of n elements (OEIS A000670), by the recurrence
    a(m) = sum over k >= 1 of C(m, k) a(m - k), a(0) = 1."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_saturated_standard_fans_of_split_a_are_the_braid_fans():
    """The Weyl saturation of the standard fan of split A_n is the braid fan: a
    cone per ordered set partition of n + 1 elements and a chamber per ordering,
    every cone smooth, and the fan complete."""
    assert [fubini(n + 1) for n in range(1, 6)] == [3, 13, 75, 541, 4683]
    for n in range(1, 6):
        rd = split_rd("A", n)
        f = chamber_fan(rd)
        assert len(f.cones) == fubini(n + 1)
        assert len(f.maximal_cones) == factorial(n + 1)
        assert all(is_smooth(f))
        assert fan_validate(f, no_cone(f)) == []
        assert is_complete_for(f, no_cone(f))


def same_normals(f) -> bool:
    """``Fan.normals`` has the entries of one inversion per cone, in their order."""
    return list(f.normals.items()) == list(normals_by_inversion(f).items())


@pytest.mark.parametrize("family, n", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("G", 2)])
def test_normals_of_standard_and_chamber_fans_match_one_inversion_per_cone(family, n):
    """The walk over the walls gives each chamber the scaled inverse of its
    generators, and so it does on the standard fan, a single cone."""
    rd = split_rd(family, n)
    for f in (standard_fan(rd), chamber_fan(rd)):
        assert same_normals(f)


@st.composite
def drawn_cones(draw):
    """Maximal cones drawn as n-subsets of a few distinct rays of rank 2 or 3
    with entries in [-3, 3]: cones of |det| > 1, overlapping neighbours, walls
    of three cones or more, singular cones and wall graphs of several components."""
    n = draw(st.sampled_from([2, 3]))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n, max_size=n + 4, unique=True))
    subsets = list(combinations(rays, n))
    return Fan.from_maximal(draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=12, unique=True)))


@settings(max_examples=300, deadline=None)
@given(drawn_cones())
def test_normals_of_drawn_fans_match_one_inversion_per_cone(f):
    assert same_normals(f)


# each case: the maximal cones, and the eliminations that ``Fan.normals`` runs,
# one per cone that no walk from an invertible cone before it reaches
WALKS = {
    # consecutive rays around the origin: a complete fan of indices 3, 7, 5, 8 and 2
    "complete-rank-2": ([[[1, 0], [1, 3]], [[1, 3], [-2, 1]], [[-2, 1], [-1, -2]], [[-1, -2], [3, -2]], [[3, -2], [1, 0]]], 1),
    # (1, 1) lies in the first cone: across the wall (1, 0), t_i > 0
    "overlap": ([[[1, 0], [0, 1]], [[1, 0], [1, 1]], [[1, 1], [1, 2]]], 1),
    # the middle cone is singular (t_i = 0): the walk stops there, and the last
    # cone, whose only shared wall is with it, is inverted on its own
    "singular": ([[[-1, 0], [-1, 1]], [[-1, 1], [1, -1]], [[1, -1], [1, 0]]], 2),
    "two-components": ([[[1, 0], [1, 1]], [[1, 1], [0, 1]], [[-1, 0], [-1, -2]], [[-1, -2], [0, -1]]], 2),
    # three maximal cones on the wall cone((1, 0, 0), (0, 1, 0)), one of index 3
    "three-on-a-wall": (
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, -1]], [[1, 0, 0], [0, 1, 0], [1, 2, 3]]],
        1,
    ),
}


@pytest.mark.parametrize("cones, eliminations", WALKS.values(), ids=WALKS)
def test_normals_walk_inverts_one_cone_per_component(monkeypatch, cones, eliminations):
    f = Fan.from_maximal(cones)
    calls = counted_eliminations(monkeypatch)
    normals = f.normals
    assert len(calls) == eliminations
    monkeypatch.undo()
    assert list(normals.items()) == list(normals_by_inversion(f).items())
