"""End-to-end acceptance suite.

Each test covers one acceptance criterion, all in exact rational
arithmetic, and prints a single PASS line on success (a failed assertion
marks the criterion FAIL via pytest).  Randomized cases come from the
seeded geometric generators in datagen.
"""

from datagen import (
    cover_edges,
    divisor_scan_indivisible,
    e6_datum,
    facet_inheritance_by_rank,
    flip_matrix,
    fmat,
    fvec,
    little_space,
    no_cone,
    random_convex_data,
    random_data,
    solve_left,
    sp42_datum,
    to_abstract,
    u11_datum,
)
from spherindex.datum import SphericalDatumK, is_valid, validate
from spherindex.degeneration import (
    build_degeneration,
    degeneration_fiber_data,
)
from spherindex.fans import (
    Fan,
    faces,
    fan_validate,
    is_complete_for,
    is_smooth,
    standard_fan,
    strata,
    weyl_saturate,
)
from spherindex.index import TitsIndex, res_A, restricted_simple_roots
from spherindex.linalg import Lattice, content, dot, lattice_index, primitive_vector, rank, transpose, vec_mat
from spherindex.restrict import (
    aut_roots,
    chamber_containment_check,
    coweight_identity_check,
    localize,
    phi_k_res,
    predicates,
    restrict_datum,
)
from spherindex.rootsys import AmbientRootDatum, RootBase, generate_roots, type_name_of


def su22_datum():
    r = 3
    ix = TitsIndex.of(
        AmbientRootDatum.of([("A", r)]), [], [flip_matrix(r, [(0, 2)])]
    )
    return SphericalDatumK.ambient(
        ix, [[1] * r], xi_rows=[[int(i == j) for j in range(r)] for i in range(r)]
    )


def split_a3_datum():
    # rank-3 convex wonderful datum for the stratification suite
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [], [])
    return SphericalDatumK.ambient(ix, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


FIXTURES = [sp42_datum, e6_datum, su22_datum, u11_datum, split_a3_datum]


def passed(n, text):
    print(f"CRITERION {n}: PASS - {text}")


def beta_coords(d, rows):
    srs = restricted_simple_roots(d.index)
    return [tuple(solve_left(srs.roots, res_A(d.index, r))) for r in rows]


def test_criterion_1_sp42():
    d = sp42_datum()
    base = RootBase.from_vectors(d.sigma, d.pairing)
    assert base.components == (("G", 2, (1, 0)),)  # sigma_1 sits at the long slot
    rd = restrict_datum(d)
    assert rd.sigma_k == ((1,),)
    assert rd.fibers == ((1,),)
    rr = phi_k_res(d, rd, generate_roots(rd.roots))
    pos = {r for r, _ in rr.multiplicities if r[0] > 0}
    sbar = rd.sigma_k[0]
    assert pos == {sbar, (2 * sbar[0],), (3 * sbar[0],)}
    assert set(generate_roots(rd.roots)) == {(1,), (-1,)}
    passed(1, "Sp(4,2): G2 with long sigma_1, phi-res {1,2,3}, phi_k {+-1}")


def test_criterion_2_e6():
    d = e6_datum()
    names = d.index.ambient.root_names()
    srs = restricted_simple_roots(d.index)
    fibs = [tuple(names[i] for i in f) for f in srs.fibers]
    assert fibs[2] == ("a3", "a5") and fibs[3] == ("a1", "a6")
    assert type_name_of(srs.types) == "F4"
    assert beta_coords(d, d.sigma_input) == [(0, 1, 2, 2), (1, 1, 1, 0)]
    rd = restrict_datum(d)
    assert rd.roots.types == (("B", 2),)
    passed(2, "E6/EII: F4 fibers, sigma-bars b2+2b3+2b4 and b1+b2+b3, type B2")


def test_criterion_3_su22():
    d = su22_datum()
    assert beta_coords(d, d.sigma_input) == [(2, 1)]
    passed(3, "SU(2,2): sigma-bar = 2b1 + b2")


def test_criterion_4_u11():
    rd = restrict_datum(u11_datum())
    assert rd.rank == 1
    assert rd.sigma_k == ((2,),)
    assert tuple(map(primitive_vector, rd.sigma_k)) == ((1,),)
    assert tuple(map(content, rd.sigma_k)) == (2,)
    passed(4, "U(1,1): Xi_k = Z, sigma-bar = 2, primitive part 1, n = 2")


def _structure_suite(d):
    items = validate(d)
    assert is_valid(items)
    rd = restrict_datum(d)
    assert all(content(s) in (1, 2) for s in rd.sigma_k)
    if rd.sigma_k:
        assert rank(fmat(rd.sigma_k)) == len(rd.sigma_k)
    for fib in rd.fibers:  # res-fibers are exactly the star orbits
        assert tuple(sorted(fib)) == d.star_orbit_of_root(fib[0])
    f = fmat(rd.form_k)
    for s in generate_roots(rd.roots):  # weight-lattice integrality against phi_k coroots
        sf = vec_mat(fvec(s), f)
        ss = dot(sf, fvec(s))
        for j in range(rd.rank):
            chi = fvec([int(j == t) for t in range(rd.rank)])
            assert (2 * dot(sf, chi) / ss).denominator == 1
    coweight_identity_check(d, rd)
    facet_inheritance_by_rank(d, rd)
    chamber_containment_check(d, rd)
    return rd


def test_criterion_5_structure_suite():
    data = [f() for f in FIXTURES]
    data += random_data(20260826, 100)
    abstracts = 0
    for d in data:
        _structure_suite(d)
        if d.index is not None:
            da = to_abstract(d)
            _structure_suite(da)
            abstracts += 1
    assert len(data) == 105
    passed(5, f"structure identities on {len(data)} data plus {abstracts} abstract twins")


def test_criterion_6_standard_embedding():
    cases = 0
    for d in [sp42_datum(), e6_datum(), u11_datum(), split_a3_datum()]:
        rd = restrict_datum(d)
        r = rd.rank
        assert r in (1, 2, 3) and len(rd.sigma_k) == r
        f = standard_fan(rd)
        sp = strata(f, rd)
        assert len(sp) == 2**r  # boolean lattice of subsets of Sigma_k
        seen = set()
        for cone, node in zip(f.cones, sp, strict=True):
            assert len(cone) == r - len(node.sigma_indices)
            assert len(node.lattice_basis) == r - len(cone)
            seen.add(node.sigma_indices)
        assert len(seen) == 2**r
        assert len(cover_edges(f)) == r * 2 ** (r - 1)
        for cone, node in zip(f.cones, sp, strict=True):  # localization agrees node by node
            loc = localize(rd, node.sigma_indices)
            assert len(loc.xi_basis_in_parent) == r - len(cone)
            assert Lattice.from_rows(r, loc.xi_basis_in_parent) == Lattice.from_rows(
                r, node.lattice_basis
            )
            assert loc.sigma_k_indices == node.sigma_indices
        cases += 1
    passed(6, f"boolean strata and localization agreement on {cases} convex data")


def test_criterion_7_wonderful_equivalence():
    data = [f() for f in FIXTURES if f is not su22_datum]
    data += random_convex_data(826, 100)
    for d in data:
        rd = restrict_datum(d)
        assert len(rd.sigma_k) == rd.rank
        smooth = all(is_smooth(standard_fan(rd)))
        assert smooth == predicates(d, rd)["k_wonderful"]
        if rd.sigma_k:
            gamma = Lattice.from_rows(rd.rank, tuple(map(primitive_vector, rd.sigma_k)))
            a = aut_roots(rd, gamma)
            assert all(n in (1, 2) for n in a.n_aut)
            # the quotient roots are a basis of gamma: the quotient is wonderful
            assert Lattice.from_rows(rd.rank, a.roots) == gamma
    passed(7, f"smooth standard fan iff wonderful on {len(data)} convex data")


def test_criterion_8_fan_engine():
    rd = restrict_datum(e6_datum())
    f = weyl_saturate(standard_fan(rd), rd)
    maximal = [c for c in f.cones if len(c) == 2]
    assert len(maximal) == 8
    assert not fan_validate(f, no_cone(f))  # a complete fan leaves the support of Z_k
    assert is_complete_for(f, rd)
    smaller = Fan.from_maximal(
        [[f.rays[i] for i in c] for c in maximal[:-1]]
    )
    assert not is_complete_for(smaller, rd)
    overlap = Fan.from_maximal([[[1, 0], [0, 1]], [[1, 1], [1, -1]]])
    kinds = {i.kind for i in fan_validate(overlap, no_cone(overlap))}
    assert "intersection_not_a_face" in kinds
    passed(8, "B2 saturation has 8 chambers, wall criterion and face check work")


def test_criterion_9_degeneration():
    dd = build_degeneration(Lattice.standard(1), [[2]])
    assert dd.xiZ.rank == 2
    assert lattice_index(dd.xiZ.basis, 2) == 2
    for d in [e6_datum()]:
        rd = restrict_datum(d)
        assert rd.rank == 2
        ddd = build_degeneration(Lattice.standard(2), rd.sigma_k)
        sets = set()
        for face in faces(ddd.c_bd):
            data = degeneration_fiber_data(ddd, face)
            sets.add(frozenset(tuple(s) for s in data["sigma_fiber"]))
        assert len(sets) == 4  # all subsets of Sigma appear as fiber roots
    passed(9, "index-2 lattice with exact sequence, 4 fiber root subsets in rank 2")


def _brute_force_little_roots(d, rd):
    """Restrict the whole big root system, then keep the indivisible part."""
    base = RootBase.from_vectors(d.sigma, d.pairing)
    big = generate_roots(base)
    restricted = set()
    nk = little_space(d)
    l_basis = Lattice.from_rows(rd.rank, transpose(nk)).basis
    for r in big:
        raw = tuple(dot(fvec(r), fvec(v)) for v in nk)
        if any(raw):
            restricted.add(tuple(solve_left(l_basis, raw)))
    out = set()
    for r in restricted:
        if all(
            tuple(x / n for x in r) not in restricted
            for n in range(2, max(abs(x.numerator) for x in r if x) + 1)
        ):
            out.add(r)
    return out


def test_criterion_10_oracle_equivalence():
    data = [f() for f in FIXTURES]
    data += random_data(20260826, 100)
    for d in data:
        rd = restrict_datum(d)
        assert set(generate_roots(rd.roots)) == _brute_force_little_roots(d, rd)
    passed(
        10, f"reflection-generated phi_k equals brute-force indivisible part on {len(data)} data"
    )


def test_phi_k_res_reducedness_matches_the_divisor_scan():
    """The restricted roots of sp42 are {+-1, +-2, +-3} times a root: a triple
    is divisible too, so the rule is not the halving test of a root system."""
    for d in [f() for f in FIXTURES] + random_data(20260826, 100):
        rd = restrict_datum(d)
        phi_k = generate_roots(rd.roots)
        rr = phi_k_res(d, rd, phi_k)
        support = {r for r, _ in rr.multiplicities}
        indivisible = divisor_scan_indivisible(support)
        assert set(phi_k) == indivisible  # phi_k_res checks its indivisible part against phi_k
        assert rr.reduced == (indivisible == support)
