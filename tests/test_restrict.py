import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from sympy import Matrix, Rational, eye

from datagen import (
    FACET_PLANTS,
    dual_basis,
    e6_datum,
    facet_inheritance_by_rank,
    flip_matrix,
    fmat,
    little_space,
    load_tool,
    phi_k_res_by_lattice,
    raises_exit_1,
    random_data,
    replace,
    solve,
    solve_left,
    sp42_datum,
    u11_datum,
)
from spherindex import cli, linalg, restrict
from spherindex.cli import parse_datum
from spherindex.datum import SphericalDatumK, is_valid, validate
from spherindex.errors import SpherindexError, TheoremViolation
from spherindex.index import TitsIndex, restricted_root_system
from spherindex.linalg import (
    Lattice,
    augmented_hermite_form,
    content,
    divide,
    dot,
    gram,
    identity,
    integer_kernel,
    primitive_vector,
    scaled_dual_basis,
    transpose,
    vec_mat,
)
from spherindex.restrict import (
    _annihilator,
    _project,
    aut_roots,
    chamber_containment_check,
    coweight_identity_check,
    localize,
    phi_k_res,
    predicates,
    restrict_datum,
)
from spherindex.rootsys import (
    AmbientRootDatum,
    RootBase,
    generate_roots,
    indivisible_roots,
    type_name_of,
    weyl_order,
)

H = Fraction(1, 2)


def transported_form(rd):
    """The form that the datum's pairing transports to the little weight
    lattice: ``form_k`` is lifts_den^2 times it."""
    return divide(rd.form_k, rd.lifts_den**2)


def su_nn_datum(n):
    # type A_{2n-1}, diagram flip, single spherical root a1 + ... + a_{2n-1};
    # the weight lattice is the full ambient root lattice
    r = 2 * n - 1
    ix = TitsIndex.of(
        AmbientRootDatum.of([("A", r)]),
        [],
        [flip_matrix(r, [(i, r - 1 - i) for i in range(n - 1)])],
    )
    return SphericalDatumK.ambient(
        ix, [[1] * r], xi_rows=[[int(i == j) for j in range(r)] for i in range(r)]
    )


def split_datum(fam, n, sigma_rows):
    ix = TitsIndex.of(AmbientRootDatum.of([(fam, n)]), [], [])
    return SphericalDatumK.ambient(ix, sigma_rows)


def test_little_space_dimensions():
    assert len(little_space(sp42_datum())) == 1
    assert len(little_space(e6_datum())) == 2
    d = split_datum("A", 2, [[1, 0], [0, 1]])
    assert len(little_space(d)) == 2


def test_sp42_restriction():
    d = sp42_datum()
    rd = restrict_datum(d)
    assert rd.rank == 1
    assert rd.sigma_k == ((1,),)
    assert transported_form(rd) == ((H,),)
    assert tuple(map(content, rd.sigma_k)) == (1,)
    assert rd.roots.types == (("A", 1),)
    assert weyl_order(rd.roots.types) == 2
    assert set(generate_roots(rd.roots)) == {(1,), (-1,)}


def test_sp42_phi_k_res():
    d = sp42_datum()
    rd = restrict_datum(d)
    rr = phi_k_res(d, rd, generate_roots(rd.roots))
    assert dict(rr.multiplicities) == {
        (1,): 2, (2,): 1, (3,): 2, (-1,): 2, (-2,): 1, (-3,): 2,
    }
    assert indivisible_roots(dict(rr.multiplicities)) == {(1,), (-1,)}
    assert not rr.reduced


def phi_k_res_cases():
    """The fixtures, split A12 and E8 on their simple roots, and random data."""
    split = [split_datum(fam, n, identity(n)) for fam, n in (("A", 12), ("E", 8))]
    fixtures = [sp42_datum(), e6_datum(), su_nn_datum(2), su_nn_datum(3), u11_datum()]
    return fixtures + split + random_data(20261018, 24)


def test_phi_k_res_matches_the_restriction_of_every_root():
    """The images of the spherical roots and the closure steps give the
    multiset that restricting each big root in the little lattice gives."""
    for d in phi_k_res_cases():
        rd = restrict_datum(d)
        assert phi_k_res(d, rd, generate_roots(rd.roots)) == phi_k_res_by_lattice(d, rd)


def test_phi_k_res_does_no_lattice_work(monkeypatch):
    calls = []

    def counting(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    pairs = [(d, restrict_datum(d)) for d in phi_k_res_cases()]
    cases = [(d, rd, generate_roots(rd.roots)) for d, rd in pairs]
    monkeypatch.setattr(Lattice, "coordinates", counting("coordinates", Lattice.coordinates))
    # src has no function-local import, so restrict cannot build a root system
    assert not hasattr(restrict, "generate_roots")
    for d, rd, phi_k in cases:
        phi_k_res(d, rd, phi_k)
    assert calls == []


E6_FLIP = [flip_matrix(6, [(0, 5), (2, 4)])]
A5_FLIP = [flip_matrix(5, [(0, 4), (1, 3)])]
# split E8 and D4; quasi-split E6, A5 and D7; then indices with compact roots
CROSS_CHECK_INDICES = {
    "split-E8": ("E", 8, [], []),
    "split-D4": ("D", 4, [], []),
    "flip-E6": ("E", 6, [], E6_FLIP),
    "flip-A5": ("A", 5, [], A5_FLIP),
    "flip-D7": ("D", 7, [], [flip_matrix(7, [(5, 6)])]),
    "C3-a1a3": ("C", 3, [0, 2], []),
    "C4-a1a3": ("C", 4, [0, 2], []),
    "A3-a1a3": ("A", 3, [0, 2], []),
    "B3-a2a3": ("B", 3, [1, 2], []),
    "A5-a1a3a5": ("A", 5, [0, 2, 4], []),
    "flip-E6-a2a3a4a5": ("E", 6, [1, 2, 3, 4], E6_FLIP),
    "flip-E6-a3a4a5": ("E", 6, [2, 3, 4], E6_FLIP),
}


@pytest.mark.parametrize("case", CROSS_CHECK_INDICES.values(), ids=CROSS_CHECK_INDICES.keys())
def test_index_and_datum_restrict_roots_alike(case):
    """The datum whose spherical roots are the simple roots of an index
    restricts like the index itself (Borel-Tits 1965, section 6)."""
    fam, n, compact, star = case
    ix = TitsIndex.of(AmbientRootDatum.of([(fam, n)]), compact, star)
    assert ix.violations() == []
    d = SphericalDatumK.ambient(ix, identity(ix.ambient.dim))
    rd = restrict_datum(d)
    from_datum = phi_k_res(d, rd, generate_roots(rd.roots))
    from_index = restricted_root_system(ix)
    assert sorted(m for _, m in from_datum.multiplicities) == sorted(m for _, m in from_index.multiplicities)
    assert from_datum.reduced == from_index.reduced
    assert len(from_datum.indivisible) == len(from_index.indivisible)
    assert cli._wk_type(rd.roots.types) == type_name_of(ix.simple_roots.types)


def test_e6_restriction_b2():
    rd = restrict_datum(e6_datum())
    assert rd.rank == 2
    assert rd.roots.types == (("B", 2),)
    assert weyl_order(rd.roots.types) == 8
    assert tuple(map(content, rd.sigma_k)) == (1, 1)
    assert len(generate_roots(rd.roots)) == 8
    # the first restricted root is long, the second short, ratio 2
    g = rd.form_k
    s1, s2 = rd.sigma_k
    q1 = dot(vec_mat(s1, fmat(g)), s1)
    q2 = dot(vec_mat(s2, fmat(g)), s2)
    assert q1 == 2 * q2


def test_e6_sigma_k_in_beta_coordinates():
    # the restrictions written against the restricted simple roots of the
    # group must give beta2+2beta3+2beta4 and beta1+beta2+beta3
    from spherindex.index import res_A, restricted_simple_roots

    d = e6_datum()
    srs = restricted_simple_roots(d.index)
    img1 = res_A(d.index, [1, 0, 1, 1, 1, 1])
    img2 = res_A(d.index, [0, 1, H, 1, H, 0])
    c1 = solve_left(srs.roots, img1)
    c2 = solve_left(srs.roots, img2)
    assert c1 == (0, 1, 2, 2)
    assert c2 == (1, 1, 1, 0)


def test_su22_restriction():
    from spherindex.index import res_A, restricted_simple_roots

    d = su_nn_datum(2)
    rd = restrict_datum(d)
    assert rd.rank == 2
    srs = restricted_simple_roots(d.index)
    img = res_A(d.index, [1, 1, 1])
    assert solve_left(srs.roots, img) == (2, 1)


def test_su33_restriction_coefficients():
    from spherindex.index import res_A, restricted_simple_roots

    d = su_nn_datum(3)
    srs = restricted_simple_roots(d.index)
    assert srs.types == (("C", 3),)
    img = res_A(d.index, [1] * 5)
    assert solve_left(srs.roots, img) == (2, 2, 1)


def test_u11_restriction():
    rd = restrict_datum(u11_datum())
    assert rd.rank == 1
    assert rd.sigma_k == ((2,),)
    assert tuple(map(primitive_vector, rd.sigma_k)) == (((1,),) [0],)
    assert tuple(map(content, rd.sigma_k)) == (2,)


def test_split_trivial_restriction():
    d = split_datum("A", 2, [[1, 0], [0, 1]])
    rd = restrict_datum(d)
    assert rd.rank == 2
    assert len(rd.sigma_k) == 2
    rr = phi_k_res(d, rd, generate_roots(rd.roots))
    assert sum(m for _, m in rr.multiplicities) == 6
    assert rr.reduced


def test_fibers_match_star_orbits():
    rd = restrict_datum(e6_datum())
    assert rd.fibers == ((0,), (1,))
    d = su_nn_datum(2)
    assert restrict_datum(d).fibers == ((0,),)


def test_fiber_mismatch_detected():
    # two star-fixed roots restricting to the same vector
    d = SphericalDatumK.abstract(
        2, [[2, 0], [0, 2]], [], [[1, 0], [1, 0]]
    )
    with pytest.raises(TheoremViolation, match=r"^roots \[0, 1\] restrict equally but the star orbit is \[0\]$"):
        restrict_datum(d)


def test_valuation_cone_rank_one():
    rd = restrict_datum(sp42_datum())
    assert rd.sigma_k == ((1,),)
    assert integer_kernel(rd.sigma_k, width=rd.rank) == ()  # strictly convex: the rays are minus the coweights
    assert len(rd.coweights) == 1
    assert dot(rd.sigma_k[0], rd.coweights[0]) > 0


def test_valuation_cone_b2():
    rd = restrict_datum(e6_datum())
    assert integer_kernel(rd.sigma_k, width=rd.rank) == ()
    assert len(rd.coweights) == 2
    for i, s in enumerate(rd.sigma_k):
        for j, w in enumerate(rd.coweights):
            v = dot(s, tuple(-x for x in w))
            assert v < 0 if i == j else v == 0


def test_valuation_cone_horospherical():
    d = SphericalDatumK.abstract(1, [[2]], [], [])
    rd = restrict_datum(d)
    assert rd.sigma_k == ()
    assert len(integer_kernel(rd.sigma_k, width=rd.rank)) == 1  # not strictly convex: Z_k has no rays
    assert rd.coweights == ()


def test_coweight_identity():
    for d in [sp42_datum(), e6_datum(), su_nn_datum(2), u11_datum(),
              split_datum("A", 2, [[1, 0], [0, 1]])]:
        rd = restrict_datum(d)
        assert coweight_identity_check(d, rd)["checked"] == len(rd.sigma_k)


def test_coweights_match_the_fraction_dual_basis():
    """The stored coweights over ``coweight_den`` are the Fraction dual basis
    of the restricted roots under the transported form, and the scaled dual
    basis of each localization at a single root, under the form carried to
    its lattice, is that of its roots."""
    for d in [sp42_datum(), e6_datum(), su_nn_datum(2), u11_datum()] + random_data(20261018, 24):
        rd = restrict_datum(d)
        assert divide(rd.coweights, rd.coweight_den) == dual_basis(rd.sigma_k, transported_form(rd))
        if len(rd.sigma_k) == rd.rank:
            for t in range(len(rd.sigma_k)):
                loc = localize(rd, [t])
                form = gram(loc.xi_basis_in_parent, rd.form_k)
                w, den = scaled_dual_basis(loc.roots.vectors, form)
                assert divide(w, den) == dual_basis(loc.roots.vectors, form)


def test_coweight_check_catches_an_entry_off_by_a_small_rational():
    """The check compares scaled integers: every coweight entry moved by
    1/coweight_den, the least move of an integral entry, one at a time,
    fails it, and so does a scale moved by one."""
    planted = 0
    for d in [sp42_datum(), e6_datum(), u11_datum()] + random_data(20261018, 8):
        rd = restrict_datum(d)
        assert coweight_identity_check(d, rd) == {"checked": len(rd.fibers)}
        for j, row in enumerate(rd.coweights):
            for t in range(len(row)):
                moved = row[:t] + (row[t] + 1,) + row[t + 1:]
                off = replace(rd, coweights=rd.coweights[:j] + (moved,) + rd.coweights[j + 1:])
                with pytest.raises(TheoremViolation, match=f"coweight of restricted root {j} differs"):
                    coweight_identity_check(d, off)
                planted += 1
        for off in (replace(rd, coweight_den=rd.coweight_den + 1), replace(rd, lifts_den=rd.lifts_den + 1)):
            if rd.fibers:
                with pytest.raises(TheoremViolation, match="coweight of restricted root 0 differs"):
                    coweight_identity_check(d, off)
                planted += 1
    assert planted >= 40


def test_u11_coweight_value():
    # the little coweight of the doubled root is half the projected big one
    rd = restrict_datum(u11_datum())
    assert divide(rd.coweights, rd.coweight_den) == ((H,),)


def test_predicates_e6():
    d = e6_datum()
    p = predicates(d, restrict_datum(d))
    assert p == {
        "k_convex": True,
        "k_wonderful": True,
        "k_horospherical": False,
        "rank0": False,
        "satake_open_embedding": True,
    }


def test_predicates_u11():
    d = u11_datum()
    p = predicates(d, restrict_datum(d))
    assert p["k_wonderful"] is True  # sigma_k_pr = {1} is a basis of Z
    assert p["k_convex"] is True
    assert p["satake_open_embedding"] is True


def test_predicates_horospherical():
    d = SphericalDatumK.abstract(2, [[2, 0], [0, 2]], [], [])
    p = predicates(d, restrict_datum(d))
    assert p["k_horospherical"] is True
    assert p["k_convex"] is False


def test_localize_identity():
    d = e6_datum()
    rd = restrict_datum(d)
    loc = localize(rd, [0, 1])
    assert loc.roots.vectors == rd.sigma_k
    assert loc.roots.types == rd.roots.types
    assert loc.sigma_K_indices == (0, 1)


def test_localize_empty():
    d = e6_datum()
    rd = restrict_datum(d)
    loc = localize(rd, [])
    assert len(loc.xi_basis_in_parent) == 0
    assert loc.roots.vectors == ()
    assert loc.sigma_K_indices == ()


def test_localize_e6_facet():
    d = e6_datum()
    rd = restrict_datum(d)
    loc = localize(rd, [1])
    assert len(loc.xi_basis_in_parent) == 1
    assert len(loc.roots.vectors) == 1
    assert loc.sigma_K_indices == (1,)
    # localizing keeps the compact spherical roots on the big side
    rd2 = restrict_datum(sp42_datum())
    loc2 = localize(rd2, [])
    assert loc2.sigma_K_indices == (0,)


def test_localize_requires_convex():
    d = SphericalDatumK.abstract(2, [[2, 0], [0, 2]], [], [[1, 0]])
    rd = restrict_datum(d)
    with raises_exit_1("^valuation cone is not strictly convex$"):
        localize(rd, [])


def test_localize_classifies_j_and_derives_nothing_else(monkeypatch):
    """The localization report reads the rank and the type of J alone, so
    ``localize`` classifies J once and builds no dual basis, no root system
    and no primitive vectors, at every subset J of the fixtures' restricted
    roots and of seeded random data."""
    data = [restrict_datum(d) for d in [sp42_datum(), e6_datum(), su_nn_datum(2), u11_datum()] + random_data(20261019, 40)]
    calls = Counter()

    def counting(name, f):
        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return counted

    for name in ("scaled_dual_basis", "primitive_vector"):
        monkeypatch.setattr(restrict, name, counting(name, getattr(restrict, name)))
    # src has no function-local import, so restrict cannot build a root system
    assert not hasattr(restrict, "generate_roots")
    monkeypatch.setattr(RootBase, "from_vectors", staticmethod(counting("from_vectors", RootBase.from_vectors)))
    localized = 0
    for rd in data:
        if len(rd.sigma_k) != rd.rank:
            continue
        for size in range(len(rd.sigma_k) + 1):
            for j in combinations(range(len(rd.sigma_k)), size):
                calls.clear()
                localize(rd, j)
                assert calls == {"from_vectors": 1}
                localized += 1
    assert localized > 150


def test_aut_roots_trivial():
    rd = restrict_datum(e6_datum())
    gamma = Lattice.from_rows(2, rd.sigma_k)
    res = aut_roots(rd, gamma)
    assert res.n_aut == (1, 1)
    assert res.roots == tuple(map(primitive_vector, rd.sigma_k))


def test_aut_roots_doubling():
    rd = restrict_datum(u11_datum())
    res = aut_roots(rd, Lattice.from_rows(1, [[2]]))
    assert res.n_aut == (2,)
    assert res.roots == ((2,),)
    res1 = aut_roots(rd, Lattice.from_rows(1, [[1]]))
    assert res1.n_aut == (1,)


def test_aut_roots_not_between():
    rd = restrict_datum(u11_datum())
    with raises_exit_1("does not contain the restricted roots"):
        aut_roots(rd, Lattice.from_rows(1, [[3]]))
    with raises_exit_1("not contained in the weight lattice"):
        aut_roots(rd, Lattice.from_rows(1, [[H]]))
    # multiples of the restricted roots are a basis of gamma only when its
    # rank is their number, so a gamma of higher rank is bad input
    one_root = restrict_datum(SphericalDatumK.abstract(2, [[2, 0], [0, 2]], [], [[1, 0]]))
    no_root = restrict_datum(SphericalDatumK.abstract(1, [[2]], [], []))
    for rd, rows in [(one_root, [[1, 0], [0, 1]]), (one_root, [[1, 0], [0, 4]]), (no_root, [[2]])]:
        with raises_exit_1("sublattice leaves the span of the restricted roots"):
            aut_roots(rd, Lattice.from_rows(rd.rank, rows))
    assert aut_roots(one_root, Lattice.from_rows(2, [[1, 0]])).n_aut == (1,)
    assert aut_roots(no_root, Lattice.from_rows(1, [])).roots == ()
    # gamma holds both primitive roots, so both multipliers are 1, but the
    # roots span a sublattice of index 2 in it
    frame = restrict_datum(SphericalDatumK.abstract(2, [[2, 0], [0, 2]], [], [[1, 1], [1, -1]]))
    with raises_exit_1("sublattice is not spanned by multiples of the restricted roots"):
        aut_roots(frame, Lattice.standard(2))
    assert aut_roots(frame, Lattice.from_rows(2, frame.sigma_k)).n_aut == (1, 1)


def test_lattice_weight_property():
    # <chi, sigma-covector> integral for lattice generators
    for d in [sp42_datum(), e6_datum(), su_nn_datum(2), u11_datum()]:
        rd = restrict_datum(d)
        f = fmat(rd.form_k)
        for s in rd.sigma_k:
            ss = dot(vec_mat(s, f), s)
            for i in range(rd.rank):
                chi = [int(i == j) for j in range(rd.rank)]
                pair = 2 * dot(vec_mat(fmat([chi])[0], f), s) / ss
                assert pair.denominator == 1


def test_reflection_stability_of_lattice():
    for d in [e6_datum(), su_nn_datum(2)]:
        rd = restrict_datum(d)
        f = fmat(rd.form_k)
        lat = Lattice.standard(rd.rank)
        for s in rd.sigma_k:
            ss = dot(vec_mat(s, f), s)
            for i in range(rd.rank):
                chi = fmat([[int(i == j) for j in range(rd.rank)]])[0]
                coef = 2 * dot(vec_mat(chi, f), s) / ss
                img = tuple(a - coef * b for a, b in zip(chi, s))
                assert lat.contains(img)


def test_dimension_bookkeeping():
    for d in [sp42_datum(), e6_datum(), su_nn_datum(2), u11_datum()]:
        rd = restrict_datum(d)
        assert rd.rank == len(rd.sigma_k) + len(integer_kernel(rd.sigma_k, width=rd.rank))


def test_chamber_containment_fixtures():
    def checked(d):
        chamber_containment_check(d, restrict_datum(d))
        # one chamber generator per fiber of the restricted simple roots
        return len(d.index.simple_roots.fibers) if d.index is not None else 0

    assert checked(sp42_datum()) == 1
    assert checked(e6_datum()) == 4
    assert checked(su_nn_datum(2)) == 2
    # abstract data have no group chamber to test
    assert checked(u11_datum()) == 0


def test_facet_inheritance_fixtures():
    def checked(d):
        return facet_inheritance_by_rank(d, restrict_datum(d))

    assert checked(sp42_datum()) == {"full": 1, "facet": 1}
    assert checked(e6_datum()) == {"full": 0, "facet": 2}
    assert checked(su_nn_datum(2)) == {"full": 0, "facet": 1}
    assert checked(u11_datum()) == {"full": 0, "facet": 1}


def outcome(check, d, rd):
    """What a check returns, or the message of the theorem violation it raises."""
    try:
        return check(d, rd)
    except TheoremViolation as e:
        return str(e)


def quasi_split_e6_data():
    """The flip quasi-split E6 with the spherical roots summed over each
    nonempty set of its four flip orbits."""
    ix = TitsIndex.of(AmbientRootDatum.of([("E", 6)]), [], [flip_matrix(6, [(0, 5), (2, 4)])])
    orbits = [(0, 5), (1,), (2, 4), (3,)]
    data = []
    for mask in range(1, 16):
        sigma = [[int(i in orbit) for i in range(6)] for b, orbit in enumerate(orbits) if mask >> b & 1]
        data.append(SphericalDatumK.ambient(ix, sigma))
    return data


@pytest.mark.parametrize("message", FACET_PLANTS)
def test_facet_check_raises_each_message_like_the_rank_per_face_check(message):
    """Facet inheritance holds by construction of the restricted datum, so the
    facet check is the rank-per-face oracle alone: the E6 datum (two
    noncompact fibers, rank 2) passes it, and each violation planted there
    raises its own message."""
    d = e6_datum()
    rd = restrict_datum(d)
    assert outcome(facet_inheritance_by_rank, d, rd) == {"full": 0, "facet": 2}
    assert outcome(facet_inheritance_by_rank, d, FACET_PLANTS[message](rd)) == message


def test_facet_check_matches_the_rank_per_face_check():
    """The rank-per-face check passes on every restricted datum, and raises
    its message on each with its restricted roots negated or its first
    coweight moved onto the sum of all, on every datum they fit."""
    data = [sp42_datum(), e6_datum(), su_nn_datum(2), u11_datum(), split_datum("A", 2, [[1, 0], [0, 1]])]
    data += random_data(20261018, 24) + quasi_split_e6_data()
    data += [split_datum("A", n, identity(n)) for n in range(2, 13)]
    planted = 0
    for d in data:
        rd = restrict_datum(d)
        assert isinstance(facet_inheritance_by_rank(d, rd), dict)
        for message, fits in [
            ("a restricted root is positive somewhere on the valuation cone", rd.sigma_k),
            ("a big facet does not trace a facet of the little cone", len(rd.coweights) > 1),
        ]:
            if fits:
                assert outcome(facet_inheritance_by_rank, d, FACET_PLANTS[message](rd)) == message
                planted += 1
    assert planted > 80


def count_eliminations(monkeypatch):
    calls = []
    eliminate = linalg._eliminate

    def counting(m, k):
        calls.append(len(m))
        return eliminate(m, k)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    return calls


def test_coweight_check_runs_one_elimination(monkeypatch):
    """At most one dual basis for the big coweights, and no other elimination;
    none after a split restriction, whose coweights are that dual basis."""
    pairs = [(d, restrict_datum(d)) for d in [sp42_datum(), e6_datum(), su_nn_datum(2), u11_datum()]]
    pairs += [(d, restrict_datum(d)) for d in random_data(20261018, 16) + quasi_split_e6_data()[-1:]]
    calls, split = count_eliminations(monkeypatch), Counter()
    for d, rd in pairs:
        calls.clear()
        coweight_identity_check(d, rd)
        is_split = not rd.split.sigma0 and not d.star_xi
        assert len(calls) == (0 if is_split else 1), calls
        split[is_split] += 1
    assert split[True] >= 4 and split[False] >= 8, split


def to_sympy(m, ncols):
    return Matrix(len(m), ncols, [Rational(x.numerator, x.denominator) for row in m for x in row])


def from_sympy(m):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in r) for r in m.tolist())


def sympy_projection(f, rows):
    """I - F U^T G^-1 U by sympy, for U the rows at the pivots of sympy's rref."""
    m = len(f)
    if not rows:
        return eye(m)
    a = to_sympy(rows, m)
    _, pivots = a.T.rref()
    u, f = a.extract(list(pivots), list(range(m))), to_sympy(f, m)
    return eye(m) - f * u.T * (u * f * u.T).inv() * u


def test_little_basis_and_lifts_match_the_elimination():
    """The top rows of the Hermite form of [nk^T | I] lift the little basis;
    lifts differ by the span of the annihilator, so each projects like the lift
    ``solve`` finds,
    and the projection is sympy's I - F U^T G^-1 U: the stored lifts are
    ``lifts_den`` times it, and ``form_k`` is c lifts_den^2 times the Gram
    matrix of the projected lifts under F."""
    for d in [sp42_datum(), e6_datum(), su_nn_datum(2), u11_datum()] + random_data(20261018, 24):
        rd = restrict_datum(d)
        nk = little_space(d)
        basis = Lattice.from_rows(rd.rank, transpose(nk)).basis
        assert len(basis) == rd.rank  # the restricted coordinate characters span
        ann = _annihilator(d, rd.split)
        lifts = [solve(nk, row) for row in basis]
        hermite_lifts = [row[rd.rank:] for row in augmented_hermite_form(nk, len(d.pairing))[: rd.rank]]
        assert [[dot(a, n) for n in nk] for a in hermite_lifts] == [list(e) for e in identity(rd.rank)]
        assert _project(d.pairing, ann, hermite_lifts) == (rd.projected_lifts, rd.lifts_den, rd.form_k)
        assert _project(d.pairing, ann, lifts) == (rd.projected_lifts, rd.lifts_den, rd.form_k)
        expected = to_sympy(lifts, len(d.pairing)) * sympy_projection(d.pairing, ann)
        assert divide(rd.projected_lifts, rd.lifts_den) == from_sympy(expected)
        assert transported_form(rd) == from_sympy(expected * to_sympy(d.pairing, len(d.pairing)) * expected.T)


HYPERBOLIC = ((0, 1, 0), (1, 0, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 0, 0), (0, 1, 0)],  # G = [[0, 1], [1, 0]]: the elimination swaps its rows
        [(1, 0, 0), (0, 2, 0)],  # det G = -4
        [(1, 0, 0), (0, 1, 1), (1, 1, 1)],  # a dependent third row; G = [[0, 1], [1, 1]]
        [(1, 0, 0), (0, 0, 1)],  # G = [[0, 0], [0, 1]] is singular
    ],
)
def test_project_on_a_hyperbolic_form_matches_sympy(rows):
    """The pairing is indefinite, and G = U F U^T has a zero leading minor on
    every annihilator here: d is |det G|, the lifts times d P for sympy's P,
    and a singular G names the degenerate pairing."""
    lifts = [*identity(3), (2, -1, 3)]
    u = to_sympy(rows, 3)
    _, pivots = u.T.rref()
    g = u.extract(list(pivots), [0, 1, 2]) * to_sympy(HYPERBOLIC, 3) * u.extract(list(pivots), [0, 1, 2]).T
    if g.det() == 0:
        with pytest.raises(SpherindexError, match="pairing is degenerate"):
            _project(HYPERBOLIC, rows, lifts)
        return
    scaled, d, form = _project(HYPERBOLIC, rows, lifts)
    assert d == abs(g.det()) and all(type(x) is int for row in scaled for x in row)
    assert divide(scaled, d) == from_sympy(to_sympy(lifts, 3) * sympy_projection(HYPERBOLIC, rows))
    assert form == gram(scaled, HYPERBOLIC)


def test_project_on_the_random_abstract_documents_matches_sympy():
    """The seeded abstract documents of ``tools/compare_outputs.py`` reach
    ``_project`` with a positive definite G, an indefinite one, one with a
    zero leading minor (so the elimination swaps rows) and a singular one:
    d is |det G| and the lifts times d P match sympy's, or the pairing is
    degenerate."""
    tool = load_tool("compare_outputs")
    rng = random.Random(tool.ABSTRACT_SEED)
    kinds = Counter()
    for _ in range(tool.ABSTRACT_COUNT):
        d = parse_datum(tool.random_abstract_document(rng))
        if not is_valid(validate(d)):
            continue
        ann = _annihilator(d, d.compact_split)
        nk = little_space(d)
        lifts = [row[len(nk):] for row in augmented_hermite_form(nk, len(d.pairing))[: len(nk)]]
        u = to_sympy(ann, len(d.pairing))
        u = u.extract(list(u.T.rref()[1]), list(range(len(d.pairing))))
        g = u * to_sympy(d.pairing, len(d.pairing)) * u.T
        minors = [g[:i, :i].det() for i in range(1, g.rows + 1)]
        if g.det() == 0:
            kinds["singular"] += 1
            with pytest.raises(SpherindexError, match="pairing is degenerate"):
                _project(d.pairing, ann, lifts)
            continue
        kinds["zero leading minor" if 0 in minors else "indefinite" if min(minors, default=1) < 0 else "definite"] += 1
        scaled, den, _ = _project(d.pairing, ann, lifts)
        assert den == abs(g.det())
        assert divide(scaled, den) == from_sympy(to_sympy(lifts, len(d.pairing)) * sympy_projection(d.pairing, ann))
    assert min(kinds[k] for k in ("definite", "indefinite", "zero leading minor", "singular")) > 0, kinds


def test_dual_basis_and_projection_create_one_fraction_per_entry(monkeypatch):
    """The scaled path multiplies integers: the dual basis of integer input
    creates no ``Fraction``, and dividing it creates one per entry; the
    projection under the integral pairing, e6's of den 2 too, and the
    coweight check create none."""
    bases = [(identity(t[1]), AmbientRootDatum.of([t]).form()) for t in (("E", 8), ("A", 12))]
    projections, checks = [], []
    for d in [sp42_datum(), e6_datum(), su_nn_datum(2), u11_datum()] + random_data(20261018, 8):
        rd = restrict_datum(d)
        lifts = [row[rd.rank:] for row in augmented_hermite_form(little_space(d), len(d.pairing))[: rd.rank]]
        projections.append((d.pairing, _annihilator(d, rd.split), lifts))
        checks.append((d, rd))
    created = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal created
        created += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    # <=, not ==: from Python 3.12 Fraction arithmetic bypasses __new__ and
    # goes uncounted, so only the bound means the same on every version
    for rows, form in bases:
        created = 0
        w, d = scaled_dual_basis(rows, form)
        assert created == 0
        assert len(divide(w, d)) == len(rows) and 0 < created <= sum(map(len, w))
    for f, ann, lifts in projections:
        created = 0
        _project(f, ann, lifts)
        assert created == 0
    for d, rd in checks:
        created = 0
        coweight_identity_check(d, rd)
        assert created == 0  # within the bound of one per coweight entry
