import random
from fractions import Fraction

from spherindex.degeneration import (
    build_degeneration,
    degeneration_fiber_data,
)
from spherindex.fans import faces
from spherindex.linalg import Lattice, dot, identity, lattice_index, rank, vec_mat


def random_cases(seed, count):
    """(xi, sigma): xi standard or spanned by random rows, half-integral now
    and then, of any rank; sigma independent integer combinations of its basis."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            xi = Lattice.standard(n)
        else:
            rows = [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n)] for _ in range(n)]
            xi = Lattice.from_rows(n, rows[: rng.randint(1, n)])
        k = rng.randint(1, xi.rank) if xi.rank and rng.random() < 0.9 else 0
        sigma = [vec_mat([rng.randint(-2, 2) for _ in range(xi.rank)], xi.rows_q()) for _ in range(k)]
        if not sigma or rank(sigma) == k:
            cases.append((xi, sigma))
    return cases


def test_even_lattice_example():
    dd = build_degeneration(Lattice.standard(1), [[2]])
    assert dd.xiZ == Lattice.from_rows(2, [[1, 1], [0, 2]])
    assert lattice_index(dd.xiZ.basis, 2) == 2


def test_unit_root_gives_full_lattice():
    dd = build_degeneration(Lattice.standard(1), [[1]])
    assert dd.xiZ == Lattice.standard(2)


def test_rank_additivity():
    xi = Lattice.standard(2)
    dd = build_degeneration(xi, [[1, 0], [0, 1]])
    assert dd.xiZ.rank == 2 * xi.rank == 4
    assert Lattice.from_rows(2, dd.sigma).rank == 2


def test_beta_compose_delta_zero():
    """The sequence 0 -> xi -> xiZ -> Z sigma -> 0 is exact, which
    ``build_degeneration`` does not check: the antidiagonal (chi, -chi) lies
    in xiZ, the sum map beta(chi, eta) = chi + eta kills it and sends xiZ
    onto the lattice of sigma, and rank xiZ = rank xi + rank sigma."""
    std = Lattice.standard(2)
    for xi, sigma in [(std, [[1, 0], [0, 1]]), (std, [[2, 0], [0, 1]])] + random_cases(20261019, 200):
        n = xi.ambient_rank
        beta = identity(n) + identity(n)
        dd = build_degeneration(xi, sigma)
        for chi in xi.rows_q():
            img = tuple(chi) + tuple(-x for x in chi)
            assert dd.xiZ.contains(img) and not any(vec_mat(img, beta)), (xi, sigma)
        images = [vec_mat(b, beta) for b in dd.xiZ.rows_q()]
        assert Lattice.from_rows(n, images) == Lattice.from_rows(n, sigma), (xi, sigma)
        assert dd.xiZ.rank - rank(images) == xi.rank and rank(images) == len(sigma), (xi, sigma)


def test_each_ray_pairs_negatively_with_its_own_root_only():
    """The xiZ coordinates of (s_i, 0) and of (0, s_i) pair with ray j to a
    negative number when i == j and to 0 otherwise: c_bd lies in the
    valuation cone, and each face's fiber, the roots whose ray it does not
    hold, is the one the dots with the coordinates of (0, s) find."""
    for xi, sigma in random_cases(20261020, 200):
        dd = build_degeneration(xi, sigma)
        assert sorted(dd.root_rays) == list(dd.c_bd)
        zero = (0,) * xi.ambient_rank
        coords = {}
        for i, s in enumerate(dd.sigma):
            for emb in (s + zero, zero + s):
                coords[emb] = c = dd.xiZ.coordinates(emb)
                signs = [dot(c, ray) < 0 if i == j else dot(c, ray) == 0 for j, ray in enumerate(dd.root_rays)]
                assert all(signs), (xi, sigma, i)
        for face in faces(dd.c_bd):
            by_dots = tuple(s for s in dd.sigma if all(dot(coords[zero + s], g) == 0 for g in face))
            assert degeneration_fiber_data(dd, face)["sigma_fiber"] == by_dots, (xi, sigma, face)


def test_boundary_cone_face_count():
    dd = build_degeneration(Lattice.standard(2), [[1, 0], [0, 1]])
    cone_faces = list(faces(dd.c_bd))
    assert len(cone_faces) == 4
    sigma_sets = {degeneration_fiber_data(dd, f)["sigma_fiber"] for f in cone_faces}
    assert len(sigma_sets) == 4  # every subset of sigma appears exactly once


def test_fiber_data_extremes():
    dd = build_degeneration(Lattice.standard(2), [[1, 0], [0, 1]])
    open_face = degeneration_fiber_data(dd, ())
    assert open_face["k_form"] is True
    assert open_face["horospherical"] is False
    assert len(open_face["sigma_fiber"]) == 2
    assert open_face["torus_rank"] == 0
    full = degeneration_fiber_data(dd, dd.c_bd)
    assert full["horospherical"] is True
    assert full["sigma_fiber"] == ()
    assert full["torus_rank"] == 2


def test_fiber_data_ray():
    dd = build_degeneration(Lattice.standard(2), [[1, 0], [0, 1]])
    rays = [(g,) for g in dd.c_bd]
    fibers = [degeneration_fiber_data(dd, r)["sigma_fiber"] for r in rays]
    assert sorted(fibers) == [((0, 1),), ((1, 0),)]
    for r, fib in zip(rays, fibers):
        assert degeneration_fiber_data(dd, r)["torus_rank"] == 1


def test_doubled_root_cone_inside_valuation_cone():
    # containment itself is test_each_ray_pairs_negatively_with_its_own_root_only's
    dd = build_degeneration(Lattice.standard(1), [[2]])
    assert len(dd.c_bd) == 1
    dd2 = build_degeneration(Lattice.standard(2), [[2, 0], [0, 1]])
    assert len(dd2.c_bd) == 2
