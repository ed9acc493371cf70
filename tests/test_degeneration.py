from fractions import Fraction

import pytest

from datagen import contains_cone
from spherindex.degeneration import (
    build_degeneration,
    degeneration_fiber_data,
)
from spherindex.errors import NotAFace, NotIndependent, NotSublattice
from spherindex.fans import Cone
from spherindex.linalg import Lattice, identity, vec_mat


def test_even_lattice_example():
    dd = build_degeneration(Lattice.standard(1), [[2]])
    assert dd.xiZ == Lattice.from_rows(2, [[1, 1], [0, 2]])
    assert dd.xiZ.index_in(Lattice.standard(2)) == 2


def test_unit_root_gives_full_lattice():
    dd = build_degeneration(Lattice.standard(1), [[1]])
    assert dd.xiZ == Lattice.standard(2)


def test_rank_additivity():
    xi = Lattice.standard(2)
    dd = build_degeneration(xi, [[1, 0], [0, 1]])
    assert dd.xiZ.rank == 2 * xi.rank == 4
    assert Lattice.from_rows(2, dd.sigma).rank == 2


def test_beta_compose_delta_zero():
    """The antidiagonal (chi, -chi) lies in xiZ, and the sum map
    beta(chi, eta) = chi + eta sends xiZ onto the lattice of sigma."""
    beta = identity(2) + identity(2)
    for sigma in ([[1, 0], [0, 1]], [[2, 0], [0, 1]]):
        dd = build_degeneration(Lattice.standard(2), sigma)
        for chi in [(1, 0), (0, 1), (3, -2)]:
            assert dd.xiZ.contains(chi + tuple(-x for x in chi))
        images = [vec_mat(b, beta) for b in dd.xiZ.rows_q()]
        assert Lattice.from_rows(2, images) == Lattice.from_rows(2, sigma)


def test_input_validation():
    with pytest.raises(NotIndependent):
        build_degeneration(Lattice.standard(2), [[1, 0], [2, 0]])
    with pytest.raises(NotSublattice):
        build_degeneration(Lattice.from_rows(1, [[2]]), [[1]])


def test_boundary_cone_face_count():
    dd = build_degeneration(Lattice.standard(2), [[1, 0], [0, 1]])
    faces = list(dd.c_bd.faces())
    assert len(faces) == 4
    sigma_sets = {degeneration_fiber_data(dd, f)["sigma_fiber"] for f in faces}
    assert len(sigma_sets) == 4  # every subset of sigma appears exactly once


def test_fiber_data_extremes():
    dd = build_degeneration(Lattice.standard(2), [[1, 0], [0, 1]])
    zero = Cone.of(())
    open_face = degeneration_fiber_data(dd, zero)
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
    rays = [Cone.of([g]) for g in dd.c_bd.generators]
    fibers = [degeneration_fiber_data(dd, r)["sigma_fiber"] for r in rays]
    assert sorted(fibers) == [((0, 1),), ((1, 0),)]
    for r, fib in zip(rays, fibers):
        assert degeneration_fiber_data(dd, r)["torus_rank"] == 1


def test_not_a_face():
    dd = build_degeneration(Lattice.standard(2), [[1, 0], [0, 1]])
    with pytest.raises(NotAFace):
        degeneration_fiber_data(dd, Cone.of([[1, 1, 1, 1]]))


def test_doubled_root_cone_inside_valuation_cone():
    # the construction itself asserts containment; just exercise it
    dd = build_degeneration(Lattice.standard(1), [[2]])
    assert dd.c_bd.dim == 1
    dd2 = build_degeneration(Lattice.standard(2), [[2, 0], [0, 1]])
    assert dd2.c_bd.dim == 2


def test_not_a_face_without_the_containment_check():
    """Generator-subset membership alone decides faces of the simplicial c_bd."""
    dd = build_degeneration(Lattice.standard(2), [[1, 0], [0, 1]])
    g1, g2 = dd.c_bd.generators
    outside = Cone.of([g1, tuple(-x for x in g2)])
    inner_ray = Cone.of([tuple(a + b for a, b in zip(g1, g2))])  # inside c_bd, not a face
    inner_wedge = Cone.of([g1, tuple(a + b for a, b in zip(g1, g2))])
    for cone in (outside, inner_ray, inner_wedge):
        with pytest.raises(NotAFace):
            degeneration_fiber_data(dd, cone)
    assert contains_cone(dd.c_bd, inner_ray) and contains_cone(dd.c_bd, inner_wedge)
