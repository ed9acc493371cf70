"""Lattice shadow of the boundary degeneration construction.

For a variety with weight lattice Xi and quotient spherical roots Sigma,
the degeneration space has weight lattice xiZ = {(chi, eta) : chi + eta in
Z Sigma} inside Xi + Xi, carrying the antidiagonal embedding and the sum
map as an exact sequence.  The boundary cone c_bd is the antidominant cone
of Sigma lifted through the section of the sum map.
"""

from __future__ import annotations

from .errors import InternalInconsistency, NotAFace, NotIndependent, NotSublattice
from .fans import Cone
from .linalg import (
    Lattice,
    Mat,
    dot,
    identity,
    mat_mul,
    mat_mul_t,
    primitive_vector,
    rank,
    scaled_dual_basis,
    vec_mat,
)
from .record import Record


class DegenerationDatum(Record):
    sigma: Mat  # the quotient spherical roots, xi-ambient coordinates
    xiZ: Lattice  # sublattice of xi + xi
    c_bd: Cone  # boundary cone in the dual coordinates of the xiZ basis
    sigma_coords: Mat  # xiZ coordinates of (0, s) for each quotient root s


def build_degeneration(xi: Lattice, sigma_aut) -> DegenerationDatum:
    sigma = tuple(map(tuple, sigma_aut))
    if sigma and rank(sigma) != len(sigma):
        raise NotIndependent("quotient spherical roots are linearly dependent")
    for s in sigma:
        if not xi.contains(s):
            raise NotSublattice("quotient spherical root outside the weight lattice")
    n = xi.ambient_rank
    gamma = Lattice.from_rows(n, sigma)

    # xiZ is generated by the antidiagonal copy of xi and the graph of gamma
    gens = []
    for row in xi.rows_q():
        gens.append(tuple(row) + tuple(-x for x in row))
    for s in sigma:
        gens.append(s + (0,) * n)
    xiZ = Lattice.from_rows(2 * n, gens)

    ident = identity(n)
    delta_minus = tuple(e + tuple(-x for x in e) for e in ident)
    beta = ident + ident
    _check_exactness(xi, gamma, xiZ, delta_minus, beta)

    # boundary cone: the antidominant cone of sigma on the Y side, pulled back
    # through the section eta -> (0, eta) of the sum map, in coordinates dual to
    # the xiZ basis b: ray j pairs each beta(b) with -omega_j, for omega = w / d
    # the dot-dual basis of sigma in its span; primitive rays do not see d > 0
    pairings = mat_mul_t(scaled_dual_basis(sigma, ident)[0], mat_mul(xiZ.rows_q(), beta))
    c_bd = Cone.of(primitive_vector(tuple(-x for x in row)) for row in pairings)

    # Sigma_k(Z) = (sigma x 0) union (0 x sigma), in xiZ coordinates, resolved
    # once here: every face of c_bd reads those of (0 x sigma)
    zero = (0,) * n
    coords = [xiZ.coordinates(emb) for s in sigma for emb in (s + zero, zero + s)]
    _check_cone_in_valuation_cone(coords, c_bd)
    return DegenerationDatum(sigma, xiZ, c_bd, tuple(coords[1::2]))


def _check_exactness(xi, gamma, xiZ, delta_minus, beta):
    n = xi.ambient_rank
    # delta_minus maps xi into xiZ and beta(delta_minus(chi)) = 0
    for row in xi.rows_q():
        img = vec_mat(row, delta_minus)
        if not xiZ.contains(img):
            raise InternalInconsistency("antidiagonal image left the big lattice")
        if any(x != 0 for x in vec_mat(img, beta)):
            raise InternalInconsistency("composite map is nonzero")
    # beta surjects xiZ onto gamma
    images = mat_mul(xiZ.rows_q(), beta)
    if Lattice.from_rows(n, images) != gamma:
        raise NotSublattice("sum map does not surject onto the root lattice")
    # kernel of beta inside xiZ equals the antidiagonal image (rank check)
    if xiZ.rank - rank(images) != xi.rank:
        raise InternalInconsistency("exact sequence rank mismatch")


def _check_cone_in_valuation_cone(root_coords, c_bd: Cone):
    for coords in root_coords:
        if coords is None:
            raise InternalInconsistency("spherical root of Z left the lattice span")
        for g in c_bd.generators:
            if dot(coords, g) > 0:
                raise InternalInconsistency("boundary cone leaves the valuation cone of Z")


def degeneration_fiber_data(dd: DegenerationDatum, face: Cone) -> dict:
    """Invariants of the degeneration fiber attached to a face of c_bd."""
    # c_bd is simplicial: its faces are exactly the subsets of its generators
    if not all(g in dd.c_bd.generators for g in face.generators):
        raise NotAFace("not a face of the boundary cone")
    sigma_fiber = []
    for s, coords in zip(dd.sigma, dd.sigma_coords):
        if all(dot(coords, g) == 0 for g in face.generators):
            sigma_fiber.append(s)
    return {
        "sigma_fiber": tuple(sigma_fiber),
        "horospherical": face == dd.c_bd,
        "k_form": face.dim == 0,
        "torus_rank": face.dim,
    }
