"""Lattice shadow of the boundary degeneration construction.

For a variety with weight lattice Xi and quotient spherical roots Sigma,
the degeneration space has weight lattice xiZ = {(chi, eta) : chi + eta in
Z Sigma} inside Xi + Xi, carrying the antidiagonal embedding and the sum
map as an exact sequence.  The boundary cone c_bd is the antidominant cone
of Sigma lifted through the section of the sum map.

The sequence is exact by construction: xiZ is generated by (chi, -chi) and
(s, 0), so the sum map kills the antidiagonal, sends xiZ onto Z Sigma, and
these generators are independent because a basis of Xi and Sigma are.
"""

from __future__ import annotations

from .linalg import Lattice, Mat, identity, mat_mul, mat_mul_t, primitive_vector, scaled_dual_basis
from .record import Record


class DegenerationDatum(Record):
    sigma: Mat  # the quotient spherical roots, xi-ambient coordinates
    xiZ: Lattice  # sublattice of xi + xi
    c_bd: Mat  # sorted generators of the boundary cone, in the dual coordinates of the xiZ basis
    root_rays: Mat  # the generator of c_bd dual to each quotient root, in sigma order


def build_degeneration(xi: Lattice, sigma_aut) -> DegenerationDatum:
    """The degeneration of quotient spherical roots that are independent and lie in xi."""
    sigma = tuple(map(tuple, sigma_aut))
    n = xi.ambient_rank
    # xiZ is generated by the antidiagonal copy of xi and the graph of gamma
    gens = [tuple(row) + tuple(-x for x in row) for row in xi.rows_q()]
    xiZ = Lattice.from_rows(2 * n, gens + [s + (0,) * n for s in sigma])

    # boundary cone: the antidominant cone of sigma pulled back through the
    # section eta -> (0, eta) of the sum map beta, in coordinates dual to the
    # xiZ basis b: ray j pairs each beta(b) with -omega_j, for omega = w / d the
    # dot-dual basis of sigma in its span; primitive rays do not see d > 0
    ident = identity(n)
    pairings = mat_mul_t(scaled_dual_basis(sigma, ident)[0], mat_mul(xiZ.rows_q(), ident + ident))
    root_rays = tuple(primitive_vector(tuple(-x for x in row)) for row in pairings)
    return DegenerationDatum(sigma, xiZ, tuple(sorted(root_rays)), root_rays)


def degeneration_fiber_data(dd: DegenerationDatum, face: Mat) -> dict:
    """Invariants of the degeneration fiber attached to a face of c_bd, given by
    its generators.  Ray j pairs the xiZ coordinates of (s_i, 0) and of (0, s_i)
    with -c_j [i == j], c_j > 0, as beta(s, 0) = beta(0, s) = s and
    omega_j(s_i) = [i == j]: the fiber keeps the roots whose ray the face does
    not hold."""
    held = set(face)
    return {
        "sigma_fiber": tuple(s for s, ray in zip(dd.sigma, dd.root_rays) if ray not in held),
        "horospherical": face == dd.c_bd,
        "k_form": not face,
        "torus_rank": len(face),
    }
