"""Restriction of a spherical datum to the small field.

Everything happens in coordinates of the weight-lattice basis fixed by the
datum.  The little cocharacter space N_k is cut out of N_K by the compact
spherical roots and the star action; characters restrict to N_k by
evaluation, and the invariant form is transported through the orthogonal
projection onto the complement of the annihilator of N_k.
"""

from __future__ import annotations

from math import lcm

from .datum import CompactRootSplit, SphericalDatumK
from .errors import InternalInconsistency, SpherindexError, TheoremViolation
from .linalg import (
    Lattice,
    Mat,
    Vec,
    augmented_hermite_form,
    content,
    gram,
    identity,
    integer_kernel,
    lattice_index,
    mat_mul,
    mat_mul_t,
    minus_identity,
    pivot_columns,
    primitive_vector,
    scale_rows_integral,
    scaled_dual_basis,
    scaled_schur_complement,
    transpose,
)
from .record import Record
from .rootsys import RestrictedRoots, RootBase, image_fibers, root_images


class RestrictedDatum(Record):
    """The restricted spherical roots of a datum, classified, and the maps
    between the big and little sides that the structural checks need.

    Vectors in ``sigma_k`` live in coordinates of the canonical
    basis of the little weight lattice; ``coweights`` live in the dual
    coordinates, paired with the former by the dot product.  The little
    coweights are ``coweights / coweight_den``, and ``form_k`` is a
    positive integer multiple of the transported form: root data,
    reflections and dual bases do not see its scale.
    """

    rank: int
    sigma_k: Mat
    fibers: tuple[tuple[int, ...], ...]
    form_k: Mat
    roots: RootBase  # sigma_k, classified under form_k: independent, so Z_k is strictly convex iff it has rank roots
    coweights: Mat
    coweight_den: int
    projected_lifts: Mat  # lifts_den times the lifts of the little basis rows, projected off the annihilator
    lifts_den: int
    split: CompactRootSplit


def _annihilator(d: SphericalDatumK, split: CompactRootSplit) -> list[Vec]:
    """Rows cutting out N_k: the compact spherical roots and g - 1 for each star g."""
    rows = [d.sigma[i] for i in split.sigma0]
    for g in d.star_xi:
        rows += minus_identity(g)
    return rows


def _project(f: Mat, rows: list[Vec], lifts) -> tuple[Mat, int, Mat]:
    """``lifts`` projected under the integral form ``f`` off the span of
    ``rows`` and scaled by d > 0, d, and their Gram matrix under f, all integral.

    P = I - F U^T G^-1 U (rows act on the right) for U independent rows of
    ``rows`` and G = U F U^T.  P sees neither the choice of U nor a scale c > 0
    of F, so U is taken integral, and d L P, for L the lifts, is the Schur
    complement of G in [[G, U], [L F U^T, L]], with d = |det G|.  The Gram
    matrix is d^2 times the form ``f`` transports.
    """
    u = scale_rows_integral([rows[i] for i in pivot_columns(transpose(rows))])
    right = [*u, *lifts]  # F is symmetric: [U; L] F U^T is [U; L] (U F)^T
    bordered = [[*a, *b] for a, b in zip(mat_mul_t(right, mat_mul(u, f)), right)]
    try:
        scaled, d = scaled_schur_complement(bordered, len(u))
    except ValueError:
        raise SpherindexError("pairing is degenerate on the annihilator of N_k") from None
    return scaled, d, gram(scaled, f)


def restrict_datum(d: SphericalDatumK) -> RestrictedDatum:
    """Restrict ``d`` to N_k.  With no compact spherical root and no star
    generator N_k is N_K: the kernel, lifts and projection are I with scale 1,
    and ``sigma_k``, ``form_k``, the roots and the coweights are the datum's."""
    split = d.compact_split
    ann = _annihilator(d, split)
    if ann:
        nk = integer_kernel(ann, width=len(d.pairing))
        dk = len(nk)
        # nk is a basis of a saturated lattice, so restriction (evaluation on nk) maps
        # the weight lattice onto Z^dk, the little weight lattice in the basis dual to
        # nk: the Hermite form of nk^T is [I; 0], so row i < dk of the form of
        # [nk^T | I] is [e_i | a lift of e_i]
        lifts = [row[dk:] for row in augmented_hermite_form(nk, len(d.pairing))[:dk]]
        images = mat_mul_t([d.sigma[i] for i in split.noncompact], nk)
    else:
        dk, images = len(d.pairing), d.sigma

    # restricted spherical roots with their fibers, in input order
    sigma_k, fibers = image_fibers(zip(split.noncompact, images))
    for fib in fibers:
        orbit = d.star_orbit_of_root(fib[0])
        if tuple(sorted(fib)) != orbit:
            raise TheoremViolation(
                f"roots {sorted(fib)} restrict equally but the star orbit is {list(orbit)}"
            )
    sigma_k = tuple(sigma_k)
    if ann:
        # transport the invariant form through the orthogonal projection; two
        # lifts of a row differ by the span of ``ann``, which the projection kills
        projected, lifts_den, form_k = _project(d.pairing, ann, lifts)
        # classified before anything else is derived, so a set of restricted
        # roots that is no root base fails with the classification's error
        roots = RootBase.from_vectors(sigma_k, form_k)
        coweights, coweight_den = scaled_dual_basis(sigma_k, form_k)
    else:
        projected, lifts_den, form_k = identity(dk), 1, d.pairing
        roots = d.root_base
        coweights, coweight_den = d.dual_basis
    return RestrictedDatum(
        rank=dk,
        sigma_k=sigma_k,
        fibers=tuple(map(tuple, fibers)),
        form_k=form_k,
        roots=roots,
        coweights=coweights,
        coweight_den=coweight_den,
        projected_lifts=projected,
        lifts_den=lifts_den,
        split=split,
    )


def phi_k_res(d: SphericalDatumK, rd: RestrictedDatum, phi_k) -> RestrictedRoots:
    """Restrict every root generated by the big spherical roots.

    Restriction is linear: spherical root i restricts to ``rd.sigma_k[t]``
    for i in fiber t, and a compact one to 0, since it cuts out N_k.  The
    indivisible part must coincide with ``phi_k``, the little root system;
    a mismatch contradicts a theorem that holds for every consistent datum.
    """
    sigma_images = [(0,) * rd.rank] * len(d.sigma)
    for s, fib in zip(rd.sigma_k, rd.fibers):
        for i in fib:
            sigma_images[i] = s
    rr = RestrictedRoots.of(root_images(d.root_base.components, sigma_images))
    if rr.indivisible != set(phi_k):
        raise TheoremViolation(
            "indivisible restricted roots differ from the little root system"
        )
    # the multiplier of a restricted root is the content of its integral coordinates
    if any(content(s) not in (1, 2) for s in rd.sigma_k):
        raise TheoremViolation("a restricted spherical root has multiplier > 2")
    return rr


def coweight_identity_check(d: SphericalDatumK, rd: RestrictedDatum) -> dict:
    """Check that each little coweight is the projected sum over its fiber.

    The dual family on the big side is taken over all spherical roots; the
    projection is linear, so each fiber sum is projected once, all in one
    integer product: with big coweights w / den and lifts scaled by
    ``lifts_den``, it is den * lifts_den times the little coweights, which
    are ``coweights / coweight_den``, so the two are compared cross-multiplied.
    """
    w, den = d.dual_basis
    sums = [tuple(map(sum, zip(*(w[tau] for tau in fib)))) for fib in rd.fibers]
    scale = den * rd.lifts_den
    for j, (row, coweight) in enumerate(zip(mat_mul_t(sums, rd.projected_lifts), rd.coweights, strict=True)):
        if any(x * rd.coweight_den != c * scale for x, c in zip(row, coweight, strict=True)):
            raise TheoremViolation(f"coweight of restricted root {j} differs from its fiber sum")
    return {"checked": len(rd.fibers)}


def chamber_containment_check(d: SphericalDatumK, rd: RestrictedDatum | None = None) -> None:
    """Check that the antidominant chamber of the split part lands in Z_k.

    Generators of the chamber cut out by the restricted simple roots beta_t
    of the group, one per fiber, are pushed through the canonical
    projection; each restricted spherical root must be nonpositive on every
    image.  An abstract datum has no group chamber to test.  ``rd`` stays
    optional because perfbench's tracer test passes the datum alone.
    """
    if rd is None:
        rd = restrict_datum(d)
    if d.index is None:
        return
    # chi restricts to sum_t (fiber sum t of chi) beta_t, so the chamber's
    # generators -W^-1 e_t pair with it to minus those sums; signs alone are
    # tested, and the lattice's denominator and ``lifts_den`` are positive scales
    srs = d.index.simple_roots
    sums = srs.fiber_sums(d.xi_K.basis)
    gens = [[-row[t] for row in sums] for t in range(len(srs.fibers))]
    images = mat_mul_t(gens, rd.projected_lifts)
    if any(x > 0 for row in mat_mul_t(images, rd.sigma_k) for x in row):
        raise InternalInconsistency(
            "a chamber generator projects outside the valuation cone"
        )


def predicates(d: SphericalDatumK, rd: RestrictedDatum) -> dict:
    return {
        "k_convex": len(rd.sigma_k) == rd.rank,
        "k_wonderful": lattice_index(tuple(map(primitive_vector, rd.sigma_k)), rd.rank) == 1,
        "k_horospherical": not rd.sigma_k,
        "rank0": rd.rank == 0,
        "satake_open_embedding": all(img[i] == d.sigma[i] for img in d.star_images for i in rd.split.noncompact),
    }


class Localization(Record):
    roots: RootBase  # J in the localized weight lattice, classified under the transported form
    xi_basis_in_parent: Mat  # basis of the localized weight lattice
    sigma_k_indices: tuple[int, ...]  # positions of J inside sigma_k
    sigma_K_indices: tuple[int, ...]  # induced big-side spherical roots


def localize(rd: RestrictedDatum, j_indices) -> Localization:
    """Localize at a subset J of the restricted spherical roots.

    The new weight lattice is the saturation of the old one inside the
    orthogonal of the standard-fan face spanned by the coweights outside J.
    Only J is classified there: the report reads its rank and type alone.
    """
    if len(rd.sigma_k) != rd.rank:
        raise SpherindexError("valuation cone is not strictly convex")
    j = sorted(set(j_indices))
    out = [t for t in range(len(rd.sigma_k)) if t not in j]
    new_basis = integer_kernel([rd.coweights[t] for t in out], width=rd.rank)
    lat = Lattice(rd.rank, new_basis)
    roots = RootBase.from_vectors([lat.coordinates(rd.sigma_k[t]) for t in j], gram(new_basis, rd.form_k))
    sigma_K = sorted(set(i for t in j for i in rd.fibers[t]) | set(rd.split.sigma0))
    return Localization(
        roots=roots,
        xi_basis_in_parent=new_basis,
        sigma_k_indices=tuple(j),
        sigma_K_indices=tuple(sigma_K),
    )


class AutRoots(Record):
    roots: Mat  # n_aut * primitive root, a basis of the given sublattice
    n_aut: tuple[int, ...]


def aut_roots(rd: RestrictedDatum, gamma: Lattice) -> AutRoots:
    """Spherical roots of the quotient by a group of automorphisms.

    ``gamma`` is the character sublattice of the quotient; it must sit
    between the lattice spanned by the restricted roots and the little
    weight lattice, inside the span of the restricted roots, and be spanned
    by multiples of them: the quotient roots are the least multiples of the
    primitive restricted roots that lie in ``gamma``, and they must be a
    basis of it.  Input that is not so exits 1 (``SpherindexError``); only a
    multiplier above 2 breaks a theorem.
    """
    if gamma.den != 1:  # den is the least common denominator of the entries
        raise SpherindexError("sublattice is not contained in the weight lattice")
    for s in rd.sigma_k:
        if not gamma.contains(s):
            raise SpherindexError("sublattice does not contain the restricted roots")
    if gamma.rank != len(rd.sigma_k):
        raise SpherindexError("sublattice leaves the span of the restricted roots")

    roots, mults = [], []
    for p in map(primitive_vector, rd.sigma_k):  # p = s / content(s) for s in gamma: in its span
        c = gamma.coordinates(p)
        n = lcm(*(x.denominator for x in c))
        roots.append(tuple(n * x for x in p))
        mults.append(n)
    if any(n not in (1, 2) for n in mults):
        raise TheoremViolation("an automorphism-quotient multiplier exceeded 2")
    if Lattice.from_rows(rd.rank, roots) != gamma:
        raise SpherindexError("sublattice is not spanned by multiples of the restricted roots")
    return AutRoots(roots=tuple(roots), n_aut=tuple(mults))
