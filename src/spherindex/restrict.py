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
from .errors import (
    BasisFailure,
    FiberMismatch,
    IdentityFails,
    IndivisibilityMismatch,
    InternalInconsistency,
    NotBetween,
    NotConvex,
)
from .index import res_A
from .linalg import (
    Lattice,
    Mat,
    Vec,
    content,
    divide,
    dot,
    dual_basis,
    gram,
    hermite_normal_form,
    integer_kernel,
    lattice_index,
    mat_mul,
    mat_mul_t,
    minus_identity,
    pivot_columns,
    primitive_vector,
    rank,
    scale_rows_integral,
    scaled_inverse,
    transpose,
    vec_mat,
)
from .record import Record
from .rootsys import RestrictedRoots, RootBase, generate_roots, image_fibers, root_images, type_name_of, weyl_order


class LittleDatum(Record):
    """The little-field invariants of a restricted or localized datum.

    Vectors in ``sigma_k``, ``phi_k`` live in coordinates of the canonical
    basis of the little weight lattice; ``nk0_basis`` and ``coweights``
    live in the dual coordinates, paired with the former by the dot
    product.
    """

    rank: int
    sigma_k: Mat
    fibers: tuple[tuple[int, ...], ...]
    sigma_k_pr: Mat
    n_sigma: tuple[int, ...]
    form_k: Mat
    phi_k: Mat
    wk_types: tuple[tuple[str, int], ...]
    wk_order: int
    nk0_basis: Mat
    coweights: Mat

    @property
    def wk_type_name(self) -> str:
        return type_name_of(self.wk_types) or "trivial"


class RestrictedDatum(LittleDatum):
    """All little-field invariants of a spherical datum.

    Adds the maps between the big and little sides that the structural
    checks need.
    """

    nk_basis: Mat
    projected_lifts: Mat  # lifts of the little basis rows, projected off the annihilator
    split: CompactRootSplit


def _annihilator(d: SphericalDatumK, split: CompactRootSplit) -> list[Vec]:
    """Rows cutting out N_k: the compact spherical roots and g - 1 for each star g."""
    rows = [d.sigma[i] for i in split.sigma0]
    for g in d.star_xi:
        rows += minus_identity(g)
    return rows


def _project(f: Mat, rows: list[Vec], lifts) -> tuple[Mat, Mat]:
    """``lifts`` projected under ``f`` off the span of ``rows``, and their Gram matrix.

    P = I - F U^T G^-1 U (rows act on the right) for U independent rows of
    ``rows`` and G = U F U^T.  P sees neither the choice of U nor a scale c > 0
    of F, so both are taken integral, and so is d P = d I - F U^T (d G^-1) U.
    The lifts are divided by d and their Gram matrix by c d^2 once, at the end.
    """
    c = lcm(*(x.denominator for row in f for x in row))
    fc = tuple(tuple(x.numerator * (c // x.denominator) for x in row) for row in f)
    pivots = pivot_columns(transpose(rows))
    if not pivots:
        lifts, form = tuple(map(tuple, lifts)), gram(lifts, fc)
        # the form keeps the entry type of f
        return lifts, form if all(type(x) is int for row in f for x in row) else divide(form, c)
    u = scale_rows_integral([rows[i] for i in pivots])
    a, d = scaled_inverse(gram(u, fc))
    corr = mat_mul(mat_mul_t(fc, u), mat_mul(a, u))
    dp = tuple(tuple(d * (i == j) - x for j, x in enumerate(row)) for i, row in enumerate(corr))
    scaled = mat_mul(lifts, dp)
    return divide(scaled, d), divide(gram(scaled, fc), c * d * d)


def _core(rank_: int, sigma_rows: Mat, form: Mat, fibers) -> dict:
    base = RootBase.from_vectors(sigma_rows, form)
    return dict(
        rank=rank_,
        sigma_k=sigma_rows,
        fibers=tuple(tuple(f) for f in fibers),
        # restricted roots have integral coordinates: s == content(s) * primitive
        sigma_k_pr=tuple(primitive_vector(s) for s in sigma_rows),
        n_sigma=tuple(content(s) for s in sigma_rows),
        form_k=form,
        phi_k=tuple(generate_roots(base)),
        wk_types=base.types,
        wk_order=weyl_order(base.types),
        nk0_basis=integer_kernel(sigma_rows, width=rank_),
        coweights=dual_basis(sigma_rows, form),
    )


def _to_little(nk: Mat, little: Lattice, chi) -> Vec:
    """Restriction of a big character to N_k, in the little-lattice basis."""
    c = little.coordinates(tuple(dot(chi, v) for v in nk))
    if c is None:
        raise FiberMismatch("restriction left the little weight lattice span")
    return c


def restrict_datum(d: SphericalDatumK) -> RestrictedDatum:
    split = d.compact_split
    ann = _annihilator(d, split)
    nk = integer_kernel(ann, width=d.m)
    dk = len(nk)
    # canonical basis of the little weight lattice, generated by the restrictions
    # of the coordinate characters; row i of u restricts to basis row i
    h, u = hermite_normal_form(transpose(nk))
    little = Lattice(dk, tuple(tuple(r) for r in h[:dk]))

    # restricted spherical roots with their fibers, in input order
    sigma_k, fibers = image_fibers((i, _to_little(nk, little, d.sigma[i])) for i in split.noncompact)
    for fib in fibers:
        orbit = d.star_orbit_of_root(fib[0])
        if tuple(sorted(fib)) != orbit:
            raise FiberMismatch(
                f"roots {sorted(fib)} restrict equally but the star orbit is {list(orbit)}"
            )

    # transport the invariant form through the orthogonal projection; two
    # lifts of a row differ by the span of ``ann``, which the projection kills
    projected, form_k = _project(d.pairing, ann, u[:dk])

    core = _core(dk, tuple(sigma_k), form_k, fibers)
    return RestrictedDatum(
        **core,
        nk_basis=nk,
        projected_lifts=projected,
        split=split,
    )


def phi_k_res(d: SphericalDatumK, rd: RestrictedDatum) -> RestrictedRoots:
    """Restrict every root generated by the big spherical roots.

    Restriction is linear: spherical root i restricts to ``rd.sigma_k[t]``
    for i in fiber t, and a compact one to 0, since it cuts out N_k.  The
    indivisible part must coincide with the little root system; a
    mismatch contradicts a theorem that holds for every consistent datum.
    """
    sigma_images = [(0,) * rd.rank] * len(d.sigma)
    for s, fib in zip(rd.sigma_k, rd.fibers):
        for i in fib:
            sigma_images[i] = s
    images = root_images(d.root_base.components, sigma_images)
    rr = RestrictedRoots.of(images + [tuple(-x for x in v) for v in images])
    if rr.indivisible != set(rd.phi_k):
        raise IndivisibilityMismatch(
            "indivisible restricted roots differ from the little root system"
        )
    if any(n not in (1, 2) for n in rd.n_sigma):
        raise IndivisibilityMismatch("a restricted spherical root has multiplier > 2")
    return rr


def coweight_identity_check(d: SphericalDatumK, rd: RestrictedDatum) -> dict:
    """Check that each little coweight is the projected sum over its fiber.

    The dual family on the big side is taken over all spherical roots; the
    projection is linear, so each fiber sum is projected once, all in one
    product with the projected lifts.
    """
    k_coweights = dual_basis(d.sigma, d.pairing)
    sums = [tuple(map(sum, zip(*(k_coweights[tau] for tau in fib)))) for fib in rd.fibers]
    for j, (w, coweight) in enumerate(zip(mat_mul_t(sums, rd.projected_lifts), rd.coweights)):
        if w != coweight:
            raise IdentityFails(f"coweight of restricted root {j} differs from its fiber sum")
    return {"checked": len(rd.fibers)}


def chamber_containment_check(d: SphericalDatumK, rd: RestrictedDatum | None = None) -> dict:
    """Check that the antidominant chamber of the split part lands in Z_k.

    Generators of the chamber cut out by the restricted simple roots of the
    group are pushed through the canonical projection; each restricted
    spherical root must be nonpositive on every image.  Ambient mode only.
    ``rd`` stays optional because perfbench's tracer test passes the datum alone.
    """
    if rd is None:
        rd = restrict_datum(d)
    if d.mode != "ambient":
        return {"checked": 0}
    ix = d.index
    walls = ix.simple_roots.roots
    try:
        a, _ = scaled_inverse(walls)
    except ValueError:
        raise InternalInconsistency(
            "restricted simple roots are not a basis of the split coordinates"
        ) from None
    # minus the columns of a = d * walls^-1 span the chamber; d > 0 keeps every sign
    gens = [tuple(-x for x in col) for col in transpose(a)]
    restricted_xi = [res_A(ix, chi) for chi in d.xi_K.rows_q()]
    images = mat_mul_t(mat_mul_t(gens, restricted_xi), rd.projected_lifts)
    if any(x > 0 for row in mat_mul_t(images, rd.sigma_k) for x in row):
        raise InternalInconsistency(
            "a chamber generator projects outside the valuation cone"
        )
    return {"checked": len(gens)}


def facet_inheritance_check(d: SphericalDatumK, rd: RestrictedDatum) -> dict:
    """Check how the facets of the big valuation cone meet the little one.

    A facet cut by a compact spherical root must restrict to all of Z_k;
    one cut by a noncompact root must trace a facet of Z_k.  Z_k is
    generated by plus and minus ``nk0_basis`` and minus the coweights.
    These, with the coweights scaled to integers (a positive scale keeps
    every ray and every sign), must be ``rd.rank`` independent vectors;
    then the face a restricted root cuts has rank r minus the number of
    them it does not vanish on, so one product decides every facet.
    """
    basis = list(rd.nk0_basis) + [[-x for x in w] for w in scale_rows_integral(rd.coweights)]
    if not len(basis) == rd.rank == rank(basis):
        raise InternalInconsistency("valuation cone is not full dimensional")
    values = mat_mul_t(rd.sigma_k, basis)
    n0 = len(rd.nk0_basis)
    fiber_of = {i: t for t, fib in enumerate(rd.fibers) for i in fib}
    checked = {"full": 0, "facet": 0}
    for i in range(len(d.sigma)):
        if i in rd.split.sigma0:
            if any(dot(d.sigma[i], v) for v in rd.nk_basis):
                raise InternalInconsistency(
                    "a compact spherical root restricts nontrivially"
                )
            checked["full"] += 1
            continue
        row = values[fiber_of[i]]
        lineality, rays = row[:n0], row[n0:]
        if any(lineality) or any(x > 0 for x in rays):
            raise InternalInconsistency(
                "a restricted root is positive somewhere on the valuation cone"
            )
        if sum(map(bool, rays)) != 1:
            raise InternalInconsistency(
                "a big facet does not trace a facet of the little cone"
            )
        checked["facet"] += 1
    return checked


def predicates(d: SphericalDatumK, rd: RestrictedDatum) -> dict:
    satake = True
    for i in rd.split.noncompact:
        s = d.sigma[i]
        for g in d.star_xi:
            if vec_mat(s, g) != s:
                satake = False
    return {
        "k_convex": not rd.nk0_basis,
        "k_wonderful": lattice_index(rd.sigma_k_pr, rd.rank) == 1,
        "k_horospherical": not rd.sigma_k,
        "rank0": rd.rank == 0,
        "satake_open_embedding": satake,
    }


class Localization(Record):
    datum: LittleDatum  # invariants of the localized variety
    xi_basis_in_parent: Mat  # basis of the localized weight lattice
    sigma_k_indices: tuple[int, ...]  # positions of J inside sigma_k
    sigma_K_indices: tuple[int, ...]  # induced big-side spherical roots


def localize(rd: RestrictedDatum, j_indices) -> Localization:
    """Localize at a subset J of the restricted spherical roots.

    The new weight lattice is the saturation of the old one inside the
    orthogonal of the standard-fan face spanned by the coweights outside J.
    """
    if rd.nk0_basis:
        raise NotConvex("valuation cone is not strictly convex")
    j = sorted(set(j_indices))
    out = [t for t in range(len(rd.sigma_k)) if t not in j]
    rays = [rd.coweights[t] for t in out]
    new_basis = integer_kernel(rays, width=rd.rank)
    lat = Lattice(rd.rank, new_basis)
    sigma_new = [lat.coordinates(rd.sigma_k[t]) for t in j]
    form_new = gram(new_basis, rd.form_k)
    fibers = [rd.fibers[t] for t in j]
    core = _core(len(new_basis), tuple(sigma_new), form_new, fibers)
    sub = LittleDatum(**core)
    sigma_K = sorted(set(i for t in j for i in rd.fibers[t]) | set(rd.split.sigma0))
    return Localization(
        datum=sub,
        xi_basis_in_parent=new_basis,
        sigma_k_indices=tuple(j),
        sigma_K_indices=tuple(sigma_K),
    )


class AutRoots(Record):
    roots: Mat  # n_aut * primitive root, a basis of the given sublattice
    n_aut: tuple[int, ...]


def aut_roots(rd: LittleDatum, gamma: Lattice) -> AutRoots:
    """Spherical roots of the quotient by a group of automorphisms.

    ``gamma`` is the character sublattice of the quotient; it must sit
    between the lattice spanned by the restricted roots and the full
    little weight lattice.
    """
    if gamma.ambient_rank != rd.rank:
        raise NotBetween("sublattice has the wrong ambient rank")
    if any(x.denominator != 1 for r in gamma.rows_q() for x in r):
        raise NotBetween("sublattice is not contained in the weight lattice")
    for s in rd.sigma_k:
        if not gamma.contains(s):
            raise NotBetween("sublattice does not contain the restricted roots")

    roots, mults = [], []
    for p in rd.sigma_k_pr:
        c = gamma.coordinates(p)
        if c is None:
            raise NotBetween("restricted root leaves the span of the sublattice")
        n = lcm(*(x.denominator for x in c)) if c else 1
        roots.append(tuple(n * x for x in p))
        mults.append(n)
    if any(n not in (1, 2) for n in mults):
        raise BasisFailure("an automorphism-quotient multiplier exceeded 2")
    if roots and Lattice.from_rows(rd.rank, roots) != gamma:
        raise BasisFailure("quotient roots do not form a basis of the sublattice")
    if not roots and gamma.rank != 0:
        raise BasisFailure("quotient roots do not form a basis of the sublattice")
    return AutRoots(roots=tuple(roots), n_aut=tuple(mults))
