"""Restriction of a spherical datum to the small field.

Everything happens in coordinates of the weight-lattice basis fixed by the
datum.  The little cocharacter space N_k is cut out of N_K by the compact
spherical roots and the star action; characters restrict to N_k by
evaluation, and the invariant form is transported through the orthogonal
projection onto the complement of the annihilator of N_k.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .datum import CompactRootSplit, SphericalDatumK, compact_split
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
    dot,
    dual_basis,
    gram,
    hermite_normal_form,
    identity,
    integer_kernel,
    inverse,
    is_zero_vec,
    mat_mul,
    minus_identity,
    primitive_multiple,
    rank,
    rref,
    solve,
    transpose,
    vec_mat,
)
from .rootsys import RootBase, cartan_matrix, classify, generate_roots, weyl_order


@dataclass(frozen=True)
class LittleDatum:
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
        if not self.wk_types:
            return "trivial"
        return " x ".join(f"{f}{r}" for f, r in self.wk_types)


@dataclass(frozen=True)
class RestrictedDatum(LittleDatum):
    """All little-field invariants of a spherical datum.

    Adds the maps between the big and little sides that the structural
    checks need.
    """

    nk_basis: Mat
    xik_image_basis: Mat
    projected_lifts: Mat  # lifts of xik_image_basis rows, projected off the annihilator
    split: CompactRootSplit


def _annihilator(d: SphericalDatumK, split: CompactRootSplit) -> list[Vec]:
    """Rows cutting out N_k: the compact spherical roots and g - 1 for each star g."""
    rows = [d.sigma[i] for i in split.sigma0]
    for g in d.star_xi:
        rows += minus_identity(g)
    return rows


def little_space(d: SphericalDatumK) -> Mat:
    """Saturated integral basis of N_k = {a : sigma0(a)=0, star-fixed}."""
    ann = _annihilator(d, compact_split(d))
    return integer_kernel(ann, width=d.m)


def _projection_matrix(f: Mat, rows: list[Vec]) -> Mat:
    """Orthogonal projection under ``f`` onto the complement of the span of ``rows``."""
    m = len(f)
    # the pivots pick an independent spanning subset; P depends only on the span
    _, pivots = rref(transpose(rows))
    ident = identity(m)
    if not pivots:
        return ident
    u = tuple(rows[i] for i in pivots)
    ginv = inverse(gram(u, f))
    # P = I - F U^T G^{-1} U  (rows act on the right)
    fut = mat_mul(f, transpose(u))
    corr = mat_mul(mat_mul(fut, ginv), u)
    return tuple(
        tuple(ident[i][j] - corr[i][j] for j in range(m)) for i in range(m)
    )


def _core(rank_: int, sigma_rows: Mat, form: Mat, fibers) -> dict:
    if sigma_rows:
        base = RootBase.from_vectors(sigma_rows, form)
        c = cartan_matrix(base)
        comps = classify(c)
        types = tuple((f, r) for f, r, _ in comps)
        order = weyl_order(types)
        phi = tuple(generate_roots(base, comps))
        nk0 = integer_kernel(sigma_rows, width=rank_)
        coweights = dual_basis(sigma_rows, form)
        lat = Lattice.standard(rank_)
        prim, mult = [], []
        for s in sigma_rows:
            p, n = primitive_multiple(s, lat)
            prim.append(p)
            mult.append(int(n))
    else:
        types, order, phi = (), 1, ()
        nk0 = identity(rank_)
        coweights, prim, mult = (), [], []
    return dict(
        rank=rank_,
        sigma_k=sigma_rows,
        fibers=tuple(tuple(f) for f in fibers),
        sigma_k_pr=tuple(prim),
        n_sigma=tuple(mult),
        form_k=form,
        phi_k=phi,
        wk_types=types,
        wk_order=order,
        nk0_basis=nk0,
        coweights=coweights,
    )


def _raw_res(nk: Mat, chi) -> Vec:
    return tuple(dot(chi, v) for v in nk)


def _to_little(nk: Mat, little: Lattice, chi) -> Vec:
    """Restriction of a big character to N_k, in the little-lattice basis."""
    c = little.coordinates(_raw_res(nk, chi))
    if c is None:
        raise FiberMismatch("restriction left the little weight lattice span")
    return c


def restrict_datum(d: SphericalDatumK) -> RestrictedDatum:
    split = compact_split(d)
    ann = _annihilator(d, split)
    nk = integer_kernel(ann, width=d.m)
    dk = len(nk)
    # canonical basis of the little weight lattice, generated by the restrictions
    # of the coordinate characters; row i of u restricts to basis row i
    h, u = hermite_normal_form(transpose(nk))
    l_basis = tuple(tuple(r) for r in h[:dk])
    little = Lattice(dk, l_basis)

    # restricted spherical roots with their fibers, in input order
    sigma_k: list[Vec] = []
    fibers: list[list[int]] = []
    for i in split.noncompact:
        y = _to_little(nk, little, d.sigma[i])
        if y in sigma_k:
            fibers[sigma_k.index(y)].append(i)
        else:
            sigma_k.append(y)
            fibers.append([i])
    for fib in fibers:
        orbit = d.star_orbit_of_root(fib[0])
        if tuple(sorted(fib)) != orbit:
            raise FiberMismatch(
                f"roots {sorted(fib)} restrict equally but the star orbit is {list(orbit)}"
            )

    # transport the invariant form through the orthogonal projection; two
    # lifts of a row differ by the span of ``ann``, which the projection kills
    f = d.pairing
    p = _projection_matrix(f, ann)
    projected = tuple(vec_mat(chi, p) for chi in u[:dk])

    core = _core(dk, tuple(sigma_k), gram(projected, f), fibers)
    return RestrictedDatum(
        **core,
        nk_basis=nk,
        xik_image_basis=l_basis,
        projected_lifts=projected,
        split=split,
    )


@dataclass(frozen=True)
class RestrictedRoots:
    """Multiset of nonzero restrictions of the big-field root system."""

    multiplicities: tuple[tuple[Vec, int], ...]
    indivisible: tuple[Vec, ...]
    reduced: bool


def phi_k_res(d: SphericalDatumK, rd: RestrictedDatum | None = None) -> RestrictedRoots:
    """Restrict every root generated by the big spherical roots.

    The indivisible part must coincide with the little root system; a
    mismatch contradicts a theorem that holds for every consistent datum.
    """
    if rd is None:
        rd = restrict_datum(d)
    counts: Counter[Vec] = Counter()
    if d.sigma:
        base = RootBase.from_vectors(d.sigma, d.pairing)
        little = Lattice(rd.rank, rd.xik_image_basis)
        for root in generate_roots(base):
            y = _to_little(rd.nk_basis, little, root)
            if not is_zero_vec(y):
                counts[y] += 1
    support = set(counts)

    def divisible(r):
        return any(
            tuple(Fraction(x, n) for x in r) in support
            for n in range(2, max((abs(x.numerator) for x in r), default=1) + 1)
        )

    indivisible = tuple(sorted(r for r in support if not divisible(r)))
    reduced = len(indivisible) == len(support)
    if set(indivisible) != set(rd.phi_k):
        raise IndivisibilityMismatch(
            "indivisible restricted roots differ from the little root system"
        )
    if any(n not in (1, 2) for n in rd.n_sigma):
        raise IndivisibilityMismatch("a restricted spherical root has multiplier > 2")
    return RestrictedRoots(
        multiplicities=tuple(sorted(counts.items())),
        indivisible=indivisible,
        reduced=reduced,
    )


@dataclass(frozen=True)
class ValuationCone:
    inequalities: Mat  # the restricted spherical roots
    lineality: Mat  # basis of the common kernel, dual coordinates
    extremal_rays: Mat  # present exactly when the cone is strictly convex


def valuation_cone(rd: LittleDatum) -> ValuationCone:
    strictly_convex = not rd.nk0_basis
    rays = ()
    if strictly_convex and rd.coweights:
        rays = tuple(tuple(-x for x in w) for w in rd.coweights)
    return ValuationCone(
        inequalities=rd.sigma_k, lineality=rd.nk0_basis, extremal_rays=rays
    )


def project_to_little(rd: RestrictedDatum, u) -> Vec:
    """Projection of a big cocharacter into N_k, in dual coordinates."""
    return tuple(dot(chi, u) for chi in rd.projected_lifts)


def coweight_identity_check(d: SphericalDatumK, rd: RestrictedDatum | None = None) -> dict:
    """Check that each little coweight is the projected sum over its fiber.

    The dual family on the big side is taken over all spherical roots; the
    identity is then verified fiber by fiber.
    """
    if rd is None:
        rd = restrict_datum(d)
    if not d.sigma:
        return {"checked": 0}
    k_coweights = dual_basis(d.sigma, d.pairing)
    checked = 0
    for j, fib in enumerate(rd.fibers):
        total = (0,) * rd.rank
        for tau in fib:
            total = tuple(
                a + b for a, b in zip(total, project_to_little(rd, k_coweights[tau]))
            )
        if total != rd.coweights[j]:
            raise IdentityFails(
                f"coweight of restricted root {j} differs from its fiber sum"
            )
        checked += 1
    return {"checked": checked}


def chamber_containment_check(d: SphericalDatumK, rd: RestrictedDatum | None = None) -> dict:
    """Check that the antidominant chamber of the split part lands in Z_k.

    Generators of the chamber cut out by the restricted simple roots of the
    group are pushed through the canonical projection; each restricted
    spherical root must be nonpositive on the image.  Ambient mode only.
    """
    if rd is None:
        rd = restrict_datum(d)
    if d.mode != "ambient":
        return {"checked": 0}
    ix = d.index
    width = len(ix.split)
    if not width:
        return {"checked": 0}
    walls = ix.simple_roots.roots
    lin = integer_kernel(walls, width=width)
    gens = list(lin) + [tuple(-x for x in g) for g in lin]
    for i in range(len(walls)):
        x = solve(walls, [-int(i == t) for t in range(len(walls))])
        if x is None:
            raise InternalInconsistency("restricted simple roots are dependent")
        gens.append(x)
    restricted_xi = [res_A(ix, chi) for chi in d.xi_K.rows_q()]
    for t in gens:
        u = tuple(dot(chi, t) for chi in restricted_xi)
        s = project_to_little(rd, u)
        for sbar in rd.sigma_k:
            if dot(sbar, s) > 0:
                raise InternalInconsistency(
                    "a chamber generator projects outside the valuation cone"
                )
    return {"checked": len(gens)}


def facet_inheritance_check(d: SphericalDatumK, rd: RestrictedDatum | None = None) -> dict:
    """Check how the facets of the big valuation cone meet the little one.

    A facet cut by a compact spherical root must restrict to all of Z_k;
    one cut by a noncompact root must trace a facet of Z_k.
    """
    if rd is None:
        rd = restrict_datum(d)
    gens = list(rd.nk0_basis)
    gens += [tuple(-x for x in g) for g in rd.nk0_basis]
    gens += [tuple(-x for x in w) for w in rd.coweights]
    if rd.rank and rank(gens) != rd.rank:
        raise InternalInconsistency("valuation cone is not full dimensional")
    fiber_of = {i: t for t, fib in enumerate(rd.fibers) for i in fib}
    checked = {"full": 0, "facet": 0}
    for i in range(len(d.sigma)):
        if i in rd.split.sigma0:
            raw = _raw_res(rd.nk_basis, d.sigma[i]) if rd.nk_basis else ()
            if not is_zero_vec(raw):
                raise InternalInconsistency(
                    "a compact spherical root restricts nontrivially"
                )
            checked["full"] += 1
            continue
        sbar = rd.sigma_k[fiber_of[i]]
        vals = [dot(sbar, g) for g in gens]
        if any(x > 0 for x in vals):
            raise InternalInconsistency(
                "a restricted root is positive somewhere on the valuation cone"
            )
        face = [g for g, x in zip(gens, vals) if x == 0]
        if rank(face) != rd.rank - 1:
            raise InternalInconsistency(
                "a big facet does not trace a facet of the little cone"
            )
        checked["facet"] += 1
    return checked


def predicates(d: SphericalDatumK, rd: RestrictedDatum | None = None) -> dict:
    if rd is None:
        rd = restrict_datum(d)
    det1 = False
    if len(rd.sigma_k_pr) == rd.rank and rd.rank > 0:
        h, _ = hermite_normal_form([[int(x) for x in r] for r in rd.sigma_k_pr])
        prod = 1
        for i in range(rd.rank):
            prod *= h[i][i]
        det1 = abs(prod) == 1
    if rd.rank == 0:
        det1 = True
    satake = True
    for i in rd.split.noncompact:
        s = d.sigma[i]
        for g in d.star_xi:
            if vec_mat(s, g) != s:
                satake = False
    return {
        "k_convex": not rd.nk0_basis,
        "k_wonderful": det1,
        "k_horospherical": not rd.sigma_k,
        "rank0": rd.rank == 0,
        "satake_open_embedding": satake,
    }


@dataclass(frozen=True)
class Localization:
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
    j = sorted(set(int(t) for t in j_indices))
    if j and not (0 <= j[0] and j[-1] < len(rd.sigma_k)):
        raise KeyError("localization index out of range")
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


@dataclass(frozen=True)
class AutRoots:
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
