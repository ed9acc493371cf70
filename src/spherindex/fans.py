"""Simplicial fans in the little cocharacter space.

Cones live in the dual coordinates of the canonical little weight basis,
so the relevant integer lattice is the standard one.  Cones are simplicial
by design: faces are generator subsets and all incidence questions reduce
to exact linear algebra and rational feasibility checks.  A fan keeps each
distinct ray once, in a sorted table, and each cone as the sorted tuple of
its rays' indices: faces, facets and walls are index subsets, per-ray data
is computed once per ray, and generator rows are built for the report only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import SpherindexError
from .linalg import (
    Mat,
    dot,
    find_feasible,
    hermite_normal_form,
    integer_kernel,
    lattice_index,
    primitive_vector,
    rank,
    scaled_inverse,
    transpose,
    vec_mat,
)
from .record import Record
from .restrict import RestrictedDatum
from .rootsys import orbit, weyl_order

ORBIT_CAP_ENV = "SPHERINDEX_ORBIT_CAP"
HARD_ORBIT_CEILING = 100_000

Cone = tuple[int, ...]  # the sorted indices of a cone's generators in the ray table


def faces(c):
    """The sub-tuples of a sorted tuple by size, each size in lexicographic
    order: the faces of a simplicial cone, in the order of a fan."""
    return (s for k in range(len(c) + 1) for s in combinations(c, k))


def _facets(c):
    return combinations(c, len(c) - 1) if c else ()


class Fan(Record):
    rays: Mat  # the distinct generators, sorted
    cones: tuple[Cone, ...]  # closed under faces but for overfull cones, by dimension, then generators

    @staticmethod
    def of(rays, cones) -> "Fan":
        """The fan of the distinct cones over a table of distinct rays, renumbered so
        that the table is sorted: index tuples then sort as their generators do."""
        order = sorted(range(len(rays)), key=rays.__getitem__)
        new = {i: k for k, i in enumerate(order)}
        cones = {tuple(sorted(map(new.__getitem__, c))) for c in cones}
        return Fan(tuple(map(rays.__getitem__, order)), tuple(sorted(sorted(cones), key=len)))

    @staticmethod
    def from_maximal(gen_lists) -> "Fan":
        """The given cones of integer rows, taken as they are, and their faces; an overfull
        cone, with more generators than coordinates, is kept as given, for validation to report once."""
        given = [list(map(tuple, rows)) for rows in gen_lists]
        rays = sorted({g for rows in given for g in rows})
        index = {g: i for i, g in enumerate(rays)}
        cones = {()}
        for rows in given:
            c = tuple(sorted(map(index.__getitem__, rows)))
            cones.update([c] if len(c) > min(map(len, rows), default=0) else faces(c))
        return Fan.of(rays, cones)

    @cached_property
    def generators(self) -> tuple[Mat, ...]:
        """The generator rows of each cone, in the order of ``cones``."""
        return tuple(tuple(map(self.rays.__getitem__, c)) for c in self.cones)

    @cached_property
    def maximal_cones(self) -> tuple[Cone, ...]:
        """The cones that are not a facet of a cone: every cone is a face of one."""
        facets = {w for c in self.cones for w in _facets(c)}
        return tuple(c for c in self.cones if c not in facets)

    @cached_property
    def walls(self) -> dict[Cone, list[Cone]]:
        """Each facet of a maximal cone, with the maximal cones it is a facet of."""
        out: dict[Cone, list[Cone]] = {}
        for c in self.maximal_cones:
            for w in _facets(c):
                out.setdefault(w, []).append(c)
        return out

    @cached_property
    def normals(self) -> dict[Cone, tuple[Mat, int]]:
        """(rows, d) for each full-dimensional maximal cone of independent
        generators: d = |det| is its lattice index, and rows[i] is d times the
        dual vector of generator i, the normal of the facet opposite it.  One
        cone per component of the wall graph is inverted, and each wall crossed
        from C to a C' that swaps generator i of C for g is one update: with
        t_j = rows[j].g, d' = |t_i|, rows'[i] = sgn(t_i) rows[i] and rows'[j] =
        sgn(t_i) (t_i rows[j] - t_j rows[i]) / d, exact since rows'[j] is a row of
        the adjugate of C' up to sign (Sylvester's identity, Bareiss 1968); t_i = 0
        makes C' singular.  (d' C'^-1, d') is unique: the walk's order never shows."""
        out = {}  # None: the cone is singular
        for root in self.maximal_cones:
            if not root or root in out or any(len(self.rays[i]) != len(root) for i in root):
                continue
            try:
                a, d = scaled_inverse([self.rays[i] for i in root])
            except ValueError:
                continue
            out[root] = (transpose(a), d)
            queue = [root]
            for c in queue:  # the queue grows while it is read
                rows, d = out[c]
                for i, ri in enumerate(rows):
                    w = c[:i] + c[i + 1 :]
                    for c2 in self.walls[w]:  # q: the generator of c2 off the wall
                        if c2 in out or len(g := self.rays[q := sum(c2) - sum(w)]) != len(c):
                            continue
                        t = [dot(r, g) for r in rows]
                        if not (ti := t[i]):
                            out[c2] = None
                            continue
                        s = 1 if ti > 0 else -1
                        new = {k: tuple([s * (ti * x - tj * y) // d for x, y in zip(r, ri)]) for k, r, tj in zip(c, rows, t)}
                        new[q] = tuple([s * y for y in ri])  # new[c[i]] is 0, and C' lacks c[i]
                        out[c2] = (tuple(map(new.__getitem__, c2)), abs(ti))
                        queue.append(c2)
        return {c: out[c] for c in self.maximal_cones if out.get(c)}

    @cached_property
    def unimodular_home(self) -> dict[Cone, Cone]:
        """A unimodular full-dimensional maximal cone over each cone that lies in one:
        the faces of each such cone, walked down its facets."""
        queue = [c for c, (_, d) in self.normals.items() if d == 1]
        home = dict(zip(queue, queue))
        for c in queue:  # the queue grows while it is read
            for w in _facets(c):
                if w not in home:
                    home[w] = home[c]
                    queue.append(w)
        return home


class FanIssue(Record):
    kind: str
    detail: str


def _pair_intersection_is_face(rays, c1: Cone, c2: Cone) -> bool:
    """Separating-functional test: C1 and C2 meet exactly in cone(G1 & G2)."""
    common = set(c1) & set(c2)
    only1 = [rays[i] for i in c1 if i not in common]
    only2 = [rays[i] for i in c2 if i not in common]
    n = len(rays[(c1 or c2)[0]])
    a_ub = only1 + [tuple(-x for x in g) for g in only2]
    b_ub = [-1] * len(a_ub)
    a_eq = [rays[i] for i in sorted(common)]
    b_eq = [0] * len(a_eq)
    phi = find_feasible(a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nvars=n)
    return phi is not None


def _complete_by_walls(f: Fan) -> bool:
    """Whether the maximal cones form a complete fan, decided without an LP.

    Full-dimensional simplicial cones form a complete fan when every wall
    is a facet of exactly two of them, which lie on opposite sides of it,
    and one point on no wall lies in exactly one of them (the pseudo-manifold
    characterisation of triangulations: De Loera, Rambau and Santos,
    *Triangulations*, 2010, ch. 4).  Crossing a wall leaves one cone and
    enters another, so every point on no wall lies in exactly one cone.
    False means undecided, not broken.
    """
    maximal = f.maximal_cones
    if not maximal or not maximal[0] or any(len(cs) != 2 for cs in f.walls.values()):
        return False
    n = len(f.rays[maximal[0][0]])
    if any(len(c) != n or c not in f.normals for c in maximal):
        return False
    # the facet normals give a point's coordinates in the cone, up to d > 0
    for w, (c1, c2) in f.walls.items():
        i = next(i for i, g in enumerate(c1) if g not in w)
        (q,) = set(c2) - set(w)
        if dot(f.rays[q], f.normals[c1][0][i]) >= 0:
            return False
    point = [sum(col) for col in zip(*(f.rays[i] for i in maximal[0]))]
    inside = 0
    for c in maximal:
        coords = [dot(point, nu) for nu in f.normals[c][0]]
        if 0 in coords:
            return False
        inside += all(x > 0 for x in coords)
    return inside == 1


def _intersection_issues(f: Fan) -> list[FanIssue]:
    """One issue per pair of cones that do not meet in a common face.

    Every cone of a simplicial collection is a face of a maximal cone, and
    faces of two simplicial cones that meet in a common face meet in a
    common face, so the maximal pairs decide; a complete fan is recognised
    by its walls first.  Only when a maximal pair fails are all pairs
    listed, in the order of ``f.cones``.
    """
    if _complete_by_walls(f) or all(
        _pair_intersection_is_face(f.rays, c1, c2) for c1, c2 in combinations(f.maximal_cones, 2)
    ):
        return []
    return [
        FanIssue("intersection_not_a_face", f"{g1} vs {g2}")
        for (c1, g1), (c2, g2) in combinations(zip(f.cones, f.generators), 2)
        if not _pair_intersection_is_face(f.rays, c1, c2)
    ]


def fan_validate(f: Fan, rd: RestrictedDatum) -> list[FanIssue]:
    """The issues of each kind in the order of ``f.cones``.  A subset of independent
    vectors is independent, so only the maximal cones are tested, and each ray
    once; the cones are walked only to list what failed."""
    # the index of each zero or non-primitive ray, with whether it is zero
    bad = {i: not any(g) for i, g in enumerate(f.rays) if not any(g) or g != primitive_vector(g)}
    issues: list[FanIssue] = []
    # a square cone is independent exactly when ``f.normals`` could invert it
    if bad or any(c and c not in f.normals and rank([f.rays[i] for i in c]) != len(c) for c in f.maximal_cones):
        for c, gens in zip(f.cones, f.generators):
            for i in c:
                if bad.get(i):
                    issues.append(FanIssue("zero_generator", f"cone {gens}"))
                elif i in bad:
                    issues.append(FanIssue("not_primitive", f"generator {f.rays[i]}"))
            if c and rank(gens) != len(c):
                issues.append(FanIssue("not_simplicial", f"cone {gens}"))
    if not any(i.kind in ("not_simplicial", "zero_generator") for i in issues):
        issues += _intersection_issues(f)
    # print the root as Fractions: the text must not depend on the entry type
    outside = [
        [f"generator {g} violates {tuple(map(Fraction, s))}" for s in rd.sigma_k if dot(s, g) > 0]
        for g in f.rays
    ]
    if any(outside):
        issues += [FanIssue("outside_support", t) for c in f.cones for i in c for t in outside[i]]
    return issues


def is_complete_for(f: Fan, rd: RestrictedDatum) -> bool:
    """Wall criterion for supp(fan) = Z_k, on a fan that ``fan_validate`` passed.

    Every maximal cone must be full-dimensional and every wall must either
    lie in a bounding hyperplane of Z_k or be shared by exactly two maximal
    cones.  With no restricted roots this is classical completeness.
    """
    # the valuation cone is always full-dimensional, so maximal cones must be
    # (the zero cone alone covers only a zero-dimensional space); a wall of one
    # maximal cone must lie in a bounding hyperplane of Z_k
    if any(len(c) != rd.rank for c in f.maximal_cones):
        return False
    return all(
        len(cones) == 2
        or len(cones) == 1
        and any(any(s) and all(dot(s, f.rays[i]) == 0 for i in w) for s in rd.sigma_k)
        for w, cones in f.walls.items()
    )


def is_smooth(f: Fan) -> tuple[bool, ...]:
    """Per-cone unimodularity against the standard dual lattice, in the order of
    ``f.cones``: the generators extend to a basis of Z^n iff their maximal minors
    have gcd 1.  A face of a unimodular cone is unimodular, so only cones in no
    unimodular full-dimensional maximal cone are tested."""
    home = f.unimodular_home
    return tuple(
        c in home or lattice_index(transpose([f.rays[i] for i in c]), len(c)) == 1 for c in f.cones
    )


def standard_fan(rd: RestrictedDatum) -> Fan:
    """Faces of the valuation cone, one per subset of the spherical roots."""
    if len(rd.sigma_k) != rd.rank:
        raise SpherindexError("valuation cone is not strictly convex")
    return Fan.from_maximal([[primitive_vector(tuple(-x for x in w)) for w in rd.coweights]])


def cone_membership(v, rd: RestrictedDatum) -> bool:
    return all(dot(s, v) <= 0 for s in rd.sigma_k)


class Stratum(Record):
    lattice_basis: Mat  # basis of the stratum weight lattice, parent coords; rank - len(cone) rows
    sigma_indices: tuple[int, ...]  # restricted roots vanishing on the cone
    horospherical: bool


def strata(f: Fan, rd: RestrictedDatum) -> tuple[Stratum, ...]:
    """The stratum of each cone, in the order of ``f.cones``.  The saturated kernel
    of a face of a unimodular cone is spanned by the dual vectors of the generators
    it misses, read off the inverse of a unimodular full-dimensional maximal cone.
    Each root is evaluated once per ray, where two bitmasks keep the roots that
    vanish on it and those that are >= 0 on it: the ANDs of a cone's masks are
    the roots that vanish on it and those >= 0 on all of it (say, every root on
    the zero cone).  Precondition: every cone lies in some w.Z_k, w in W_k.
    Then a cone meets the interior of Z_k exactly when no root is >= 0 on all of
    it: in Z_k every root is < 0 on the sum of such a cone's generators, and for
    w != 1 some simple root is >= 0 on all of w.Z_k (Humphreys, *Reflection
    Groups and Coxeter Groups*, 1.6-1.12)."""
    values = [[dot(s, g) for s in rd.sigma_k] for g in f.rays]
    vanish = [sum(1 << j for j, v in enumerate(row) if v == 0) for row in values]
    nonneg = [sum(1 << j for j, v in enumerate(row) if v >= 0) for row in values]
    every = (1 << len(rd.sigma_k)) - 1
    labels: dict[int, tuple[int, ...]] = {}
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}  # one object per distinct basis row: the writer tells rows apart by id
    home = f.unimodular_home
    nodes = []
    for c in f.cones:
        zero = positive = every
        for i in c:
            zero &= vanish[i]
            positive &= nonneg[i]
        if zero not in labels:
            labels[zero] = tuple(j for j in range(len(rd.sigma_k)) if zero >> j & 1)
        if c in home:
            m = home[c]
            duals = [nu for i, nu in zip(m, f.normals[m][0]) if i not in c]
            basis = hermite_normal_form(duals)
        else:
            basis = integer_kernel([f.rays[i] for i in c], width=rd.rank)
        basis = tuple(rows.setdefault(r, r) for r in map(tuple, basis))
        nodes.append(Stratum(basis, labels[zero], not positive))
    return tuple(nodes)


def _reflection_on_dual(rd: RestrictedDatum, s) -> Mat:
    """(s, s) > 0 times the matrix of s_sigma on dual coordinates (rows act
    on the right): the primitive images of rays are the same."""
    fs = [dot(row, s) for row in rd.form_k]  # (a_i, s) for each basis character a_i
    ss = dot(s, fs)
    # on characters: a_i -> a_i - (2 (a_i, s)/(s, s)) s; the dual action is the transpose
    return tuple(tuple(ss * int(i == j) - 2 * fs[i] * s[j] for i in range(rd.rank)) for j in range(rd.rank))


def weyl_saturate(f: Fan, rd: RestrictedDatum, cap: int | None = None) -> Fan:
    """Orbit of the fan under the little Weyl group, of at most ``cap`` cones
    (default |W_k| times the given cones, clamped to HARD_ORBIT_CEILING).
    The orbit of a fan closed under faces is the faces of its maximal cones'
    images, counted as the orbit yields each image, so the cap stops it early.
    Each reflection is a permutation of the ray table, which grows as new rays
    appear: each ray is reflected once, and an image is a sorted index tuple."""
    if cap is None:
        cap = weyl_order(rd.roots.types) * max(len(f.cones), 1)
    limit = min(cap, HARD_ORBIT_CEILING)
    hint = f"{cap} clamped to HARD_ORBIT_CEILING" if cap > limit else f"set {ORBIT_CAP_ENV}"
    refl = [_reflection_on_dual(rd, s) for s in rd.sigma_k]
    rays = list(f.rays)
    index = {g: i for i, g in enumerate(rays)}
    moved = []  # moved[i][j]: the index of the image of ray i under reflection j

    def images(c):
        while len(moved) <= (c[-1] if c else -1):
            row = [primitive_vector(vec_mat(rays[len(moved)], m)) for m in refl]
            for g in row:
                if index.setdefault(g, len(rays)) == len(rays):
                    rays.append(g)
            moved.append([index[g] for g in row])
        for img in zip(*map(moved.__getitem__, c)):
            yield tuple(sorted(img))

    cones = set(f.cones)
    for img in orbit(f.maximal_cones, images):
        # a cone in the set has its faces there, overfull ones aside: walk new facets
        # down; every ray has rd.rank coordinates, or it could not be reflected
        todo = list(faces(img)) if len(img) > rd.rank else [img]
        while todo:
            if (c := todo.pop()) not in cones:
                cones.add(c)
                if len(cones) > limit:
                    raise SpherindexError(
                        f"Weyl saturation reached {len(cones)} cones > cap {limit} ({hint})"
                    )
                todo.extend(_facets(c))
    return Fan.of(rays, cones)
