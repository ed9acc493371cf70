"""Simplicial fans in the little cocharacter space.

Cones live in the dual coordinates of the canonical little weight basis,
so the relevant integer lattice is the standard one.  Cones are simplicial
by design: faces are generator subsets and all incidence questions reduce
to exact linear algebra and rational feasibility checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import BudgetExceeded, NotConvex
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
from .restrict import LittleDatum
from .rootsys import orbit

ORBIT_CAP_ENV = "SPHERINDEX_ORBIT_CAP"
HARD_ORBIT_CEILING = 100_000


class Cone(Record):
    generators: tuple[tuple[int, ...], ...]  # lex-sorted primitive rows

    def __init__(self, generators):  # hashed once: sets and dicts would rehash the nested tuples
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_hash", hash(generators))

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(rows) -> "Cone":
        rows = tuple(sorted(tuple(int(x) for x in r) for r in rows))
        return Cone(rows)

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def overfull(self) -> bool:
        """More generators than coordinates: not simplicial, with 2^dim faces."""
        return self.dim > min(map(len, self.generators), default=0)

    # a subset of the sorted generators is sorted: faces need no Cone.of
    def faces(self):
        for k in range(self.dim + 1):
            for sub in combinations(self.generators, k):
                yield Cone(sub)

    def facets(self):
        for sub in combinations(self.generators, self.dim - 1):
            yield Cone(sub)


class Fan(Record):
    cones: tuple[Cone, ...]  # closed under faces but for overfull cones, sorted

    @staticmethod
    def of(cones) -> "Fan":
        """The fan of distinct cones, in the order of dimension, then generators."""
        return Fan(tuple(sorted(cones, key=lambda c: (c.dim, c.generators))))

    @staticmethod
    def from_maximal(gen_lists) -> "Fan":
        """The given cones and their faces; an overfull cone is kept as given,
        for validation to report once."""
        cones = {Cone(())}
        for rows in gen_lists:
            cone = Cone.of(rows)
            cones.update([cone] if cone.overfull else cone.faces())
        return Fan.of(cones)

    @cached_property
    def facet_map(self) -> dict[Cone, tuple[Cone, ...]]:
        """The facets of each cone: the facet relation, built once per fan."""
        return {c: tuple(c.facets()) if c.dim else () for c in self.cones}

    @cached_property
    def maximal_cones(self) -> tuple[Cone, ...]:
        """The cones that are not a facet of a cone: every cone is a face of one."""
        facets = {w for ws in self.facet_map.values() for w in ws}
        return tuple(c for c in self.cones if c not in facets)

    @cached_property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        """The distinct generators: each is a generator of a maximal cone."""
        return tuple(dict.fromkeys(g for c in self.maximal_cones for g in c.generators))

    @cached_property
    def walls(self) -> dict[Cone, list[Cone]]:
        """Each facet of a maximal cone, with the maximal cones it is a facet of."""
        out: dict[Cone, list[Cone]] = {}
        for c in self.maximal_cones:
            for w in self.facet_map[c]:
                out.setdefault(w, []).append(c)
        return out

    @cached_property
    def normals(self) -> dict[Cone, tuple[Mat, int]]:
        """(rows, d) for each full-dimensional maximal cone of independent
        generators: d = |det| is its lattice index, and rows[i] is d times the
        dual vector of generator i, the normal of the facet opposite it."""
        out = {}
        for c in self.maximal_cones:
            if c.generators and all(len(g) == c.dim for g in c.generators):
                try:
                    a, d = scaled_inverse(c.generators)
                except ValueError:
                    continue
                out[c] = (transpose(a), d)
        return out

    @cached_property
    def unimodular_home(self) -> dict[Cone, Cone]:
        """A unimodular full-dimensional maximal cone over each cone that lies in one."""
        home = {c: c for c, (_, d) in self.normals.items() if d == 1}
        for c in reversed(self.cones):  # by decreasing dimension
            if c in home:
                for w in self.facet_map[c]:
                    home.setdefault(w, home[c])
        return home


class FanIssue(Record):
    kind: str
    detail: str


def _pair_intersection_is_face(c1: Cone, c2: Cone) -> bool:
    """Separating-functional test: C1 and C2 meet exactly in cone(G1 & G2)."""
    common = set(c1.generators) & set(c2.generators)
    only1 = [g for g in c1.generators if g not in common]
    only2 = [g for g in c2.generators if g not in common]
    if not only1 and not only2:
        return True
    n = len((c1.generators or c2.generators)[0])
    a_ub = only1 + [tuple(-x for x in g) for g in only2]
    b_ub = [-1] * len(a_ub)
    a_eq = list(common)
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
    if not maximal or not maximal[0].generators or any(len(cs) != 2 for cs in f.walls.values()):
        return False
    n = len(maximal[0].generators[0])
    if any(c.dim != n or c not in f.normals for c in maximal):
        return False
    # the facet normals give a point's coordinates in the cone, up to d > 0
    for w, (c1, c2) in f.walls.items():
        i = next(i for i, g in enumerate(c1.generators) if g not in w.generators)
        (q,) = set(c2.generators) - set(w.generators)
        if dot(q, f.normals[c1][0][i]) >= 0:
            return False
    point = [sum(col) for col in zip(*maximal[0].generators)]
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
        _pair_intersection_is_face(c1, c2) for c1, c2 in combinations(f.maximal_cones, 2)
    ):
        return []
    return [
        FanIssue("intersection_not_a_face", f"{c1.generators} vs {c2.generators}")
        for c1, c2 in combinations(f.cones, 2)
        if not _pair_intersection_is_face(c1, c2)
    ]


def fan_validate(f: Fan, rd: LittleDatum) -> list[FanIssue]:
    """The issues of each kind in the order of ``f.cones``.  A subset of independent
    vectors is independent, so only the maximal cones are tested, and each distinct
    generator once; the cones are walked only to list what failed."""
    # each zero or non-primitive generator, with whether it is zero
    bad = {g: not any(g) for g in f.rays if not any(g) or g != primitive_vector(g)}
    issues: list[FanIssue] = []
    if bad or any(c.generators and rank(c.generators) != c.dim for c in f.maximal_cones):
        for c in f.cones:
            for g in c.generators:
                if bad.get(g):
                    issues.append(FanIssue("zero_generator", f"cone {c.generators}"))
                elif g in bad:
                    issues.append(FanIssue("not_primitive", f"generator {g}"))
            if c.generators and rank(c.generators) != c.dim:
                issues.append(FanIssue("not_simplicial", f"cone {c.generators}"))
    if not any(i.kind in ("not_simplicial", "zero_generator") for i in issues):
        issues += _intersection_issues(f)
    # print the root as Fractions: the text must not depend on the entry type
    outside = {
        g: [f"generator {g} violates {tuple(map(Fraction, s))}" for s in rd.sigma_k if dot(s, g) > 0]
        for g in f.rays
    }
    if any(outside.values()):
        issues += [FanIssue("outside_support", t) for c in f.cones for g in c.generators for t in outside[g]]
    return issues


def is_complete_for(f: Fan, rd: LittleDatum) -> bool:
    """Wall criterion for supp(fan) = Z_k, on a fan that ``fan_validate`` passed.

    Every maximal cone must be full-dimensional and every wall must either
    lie in a bounding hyperplane of Z_k or be shared by exactly two maximal
    cones.  With no restricted roots this is classical completeness.
    """
    # the valuation cone is always full-dimensional, so maximal cones must be
    # (the zero cone alone covers only a zero-dimensional space); a wall of one
    # maximal cone must lie in a bounding hyperplane of Z_k
    if any(c.dim != rd.rank for c in f.maximal_cones):
        return False
    return all(
        len(cones) == 2
        or len(cones) == 1
        and any(any(s) and all(dot(s, g) == 0 for g in w.generators) for s in rd.sigma_k)
        for w, cones in f.walls.items()
    )


def is_smooth(f: Fan) -> dict[Cone, bool]:
    """Per-cone unimodularity against the standard dual lattice: the
    generators extend to a basis of Z^n iff their maximal minors have gcd 1.
    A face of a unimodular cone is unimodular, so only cones in no unimodular
    full-dimensional maximal cone are tested."""
    home = f.unimodular_home
    return {c: c in home or lattice_index(transpose(c.generators), c.dim) == 1 for c in f.cones}


def standard_fan(rd: LittleDatum) -> Fan:
    """Faces of the valuation cone, one per subset of the spherical roots."""
    if rd.nk0_basis:
        raise NotConvex("valuation cone is not strictly convex")
    return Fan.from_maximal([[primitive_vector(tuple(-x for x in w)) for w in rd.coweights]])


def cone_membership(v, rd: LittleDatum) -> bool:
    return all(dot(s, v) <= 0 for s in rd.sigma_k)


def _meets_interior(values) -> bool:
    """Whether the cone contains a point with every root strictly negative,
    from the value of each root (a row) on each generator (a column)."""
    # sign certificates: a root >= 0 on every generator (say, of the zero cone) is
    # >= 0 on the cone; the sum of the generators is a witness when every root (if
    # any) is < 0 on it; otherwise the LP decides
    if any(all(v >= 0 for v in row) for row in values):
        return False
    if all(sum(row) < 0 for row in values):
        return True
    n = len(values[0])
    a_ub = values + [[-int(i == j) for j in range(n)] for i in range(n)]
    b_ub = [-1] * len(values) + [0] * n
    return find_feasible(a_ub=a_ub, b_ub=b_ub, nvars=n) is not None


class Stratum(Record):
    cone: Cone
    codim: int
    rank: int
    lattice_basis: Mat  # basis of the stratum weight lattice, parent coords
    sigma_indices: tuple[int, ...]  # restricted roots vanishing on the cone
    horospherical: bool


def strata(f: Fan, rd: LittleDatum) -> tuple[Stratum, ...]:
    """The stratum of each cone.  The saturated kernel of a face of a unimodular cone
    is spanned by the dual vectors of the generators it misses, read off the inverse
    of a unimodular full-dimensional maximal cone; roots are evaluated once per ray."""
    values = {g: [dot(s, g) for s in rd.sigma_k] for g in f.rays}
    home = f.unimodular_home
    nodes = []
    for c in f.cones:
        rows = [[values[g][i] for g in c.generators] for i in range(len(rd.sigma_k))]
        if c in home:
            m = home[c]
            duals = [nu for g, nu in zip(m.generators, f.normals[m][0]) if g not in c.generators]
            basis = tuple(map(tuple, hermite_normal_form(duals)[0]))
        else:
            basis = integer_kernel(c.generators, width=rd.rank)
        nodes.append(
            Stratum(
                cone=c,
                codim=c.dim,
                rank=rd.rank - c.dim,
                lattice_basis=basis,
                sigma_indices=tuple(i for i, row in enumerate(rows) if not any(row)),
                horospherical=_meets_interior(rows),
            )
        )
    return tuple(nodes)


def _reflection_on_dual(rd: LittleDatum, s) -> Mat:
    """(s, s) > 0 times the matrix of s_sigma on dual coordinates (rows act
    on the right): the primitive images of rays are the same."""
    fs = [dot(row, s) for row in rd.form_k]  # (a_i, s) for each basis character a_i
    ss = dot(s, fs)
    # on characters: a_i -> a_i - (2 (a_i, s)/(s, s)) s; the dual action is the transpose
    return tuple(tuple(ss * int(i == j) - 2 * fs[i] * s[j] for i in range(rd.rank)) for j in range(rd.rank))


def weyl_saturate(f: Fan, rd: LittleDatum, cap: int | None = None) -> Fan:
    """Orbit of the fan under the little Weyl group, of at most ``cap`` cones
    (default |W_k| times the given cones, clamped to HARD_ORBIT_CEILING).
    The orbit of a fan closed under faces is the faces of its maximal cones'
    images, counted as the orbit yields each image, so the cap stops it early.
    The image of a cone is the cone on the images of its rays, so each
    distinct ray is reflected once."""
    if cap is None:
        cap = rd.wk_order * max(len(f.cones), 1)
    limit = min(cap, HARD_ORBIT_CEILING)
    hint = f"{cap} clamped to HARD_ORBIT_CEILING" if cap > limit else f"set {ORBIT_CAP_ENV}"
    refl = [_reflection_on_dual(rd, s) for s in rd.sigma_k]
    ray_images = {}  # each distinct ray with its image under each reflection

    def images(c):
        for g in c.generators:
            if g not in ray_images:
                ray_images[g] = [primitive_vector(vec_mat(g, m)) for m in refl]
        for rays in zip(*(ray_images[g] for g in c.generators)):
            yield Cone(tuple(sorted(rays)))

    cones = set(f.cones)
    for img in orbit(f.maximal_cones, images):
        # a cone in the set has its faces there, overfull ones aside: walk new facets down
        todo = list(img.faces()) if img.overfull else [img]
        while todo:
            if (c := todo.pop()) not in cones:
                cones.add(c)
                if len(cones) > limit:
                    raise BudgetExceeded(
                        f"Weyl saturation reached {len(cones)} cones > cap {limit} ({hint})"
                    )
                todo.extend(c.facets())
    return Fan.of(cones)
