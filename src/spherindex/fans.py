"""Simplicial fans in the little cocharacter space.

Cones live in the dual coordinates of the canonical little weight basis,
so the relevant integer lattice is the standard one.  Cones are simplicial
by design: faces are generator subsets and all incidence questions reduce
to exact linear algebra and rational feasibility checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import BudgetExceeded, NotConvex, NotSimplicial, NotValidated
from .linalg import (
    Mat,
    dot,
    find_feasible,
    identity,
    integer_kernel,
    lattice_index,
    primitive_vector,
    rank,
    scaled_inverse,
    transpose,
    vec_mat,
)
from .restrict import LittleDatum, ValuationCone
from .rootsys import orbit

ORBIT_CAP_ENV = "SPHERINDEX_ORBIT_CAP"
HARD_ORBIT_CEILING = 100_000


@dataclass(frozen=True)
class Cone:
    generators: tuple[tuple[int, ...], ...]  # lex-sorted primitive rows

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


@dataclass(frozen=True)
class Fan:
    cones: tuple[Cone, ...]  # closed under faces but for overfull cones, sorted

    @staticmethod
    def from_maximal(gen_lists) -> "Fan":
        """The given cones and their faces; an overfull cone is kept as given,
        for validation to report once."""
        cones = {Cone(())}
        for rows in gen_lists:
            cone = Cone.of(rows)
            if len(cone.generators) != len(rows):
                raise NotSimplicial("repeated generator in a cone")
            cones.update([cone] if cone.overfull else cone.faces())
        return Fan(tuple(sorted(cones, key=lambda c: (c.dim, c.generators))))

    @cached_property
    def facet_map(self) -> dict[Cone, tuple[Cone, ...]]:
        """The facets of each cone: the facet relation, built once per fan."""
        return {c: tuple(c.facets()) if c.dim else () for c in self.cones}

    def maximal_cones(self) -> list[Cone]:
        """The cones that are not a facet of a cone; ``cones`` is closed under faces."""
        facets = {w for ws in self.facet_map.values() for w in ws}
        return [c for c in self.cones if c not in facets]

    @cached_property
    def walls(self) -> dict[Cone, list[Cone]]:
        """Each facet of a maximal cone, with the maximal cones it is a facet of."""
        out: dict[Cone, list[Cone]] = {}
        for c in self.maximal_cones():
            for w in self.facet_map[c]:
                out.setdefault(w, []).append(c)
        return out


@dataclass(frozen=True)
class FanIssue:
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
    maximal = f.maximal_cones()
    if not maximal or not maximal[0].generators or any(len(cs) != 2 for cs in f.walls.values()):
        return False
    n = len(maximal[0].generators[0])
    if any(c.dim != n for c in maximal):
        return False
    # row i of the transposed scaled inverse is the normal of the facet
    # opposite generator i, positive on it: the point's coordinates in the cone
    normals = {}
    for c in maximal:
        try:
            normals[c] = transpose(scaled_inverse(c.generators)[0])
        except ValueError:
            return False
    for w, (c1, c2) in f.walls.items():
        i = next(i for i, g in enumerate(c1.generators) if g not in w.generators)
        (q,) = set(c2.generators) - set(w.generators)
        if dot(q, normals[c1][i]) >= 0:
            return False
    point = [sum(col) for col in zip(*maximal[0].generators)]
    inside = 0
    for c in maximal:
        coords = [dot(point, nu) for nu in normals[c]]
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
        _pair_intersection_is_face(c1, c2) for c1, c2 in combinations(f.maximal_cones(), 2)
    ):
        return []
    return [
        FanIssue("intersection_not_a_face", f"{c1.generators} vs {c2.generators}")
        for c1, c2 in combinations(f.cones, 2)
        if not _pair_intersection_is_face(c1, c2)
    ]


def fan_validate(f: Fan, zk: ValuationCone | None = None) -> list[FanIssue]:
    issues: list[FanIssue] = []
    for c in f.cones:
        for g in c.generators:
            if all(x == 0 for x in g):
                issues.append(FanIssue("zero_generator", f"cone {c.generators}"))
            elif g != primitive_vector(g):
                issues.append(FanIssue("not_primitive", f"generator {g}"))
        if c.generators and rank(c.generators) != c.dim:
            issues.append(FanIssue("not_simplicial", f"cone {c.generators}"))
    # closed under faces iff closed under facets; list the faces only if not
    cone_set = set(f.cones)
    if any(w not in cone_set for ws in f.facet_map.values() for w in ws):
        for c in f.cones:
            for face in () if c.overfull else c.faces():
                if face not in cone_set:
                    issues.append(
                        FanIssue("missing_face", f"face {face.generators} of {c.generators}")
                    )
    if not any(i.kind in ("not_simplicial", "zero_generator") for i in issues):
        issues += _intersection_issues(f)
    if zk is not None:
        for c in f.cones:
            for g in c.generators:
                for s in zk.inequalities:
                    if dot(s, g) > 0:
                        # print the root as Fractions: the text must not depend on the entry type
                        text = f"generator {g} violates {tuple(map(Fraction, s))}"
                        issues.append(FanIssue("outside_support", text))
    return issues


def is_complete_for(f: Fan, zk: ValuationCone, validated: bool = False) -> bool:
    """Wall criterion for supp(fan) = Z_k.

    Every maximal cone must be full-dimensional and every wall must either
    lie in a bounding hyperplane of Z_k or be shared by exactly two maximal
    cones.  With no inequalities this is classical completeness.
    """
    if not validated and fan_validate(f, zk):
        raise NotValidated("fan failed validation")
    maximal = f.maximal_cones()
    vectors = [g for c in maximal for g in c.generators] + [*zk.inequalities, *zk.lineality]
    ambient_dim = len(vectors[0]) if vectors else 0
    if ambient_dim == 0:
        return True  # zero-dimensional space, covered by the zero cone
    if maximal == [Cone.of(())]:
        return False
    # the valuation cone is always full-dimensional, so maximal cones must be;
    # a wall of one maximal cone must lie in a bounding hyperplane of Z_k
    if any(c.dim != ambient_dim for c in maximal):
        return False
    return all(
        len(cones) == 2
        or len(cones) == 1
        and any(any(s) and all(dot(s, g) == 0 for g in w.generators) for s in zk.inequalities)
        for w, cones in f.walls.items()
    )


def is_smooth(f: Fan) -> dict[Cone, bool]:
    """Per-cone unimodularity against the standard dual lattice: the
    generators extend to a basis of Z^n iff their maximal minors have gcd 1."""
    return {c: lattice_index(transpose(c.generators), c.dim) == 1 for c in f.cones}


def standard_fan(rd: LittleDatum) -> Fan:
    """Faces of the valuation cone, one per subset of the spherical roots."""
    if rd.nk0_basis:
        raise NotConvex("valuation cone is not strictly convex")
    rays = [primitive_vector(tuple(-x for x in w)) for w in rd.coweights]
    cones = []
    for k in range(len(rays) + 1):
        for sub in combinations(range(len(rays)), k):
            cones.append([rays[i] for i in sub])
    return Fan.from_maximal(cones)


def cone_membership(v, zk: ValuationCone) -> bool:
    return all(dot(s, v) <= 0 for s in zk.inequalities)


def _meets_interior(c: Cone, rd: LittleDatum) -> bool:
    """Whether the cone contains a point with every root strictly negative."""
    if not rd.sigma_k:
        return True
    if not c.generators:
        return False
    values = [[dot(s, g) for g in c.generators] for s in rd.sigma_k]
    # sign certificates: a root >= 0 on every generator is >= 0 on the
    # cone; the sum of the generators is a witness when every root is < 0
    # on it; otherwise the LP decides
    if any(all(v >= 0 for v in row) for row in values):
        return False
    if all(sum(row) < 0 for row in values):
        return True
    n = c.dim
    a_ub = values + [[-int(i == j) for j in range(n)] for i in range(n)]
    b_ub = [-1] * len(values) + [0] * n
    return find_feasible(a_ub=a_ub, b_ub=b_ub, nvars=n) is not None


@dataclass(frozen=True)
class Stratum:
    cone: Cone
    codim: int
    rank: int
    lattice_basis: Mat  # basis of the stratum weight lattice, parent coords
    sigma_indices: tuple[int, ...]  # restricted roots vanishing on the cone
    horospherical: bool


def strata(f: Fan, rd: LittleDatum) -> tuple[Stratum, ...]:
    nodes = []
    for c in f.cones:
        sigma_idx = tuple(
            i
            for i, s in enumerate(rd.sigma_k)
            if all(dot(s, g) == 0 for g in c.generators)
        )
        nodes.append(
            Stratum(
                cone=c,
                codim=c.dim,
                rank=rd.rank - c.dim,
                lattice_basis=integer_kernel(c.generators, width=rd.rank),
                sigma_indices=sigma_idx,
                horospherical=_meets_interior(c, rd),
            )
        )
    return tuple(nodes)


def _reflection_on_dual(rd: LittleDatum, s) -> Mat:
    """(s, s) > 0 times the matrix of s_sigma on dual coordinates (rows act
    on the right): the primitive images of rays are the same."""
    f = rd.form_k
    ss = dot(vec_mat(s, f), s)
    # on characters: chi -> chi - (2 (chi, s)/(s, s)) s; dual action is the
    # transpose, which equals the same formula with the roles swapped
    m = []
    for chi in identity(rd.rank):
        coef = 2 * dot(vec_mat(chi, f), s)
        m.append(tuple(ss * a - coef * b for a, b in zip(chi, s)))
    return transpose(tuple(m))


def weyl_saturate(f: Fan, rd: LittleDatum, cap: int | None = None) -> Fan:
    """Orbit of the fan under the little Weyl group, of at most ``cap`` cones
    (default |W_k| times the given cones, clamped to HARD_ORBIT_CEILING).
    The orbit of a fan closed under faces is the faces of its maximal cones'
    images, counted as the orbit yields each image, so the cap stops it early."""
    if cap is None:
        cap = rd.wk_order * max(len(f.cones), 1)
    limit = min(cap, HARD_ORBIT_CEILING)
    hint = f"{cap} clamped to HARD_ORBIT_CEILING" if cap > limit else f"set {ORBIT_CAP_ENV}"
    refl = [_reflection_on_dual(rd, s) for s in rd.sigma_k]

    def images(c):
        for m in refl:
            yield Cone.of(tuple(primitive_vector(vec_mat(g, m)) for g in c.generators))

    cones = set(f.cones)
    for img in orbit(f.maximal_cones(), images):
        for face in img.faces():
            if face not in cones:
                cones.add(face)
                if len(cones) > limit:
                    raise BudgetExceeded(
                        f"Weyl saturation reached {len(cones)} cones > cap {limit} ({hint})"
                    )
    return Fan(tuple(sorted(cones, key=lambda c: (c.dim, c.generators))))
