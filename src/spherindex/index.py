"""Indices of reductive groups over a base field.

An index is an ambient root datum together with the set of compact simple
roots and the Galois star action on simple-root coordinates.  From it we
compute the split subspace, the restriction map, and the restricted root
system of the group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import BudgetExceeded, DatumConstructionError, NotARootBase, NotFiniteType
from .linalg import (
    Mat,
    Vec,
    dot,
    identity,
    integer_kernel,
    mat_mul,
    minus_identity,
    scaled_inverse,
    transpose,
    vec_mat,
)
from .rootsys import AmbientRootDatum, RootBase, indivisible_roots, positive_roots_in_base_coords

STAR_GROUP_CAP = 10000


@dataclass(frozen=True)
class StarAction:
    """Galois semilinear action given by matrices on character coordinates."""

    generators: tuple[Mat, ...]
    dim: int

    @staticmethod
    def of(generators, dim: int) -> "StarAction":
        gens = tuple(tuple(map(tuple, g)) for g in generators)
        for g in gens:
            if len(g) != dim or any(len(row) != dim for row in g):
                raise DatumConstructionError("star generator has wrong shape")
        return StarAction(gens, dim)

    def moved_out(self, subset) -> list[tuple[int, int]]:
        """Pairs (k, i) where generator k sends simple root i out of ``subset``."""
        out = []
        for k, g in enumerate(self.generators):
            for i in subset:
                hit = next((t for t in range(self.dim) if g[i][t] == 1), None)
                if hit not in subset:
                    out.append((k, i))
        return out

    def elements(self, cap: int = STAR_GROUP_CAP) -> list[Mat]:
        """All elements of the generated group (BFS closure).  The powers of a
        generator with |tr| > n or |det| not 0 or 1 are distinct: no cap holds,
        which is decided before the closure, whose entries would grow without
        bound."""
        for k, g in enumerate(self.generators):
            # repeating powers leave only 0 and roots of unity as eigenvalues
            if abs(sum(g[i][i] for i in range(self.dim))) > self.dim:
                raise BudgetExceeded(f"star generator {k} has infinite order (|tr| > {self.dim})")
            # d = |det(den * g)| = den**n |det g|, den * g being integral
            den = lcm(*(x.denominator for row in g for x in row))
            try:
                d = scaled_inverse([[x * den for x in row] for row in g])[1]
            except ValueError:
                continue  # singular: the closure decides
            if d != den ** self.dim:
                raise BudgetExceeded(f"star generator {k} has infinite order (|det| != 1)")
        ident = identity(self.dim)
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                for g in self.generators:
                    p = mat_mul(m, g)
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
                        if len(seen) > cap:
                            raise BudgetExceeded(f"star action generated {len(seen)} elements > cap {cap}")
            frontier = nxt
        return sorted(seen)

    def is_permutation_action(self) -> bool:
        pattern = [0] * (self.dim - 1) + [1]
        return all(
            sorted(line) == pattern
            for g in self.generators
            for line in g + transpose(g)
        )


@dataclass(frozen=True)
class TitsIndex:
    ambient: AmbientRootDatum
    compact: tuple[int, ...]
    star: StarAction

    @staticmethod
    def of(ambient: AmbientRootDatum, compact, star_generators) -> "TitsIndex":
        n = ambient.dim
        compact = tuple(sorted(set(int(i) for i in compact)))
        if compact and not (0 <= compact[0] and compact[-1] < n):
            raise DatumConstructionError("compact root index out of range")
        star = StarAction.of(star_generators, n)
        return TitsIndex(ambient, compact, star)

    @cached_property
    def split(self) -> Mat:
        """Basis of the split subspace V, computed once per index."""
        return split_subspace(self)

    @cached_property
    def restriction(self) -> Mat:
        """The n x r matrix R[i][j] = (a_i, v_j) of the restriction map.

        Row i is the image of the simple root a_i; it has n rows even when
        the index is anisotropic (r = 0).
        """
        return tuple(tuple(dot(a, v) for v in self.split) for a in self.ambient.form())

    @cached_property
    def simple_roots(self) -> "RestrictedSimpleRoots":
        """The restricted simple roots, computed once per index."""
        return restricted_simple_roots(self)

    def violations(self) -> list[str]:
        out = []
        if not self.star.is_permutation_action():
            out.append("star generator does not permute the simple roots")
        try:
            self.star.elements()
        except BudgetExceeded:
            out.append("star action does not generate a finite group")
        for k, i in self.star.moved_out(set(self.compact)):
            out.append(f"star generator {k} moves compact root {i} out of the compact set")
        if not out:
            try:
                self.simple_roots
            except (NotARootBase, NotFiniteType) as e:
                out.append(f"restricted simple roots do not form a root base: {e}")
        return out


def split_subspace(ix: TitsIndex) -> Mat:
    """Hermite-canonical basis of V = {v : (a_i, v)=0 for compact i, g v = v}.

    Cocharacter space and character space are identified by the invariant
    form, so both kinds of condition become exact linear constraints.
    """
    b = ix.ambient.form()
    constraints = [b[i] for i in ix.compact]
    for g in ix.star.generators:
        constraints += minus_identity(transpose(g))
    return integer_kernel(constraints, width=ix.ambient.dim)


def res_A(ix: TitsIndex, chi) -> Vec:
    """Restriction of a character to the split part, in dual coordinates.

    The j-th coordinate is the invariant pairing of chi with the j-th
    split-subspace basis vector; this is the orthogonal projection written
    against the chosen basis.
    """
    return vec_mat(chi, ix.restriction)


@dataclass(frozen=True)
class RestrictedSimpleRoots:
    roots: Mat  # distinct nonzero images, Bourbaki-ordered per component
    fibers: tuple[tuple[int, ...], ...]  # ambient simple-root indices per root
    cartan: Mat
    types: tuple[tuple[str, int], ...]

    @property
    def type_name(self) -> str:
        return " x ".join(f"{f}{r}" for f, r in self.types)


def restricted_simple_roots(ix: TitsIndex) -> RestrictedSimpleRoots:
    distinct: list[Vec] = []
    fibers: list[list[int]] = []
    for i, img in enumerate(ix.restriction):
        if all(x == 0 for x in img):
            continue
        if img in distinct:
            fibers[distinct.index(img)].append(i)
        else:
            distinct.append(img)
            fibers.append([i])
    # a positive multiple of the form on restriction coordinates that matches
    # the projected invariant form; Cartan numbers do not see the scale
    form, _ = scaled_inverse(mat_mul(ix.split, ix.restriction))
    base = RootBase.from_vectors(distinct, form)
    order = [i for _, _, positions in base.components for i in positions]
    return RestrictedSimpleRoots(
        roots=tuple(distinct[i] for i in order),
        fibers=tuple(tuple(fibers[i]) for i in order),
        cartan=tuple(tuple(base.cartan[i][j] for j in order) for i in order),
        types=base.types,
    )


@dataclass(frozen=True)
class RestrictedRootSystem:
    multiplicities: tuple[tuple[Vec, int], ...]  # sorted (root, multiplicity)
    reduced: bool
    indivisible_types: tuple[tuple[str, int], ...]
    indivisible_count: int

    @property
    def type_name(self) -> str:
        return " x ".join(f"{f}{r}" for f, r in self.indivisible_types)

    def support(self) -> set[Vec]:
        return {r for r, _ in self.multiplicities}


def ambient_roots(ambient: AmbientRootDatum) -> list[Vec]:
    pos = positive_roots_in_base_coords(ambient.cartan(), [(c.family, c.rank) for c in ambient.components])
    return pos + [tuple(-x for x in v) for v in pos]


def restricted_root_system(ix: TitsIndex) -> RestrictedRootSystem:
    counts: Counter[Vec] = Counter()
    for root in ambient_roots(ix.ambient):
        img = res_A(ix, root)
        if any(x != 0 for x in img):
            counts[img] += 1
    indivisible = indivisible_roots(counts)
    return RestrictedRootSystem(
        multiplicities=tuple(sorted(counts.items())),
        reduced=len(indivisible) == len(counts),
        indivisible_types=ix.simple_roots.types,
        indivisible_count=len(indivisible),
    )
