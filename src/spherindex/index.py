"""Indices of reductive groups over a base field.

An index is an ambient root datum together with the set of compact simple
roots and the Galois star action on simple-root coordinates.  From it we
compute the split subspace, the restriction map, and the restricted root
system of the group.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from math import lcm

from .errors import NotARootBase, NotFiniteType, ParseError
from .linalg import (
    Mat,
    Vec,
    dot,  # noqa: F401  perfbench/tests checks that the tracer wraps this binding
    integer_kernel,
    mat_mul_t,
    minus_identity,
    scaled_schur_complement,
    transpose,
    vec_mat,
)
from .record import Record
from .rootsys import (
    AmbientRootDatum,
    RestrictedRoots,
    RootBase,
    image_fibers,
    orbit,
    root_images,
)


def star_generators(generators, dim: int) -> tuple[Mat, ...]:
    """The star generators as tuples of rows, each checked to be dim x dim."""
    gens = tuple(tuple(map(tuple, g)) for g in generators)
    for g in gens:
        if len(g) != dim or any(len(row) != dim for row in g):
            raise ParseError("star generator has wrong shape")
    return gens


class TitsIndex(Record):
    ambient: AmbientRootDatum
    compact: tuple[int, ...]
    star: tuple[Mat, ...]  # Galois semilinear action on character coordinates

    @staticmethod
    def of(ambient: AmbientRootDatum, compact, generators) -> "TitsIndex":
        compact = tuple(sorted(set(int(i) for i in compact)))
        return TitsIndex(ambient, compact, star_generators(generators, ambient.dim))

    @cached_property
    def restriction(self) -> Mat:
        """The n x r matrix R[i][j] = (a_i, v_j) of the restriction map.

        Row i is the image of the simple root a_i; it has n rows even when
        the index is anisotropic (r = 0).  A split index has the identity as
        its split basis, so R is the form.
        """
        if self.is_split:
            return self.ambient.form()
        return mat_mul_t(self.ambient.form(), split_subspace(self))

    @property
    def is_split(self) -> bool:
        """No compact root and no star generator: V is the whole space."""
        return not self.compact and not self.star

    @cached_property
    def simple_roots(self) -> "RestrictedSimpleRoots":
        """The restricted simple roots, computed once per index."""
        return restricted_simple_roots(self)

    def moved_out(self, subset) -> list[tuple[int, int]]:
        """Pairs (k, i) where star generator k sends simple root i out of ``subset``:
        row i of the generator has a nonzero entry outside it."""
        out = []
        for k, g in enumerate(self.star):
            for i in subset:
                if any(x for t, x in enumerate(g[i]) if t not in subset):
                    out.append((k, i))
        return out

    def violations(self) -> list[str]:
        out = []
        pattern = [0] * (self.ambient.dim - 1) + [1]
        if any(sorted(line) != pattern for g in self.star for line in g + transpose(g)):
            out.append("star generator does not permute the simple roots")
        else:
            # the star action permutes the simple roots by diagram automorphisms
            # (Borel-Tits 1965, section 6), C[p(i)][p(j)] = C[i][j]: exactly the p
            # with B[p(i)][p(j)] = B[i][j].  B = C diag(d), d_j = b_jj / 2, so keeping
            # B keeps C; keeping C maps each component onto one of its type, and
            # d o p and d are symmetrizers of C there, equal up to a factor, with
            # min d = 1 on every standard component: so d o p = d, and B is kept
            b = self.ambient.form()
            for k, g in enumerate(self.star):
                p = [row.index(1) for row in g]
                if any(b[p[i]][p[j]] != b[i][j] for i in range(len(p)) for j in range(len(p))):
                    out.append(f"star generator {k} is not a diagram automorphism")
            for k, i in self.moved_out(set(self.compact)):
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
    for g in ix.star:
        constraints += minus_identity(transpose(g))
    return integer_kernel(constraints, width=ix.ambient.dim)


def res_A(ix: TitsIndex, chi) -> Vec:
    """Restriction of a character to the split part, in dual coordinates.

    The j-th coordinate is the invariant pairing of chi with the j-th
    split-subspace basis vector; this is the orthogonal projection written
    against the chosen basis.
    """
    return vec_mat(chi, ix.restriction)


class RestrictedSimpleRoots(Record):
    roots: Mat  # distinct nonzero images, Bourbaki-ordered per component
    fibers: tuple[tuple[int, ...], ...]  # ambient simple-root indices per root
    types: tuple[tuple[str, int], ...]

    def fiber_sums(self, rows) -> list[list]:
        """Each row against the roots: a character chi restricts to the sum
        over t of (the sum of chi over fiber t) times root t, since a_i
        restricts to root t for i in fiber t and to 0 when compact."""
        return [[sum(row[i] for i in fib) for fib in self.fibers] for row in rows]


def restricted_simple_roots(ix: TitsIndex) -> RestrictedSimpleRoots:
    """The distinct nonzero rows of ``ix.restriction``, classified by d L^2 times
    the Gram matrix of their projections onto V, read off the ambient form B:
    for L the lcm of the fiber sizes (a fiber is a star orbit) and M = d times
    the Schur complement of B_CC in B, d = det B_CC, g[s][t] is (L/|F_s|)
    (L/|F_t|) times the sum of M over F_s x F_t.  C is the compact roots joined
    to a fiber through compact roots: the others are orthogonal to both.  A split
    index has R = B, nonsingular: each row is a fiber, C is empty, L = d = 1, g = B."""
    b = ix.ambient.form()
    if ix.is_split:
        distinct, fibers, g = b, [[i] for i in range(len(b))], b
    else:
        distinct, fibers = image_fibers((i, img) for i, img in enumerate(ix.restriction) if any(img))
        size = lcm(*map(len, fibers))

        def sums(rows):  # row s: L/|F_s| times the sum of the rows of fiber s
            return [[size // len(f) * x for x in map(sum, zip(*(rows[i] for i in f)))] for f in fibers]

        ub = sums(b)  # U B, for U the weighted indicator rows of the fibers
        near = [*orbit([j for j in ix.compact if any(row[j] for row in ub)], lambda j: (k for k in ix.compact if b[j][k]))]
        rows = [b[i] for i in near] + ub  # then [[B_CC, B_C. U^T], [U B_.C, U B U^T]]
        bordered = [[*map(row.__getitem__, near), *s] for row, s in zip(rows, zip(*sums(transpose(rows))))]
        g, _ = scaled_schur_complement(bordered, len(near))
    base = RootBase.from_gram(tuple(distinct), g)
    order = [i for _, _, positions in base.components for i in positions]
    return RestrictedSimpleRoots(
        roots=tuple(distinct[i] for i in order),
        fibers=tuple(tuple(fibers[i]) for i in order),
        types=base.types,
    )


def restricted_root_system(ix: TitsIndex) -> RestrictedRoots:
    """The nonzero restrictions of the ambient roots, with multiplicities:
    row i of ``ix.restriction`` is the image of the simple root a_i."""
    starts = accumulate((c.rank for c in ix.ambient.components), initial=0)
    components = [(c.family, c.rank, range(s, s + c.rank)) for c, s in zip(ix.ambient.components, starts)]
    return RestrictedRoots.of(root_images(components, ix.restriction))
