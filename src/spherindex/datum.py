"""Spherical data over the big field and their validation.

A datum couples spherical roots with the weight lattice they live in and
the Galois structure acting on both.  Two presentations are accepted:
"ambient" (roots written in simple-root coordinates of a group index) and
"abstract" (an explicit lattice with a pairing and star matrices).  Either
way the datum is normalized to lattice-basis coordinates internally.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    InternalInconsistency,
    LinearlyDependent,
    NegativeCoefficient,
    NotARootBase,
    NotFiniteType,
    ParseError,
)
from .index import TitsIndex, res_A, star_generators
from .linalg import Lattice, Mat, content, gram, mat_mul, scale_integral, scaled_dual_basis, vec_mat
from .record import Record
from .rootsys import RootBase, graph_components, opposition_permutation, orbit


def support(sigma) -> tuple[int, ...]:
    """Indices of the simple roots appearing in sigma with positive weight."""
    for i, c in enumerate(sigma):
        if c < 0:
            raise NegativeCoefficient(f"coefficient {c} of simple root {i} is negative")
    return tuple(i for i, c in enumerate(sigma) if c > 0)


class CompactRootSplit(Record):
    sigma0: tuple[int, ...]  # indices into the spherical root list
    noncompact: tuple[int, ...]


class ValidationItem(Record):
    name: str
    passed: bool
    severity: str  # "error" or "warning"
    detail: str


class SphericalDatumK(Record):
    """Spherical datum in normalized lattice coordinates.

    sigma rows, star generators and the pairing all live in coordinates of
    the chosen basis of the weight lattice; sigma_input keeps the original
    presentation for support computations and reporting.  The pairing, of
    the size of the rank of the weight lattice, is a positive integer multiple
    of the invariant form, as ``RestrictedDatum.form_k`` is: root data,
    reflections and dual bases do not see its scale.
    """

    index: TitsIndex | None  # None for an abstract datum
    xi_K: Lattice | None  # in ambient coordinates, ambient mode only
    sigma_input: Mat
    sp: tuple[int, ...]
    sigma: Mat  # in lattice-basis coordinates
    pairing: Mat  # integral, on lattice-basis coordinates
    star_xi: tuple[Mat, ...]  # star generators on lattice-basis coordinates
    sigma0_input: tuple[int, ...] | None  # abstract mode only

    @staticmethod
    def ambient(ix: TitsIndex, sigma_rows, xi_rows=None, sp=()) -> "SphericalDatumK":
        n = ix.ambient.dim
        sigma_rows = tuple(map(tuple, sigma_rows))
        for row in sigma_rows:
            if len(row) != n:
                raise ParseError("spherical root has wrong length")
        if xi_rows is None:
            xi_rows = sigma_rows
        xi = Lattice.from_rows(n, xi_rows)
        sigma = []
        for row in sigma_rows:
            c = xi.coordinates(row)
            if c is None:
                raise ParseError(
                    "spherical root outside the span of the weight lattice"
                )
            sigma.append(c)
        # the basis is xi.basis / den: the integer Gram matrix of xi.basis is den^2
        # times its pairing, and a star image r g / den has the coordinates of
        # r g in the den-1 lattice
        pairing = gram(xi.basis, ix.ambient.form())
        integral = Lattice(n, xi.basis)
        star_xi = []
        for g in ix.star:
            rows = []
            for r in xi.basis:
                c = integral.coordinates(vec_mat(r, g))
                if c is None or any(x.denominator != 1 for x in c):
                    raise ParseError(
                        "star action does not stabilize the weight lattice"
                    )
                rows.append(c)
            star_xi.append(tuple(rows))
        sp = tuple(sorted(set(int(i) for i in sp)))
        return SphericalDatumK(
            index=ix,
            xi_K=xi,
            sigma_input=sigma_rows,
            sp=sp,
            sigma=tuple(sigma),
            pairing=pairing,
            star_xi=tuple(star_xi),
            sigma0_input=None,
        )

    @staticmethod
    def abstract(rank_: int, pairing, star, sigma_rows, sigma0=()) -> "SphericalDatumK":
        pairing = tuple(map(tuple, pairing))
        if len(pairing) != rank_ or any(len(r) != rank_ for r in pairing):
            raise ParseError("pairing has wrong shape")
        if pairing != tuple(zip(*pairing)):
            raise ParseError("pairing is not symmetric")
        sigma_rows = tuple(map(tuple, sigma_rows))
        for row in sigma_rows:
            if len(row) != rank_:
                raise ParseError("spherical root has wrong length")
        star = star_generators(star, rank_)
        if any(gram(g, pairing) != pairing for g in star):  # rows act on the right
            raise ParseError("star generator is not an isometry of the pairing")
        sigma0 = tuple(sorted(set(int(i) for i in sigma0)))
        if sigma0 and not (0 <= sigma0[0] and sigma0[-1] < len(sigma_rows)):
            raise ParseError("compact root index out of range")
        d = SphericalDatumK(
            index=None,
            xi_K=None,
            sigma_input=sigma_rows,
            sp=(),
            sigma=sigma_rows,
            pairing=scale_integral(pairing)[0],
            star_xi=star,
            sigma0_input=sigma0,
        )
        if sigma0 and any(
            (i in sigma0) != (j in sigma0) for i in range(len(sigma_rows)) for j in d.star_orbit_of_root(i)
        ):
            raise ParseError("compact roots are not a union of star orbits of the spherical roots")
        return d

    @cached_property
    def root_base(self) -> RootBase:
        """The classified root base of the spherical roots, built once per datum."""
        return RootBase.from_vectors(self.sigma, self.pairing)

    @cached_property
    def dual_basis(self) -> tuple[Mat, int]:
        """The big coweights, scaled, and their scale, built once per datum."""
        return scaled_dual_basis(self.sigma, self.pairing)

    @cached_property
    def compact_split(self) -> CompactRootSplit:
        """Split the spherical roots into the compact part and its complement,
        once per datum.

        For an ambient datum the compact part is computed twice, once by support and
        once by restriction; disagreement means the index and the roots do not
        describe the same situation.
        """
        nroots = len(self.sigma)
        if self.index is None:
            s0 = set(self.sigma0_input)
            return CompactRootSplit(
                tuple(sorted(s0)), tuple(i for i in range(nroots) if i not in s0)
            )
        comp = set(self.index.compact)
        by_support = set()
        for i, row in enumerate(self.sigma_input):
            if set(support(row)) <= comp:
                by_support.add(i)
        by_res = set()
        for i, row in enumerate(self.sigma_input):
            if all(x == 0 for x in res_A(self.index, row)):
                by_res.add(i)
        if by_support != by_res:
            raise InternalInconsistency(
                f"compact roots by support {sorted(by_support)} disagree with "
                f"restriction {sorted(by_res)}"
            )
        return CompactRootSplit(
            tuple(sorted(by_support)),
            tuple(i for i in range(nroots) if i not in by_support),
        )

    @cached_property
    def star_images(self) -> tuple[Mat, ...]:
        """The spherical roots under each star generator, row i the image of
        root i, computed once per datum."""
        return tuple(mat_mul(self.sigma, g) for g in self.star_xi)

    def star_orbit_of_root(self, i: int) -> tuple[int, ...]:
        """Orbit of the i-th spherical root under the star action."""
        def images(j):
            for rows in self.star_images:
                if rows[j] in self.sigma:
                    yield self.sigma.index(rows[j])

        return tuple(sorted(orbit([i], images)))


def _an_positions_lint(base: RootBase, split: CompactRootSplit) -> ValidationItem | None:
    """Divisibility pattern of noncompact roots in an irreducible A_n system."""
    if len(base.components) != 1 or base.components[0][0] != "A":
        return None
    fam, n, positions = base.components[0]
    # positions[t] = index of the root sitting at Bourbaki slot t+1
    slot_of = {idx: t + 1 for t, idx in enumerate(positions)}
    noncompact_slots = sorted(slot_of[i] for i in split.noncompact)
    ok = False
    for dd in range(1, n + 2):
        if (n + 1) % dd == 0:
            expected = list(range(dd, n + 2 - dd + 1, dd))
            if noncompact_slots == expected:
                ok = True
                break
    return ValidationItem(
        "a_n_divisibility",
        ok,
        "warning",
        f"noncompact Bourbaki positions {noncompact_slots} in A{n}",
    )


def validate(d: SphericalDatumK) -> list[ValidationItem]:
    items: list[ValidationItem] = []

    def add(name, passed, severity="error", detail=""):
        items.append(ValidationItem(name, bool(passed), severity, detail))

    if d.index is not None:
        v = d.index.violations()
        add("index_well_formed", not v, detail="; ".join(v))
        neg = []
        for i, row in enumerate(d.sigma_input):
            if any(x < 0 for x in row):
                neg.append(i)
        add("nonnegative_combination", not neg, detail=f"roots {neg} have negative coefficients")
    # each row of d.sigma is a root's coordinates in the lattice basis, solved once
    add("roots_in_lattice", all(x.denominator == 1 for row in d.sigma for x in row))

    # a base that classifies is independent: sigma is eliminated only to tell a
    # dependent base from one that fails classification (RootBase.from_vectors)
    base = base_error = None
    if d.sigma:
        try:
            base = d.root_base
        except (NotARootBase, NotFiniteType) as e:
            base_error = e
    add("linearly_independent", not isinstance(base_error, LinearlyDependent))

    prim = True
    for row in d.sigma:
        if any(x != 0 for x in row) and all(x.denominator == 1 for x in row):
            if content(row) != 1:
                prim = False
    add("roots_primitive_in_lattice", prim)

    add("star_permutes_roots", all(set(rows) == set(d.sigma) for rows in d.star_images))

    try:
        split = d.compact_split
        add("compact_split_consistent", True)
    except (InternalInconsistency, NegativeCoefficient) as e:  # support() refuses a negative coefficient
        add("compact_split_consistent", False, detail=str(e))
        split = None

    if d.index is not None:
        sp = set(d.sp)
        add("sp_star_stable", not d.index.moved_out(sp))

        comp = set(d.index.compact)
        union = sorted(sp | comp)
        b = d.index.ambient.form()  # nonzero where the Cartan matrix is
        sub = [[b[i][j] for j in union] for i in union]
        parts = [{union[t] for t in part} for part in graph_components(sub)]
        add("sp_compact_component_split", all(cc <= sp or cc <= comp for cc in parts))

    if split is not None and d.sigma:
        if base_error is not None:
            add("opposition_stable", False, detail=f"spherical roots do not span a finite root system: {base_error}")
        else:
            perm = opposition_permutation(base)
            s0 = set(split.sigma0)
            add("opposition_stable", {perm[i] for i in s0} == s0)
            if (lint := _an_positions_lint(base, split)) is not None:
                items.append(lint)

    return items


def is_valid(items: list[ValidationItem]) -> bool:
    return all(it.passed for it in items if it.severity == "error")
