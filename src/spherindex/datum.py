"""Spherical data over the big field and their validation.

A datum couples spherical roots with the weight lattice they live in and
the Galois structure acting on both.  Two presentations are accepted:
"ambient" (roots written in simple-root coordinates of a group index) and
"abstract" (an explicit lattice with a pairing and star matrices).  Either
way the datum is normalized to lattice-basis coordinates internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DatumConstructionError,
    InternalInconsistency,
    LinearlyDependent,
    NegativeCoefficient,
    NotARootBase,
    NotFiniteType,
)
from .index import StarAction, TitsIndex, res_A
from .linalg import Lattice, Mat, content, gram, vec_mat
from .rootsys import RootBase, graph_components, opposition_permutation


def support(sigma) -> tuple[int, ...]:
    """Indices of the simple roots appearing in sigma with positive weight."""
    for i, c in enumerate(sigma):
        if c < 0:
            raise NegativeCoefficient(f"coefficient {c} of simple root {i} is negative")
    return tuple(i for i, c in enumerate(sigma) if c > 0)


@dataclass(frozen=True)
class CompactRootSplit:
    sigma0: tuple[int, ...]  # indices into the spherical root list
    noncompact: tuple[int, ...]


@dataclass(frozen=True)
class ValidationItem:
    name: str
    passed: bool
    severity: str  # "error" or "warning"
    detail: str = ""


@dataclass(frozen=True)
class SphericalDatumK:
    """Spherical datum in normalized lattice coordinates.

    sigma rows, star generators and the pairing all live in coordinates of
    the chosen basis of the weight lattice; sigma_input keeps the original
    presentation for support computations and reporting.
    """

    mode: str  # "ambient" or "abstract"
    index: TitsIndex | None
    xi_K: Lattice | None  # in ambient coordinates, ambient mode only
    sigma_input: Mat
    sp: tuple[int, ...]
    m: int  # rank of the weight lattice
    sigma: Mat  # in lattice-basis coordinates
    pairing: Mat  # invariant form on lattice-basis coordinates
    star_xi: tuple[Mat, ...]  # star generators on lattice-basis coordinates
    sigma0_input: tuple[int, ...] | None  # abstract mode only

    @staticmethod
    def ambient(ix: TitsIndex, sigma_rows, xi_rows=None, sp=()) -> "SphericalDatumK":
        n = ix.ambient.dim
        sigma_rows = tuple(map(tuple, sigma_rows))
        for row in sigma_rows:
            if len(row) != n:
                raise DatumConstructionError("spherical root has wrong length")
        if xi_rows is None:
            xi_rows = sigma_rows
        xi = Lattice.from_rows(n, xi_rows)
        m = xi.rank
        sigma = []
        for row in sigma_rows:
            c = xi.coordinates(row)
            if c is None:
                raise DatumConstructionError(
                    "spherical root outside the span of the weight lattice"
                )
            sigma.append(c)
        b = ix.ambient.form()
        basis = xi.rows_q()
        pairing = gram(basis, b)
        star_xi = []
        for g in ix.star.generators:
            rows = []
            for r in basis:
                c = xi.coordinates(vec_mat(r, g))
                if c is None or any(x.denominator != 1 for x in c):
                    raise DatumConstructionError(
                        "star action does not stabilize the weight lattice"
                    )
                rows.append(c)
            star_xi.append(tuple(rows))
        sp = tuple(sorted(set(int(i) for i in sp)))
        if sp and not (0 <= sp[0] and sp[-1] < n):
            raise DatumConstructionError("parabolic root index out of range")
        return SphericalDatumK(
            mode="ambient",
            index=ix,
            xi_K=xi,
            sigma_input=sigma_rows,
            sp=sp,
            m=m,
            sigma=tuple(sigma),
            pairing=pairing,
            star_xi=tuple(star_xi),
            sigma0_input=None,
        )

    @staticmethod
    def abstract(rank_: int, pairing, star_generators, sigma_rows, sigma0=()) -> "SphericalDatumK":
        pairing = tuple(map(tuple, pairing))
        if len(pairing) != rank_ or any(len(r) != rank_ for r in pairing):
            raise DatumConstructionError("pairing has wrong shape")
        if pairing != tuple(zip(*pairing)):
            raise DatumConstructionError("pairing is not symmetric")
        sigma_rows = tuple(map(tuple, sigma_rows))
        for row in sigma_rows:
            if len(row) != rank_:
                raise DatumConstructionError("spherical root has wrong length")
        star = StarAction.of(star_generators, rank_)
        sigma0 = tuple(sorted(set(int(i) for i in sigma0)))
        if sigma0 and not (0 <= sigma0[0] and sigma0[-1] < len(sigma_rows)):
            raise DatumConstructionError("compact root index out of range")
        return SphericalDatumK(
            mode="abstract",
            index=None,
            xi_K=None,
            sigma_input=sigma_rows,
            sp=(),
            m=rank_,
            sigma=sigma_rows,
            pairing=pairing,
            star_xi=star.generators,
            sigma0_input=sigma0,
        )

    @cached_property
    def root_base(self) -> RootBase:
        """The classified root base of the spherical roots, built once per datum."""
        return RootBase.from_vectors(self.sigma, self.pairing)

    def star_orbit_of_root(self, i: int) -> tuple[int, ...]:
        """Orbit of the i-th spherical root under the star action."""
        orbit = {i}
        frontier = [i]
        while frontier:
            nxt = []
            for j in frontier:
                for g in self.star_xi:
                    img = vec_mat(self.sigma[j], g)
                    t = next((k for k, s in enumerate(self.sigma) if s == img), None)
                    if t is not None and t not in orbit:
                        orbit.add(t)
                        nxt.append(t)
            frontier = nxt
        return tuple(sorted(orbit))


def compact_split(d: SphericalDatumK) -> CompactRootSplit:
    """Split the spherical roots into the compact part and its complement.

    In ambient mode the compact part is computed twice, once by support and
    once by restriction; disagreement means the index and the roots do not
    describe the same situation.
    """
    nroots = len(d.sigma)
    if d.mode == "abstract":
        s0 = set(d.sigma0_input or ())
        return CompactRootSplit(
            tuple(sorted(s0)), tuple(i for i in range(nroots) if i not in s0)
        )
    comp = set(d.index.compact)
    by_support = set()
    for i, row in enumerate(d.sigma_input):
        if set(support(row)) <= comp:
            by_support.add(i)
    by_res = set()
    for i, row in enumerate(d.sigma_input):
        if all(x == 0 for x in res_A(d.index, row)):
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

    if d.mode == "ambient":
        v = d.index.violations()
        add("index_well_formed", not v, detail="; ".join(v))
        neg = []
        for i, row in enumerate(d.sigma_input):
            if any(x < 0 for x in row):
                neg.append(i)
        add("nonnegative_combination", not neg, detail=f"roots {neg} have negative coefficients")
        in_lat = all(d.xi_K.contains(row) for row in d.sigma_input)
        add("roots_in_lattice", in_lat)
    else:
        add("roots_in_lattice", all(x.denominator == 1 for row in d.sigma for x in row))

    # one elimination of sigma: the base's rank check decides independence
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

    permutes = True
    sig_set = set(d.sigma)
    for g in d.star_xi:
        imgs = {vec_mat(r, g) for r in d.sigma}
        if imgs != sig_set:
            permutes = False
    add("star_permutes_roots", permutes)

    try:
        split = compact_split(d)
        add("compact_split_consistent", True)
    except InternalInconsistency as e:
        add("compact_split_consistent", False, detail=str(e))
        split = None

    if d.mode == "ambient":
        sp = set(d.sp)
        add("sp_star_stable", not d.index.star.moved_out(sp))

        comp = set(d.index.compact)
        union = sorted(sp | comp)
        cart = d.index.ambient.cartan()
        sub = [[cart[i][j] for j in union] for i in union]
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
