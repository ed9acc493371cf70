"""Seeded generators of random small spherical data.

All constructions are geometric in style: split data whose spherical roots
form a finite-type base inside an ambient root system, data folded by an
outer involution of the diagram, and swap-folded abstract data modelling a
group over a quadratic extension.  Arbitrary validated abstract data need
not satisfy the structural identities the engines enforce, so the corpus
sticks to these families.
"""

import importlib.util
import os
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations
from types import SimpleNamespace

import pytest

from spherindex.cli import parse_index
from spherindex.datum import CompactRootSplit, SphericalDatumK
from spherindex.errors import (
    InternalInconsistency,
    LinearlyDependent,
    NotARootBase,
    ParseError,
    SpherindexError,
    TheoremViolation,
)
from spherindex.fans import Fan, FanIssue, _intersection_issues
from spherindex.index import RestrictedSimpleRoots, TitsIndex, res_A, split_subspace
from spherindex.linalg import (
    Lattice,
    divide,
    dot,
    gram,
    identity,
    integer_kernel,
    mat_mul,
    mat_mul_t,
    primitive_vector,
    rank,
    scaled_inverse,
    transpose,
    vec_mat,
)
from spherindex import restrict
from spherindex.restrict import RestrictedDatum, _annihilator, restrict_datum
from spherindex.rootsys import (
    AmbientRootDatum,
    RestrictedRoots,
    RootBase,
    classify,
    generate_roots,
    image_fibers,
    root_images,
    type_name_of,
)


@contextmanager
def raises_exit_1(message):
    """``pytest.raises`` for an error that the CLI turns into exit code 1: a
    ``SpherindexError`` that is neither a ``ParseError`` (exit 2) nor a
    ``TheoremViolation`` (exit 3), whose message matches ``message``."""
    with pytest.raises(SpherindexError, match=message) as info:
        yield info
    assert not isinstance(info.value, (ParseError, TheoremViolation)), repr(info.value)


def no_cone(f):
    """A stand-in datum for a fan checked without one: no restricted roots in
    the rank of the fan's rays, so Z_k is the whole space."""
    return SimpleNamespace(sigma_k=(), rank=len(f.rays[0]) if f.rays else 0)


def fan_of_rows(cones):
    """The fan of the given cones, each a collection of generator rows, with no
    face added: the ray table of their distinct generators, sorted."""
    rays = sorted({tuple(g) for c in cones for g in c})
    index = {g: i for i, g in enumerate(rays)}
    return Fan.of(rays, [[index[tuple(g)] for g in c] for c in cones])


def fvec(v):
    """The entries of v as Fractions, so that / on them stays exact."""
    return tuple(map(Fraction, v))


def fmat(m):
    return tuple(map(fvec, m))


AMBIENT_CHOICES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4),
    ("F", 4), ("G", 2),
]


def ambient_roots(ambient: AmbientRootDatum) -> list:
    """Every root of the ambient system in its simple-root coordinates, the
    positive ones first, each written out in full."""
    starts = accumulate((c.rank for c in ambient.components), initial=0)
    components = [(c.family, c.rank, tuple(range(s, s + c.rank))) for c, s in zip(ambient.components, starts)]
    pos = positive_roots_in_base_coords(components, ambient.dim)
    return pos + [tuple(-x for x in v) for v in pos]


def flip_matrix(n, pairs):
    perm = list(range(n))
    for a, b in pairs:
        perm[a], perm[b] = perm[b], perm[a]
    return [[int(perm[i] == j) for j in range(n)] for i in range(n)]


def _positive_base(rng: random.Random, amb: AmbientRootDatum, size: int):
    """A random finite-type base drawn from the positive ambient roots."""
    form = amb.form()
    positive = [r for r in generate_roots(RootBase.from_vectors(
        [[int(i == j) for j in range(amb.dim)] for i in range(amb.dim)], form))
        if all(x >= 0 for x in r)]
    for _ in range(60):
        picks = rng.sample(positive, min(size, len(positive)))
        try:
            RootBase.from_vectors(picks, form)
        except SpherindexError:
            continue
        return picks
    return [positive[0]]


def split_datum(rng: random.Random):
    fam, n = rng.choice(AMBIENT_CHOICES)
    amb = AmbientRootDatum.of([(fam, n)])
    ix = TitsIndex.of(amb, [], [])
    sigma = _positive_base(rng, amb, rng.randint(1, min(4, n)))
    from math import gcd

    xi = None
    if rng.random() < 0.3 and all(gcd(*map(int, s)) == 1 for s in sigma):
        # enlarge the weight lattice by central directions
        xi = [[int(i == j) for j in range(n)] for i in range(n)]
    return SphericalDatumK.ambient(ix, sigma, xi_rows=xi)


def folded_datum(rng: random.Random):
    """Quasi-split datum folded by the canonical diagram involution."""
    fam, n, pairs = rng.choice(
        [("A", 2, [(0, 1)]), ("A", 3, [(0, 2)]), ("A", 4, [(0, 3), (1, 2)]),
         ("D", 4, [(2, 3)]), ("E", 6, [(0, 5), (2, 4)])]
    )
    amb = AmbientRootDatum.of([(fam, n)])
    star = flip_matrix(n, pairs)
    perm = {a: b for a, b in pairs} | {b: a for a, b in pairs}
    orbits = sorted({tuple(sorted({i, perm.get(i, i)})) for i in range(n)})
    chosen = rng.sample(orbits, rng.randint(1, min(4, len(orbits))))
    sigma = []
    for orbit in chosen:
        row = [0] * n
        for i in orbit:
            row[i] = 1
        sigma.append(row)
    ix = TitsIndex.of(amb, [], [star])
    return SphericalDatumK.ambient(ix, sigma)


def swap_datum(rng: random.Random):
    """Two copies of a split datum glued by the swap, in abstract form."""
    inner = split_datum(rng)
    m = len(inner.pairing)
    f = inner.pairing
    pairing = [
        [f[i % m][j % m] if (i < m) == (j < m) else 0 for j in range(2 * m)]
        for i in range(2 * m)
    ]
    swap = [[int(j == (i + m) % (2 * m)) for j in range(2 * m)] for i in range(2 * m)]
    zero = [0] * m
    sigma = [list(s) + zero for s in inner.sigma]
    sigma += [zero + list(s) for s in inner.sigma]
    return SphericalDatumK.abstract(2 * m, pairing, [swap], sigma)


def to_abstract(d: SphericalDatumK) -> SphericalDatumK:
    """Forget the ambient group, keeping the normalized lattice data."""
    split = d.compact_split
    return SphericalDatumK.abstract(
        len(d.pairing),
        [list(r) for r in d.pairing],
        [[list(r) for r in g] for g in d.star_xi],
        [list(s) for s in d.sigma],
        sigma0=list(split.sigma0),
    )


GENERATORS = [split_datum, folded_datum, swap_datum]


def random_datum(rng: random.Random) -> SphericalDatumK:
    return rng.choice(GENERATORS)(rng)


def random_data(seed: int, count: int):
    rng = random.Random(seed)
    return [random_datum(rng) for _ in range(count)]


def random_convex_data(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_datum(rng)
        rd = restrict_datum(d)
        if not integer_kernel(rd.sigma_k, width=rd.rank):
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# helpers with no caller in the library, kept as oracles for the tests


def solve(a, b):
    """A particular solution x of a @ x = b (x a column), or None: Gauss-Jordan
    elimination on Fractions, with every free unknown 0."""
    n = len(a[0]) if a else 0
    rows = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a, b, strict=True)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return tuple(x)


def solve_left(rows, target):
    """Coefficients x with sum_i x_i * rows[i] == target, or None."""
    if not rows:
        return () if all(x == 0 for x in target) else None
    return solve(transpose(rows), target)


def dual_basis(rows, form):
    """Rows w_j in the span of rows @ F with dot(w_j, rows[k]) == [j == k], as
    Fractions: G^-1 (rows @ F) for the Gram matrix G, one ``solve`` per column;
    ``ValueError`` when G is singular."""
    rf = mat_mul(rows, form)
    g = mat_mul_t(rf, rows)
    if rank(g) < len(rows):
        raise ValueError("Gram matrix is singular")
    return transpose([solve(g, col) for col in transpose(rf)])


def beta_by_walls_inverse(d: SphericalDatumK, rows):
    """Rows against the restricted simple roots of the group, by inverting their
    square matrix W: the restrictions times (det W^-1), divided by det."""
    a, det = scaled_inverse(d.index.simple_roots.roots)
    return divide(mat_mul([res_A(d.index, row) for row in rows], a), det)


def chamber_by_walls_inverse(d: SphericalDatumK):
    """(M, det), det > 0: M pairs the chamber generators, minus the columns of
    det W^-1, with the restrictions of the weight-lattice basis."""
    a, det = scaled_inverse(d.index.simple_roots.roots)
    gens = [tuple(-x for x in col) for col in transpose(a)]
    return mat_mul_t(gens, [res_A(d.index, chi) for chi in d.xi_K.basis]), det


def chamber_generators(monkeypatch, d: SphericalDatumK, rd) -> list:
    """The generator matrix ``chamber_containment_check`` pushes through the
    projection: the left factor of its first product."""
    seen = []
    product = restrict.mat_mul_t

    def spy(a, b):
        seen.append(a)
        return product(a, b)

    with monkeypatch.context() as m:
        m.setattr(restrict, "mat_mul_t", spy)
        restrict.chamber_containment_check(d, rd)
    return seen[0]


def positive_roots_in_base_coords(components, n: int) -> list:
    """Positive roots of a rank-n system as sorted integer base-coordinate rows,
    for ``classify``-style (family, rank, positions) ``components``."""
    return sorted(root_images(components, identity(n)))


def counted_restriction(images) -> RestrictedRoots:
    """The nonzero ``images``, each counted as often as it occurs, and the
    indivisible ones by ``divisor_scan_indivisible``: the images of every
    root, negative ones included, with no use of ``RestrictedRoots.of``."""
    counts = Counter(tuple(img) for img in images if any(img))
    return RestrictedRoots(tuple(sorted(counts.items())), frozenset(divisor_scan_indivisible(counts)))


def phi_k_res_by_lattice(d: SphericalDatumK, rd) -> RestrictedRoots:
    """Every root of the big spherical roots restricted to N_k one at a time,
    then written in the basis of the little weight lattice, which the
    restrictions of the coordinate characters generate."""
    if not d.sigma:
        return counted_restriction(())
    nk = little_space(d)
    little = Lattice.from_rows(rd.rank, transpose(nk))
    return counted_restriction(
        little.coordinates(tuple(dot(root, v) for v in nk)) for root in generate_roots(d.root_base)
    )


def facet_inheritance_by_rank(d: SphericalDatumK, rd):
    """The facet check with one rank per face: Z_k is generated by plus and
    minus the lineality basis and minus the coweights, and each noncompact root
    must be nonpositive on every generator and vanish on a face of rank
    r - 1, each compact root must restrict to zero on N_k, read off ``d``."""
    nk = little_space(d)
    lineality = integer_kernel(rd.sigma_k, width=rd.rank)
    gens = list(lineality)
    gens += [tuple(-x for x in g) for g in lineality]
    gens += [tuple(-x for x in w) for w in rd.coweights]
    if rank(gens) != rd.rank:
        raise InternalInconsistency("valuation cone is not full dimensional")
    fiber_of = {i: t for t, fib in enumerate(rd.fibers) for i in fib}
    checked = {"full": 0, "facet": 0}
    for i in range(len(d.sigma)):
        if i in rd.split.sigma0:
            if any(dot(d.sigma[i], v) for v in nk):
                raise InternalInconsistency("a compact spherical root restricts nontrivially")
            checked["full"] += 1
            continue
        sbar = rd.sigma_k[fiber_of[i]]
        vals = [dot(sbar, g) for g in gens]
        if any(x > 0 for x in vals):
            raise InternalInconsistency("a restricted root is positive somewhere on the valuation cone")
        face = [g for g, x in zip(gens, vals) if x == 0]
        if rank(face) != rd.rank - 1:
            raise InternalInconsistency("a big facet does not trace a facet of the little cone")
        checked["facet"] += 1
    return checked


def replace(rd, **fields):
    """The restricted datum rebuilt from its fields, with ``fields`` changed."""
    return RestrictedDatum(**{**vars(rd), **fields})


# one planted violation of the facet check per message, for a restricted
# datum with at least two noncompact fibers
FACET_PLANTS = {
    "a compact spherical root restricts nontrivially": lambda rd: replace(
        rd, split=CompactRootSplit(rd.split.noncompact[:1], rd.split.noncompact[1:])
    ),
    "valuation cone is not full dimensional": lambda rd: replace(rd, coweights=(rd.coweights[1],) * 2),
    "a restricted root is positive somewhere on the valuation cone": lambda rd: replace(
        rd, sigma_k=tuple(tuple(-x for x in s) for s in rd.sigma_k)
    ),
    "a big facet does not trace a facet of the little cone": lambda rd: replace(
        rd, coweights=(tuple(map(sum, zip(*rd.coweights))),) + rd.coweights[1:]
    ),
}


def image_lattice(m, domain: Lattice) -> Lattice:
    """Lattice generated by the images of the domain basis under v -> v @ m.

    ``m`` maps domain ambient coordinates to codomain coordinates (rows of
    ``m`` are images of the domain coordinate vectors).
    """
    cod = len(m[0]) if m else 0
    gens = [vec_mat(row, m) for row in domain.rows_q()]
    return Lattice.from_rows(cod, gens)


def intersection_with_subspace(lat: Lattice, subspace_rows) -> Lattice:
    """Saturated intersection of ``lat`` with the span of the given rows."""
    n = lat.ambient_rank
    ann = integer_kernel(subspace_rows, width=n)  # functionals vanishing on the span
    if not ann:
        return lat
    bq = lat.rows_q()
    constraints = [[dot(row, a) for row in bq] for a in ann]
    zs = integer_kernel(constraints, width=lat.rank)
    gens = [vec_mat(z, bq) for z in zs]
    return Lattice.from_rows(n, gens)


def little_space(d: SphericalDatumK):
    """Saturated integral basis of N_k = {a : sigma0(a)=0, star-fixed}."""
    ann = _annihilator(d, d.compact_split)
    return integer_kernel(ann, width=len(d.pairing))


def classified_type_name(c) -> str:
    return type_name_of((fam, rk) for fam, rk, _ in classify(c))


def cone_contains(gens, v) -> bool:
    """v is a nonnegative combination of the generators ``gens`` of a cone."""
    if not gens:
        return all(x == 0 for x in v)
    c = solve_left(gens, v)
    return c is not None and all(x >= 0 for x in c)


def contains_cone(outer, inner) -> bool:
    """Every generator of ``inner`` lies in the cone on ``outer``."""
    return all(cone_contains(outer, g) for g in inner)


def dominates(f1, f2) -> bool:
    """Every cone of f1 lies in a cone of f2."""
    return all(any(contains_cone(c2, c1) for c2 in f2.generators) for c1 in f1.generators)


def cover_edges(f) -> tuple:
    """The cover relations (facet, cone) of a fan, as index pairs into ``f.cones``."""
    index = {c: i for i, c in enumerate(f.cones)}
    return tuple(sorted((index[w], j) for j, c in enumerate(f.cones) if c for w in combinations(c, len(c) - 1)))


def per_cone_validate(f, rd) -> list:
    """fan_validate as one walk over every cone: each generator occurrence is
    tested for zero and primitivity, each cone for independence and each
    occurrence against the support."""
    issues = []
    for gens in f.generators:
        for g in gens:
            if all(x == 0 for x in g):
                issues.append(FanIssue("zero_generator", f"cone {gens}"))
            elif g != primitive_vector(g):
                issues.append(FanIssue("not_primitive", f"generator {g}"))
        if gens and rank(gens) != len(gens):
            issues.append(FanIssue("not_simplicial", f"cone {gens}"))
    if not any(i.kind in ("not_simplicial", "zero_generator") for i in issues):
        issues += _intersection_issues(f)
    for gens in f.generators:
        for g in gens:
            for s in rd.sigma_k:
                if dot(s, g) > 0:
                    text = f"generator {g} violates {tuple(map(Fraction, s))}"
                    issues.append(FanIssue("outside_support", text))
    return issues


def normals_by_inversion(f) -> dict:
    """``Fan.normals`` as one elimination per full-dimensional maximal cone,
    with no walk: the scaled inverse of each that is square and invertible."""
    out = {}
    for c in f.maximal_cones:
        gens = [f.rays[i] for i in c]
        if gens and all(len(g) == len(c) for g in gens):
            try:
                a, d = scaled_inverse(gens)
            except ValueError:
                continue
            out[c] = (transpose(a), d)
    return out


def divisor_scan_indivisible(support) -> set:
    """The r in ``support`` with no r / n (n >= 2) in it, by a Fraction scan
    over every n up to the largest numerator."""
    return {
        r for r in support
        if not any(
            tuple(Fraction(x, n) for x in r) in support
            for n in range(2, max((abs(x.numerator) for x in r), default=1) + 1)
        )
    }


def cartan_matrix(vectors, form):
    """The Cartan matrix 2 g_ij / g_jj of a root base, for g the Gram matrix of
    ``vectors`` under ``form``, in exact rationals."""
    g = gram(vectors, form)
    return tuple(tuple(Fraction(2 * gij) / g[j][j] for j, gij in enumerate(row)) for row in g)


def rank_first_root_base(vectors, form) -> RootBase:
    """``RootBase.from_vectors`` as it was before it proved independence by
    classification: one elimination of the vectors first, then the Gram
    checks and the classification."""
    vectors = tuple(map(tuple, vectors))
    if rank(vectors) != len(vectors):
        raise LinearlyDependent("base vectors are linearly dependent")
    g = gram(vectors, form)
    for i, row in enumerate(g):
        if row[i] <= 0:
            raise NotARootBase("base vector of nonpositive squared length")
    c = []
    for i, row in enumerate(g):
        c.append([])
        for j, gij in enumerate(row):
            x, r = divmod(2 * gij, g[j][j])
            if r:
                raise NotARootBase(f"non-integral Cartan number at ({i}, {j})")
            if i != j and x > 0:
                raise NotARootBase(f"positive off-diagonal Cartan number at ({i}, {j})")
            c[i].append(x)
    return RootBase(vectors, tuple(classify(c)))


def random_root_base_input(rng: random.Random):
    """(vectors, form) of every outcome of ``RootBase.from_vectors``: bases of
    finite type, and dependent, zero, non-crystallographic and non-finite-type
    vectors, some of them with ``Fraction`` entries or forms."""
    spec = [rng.choice([("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)])
            for _ in range(rng.randint(1, 2))]
    amb = AmbientRootDatum.of(spec)
    n = amb.dim
    kind = rng.randrange(5)
    if kind == 0:  # the form of a finite type
        form = [list(row) for row in amb.form()]
    elif kind == 4:  # affine A~(n-1), a cycle, or for n = 2 affine A1~ or a hyperbolic pair
        form = [[2 * int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n if n > 2 else n - 1):
            form[i][(i + 1) % n] = form[(i + 1) % n][i] = -1 if n > 2 else rng.choice([-2, -3])
    elif kind == 1:  # a symmetric form with small entries: often affine, hyperbolic or indefinite
        form = [[0] * n for _ in range(n)]
        for i in range(n):
            form[i][i] = rng.choice([-2, 2, 2, 4, 6])
            for j in range(i):
                form[i][j] = form[j][i] = rng.choice([0, 0, -1, -2, -3, 1])
    else:
        form = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    if kind == 3:  # a rational multiple of the form
        form = [[Fraction(x, 3) for x in row] for row in form]
    if rng.random() < 0.5:  # simple roots, whose Gram matrix is part of the form
        vectors = [list(identity(n)[i]) for i in rng.sample(range(n), rng.randint(0, n))]
    else:
        roots = ambient_roots(amb)
        vectors = [list(rng.choice(roots)) for _ in range(rng.randint(0, n + 1))]
    if vectors and rng.random() < 0.3:  # a combination of the others, or zero
        vectors.append([sum(rng.choice([-1, 0, 1]) * v[j] for v in vectors) for j in range(n)])
    if vectors and rng.random() < 0.2:
        vectors[rng.randrange(len(vectors))] = [rng.randint(-2, 2) for _ in range(n)]
    if rng.random() < 0.25:  # rational rows
        vectors = [[Fraction(x, 2) for x in v] for v in vectors]
    rng.shuffle(vectors)
    return vectors, form


def dfs_match(c_sub, c_std):
    """Permutation p with c_sub[i][j] == c_std[p[i]][p[j]] for i != j and one
    multiset of row sums, or None: input index 0, 1, ... assigned in turn by
    depth-first search, so the first match found is the least.  The matcher
    ``classify`` used before its walk of the diagram tree, kept as its oracle;
    its time is exponential in the disorder of the input."""
    if sorted(map(sum, c_sub)) != sorted(map(sum, c_std)):
        return None
    n = len(c_sub)
    perm = [-1] * n
    used = [False] * n

    def ok(i, t):
        for j in range(i):
            if c_sub[i][j] != c_std[t][perm[j]] or c_sub[j][i] != c_std[perm[j]][t]:
                return False
        return True

    def dfs(i):
        if i == n:
            return True
        for t in range(n):
            if not used[t] and ok(i, t):
                perm[i] = t
                used[t] = True
                if dfs(i + 1):
                    return True
                used[t] = False
                perm[i] = -1
        return False

    return perm if dfs(0) else None


def root_count(family: str, n: int) -> int:
    """|Phi| of an irreducible type by the classical formulas: what
    ``rootsys`` read before it took the count from the degrees."""
    if family == "A":
        return n * (n + 1)
    if family in "BC":
        return 2 * n * n
    if family == "D":
        return 2 * n * (n - 1)
    if family == "E":
        return {6: 72, 7: 126, 8: 240}[n]
    if family == "F":
        return 48
    return 12  # G2


def weyl_order_of(family: str, n: int) -> int:
    """|W| of an irreducible type by the classical formulas: what ``rootsys``
    read before it took the order from the degrees."""
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    if family == "A":
        return fact * (n + 1)
    if family in "BC":
        return (2**n) * fact
    if family == "D":
        return (2 ** (n - 1)) * fact
    if family == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    if family == "F":
        return 1152
    return 12  # G2


def restricted_simple_roots_by_split_gram(ix: TitsIndex) -> RestrictedSimpleRoots:
    """``index.restricted_simple_roots`` as it was before it read the Gram
    matrix off the ambient form: the scaled inverse of the split Gram matrix
    S B S^T is the form on restriction coordinates, and ``from_vectors``
    builds the Gram matrix of the images under it."""
    distinct, fibers = image_fibers((i, img) for i, img in enumerate(ix.restriction) if any(img))
    form, _ = scaled_inverse(mat_mul_t(split_subspace(ix), transpose(ix.restriction)))
    base = RootBase.from_vectors(distinct, form)
    order = [i for _, _, positions in base.components for i in positions]
    return RestrictedSimpleRoots(
        roots=tuple(distinct[i] for i in order),
        fibers=tuple(tuple(fibers[i]) for i in order),
        types=base.types,
    )


@cache
def load_tool(name: str):
    """The module ``tools/<name>.py``, loaded from its file once."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_tits_index(rng: random.Random) -> TitsIndex:
    """The index of a random ``restrict-index`` document of
    ``tools/compare_outputs.py``: A-G components, swaps, flips and a union of
    star orbits as the compact set."""
    return parse_index(load_tool("compare_outputs").random_index_document(rng))
