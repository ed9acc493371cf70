"""Seeded generators of random small spherical data.

All constructions are geometric in style: split data whose spherical roots
form a finite-type base inside an ambient root system, data folded by an
outer involution of the diagram, and swap-folded abstract data modelling a
group over a quadratic extension.  Arbitrary validated abstract data need
not satisfy the structural identities the engines enforce, so the corpus
sticks to these families.
"""

import random
from fractions import Fraction

from spherindex.datum import SphericalDatumK, compact_split
from spherindex.errors import SpherindexError
from spherindex.index import TitsIndex
from spherindex.linalg import Lattice, dot, integer_kernel, vec_mat
from spherindex.restrict import _annihilator, restrict_datum
from spherindex.rootsys import AmbientRootDatum, RootBase, classify, generate_roots


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
    m = inner.m
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
    split = compact_split(d)
    return SphericalDatumK.abstract(
        d.m,
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
        if not restrict_datum(d).nk0_basis:
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# helpers with no caller in the library, kept as oracles for the tests


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
    ann = _annihilator(d, compact_split(d))
    return integer_kernel(ann, width=d.m)


def classified_type_name(c) -> str:
    return " x ".join(f"{fam}{rk}" for fam, rk, _ in classify(c))


def dominates(f1, f2) -> bool:
    """Every cone of f1 lies in a cone of f2."""
    return all(any(c2.contains_cone(c1) for c2 in f2.cones) for c1 in f1.cones)


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
