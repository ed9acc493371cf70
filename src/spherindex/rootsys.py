"""Finite root systems in simple-root coordinates.

Every vector here is written in the simple-root basis of its ambient
system, so the simple root a_i is the i-th standard basis vector.  The
invariant form of a type comes first, short roots of squared length 2
(long roots 4, or 6 in G2), and its Cartan matrix is read off it.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from itertools import count, islice, repeat
from math import gcd, prod
from operator import add, itemgetter, neg

from .errors import LinearlyDependent, NotARootBase, NotFiniteType, ParseError
from .linalg import Mat, Vec, gram, identity, rank
from .record import Record

VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 2,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _edges(family: str, n: int) -> list[tuple[int, int]]:
    """Dynkin diagram edges (0-based, Bourbaki numbering)."""
    if family in "ABCFG":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "D":
        return [(i, i + 1) for i in range(n - 2)] + ([(n - 3, n - 1)] if n >= 3 else [])
    chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]  # E, the last family of VALID_RANKS
    return [(a, b) for a, b in zip(chain, chain[1:])] + [(1, 3)]


def _short_long(family: str, n: int) -> list[int]:
    """Squared-length scale d_i (short root has d=1)."""
    return {"B": [2] * (n - 1) + [1], "C": [1] * (n - 1) + [2], "F": [2, 2, 1, 1], "G": [1, 3]}.get(family, [1] * n)


# the form and the Cartan matrix of a type are built once per process: every
# ambient datum and every classification asks for them again
@cache
def standard_form(family: str, n: int) -> Mat:
    """Gram matrix of the simple roots, short roots of squared length 2:
    (a_i, a_i) = 2 d_i, and (a_i, a_j) = -max(d_i, d_j) on an edge."""
    d = _short_long(family, n)
    f = [[2 * d[i] * (i == j) for j in range(n)] for i in range(n)]
    for i, j in _edges(family, n):
        f[i][j] = f[j][i] = -max(d[i], d[j])
    return tuple(map(tuple, f))


@cache
def standard_cartan(family: str, n: int) -> Mat:
    """c_ij = 2 (a_i, a_j) / (a_j, a_j), exact: on an edge d_j divides max(d_i, d_j)."""
    f = standard_form(family, n)
    return tuple(tuple(2 * x // f[j][j] for j, x in enumerate(row)) for row in f)


def degrees(family: str, n: int) -> tuple[int, ...]:
    """The degrees of the basic invariants of the Weyl group (Humphreys,
    Reflection Groups and Coxeter Groups, 1990, 3.7 Table 1): |W| is their
    product, and the number of positive roots is the sum of d_i - 1 (3.9)."""
    if family == "A":
        return tuple(range(2, n + 2))
    if family in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return tuple(range(2, 2 * n - 1, 2)) + (n,)
    return {
        ("E", 6): (2, 5, 6, 8, 9, 12),
        ("E", 7): (2, 6, 8, 10, 12, 14, 18),
        ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
        ("F", 4): (2, 6, 8, 12),
        ("G", 2): (2, 6),
    }[family, n]


class DynkinComponent(Record):
    family: str
    rank: int
    label: str


class AmbientRootDatum(Record):
    """Block sum of standard irreducible systems, in simple-root coordinates."""

    components: tuple[DynkinComponent, ...]

    @staticmethod
    def of(spec: list) -> "AmbientRootDatum":
        comps = []
        for k, item in enumerate(spec):
            if not isinstance(item[0], str) or len(item[0].upper()) != 1:  # "A1" would print as the type "A11"
                raise ParseError(f"bad family {item[0]!r}")
            fam, rk = item[0].upper(), int(item[1])
            if fam not in VALID_RANKS or not VALID_RANKS[fam](rk):
                raise ParseError(f"{fam}{rk} is not a finite type")
            label = item[2] if len(item) > 2 else f"c{k + 1}"
            if any(c.label == label for c in comps):  # root names would not tell the two apart
                raise ParseError(f"duplicate component label {label!r}")
            comps.append(DynkinComponent(fam, rk, label))
        return AmbientRootDatum(tuple(comps))

    @property
    def dim(self) -> int:
        return sum(c.rank for c in self.components)

    def form(self) -> Mat:
        return _block_sum(self.components)

    def root_names(self) -> list[str]:
        if len(self.components) == 1:
            return [f"a{i + 1}" for i in range(self.components[0].rank)]
        names = []
        for c in self.components:
            names += [f"{c.label}.a{i + 1}" for i in range(c.rank)]
        return names

    @cached_property
    def _root_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.root_names())}

    def index_of_root(self, name: str) -> int:
        try:
            return self._root_index[name]
        except (KeyError, TypeError):  # a JSON list or object is no key
            raise ParseError(f"unknown simple root {name!r}") from None


# built once per list of components: the index, the datum and each check ask again
@cache
def _block_sum(components: tuple[DynkinComponent, ...]) -> Mat:
    n = sum(c.rank for c in components)
    out = [[0] * n for _ in range(n)]
    off = 0
    for c in components:
        for i, row in enumerate(standard_form(c.family, c.rank)):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += c.rank
    return tuple(tuple(r) for r in out)


class RootBase(Record):
    """Linearly independent vectors with crystallographic Gram data.

    The base is classified once: ``components`` are its irreducible types
    as ``classify`` returns them.
    """

    vectors: Mat
    components: tuple[tuple[str, int, tuple[int, ...]], ...]

    @staticmethod
    def from_vectors(vectors, form) -> "RootBase":
        """The classified base of ``vectors`` under ``form``.

        A base that classifies is independent, so ``rank`` runs only to name
        a failure: C = 2 G D^-1, for G = U F U^T the Gram matrix of the rows U
        and D its diagonal, is then a permuted block sum of finite-type Cartan
        matrices, so det C > 0, G is nonsingular and U has full row rank.
        """
        vectors = tuple(map(tuple, vectors))
        if len(vectors) > len(form):  # dependent, before the k x k Gram matrix is built
            raise LinearlyDependent("base vectors are linearly dependent")
        return RootBase.from_gram(vectors, gram(vectors, form))

    @staticmethod
    def from_gram(vectors: Mat, g) -> "RootBase":
        """The classified base of ``vectors`` of Gram matrix ``g``, up to a positive scale."""
        try:
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
        except (NotARootBase, NotFiniteType):
            if rank(vectors) != len(vectors):
                raise LinearlyDependent("base vectors are linearly dependent") from None
            raise

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def types(self) -> tuple[tuple[str, int], ...]:
        return tuple((f, r) for f, r, _ in self.components)


def orbit(seeds, images, seen=None):
    """The closure of ``seeds`` under ``images``, breadth first: each element
    once, the seeds first.  Lazy, so a caller bounds it with ``islice``.

    A caller that keeps its own membership map passes it as ``seen``,
    holding the seeds; ``images(x)`` then lists only the elements that it
    has just entered there, and the orbit keeps no set of its own."""
    queue = list(dict.fromkeys(seeds))
    if seen is None:
        seen, step = set(queue), images
        images = lambda x: [y for y in step(x) if y not in seen and not seen.add(y)]
    for x in queue:  # the queue grows while it is read
        yield x
        queue += images(x)


def graph_components(c) -> list[list[int]]:
    """Connected components of the graph with an edge where c[i][j] != 0."""
    neighbours = [[j for j, x in enumerate(row) if x] for row in c]
    comps, done = [], set()
    for s in range(len(c)):
        if s not in done:
            comp = sorted(orbit([s], neighbours.__getitem__))
            done.update(comp)
            comps.append(comp)
    return comps


def _signatures(c, neighbours) -> list[tuple]:
    """Per vertex, the sorted pairs (c[i][j], c[j][i]) over its neighbours j:
    a permutation matching the off-diagonal entries keeps them."""
    return [tuple(sorted((c[i][j], c[j][i]) for j in nb)) for i, nb in enumerate(neighbours)]


@cache
def _standard_diagram(family: str, n: int) -> tuple[list[list[int]], dict]:
    """The neighbour lists of a type's diagram and its vertices by signature,
    built once per process."""
    neighbours = [[] for _ in range(n)]
    for i, j in _edges(family, n):
        neighbours[i].append(j)
        neighbours[j].append(i)
    by_signature = {}
    for t, sig in enumerate(_signatures(standard_cartan(family, n), neighbours)):
        by_signature.setdefault(sig, []).append(t)
    return neighbours, by_signature


def _match(c_sub: Mat, family: str, n: int) -> list[int] | None:
    """The least permutation p with c_sub[i][j] == c_std[p[i]][p[j]] for i != j,
    c_std the Cartan matrix of the type, when both have one multiset of row
    sums; else None.  The graph of the input's nonzero entries is connected.

    Every finite-type diagram is a tree, so an input with another edge count
    fails at once.  Otherwise the input tree is walked breadth first from a
    vertex whose signature the type holds least often, each vertex trying
    only the neighbours of its parent's image: the input's n - 1 edges then
    map onto the type's n - 1 edges, and non-edges onto non-edges.  Every
    match is collected (at most 6, for D4) and the least returned.
    """
    c_std = standard_cartan(family, n)
    # a permutation keeps the multiset of row sums: on a finite-type input
    # this rejects every wrong candidate but D_n against E_n before the walk
    if sorted(map(sum, c_sub)) != sorted(map(sum, c_std)):
        return None
    std_neighbours, by_signature = _standard_diagram(family, n)
    neighbours = [[j for j in range(n) if j != i and (c_sub[i][j] or c_sub[j][i])] for i in range(n)]
    if sum(map(len, neighbours)) != 2 * (n - 1):
        return None
    candidates = [by_signature.get(sig, ()) for sig in _signatures(c_sub, neighbours)]
    root = min(range(n), key=lambda i: len(candidates[i]))
    order, parent = [root], {root: root}
    for v in order:  # breadth first: the list grows while it is read; the input is connected
        for w in neighbours[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    perm, used, matches = [-1] * n, [False] * n, []

    def walk(k):
        if k == n:
            matches.append(perm[:])
            return
        v = order[k]
        u = parent[v]
        pu = perm[u]
        for t in std_neighbours[pu]:
            if not used[t] and c_sub[v][u] == c_std[t][pu] and c_sub[u][v] == c_std[pu][t]:
                perm[v], used[t] = t, True
                walk(k + 1)
                used[t] = False

    for t in candidates[root]:
        perm[root], used[t] = t, True
        walk(1)
        used[t] = False
    return min(matches, default=None)


# the families that can match a component, by how many of its row sums are -1
# and how many are 1, which a permutation keeps: every valid type is listed
# under its own pair but D2 and D3, which are A1 x A1 and A3
_CANDIDATES = {(0, 0): "A", (0, 2): "A", (0, 1): "CB", (1, 1): "G", (1, 2): "BF", (1, 3): "DE"}


def classify(c) -> list[tuple[str, int, tuple[int, ...]]]:
    """Split a Cartan matrix into irreducible types.

    Returns one (family, rank, positions) triple per component, where
    positions[t] is the input index playing the role of Bourbaki root t+1.
    Components are ordered by their smallest input index.  A component is
    tried only against the families its row sums admit: as written first
    (so B2 and C2 are told apart by orientation), and by ``_match`` when no
    Cartan matrix is equal; the least (permutation, family) is kept.  The
    walk reads no diagonal, so a diagonal entry other than 2 is rejected first.
    """
    if any(row[i] != 2 for i, row in enumerate(c)):
        raise NotFiniteType("Cartan matrix has a diagonal entry other than 2")
    out = []
    for comp in graph_components(c):
        sub = tuple(tuple(c[i][j] for j in comp) for i in comp)
        n, sums = len(comp), [*map(sum, sub)]
        families = [f for f in _CANDIDATES.get((sums.count(-1), sums.count(1)), "") if VALID_RANKS[f](n)]
        found = [([*range(n)], f) for f in families if sub == standard_cartan(f, n)] or [
            (perm, f) for f in families if (perm := _match(sub, f, n)) is not None
        ]
        if not found:
            raise NotFiniteType("Cartan matrix is not of finite type")
        perm, fam = min(found)
        out.append((fam, n, tuple(i for _, i in sorted(zip(perm, comp)))))
    return out


def type_name_of(types) -> str:
    """The (family, rank) pairs as one name, "A1 x B2"; "" for no pairs."""
    return " x ".join(f"{fam}{rk}" for fam, rk in types)


def weyl_order(types) -> int:
    return prod(prod(degrees(fam, rk)) for fam, rk in types)


def generate_roots(base: RootBase) -> list[Vec]:
    """All roots of the finite system spanned by the base.

    Roots come back as rational vectors in the ambient coordinates of the
    base, sorted by their base coordinates: ``root_images`` on the identity
    and on the base vectors gives both, paired root by root.  Coordinates <= 0
    sort before coordinates >= 0, and negation reverses order: one sort suffices.
    """
    pos = sorted(zip(root_images(base.components, identity(len(base))), root_images(base.components, base.vectors)), key=itemgetter(0))
    return [tuple(-x for x in v) for _, v in reversed(pos)] + [v for _, v in pos]


@cache
def _standard_positive_roots(family: str, n: int) -> tuple[tuple[int, int, int], ...]:
    """The steps (parent, j, k) of a standard type, once per process: root
    n + s is root parent + k a_j for step s, roots 0..n-1 the simple roots.

    The ascending closure of the simple roots, v -> v + k a_j with
    k = -<v, a_j^vee> > 0: a non-simple positive root b has some j with
    <b, a_j^vee> > 0, and s_j b is a lower positive root (Bourbaki VI, 1.6).
    A root's key is one int of w-bit coordinates, none above 1 + 4 bound
    within the cut, so none carries; its pairings are one int of 3-bit digits
    <v, a_m^vee> + 4, in 1..7 as those of a positive root lie in [-3, 3]
    (VI, 1.3).  v + k a_j adds k <= 4 to one key digit and k times Cartan
    row j to the pairings: one addition each.
    """
    c = standard_cartan(family, n)
    bound = sum(degrees(family, n)) - n  # the number of positive roots
    w, bias = (4 * bound + 1).bit_length(), int("4" * n, 8)
    rows = [sum(x << 3 * m for m, x in enumerate(r)) for r in c]
    # per j and k in 1..4: what v + k a_j adds to the key and to the pairings
    adds = [[(k << w * j, k * r) for k in range(5)] for j, r in enumerate(rows)]
    pairing, steps, parents = {1 << w * j: bias + r for j, r in enumerate(rows)}, [], count()

    def up(v):  # the new roots above v, entered in ``pairing``
        i = next(parents)  # orbit asks for images in the order it yields roots
        row, new = pairing[v], []
        negative = bias & ~row  # bit 2 of each digit below 4
        while negative:  # lowest bit first, so j ascends
            j = (negative & -negative).bit_length() // 3 - 1
            k = 4 - (row >> 3 * j & 7)
            key, pairs = adds[j][k]
            if (u := v + key) not in pairing:
                pairing[u] = row + pairs
                steps.append((i, j, k))
                new.append(u)
            negative &= negative - 1
        return new

    if len(list(islice(orbit(list(pairing), up, pairing), bound + 1))) != bound:
        raise NotFiniteType("root count does not match classified type")
    return tuple(steps)


def root_images(components, images) -> list[Vec]:
    """The images of the positive roots under a linear map, ``images[i]``
    being the image of base vector i.

    ``components`` are ``classify``-style (family, rank, positions) triples.
    Component by component, the images of its simple roots come first; each
    later root's image is its parent's plus k times the image of a_j, one
    step (parent, j, k) of ``_standard_positive_roots`` each.  k is 1, 2 or
    3, and the multiples 2 a_j and 3 a_j are formed once, when first needed.
    """
    out = []
    for fam, rk, positions in components:
        simple = [images[i] for i in positions]
        comp, multiples = list(simple), {1: simple}
        for parent, j, k in _standard_positive_roots(fam, rk):
            if k not in multiples:
                multiples[k] = [tuple(k * x for x in v) for v in simple]
            comp.append(tuple(map(add, comp[parent], multiples[k][j])))
        out += comp
    return out


def indivisible_roots(support) -> set:
    """The vectors r of a set of integral vectors with no r / n (n >= 2) in the set.

    On a root system only r / 2 can occur; a restriction of one, such as G2
    onto a line ({1, 2, 3} times a vector), can also hold r / 3.  An r of
    content 1 has no integral r / n, so only the others are searched.  The
    entries must be ints: ``math.gcd`` reads them as they are.
    """
    out = set()
    for r in support:
        g = gcd(*r)
        if g == 1 or not any(g % n == 0 and tuple(x // n for x in r) in support for n in range(2, g + 1)):
            out.add(r)
    return out


def image_fibers(pairs) -> tuple[list[Vec], list[list[int]]]:
    """The distinct images of (index, image) pairs in order of first
    appearance, and the indices sent to each."""
    fibers: dict[Vec, list[int]] = {}
    for i, img in pairs:
        fibers.setdefault(img, []).append(i)
    return list(fibers), list(fibers.values())


class RestrictedRoots(Record):
    """Multiset of nonzero restrictions of a root system (Borel-Tits 1965, 6)."""

    multiplicities: tuple[tuple[Vec, int], ...]  # sorted (root, multiplicity)
    indivisible: frozenset

    @staticmethod
    def of(images) -> "RestrictedRoots":
        """The nonzero restrictions of a root system from the integral images
        of its positive roots alone: the negative roots restrict to their
        negations, so x occurs c(x) + c(-x) times, c counting ``images``.
        One count over the nonzero images and their negations; the distinct
        roots sort alone, as the order of the pairs is theirs."""
        nonzero = [*filter(any, images)]
        counts = Counter([*nonzero, *map(tuple, map(map, repeat(neg), nonzero))])
        roots = sorted(counts)
        return RestrictedRoots(tuple(zip(roots, map(counts.__getitem__, roots))), frozenset(indivisible_roots(counts)))

    @property
    def reduced(self) -> bool:
        return len(self.indivisible) == len(self.multiplicities)


def diagram_involution(family: str, n: int) -> tuple[int, ...]:
    """The canonical diagram involution on Bourbaki positions (0-based):
    reversal on A_n, the swap of the two end nodes on D_n, 1 <-> 6 and
    3 <-> 5 on E6, and the identity on every other type."""
    if family == "A":
        return tuple(range(n - 1, -1, -1))
    if family == "D":
        return tuple(range(n - 2)) + (n - 1, n - 2)
    if (family, n) == ("E", 6):
        return (5, 1, 4, 3, 2, 0)
    return tuple(range(n))


def opposition_permutation(base: RootBase) -> tuple[int, ...]:
    """The permutation p with -w0(sigma_i) = sigma_{p(i)}.

    -w0 is fixed by the type (Bourbaki, Lie Groups and Lie Algebras, ch. VI,
    Plates I-IX): the diagram involution on A_n, D_n with n odd and E6, the
    identity on every other type, D_n with n even included.
    """
    perm = list(range(len(base)))
    for fam, rk, positions in base.components:
        if fam != "D" or rk % 2:
            for t, s in enumerate(diagram_involution(fam, rk)):
                perm[positions[t]] = positions[s]
    return tuple(perm)
