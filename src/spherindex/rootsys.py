"""Finite root systems in simple-root coordinates.

Every vector here is written in the simple-root basis of its ambient
system, so the simple root a_i is the i-th standard basis vector.  The
invariant form is the symmetrized Cartan matrix with short roots of
squared length 2 (long roots 4, or 6 in G2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LinearlyDependent, NotARootBase, NotFiniteType
from .linalg import Mat, Vec, content, gram, identity, rank, vec_mat

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
    if family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        return [(a, b) for a, b in zip(chain, chain[1:])] + [(1, 3)]
    raise ValueError(family)


def _short_long(family: str, n: int) -> list[int]:
    """Squared-length scale d_i (short root has d=1)."""
    if family == "B":
        return [2] * (n - 1) + [1]
    if family == "C":
        return [1] * (n - 1) + [2]
    if family == "F":
        return [2, 2, 1, 1]
    if family == "G":
        return [1, 3]
    return [1] * n


def standard_cartan(family: str, n: int) -> Mat:
    d = _short_long(family, n)
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
    for i, j in _edges(family, n):
        # c_ij = 2(a_i, a_j)/(a_j, a_j) with (a_i, a_j) = -max(d_i, d_j)
        c[i][j] = -(2 * max(d[i], d[j])) // (2 * d[j])
        c[j][i] = -(2 * max(d[i], d[j])) // (2 * d[i])
    return tuple(tuple(x for x in row) for row in c)


def standard_form(family: str, n: int) -> Mat:
    """Gram matrix of the simple roots, short roots of squared length 2."""
    d = _short_long(family, n)
    c = standard_cartan(family, n)
    # c_ij = 2 (a_i, a_j) / (a_j, a_j) with (a_j, a_j) = 2 d_j
    return tuple(tuple(d[j] * c[i][j] for j in range(n)) for i in range(n))


def root_count(family: str, n: int) -> int:
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


@dataclass(frozen=True)
class DynkinComponent:
    family: str
    rank: int
    label: str = ""

    def __post_init__(self):
        if self.family not in VALID_RANKS or not VALID_RANKS[self.family](self.rank):
            raise NotFiniteType(f"{self.family}{self.rank} is not a finite type")

    @property
    def type_name(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class AmbientRootDatum:
    """Block sum of standard irreducible systems, in simple-root coordinates."""

    components: tuple[DynkinComponent, ...]

    @staticmethod
    def of(spec: list) -> "AmbientRootDatum":
        comps = []
        for k, item in enumerate(spec):
            if isinstance(item, DynkinComponent):
                comps.append(item)
            else:
                fam, rk = item[0], item[1]
                label = item[2] if len(item) > 2 else f"c{k + 1}"
                comps.append(DynkinComponent(fam.upper(), int(rk), label))
        return AmbientRootDatum(tuple(comps))

    @property
    def dim(self) -> int:
        return sum(c.rank for c in self.components)

    def cartan(self) -> Mat:
        return _block_sum([standard_cartan(c.family, c.rank) for c in self.components])

    def form(self) -> Mat:
        return _block_sum([standard_form(c.family, c.rank) for c in self.components])

    def root_names(self) -> list[str]:
        if len(self.components) == 1:
            return [f"a{i + 1}" for i in range(self.components[0].rank)]
        names = []
        for c in self.components:
            names += [f"{c.label}.a{i + 1}" for i in range(c.rank)]
        return names

    def index_of_root(self, name: str) -> int:
        try:
            return self.root_names().index(name)
        except ValueError:
            raise KeyError(f"unknown simple root {name!r}") from None


def _block_sum(blocks: list[Mat]) -> Mat:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return tuple(tuple(r) for r in out)


@dataclass(frozen=True)
class RootBase:
    """Linearly independent vectors with crystallographic Gram data.

    The base is classified once: ``cartan`` is its Cartan matrix and
    ``components`` its irreducible types as ``classify`` returns them.
    """

    vectors: Mat
    gram: Mat = field(compare=False)
    cartan: Mat = field(compare=False)
    components: tuple[tuple[str, int, tuple[int, ...]], ...] = field(compare=False)

    @staticmethod
    def from_vectors(vectors, form) -> "RootBase":
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
        c = tuple(map(tuple, c))
        return RootBase(vectors, g, c, tuple(classify(c)))

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def types(self) -> tuple[tuple[str, int], ...]:
        return tuple((f, r) for f, r, _ in self.components)


def graph_components(c) -> list[list[int]]:
    """Connected components of the graph with an edge where c[i][j] != 0."""
    n = len(c)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and c[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _candidate_types(n: int) -> list[tuple[str, int]]:
    out = []
    for fam in "ABCDEFG":
        if VALID_RANKS[fam](n):
            out.append((fam, n))
    return out


def _match(c_sub: Mat, c_std: Mat) -> list[int] | None:
    """Permutation p with c_sub[i][j] == c_std[p[i]][p[j]], or None."""
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


def classify(c) -> list[tuple[str, int, tuple[int, ...]]]:
    """Split a Cartan matrix into irreducible types.

    Returns one (family, rank, positions) triple per component, where
    positions[t] is the input index playing the role of Bourbaki root t+1.
    Components are ordered by their smallest input index.
    """
    c = tuple(tuple(int(x) for x in row) for row in c)
    out = []
    for comp in graph_components(c):
        sub = tuple(tuple(c[i][j] for j in comp) for i in comp)
        n = len(comp)
        found = None
        if n == 2 and sub[0][1] * sub[1][0] == 2:
            # B2 and C2 coincide; label B2 when the first vector is long
            fam = "B" if sub[0][1] == -2 else "C"
            perm = [0, 1]
            found = (fam, 2, perm)
        else:
            for fam, rk in _candidate_types(n):
                perm = _match(sub, standard_cartan(fam, rk))
                if perm is not None:
                    found = (fam, rk, perm)
                    break
        if found is None:
            raise NotFiniteType("Cartan matrix is not of finite type")
        fam, rk, perm = found
        positions = [0] * n
        for i, t in enumerate(perm):
            positions[t] = comp[i]
        out.append((fam, rk, tuple(positions)))
    return out


def weyl_order(types) -> int:
    order = 1
    for fam, rk in types:
        order *= weyl_order_of(fam, rk)
    return order


def simple_reflection(v, c, j: int) -> tuple:
    """s_j(v) = v - <v, a_j^vee> a_j on base coordinates of the Cartan matrix c."""
    pair = sum(x * row[j] for x, row in zip(v, c))
    return v[:j] + (v[j] - pair,) + v[j + 1:]


def generate_roots(base: RootBase) -> list[Vec]:
    """All roots of the finite system spanned by the base.

    Roots come back as rational vectors in the ambient coordinates of the
    base, sorted by their base coordinates.
    """
    pos = positive_roots_in_base_coords(base.cartan, base.types)
    roots = sorted(pos + [tuple(-x for x in v) for v in pos])
    return [vec_mat(v, base.vectors) for v in roots]


def positive_roots_in_base_coords(c: Mat, types) -> list[tuple[int, ...]]:
    """Positive roots of a Cartan matrix, as sorted integer base-coordinate rows.

    The reflection closure of the simple roots; the count is checked against
    the (family, rank) ``types`` of ``c``.
    """
    c = tuple(tuple(int(x) for x in row) for row in c)
    n = len(c)
    bound = sum(root_count(fam, rk) for fam, rk in types)
    seen = set(identity(n))
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for j in range(n):
                w = simple_reflection(v, c, j)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    if len(seen) > bound:
                        raise NotFiniteType("reflection closure exceeds root bound")
        frontier = nxt
    if len(seen) != bound:
        raise NotFiniteType("root count does not match classified type")
    return sorted(v for v in seen if all(x >= 0 for x in v))


def indivisible_roots(support) -> set:
    """The vectors r of a set of integral vectors with no r / n (n >= 2) in the set.

    On a root system only r / 2 can occur; a restriction of one, such as G2
    onto a line ({1, 2, 3} times a vector), can also hold r / 3.
    """
    out = set()
    for r in support:
        g = content(r)
        if not any(g % n == 0 and tuple(x // n for x in r) in support for n in range(2, g + 1)):
            out.add(r)
    return out


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
