"""Restricted root systems of classical Tits indices, from the tables.

Each entry is an index in Bourbaki numbering with its restricted root
system as the tables give it (Helgason, Differential Geometry, Lie Groups,
and Symmetric Spaces, 1978, ch. X, Table VI; Araki 1962; Tits 1966 for
the triality form): the restricted type, whether it is reduced, and the
multiplicity of each class of restricted roots, listed from the shortest
class to the longest.  The table checks itself before it checks the
program: for a real form, dim p = r + sum of m over the positive restricted
roots = dim G - dim K, and for every index the ambient positive roots are
those of the anisotropic kernel plus, counted with multiplicity, the
positive restricted roots.
"""

from collections import namedtuple

import pytest
from sympy import Matrix

from spherindex.index import TitsIndex, restricted_root_system, split_subspace
from spherindex.linalg import mat_mul_t, transpose
from spherindex.rootsys import AmbientRootDatum

Entry = namedtuple("Entry", "name ambient compact star restricted reduced multiplicities kernel dim_g dim_k")

TABLE = [
    # name, ambient, compact nodes, cycles of the star permutation, restricted type, reduced,
    # multiplicities (shortest class first), anisotropic kernel, dim G, dim K
    Entry("su(3,1)", ("A", 3), (2,), [(1, 3)], "BC1", False, (4, 1), "A1", 15, 9),
    Entry("so(5,2)", ("B", 3), (3,), [], "B2", True, (3, 1), "A1", 21, 11),
    Entry("sp(2,1)", ("C", 3), (1, 3), [], "BC1", False, (4, 3), "A1 x A1", 21, 13),
    Entry("EII", ("E", 6), (), [(1, 6), (3, 5)], "F4", True, (2, 1), "", 78, 38),
    Entry("EIII", ("E", 6), (3, 4, 5), [(1, 6), (3, 5)], "BC2", False, (8, 6, 1), "A3", 78, 46),
    Entry("EIV", ("E", 6), (2, 3, 4, 5), [], "A2", True, (8,), "D4", 78, 52),
    Entry("EVI", ("E", 7), (2, 5, 7), [], "F4", True, (4, 1), "A1 x A1 x A1", 133, 69),
    Entry("EIX", ("E", 8), (2, 3, 4, 5), [], "F4", True, (8, 1), "D4", 248, 136),
    Entry("FII", ("F", 4), (1, 2, 3), [], "BC1", False, (8, 7), "B3", 52, 36),
    Entry("so*(10)", ("D", 5), (1, 3), [(4, 5)], "BC2", False, (4, 4, 1), "A1 x A1", 45, 25),
    Entry("split G2", ("G", 2), (), [], "G2", True, (1, 1), "", 14, 6),
    Entry("3D4", ("D", 4), (), [(1, 3, 4)], "G2", True, (3, 1), "", 28, None),
]


def class_sizes(name: str) -> list[int]:
    """Positive roots of a restricted type per class, shortest first."""
    fam, n = name.rstrip("0123456789"), int(name.lstrip("ABCDEFG"))
    return {
        "A": [n * (n + 1) // 2],
        "B": [n, n * (n - 1)],  # e_i; e_i +- e_j
        "C": [n * (n - 1), n],  # e_i +- e_j; 2 e_i
        "BC": [n, n * (n - 1), n] if n > 1 else [1, 1],
        "F": [12, 12],
        "G": [3, 3],
    }[fam]


def positive_roots(kernel: str) -> int:
    """Positive roots of a classical anisotropic kernel such as "A1 x B3"."""
    count = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n, "D": lambda n: n * (n - 1)}
    return sum(count[t[0]](int(t[1:])) for t in kernel.split(" x ") if t)


def table_issues(e: Entry) -> list[str]:
    """The entry's own inconsistencies, found without the program."""
    out = []
    sizes = class_sizes(e.restricted)
    if len(sizes) != len(e.multiplicities):
        return [f"{e.name}: {len(e.multiplicities)} multiplicities for {len(sizes)} classes"]
    if e.reduced == e.restricted.startswith("BC"):
        out.append(f"{e.name}: reduced={e.reduced} for {e.restricted}")
    r = int(e.restricted.lstrip("ABCDEFG"))
    total = sum(s * m for s, m in zip(sizes, e.multiplicities))
    if (e.dim_g - e.ambient[1]) // 2 != positive_roots(e.kernel) + total:
        out.append(f"{e.name}: the positive roots do not add up")
    if e.dim_k is not None and e.dim_g - e.dim_k != r + total:
        out.append(f"{e.name}: dim p = {e.dim_g - e.dim_k}, r + sum m = {r + total}")
    return out


def tits_index(e: Entry) -> TitsIndex:
    """The entry as an index; its star cycles make one generator."""
    n = e.ambient[1]
    p = list(range(n))
    for cycle in e.star:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p[a - 1] = b - 1
    gens = [[[int(p[i] == j) for j in range(n)] for i in range(n)]] if e.star else []
    return TitsIndex.of(AmbientRootDatum.of([e.ambient]), [i - 1 for i in e.compact], gens)


def computed(ix: TitsIndex) -> tuple[str, bool, tuple[int, ...]]:
    """Restricted type, reducedness and multiplicities as the program finds
    them.  Classes are told apart by squared length under the inverse Gram
    matrix of the split basis, inverted here by sympy."""
    phi = restricted_root_system(ix)
    ((fam, r),) = ix.simple_roots.types
    name = f"BC{r}" if not phi.reduced else "B2" if (fam, r) == ("C", 2) else f"{fam}{r}"
    g_inv = Matrix(mat_mul_t(split_subspace(ix), transpose(ix.restriction))).inv()
    by_norm = {}
    for root, m in phi.multiplicities:
        by_norm.setdefault((Matrix([root]) * g_inv * Matrix([root]).T)[0], set()).add(m)
    assert all(len(ms) == 1 for ms in by_norm.values()), "roots of one length with two multiplicities"
    return name, phi.reduced, tuple(ms.pop() for _, ms in sorted(by_norm.items()))


def program_mismatches(e: Entry) -> list[str]:
    ix = tits_index(e)
    if ix.violations():
        return [f"{e.name}: {v}" for v in ix.violations()]
    got = computed(ix)
    want = (e.restricted, e.reduced, e.multiplicities)
    return [] if got == want else [f"{e.name}: the program gives {got}, the table {want}"]


@pytest.mark.parametrize("e", TABLE, ids=[e.name for e in TABLE])
def test_the_table_entry_holds_and_the_program_matches_it(e):
    assert table_issues(e) == []
    assert program_mismatches(e) == []


@pytest.mark.parametrize("e", TABLE, ids=[e.name for e in TABLE])
def test_a_planted_wrong_multiplicity_fails(e):
    planted = e._replace(multiplicities=(e.multiplicities[0] + 1,) + e.multiplicities[1:])
    assert table_issues(planted) != []
    assert program_mismatches(planted) != []


def test_the_table_covers_twelve_indices():
    assert len({e.name for e in TABLE}) == 12
