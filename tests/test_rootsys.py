import random
from fractions import Fraction

import pytest

from spherindex.errors import NotARootBase, NotFiniteType
from datagen import classified_type_name, flip_matrix, fmat
from spherindex.cli import parse_index
from spherindex.linalg import dot, identity, inverse, vec_mat
from spherindex.rootsys import (
    AmbientRootDatum,
    VALID_RANKS,
    DynkinComponent,
    RootBase,
    classify,
    generate_roots,
    opposition_permutation,
    positive_roots_in_base_coords,
    root_count,
    simple_reflection,
    standard_cartan,
    standard_form,
    weyl_order,
)

ALL_SMALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 2), ("D", 3), ("D", 4), ("D", 5),
    ("E", 6), ("F", 4), ("G", 2),
]


def std_base(fam, n):
    form = standard_form(fam, n)
    vecs = [[int(i == j) for j in range(n)] for i in range(n)]
    return RootBase.from_vectors(vecs, form)


def test_invalid_types_rejected():
    for fam, n in [("E", 5), ("E", 9), ("F", 3), ("G", 3), ("B", 1), ("H", 3)]:
        with pytest.raises(NotFiniteType):
            DynkinComponent(fam, n)


def test_standard_cartan_conventions():
    assert standard_cartan("B", 2) == ((2, -2), (-1, 2))
    assert standard_cartan("C", 2) == ((2, -1), (-2, 2))
    assert standard_cartan("G", 2) == ((2, -1), (-3, 2))
    assert standard_cartan("A", 2) == ((2, -1), (-1, 2))
    # F4: roots 1,2 long, 3,4 short
    f4 = standard_cartan("F", 4)
    assert f4[1][2] == -2 and f4[2][1] == -1


def test_standard_form_short_roots_length_two():
    for fam, n in ALL_SMALL_TYPES:
        form = standard_form(fam, n)
        assert min(form[i][i] for i in range(n)) == 2
        c = standard_cartan(fam, n)
        for i in range(n):
            for j in range(n):
                assert Fraction(2 * form[i][j], form[j][j]) == c[i][j]


def test_cartan_matrix_from_gram():
    base = std_base("G", 2)
    assert base.cartan == ((2, -1), (-3, 2))
    assert base.components == (("G", 2, (0, 1)),)


def test_cartan_matrix_orthogonal_pair():
    base = RootBase.from_vectors([[1, 0], [0, 1]], [[2, 0], [0, 2]])
    assert base.cartan == ((2, 0), (0, 2))
    assert base.types == (("A", 1), ("A", 1))


def test_cartan_matrix_rejects_bad_bases():
    with pytest.raises(NotARootBase):
        RootBase.from_vectors([[1, 0], [2, 0]], [[2, 0], [0, 2]])
    with pytest.raises(NotARootBase, match="positive off-diagonal Cartan number"):
        # acute pair gives a positive off-diagonal Cartan number
        RootBase.from_vectors([[1, 0], [1, 1]], [[2, 0], [0, 2]])
    with pytest.raises(NotARootBase, match="non-integral Cartan number"):
        RootBase.from_vectors([[1, 0], [0, 1]], [[2, -1], [-1, 4]])


def test_root_base_of_non_finite_type_is_rejected():
    # affine A1~ (singular Cartan matrix) and a hyperbolic rank-2 matrix
    for pairing in ([[2, -2], [-2, 2]], [[2, -3], [-3, 2]]):
        with pytest.raises(NotFiniteType, match="Cartan matrix is not of finite type"):
            RootBase.from_vectors([[1, 0], [0, 1]], pairing)


def test_g2_base_inside_c3():
    # sigma1 = a1 + a3, sigma2 = a2 inside the C3 form
    amb = AmbientRootDatum.of([("C", 3)])
    base = RootBase.from_vectors([[1, 0, 1], [0, 1, 0]], amb.form())
    assert base.gram == ((6, -3), (-3, 2))
    assert base.cartan == ((2, -3), (-1, 2))
    assert classified_type_name(base.cartan) == "G2"


def test_classify_small():
    assert classify([[2, -1], [-1, 2]]) == [("A", 2, (0, 1))]
    assert classify([[2, -2], [-1, 2]]) == [("B", 2, (0, 1))]
    assert classify([[2, -1], [-2, 2]]) == [("C", 2, (0, 1))]
    # first root long, so it sits at Bourbaki position 2 of G2
    assert classify([[2, -3], [-1, 2]]) == [("G", 2, (1, 0))]
    assert classify([[2, -1], [-3, 2]]) == [("G", 2, (0, 1))]
    assert classify([[2, 0], [0, 2]]) == [("A", 1, (0,)), ("A", 1, (1,))]


def test_classify_roundtrip_with_permutation():
    import random

    rng = random.Random(7)
    for fam, n in ALL_SMALL_TYPES:
        if (fam, n) == ("D", 2):  # disconnected, handled by the component split
            continue
        std = standard_cartan(fam, n)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = [[std[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        got = classify(shuffled)
        assert len(got) == 1
        gfam, grk, positions = got[0]
        assert grk == n
        if fam == "C" and n == 2:
            assert gfam in "BC"
        elif fam == "D" and n == 2:
            assert (gfam, grk) in {("D", 2), ("A", 1)} or gfam == "A"
        elif fam == "D" and n == 3:
            assert gfam in "AD"
        else:
            assert gfam == fam
        # positions really transports the standard matrix onto the input
        gstd = standard_cartan(gfam, grk)
        for i in range(n):
            for j in range(n):
                assert shuffled[positions[i]][positions[j]] == gstd[i][j]


def test_classify_rejects_not_finite():
    with pytest.raises(NotFiniteType):
        classify([[2, -2], [-2, 2]])  # affine A1~


def test_generate_roots_counts():
    for fam, n in ALL_SMALL_TYPES:
        base = std_base(fam, n)
        roots = generate_roots(base)
        assert len(roots) == root_count(fam, n)
        pos = positive_roots_in_base_coords(standard_cartan(fam, n), [(fam, n)])
        assert 2 * len(pos) == root_count(fam, n)


def test_generate_roots_a1():
    base = RootBase.from_vectors([[1]], [[2]])
    assert sorted(generate_roots(base)) == [(-1,), (1,)]


def test_generate_roots_reflection_closed():
    for fam, n in [("B", 2), ("G", 2), ("A", 3)]:
        form = fmat(standard_form(fam, n))
        base = std_base(fam, n)
        roots = set(generate_roots(base))
        for s in list(roots):
            ss = dot(vec_mat(s, form), s)
            for r in roots:
                coef = 2 * dot(vec_mat(r, form), s) / ss
                refl = tuple(a - coef * b for a, b in zip(r, s))
                assert refl in roots


def test_weyl_invariance_of_form():
    for fam, n in [("B", 2), ("G", 2), ("A", 2)]:
        c = standard_cartan(fam, n)
        form = fmat(standard_form(fam, n))
        for j in range(n):
            for u in generate_roots(std_base(fam, n)):
                for v in generate_roots(std_base(fam, n)):
                    su, sv = simple_reflection(u, c, j), simple_reflection(v, c, j)
                    assert dot(vec_mat(su, form), sv) == dot(vec_mat(u, form), v)


def test_weyl_order_values():
    assert weyl_order([("A", 1)]) == 2
    assert weyl_order([("B", 2)]) == 8
    assert weyl_order([("G", 2)]) == 12
    assert weyl_order([("E", 6)]) == 51840
    assert weyl_order([("A", 2), ("B", 3)]) == 6 * 48


def test_opposition_permutation():
    assert opposition_permutation(std_base("A", 1)) == (0,)
    assert opposition_permutation(std_base("A", 3)) == (2, 1, 0)
    assert opposition_permutation(std_base("B", 2)) == (0, 1)
    assert opposition_permutation(std_base("D", 4)) == (0, 1, 2, 3)
    assert opposition_permutation(std_base("E", 6)) == (5, 1, 4, 3, 2, 0)


def test_opposition_is_involution_preserving_cartan():
    for fam, n in ALL_SMALL_TYPES:
        base = std_base(fam, n)
        p = opposition_permutation(base)
        assert sorted(p) == list(range(n))
        assert all(p[p[i]] == i for i in range(n))
        c = base.cartan
        for i in range(n):
            for j in range(n):
                assert c[p[i]][p[j]] == c[i][j]


def fraction_rho_word(c):
    """The reduced word for w0 from the Fraction rho = (1, ..., 1) @ c^-1."""
    x = tuple(-t for t in vec_mat((1,) * len(c), inverse(c)))
    word = []
    while (j := next((t for t, p in enumerate(vec_mat(x, c)) if p < 0), None)) is not None:
        x = simple_reflection(x, c, j)
        word.append(j)
    return word


def test_opposition_matches_the_fraction_rho_word():
    """-w0 read off the type equals -w0 from a reduced word, on shuffled bases."""
    irreducible = [(f, n) for f in "ABCDEFG" for n in range(1, 9) if VALID_RANKS[f](n)]
    ambients = [AmbientRootDatum.of([t]) for t in irreducible]
    for spec in (
        [("A", 2), ("B", 3), ("G", 2), ("D", 4)],
        [("A", 3), ("A", 3)],
        [("D", 5), ("E", 6), ("A", 1)],
        [("D", 7), ("C", 3)],
    ):
        ambients.append(AmbientRootDatum.of(spec))
    rng = random.Random(20261018)
    for amb in ambients:
        n = amb.dim
        for _ in range(6):
            order = rng.sample(range(n), n)
            base = RootBase.from_vectors([identity(n)[i] for i in order], amb.form())
            c = base.cartan
            word = fraction_rho_word(c)
            assert len(word) == len(positive_roots_in_base_coords(c, base.types))  # reduced
            perm = []
            for v in identity(n):
                for j in word:
                    v = simple_reflection(v, c, j)
                perm.append(identity(n).index(tuple(-x for x in v)))
            assert opposition_permutation(base) == tuple(perm)


def test_flip_is_the_blockwise_diagram_involution():
    comps = [("A", 3), ("D", 5), ("E", 6), ("B", 2)]
    doc = {
        "schema_version": "1",
        "ambient": {"components": [{"family": f, "rank": r} for f, r in comps]},
        "star_generators": ["flip"],
    }
    pairs = [(0, 2), (6, 7), (8, 13), (10, 12)]
    assert parse_index(doc).star.generators == (tuple(map(tuple, flip_matrix(16, pairs))),)


def test_positive_roots():
    pos = positive_roots_in_base_coords(standard_cartan("G", 2), [("G", 2)])
    assert len(pos) == 6
    assert (3, 2) in pos  # highest root of G2
    assert all(all(x >= 0 for x in v) for v in pos)


def test_ambient_root_names():
    amb = AmbientRootDatum.of([("A", 2)])
    assert amb.root_names() == ["a1", "a2"]
    amb2 = AmbientRootDatum.of([("A", 2), ("B", 2)])
    assert amb2.root_names() == ["c1.a1", "c1.a2", "c2.a1", "c2.a2"]
    assert amb2.index_of_root("c2.a1") == 2
    with pytest.raises(KeyError):
        amb2.index_of_root("a9")


def test_ambient_form_is_block_sum():
    amb = AmbientRootDatum.of([("A", 1), ("G", 2)])
    f = amb.form()
    assert f[0][0] == 2 and f[0][1] == 0 and f[1][2] == -3
