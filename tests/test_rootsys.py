import os
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import islice
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix

from spherindex import linalg, rootsys
from spherindex.errors import NotARootBase, NotFiniteType, ParseError, SpherindexError
from datagen import (
    ambient_roots,
    cartan_matrix,
    classified_type_name,
    classify_first_match,
    closure_steps_with_its_own_set,
    counted_restriction,
    dfs_match,
    divisor_scan_indivisible,
    flip_matrix,
    fmat,
    generate_roots_by_full_sort,
    positive_roots_in_base_coords,
    random_root_base_input,
    rank_first_root_base,
    restricted_roots_by_negation_update,
    root_count,
    weyl_order_of,
)
from spherindex.cli import parse_index
from spherindex.index import restricted_simple_roots
from spherindex.linalg import dot, gram, identity, mat_mul, transpose, vec_mat
from spherindex.rootsys import (
    AmbientRootDatum,
    VALID_RANKS,
    RestrictedRoots,
    RootBase,
    classify,
    generate_roots,
    graph_components,
    indivisible_roots,
    opposition_permutation,
    orbit,
    root_images,
    standard_cartan,
    standard_form,
    weyl_order,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import gen  # noqa: E402


def simple_reflection(v, col, j: int) -> tuple:
    """s_j(v) = v - <v, a_j^vee> a_j on base coordinates; col is column j of the Cartan matrix."""
    return v[:j] + (v[j] - dot(v, col),) + v[j + 1:]


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
        with pytest.raises(ParseError, match=f"^{fam}{n} is not a finite type$"):
            AmbientRootDatum.of([(fam, n)])


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
    assert cartan_matrix(base.vectors, standard_form("G", 2)) == ((2, -1), (-3, 2))
    assert base.components == (("G", 2, (0, 1)),)


def test_cartan_matrix_orthogonal_pair():
    base = RootBase.from_vectors([[1, 0], [0, 1]], [[2, 0], [0, 2]])
    assert cartan_matrix(base.vectors, [[2, 0], [0, 2]]) == ((2, 0), (0, 2))
    assert base.types == (("A", 1), ("A", 1))


def test_cartan_matrix_rejects_bad_bases():
    with pytest.raises(NotARootBase):
        RootBase.from_vectors([[1, 0], [2, 0]], [[2, 0], [0, 2]])
    with pytest.raises(NotARootBase, match="positive off-diagonal Cartan number"):
        # acute pair gives a positive off-diagonal Cartan number
        RootBase.from_vectors([[1, 0], [1, 1]], [[2, 0], [0, 2]])
    with pytest.raises(NotARootBase, match="non-integral Cartan number"):
        RootBase.from_vectors([[1, 0], [0, 1]], [[2, -1], [-1, 4]])


def _outcome(build, vectors, form):
    try:
        return build(vectors, form)
    except SpherindexError as e:
        return type(e), str(e)


def test_root_base_matches_the_rank_first_oracle():
    """Classifying first and eliminating only on failure gives the base, or
    the exception class and message, that one elimination before the Gram
    checks gave, on 400 seeded inputs that reach every outcome."""
    rng = random.Random(30)
    seen = Counter()
    for _ in range(400):
        vectors, form = random_root_base_input(rng)
        want = _outcome(rank_first_root_base, vectors, form)
        assert _outcome(RootBase.from_vectors, vectors, form) == want
        rational = any(type(x) is Fraction for row in [*vectors, *form] for x in row)
        if isinstance(want, RootBase):
            seen["base", rational] += 1
        else:
            seen[want[0].__name__, want[1].split(" at ")[0]] += 1
    assert seen.keys() == {
        ("base", False),
        ("base", True),
        ("LinearlyDependent", "base vectors are linearly dependent"),
        ("NotARootBase", "base vector of nonpositive squared length"),
        ("NotARootBase", "non-integral Cartan number"),
        ("NotARootBase", "positive off-diagonal Cartan number"),
        ("NotFiniteType", "Cartan matrix is not of finite type"),
    }, seen


def test_indivisible_roots_match_the_divisor_definition():
    """The roots with no r / n (n >= 2) in the set, by the definition, on
    seeded integer sets: multiples {v, 2v, 3v} of a line, BC_n, and vectors
    of content above 1 whose divisors are absent."""
    sets = [{(1, 2), (2, 4), (3, 6)}, {(2, 4)}, {(2, 0), (6, 0), (3, 0), (4, 4)}, {(0, 0), (0, 2)}]
    for n in range(1, 5):
        bc = set()
        for i in range(n):
            e = tuple(int(t == i) for t in range(n))
            bc |= {e, tuple(2 * x for x in e)}
            for j in range(i):
                f = tuple(int(t == j) for t in range(n))
                bc |= {tuple(a + s * b for a, b in zip(e, f)) for s in (1, -1)}
        bc |= {tuple(-x for x in r) for r in bc}
        assert len(indivisible_roots(bc)) == 2 * n * n  # B_n, with 2n doubled roots beside
        sets.append(bc)
    rng = random.Random(31)
    for _ in range(300):
        dim = rng.randint(1, 3)
        support = set()
        for _ in range(rng.randint(1, 8)):
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
            support |= {tuple(k * x for x in v) for k in rng.sample([1, 2, 3, 4, 6], rng.randint(1, 3))}
        sets.append(support)
    for support in sets:
        assert indivisible_roots(support) == divisor_scan_indivisible(support), support
    assert indivisible_roots({(1, 2), (2, 4), (3, 6)}) == {(1, 2)}
    assert indivisible_roots({(2, 4), (6, 0), (4, 4)}) == {(2, 4), (6, 0), (4, 4)}


def positive_images(dim):
    return st.lists(st.tuples(*[st.integers(-4, 4)] * dim), max_size=12)


@settings(max_examples=300, deadline=None)
@given(pos=st.integers(1, 3).flatmap(positive_images))
@example(pos=[])
@example(pos=[(0, 0), (0, 0)])
@example(pos=[(1, 0), (1, 0), (-1, 0), (2, 0), (0, 0)])
@example(pos=[(1, -2), (-1, 2), (2, -4), (-2, 4), (3, -6)])
@example(pos=[(2,), (4,), (-2,), (6,), (-6,), (3,)])
def test_restricted_roots_of_the_positive_images_count_both_signs(pos):
    """``of`` on the images of the positive roots equals a count of every
    image, the negated ones included, with zeros, repeats, and x and -x both
    among the positive images."""
    assert RestrictedRoots.of(pos) == counted_restriction(pos + [tuple(-x for x in v) for v in pos])


def images_with_zeros_repeats_and_negations(dim):
    """Lists drawn from a few vectors, their negations and the zero vector,
    so that most lists hold zero rows, repeats, and x beside -x."""
    vectors = st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=5)
    return vectors.flatmap(
        lambda vs: st.lists(st.sampled_from([*vs, *(tuple(-x for x in v) for v in vs), (0,) * dim]), max_size=16)
    )


@settings(max_examples=300, deadline=None)
@given(images=st.integers(1, 3).flatmap(images_with_zeros_repeats_and_negations))
@example(images=[(1, 0), (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (0, -1)])
@example(images=[(2,), (-1,), (1,), (-2,), (2,), (0,)])
def test_restricted_roots_count_as_the_negation_update_did(images):
    """One count over the images and their negations, and the distinct roots
    sorted alone, give the record that a count updated by a dict of the
    negations, with its (root, multiplicity) pairs sorted, gave."""
    assert RestrictedRoots.of(images) == restricted_roots_by_negation_update(images)


def test_root_base_of_non_finite_type_is_rejected():
    # affine A1~ (singular Cartan matrix) and a hyperbolic rank-2 matrix
    for pairing in ([[2, -2], [-2, 2]], [[2, -3], [-3, 2]]):
        with pytest.raises(NotFiniteType, match="Cartan matrix is not of finite type"):
            RootBase.from_vectors([[1, 0], [0, 1]], pairing)


def test_g2_base_inside_c3():
    # sigma1 = a1 + a3, sigma2 = a2 inside the C3 form
    amb = AmbientRootDatum.of([("C", 3)])
    base = RootBase.from_vectors([[1, 0, 1], [0, 1, 0]], amb.form())
    assert gram(base.vectors, amb.form()) == ((6, -3), (-3, 2))
    assert cartan_matrix(base.vectors, amb.form()) == ((2, -3), (-1, 2))
    assert classified_type_name(cartan_matrix(base.vectors, amb.form())) == "G2"


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


@pytest.mark.parametrize(
    "c",
    [
        [[3, -2], [-1, 1]],  # the row sums and bond of B2
        [[1, -1], [-2, 3]],  # the row sums and bond of C2
        [[2, -1, 0], [-1, 3, -1], [0, -1, 1]],  # the row sums and edges of A3
        [[2, 0], [0, 1]],
    ],
)
def test_classify_rejects_a_diagonal_entry_other_than_2(c):
    with pytest.raises(NotFiniteType, match="Cartan matrix has a diagonal entry other than 2"):
        classify(c)


def test_generate_roots_counts():
    for fam, n in ALL_SMALL_TYPES:
        base = std_base(fam, n)
        roots = generate_roots(base)
        assert len(roots) == root_count(fam, n)
        pos = positive_roots_in_base_coords([(fam, n, tuple(range(n)))], n)
        assert 2 * len(pos) == root_count(fam, n)


def test_generate_roots_is_the_sorted_base_coordinates_times_the_base():
    """One walk pairs each root with its base coordinates: the same list as
    the product of the sorted coordinates with the base vectors, on standard,
    shuffled and rational bases; a shared Fraction entry keeps each root
    equal, though an entry may stay an int where the product gives a Fraction."""
    rng = random.Random(20261019)
    bases = [std_base(fam, n) for fam, n in ALL_SMALL_TYPES]
    for spec in ([("A", 2), ("B", 3), ("G", 2)], [("D", 4), ("A", 1)], [("C", 3), ("E", 6)]):
        amb = AmbientRootDatum.of(spec)
        n = amb.dim
        order = rng.sample(range(n), n)
        bases.append(RootBase.from_vectors([identity(n)[i] for i in order], amb.form()))
        # c_i e_i under F_ij / (c_i c_j): the same Cartan matrix on rational vectors
        c = [Fraction(i + 2, 3) for i in range(n)]
        scaled = [tuple(c[i] * x for x in row) for i, row in enumerate(identity(n))]
        form = [[f / (c[i] * c[j]) for j, f in enumerate(row)] for i, row in enumerate(amb.form())]
        bases.append(RootBase.from_vectors(scaled, form))
    for base in bases:
        pos = positive_roots_in_base_coords(base.components, len(base))
        coords = sorted(pos + [tuple(-x for x in v) for v in pos])
        assert generate_roots(base) == list(mat_mul(coords, base.vectors))


def test_generate_roots_lists_the_negated_sorted_positive_roots_first():
    """Sorting the positive roots once and listing their negations in reverse
    first gives the list of one sort of all 2|Phi+| pairs: on big split bases,
    and on shuffled bases of every exceptional and several classical types."""
    rng = random.Random(2151)
    bases = []
    for spec in ([("A", 100)], [("B", 60)], [("E", 8)] * 12, [("A", 1)] * 100):
        amb = AmbientRootDatum.of(spec)
        bases.append(RootBase.from_vectors(identity(amb.dim), amb.form()))
    for typ in [("A", 12), ("B", 9), ("C", 7), ("D", 8), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]:
        amb = AmbientRootDatum.of([typ])
        bases.append(RootBase.from_vectors(rng.sample(identity(amb.dim), amb.dim), amb.form()))
    for base in bases:
        assert generate_roots(base) == generate_roots_by_full_sort(base)


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
        cols = transpose(standard_cartan(fam, n))
        form = fmat(standard_form(fam, n))
        for j in range(n):
            for u in generate_roots(std_base(fam, n)):
                for v in generate_roots(std_base(fam, n)):
                    su, sv = simple_reflection(u, cols[j], j), simple_reflection(v, cols[j], j)
                    assert dot(vec_mat(su, form), sv) == dot(vec_mat(u, form), v)


def test_weyl_order_values():
    assert weyl_order([("A", 1)]) == 2
    assert weyl_order([("B", 2)]) == 8
    assert weyl_order([("G", 2)]) == 12
    assert weyl_order([("E", 6)]) == 51840
    assert weyl_order([("A", 2), ("B", 3)]) == 6 * 48
    # no analyze reference job prints the order of a D or E type
    assert weyl_order([("D", 4)]) == 192
    assert weyl_order([("D", 5)]) == 1920
    assert weyl_order([("E", 7)]) == 2903040
    assert weyl_order([("E", 8)]) == 696729600
    assert weyl_order([("F", 4)]) == 1152


TYPES_UP_TO_RANK_40 = [(f, n) for f in "ABCDEFG" for n in range(1, 41) if VALID_RANKS[f](n)]


def degree_mismatches(degrees) -> list:
    """The types up to rank 40 whose ``degrees`` do not give the classical
    |W| as their product and |Phi| / 2 as the sum of d_i - 1."""
    return [
        (fam, n)
        for fam, n in TYPES_UP_TO_RANK_40
        if prod(degrees(fam, n)) != weyl_order_of(fam, n) or 2 * (sum(degrees(fam, n)) - n) != root_count(fam, n)
    ]


def test_degrees_give_every_root_count_and_weyl_order():
    assert len(TYPES_UP_TO_RANK_40) == 162
    assert degree_mismatches(rootsys.degrees) == []
    # the closure, cut at the count the degrees give, finds every positive root past the simple ones
    for fam, n in TYPES_UP_TO_RANK_40:
        assert len(rootsys._standard_positive_roots(fam, n)) == root_count(fam, n) // 2 - n
    # a wrong E7 degree is caught, and so is a swap that keeps the sum
    for planted in [(2, 6, 8, 10, 12, 16, 18), (2, 6, 8, 10, 13, 13, 18)]:
        wrong = lambda fam, n, planted=planted: planted if (fam, n) == ("E", 7) else rootsys.degrees(fam, n)
        assert degree_mismatches(wrong) == [("E", 7)]


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
        c = cartan_matrix(base.vectors, standard_form(fam, n))
        for i in range(n):
            for j in range(n):
                assert c[p[i]][p[j]] == c[i][j]


def fraction_rho_word(c):
    """The reduced word for w0 from the Fraction rho = (1, ..., 1) @ c^-1, with sympy's inverse."""
    x = tuple(-Fraction(int(t.p), int(t.q)) for t in Matrix([[1] * len(c)]) * Matrix(c).inv())
    word = []
    while (j := next((t for t, p in enumerate(vec_mat(x, c)) if p < 0), None)) is not None:
        x = simple_reflection(x, transpose(c)[j], j)
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
            c = cartan_matrix(base.vectors, amb.form())
            word = fraction_rho_word(c)
            assert len(word) == len(positive_roots_in_base_coords(base.components, n))  # reduced
            perm = []
            for v in identity(n):
                for j in word:
                    v = simple_reflection(v, transpose(c)[j], j)
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
    assert parse_index(doc).star == (tuple(map(tuple, flip_matrix(16, pairs))),)


def test_positive_roots():
    pos = positive_roots_in_base_coords([("G", 2, (0, 1))], 2)
    assert len(pos) == 6
    assert (3, 2) in pos  # highest root of G2
    assert all(all(x >= 0 for x in v) for v in pos)


def brute_force_positive_roots(c):
    """The nonnegative half of the closure of the simple roots and their
    negatives under every simple reflection of the Cartan matrix c."""
    n = len(c)
    cols = transpose(c)
    roots = {v for e in identity(n) for v in (e, tuple(-x for x in e))}
    frontier = roots
    while frontier:
        frontier = {simple_reflection(v, cols[j], j) for v in frontier for j in range(n)} - roots
        roots |= frontier
    return sorted(v for v in roots if all(x >= 0 for x in v))


ORACLE_TYPES = (
    [("A", n) for n in range(1, 13)]
    + [(f, n) for f in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_positive_roots_match_the_brute_force_closure():
    for fam, n in ORACLE_TYPES:
        pos = positive_roots_in_base_coords([(fam, n, tuple(range(n)))], n)
        assert pos == brute_force_positive_roots(standard_cartan(fam, n))
        assert 2 * len(pos) == root_count(fam, n)


def test_positive_roots_of_shuffled_reducible_matrices_match_the_brute_force_closure():
    """Each type's roots land on the input indices that classify's positions name."""
    rng = random.Random(20261019)
    for spec in (
        [("A", 2), ("B", 3), ("G", 2)],
        [("D", 4), ("A", 1), ("A", 1)],
        [("C", 3), ("E", 6)],
        [("F", 4), ("A", 3), ("D", 5)],
        [("A", 6), ("A", 6)],
        [("B", 2), ("E", 7)],
    ):
        amb = AmbientRootDatum.of(spec)
        n = amb.dim
        c = cartan_matrix(identity(n), amb.form())
        for _ in range(3):
            order = rng.sample(range(n), n)
            shuffled = tuple(tuple(c[i][j] for j in order) for i in order)
            pos = positive_roots_in_base_coords(classify(shuffled), n)
            assert pos == brute_force_positive_roots(shuffled)


# highest roots from Bourbaki, Lie Groups and Lie Algebras, ch. VI, Plates I-IX
HIGHEST_ROOTS = {
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
    ("F", 4): (2, 3, 4, 2),
    ("G", 2): (3, 2),
}


def bourbaki_highest_root(fam, n):
    if fam == "A":
        return (1,) * n
    if fam == "B":
        return (1,) + (2,) * (n - 1)
    if fam == "C":
        return (2,) * (n - 1) + (1,)
    if fam == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return HIGHEST_ROOTS[fam, n]


def test_highest_roots_are_bourbakis():
    """The highest root is a root, and every positive root lies below it."""
    for fam, n in ORACLE_TYPES:
        top = bourbaki_highest_root(fam, n)
        pos = positive_roots_in_base_coords([(fam, n, tuple(range(n)))], n)
        assert top in pos
        assert all(x <= y for v in pos for x, y in zip(v, top))


def test_each_type_is_enumerated_once():
    """The two A6 components of A6 x A6 enumerate the roots of A6 once, and
    a second ambient of the same type asks again for free."""
    rootsys._standard_positive_roots.cache_clear()
    amb = AmbientRootDatum.of([("A", 6), ("A", 6)])
    assert len(ambient_roots(amb)) == 2 * root_count("A", 6)
    assert len(ambient_roots(AmbientRootDatum.of([("A", 6), ("A", 6)]))) == 84
    info = rootsys._standard_positive_roots.cache_info()
    assert (info.misses, info.hits) == (1, 3)


TYPES_UP_TO_RANK_12 = [(f, n) for f in "ABCDEFG" for n in range(1, 13) if VALID_RANKS[f](n)]


def reflection_closure(fam, n):
    """The positive roots in the order of the closure that paired each root
    with the Cartan columns by a product: the order the steps must keep."""
    cols = transpose(standard_cartan(fam, n))

    def up(v):
        return (simple_reflection(v, col, j) for j, col in enumerate(cols) if dot(v, col) < 0)

    return list(islice(orbit(identity(n), up), root_count(fam, n) // 2))


# ranks at which the closure's keys and pairing rows hold many digits
WIDE_TYPES = [(f, n) for f in "ABCD" for n in (16, 24, 40)]


@pytest.mark.parametrize("fam, n", TYPES_UP_TO_RANK_12 + WIDE_TYPES)
def test_each_recorded_step_reproduces_its_root(fam, n):
    steps = rootsys._standard_positive_roots(fam, n)
    roots = root_images([(fam, n, tuple(range(n)))], identity(n))
    cols = transpose(standard_cartan(fam, n))
    assert roots == reflection_closure(fam, n)
    assert roots[:n] == list(identity(n)) and len(steps) == len(roots) - n
    # the closure packs each pairing as a 3-bit digit biased by 4
    assert all(-3 <= dot(v, col) <= 3 for v in roots for col in cols)
    assert [dot(roots[j], cols[j]) for j in range(n)] == [2] * n
    for child, (parent, j, k) in enumerate(steps, start=n):
        assert parent < child
        assert k == -dot(roots[parent], cols[j]) > 0
        assert roots[child] == tuple(x + k * int(i == j) for i, x in enumerate(roots[parent]))


@pytest.mark.parametrize("fam, n", TYPES_UP_TO_RANK_12)
def test_the_closure_takes_the_steps_of_the_closure_with_its_own_set(fam, n):
    """The closure that keeps one membership map, ``pairing``, takes every
    step, in order, that the closure with a set beside it took: E6-E8, F4
    and G2 among the types."""
    steps = rootsys._standard_positive_roots.__wrapped__(fam, n)
    assert steps == closure_steps_with_its_own_set(standard_cartan(fam, n), root_count(fam, n) // 2)


def test_an_affine_cartan_matrix_fails_as_the_closure_with_its_own_set_did(monkeypatch):
    """Affine A2~ has infinitely many positive roots; both closures stop one
    root past A3's six and raise the same error."""
    affine = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    with pytest.raises(NotFiniteType) as before:
        closure_steps_with_its_own_set(affine, 6)
    monkeypatch.setattr(rootsys, "standard_cartan", lambda family, n: affine)
    with pytest.raises(NotFiniteType) as after:
        rootsys._standard_positive_roots.__wrapped__("A", 3)
    assert str(after.value) == str(before.value) == "root count does not match classified type"


def test_a_cold_e8_enumeration_makes_no_matrix_product(monkeypatch):
    """The pairings of a root are its parent's plus k times a Cartan row."""
    calls = []

    def counting(*args):
        calls.append(args)
        return linalg.mat_mul_t(*args)

    monkeypatch.setattr(rootsys, "mat_mul_t", counting, raising=False)
    rootsys._standard_positive_roots.cache_clear()
    rootsys._standard_positive_roots("E", 8)
    assert calls == []
    assert len(positive_roots_in_base_coords([("E", 8, tuple(range(8)))], 8)) == 120


@pytest.mark.parametrize(
    "wrong",
    [
        ((2, 0, 0), (0, 2, 0), (0, 0, 2)),  # A1^3: too few roots for A3
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),  # affine A2~: an infinite closure
    ],
)
def test_root_count_check_fires_on_a_wrong_cartan_matrix(monkeypatch, wrong):
    monkeypatch.setattr(rootsys, "standard_cartan", lambda family, n: wrong)
    with pytest.raises(NotFiniteType, match="root count does not match classified type"):
        rootsys._standard_positive_roots.__wrapped__("A", 3)


# shuffled D_n and E_n share their multisets of row sums, so the row-sum
# reject leaves D_n to a search on an E_n input; the positions are those
# classify gave before the reject
SHUFFLED_D_AND_E = [
    (("D", 4), (2, 3, 0, 1), (0, 3, 1, 2)),
    (("D", 5), (3, 2, 1, 0, 4), (3, 2, 1, 0, 4)),
    (("D", 6), (1, 0, 2, 5, 3, 4), (1, 0, 2, 4, 3, 5)),
    (("D", 7), (0, 6, 3, 2, 5, 1, 4), (0, 5, 3, 2, 6, 1, 4)),
    (("D", 8), (2, 3, 7, 0, 5, 1, 4, 6), (3, 5, 0, 1, 6, 4, 2, 7)),
    (("E", 6), (2, 4, 0, 5, 1, 3), (2, 4, 0, 5, 1, 3)),
    (("E", 7), (6, 5, 2, 4, 1, 3, 0), (6, 4, 2, 5, 3, 1, 0)),
    (("E", 8), (5, 2, 4, 0, 1, 3, 6, 7), (3, 4, 1, 5, 2, 0, 6, 7)),
]


@pytest.mark.parametrize("typ, order, positions", SHUFFLED_D_AND_E)
def test_classify_of_shuffled_d_and_e_is_unchanged(typ, order, positions):
    std = standard_cartan(*typ)
    shuffled = [[std[i][j] for j in order] for i in order]
    assert classify(shuffled) == [(*typ, positions)]


# every type classify can name from a connected component: D2 is disconnected
CONNECTED_TYPES = [(f, n) for f in "ABCDEFG" for n in range(1, 9) if VALID_RANKS[f](n) and (f, n) != ("D", 2)]


def cartan_like(rng: random.Random, n: int) -> tuple:
    """A connected n x n matrix, as ``classify`` passes to the matcher: a random
    tree of negative entries, each of its edges sometimes one-sided, one or two
    more edges at times, and now and then a diagonal entry other than 2."""
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        c[u][v], c[v][u] = -rng.choice([1, 1, 1, 2, 3]), -rng.choice([0, 1, 1, 1, 2, 3])
        if not c[v][u]:
            c[u][v], c[v][u] = c[v][u], c[u][v]  # keep v reachable from u either way
    for _ in range(rng.choice([0, 0, 1, 2])):
        u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if u != v and not c[u][v] and not c[v][u]:
            c[u][v], c[v][u] = -rng.choice([1, 2]), -rng.choice([0, 1, 2])
    if rng.random() < 0.2:
        i = rng.randrange(n)
        c[i][i] = rng.choice([1, 3])
    return tuple(map(tuple, c))


def test_the_tree_walk_returns_what_the_depth_first_search_returns():
    """``rootsys._match`` against the search ``classify`` ran before, for each
    type of the input's rank: every type of rank <= 8 under 40 random orders
    (one in four with an edge added), and 3,000 random connected Cartan-like
    matrices, some of finite type."""
    rng = random.Random(33)
    inputs = []
    for fam, n in CONNECTED_TYPES:
        std = standard_cartan(fam, n)
        for k in range(40):
            p = rng.sample(range(n), n)
            c = [[std[p[i]][p[j]] for j in range(n)] for i in range(n)]
            if k % 4 == 3 and n > 2:
                # one more edge, the row sums kept by the diagonal: only the edge count rejects it
                u, v = rng.sample([(u, v) for u in range(n) for v in range(u) if not c[u][v]], 1)[0]
                c[u][v] = c[v][u] = -1
                c[u][u] += 1
                c[v][v] += 1
            inputs.append(tuple(map(tuple, c)))
    inputs += [cartan_like(rng, rng.randint(1, 6)) for _ in range(3000)]
    found = Counter()
    for c in inputs:
        for fam, n in CONNECTED_TYPES:
            if n == len(c):
                perm = rootsys._match(c, fam, n)
                assert perm == dfs_match(c, standard_cartan(fam, n)), (c, fam)
                found[perm is not None] += 1
    assert found[True] > 1000 and found[False] > 10000


@pytest.mark.parametrize("n", [20, 100])
def test_classify_transports_a_shuffled_long_chain(n):
    """The search took 10.8 s and over 20 s on A20 in two random orders; the
    walk tries each vertex against at most three neighbours of its parent's
    image."""
    std = standard_cartan("A", n)
    p = random.Random(n).sample(range(n), n)
    shuffled = [[std[p[i]][p[j]] for j in range(n)] for i in range(n)]
    [(fam, rank_, positions)] = classify(shuffled)
    assert (fam, rank_) == ("A", n)
    assert all(shuffled[positions[i]][positions[j]] == std[i][j] for i in range(n) for j in range(n))


@pytest.mark.parametrize(
    "c",
    [
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2~
        [[2, -1, -1, -1, -1], [-1, 2, 0, 0, 0], [-1, 0, 2, 0, 0], [-1, 0, 0, 2, 0], [-1, 0, 0, 0, 2]],  # affine D4~
        [[2, -1, 0], [-1, 2, -2], [0, -2, 2]],  # hyperbolic
    ],
)
def test_classify_still_rejects_matrices_of_infinite_type(c):
    with pytest.raises(NotFiniteType, match="Cartan matrix is not of finite type"):
        classify(c)


def classified(rule, c):
    """``rule(c)``, or the message of the ``NotFiniteType`` it raises."""
    try:
        return rule(c)
    except NotFiniteType as e:
        return f"NotFiniteType: {e}"


def permuted(c, p) -> tuple:
    return tuple(tuple(c[i][j] for j in p) for i in p)


def block_sum(blocks) -> list:
    out, off = [[0] * sum(map(len, blocks)) for _ in range(sum(map(len, blocks)))], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


# the rank-2 double and triple bonds in both orientations, and the two double
# bonds of diagonal 3 and 1 whose row sums are still 0 and 1: B2 and C2 both
# match those by the walk, one as written and the other reversed
RANK_2_BONDS = [
    ((2, -2), (-1, 2)), ((2, -1), (-2, 2)), ((2, -1), (-3, 2)), ((2, -3), (-1, 2)),
    ((3, -2), (-1, 1)), ((1, -1), (-2, 3)),
]


@cache
def first_match_oracle_inputs() -> dict:
    """Every connected type of rank <= 8 under 40 random orders; 300 block
    sums of 2 to 4 components of rank <= 4, each shuffled, the whole then
    shuffled again; 3,000 connected Cartan-like matrices with diagonal 2; and
    the rank-2 bonds."""
    rng = random.Random(4848)
    types = [permuted(standard_cartan(f, n), rng.sample(range(n), n)) for f, n in CONNECTED_TYPES for _ in range(40)]
    parts = [standard_cartan(f, n) for f, n in CONNECTED_TYPES if n <= 4] + RANK_2_BONDS[:4]
    sums = []
    for _ in range(300):
        c = block_sum([permuted(b, rng.sample(range(len(b)), len(b))) for b in rng.choices(parts, k=rng.randint(2, 4))])
        sums.append(permuted(c, rng.sample(range(len(c)), len(c))))
    cartan = []
    for _ in range(3000):
        c = [list(row) for row in cartan_like(rng, rng.randint(1, 6))]
        for i in range(len(c)):
            c[i][i] = 2
        cartan.append(c)
    return {"types": types, "block sums": sums, "cartan-like": cartan, "rank-2 bonds": RANK_2_BONDS}


DIAGONAL_ERROR = "NotFiniteType: Cartan matrix has a diagonal entry other than 2"


@pytest.mark.parametrize("kind", ["types", "block sums", "cartan-like", "rank-2 bonds"])
def test_classify_names_what_the_first_match_rule_named(kind):
    """The candidates of the row sums, the identity first and the least
    (permutation, family) give the triples, or the error, of the rank-2
    branch and the A-to-G first match; but a diagonal entry other than 2,
    which the first match never read, is rejected."""
    outcomes = Counter()
    for c in first_match_oracle_inputs()[kind]:
        got = classified(classify, c)
        two = all(row[i] == 2 for i, row in enumerate(c))
        assert got == (classified(classify_first_match, c) if two else DIAGONAL_ERROR), c
        outcomes[isinstance(got, str)] += 1
        if kind == "block sums" and not isinstance(got, str):
            outcomes.update((fam, positions[0] < positions[1]) for fam, n, positions in got if n == 2)
    if kind == "cartan-like":
        assert outcomes[True] > 1000 and outcomes[False] > 300
    if kind == "block sums":  # B2 and C2 as written, G2 both ways
        assert {("B", True), ("C", True), ("G", True), ("G", False)} <= set(outcomes)


def test_the_rules_differ_only_where_a_diagonal_entry_is_not_2():
    """On Cartan-like matrices as drawn, now and then with a diagonal entry 1
    or 3, the one rule raises for every such entry, where the first match often
    named a type (B2 or C2 for an off-diagonal product 2 as written, or a walk
    that reads no diagonal), and names what the first match named otherwise."""
    rng = random.Random(4849)
    inputs = [cartan_like(rng, rng.randint(1, 6)) for _ in range(3000)] + [((3, -2), (-1, 3)), ((2, -1), (-2, 1))]
    differ = 0
    for c in inputs:
        old, new = classified(classify_first_match, c), classified(classify, c)
        if any(row[i] != 2 for i, row in enumerate(c)):
            assert new == DIAGONAL_ERROR, c
            differ += isinstance(old, list)
        else:
            assert new == old, c
    assert differ > 10


def test_each_classified_component_is_its_standard_cartan_matrix():
    """Every valid type of rank <= 8 under seeded orders, as given and with one
    diagonal entry raised and another lowered (the row sums of a type can stay):
    each component that ``classify`` returns, rebuilt from its positions, is the
    ``standard_cartan`` of its type, diagonal included, and only the valid
    inputs are named."""
    rng = random.Random(5122)
    named = Counter()
    for fam, n in [(f, n) for f in "ABCDEFG" for n in range(1, 9) if VALID_RANKS[f](n)]:
        std = standard_cartan(fam, n)
        for _ in range(10):
            c = [list(row) for row in permuted(std, rng.sample(range(n), n))]
            inputs = [(c, True)]
            if n > 1:
                i, j = rng.sample(range(n), 2)
                bent = [list(row) for row in c]
                bent[i][i] += 1
                bent[j][j] -= 1
                inputs.append((bent, False))
            for m, valid in inputs:
                try:
                    got = classify(m)
                except NotFiniteType:
                    got = None
                assert (got is not None) == valid, m
                for f, k, positions in got or ():
                    assert permuted(m, positions) == standard_cartan(f, k), (m, f, k)
                if got:
                    assert sorted(p for *_, positions in got for p in positions) == list(range(n))
                    named[len(got)] += 1
    assert named[2] == 10  # D2 is A1 x A1


TABLES = (rootsys.standard_form, rootsys.standard_cartan, rootsys._standard_diagram)


def cold_classify(monkeypatch, inputs) -> list:
    """``classify`` of each input in turn, the tables of every type cleared
    first: per input, its triples, the (family, rank) of each ``_match`` call
    and the types whose Cartan matrices it asked for."""
    for table in TABLES:
        table.cache_clear()
    match, cartan, out = rootsys._match, rootsys.standard_cartan, []
    for c in inputs:
        calls, asked = [], set()
        with monkeypatch.context() as m:
            m.setattr(rootsys, "_match", lambda c, family, n: calls.append((family, n)) or match(c, family, n))
            m.setattr(rootsys, "standard_cartan", lambda family, n: asked.add((family, n)) or cartan(family, n))
            out.append((classify(c), calls, asked))
    return out


def candidates(c) -> set:
    """The types of valid rank listed under the row sums of a component of c."""
    out = set()
    for comp in graph_components(c):
        sums = [sum(c[i][j] for j in comp) for i in comp]
        out |= {(f, len(comp)) for f in rootsys._CANDIDATES.get((sums.count(-1), sums.count(1)), "")}
    return {(f, n) for f, n in out if VALID_RANKS[f](n)}


def test_a_type_in_bourbaki_order_is_named_without_a_walk(monkeypatch):
    """Only D3 walks: it is A3 in another order."""
    for fam, n in CONNECTED_TYPES:
        [(triples, calls, asked)] = cold_classify(monkeypatch, [standard_cartan(fam, n)])
        if (fam, n) == ("D", 3):
            assert (triples, calls) == ([("A", 3, (1, 0, 2))], [("A", 3)])
        else:
            assert (triples, calls) == ([(fam, n, tuple(range(n)))], [])
        assert asked <= candidates(standard_cartan(fam, n))


@pytest.mark.parametrize("typ, order, positions", [case for case in SHUFFLED_D_AND_E if case[0][1] == 8])
def test_a_shuffled_d8_or_e8_walks_only_d8_and_e8(monkeypatch, typ, order, positions):
    std = standard_cartan(*typ)
    [(triples, calls, asked)] = cold_classify(monkeypatch, [[[std[i][j] for j in order] for i in order]])
    assert triples == [(*typ, positions)]
    assert calls == [("D", 8), ("E", 8)] and asked == {("D", 8), ("E", 8)}


def test_the_restricted_types_of_index_large_walk_at_most_twice(monkeypatch):
    """The Cartan matrices of the restricted simple roots of the benchmark's
    ``index-large`` jobs, classified cold in one pass."""
    inputs = []
    with monkeypatch.context() as m:
        m.setattr(rootsys, "classify", lambda c: inputs.append(c) or classify(c))
        for job in gen.index_large_jobs():
            restricted_simple_roots(parse_index(job.files["@datum"]))
    assert len(inputs) == 9
    out = cold_classify(monkeypatch, inputs)
    assert sum(len(calls) for _, calls, _ in out) <= 2
    for c, (_, _, asked) in zip(inputs, out):
        assert asked <= candidates(c)


def test_every_valid_type_is_a_candidate_of_its_own_row_sums():
    """Up to rank 40; D2 and D3 are A1 x A1 and A3, and are named so."""
    for fam in VALID_RANKS:
        for n in filter(VALID_RANKS[fam], range(1, 41)):
            assert ((fam, n) in candidates(standard_cartan(fam, n))) == ((fam, n) not in {("D", 2), ("D", 3)})
    assert classify(standard_cartan("D", 2)) == [("A", 1, (0,)), ("A", 1, (1,))]
    assert classify(standard_cartan("D", 3)) == [("A", 3, (1, 0, 2))]


def test_ambient_root_names():
    amb = AmbientRootDatum.of([("A", 2)])
    assert amb.root_names() == ["a1", "a2"]
    amb2 = AmbientRootDatum.of([("A", 2), ("B", 2)])
    assert amb2.root_names() == ["c1.a1", "c1.a2", "c2.a1", "c2.a2"]
    assert amb2.index_of_root("c2.a1") == 2
    with pytest.raises(ParseError, match="^unknown simple root 'a9'$"):
        amb2.index_of_root("a9")


def test_parsing_su_1_100_builds_the_root_names_once(monkeypatch):
    """The 98 compact names of SU(1,100) are looked up in one map per datum."""
    calls = []
    names = AmbientRootDatum.root_names
    monkeypatch.setattr(AmbientRootDatum, "root_names", lambda self: calls.append(self) or names(self))
    ix = parse_index({
        "schema_version": "1",
        "mode": "ambient",
        "ambient": {"components": [{"family": "A", "rank": 100}]},
        "compact_simple": [f"a{i}" for i in range(2, 100)],
        "star_generators": ["flip"],
    })
    assert ix.compact == tuple(range(1, 99))
    assert len(calls) == 1


def test_ambient_form_is_block_sum():
    amb = AmbientRootDatum.of([("A", 1), ("G", 2)])
    f = amb.form()
    assert f[0][0] == 2 and f[0][1] == 0 and f[1][2] == -3


def test_block_sums_are_built_once_per_list_of_components():
    """form() builds its block sum once: a seed-5 corpus-mixed pass built
    2,520 block sums, each ambient asking again for the same ones."""
    built = rootsys._block_sum.cache_info().misses
    # labels no other test uses, so no earlier call has built this sum
    spec = [("C", 3, "once1"), ("G", 2, "once2")]
    for _ in range(3):
        amb = AmbientRootDatum.of(spec)
        assert amb.form() == AmbientRootDatum.of(spec).form()
        assert amb.form()[3][4] == -3
    assert rootsys._block_sum.cache_info().misses - built == 1


def test_orbit_is_lazy():
    # an infinite orbit: the budgets of the callers rely on islice ending it
    assert list(islice(orbit([0], lambda x: (x + 1,)), 5)) == [0, 1, 2, 3, 4]


def test_orbit_is_breadth_first_with_seeds_first_and_no_repeats():
    out = list(orbit([0, 3, 0], lambda x: ((x + 4) % 12, (x + 6) % 12)))
    # level by level, each element's images in order: the seeds (the repeated
    # 0 once), then 4, 6 (from 0) and 7, 9 (from 3), then 8, 10, 11, 1, then 2, 5
    assert out == [0, 3, 4, 6, 7, 9, 8, 10, 11, 1, 2, 5]
    assert sorted(out) == list(range(12))


def test_orbit_of_no_seeds_is_empty():
    assert list(orbit([], lambda x: (x + 1,))) == []
