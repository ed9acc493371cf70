import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix, Rational
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
from sympy.matrices.normalforms import invariant_factors

from datagen import dual_basis, image_lattice, intersection_with_subspace, raises_exit_1, solve_left
from spherindex import linalg
from spherindex.linalg import (
    Lattice,
    content,
    divide,
    dot,
    find_feasible,
    gram,
    hermite_normal_form,
    identity,
    integer_kernel,
    lattice_index,
    mat_mul,
    mat_mul_t,
    pivot_columns,
    primitive_vector,
    rank,
    scaled_dual_basis,
    scaled_inverse,
    scaled_schur_complement,
    transpose,
    vec_mat,
)

small_int = st.integers(min_value=-9, max_value=9)


def int_matrix(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def test_hnf_identity_matrix():
    assert hermite_normal_form([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


def test_hnf_known_example():
    m = [[2, 4], [1, 3]]
    h = hermite_normal_form(m)
    assert h == [[1, 1], [0, 2]]
    assert _sympy_row_lattice(h, 2) == _sympy_row_lattice(m, 2)


def is_hermite(h) -> bool:
    """Echelon form with positive pivots, each entry above a pivot in
    [0, pivot), and the zero rows at the bottom."""
    nz = [row for row in h if any(row)]
    pivots = [next(j for j, x in enumerate(row) if x) for row in nz]
    return (
        all(row[j] > 0 for row, j in zip(nz, pivots))
        and pivots == sorted(set(pivots))
        and all(0 <= nz[i][j] < nz[k][j] for k, j in enumerate(pivots) for i in range(k))
        and h[: len(nz)] == nz
    )


@settings(max_examples=200, deadline=None)
@given(int_matrix())
def test_hnf_properties(m):
    h = hermite_normal_form(m)
    assert len(h) == len(m) and is_hermite(h)
    assert hermite_normal_form(h) == h  # the form of a Hermite basis is itself


def _sympy_row_lattice(rows, ncols):
    """sympy's canonical basis of the lattice spanned by the rows.

    sympy puts the Hermite form of a column lattice in a different echelon
    convention, so only the canonical forms of two row sets are compared.
    """
    return sympy_hnf(Matrix(len(rows), ncols, [x for r in rows for x in r]).T).T


@settings(max_examples=200, deadline=None)
@given(int_matrix())
def test_hnf_row_lattice_matches_sympy(m):
    h = hermite_normal_form(m)
    ncols = len(m[0])
    nonzero = [r for r in h if any(r)]
    assert _sympy_row_lattice(nonzero, ncols) == _sympy_row_lattice(m, ncols)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(int_matrix())
@example([[2, 0], [0, 3]])
@example([[1, 0, -1], [0, 1, -1]])  # three generators in Z^2, transposed
@example([[1, -1]])
def test_lattice_index_matches_sympy_invariant_factors(m):
    """The product of the Hermite pivots is the product of the invariant
    factors of a full-rank row set, and 0 below full rank."""
    width = len(m[0])
    factors = invariant_factors(Matrix(m), domain=ZZ)
    expected = prod(int(x) for x in factors) if rank(m) == width else 0
    assert lattice_index(m, width) == expected


@settings(max_examples=150, deadline=None)
@given(int_matrix())
def test_integer_kernel_is_saturated_kernel(m):
    width = len(m[0])
    ker = integer_kernel(m, width=width)
    for k in ker:
        assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in m)
    assert len(ker) == width - rank(m)
    if ker:
        # saturation: any rational kernel vector lies in the span, and
        # integral kernel vectors have integral coordinates
        lat = Lattice.from_rows(width, ker)
        for k in ker:
            assert lat.contains(k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(int_matrix(max_dim=7))
@example([[0, 0, 0]])
@example([[2, 4, 6]])  # the kernel of a non-primitive row
@example([[1, 1], [1, -1]])  # full rank: no kernel
def test_integer_kernel_matches_the_sympy_nullspace(m):
    """The kernel is the Hermite basis of the integer points of sympy's rational
    nullspace: as many rows as the nullspace has, each killed by every row of m,
    a saturated lattice (its invariant factors are all 1) and in Hermite form,
    which the saturated lattice has only one of."""
    width = len(m[0])
    ker = integer_kernel(m, width=width)
    nullspace = Matrix(m).nullspace()
    assert len(ker) == len(nullspace)
    for k in ker:
        assert Matrix(m) * Matrix(k) == Matrix.zeros(len(m), 1)
    if ker:
        assert Matrix(ker).rank() == len(ker)
        assert all(x == 1 for x in invariant_factors(Matrix(ker), domain=ZZ))
        assert is_hermite([list(k) for k in ker])


def test_integer_kernel_runs_one_hermite_form(monkeypatch):
    """The kernel is read off the one Hermite form of [C^T | I]."""
    calls = []

    def counting(m):
        calls.append(m)
        return hermite_normal_form(m)

    monkeypatch.setattr(linalg, "hermite_normal_form", counting)
    rng = random.Random(29)
    for _ in range(200):
        rows, width = rng.randint(1, 5), rng.randint(1, 7)
        m = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(rows)]
        calls.clear()
        ker = integer_kernel(m, width=width)
        assert len(calls) == 1 and len(ker) == width - rank(m)


def test_kernel_of_parity_constraint():
    # {(a, b) : a + b even} intersected with span{(1, 1)} is Z * (1, 1)
    even = Lattice.from_rows(2, [[1, 1], [0, 2]])
    got = intersection_with_subspace(even, [[1, 1]])
    assert got == Lattice.from_rows(2, [[1, 1]])


def test_primitive_vector_and_content():
    # an integral v is content(v) times primitive_vector(v), as restrict uses them
    assert (primitive_vector((2, 4)), content((2, 4))) == ((1, 2), 2)
    assert (primitive_vector((0, -3)), content((0, -3))) == ((0, -1), 3)
    assert primitive_vector((Fraction(1, 2), 1)) == (1, 2)
    assert content(()) == content((0, 0)) == 0 and content((Fraction(6), -4)) == 2
    with raises_exit_1("^zero vector has no primitive representative$"):
        primitive_vector((0, 0))


def test_image_lattice():
    # (a, b) -> a + b sends the even lattice onto 2Z
    dom = Lattice.from_rows(2, [[1, 1], [0, 2]])
    img = image_lattice([[1], [1]], dom)
    assert img == Lattice.from_rows(1, [[2]])


def test_image_lattice_fractional():
    dom = Lattice.standard(2)
    img = image_lattice([[Fraction(1, 2)], [Fraction(-1, 2)]], dom)
    assert img == Lattice.from_rows(1, [[Fraction(1, 2)]])
    assert img.den == 2


def test_lattice_canonical_equality():
    a = Lattice.from_rows(2, [[1, 1], [1, -1]])
    b = Lattice.from_rows(2, [[2, 0], [1, 1]])
    assert a == b


def test_lattice_index():
    even = Lattice.from_rows(2, [[1, 1], [0, 2]])
    assert lattice_index(even.basis, 2) == 2


@st.composite
def lattice_and_vector(draw):
    """Rational generators (rank-deficient sets and den > 1 included) and a
    vector in their span or, with a random shift, usually off it."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.lists(small_rational, min_size=n, max_size=n), max_size=n + 1))
    coeffs = draw(st.lists(small_rational, min_size=len(gens), max_size=len(gens)))
    v = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)]
    inside = draw(st.booleans())
    if not inside:
        v = [x + y for x, y in zip(v, draw(st.lists(small_rational, min_size=n, max_size=n)))]
    return gens, tuple(v), inside


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lattice_and_vector())
@example(([[Fraction(1, 2), 1, 0], [1, 2, 0]], (Fraction(3, 2), 3, 0), True))
@example(([[Fraction(1, 2), 1, 0], [1, 2, 0]], (1, 2, 1), False))
@example(([[2, 0], [0, 3]], (1, 1), True))
def test_lattice_coordinates_match_solve_left(data):
    gens, v, inside = data
    lat = Lattice.from_rows(len(v), gens)
    # den is the least common denominator of the entries: it is 1 exactly on an integral basis
    assert (lat.den == 1) == all(x.denominator == 1 for r in lat.rows_q() for x in r)
    got = lat.coordinates(v)
    assert got == solve_left(lat.rows_q(), v)
    if inside:
        assert got is not None
    if got is not None:
        # integral coordinates stay ints; a Fraction only from an inexact division
        assert all(isinstance(x, int) for x in got if x.denominator == 1)


def test_lattice_coordinates_wrong_length_and_rows_q_types():
    for lat in (Lattice.standard(2), Lattice.from_rows(2, [])):
        with pytest.raises(ValueError):
            lat.coordinates((1,))
    assert Lattice.standard(2).rows_q() == ((1, 0), (0, 1))
    assert all(type(x) is int for r in Lattice.from_rows(2, [[2, 4]]).rows_q() for x in r)
    half = Lattice.from_rows(2, [[Fraction(1, 2), 0]])
    assert half.rows_q() == ((Fraction(1, 2), 0),)
    assert half.coordinates((3, 0)) == (6,) and type(half.coordinates((3, 0))[0]) is int


def test_solve_left():
    assert solve_left(((1, 0), (1, 1)), (3, 2)) == (1, 2)
    assert solve_left(((1, 0),), (0, 1)) is None


def test_inverse():
    m = ((1, 2), (3, 5))
    a, d = scaled_inverse(m)  # det(m) = -1
    assert d == 1 and mat_mul(m, a) == ((1, 0), (0, 1))


def bordered_matrices():
    """(m, k): m = [[P, B], [C, D]] with P of size k either Q Q^T + I, positive
    definite, or Q itself, of any rank and often indefinite with a zero
    leading minor, so that rows are swapped; B, C, D integral of r rows and
    columns.  Zeros weigh double, so that many rows are 0 in a pivot column."""
    entry = st.one_of(st.just(0), small_int)
    return st.tuples(st.integers(0, 5), st.integers(0, 4), st.booleans()).flatmap(
        lambda krp: st.tuples(
            st.lists(st.lists(entry, min_size=krp[0], max_size=krp[0]), min_size=krp[0], max_size=krp[0]),
            st.lists(st.lists(entry, min_size=sum(krp[:2]), max_size=sum(krp[:2])), min_size=krp[1], max_size=krp[1]),
            st.lists(st.lists(entry, min_size=krp[1], max_size=krp[1]), min_size=krp[0], max_size=krp[0]),
        ).map(lambda qcdb: (bordered(*qcdb, definite=krp[2]), krp[0]))
    )


def bordered(q, cd, b, definite):
    p = [[x + int(i == j) for j, x in enumerate(row)] for i, row in enumerate(mat_mul_t(q, q))] if definite else q
    return [[*row, *b[i]] for i, row in enumerate(p)] + cd


A10_BOTH_ENDS = (  # the compact chain of SU(1,11) and the sum of its two end roots
    [[2 * (i == j) - (abs(i - j) == 1) for j in range(10)] + [-(i in (0, 9))] for i in range(10)]
    + [[-1] + [0] * 8 + [-1, 2]],
    10,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bordered_matrices())
@example(A10_BOTH_ENDS)
@example(([[0, 1, 2], [1, 0, 3], [4, 5, 6]], 2))  # P = [[0, 1], [1, 0]]: one swap, det P = -1
@example(([[3, 0, 0, 1], [-1, 0, -1, 0], [0, -1, 0, 0], [-2, -2, 0, 0]], 3))  # a swap of a deferred row
@example(([[1, 2, 1], [2, 4, 0], [1, 1, 1]], 2))  # singular: the second pivot is in column 2
@example(([[0, 0, 1], [0, 0, 2], [3, 4, 5]], 2))  # singular: no pivot at all in P
def test_scaled_schur_complement_matches_sympy(mk):
    m, k = mk
    full = Matrix(m) if m else Matrix.zeros(0, 0)
    p, b, c, dd = full[:k, :k], full[:k, k:], full[k:, :k], full[k:, k:]
    if p.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            scaled_schur_complement(m, k)
        return
    s, d = scaled_schur_complement(m, k)
    assert type(d) is int and d == abs(p.det()) > 0
    assert all(type(x) is int for row in s for x in row)
    assert s == from_sympy(d * (dd - c * p.inv() * b) if k else dd)


# [m | I] of a wide m can have its pivots in the first columns: squareness is checked
@pytest.mark.parametrize("m", [[[1, 0, 0]], [[1, 2, 3], [0, 1, 4]], [[1], [0]]])
def test_scaled_inverse_rejects_a_matrix_that_is_not_square(m):
    with pytest.raises(ValueError, match="not square"):
        scaled_inverse(m)


def test_find_feasible_simple():
    # x <= -1 and -x <= -2  ->  x <= -1, x >= 2: infeasible
    assert find_feasible(a_ub=[[1], [-1]], b_ub=[-1, -2], nvars=1) is None
    x = find_feasible(a_ub=[[1], [-1]], b_ub=[5, -2], nvars=1)
    assert x is not None and 2 <= x[0] <= 5


def test_find_feasible_equalities():
    x = find_feasible(a_eq=[[1, 1]], b_eq=[3], a_ub=[[1, 0]], b_ub=[1], nvars=2)
    assert x is not None
    assert x[0] + x[1] == 3 and x[0] <= 1


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(small_int, min_size=2, max_size=2), min_size=1, max_size=4),
    st.lists(small_int, min_size=4, max_size=4),
)
def test_find_feasible_certificate(a, b):
    b = b[: len(a)]
    x = find_feasible(a_ub=a, b_ub=b, nvars=2)
    if x is not None:
        for row, bi in zip(a, b):
            assert sum(Fraction(c) * xi for c, xi in zip(row, x)) <= bi


small_rational = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def lp_rows(max_vars=4):
    """The variable count n and rows [a | b]: up to four inequalities, two equations,
    and at least one row, as ``find_feasible`` requires."""

    def rows(n, most):
        return st.lists(st.lists(small_rational, min_size=n + 1, max_size=n + 1), max_size=most)

    systems = st.integers(1, max_vars).flatmap(lambda n: st.tuples(st.just(n), rows(n, 4), rows(n, 2)))
    return systems.filter(lambda t: t[1] or t[2])


def sympy_feasible_point(ub, eq, n):
    """A point of A x <= b, E x == d found without a simplex, or None.

    A minimal face of a nonempty polyhedron is the affine space where some
    set S of its inequalities is tight (Schrijver, "Theory of Linear and
    Integer Programming", ch. 8), so every solution of A_S x == b_S,
    E x == d then lies in the polyhedron.  Each S is tried with sympy's
    exact Gauss-Jordan solver, free parameters set to 0.  sympy's own
    simplex is no oracle here: ``lpmin`` calls x0 + x2 <= 0, x0 + x2 == 1
    feasible, and ``linprog`` loops on some infeasible systems.
    """

    def rat(x):
        return Rational(x.numerator, x.denominator)

    for k in range(len(ub) + 1):
        for tight in combinations(ub, k):
            rows = list(tight) + eq
            if rows:
                try:
                    sol, params = Matrix([[rat(c) for c in r[:n]] for r in rows]).gauss_jordan_solve(
                        Matrix([rat(r[n]) for r in rows])
                    )
                except ValueError:  # inconsistent
                    continue
                x = [Fraction(str(v)) for v in sol.xreplace({t: 0 for t in params})]
            else:
                x = [Fraction(0)] * n
            if all(dot(r[:n], x) <= r[n] for r in ub) and all(dot(r[:n], x) == r[n] for r in eq):
                return x
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lp_rows())
def test_find_feasible_matches_sympy_minimal_faces(rows):
    n, ub, eq = rows
    x = find_feasible(
        a_ub=[r[:n] for r in ub],
        b_ub=[r[n] for r in ub],
        a_eq=[r[:n] for r in eq],
        b_eq=[r[n] for r in eq],
        nvars=n,
    )
    assert (x is None) == (sympy_feasible_point(ub, eq, n) is None)
    if x is not None:
        assert all(isinstance(v, Fraction) for v in x)
        assert all(dot(r[:n], x) <= r[n] for r in ub)
        assert all(dot(r[:n], x) == r[n] for r in eq)


def square_and_rows(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=1, max_size=n),
        )
    )


@settings(max_examples=100, deadline=None)
@given(square_and_rows())
def test_gram_symmetric_and_dual_basis_pairs_to_identity(data):
    a, rows = data
    n = len(a)
    assume(rank(rows) == len(rows))
    # A^T A + I is symmetric positive definite
    form = [
        [sum(a[t][i] * a[t][j] for t in range(n)) + int(i == j) for j in range(n)]
        for i in range(n)
    ]
    g = gram(rows, form)
    assert g == transpose(g)
    w, d = scaled_dual_basis(rows, form)
    assert d > 0 and all(type(x) is int for row in w for x in row)
    assert tuple(tuple(dot(wj, r) for r in rows) for wj in w) == tuple(tuple(d * x for x in e) for e in identity(len(rows)))
    assert divide(w, d) == dual_basis(rows, form)
    # a positive rational multiple of the form has the same dual basis
    thirds = [[Fraction(x, 3) for x in row] for row in form]
    assert divide(*scaled_dual_basis(rows, thirds)) == divide(w, d)


@st.composite
def rows_and_symmetric_form(draw):
    """Rational rows (dependent ones included) and a symmetric rational form."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(rational, min_size=n, max_size=n), min_size=1, max_size=n))
    upper = draw(st.lists(rational, min_size=n * n, max_size=n * n))
    form = [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    return rows, form


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows_and_symmetric_form())
@example(([[1, 0], [0, 1]], [[2, -1], [-1, 2]]))
@example(([[Fraction(1, 2), 1]], [[0, 1], [1, 0]]))  # an indefinite form
@example(([[1, 1]], [[1, 0], [0, -1]]))  # an isotropic row: G is singular
@example(([[2, 1], [0, Fraction(1, 3)]], [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(5, 4)]]))
def test_dual_basis_matches_sympy(data):
    """The pair (w, d) of ``scaled_dual_basis`` is integral with d > 0, and
    w / d is sympy's G^-1 U F and the ``datagen`` oracle's dual basis."""
    rows, form = data
    u, f = to_sympy(rows), to_sympy(form)
    g = u * f * u.T
    if g.rank() < len(rows):
        for kernel in (scaled_dual_basis, dual_basis):
            with pytest.raises(ValueError):
                kernel(rows, form)
        return
    w, d = scaled_dual_basis(rows, form)
    assert type(d) is int and d > 0
    assert all(type(x) is int for row in w for x in row)
    assert divide(w, d) == from_sympy(g.inv() * u * f) == dual_basis(rows, form)


# ---------------------------------------------------------------------------
# the fraction-free elimination kernel against sympy

rational = st.one_of(small_int, small_rational)


@st.composite
def rational_matrix(draw, square=False):
    """Int and Fraction entries; in about half the draws one row is a
    combination of the others (a zero row when there are no others)."""
    r = draw(st.integers(1, 5))
    c = r if square else draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(rational, min_size=c, max_size=c), min_size=r, max_size=r))
    if draw(st.booleans()):
        i = draw(st.integers(0, r - 1))
        coeffs = draw(st.lists(rational, min_size=r, max_size=r))
        rows[i] = [sum(coeffs[k] * rows[k][j] for k in range(r) if k != i) for j in range(c)]
    return rows


def to_sympy(m):
    return Matrix([[Rational(x.numerator, x.denominator) for x in row] for row in m])


def from_sympy(m):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows))


# a negative last pivot, a row swap, halves and thirds, a zero row, rank 1
KERNEL_EXAMPLES = [
    [[-1]],
    [[1, 2], [3, 4]],
    [[0, 1], [1, 0]],
    [[Fraction(1, 2), 1], [1, Fraction(1, 3)]],
    [[0, 0], [1, 2]],
    [[1, 2], [2, 4]],
    [[0, 0, 0], [0, 2, -1], [Fraction(-1, 3), 4, 2]],
]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rational_matrix())
@example([[1, 2, 3], [2, 4, 6]])
@example([[Fraction(1, 2), 0, 1], [0, 0, 0], [3, Fraction(-2, 3), 1]])
def test_rref_and_rank_match_sympy(m):
    _, expected_pivots = to_sympy(m).rref()
    assert pivot_columns(m) == tuple(expected_pivots)
    assert rank(m) == to_sympy(m).rank()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rational_matrix(square=True))
@example(KERNEL_EXAMPLES[0])
@example(KERNEL_EXAMPLES[1])
@example(KERNEL_EXAMPLES[2])
@example(KERNEL_EXAMPLES[3])
@example(KERNEL_EXAMPLES[4])
@example(KERNEL_EXAMPLES[5])
@example(KERNEL_EXAMPLES[6])
def test_inverse_and_scaled_inverse_match_sympy(m):
    n = len(m)
    if to_sympy(m).rank() < n:
        with pytest.raises(ValueError):
            scaled_inverse(m)
        return
    a, d = scaled_inverse(m)
    assert type(d) is int and d > 0
    assert all(type(x) is int for row in a for x in row)
    assert mat_mul(a, m) == tuple(tuple(d * x for x in row) for row in identity(n))
    assert a == from_sympy(d * to_sympy(m).inv())


@st.composite
def rows_and_target(draw):
    rows = draw(rational_matrix())
    c = len(rows[0])
    coeffs = draw(st.lists(rational, min_size=len(rows), max_size=len(rows)))
    target = [sum(a * row[j] for a, row in zip(coeffs, rows)) for j in range(c)]
    if draw(st.booleans()):
        target = [x + y for x, y in zip(target, draw(st.lists(rational, min_size=c, max_size=c)))]
    return rows, tuple(target)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rows_and_target())
@example(([[1, 2], [2, 4]], (3, 6)))
@example(([[1, 2], [2, 4]], (3, 5)))
@example(([[0, 0], [Fraction(1, 2), -1]], (1, -2)))
def test_solve_left_matches_sympy(data):
    rows, target = data
    got = solve_left(rows, target)
    try:
        sol, params = to_sympy(rows).T.gauss_jordan_solve(to_sympy([target]).T)
    except ValueError:  # inconsistent
        assert got is None
        return
    # the free coefficients are 0 in the particular solution
    assert got == from_sympy(sol.subs({p: 0 for p in params}).T)[0]


@pytest.mark.parametrize("bad", [1.0, True])
def test_eliminations_reject_float_and_bool(bad):
    m = ((bad, 0), (0, 1))
    for f in (pivot_columns, rank, scaled_inverse):
        with pytest.raises(TypeError):
            f(m)


def test_rank_and_scaled_inverse_create_no_fraction(monkeypatch):
    m = [[Fraction(1, 2), 1, 0], [1, Fraction(1, 3), 2], [0, 5, Fraction(-7, 4)]]

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was created")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert rank(m) == 3
    assert rank([[2, 4], [1, 2]]) == 1
    a, d = scaled_inverse([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert (a, d) == (((3, 2, 1), (2, 4, 2), (1, 2, 3)), 4)
    # nor does the dual basis of integer rows: the Cartan rows of A2 under the
    # dot product have the inverse transpose (1/3) [[2, 1], [1, 2]] as theirs
    assert scaled_dual_basis([[2, -1], [-1, 2]], identity(2)) == (((6, 3), (3, 6)), 9)


# ---------------------------------------------------------------------------
# the product kernel against sympy


def sympy_of(m, rows, cols):
    return Matrix(rows, cols, [Rational(x.numerator, x.denominator) for row in m for x in row])


@st.composite
def product_operands(draw):
    """a (r x k) and b (k x c) with k >= 1, all int or mixed int and Fraction."""
    entry = draw(st.sampled_from([small_int, rational]))
    r, k, c = draw(st.integers(0, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 4))

    def matrix(nrows, ncols):
        return tuple(tuple(draw(st.lists(entry, min_size=ncols, max_size=ncols))) for _ in range(nrows))

    return matrix(r, k), matrix(k, c), matrix(k, k)


def assert_entry_types(product, a, cols):
    """Ints in, ints out; an entry is a Fraction exactly when a factor of it is."""
    for row, out in zip(a, product, strict=True):
        for col, x in zip(cols, out, strict=True):
            if any(isinstance(y, Fraction) for y in (*row, *col)):
                assert type(x) is Fraction
            else:
                assert type(x) is int


@settings(max_examples=200, deadline=None, derandomize=True)
@given(product_operands())
@example((((1, 2),), ((3,), (4,)), ((2, -1), (-1, 2))))
@example((((Fraction(1, 2), 2),), ((3, 1), (4, 0)), ((2, 1), (1, 2))))
def test_products_match_sympy(data):
    a, b, form = data
    r, k, c = len(a), len(b), len(b[0])
    cols = transpose(b)
    got = mat_mul(a, b)
    assert got == from_sympy(sympy_of(a, r, k) * sympy_of(b, k, c))
    assert len(got) == r and all(len(row) == c for row in got)
    by_dot = tuple(tuple(dot(row, col) for col in cols) for row in a)
    assert by_dot == tuple(vec_mat(row, b) for row in a) == mat_mul_t(a, cols) == got
    assert_entry_types(got, a, cols)
    assert_entry_types(by_dot, a, cols)
    g = gram(a, form)
    assert g == from_sympy(sympy_of(a, r, k) * sympy_of(form, k, k) * sympy_of(a, r, k).T)
    if all(type(x) is int for m in (a, form) for row in m for x in row):
        assert all(type(x) is int for row in g for x in row)


def test_products_of_empty_shapes():
    assert dot((), ()) == 0 and type(dot((), ())) is int
    assert vec_mat((), ()) == ()
    assert mat_mul((), ()) == () and mat_mul((), ((1, 2),)) == ()
    assert mat_mul(((), ()), ()) == ((), ())  # 2 x 0 times 0 x 0
    assert mat_mul(((1, 2),), ((), ())) == ((),)  # 1 x 2 times 2 x 0
    assert gram((), ((1, 0), (0, 1))) == ()
    assert gram(((), ()), ()) == ((0, 0), (0, 0))
    assert scaled_dual_basis((), ((2,),)) == ((), 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: dot((1, 2), (1, 2, 3)),
        lambda: dot((1, 2, 3), (1, 2)),
        lambda: dot((), (1,)),
        lambda: vec_mat((1, 2), ((1,),)),
        lambda: vec_mat((1,), ((1,), (2,))),
        lambda: vec_mat((1,), ()),
        lambda: mat_mul(((1, 2), (3,)), ((1,), (2,))),
        lambda: mat_mul(((1, 2, 3),), ((1, 0), (0, 1))),
        lambda: mat_mul(((1,),), ((1, 0), (0, 1))),
        lambda: mat_mul_t(((1, 2),), ((1, 2), (3,))),
        lambda: gram(((1, 2),), ((1,),)),
    ],
)
def test_a_length_mismatch_raises_and_never_truncates(call):
    with pytest.raises(ValueError):
        call()
