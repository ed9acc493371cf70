"""Exact rational and integer linear algebra.

Vectors are tuples of numbers and matrices are tuples of row vectors.  No
floating point anywhere.  One numeric rule: integral data stay ``int``.
Every product is one kernel, ``sum(map(mul, u, v))`` per entry, with no
Python frame per term; ``mat_mul`` takes the columns of its right operand
once.  It keeps the types it is given (ints in, ints out; any ``Fraction``
in, ``Fraction`` out), and a length mismatch raises ``ValueError``, since
``map`` would stop silently at the shorter operand.
Elimination is one forward fraction-free integer kernel, and every inverse is
a Schur complement on it, so ``rank``, ``pivot_columns``, ``scaled_inverse``
and ``scaled_dual_basis`` create no ``Fraction``; the last takes its rows and
form as given, since the elimination scales each row to integers.  Outside
the parser, one is created in three places only, by one division each,
always written ``Fraction(a, b)``, since ``/`` on two ints gives a float:

- ``divide``, once per entry: the report's division of the extremal rays
  of ``analyze`` by the scale of ``scaled_dual_basis``, and ``Lattice.rows_q``
  when ``den > 1``;
- ``Lattice.coordinates``, only when a division is inexact;
- the point ``find_feasible`` returns.

Ints have ``.numerator`` and ``.denominator`` too, so the integer routines
accept either kind.  Lattices carry a Hermite-canonical integer basis plus
a global denominator, so equal lattices have identical representations.
The Hermite form is the one integer normal form: ``lattice_index``, the
product of its pivots, answers every index question (smooth cones, the
``k_wonderful`` basis test, the index of xiZ in ``degenerate``).  It returns the form
only, with no transform: the integer kernel of C is read off one Hermite
form of [C^T | I], whose rows with a zero left block are already the
Hermite basis of the kernel, and the lifts of ``restrict_datum`` are the
top rows of the form of [nk^T | I].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import SpherindexError
from .record import Record

Vec = tuple[int | Fraction, ...]
Mat = tuple[Vec, ...]


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def minus_identity(m) -> Mat:
    """Rows of m - I for a square matrix m."""
    return tuple(tuple(x - int(i == j) for j, x in enumerate(r)) for i, r in enumerate(m))


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def mat_mul_t(a, b) -> Mat:
    """a @ b^T: the dot of each row of a with each row of b, rows of one length."""
    if len(lengths := {*map(len, a), *map(len, b)}) > 1:
        raise ValueError(f"rows of lengths {sorted(lengths)}")
    return tuple([tuple([sum(map(mul, row, col)) for col in b]) for row in a])


def mat_mul(a, b) -> Mat:
    """a @ b: the columns of b are taken once."""
    if a and {*map(len, a)} != {len(b)}:
        raise ValueError(f"rows of a of lengths other than {len(b)}")
    return mat_mul_t(a, transpose(b))


def vec_mat(v, m) -> Vec:
    """Row vector times matrix."""
    return mat_mul((v,), m)[0]


def transpose(m) -> Mat:
    return tuple(zip(*m)) if m else ()


def _eliminate(m, k: int) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Forward fraction-free elimination (Bareiss 1968), pivots among the first k rows.

    Each row is scaled to integers.  Column by column, the first unused row of
    the first k that is nonzero there is swapped up as the pivot row p, and
    each row below becomes (p[c] row - row[c] p) // s, for s the pivot of its
    last update (1 at first), exact since each entry is a minor: a row that is
    0 in a pivot column is not touched, so a chain of compact roots updates
    O(1) rows per column.  After at most k pivots it returns the rows below
    them from the column after the last on, as of the last pivot det; the pivot
    columns, those of the reduced echelon form when k = len(m); and det, 1 if none.
    """
    rows = scale_rows_integral(m)
    seen, prev, pivots = [1] * len(rows), 1, []

    def current(i, c):  # the entries of row i from column c on, as of the last pivot
        s = seen[i]
        return rows[i][c:] if s == prev else [x * prev // s for x in rows[i][c:]]

    for c in range(len(rows[0]) if rows and k else 0):
        r = len(pivots)
        pivot = r if rows[r][c] else next((i for i in range(r + 1, k) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot], seen[r], seen[pivot] = rows[pivot], rows[r], seen[pivot], seen[r]
        tail = current(r, c)
        piv = tail[0]
        for i in range(r + 1, len(rows)):
            if f := rows[i][c]:
                row, s = rows[i], seen[i]
                row[c:], seen[i] = [(piv * x - f * y) // s for x, y in zip(row[c:], tail)], piv
        prev = piv
        pivots.append(c)
        if len(pivots) == k:
            break
    end = pivots[-1] + 1 if pivots else 0
    return [current(i, end) for i in range(len(pivots), len(rows))], tuple(pivots), prev


def pivot_columns(m) -> tuple[int, ...]:
    """The pivot columns of the reduced row echelon form of m."""
    return _eliminate(m, len(m))[1]


def rank(m) -> int:
    return len(pivot_columns(m))


def scaled_schur_complement(m, k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(d (D - C P^-1 B), d) for m = [[P, B], [C, D]], rows scaled to integers,
    and d = |det P|, from k pivots on P (Sylvester's identity; a swap of rows
    of P only flips the sign of the last pivot).  A singular P raises ``ValueError``."""
    rows, pivots, det = _eliminate(m, k)
    if pivots != tuple(range(k)):
        raise ValueError("matrix is singular")
    if det > 0:
        return tuple(map(tuple, rows)), det
    return tuple(tuple([-x for x in row]) for row in rows), -det


def _scaled_solve(m, b) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(d m^-1 b, d) for a square m, the Schur complement of m in [[m, b], [-I, 0]]."""
    width = len(m) + len(b[0] if b else ())
    rows = [[*r, *s] for r, s in zip(m, b, strict=True)]
    return scaled_schur_complement(rows + [[0] * i + [-1] + [0] * (width - i - 1) for i in range(len(m))], len(m))


def scaled_inverse(m) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(a, d) with d > 0 and a = d * m^-1 an integer matrix."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return _scaled_solve(m, [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)])


def gram(rows, form) -> Mat:
    """Gram matrix (a F b) of the rows under the bilinear form F."""
    return mat_mul_t(mat_mul(rows, form), rows)


def divide(m, d) -> Mat:
    """m / d entrywise: one exact division, and one ``Fraction``, per entry."""
    return tuple(tuple(Fraction(x, d) for x in row) for row in m)


def scaled_dual_basis(rows, form) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(w, d) with d > 0 and w integral: the rows w_j / d lie in the span of
    rows @ F and dot(w_j / d, rows[k]) == [j == k]; for a root base, the
    fundamental coweights.  W = G^-1 U F, for U the rows and G = U F U^T, does
    not change when F is scaled, so the rows and form are taken as given: the
    elimination scales each equation of G W = U F to integers.  A singular G
    raises ``ValueError``.
    """
    uf = mat_mul(rows, form)
    return _scaled_solve(mat_mul_t(uf, rows), uf)


def content(v) -> int:
    """gcd of the entries of an integer vector (0 for the empty or zero vector)."""
    return gcd(*map(int, v))


def primitive_vector(v) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational vector."""
    (ints,) = scale_rows_integral([v])
    g = content(ints)
    if g == 0:
        raise SpherindexError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def scale_integral(m) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(c m, c) for the least c > 0 that makes every entry of m an integer."""
    c = lcm(*(x.denominator for row in m for x in row))
    return tuple(tuple(x.numerator * (c // x.denominator) for x in row) for row in m), c


def scale_rows_integral(rows) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (kernel-preserving); a
    row of ints is copied, and an entry that is no exact rational raises ``TypeError``."""
    out = []
    for row in rows:
        if not {*map(type, row)} <= {int}:
            for x in row:
                if type(x) is not int and not isinstance(x, Fraction):
                    raise TypeError(f"cannot interpret {x!r} as an exact rational")
            d = lcm(*(x.denominator for x in row))
            row = [x.numerator * (d // x.denominator) for x in row]
        out.append(list(row))
    return out


# ---------------------------------------------------------------------------
# Hermite normal form and lattice index


def hermite_normal_form(m) -> list[list[int]]:
    """Row-style Hermite normal form h of an integer matrix: the canonical
    basis of its row lattice, in echelon form with positive pivots, entries
    above a pivot reduced into [0, pivot) and zero rows at the bottom.  No
    caller reads a transform, so none is kept: one whose rows are wanted
    appends the identity, as ``integer_kernel`` does."""
    rows = [list(map(int, r)) for r in m]
    nr = len(rows)
    r = 0
    for c in range(len(rows[0]) if nr else 0):
        nz = [i for i in range(r, nr) if rows[i][c]]
        while len(nz) > 1:  # Euclid down the column: reduce by its least entry
            k = min(nz, key=lambda i: abs(rows[i][c]))
            prow = rows[k]
            for i in nz:
                if i != k:
                    q = rows[i][c] // prow[c]
                    rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
            nz = [i for i in nz if rows[i][c]]
        if nz:
            (k,) = nz
            prow = rows[k] if rows[k][c] > 0 else [-a for a in rows[k]]
            rows[k] = rows[r]
            rows[r] = prow
            for i in range(r):
                q = rows[i][c] // prow[c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
            r += 1
            if r == nr:
                break
    return rows


def lattice_index(rows, width: int) -> int:
    """Index in Z^width of the lattice spanned by integer rows of that width.

    The product of the Hermite pivots, which is |det| for a full-rank set
    (Cohen 1993, 2.4); 0 when the rank is below ``width``.
    """
    pivots = [next(x for x in r if x) for r in hermite_normal_form(rows) if any(r)]
    return prod(pivots) if len(pivots) == width else 0


def augmented_hermite_form(columns, n: int) -> list[list[int]]:
    """The Hermite form of [A | I] for the n x k matrix A whose columns are
    the rows of ``columns`` (integers): row i is [u_i A | u_i] for a unimodular
    u, so the rows whose left block is zero are the Hermite basis of the
    integer kernel of A^T (Cohen 1993, 2.4)."""
    return hermite_normal_form([[c[j] for c in columns] + [int(i == j) for i in range(n)] for j in range(n)])


def integer_kernel(constraint_rows, width: int) -> tuple[tuple[int, ...], ...]:
    """Saturated integer solutions v in Z^width of row . v == 0 for every row.

    Rows may be rational; the returned basis is Hermite-canonical and spans
    the full rational solution space (saturation).  It is the right block of
    the rows of the Hermite form of [C^T | I] whose left block is zero.
    """
    rows = scale_rows_integral(constraint_rows)
    if not rows:
        return tuple(identity(width))
    k = len(rows)
    return tuple(tuple(r[k:]) for r in augmented_hermite_form(rows, width) if not any(r[:k]))


# ---------------------------------------------------------------------------
# lattices


class Lattice(Record):
    """A finitely generated subgroup of Q^n: (1/den) times an integer lattice.

    ``basis`` rows are a Hermite-canonical basis, so equality of lattices is
    equality of representations.  den == 1 gives an honest sublattice of Z^n.
    """

    ambient_rank: int
    basis: tuple[tuple[int, ...], ...]
    den: int = 1

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice(n, tuple(identity(n)), 1)

    @staticmethod
    def from_rows(ambient_rank: int, rows) -> "Lattice":
        for r in rows:
            if len(r) != ambient_rank:
                raise ValueError("generator has wrong length")
        # d is the least common denominator of the entries, so gcd(d, entries of h) == 1:
        # for a prime p dividing d, some entry x has d x prime to p, and d x lies in the lattice
        ints, d = scale_integral(rows)
        h = [r for r in hermite_normal_form(ints) if any(r)]
        return Lattice(ambient_rank, tuple(tuple(r) for r in h), d)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def rows_q(self) -> Mat:
        return self.basis if self.den == 1 else divide(self.basis, self.den)

    def coordinates(self, v) -> Vec | None:
        """Coordinates of v in the basis, or None outside the span: back-substitution
        of den * v on the Hermite rows with exact divisions (Cohen 1993, 2.4)."""
        if len(v) != self.ambient_rank:
            raise ValueError("vector has wrong length")
        w = [self.den * x for x in v]
        coords = []
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x)
            q, r = divmod(w[p], row[p])
            c = q if r == 0 else Fraction(w[p], row[p])
            w = [a - c * b for a, b in zip(w, row)]
            coords.append(c)
        return None if any(w) else tuple(coords)

    def contains(self, v) -> bool:
        c = self.coordinates(v)
        return c is not None and all(x.denominator == 1 for x in c)


# ---------------------------------------------------------------------------
# exact feasibility LP (phase-1 simplex, Bland's rule)


def _phase1(rows: list[list[int]]) -> list[Fraction] | None:
    """Find w >= 0 with a @ w == b for nonempty integer rows [a | b], b >= 0,
    else None.

    Fraction-free (Bareiss 1968): the tableau is kept as integer rows over
    one positive ``det``, the determinant of the current basis, so the true
    tableau is ``tab / det`` and every division below is exact.  Bland's
    rule (the first negative reduced cost enters, ratio ties leave by the
    smaller basis index) rules out cycling.
    """
    m = len(rows)
    n = len(rows[0]) - 1
    tab = [r[:n] + [int(i == j) for j in range(m)] + r[n:] for i, r in enumerate(rows)]
    basis = [n + i for i in range(m)]
    obj = [-sum(col) for col in zip(*tab)]
    for i in range(m):
        obj[n + i] += 1  # artificials have unit cost
    det = 1
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        pivot_row = None
        for i in range(m):
            if tab[i][enter] > 0:
                if pivot_row is None:
                    pivot_row = i
                    continue
                # ratios rhs / entry compared by cross-multiplying, ties to
                # the smaller basis index
                lhs = tab[i][-1] * tab[pivot_row][enter]
                rhs = tab[pivot_row][-1] * tab[i][enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row is None:
            return None  # unbounded; cannot occur in phase 1
        prow = tab[pivot_row]
        piv = prow[enter]
        for i in range(m):
            if i != pivot_row:
                f = tab[i][enter]
                tab[i] = [(piv * x - f * y) // det for x, y in zip(tab[i], prow)]
        f = obj[enter]
        obj = [(piv * x - f * y) // det for x, y in zip(obj, prow)]
        det = piv
        basis[pivot_row] = enter
    if obj[-1] != 0:  # residual infeasibility
        return None
    w = [Fraction(0)] * (n + m)
    for i in range(m):
        w[basis[i]] = Fraction(tab[i][-1], det)
    return w[:n]


def find_feasible(a_ub=(), b_ub=(), a_eq=(), b_eq=(), *, nvars: int) -> Vec | None:
    """A rational x in Q^nvars with a_ub @ x <= b_ub and a_eq @ x == b_eq, or None;
    the system has at least one row."""
    # rows [a | b] scaled to integers, x = x+ - x-, one slack per inequality
    nslack = len(a_ub)
    ub = scale_rows_integral([list(r) + [bi] for r, bi in zip(a_ub, b_ub, strict=True)])
    eq = scale_rows_integral([list(r) + [bi] for r, bi in zip(a_eq, b_eq, strict=True)])
    rows = []
    for i, (*r, bi) in enumerate(ub + eq):
        row = r + [-x for x in r] + [int(i == j) for j in range(nslack)] + [bi]
        rows.append(row if bi >= 0 else [-x for x in row])
    w = _phase1(rows)
    if w is None:
        return None
    return tuple(w[j] - w[nvars + j] for j in range(nvars))
