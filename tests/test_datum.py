from fractions import Fraction

import pytest

from datagen import e6_datum, flip_matrix, sp42_datum, u11_datum
from spherindex import datum, linalg
from spherindex.datum import (
    SphericalDatumK,
    is_valid,
    support,
    validate,
)
from spherindex.errors import (
    InternalInconsistency,
    NegativeCoefficient,
    ParseError,
)
from spherindex.index import TitsIndex
from spherindex.rootsys import AmbientRootDatum, RootBase

H = Fraction(1, 2)


def su22_datum():
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [], [flip_matrix(3, [(0, 2)])])
    return SphericalDatumK.ambient(ix, [[1, 1, 1]])


def test_support():
    assert support([1, 0, 1]) == (0, 2)
    assert support([0, 1, H, 1, H, 0]) == (1, 2, 3, 4)
    assert support([0, 0]) == ()
    with pytest.raises(NegativeCoefficient):
        support([1, -1])


def test_compact_split_sp42():
    split = sp42_datum().compact_split
    assert split.sigma0 == (0,)
    assert split.noncompact == (1,)


def test_compact_split_e6_empty():
    split = e6_datum().compact_split
    assert split.sigma0 == ()
    assert split.noncompact == (0, 1)


def test_compact_split_no_compact_roots():
    split = su22_datum().compact_split
    assert split.sigma0 == ()


def test_compact_split_inconsistent():
    # a1 compact but sigma = a1 + a2 has noncompact support and zero
    # restriction cannot happen; instead take sigma supported in S0 whose
    # restriction is nonzero: impossible by construction, so build the
    # reverse: compact set {a2} with sigma = a1 + 2a2 + a3 in A3 restricted
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [0, 2], [])
    # a1 + a3 has support inside S0 = {a1, a3} and restricts to zero: fine;
    # a2 + a1 has mixed support and nonzero restriction: fine.  To force a
    # mismatch use an abstract-style trick: sigma = a1 - a3 is killed by
    # res but its support computation sees positive and negative parts.
    d = SphericalDatumK.ambient(ix, [[1, 0, -1]])
    with pytest.raises((InternalInconsistency, NegativeCoefficient)):
        d.compact_split


def test_validate_e6_all_pass():
    items = validate(e6_datum())
    assert is_valid(items)
    assert all(it.passed for it in items)


def test_validate_sp42_all_pass():
    items = validate(sp42_datum())
    assert is_valid(items)


def test_validate_u11_abstract():
    d = u11_datum()
    items = validate(d)
    assert is_valid(items)


def test_opposition_check_fails_on_asymmetric_compact_set():
    # A3-type spherical roots with only the first one compact: -w0 swaps
    # the outer roots, so the compact set is not opposition-stable
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [0], [])
    d = SphericalDatumK.ambient(ix, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    items = {it.name: it for it in validate(d)}
    assert not items["opposition_stable"].passed


def test_opposition_check_passes_on_symmetric_compact_set():
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [0, 2], [])
    d = SphericalDatumK.ambient(ix, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    items = {it.name: it for it in validate(d)}
    assert items["opposition_stable"].passed
    assert items["a_n_divisibility"].passed  # d = 2 divides 4


def test_an_lint_flags_bad_pattern():
    # noncompact positions {1} in A3 are not of the divisor form
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [1, 2], [])
    d = SphericalDatumK.ambient(ix, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    items = {it.name: it for it in validate(d)}
    # the compact set {2,3} is not opposition stable either; lint itself:
    assert items["a_n_divisibility"].severity == "warning"
    assert not items["a_n_divisibility"].passed


def test_validate_builds_the_root_base_once(monkeypatch):
    built = []

    class CountingRootBase:
        @staticmethod
        def from_vectors(vectors, form):
            built.append(vectors)
            return RootBase.from_vectors(vectors, form)

    monkeypatch.setattr(datum, "RootBase", CountingRootBase)
    a3 = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [0, 2], [])
    a3_datum = SphericalDatumK.ambient(a3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for d in (sp42_datum(), e6_datum(), su22_datum(), a3_datum):
        built.clear()
        items = {it.name: it for it in validate(d)}
        assert built == [d.sigma]
        assert "opposition_stable" in items
    assert items["a_n_divisibility"].passed


def test_validate_eliminates_sigma_once(monkeypatch):
    eliminated = []
    kernel = linalg._eliminate

    def counting(m, k):
        eliminated.append(tuple(map(tuple, m)))
        return kernel(m, k)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    a3 = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [], [])
    sigma = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]
    wider = SphericalDatumK.ambient(a3, sigma)  # three roots in a weight lattice of rank 2
    dependent = SphericalDatumK.ambient(a3, sigma, xi_rows=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # a base that classifies is independent without an elimination; one of more
    # vectors than coordinates is dependent without one; any other dependent
    # base is eliminated once, to name the failure
    cases = ((sp42_datum(), 0), (e6_datum(), 0), (su22_datum(), 0), (wider, 0), (dependent, 1))
    assert (len(wider.pairing), len(wider.sigma), len(dependent.pairing)) == (2, 3, 3)
    for d, count in cases:
        eliminated.clear()
        validate(d)
        assert eliminated.count(d.sigma) == count


def test_dependent_roots_fail_opposition_with_a_detail_and_no_lint():
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [], [])
    d = SphericalDatumK.ambient(ix, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    items = {it.name: it for it in validate(d)}
    assert not items["linearly_independent"].passed
    assert (items["opposition_stable"].passed, items["opposition_stable"].detail) == (
        False,
        "spherical roots do not span a finite root system: base vectors are linearly dependent",
    )
    assert "a_n_divisibility" not in items


def test_star_permutation_check():
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [], [flip_matrix(3, [(0, 2)])])
    # the flip sends a1 + 2a3 to 2a1 + a3, which is not a spherical root
    d = SphericalDatumK.ambient(ix, [[1, 0, 2]], xi_rows=[[1, 0, 0], [0, 0, 1]])
    items = {it.name: it for it in validate(d)}
    assert not items["star_permutes_roots"].passed


def test_primitivity_check():
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 1)]), [], [])
    d = SphericalDatumK.ambient(ix, [[2]], xi_rows=[[1]])
    items = {it.name: it for it in validate(d)}
    assert not items["roots_primitive_in_lattice"].passed


def test_sp_checks():
    # S^(p) = {a1} with star flipping 1 and 3 is not star-stable
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [], [flip_matrix(3, [(0, 2)])])
    d = SphericalDatumK.ambient(ix, [[1, 1, 1]], sp=[0])
    items = {it.name: it for it in validate(d)}
    assert not items["sp_star_stable"].passed
    # adjacent S^(p) and S0 roots sit in one connected component
    ix2 = TitsIndex.of(AmbientRootDatum.of([("A", 3)]), [1], [])
    d2 = SphericalDatumK.ambient(ix2, [[1, 1, 0]], sp=[0])
    items2 = {it.name: it for it in validate(d2)}
    assert not items2["sp_compact_component_split"].passed


def test_construction_errors():
    ix = TitsIndex.of(AmbientRootDatum.of([("A", 2)]), [], [])
    with pytest.raises(ParseError):
        SphericalDatumK.ambient(ix, [[1, 0, 0]])  # wrong length
    with pytest.raises(ParseError):
        # root outside the span of the declared lattice
        SphericalDatumK.ambient(ix, [[1, 1]], xi_rows=[[1, -1]])
    with pytest.raises(ParseError):
        SphericalDatumK.abstract(2, [[1, 2], [0, 1]], [], [[1, 0]])  # asymmetric


def test_star_generator_must_be_an_isometry_of_the_pairing():
    """Rows act on the right, so g is an isometry when g F g^T == F."""
    swap, negate_second, shear = [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[1, 0], [1, 1]]
    SphericalDatumK.abstract(2, [[2, 1], [1, 2]], [swap], [[1, 1]])
    SphericalDatumK.abstract(2, [[H, 0], [0, H]], [swap, negate_second], [[1, -1]])
    for pairing, g in [([[2, 1], [1, 1]], swap), ([[2, 0], [0, 2]], shear), ([[H, 0], [0, 1]], swap)]:
        with pytest.raises(ParseError, match="star generator is not an isometry of the pairing"):
            SphericalDatumK.abstract(2, pairing, [g], [[1, 1]])


def test_compact_roots_must_be_a_union_of_star_orbits():
    """The swap exchanges the two roots, so either both are compact or neither."""
    swap = [[0, 1], [1, 0]]
    for sigma0 in [(), (0, 1)]:
        SphericalDatumK.abstract(2, [[2, 0], [0, 2]], [swap], [[1, 0], [0, 1]], sigma0)
    SphericalDatumK.abstract(2, [[2, 0], [0, 2]], [], [[1, 0], [0, 1]], [1])
    for sigma0 in [(0,), (1,)]:
        with pytest.raises(ParseError, match="compact roots are not a union of star orbits"):
            SphericalDatumK.abstract(2, [[2, 0], [0, 2]], [swap], [[1, 0], [0, 1]], sigma0)


def test_the_ambient_datum_is_built_in_integers(monkeypatch):
    """The e6 weight lattice has den 2, yet ``gram`` and ``vec_mat`` see only
    ints while its datum is built: the pairing is the Gram matrix of the
    integer basis, den^2 times the form of the lattice basis, and a star
    image is solved in the den-1 lattice.  Both agree with the products of
    the rational basis."""
    seen = []

    def ints_only(name):
        fn = getattr(datum, name)

        def checked(*args):
            # each argument is a row or a matrix
            seen.append((name, {type(y) for m in args for x in m for y in (x if isinstance(x, tuple) else (x,))}))
            return fn(*args)

        return checked

    for name in ("gram", "vec_mat"):
        monkeypatch.setattr(datum, name, ints_only(name))
    d = e6_datum()
    assert {name for name, _ in seen} == {"gram", "vec_mat"}
    assert all(types == {int} for _, types in seen)
    assert d.xi_K.den == 2
    monkeypatch.undo()
    basis = d.xi_K.rows_q()
    assert d.pairing == ((8, -4), (-4, 4))
    assert linalg.divide(d.pairing, 4) == linalg.gram(basis, d.index.ambient.form())
    for g, images in zip(d.index.star, d.star_xi):
        assert [d.xi_K.coordinates(linalg.vec_mat(r, g)) for r in basis] == list(images)


def test_star_orbits():
    d = e6_datum()
    assert d.star_orbit_of_root(0) == (0,)
    assert d.star_orbit_of_root(1) == (1,)


def test_validation_is_deterministic():
    d = e6_datum()
    assert validate(d) == validate(d)
