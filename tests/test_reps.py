import hashlib
import itertools
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustermod import reps
from clustermod.cartan import cartan_type, linear_height
from clustermod.errors import DomainError, InternalInvariantError, ShiftCaseUnsupported
from clustermod.hlmap import psi
from clustermod.reps import CQObject, RepContext, positive_roots, rep_json

from oracles import (
    _flip,
    _invert,
    _rank,
    oracle_exchange_pairs,
    oracle_ext1_mod,
    oracle_hom,
    oracle_hom_equations,
    oracle_hom_dim_typeA_linear,
    oracle_im_h,
    oracle_null_space,
    oracle_pivots_met,
    oracle_positive_roots,
    oracle_reflect_minus,
    oracle_reflection_chain,
    oracle_rref,
    oracle_shortest_chains,
    oracle_socle,
    oracle_solve_matrix,
    oracle_tau,
    orientations,
)

A2 = cartan_type("A2")
A3 = cartan_type("A3")
A4 = cartan_type("A4")
D4 = cartan_type("D4")
E6 = cartan_type("E6")
E6_XI = {1: 0, 2: 1, 3: -1, 4: 0, 5: -1, 6: 0}

XI_D4 = {1: 0, 2: -1, 3: 0, 4: 0}


@pytest.fixture(scope="module")
def rc3():
    return RepContext(A3, linear_height(A3))


@pytest.fixture(scope="module")
def rc4():
    return RepContext(A4, linear_height(A4))


def mod(*d):
    return CQObject.module(d)


# ---- roots --------------------------------------------------------------------


def test_positive_roots_small():
    assert set(positive_roots(A2)) == {(1, 0), (0, 1), (1, 1)}
    assert len(positive_roots(A3)) == 6
    assert len(positive_roots(A4)) == 10
    assert len(positive_roots(D4)) == 12


@pytest.mark.parametrize("cartan", [A2, A3, A4, D4])
def test_positive_roots_against_tits_oracle(cartan):
    box = 3 if cartan.rank == 4 else 2
    assert set(positive_roots(cartan)) == oracle_positive_roots(cartan, box=box)


def test_indecomposable_count(rc3):
    # roots plus one shifted projective per vertex
    assert len(rc3.indecomposables()) == 6 + 3


# ---- explicit representations ----------------------------------------------------


def test_build_full_interval_is_nonzero_everywhere(rc3):
    rep = rc3.rep((1, 1, 1))
    assert rep.dims == (1, 1, 1)
    for s, t, m in rep.mats:
        assert m[0][0] != 0  # both arrow maps are isomorphisms


def test_build_tail_interval(rc3):
    rep = rc3.rep((0, 1, 1))
    assert rep.dims == (0, 1, 1)
    assert rep.matrix(2, 3)[0][0] != 0


def test_non_root_rejected(rc3):
    with pytest.raises(DomainError):
        rc3.rep((1, 0, 1))


@pytest.mark.parametrize("cartan,xi", [
    (A4, None), (D4, XI_D4),
])
def test_endomorphism_spaces_one_dimensional(cartan, xi):
    rc = RepContext(cartan, xi or linear_height(cartan))
    for root in rc.roots:
        rep = rc.rep(root)  # internal End check runs at build time
        dim, _ = rc.hom(rep, rep)
        assert dim == 1


# ---- socles ------------------------------------------------------------------------


def test_socles_linear_a3(rc3):
    assert rc3.socle(mod(1, 1, 0)) == (0, 1, 0)
    assert rc3.socle(mod(1, 1, 1)) == (0, 0, 1)
    for i in (1, 2, 3):
        e = tuple(1 if t == i - 1 else 0 for t in range(3))
        assert rc3.socle(CQObject.module(e)) == e
        assert rc3.socle(mod(*rc3.inj_dims(i))) == e
    assert rc3.socle(CQObject.shifted(2)) == (0, 0, 0)


def test_socle_d4_center():
    rc = RepContext(D4, XI_D4)
    # the center 2 is the unique sink, so socles live entirely on it
    assert rc.socle(mod(1, 1, 1, 1)) == (0, 1, 0, 0)
    assert rc.socle(mod(1, 2, 1, 1)) == (0, 2, 0, 0)


def _scope_id(cartan, xi):
    return cartan.name + "-" + ",".join(str(xi[i]) for i in cartan.vertices)


SOCLE_SCOPES = [
    (cartan, xi) for cartan in (A3, A4, D4, cartan_type("D5")) for xi in orientations(cartan)
] + [(E6, xi) for xi in orientations(E6)[::31]]


@pytest.mark.parametrize("cartan,xi", SOCLE_SCOPES,
                         ids=[_scope_id(c, xi) for c, xi in SOCLE_SCOPES])
def test_socle_matches_rank_oracle(cartan, xi):
    rc = RepContext(cartan, xi)
    for obj in rc.indecomposables():
        assert rc.socle(obj) == oracle_socle(rc, obj), obj


def test_rank_oracle_is_exact():
    # the third row is a rational combination of the first two; float elimination
    # leaves a residue in the last pivot and reads rank 3
    assert _rank([[-59, 17, 5], [77, -98, 49], [57, -8, -11]]) == 2
    assert _rank([[3, 1], [1, 2]]) == 2 and _rank([[2, 4], [1, 2]]) == 1


# ---- g-vectors ------------------------------------------------------------------------

GTILDE_TABLE = {
    CQObject.shifted(1): ((1, 0, 0), (0, 0, 0)),
    CQObject.shifted(2): ((0, 1, 0), (0, 0, 0)),
    CQObject.shifted(3): ((0, 0, 1), (0, 0, 0)),
    mod(1, 1, 1): ((0, 0, -1), (0, 0, 1)),
    mod(0, 1, 1): ((1, 0, -1), (0, 0, 1)),
    mod(0, 0, 1): ((0, 1, -1), (0, 0, 1)),
    mod(1, 1, 0): ((0, -1, 0), (0, 1, 0)),
    mod(0, 1, 0): ((1, -1, 0), (0, 1, 0)),
    mod(1, 0, 0): ((-1, 0, 0), (1, 0, 0)),
}


def test_extended_g_matches_table(rc3):
    for obj, want in GTILDE_TABLE.items():
        assert rc3.extended_g(obj) == want


def test_g_vectors_injective_all_types():
    for cartan, xi in ((A2, None), (A3, None), (A4, None), (D4, XI_D4)):
        rc = RepContext(cartan, xi or linear_height(cartan))
        gs = [rc.g_vector(o) for o in rc.indecomposables()]
        assert len(set(gs)) == len(gs)


# ---- AR translation -----------------------------------------------------------------


def test_tau_inv_examples(rc3):
    assert rc3.tau_inv(mod(0, 0, 1)) == mod(0, 1, 0)
    for i in (1, 2, 3):
        assert rc3.tau_inv(mod(*rc3.inj_dims(i))) == CQObject.shifted(i)
    # the projectives of 1 -> 2 -> 3
    projectives = [mod(1, 1, 1), mod(0, 1, 1), mod(0, 0, 1)]
    assert [rc3.tau_inv(CQObject.shifted(i)) for i in (1, 2, 3)] == projectives


def test_tau_round_trip_everywhere(rc3):
    for obj in rc3.indecomposables():
        assert rc3.tau(rc3.tau_inv(obj)) == obj
        assert rc3.tau_inv(rc3.tau(obj)) == obj


def test_ar_formula_links_tau_and_ext(rc4):
    # Hom(tau^-1 L, N) has the dimension of Ext^1(N, L) whenever both sides
    # stay in the module category; this pins the translation independently.
    mods = [o for o in rc4.indecomposables() if o.is_module]
    for l_obj, n_obj in itertools.product(mods, mods):
        lt = rc4.tau_inv(l_obj)
        if not lt.is_module:
            continue
        hom_dim, _ = rc4.hom(rc4.rep(lt.dims), rc4.rep(n_obj.dims))
        assert hom_dim == rc4.ext1_mod(n_obj, l_obj)


TAU_SCOPES = [(c, xi) for c in map(cartan_type, ("A1", "A2", "A3", "A4", "A5", "D4", "D5"))
              for xi in orientations(c)]
TAU_SCOPES.append((E6, E6_XI))


def test_tau_matches_the_coxeter_oracle():
    for cartan, xi in TAU_SCOPES:
        rc = RepContext(cartan, xi)
        for obj in rc.indecomposables():
            assert rc.tau(obj) == oracle_tau(rc, obj), (xi, obj)
            assert rc.tau(rc.tau_inv(obj)) == obj, (xi, obj)
            assert rc.tau_inv(rc.tau(obj)) == obj, (xi, obj)


def test_tau_inv_that_is_not_a_bijection_is_an_internal_error(monkeypatch):
    rc = RepContext(A3, linear_height(A3))
    monkeypatch.setattr(rc, "tau_inv", lambda obj: CQObject.shifted(1))
    with pytest.raises(InternalInvariantError, match=r"tau\^-1 is not a bijection: 1 images of 9"):
        rc.tau(CQObject.shifted(1))


def test_knitting_that_does_not_close_names_the_scope_and_both_counts(monkeypatch):
    rc = RepContext(D4, {1: 0, 2: -1, 3: 0, 4: 0})
    monkeypatch.setattr(rc, "tau_inv", lambda obj: obj)
    with pytest.raises(InternalInvariantError) as err:
        rc.ar_objects()
    assert str(err.value) == ("AR knitting failed to close for D4 xi=1:0,2:-1,3:0,4:0: "
                              "4 objects knitted, 16 indecomposables")


# SHA-256 of ar_objects, ar_arrows and ar_meshes as text, one digest each, over every
# orientation of A4 and D4 and one of E6; taken from the knitting that applied the
# Coxeter matrix for tau and memoised tau^-1 per (column, vertex)
AR_SCOPES = [(c, xi) for c in (A4, D4) for xi in orientations(c)]
AR_SCOPES.append((E6, E6_XI))
AR_DIGESTS = {
    "ar_objects": "3acd5314bc1acfe79a13ab7deb61e7a434e80313dd2e9af638eafbb0ba505088",
    "ar_arrows": "9020d29b5ed125f31afff5e9a6815b007f4ab038ea436f73c1dbf9faf41d7302",
    "ar_meshes": "9ee1815cf961e95686e6310985c010f881dbe73e5f565b298d1e199fb534410c",
}


def _ar_digests() -> dict[str, str]:
    digests = {name: hashlib.sha256() for name in AR_DIGESTS}
    for cartan, xi in AR_SCOPES:
        rc = RepContext(cartan, xi)
        texts = {
            "ar_objects": " ".join(map(str, rc.ar_objects())),
            "ar_arrows": " ".join(f"{x}>{y}" for x, y in rc.ar_arrows()),
            "ar_meshes": " ".join(f"{tz}>{'+'.join(map(str, middles))}>{z}"
                                  for tz, middles, z in rc.ar_meshes()),
        }
        for name, text in texts.items():
            digests[name].update(f"{cartan.name} {xi}\n{text}\n".encode())
    return {name: d.hexdigest() for name, d in digests.items()}


def test_ar_knitting_is_pinned():
    assert _ar_digests() == AR_DIGESTS


def test_ar_quiver_knitting(rc3):
    objs = rc3.ar_objects()
    assert len(objs) == 9
    assert len(rc3.ar_arrows()) == 12
    for tz, middles, z in rc3.ar_meshes():
        if tz.is_module and z.is_module and all(m.is_module for m in middles):
            total = [0] * 3
            for m in middles:
                for t, d in enumerate(m.dims):
                    total[t] += d
            assert tuple(a + b for a, b in zip(tz.dims, z.dims)) == tuple(total)


# ---- Hom and Ext ----------------------------------------------------------------------


def test_hom_examples(rc3):
    d, _ = rc3.hom(rc3.rep((0, 1, 0)), rc3.rep((1, 1, 0)))
    assert d == 1  # socle inclusion
    d, _ = rc3.hom(rc3.rep((1, 0, 0)), rc3.rep((0, 1, 0)))
    assert d == 0


@pytest.mark.parametrize("rc_fixture", ["rc3", "rc4"])
def test_hom_against_interval_oracle(rc_fixture, request):
    rc = request.getfixturevalue(rc_fixture)
    for a in rc.roots:
        for b in rc.roots:
            d, _ = rc.hom(rc.rep(a), rc.rep(b))
            assert d == oracle_hom_dim_typeA_linear(a, b)


HOM_SCOPES = [(c, xi) for c in (A3, A4, D4) for xi in orientations(c)] + [(E6, E6_XI)]


def test_hom_matches_the_dense_oracle_on_every_pair_of_roots():
    for cartan, xi in HOM_SCOPES:
        rc = RepContext(cartan, xi)
        built = [rc.rep(root) for root in rc.roots]
        for x, y in itertools.product(built, built):
            got = rc.hom(x, y)
            assert got == oracle_hom(rc, x, y), (xi, x.dims, y.dims)
            _assert_normal(row for fam in got[1] for block in fam.values() for row in block)


HAND_BUILT = [RepContext(A3, linear_height(A3)), RepContext(D4, XI_D4)]


@st.composite
def _hand_built_pair(draw):
    """A context and two representations of its quiver: dims 0..2, entries -3..3."""
    rc = draw(st.sampled_from(HAND_BUILT))

    def rep():
        dims = tuple(draw(st.integers(0, 2)) for _ in rc.cartan.vertices)
        mats = tuple((s, t, reps._mat(draw(_matrices(dims[t - 1], dims[s - 1]))))
                     for s, t in rc.arrows)
        return reps.QuiverRep(dims, mats)

    return rc, rep(), rep()


def _by_hand(rc, *dims_and_mats):
    """(rc, X, Y) from the dims and the arrow matrices (in rc.arrows order) of X and Y."""
    return rc, *(reps.QuiverRep(dims, tuple((*a, m) for a, m in zip(rc.arrows, mats)))
                 for dims, mats in zip(dims_and_mats[::2], dims_and_mats[1::2]))


# X and Y on A3 with X(1->2) = 1 and Y(1->2) = 2: the one Hom equation 2 h_1 - h_2 = 0
# has its pivot 2 at column 0, so over Q the basis vector is (1/2, 1)
PIVOT_TWO = _by_hand(HAND_BUILT[0], (1, 1, 0), [((1,),), ()], (1, 1, 0), [((2,),), ()])


@settings(max_examples=100, deadline=None)
@given(_hand_built_pair())
@example(PIVOT_TWO)
# zero maps give zero rows, and vertex 3 is zero-dimensional on both sides
@example(_by_hand(HAND_BUILT[0], (1, 2, 0), [((0,), (0,)), ()], (2, 1, 0), [((0, 0),), ()]))
@example(_by_hand(HAND_BUILT[1], (0, 2, 1, 1), [((), ()), ((1,), (-3,)), ((2,), (1,))],
                  (1, 1, 0, 2), [((1,),), ((),), ((0, 1),)]))
def test_hom_matches_the_dense_oracle_on_hand_built_representations(case):
    rc, x, y = case
    rows, _, total = oracle_hom_equations(rc, x, y)
    bad = _non_unit_pivot(rows, total)
    if bad:
        with pytest.raises(InternalInvariantError) as exc:
            rc.hom(x, y)
        assert str(exc.value) == (f"row reduction met pivot {bad[1]} at column {bad[0]} "
                                  f"{rc._where()}")
        return
    got = rc.hom(x, y)
    assert got == oracle_hom(rc, x, y)
    _assert_ints(row for fam in got[1] for block in fam.values() for row in block)


EXT_SCOPES = [(D4, xi) for xi in orientations(D4)] + [(E6, orientations(E6)[5])]


@pytest.mark.parametrize("cartan,xi", EXT_SCOPES,
                         ids=[_scope_id(c, xi) for c, xi in EXT_SCOPES])
def test_ext1_mod_matches_hom_oracle(cartan, xi):
    rc = RepContext(cartan, xi)
    for a, b in itertools.product(rc.roots, rc.roots):
        assert rc.ext1_mod(mod(*a), mod(*b)) == oracle_ext1_mod(rc, mod(*a), mod(*b)), (a, b)


@pytest.mark.parametrize("cartan", [A3, D4])
def test_exchange_pairs_match_hom_oracle(cartan):
    for xi in orientations(cartan):
        rc = RepContext(cartan, xi)
        pairs = {frozenset((str(a), str(b))) for a, b in rc.exchange_pairs()}
        assert pairs == oracle_exchange_pairs(rc)


def test_ext_cluster_examples(rc3):
    assert rc3.ext1_cluster(mod(0, 0, 1), mod(1, 1, 0)) == 1
    assert rc3.ext1_cluster(CQObject.shifted(1), CQObject.shifted(2)) == 0
    for i in (1, 2, 3):
        inj = mod(*rc3.inj_dims(i))
        assert rc3.ext1_cluster(CQObject.shifted(i), inj) == 1
    # sharing a cluster means no extensions
    assert rc3.ext1_cluster(mod(0, 0, 1), mod(0, 1, 1)) == 0


def test_ext_cluster_symmetry(rc3):
    objs = rc3.indecomposables()
    for x, y in itertools.combinations(objs, 2):
        assert rc3.ext1_cluster(x, y) == rc3.ext1_cluster(y, x)


def test_exchange_pairs_counts():
    # distinct exchangeable pairs; pairs can be realized by several exchange-graph
    # edges, so these are lower than the edge counts for rank >= 3
    assert len(RepContext(A2, linear_height(A2)).exchange_pairs()) == 5
    assert len(RepContext(A3, linear_height(A3)).exchange_pairs()) == 15


def test_exchange_pairs_membership(rc3):
    pairs = {frozenset((str(a), str(b))) for a, b in rc3.exchange_pairs()}
    assert frozenset(("mod:0,0,1", "mod:1,1,0")) in pairs
    assert frozenset(("mod:0,0,1", "mod:0,1,1")) not in pairs


# ---- exchange-relation ingredients ------------------------------------------------------


def test_im_h_worked_example(rc3):
    im = rc3.im_h(mod(0, 0, 1), mod(1, 1, 0))
    assert im.dims == (0, 1, 0)
    assert rc3.g_of_dims(im.dims) == (1, -1, 0)


def test_im_h_shift_to_injective(rc3):
    for i in (1, 2, 3):
        im = rc3.im_h(CQObject.shifted(i), mod(*rc3.inj_dims(i)))
        soc = tuple(1 if t == i - 1 else 0 for t in range(3))
        assert im.dims == soc  # image is the socle copy of S(i)


def test_im_h_surjective_case(rc3):
    # tau^-1(shifted 1) = the full interval, which surjects onto its top
    im = rc3.im_h(CQObject.shifted(1), mod(1, 0, 0))
    assert im.dims == (1, 0, 0)


def test_im_h_shift_case_unsupported(rc3):
    with pytest.raises(ShiftCaseUnsupported):
        rc3.im_h(mod(1, 0, 0), CQObject.shifted(1))  # tau^-1(injective) is shifted


def test_kappa_examples(rc3):
    L, N = mod(0, 0, 1), mod(1, 1, 0)
    assert rc3.kappa(L, [mod(1, 1, 1)], N) == (0, 1, 0)
    assert rc3.kappa(L, [mod(1, 0, 0)], N) == (-1, 1, 1)
    assert rc3.kappa(L, [L, N], N) == (0, 0, 0)


def test_object_spec_round_trip():
    for text in ["mod:0,1,1", "shp:2"]:
        assert str(CQObject.parse(text)) == text
    for text in ["bogus:1", "mod:a", "shp:x", "mod:", "mod:1,,0"]:
        with pytest.raises(DomainError):
            CQObject.parse(text)


@pytest.mark.parametrize("bad", [mod(1, 0, 1), mod(1, 1), CQObject.shifted(9),
                                 CQObject.shifted(0)])
def test_objects_outside_the_category_rejected(rc3, bad):
    good = mod(0, 1, 0)
    with pytest.raises(DomainError):
        rc3.socle(bad)
    with pytest.raises(DomainError):
        rc3.g_vector(bad)
    for x, y in ((bad, good), (good, bad)):
        with pytest.raises(DomainError):
            rc3.ext1_cluster(x, y)
        with pytest.raises(DomainError):
            rc3.im_h(x, y)
    with pytest.raises(DomainError):
        psi(bad, rc3, 2)
    with pytest.raises(DomainError):
        psi([good, bad], rc3, 2)
    for translate in (rc3.tau, rc3.tau_inv):
        with pytest.raises(DomainError):
            translate(bad)


# ---- exact linear algebra -----------------------------------------------------------------


def _reference_rref(rows, ncols):
    return oracle_rref([[Fraction(x) for x in row] for row in rows], ncols)


def _assert_normal(rows):
    """Every integral entry is an int; a Fraction only where the value is not integral."""
    for row in rows:
        for x in row:
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1), rows


def _assert_ints(rows):
    for row in rows:
        assert all(type(x) is int for x in row), rows


def _non_unit_pivot(rows, ncols):
    """The (column, value) of the first pivot other than 1 or -1 that the rows meet when
    reduced in order, or None."""
    return next(((c, v) for c, v in oracle_pivots_met(rows, ncols) if abs(v) != 1), None)


ENTRIES = st.integers(-3, 3)


def _matrices(nrows, ncols):
    return st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def _shaped(draw, max_rows=4, max_cols=5):
    nrows, ncols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    return draw(_matrices(nrows, ncols)), nrows, ncols


def _sparse_rref(rows, ncols):
    """`reps._rref` on the rows as {column: nonzero value}, read back as dense rows."""
    got, pivots = reps._rref([{c: v for c, v in enumerate(row) if v} for row in rows],
                             lambda: "for a test matrix")
    assert all(all(row.values()) for row in got), got  # no stored zeros
    return [[row.get(c, 0) for c in range(ncols)] for row in got], pivots


@settings(max_examples=100, deadline=None)
@given(_shaped())
@example(([], 0, 3))
@example(([[], []], 2, 0))
@example(([[2, 1, 0], [1, 1, 1]], 2, 3))  # pivot 2 in one row order, 1 then -1 in the other
def test_rref_and_null_space_match_the_fraction_reference(shaped):
    m, _, ncols = shaped
    want, want_pivots = _reference_rref(m, ncols)
    # the library's sparse rref, in both row orders: the reference where every pivot
    # met is 1 or -1, else the error naming the first other one
    for order in (m, m[::-1]):
        bad = _non_unit_pivot(order, ncols)
        if bad:
            with pytest.raises(InternalInvariantError) as exc:
                _sparse_rref(order, ncols)
            assert str(exc.value) == (f"row reduction met pivot {bad[1]} at column {bad[0]} "
                                      "for a test matrix")
            continue
        got, pivots = _sparse_rref(order, ncols)
        assert (got, pivots) == (want, want_pivots)
        _assert_ints(got)
    want_null = []
    for fc in (c for c in range(ncols) if c not in want_pivots):
        x = [Fraction(int(c == fc)) for c in range(ncols)]
        for row, pc in zip(want, want_pivots):
            x[pc] = -row[fc]
        want_null.append(tuple(x))
    null = oracle_null_space(m, ncols)
    assert null == want_null
    _assert_normal(null)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), _matrices(n, n))))
def test_invert_matches_the_fraction_reference(case):
    n, m = case
    rows = [row + [int(c == r) for c in range(n)] for r, row in enumerate(m)]
    want, pivots = _reference_rref(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        with pytest.raises(InternalInvariantError):
            _invert(reps._mat(m), n, "a test matrix")
        return
    got = _invert(reps._mat(m), n, "a test matrix")
    assert got == tuple(tuple(row[n:]) for row in want)
    _assert_normal(got)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.data())
def test_solve_matrix_matches_the_fraction_reference(nrows, acols, bcols, data):
    a = data.draw(_matrices(nrows, acols))
    b = data.draw(_matrices(nrows, bcols))
    want, pivots = _reference_rref([ra + rb for ra, rb in zip(a, b)], acols + bcols)
    if any(pc >= acols for pc in pivots):
        with pytest.raises(InternalInvariantError):
            oracle_solve_matrix(a, b, nrows, acols, bcols, "a test system")
        return
    z = [[Fraction(0)] * bcols for _ in range(acols)]
    for row, pc in zip(want, pivots):
        z[pc] = row[acols:]
    got = oracle_solve_matrix(a, b, nrows, acols, bcols, "a test system")
    assert got == tuple(map(tuple, z))
    _assert_normal(got)


def test_rref_error_names_the_pivot_and_the_scope():
    rc, x, y = PIVOT_TWO
    with pytest.raises(InternalInvariantError) as exc:
        rc.hom(x, y)
    assert str(exc.value) == "row reduction met pivot 2 at column 0 for A3 xi=1:0,2:-1,3:-2"
    # in the other row order the pivots are 1, then -1, which negates its row
    assert _sparse_rref([[1, 1, 1], [2, 1, 0]], 3) == ([[1, 0, -1], [0, 1, 2]], [0, 1])
    # a pivot that divides its row is refused too
    with pytest.raises(InternalInvariantError) as exc:
        _sparse_rref([[1, 0, 1], [1, 3, 7]], 3)
    assert str(exc.value) == "row reduction met pivot 3 at column 1 for a test matrix"
    # rows whose pivots arrive out of column order come back in pivot-column order
    assert _sparse_rref([[0, 1], [1, 0]], 2) == ([[1, 0], [0, 1]], [0, 1])
    # the scope is read only when the error fires
    scopes = []
    assert reps._rref([{0: -1, 1: 2}], lambda: scopes.append(1)) == ([{0: 1, 1: -2}], [0])
    assert not scopes


# ---- the representation layer, pinned ----------------------------------------------------

# SHA-256 of every rep_json(rep(root)) and every rep_json(im_h(L, N)) (or its
# ShiftCaseUnsupported message) in both directions of every exchange pair, over all
# orientations of A3, A4 and D4 and one of E6; computed with Fraction linear algebra
REP_LAYER_DIGEST = "2d47851e92bb1c28aee780cdfa822e4a8ac683c867c6471d41b8288d505ccdb0"


def test_representation_layer_output_is_pinned():
    scopes = [(c, xi) for c in (A3, A4, D4) for xi in orientations(c)]
    scopes.append((E6, {1: 0, 2: 1, 3: -1, 4: 0, 5: -1, 6: 0}))
    digest = hashlib.sha256()
    for cartan, xi in scopes:
        rc = RepContext(cartan, xi)
        for root in rc.roots:
            digest.update(rep_json(rc.rep(root)).encode())
        for x, y in rc.exchange_pairs():
            for l_obj, n_obj in ((x, y), (y, x)):
                try:
                    out = rep_json(rc.im_h(l_obj, n_obj))
                except ShiftCaseUnsupported as exc:
                    out = str(exc)
                digest.update(f"{l_obj}>{n_obj}\n{out}\n".encode())
    assert digest.hexdigest() == REP_LAYER_DIGEST


CHAIN_SCOPES = [(c, xi) for c in (A3, A4, D4, cartan_type("D5")) for xi in orientations(c)]


def test_reflection_chains_match_the_list_queue_bfs():
    for cartan, xi in CHAIN_SCOPES:
        rc = RepContext(cartan, xi)
        for root in rc.roots:
            assert rc._reflection_chain(root) == oracle_reflection_chain(rc, root), (xi, root)


def test_reflection_chains_are_the_least_shortest_sink_paths():
    for cartan, xi in CHAIN_SCOPES:
        rc = RepContext(cartan, xi)
        chains = oracle_shortest_chains(rc)
        for root in rc.roots:
            assert rc._reflection_chain(root) == chains[root], (xi, root)


def test_reflection_steps_match_the_three_reduction_oracle():
    for cartan, xi in CHAIN_SCOPES + [(E6, {1: 0, 2: 1, 3: -1, 4: 0, 5: -1, 6: 0})]:
        rc = RepContext(cartan, xi)
        for root in rc.roots:
            chain = rc._reflection_chain(root)
            rep = rc.simple(chain[-1][1], chain[-1][0])
            for arrows_t, k in reversed(chain[:-1]):
                got = rc._reflect_minus(rep, k, arrows_t)
                want = oracle_reflect_minus(rc, rep, k, _flip(arrows_t, k))
                assert rep_json(got) == rep_json(want), (xi, root, arrows_t, k)
                rep = got
            assert rep.dims == root


IMAGE_SCOPES = [(c, xi) for c in (cartan_type("A5"), cartan_type("D5"), cartan_type("D6"))
                for xi in orientations(c)]


def _image_or_reason(image, rc, l_obj, n_obj) -> str:
    try:
        return rep_json(image(rc, l_obj, n_obj))
    except ShiftCaseUnsupported as exc:
        return str(exc)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(IMAGE_SCOPES))
@example((E6, {1: 0, 2: 1, 3: -1, 4: 0, 5: -1, 6: -2}))
def test_images_match_the_solve_based_oracle(scope):
    rc = RepContext(*scope)
    for x, y in rc.exchange_pairs():
        for l_obj, n_obj in ((x, y), (y, x)):
            assert (_image_or_reason(RepContext.im_h, rc, l_obj, n_obj)
                    == _image_or_reason(oracle_im_h, rc, l_obj, n_obj)), (scope, l_obj, n_obj)


def _reversed_at(rep, v):
    """The representation in the reversed basis at vertex v: the rows of the maps into v
    and the columns of the maps out of v reversed."""
    return reps.QuiverRep(rep.dims, tuple(
        (s, t, tuple(row[::-1] if s == v else row for row in (m[::-1] if t == v else m)))
        for s, t, m in rep.mats))


@pytest.mark.parametrize("l_dims,n_dims,v", [
    ((0, 1, 1, 1, 1, 0), (0, 1, 1, 2, 1, 0), 4),
    ((0, 1, 1, 1, 1, 0), (0, 1, 1, 2, 2, 1), 5),
    ((0, 1, 1, 1, 1, 0), (1, 1, 2, 2, 1, 0), 3),
])
def test_images_take_their_pivots_in_column_order(l_dims, n_dims, v):
    # with N's basis reversed at v, the rows of the Hom block at v meet their pivots out
    # of column order; the image basis must still be the pivot columns in column order
    rc = RepContext(E6, {1: 0, 2: -1, 3: -1, 4: 0, 5: -1, 6: 0})
    rc._rep_cache[n_dims] = _reversed_at(rc.rep(n_dims), v)
    l_obj, n_obj = mod(*l_dims), mod(*n_dims)
    assert rep_json(rc.im_h(l_obj, n_obj)) == rep_json(oracle_im_h(rc, l_obj, n_obj))


# ---- invariant failures name their context ------------------------------------------------


def _zero_maps_at_step(monkeypatch, rc, step):
    """Make reflection step number `step` (from 0) of a build drop every arrow map."""
    steps = itertools.count()

    def reflect_minus(rep, k, arrows):
        out = RepContext._reflect_minus(rc, rep, k, arrows)
        if next(steps) != step:
            return out
        return reps.QuiverRep(out.dims, tuple(
            (s, t, reps._zeros(out.dims[t - 1], out.dims[s - 1])) for s, t, _ in out.mats))

    monkeypatch.setattr(rc, "_reflect_minus", reflect_minus)


def test_wrong_reflection_dimensions_name_both_vectors(monkeypatch):
    rc = RepContext(D4, XI_D4)
    # zero maps before the last step leave a larger cokernel at the next one
    _zero_maps_at_step(monkeypatch, rc, 1)
    with pytest.raises(InternalInvariantError) as exc:
        rc.rep((0, 1, 1, 1))
    assert str(exc.value) == ("reflection build produced (0, 2, 1, 1), wanted (0, 1, 1, 1) "
                              "for D4 xi=1:0,2:-1,3:0,4:0")


def test_decomposable_reflection_names_the_end_dimension(monkeypatch):
    rc = RepContext(D4, XI_D4)
    # zero maps at the last step keep the dimensions and leave a sum of three simples
    _zero_maps_at_step(monkeypatch, rc, 2)
    with pytest.raises(InternalInvariantError) as exc:
        rc.rep((0, 1, 1, 1))
    assert str(exc.value) == ("End space of (0, 1, 1, 1) has dimension 3 "
                              "for D4 xi=1:0,2:-1,3:0,4:0")


def test_inconsistent_image_names_the_hom_pair_and_arrow(monkeypatch):
    rc = RepContext(A3, linear_height(A3))
    for dims in ((1, 1, 1), (1, 1, 0)):
        rc.rep(dims)

    def not_a_morphism(x, y):
        # zero at vertex 2, so N(1->2) moves the image at 1 out of the image at 2
        dim, basis = RepContext.hom(rc, x, y)
        return dim, [{**fam, 2: ((0,),)} for fam in basis]

    monkeypatch.setattr(rc, "hom", not_a_morphism)
    with pytest.raises(InternalInvariantError) as exc:
        rc.im_h(CQObject.shifted(1), mod(1, 1, 0))
    assert str(exc.value) == ("inconsistent linear system in solve for "
                              "Hom((1, 1, 1), (1, 1, 0)) at arrow 1->2 for A3 xi=1:0,2:-1,3:-2")


# ---- scale ----------------------------------------------------------------------------------

E8 = cartan_type("E8")
E8_SCOPES = [({1: 0, 2: -1, 3: -1, 4: 0, 5: -1, 6: 0, 7: -1, 8: 0}, "bipartite"),
             (orientations(E8)[0], "first")]


@pytest.mark.skipif(not os.environ.get("CLUSTERMOD_SLOW_TESTS"),
                    reason="set CLUSTERMOD_SLOW_TESTS=1 to build every E8 representation")
@pytest.mark.parametrize("xi", [xi for xi, _ in E8_SCOPES], ids=[i for _, i in E8_SCOPES])
def test_e8_representations_and_images(xi):
    rc = RepContext(E8, xi)
    for root in rc.roots:
        assert rc.rep(root).dims == root  # the End check runs at build time
    images = 0
    for x, y in rc.exchange_pairs():
        for l_obj, n_obj in ((x, y), (y, x)):
            try:
                dims = rc.im_h(l_obj, n_obj).dims
            except ShiftCaseUnsupported:
                continue
            assert any(dims) and all(0 <= a <= b for a, b in zip(dims, n_obj.dims))
            images += 1
    assert images == 3120  # both orientations, as built with Fraction linear algebra


@pytest.mark.skipif(not os.environ.get("CLUSTERMOD_SLOW_TESTS"),
                    reason="set CLUSTERMOD_SLOW_TESTS=1 to sweep every orientation of E6, E7")
@pytest.mark.parametrize("cartan", [E6, cartan_type("E7")], ids=["E6", "E7"])
def test_every_orientation_of_e6_and_e7_reduces_over_the_integers(cartan):
    # every root and every image of an exchange pair, both ways, on all 32 and 64
    # orientations; a pivot other than 1 or -1 raises out of rep or im_h
    for xi in orientations(cartan):
        rc = RepContext(cartan, xi)
        for root in rc.roots:
            rep = rc.rep(root)
            _assert_ints(row for _, _, m in rep.mats for row in m)
        for x, y in rc.exchange_pairs():
            for l_obj, n_obj in ((x, y), (y, x)):
                try:
                    image = rc.im_h(l_obj, n_obj)
                except ShiftCaseUnsupported:
                    continue
                assert all(0 <= a <= b for a, b in zip(image.dims, n_obj.dims))
                _assert_ints(row for _, _, m in image.mats for row in m)
