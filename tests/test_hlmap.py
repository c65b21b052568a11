import itertools

import pytest

from clustermod.cartan import cartan_type, linear_height
from clustermod.engine import Seed, make_record
from clustermod.errors import DomainError, NonDominantError
from clustermod.hlmap import (
    a_monomial,
    expand_z,
    hw_extract,
    kr_monomial,
    psi,
    uv_monomials,
    yhat_monomial,
    z_monomial,
)
from clustermod.quivers import build_gamma_l
from clustermod.reps import CQObject, RepContext
from clustermod.symbolic import Monomial, Yvar, zvar

A3 = cartan_type("A3")
XI3 = linear_height(A3)
D4 = cartan_type("D4")
XI_D4 = {1: 0, 2: -1, 3: 0, 4: 0}


def Y(*pairs):
    return Monomial({Yvar(i, r): e for i, r, e in pairs})


@pytest.fixture(scope="module")
def rc3():
    return RepContext(A3, XI3)


# ---- basic monomials ---------------------------------------------------------


def test_ymonomial_arithmetic():
    a = Y((1, 0, 1), (2, -1, 2))
    b = Y((2, -1, -2), (3, 0, 1))
    assert a * b == Y((1, 0, 1), (3, 0, 1))
    assert (a / a).is_one
    assert a ** 0 == Monomial.one()
    assert not (a * b.inverse()).is_dominant
    assert str(Y((3, -4, 1), (1, -2, 1))) == "Y[1,-2] Y[3,-4]"
    assert str(Y((3, -4, -2), (1, 0, 1), (1, -2, 1))) == "Y[1,-2] Y[1,0] Y[3,-4]^-2"
    # inverse and powers keep the canonical order, so they equal freshly built monomials
    assert a.inverse() == Y((1, 0, -1), (2, -1, -2)) and (a * b) ** 3 == Y((1, 0, 3), (3, 0, 3))
    assert a.is_dominant and Monomial.one().is_dominant


def test_expand_z_is_the_product_of_z_powers():
    pairs = [((1, -2), 2), ((3, -4), -1), ((1, 0), -1), ((2, -5), 0), ((3, -2), 1)]
    want = Monomial.one()
    for (i, p), e in pairs:
        want = want * z_monomial(i, p, XI3) ** e
    assert expand_z(pairs, XI3) == want == Y((1, -2, 2), (1, 0, 1), (3, -4, -1))
    assert expand_z([((1, -2), 1), ((1, -2), -1)], XI3).is_one
    assert expand_z([((1, 7), 0)], XI3).is_one  # a zero exponent expands nothing
    with pytest.raises(DomainError):
        expand_z([((1, -1), 1)], XI3)


def test_z_monomial_examples():
    assert z_monomial(1, 0, {1: 0}) == Y((1, 0, 1))
    assert z_monomial(1, -2, XI3) == Y((1, -2, 1), (1, 0, 1))
    assert z_monomial(3, -6, XI3) == Y((3, -6, 1), (3, -4, 1), (3, -2, 1))
    with pytest.raises(DomainError):
        z_monomial(1, -1, XI3)  # parity
    with pytest.raises(DomainError):
        z_monomial(1, 2, XI3)  # above the height


def test_kr_monomial_examples():
    assert kr_monomial(1, 2, -2) == Y((1, -2, 1), (1, 0, 1))
    assert kr_monomial(2, 0, 7) == Monomial.one()
    assert kr_monomial(2, 2, -5) == Y((2, -5, 1), (2, -3, 1))
    with pytest.raises(DomainError):
        kr_monomial(1, -1, 0)


def test_uv_monomials():
    xi = {3: -2}
    u, v = uv_monomials(3, 2, xi)
    assert u == Y((3, -4, 1))
    assert v == Y((3, -6, 1), (3, -4, 1), (3, -2, 1))
    for i in (1, 2, 3):
        u, v = uv_monomials(i, 1, XI3)
        assert u.is_one
    # u v / z_{i, xi-2l+2} is the injective KR monomial
    for i, l in itertools.product((1, 2, 3), (1, 2, 3)):
        u, v = uv_monomials(i, l, XI3)
        assert u * v / z_monomial(i, XI3[i] - 2 * l + 2, XI3) == kr_monomial(i, l, XI3[i] - 2 * l)


# ---- A-variables -------------------------------------------------------------------


def test_yhat_monomial_example():
    assert yhat_monomial(1, 0, A3) == Y((1, -2, -1), (1, 0, -1), (2, -1, 1))
    assert a_monomial(2, 0, A3) == Y((2, 1, 1), (2, -1, 1), (1, 0, -1), (3, 0, -1))


def test_a_inverse_lowers_weight_rows():
    # multiplying by A^{-1}_{i,r} drops the i-th row exponent sum by 2 and
    # raises each neighbor row by 1: the weight goes down by a simple root
    for i in (1, 2, 3):
        inv = a_monomial(i, -1, A3).inverse()
        rows = {}
        for v, e in inv.items:
            rows[v.index[0]] = rows.get(v.index[0], 0) + e
        assert rows[i] == -2
        for j in A3.neighbors(i):
            assert rows[j] == 1


# ---- psi ------------------------------------------------------------------------------

PSI_TABLE = {
    "shp:1": "Y[1,-2] Y[1,0]",
    "shp:2": "Y[2,-3] Y[2,-1]",
    "shp:3": "Y[3,-4] Y[3,-2]",
    "mod:1,1,1": "Y[3,-6] Y[3,-4]",
    "mod:0,1,1": "Y[1,-2] Y[1,0] Y[3,-6] Y[3,-4]",
    "mod:0,0,1": "Y[2,-3] Y[2,-1] Y[3,-6] Y[3,-4]",
    "mod:1,1,0": "Y[2,-5] Y[2,-3]",
    "mod:0,1,0": "Y[1,-2] Y[1,0] Y[2,-5] Y[2,-3]",
    "mod:1,0,0": "Y[1,-4] Y[1,-2]",
}


def test_psi_reproduces_level2_table(rc3):
    for obj in rc3.indecomposables():
        assert str(psi(obj, rc3, 2)) == PSI_TABLE[str(obj)]


def test_psi_worked_example(rc3):
    got = psi(CQObject.module((0, 1, 1)), rc3, 2)
    assert got == Y((1, -2, 1), (1, 0, 1), (3, -6, 1), (3, -4, 1))


def test_psi_projective_and_injective_kr(rc3):
    for i, l in itertools.product((1, 2, 3), (1, 2, 3)):
        assert psi(CQObject.shifted(i), rc3, l) == kr_monomial(i, l, XI3[i] - 2 * l + 2)
        inj = CQObject.module(rc3.inj_dims(i))
        assert psi(inj, rc3, l) == kr_monomial(i, l, XI3[i] - 2 * l)


def test_psi_multiplicative_over_sums(rc3):
    a = CQObject.module((0, 1, 1))
    b = CQObject.shifted(2)
    assert psi([a, b], rc3, 2) == psi(a, rc3, 2) * psi(b, rc3, 2)


@pytest.mark.parametrize("cartan,xi,l", [
    (A3, XI3, 1), (A3, XI3, 2), (A3, XI3, 3),
    (D4, XI_D4, 1), (D4, XI_D4, 2), (D4, XI_D4, 3),
])
def test_psi_injective_and_dominant(cartan, xi, l):
    rc = RepContext(cartan, xi)
    seen = set()
    for obj in rc.indecomposables():
        mono = psi(obj, rc, l)  # raises NonDominantError on any sign slip
        assert mono.is_dominant
        assert mono not in seen
        seen.add(mono)


def test_psi_level1_hl_monomials(rc3):
    # at level one the u's vanish and the socle block contributes the bottom z's
    for obj in rc3.indecomposables():
        g, s = rc3.extended_g(obj)
        want = Monomial.one()
        for i in (1, 2, 3):
            if g[i - 1]:
                want = want * z_monomial(i, XI3[i], XI3) ** g[i - 1]
            if s[i - 1]:
                want = want * z_monomial(i, XI3[i] - 2, XI3) ** s[i - 1]
        assert psi(obj, rc3, 1) == want


def test_non_dominant_raises():
    with pytest.raises(NonDominantError):
        hw_extract((-1,), (zvar(1, 0),), {1: 0})


@pytest.mark.parametrize("source", [
    ((1, 1), (zvar(1, 0),)),  # an entry with no variable
    ((1,), (zvar(1, 0), zvar(2, 0))),  # a variable with no entry
    ((1, 0), (zvar(1, 0), zvar(2, 0), zvar(2, -2))),
])
def test_hw_extract_rejects_a_gtilde_of_the_wrong_length(source):
    exps, variables = source
    with pytest.raises(DomainError, match="g-tilde has"):
        hw_extract(exps, variables, {1: 0, 2: 0})


# ---- hw extraction ----------------------------------------------------------------------


def test_hw_extract_initial_variables_are_kr():
    for cartan, xi, l in ((A3, XI3, 2), (A3, {1: 0, 2: -1, 3: 0}, 3), (D4, XI_D4, 2)):
        seed = Seed.initial(build_gamma_l(cartan, xi, l))
        ctx = seed.ctx
        for j, v in enumerate(ctx.mutables):
            rec = make_record(seed, j)
            hw = hw_extract(rec.gtilde, ctx.xvars + ctx.gens, xi)
            k = (xi[v.i] - v.r) // 2
            assert hw == kr_monomial(v.i, k + 1, v.r)


def test_hw_extract_requires_grid_seed():
    from clustermod.quivers import build_qcheck
    from clustermod.cartan import cartan_type, linear_height

    ct = cartan_type("A2")
    seed = Seed.initial(build_qcheck(ct, linear_height(ct)))
    rec = make_record(seed, 0)
    with pytest.raises(DomainError, match="grid-labeled"):
        hw_extract(rec.gtilde, seed.ctx.xvars + seed.ctx.gens, linear_height(ct))


def test_hw_extract_trivial_level1():
    xi = {1: 0, 2: -1}
    seed = Seed.initial(build_gamma_l(cartan_type("A2"), xi, 1))
    ctx = seed.ctx
    for j, v in enumerate(ctx.mutables):
        rec = make_record(seed, j)
        assert hw_extract(rec.gtilde, ctx.xvars + ctx.gens, xi) == z_monomial(v.i, v.r, xi)
