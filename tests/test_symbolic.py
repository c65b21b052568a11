import pytest
from hypothesis import example, given, settings, strategies as st

from clustermod import symbolic
from clustermod.errors import (
    ClusterModError,
    ConfigurationError,
    InexactDivisionError,
    NotSubtractionFreeError,
)
from clustermod.symbolic import (
    LaurentPoly,
    Monomial,
    div_exact,
    eval_tropical,
    fvar,
    substitute,
    xvar,
    ycoef,
    Yvar,
    zvar,
)
from oracles import (
    TropElem,
    oracle_dense_eval_tropical,
    oracle_div_exact,
    oracle_eval_tropical,
    oracle_monomial_sort_key,
    oracle_substitute,
    trop_add,
)

X1, X2 = xvar(1), xvar(2)
F1, F2 = fvar(1), fvar(2)


def poly(*terms):
    return LaurentPoly([(Monomial(m), c) for m, c in terms])


# ---- strategies -----------------------------------------------------------

VARS = [xvar(1), xvar(2), fvar(1)]


@st.composite
def monomials(draw):
    exps = {v: draw(st.integers(-3, 3)) for v in draw(st.sets(st.sampled_from(VARS)))}
    return Monomial(exps)


@st.composite
def polys(draw, positive=False):
    n = draw(st.integers(0, 4))
    lo = 1 if positive else -5
    return LaurentPoly([(draw(monomials()), draw(st.integers(lo, 5))) for _ in range(n)])


# ---- ring laws -------------------------------------------------------------


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * LaurentPoly.one() == a
    assert a + LaurentPoly() == a


def test_powers_of_a_polynomial_are_nonnegative():
    # even a unit monomial has no negative power as a polynomial; as a Monomial it has
    unit = poly(({X1: 1, F1: -2}, -1))
    assert unit ** 2 == poly(({X1: 2, F1: -4}, 1))
    assert unit ** 0 == LaurentPoly.one()
    with pytest.raises(ConfigurationError, match="^negative power of a polynomial$"):
        unit ** -1
    assert Monomial({X1: 1, F1: -2}) ** -1 == Monomial({X1: -1, F1: 2})


@given(polys(), monomials())
@settings(max_examples=50, deadline=None)
def test_monomial_division_inverts_multiplication(a, m):
    b = LaurentPoly.from_monomial(m, 1)
    assert div_exact(a * b, b) == a


@given(polys(), polys())
@settings(max_examples=50, deadline=None)
def test_poly_division_inverts_multiplication(a, b):
    if b.is_zero:
        return
    assert div_exact(a * b, b) == a


# ---- tropical semifield: the reference arithmetic, and evaluation on exponent tuples ----

GENS = (fvar(1), fvar(2))


def trop(e1, e2):
    return TropElem(GENS, (e1, e2))


def test_trop_add_examples():
    u = TropElem((ycoef(1),), (1,))
    assert trop_add(u, u ** 2) == u
    a = trop(2, -1)
    assert trop_add(a, a) == a
    assert trop_add(trop(1, -1), TropElem.one(GENS)) == trop(0, -1)  # f1 f2^-1 + 1 = f2^-1


def test_trop_generator_mismatch():
    with pytest.raises(ConfigurationError):
        trop_add(trop(0, 0), TropElem((fvar(1),), (0,)))


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=50, deadline=None)
def test_trop_laws(a1, a2, b1, b2, c1, c2):
    a, b, c = trop(a1, a2), trop(b1, b2), trop(c1, c2)
    assert (a + b) + c == a + (b + c)
    assert a + a == a
    assert a * (b + c) == a * b + a * c


def test_eval_tropical_examples():
    y = ycoef(1)
    f = poly(({}, 1), ({y: 1}, 1))  # 1 + y
    val = eval_tropical(f, {y: (-1,)})
    assert val == (-1,)

    # two-step F-polynomial evaluated at the companion-quiver coefficients
    y1, y2 = ycoef(1), ycoef(2)
    f12 = poly(({}, 1), ({y2: 1}, 1), ({y1: 1, y2: 1}, 1))
    assign = {y1: (-1, 0), y2: (1, -1)}
    assert eval_tropical(f12, assign) == trop(0, -1).exps  # = f2^-1, the inverse socle


def test_eval_tropical_rejects_negative_coefficients():
    y = ycoef(1)
    with pytest.raises(NotSubtractionFreeError):
        eval_tropical(poly(({}, 1), ({y: 1}, -1)), {y: (0,)})


def test_eval_tropical_unassigned_variable():
    y = ycoef(1)
    with pytest.raises(ConfigurationError):
        eval_tropical(poly(({y: 1}, 1)), {ycoef(2): (0,)})


@pytest.mark.parametrize("f", [
    poly(({ycoef(1): 1, ycoef(2): 1}, 1)),  # within one term
    poly(({ycoef(1): 1}, 1), ({ycoef(2): 1}, 1)),  # across terms
    poly(({}, 1), ({ycoef(2): 1}, 1)),  # the constant term takes the first value's length
], ids=["one-term", "two-terms", "constant-term"])
def test_eval_tropical_rejects_values_of_different_lengths(f):
    with pytest.raises(ConfigurationError, match="^tropical values of different lengths$"):
        eval_tropical(f, {ycoef(1): (0, 1), ycoef(2): (2,)})


@given(polys(positive=True), polys(positive=True))
@settings(max_examples=40, deadline=None)
def test_eval_tropical_multiplicative(f, g):
    if f.is_zero or g.is_zero:
        return
    gens = (xvar(1), xvar(2), fvar(1))
    assign = {v: TropElem.generator(gens, v).exps for v in VARS}
    lhs = eval_tropical(f * g, assign)
    assert lhs == (TropElem(gens, eval_tropical(f, assign))
                   * TropElem(gens, eval_tropical(g, assign))).exps


# ---- substitution -----------------------------------------------------------


def test_substitute_z_to_y_expansion():
    z1, z3 = zvar(1, -2), zvar(3, -4)
    p = poly(({z1: 1, z3: -1}, 1))
    assign = {
        z1: Monomial({Yvar(1, -2): 1, Yvar(1, 0): 1}),
        z3: Monomial({Yvar(3, -4): 1, Yvar(3, -2): 1}),
    }
    out = substitute(p, assign)
    want = poly(({Yvar(1, -2): 1, Yvar(1, 0): 1, Yvar(3, -4): -1, Yvar(3, -2): -1}, 1))
    assert out == want


def test_substitute_identity_and_homomorphism():
    p = poly(({X1: 2}, 1), ({X1: -1, X2: 1}, 3))
    q = poly(({X1: 1}, -2), ({}, 1))
    assert substitute(p, {}) == p
    sigma = {X1: Monomial({X2: 1, F1: 1})}
    out = substitute(p, sigma)
    assert out == poly(({X2: 2, F1: 2}, 1), ({F1: -1}, 3))
    assert substitute(p * q, sigma) == out * substitute(q, sigma)


@given(polys(), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=40, deadline=None)
def test_substitute_composes_on_monomial_images(p, e1, e2):
    z1, z2 = zvar(1, 0), zvar(2, 0)
    sigma = {xvar(1): Monomial({z1: e1 or 1}), xvar(2): Monomial({z2: e2 or 1})}
    tau = {z1: Monomial({Yvar(1, 0): 1}), z2: Monomial({Yvar(2, 0): 2})}
    lhs = substitute(substitute(p, sigma), tau)
    composed = {v: substitute(LaurentPoly.from_monomial(img), tau).monomial_and_coefficient()[0]
                for v, img in sigma.items()}
    assert lhs == substitute(p, composed)


# ---- substitution and tropical evaluation against the arithmetic oracles --------

IMG_VARS = [xvar(2), fvar(1), ycoef(1)]


@st.composite
def image_monomials(draw):
    """A monomial image over a small alphabet, so that term images often collide."""
    exps = {v: draw(st.integers(-2, 2)) for v in draw(st.sets(st.sampled_from(IMG_VARS),
                                                               max_size=2))}
    return Monomial(exps)


def _outcome(fn, *args):
    """The result of fn, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except ClusterModError as exc:
        return type(exc), str(exc)


def _assert_same_substitution(p, assign):
    got = substitute(p, assign)
    want = oracle_substitute(p, assign)
    assert got == want
    assert list(got.monomials()) == list(want.monomials())  # the same storage order
    assert str(got) == str(want)


@given(polys(), st.dictionaries(st.sampled_from(VARS), image_monomials()))
@settings(max_examples=80, deadline=None)
def test_substitute_matches_oracle_on_monomial_images(p, assign):
    """Negative exponents, colliding and cancelling term images, unassigned variables."""
    _assert_same_substitution(p, assign)


@pytest.mark.parametrize("p,assign", [
    (poly(({X1: 1}, 1), ({X2: 1}, -1)), {X1: Monomial({F1: 1}), X2: Monomial({F1: 1})}),
    (poly(({X1: 1}, 1), ({F1: 2}, 5), ({X2: 1}, -1), ({X1: 2, X2: -1}, 2)),
     {X1: Monomial({F1: 1}), X2: Monomial({F1: 1})}),
], ids=["cancelling", "cancelled-then-added-again"])
def test_substitute_matches_oracle_examples(p, assign):
    _assert_same_substitution(p, assign)


@pytest.mark.parametrize("image", [
    poly(({F1: -1}, -1)), poly(({}, 1), ({X2: 1}, 1)), LaurentPoly(),
], ids=["one-term-poly", "sum", "zero"])
def test_substitute_rejects_non_monomial_images(image):
    """The images are checked before any term is read, so even p = 0 raises."""
    for p in (poly(({X1: -1}, 3), ({X2: 2}, 1)), LaurentPoly()):
        with pytest.raises(ConfigurationError, match="^substitution images must be monomials$"):
            substitute(p, {X2: Monomial({F1: 1}), X1: image})


TROP_GENS = (fvar(1), fvar(2))
TROPS = st.builds(TropElem, st.just(TROP_GENS), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))


@given(polys(), st.dictionaries(st.sampled_from(VARS), st.one_of(
    TROPS, st.builds(TropElem, st.just((fvar(1),)), st.tuples(st.integers(-3, 3))))))
@settings(max_examples=80, deadline=None)
def test_eval_tropical_matches_oracle(f, assign):
    """Negative coefficients, unassigned variables and the zero polynomial raise the
    same error as the oracle; values over different generator lists, which here
    have different lengths, raise the library's length error where the oracle
    raises its generator-list error."""
    _assert_same_tropical_value(f, assign)


@given(polys(positive=True), st.fixed_dictionaries({v: TROPS for v in VARS}))
@settings(max_examples=40, deadline=None)
def test_eval_tropical_matches_oracle_when_defined(f, assign):
    _assert_same_tropical_value(f, assign)


def _assert_same_tropical_value(f, assign):
    got = _outcome(eval_tropical, f, {v: t.exps for v, t in assign.items()})
    want = _outcome(oracle_eval_tropical, f, assign)
    if isinstance(want, TropElem):
        want = want.exps
    elif want == (ConfigurationError, "tropical elements over different generator lists"):
        want = (ConfigurationError, "tropical values of different lengths")
    assert got == want


# ---- tropical evaluation on mostly-zero values, against the dense evaluation ---------

SPARSE_VARS = [ycoef(1), ycoef(2), ycoef(3), ycoef(4)]


def sparse_values(width):
    """A tropical value whose entries are mostly zero, like y0 on Q-check and Gamma_l."""
    entry = st.sampled_from((0,) * 8 + (-2, -1, 1, 2))
    return st.tuples(*[entry] * width)


@st.composite
def sparse_polys(draw, lo=1):
    """Laurent polynomials in the y_j; lo < 1 allows negative coefficients and zero."""
    terms = []
    for _ in range(draw(st.integers(0 if lo < 1 else 1, 6))):
        exps = {v: draw(st.integers(-1, 3)) for v in draw(st.sets(st.sampled_from(SPARSE_VARS)))}
        terms.append((Monomial(exps), draw(st.integers(lo, 5))))
    return LaurentPoly(terms)


@given(sparse_polys(), st.fixed_dictionaries({v: sparse_values(6) for v in SPARSE_VARS}))
@settings(max_examples=80, deadline=None)
def test_eval_tropical_matches_the_dense_evaluation(f, assign):
    assert eval_tropical(f, assign) == oracle_dense_eval_tropical(f, assign)


@given(sparse_polys(lo=-2), st.dictionaries(st.sampled_from(SPARSE_VARS),
                                            st.one_of(sparse_values(5), sparse_values(6))))
# a term whose value has the wrong length against an earlier term, then an unassigned
# variable: every variable of the term is looked up before that length check, so the
# dense evaluation raises "no tropical value assigned to y[3]"
@example(poly(({ycoef(1): 1}, 1), ({ycoef(2): 1, ycoef(3): 1}, 1)),
         {ycoef(1): (0, 1), ycoef(2): (2,)})
@settings(max_examples=120, deadline=None)
def test_eval_tropical_raises_as_the_dense_evaluation(f, assign):
    """The same result, or the same error type and message, raised at the same term:
    negative coefficients, unassigned variables, values of different lengths, the
    zero polynomial and the empty monomial."""
    got = _outcome(eval_tropical, f, assign)
    assert got == _outcome(oracle_dense_eval_tropical, f, assign)


# ---- exact division ----------------------------------------------------------


def test_div_exact_examples():
    a = poly(({X2: 1, X1: -1}, 1), ({X1: -1}, 1))  # (x2+1)/x1
    b = poly(({X1: -1}, 1))
    assert div_exact(a, b) == poly(({X2: 1}, 1), ({}, 1))

    yx = poly(({ycoef(1): 1, X2: 1}, 1), ({}, 1))
    out = div_exact(yx, poly(({X1: 1}, 1)))
    assert out == poly(({ycoef(1): 1, X2: 1, X1: -1}, 1), ({X1: -1}, 1))

    a = poly(({X1: 1, X2: 1}, 1), ({X1: 1}, 1))
    b = poly(({X2: 1}, 1), ({}, 1))
    assert div_exact(a, b) == poly(({X1: 1}, 1))


def test_div_exact_rejects_inexact():
    with pytest.raises(InexactDivisionError):
        div_exact(poly(({X1: 1}, 1), ({}, 1)), poly(({X2: 1}, 1), ({}, 1)))
    with pytest.raises(InexactDivisionError):
        div_exact(poly(({}, 3)), poly(({}, 2)))
    with pytest.raises(InexactDivisionError, match=r"variable x\[1\] range is empty"):
        div_exact(poly(({X1: 1}, 1), ({}, 1)), poly(({X1: 2}, 1), ({}, 1)))


def test_div_exact_step_cap(monkeypatch):
    a = poly(({X1: 2}, 1), ({}, -1))  # (x1 - 1)(x1 + 1): two reduction steps
    b = poly(({X1: 1}, 1), ({}, 1))
    monkeypatch.setattr(symbolic, "_DIV_STEP_CAP", 2)
    assert div_exact(a, b) == poly(({X1: 1}, 1), ({}, -1))
    monkeypatch.setattr(symbolic, "_DIV_STEP_CAP", 1)
    with pytest.raises(InexactDivisionError, match="did not terminate"):
        div_exact(a, b)


# ---- exact division and the term order against the Monomial-comparator oracle ----

DIV_VARS = VARS + [ycoef(1)]


@st.composite
def div_polys(draw):
    """Polynomials over a drawn subset of the variables, so that two of them often
    have disjoint variable sets; constants and negative exponents among them."""
    vs = draw(st.lists(st.sampled_from(DIV_VARS), unique=True, max_size=3))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        exps = {v: draw(st.integers(-3, 3)) for v in vs if draw(st.booleans())}
        terms.append((Monomial(exps), draw(st.integers(-4, 4))))
    return LaurentPoly(terms)


def _assert_same_division(a, b):
    got, want = _outcome(div_exact, a, b), _outcome(oracle_div_exact, a, b)
    if isinstance(want, LaurentPoly):  # the same terms, stored in the same order
        assert got == want
        assert list(got.monomials()) == list(want.monomials())
    else:
        assert want[0] is InexactDivisionError
        assert isinstance(got, tuple) and got[0] is InexactDivisionError, got


@given(div_polys(), div_polys())
@settings(max_examples=120, deadline=None)
def test_div_exact_matches_oracle_on_exact_products(a, b):
    if b.is_zero:
        return
    _assert_same_division(a * b, b)
    assert div_exact(a * b, b) == a


@given(div_polys(), div_polys())
@settings(max_examples=120, deadline=None)
def test_div_exact_matches_oracle_on_arbitrary_pairs(a, b):
    """The same quotient, or both raise InexactDivisionError (division by zero too)."""
    _assert_same_division(a, b)


@given(div_polys())
@settings(max_examples=80, deadline=None)
def test_terms_follow_the_oracle_term_order(p):
    want = sorted(p.monomials(), key=oracle_monomial_sort_key, reverse=True)
    assert [m for m, _ in p.terms()] == want


# ---- text format --------------------------------------------------------------


def test_monomial_text_format():
    m = Monomial({Yvar(1, -2): 1, Yvar(3, -4): -2})
    assert str(m) == "Y[1,-2] Y[3,-4]^-2"
    assert str(Monomial()) == "1"
    mixed = Monomial({X2: 1, F2: 1, X1: -1})
    assert str(mixed) == "x[1]^-1 x[2] f[2]"


def test_poly_text_format():
    p = poly(({X2: 1, X1: -1, fvar(3): 1}, 1), ({X1: -1, F2: 1}, 1))
    assert str(p) == "x[1]^-1 x[2] f[3] + x[1]^-1 f[2]"
