import dataclasses
import random
import re

import pytest

from clustermod import engine
from clustermod.cartan import cartan_type, linear_height
from clustermod.engine import (
    Seed,
    enumerate_exchange_graph,
    make_record,
    run_sequence,
    seed_context,
    separation,
)
from clustermod.errors import ConfigurationError, FrozenVertexError, InternalInvariantError
from clustermod.quivers import IceQuiver, Vertex, build_gamma_l, build_qcheck
from clustermod.reps import RepContext
from clustermod.symbolic import LaurentPoly, Monomial, fvar, xvar, ycoef
from clustermod.verify import s_l_sequence

from oracles import (
    OracleSeed,
    TropElem,
    oracle_records,
    oracle_seed_count,
    oracle_thin_fpoly,
    orientations,
)

A2 = cartan_type("A2")
A3 = cartan_type("A3")
A4 = cartan_type("A4")

XI3 = linear_height(A3)


def poly(*terms):
    return LaurentPoly([(Monomial(m), c) for m, c in terms])


@pytest.fixture(scope="module")
def a3_seed():
    return Seed.initial(build_qcheck(A3, XI3))


@pytest.fixture(scope="module")
def a3_graph(a3_seed):
    return enumerate_exchange_graph(a3_seed)


# ---- single mutations -----------------------------------------------------------


def test_coefficient_free_a2_classic():
    q = IceQuiver.from_arrows([Vertex(1), Vertex(2)], (), [(Vertex(1), Vertex(2))])
    s = Seed.initial(q)
    s1 = s.mutate(Vertex(1))
    x1, x2 = xvar(1), xvar(2)
    rec = make_record(s1, 0)
    assert separation(rec.gtilde, rec.fpoly, s.ctx) == poly(({x1: -1, x2: 1}, 1),
                                                          ({x1: -1}, 1))  # (x2+1)/x1


def test_qcheck_mutation_at_sink(a3_seed):
    ctx = a3_seed.ctx
    assert ctx.y0 == ((-1, 0, 0), (1, -1, 0), (0, 1, -1))
    assert [str(TropElem(ctx.gens, y)) for y in ctx.y0] == ["f[1]^-1", "f[1] f[2]^-1",
                                                            "f[2] f[3]^-1"]
    s1 = a3_seed.mutate(Vertex(3))
    k = ctx.mut_index[Vertex(3)]
    x2, x3 = xvar(2), xvar(3)
    want = poly(({x2: 1, x3: -1, fvar(3): 1}, 1), ({x3: -1, fvar(2): 1}, 1))
    rec = make_record(s1, k)
    assert separation(rec.gtilde, rec.fpoly, ctx) == want  # (f2 + f3 x2)/x3


def _same_as_oracle(rec, want, ctx):
    return (rec.gvec, rec.fpoly, separation(rec.gtilde, rec.fpoly, ctx), rec.denominator) == (
        want.gvec, want.fpoly, want.expansion, want.denominator)


def test_double_mutation_is_identity(a3_seed):
    reference = OracleSeed.initial(a3_seed)
    for v in a3_seed.ctx.mutables:
        k = a3_seed.ctx.mut_index[v]
        forward = a3_seed.mutate(v)
        assert _same_as_oracle(make_record(forward, k), reference.mutate(v).record(k),
                               a3_seed.ctx)
        back = forward.mutate(v)
        assert back == a3_seed
        for j in range(len(a3_seed.ctx.mutables)):
            assert _same_as_oracle(make_record(back, j), reference.record(j), a3_seed.ctx)


def test_mutation_at_frozen_rejected(a3_seed):
    with pytest.raises(FrozenVertexError):
        a3_seed.mutate(Vertex(1, primed=True))


@pytest.mark.parametrize("j", [-1, 3, True, 1.0, "0"])
def test_make_record_rejects_a_position_that_is_not_mutable(j):
    # the caller's fault, not an engine bug: a usage error, and no record is written
    seed = Seed.initial(build_qcheck(A3, XI3)).mutate(Vertex(1))
    before = dict(seed.ctx.records)
    with pytest.raises(ConfigurationError, match="not a mutable position"):
        make_record(seed, j)
    assert seed.ctx.records == before


def test_mutate_with_edge_rejects_an_edge_of_another_seed(a3_seed):
    v = Vertex(2)
    edge = a3_seed.exchange_step(v)
    forward = a3_seed.mutate_with_edge(edge)
    assert forward == a3_seed.mutate(v)
    # mutated at v, the seed no longer holds the edge's old g-vector there
    with pytest.raises(ConfigurationError) as err:
        forward.mutate_with_edge(edge)
    assert str(err.value) == (f"exchange step at {v} with g = {edge.old_g} was not taken "
                              f"from seed {forward.key()}")
    # a vertex of another quiver is not a position of this seed
    d4 = cartan_type("D4")
    foreign = Seed.initial(build_qcheck(d4, orientations(d4)[0])).exchange_step(Vertex(4))
    with pytest.raises(ConfigurationError):
        a3_seed.mutate_with_edge(foreign)
    # mutated at 1, the seed still holds the edge's old g-vector at 2, in another exchange column
    other = a3_seed.mutate(Vertex(1))
    assert other.gtilde[1] == a3_seed.gtilde[1]
    with pytest.raises(ConfigurationError) as err:
        other.mutate_with_edge(edge)
    assert str(err.value) == (f"exchange step at {v} with g = {edge.old_g} was not taken "
                              f"from seed {other.key()}")
    # an equal seed that is another object completes the edge
    twin = Seed.initial(build_qcheck(A3, XI3))
    assert twin is not a3_seed and twin == a3_seed
    assert twin.mutate_with_edge(edge) == forward


@pytest.mark.parametrize("quiver", [build_qcheck(A3, XI3), build_gamma_l(A3, XI3, 2)],
                         ids=["A3-qcheck", "A3-gamma-2"])
def test_mutation_writes_nothing_to_the_context(quiver):
    rng = random.Random(5)
    seed = Seed.initial(quiver)
    ctx = seed.ctx
    seed.exchange_step(ctx.mutables[0])  # fills the lazy tables that mutation reads

    def tables():
        return {name: dict(value) for name, value in vars(ctx).items() if isinstance(value, dict)}

    before = tables()
    for _ in range(20):
        seed = seed.mutate_with_edge(seed.exchange_step(rng.choice(ctx.mutables)))
    assert tables() == before


# ---- invariant failures name the data that failed -------------------------------------


def test_a_record_needed_before_it_is_built_names_the_seed_position_and_g_vector():
    seed = Seed.initial(build_qcheck(A3, XI3))
    for v in (Vertex(1), Vertex(2)):  # the exchange at 2 after 1 has the new x_1 as a factor
        seed = seed.mutate_with_edge(seed.exchange_step(v))
    with pytest.raises(InternalInvariantError) as exc:
        make_record(seed, 1)
    assert str(exc.value) == (
        "F-polynomial at position 1 of seed ((-1, 0, 0), (0, -1, 0), (0, 0, 1)) needs the "
        "record of g = (-1, 0, 0), which is not built yet")


@pytest.mark.parametrize("bad,message", [
    (poly(({}, 2), ({ycoef(3): 1}, 1)), "F-polynomial constant term != 1 at g = (0, 1, -1): "),
    (poly(({}, 1), ({ycoef(3): 1}, -1)),
     "F-polynomial has non-positive coefficient at g = (0, 1, -1): "),
], ids=["constant-term", "positivity"])
def test_bad_f_polynomial_names_its_g_vector(monkeypatch, bad, message):
    seed = Seed.initial(build_qcheck(A3, XI3)).mutate(Vertex(3))
    monkeypatch.setattr(engine, "div_exact", lambda num, den: bad)
    with pytest.raises(InternalInvariantError, match="^" + re.escape(message + str(bad)) + "$"):
        make_record(seed, 2)


SIGN_FAILURES = pytest.mark.parametrize("column,message", [
    ((1, -1, 0), "c-vector column 0 of seed ((0, 0, 1), (0, 1, 0), (1, 0, 0)) "
                 "not sign-coherent: (1, -1, 0)"),
    ((0, 0, 0), "c-vector column 0 of seed ((0, 0, 1), (0, 1, 0), (1, 0, 0)) is zero"),
], ids=["mixed-signs", "zero"])


@SIGN_FAILURES
def test_sign_coherence_failure_names_the_seed(a3_seed, column, message):
    seed = dataclasses.replace(a3_seed, cvecs=(column,) + a3_seed.cvecs[1:])
    with pytest.raises(InternalInvariantError, match="^" + re.escape(message) + "$"):
        seed.epsilon(0)


@SIGN_FAILURES
def test_exchange_step_raises_the_sign_coherence_failure(a3_seed, column, message):
    seed = dataclasses.replace(a3_seed, cvecs=(column,) + a3_seed.cvecs[1:])
    with pytest.raises(InternalInvariantError, match="^" + re.escape(message) + "$"):
        seed.exchange_step(seed.ctx.mutables[0])


def test_broken_duality_names_the_seed_position_and_g_vector():
    seed = Seed.initial(build_qcheck(A3, XI3)).mutate(Vertex(3))
    # column 1 loses its last entry, so g_2 . c_1 = 1 where G^T C = I wants 0
    seed = dataclasses.replace(seed, cvecs=((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    with pytest.raises(InternalInvariantError) as exc:
        make_record(seed, 2)
    assert str(exc.value) == (
        "tropical duality G^T C = I fails in seed ((0, 1, -1), (0, 1, 0), (1, 0, 0)) at "
        "position 2, column 1: g = (0, 1, -1), c = (0, 1, 0)")


def test_g_tilde_disagreement_names_the_seed_position_and_g_vector(monkeypatch):
    seed = Seed.initial(build_qcheck(A3, XI3)).mutate(Vertex(3))
    record = make_record(seed, 2)
    monkeypatch.setitem(seed.ctx.records, (0, 1, -1),
                        dataclasses.replace(record, gtilde=(0, 1, -1, 0, 1, 1)))
    with pytest.raises(InternalInvariantError) as exc:
        make_record(seed, 2)
    assert str(exc.value) == (
        "extended g-vector recursion disagrees with -trop(F)(y0) in seed "
        "((0, 1, -1), (0, 1, 0), (1, 0, 0)) at position 2, g = (0, 1, -1): "
        "(0, 1, -1, 0, 0, 1) vs (0, 1, -1, 0, 1, 1)")


# ---- principal tracking -----------------------------------------------------------


def test_initial_records(a3_seed):
    assert a3_seed.cvecs == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for j in range(3):
        rec = make_record(a3_seed, j)
        assert rec.fpoly == LaurentPoly.one()
        assert rec.gvec == tuple(1 if t == j else 0 for t in range(3))


def test_gtilde_entries_from_single_mutations(a3_seed):
    s1 = a3_seed.mutate(Vertex(3))
    rec = make_record(s1, 2)
    assert rec.gvec == (0, 1, -1)
    assert rec.fpoly == poly(({}, 1), ({ycoef(3): 1}, 1))
    assert rec.gtilde == (0, 1, -1, 0, 0, 1)

    s1 = a3_seed.mutate(Vertex(1))
    rec = make_record(s1, 0)
    assert rec.gvec == (-1, 0, 0)
    assert rec.fpoly == poly(({}, 1), ({ycoef(1): 1}, 1))
    assert rec.gtilde == (-1, 0, 0, 1, 0, 0)


def test_derived_two_step_f_polynomial(a3_graph):
    # F of the variable with g = (0,-1,0): reached after two mutations
    rec = a3_graph.registry[(0, -1, 0)]
    y1, y2 = ycoef(1), ycoef(2)
    assert rec.fpoly == poly(({}, 1), ({y2: 1}, 1), ({y1: 1, y2: 1}, 1))


def test_separation_matches_direct_expansion(a3_seed, a3_graph):
    ctx = a3_graph.ctx
    want = oracle_records(a3_seed)
    assert set(want) == set(a3_graph.registry)
    for g, rec in a3_graph.registry.items():
        assert separation(rec.gtilde, rec.fpoly, ctx) == want[g].expansion


def test_separation_leading_monomial(a3_graph):
    ctx = a3_graph.ctx
    rec = a3_graph.registry[(0, 0, -1)]
    lead = Monomial({xvar(3): -1, fvar(3): 1})
    assert separation(rec.gtilde, rec.fpoly, ctx).coefficient(lead) == 1
    assert rec.gtilde == (0, 0, -1, 0, 0, 1)


def test_denominator_vectors(a3_graph):
    # classical in type A: the denominator vector is the dimension vector
    assert a3_graph.registry[(0, 0, -1)].denominator == (1, 1, 1)
    assert a3_graph.registry[(0, 1, -1)].denominator == (0, 0, 1)
    assert a3_graph.registry[(1, 0, 0)].denominator == (-1, 0, 0)


# ---- enumeration -------------------------------------------------------------------


def test_exchange_graph_counts(a3_graph):
    assert (a3_graph.seed_count, a3_graph.variable_count, len(a3_graph.edges)) == (14, 9, 21)
    assert a3_graph.exhaustive


def test_exchange_graph_counts_against_oracle():
    for ct, want in ((A2, 5), (A3, 14), (A4, 42)):
        xi = linear_height(ct)
        s0 = Seed.initial(build_qcheck(ct, xi))
        graph = enumerate_exchange_graph(s0)
        assert graph.seed_count == want
        assert oracle_seed_count(s0) == want


def test_coefficient_free_a2_enumeration():
    q = IceQuiver.from_arrows([Vertex(1), Vertex(2)], (), [(Vertex(1), Vertex(2))])
    graph = enumerate_exchange_graph(Seed.initial(q))
    assert (graph.seed_count, graph.variable_count, len(graph.edges)) == (5, 5, 5)


def test_seed_cap_flags_partial():
    s0 = Seed.initial(build_qcheck(A3, XI3))
    graph = enumerate_exchange_graph(s0, max_seeds=4)
    assert not graph.exhaustive
    assert graph.seed_count == 4


@pytest.mark.parametrize("cap", [0, 2.5, "3", True])
def test_seed_cap_must_be_an_int_from_one(a3_seed, cap):
    with pytest.raises(ConfigurationError) as exc:
        enumerate_exchange_graph(a3_seed, max_seeds=cap)
    assert str(exc.value) == f"the seed cap must be an int >= 1, got {cap!r}"


def test_a_start_seed_without_records_is_rejected_before_any_exchange_step(monkeypatch):
    # two plain mutations leave two variables that no record holds
    seed = Seed.initial(build_qcheck(A3, XI3)).mutate(Vertex(1)).mutate(Vertex(2))

    def no_step(self, v):
        raise AssertionError("the walk started")

    monkeypatch.setattr(Seed, "exchange_step", no_step)
    with pytest.raises(ConfigurationError) as exc:
        enumerate_exchange_graph(seed)
    assert str(exc.value) == (
        "the start seed's variable g = (-1, 0, 0) has no record: start from Seed.initial "
        "or from a seed that run_sequence returned")


def test_a_start_seed_from_run_sequence_walks_the_whole_graph(a3_graph):
    seed, _ = run_sequence(Seed.initial(build_qcheck(A3, XI3)), [Vertex(1), Vertex(2)])
    graph = enumerate_exchange_graph(seed)
    assert graph.exhaustive and graph.seed_count == 14
    assert set(graph.seeds) == set(a3_graph.seeds)
    assert {g: r.fpoly for g, r in graph.registry.items()} == {
        g: r.fpoly for g, r in a3_graph.registry.items()}


def test_enumeration_is_deterministic(a3_seed):
    g1 = enumerate_exchange_graph(a3_seed)
    g2 = enumerate_exchange_graph(Seed.initial(build_qcheck(A3, XI3)))
    assert list(g1.registry) == list(g2.registry)
    assert [
        (e.vertex, e.old_g, e.new_g) for e in g1.edges
    ] == [(e.vertex, e.old_g, e.new_g) for e in g2.edges]
    assert g1.report_json() == g2.report_json()


def test_sign_coherence_everywhere(a3_graph):
    for seed in a3_graph.seeds.values():
        for k in range(3):
            col = seed.cvecs[k]
            assert all(e >= 0 for e in col) or all(e <= 0 for e in col)


def test_laurent_positivity_everywhere(a3_graph):
    for rec in a3_graph.registry.values():
        assert all(c > 0 for _, c in separation(rec.gtilde, rec.fpoly, a3_graph.ctx).terms())
        assert rec.fpoly.constant_term() == 1


# ---- exchange relations --------------------------------------------------------------


def test_initial_edge_coefficient_split(a3_seed):
    ctx = a3_seed.ctx
    one = TropElem.one(ctx.gens)
    for v in ctx.mutables:
        k = ctx.mut_index[v]
        edge = a3_seed.exchange_step(v)
        yk = TropElem(ctx.gens, ctx.y0[k])
        plus, minus = (yk * (yk + one).inverse()).exps, (yk + one).inverse().exps
        # the M-term carries [-eps y_k]_+, the M'-term [eps y_k]_+
        m, mp = (minus, plus) if a3_seed.epsilon(k) > 0 else (plus, minus)
        assert (edge.m_term.fexp, edge.mp_term.fexp) == (m, mp)


def test_edge_product_identity(a3_graph):
    ctx = a3_graph.ctx
    expansion = {g: separation(rec.gtilde, rec.fpoly, ctx) for g, rec in a3_graph.registry.items()}
    for edge in a3_graph.edges:
        lhs = expansion[edge.old_g] * expansion[edge.new_g]
        rhs = LaurentPoly.zero()
        for term in (edge.m_term, edge.mp_term):
            part = LaurentPoly.from_monomial(TropElem(ctx.gens, term.fexp).as_monomial())
            for fg, mult in term.factors:
                part = part * expansion[fg] ** mult
            rhs = rhs + part
        assert lhs == rhs


# ---- grid-quiver seeds ----------------------------------------------------------------


def test_gamma_seed_coefficients_match_structure():
    grid = build_gamma_l(A3, XI3, 2)
    ctx = seed_context(grid)
    by_label = {str(v): TropElem(ctx.gens, y) for v, y in zip(ctx.mutables, ctx.y0)}
    # top rows have trivial coefficients, the row above the frozen one reads it off
    assert by_label["(1,0)"].is_one and by_label["(2,-1)"].is_one and by_label["(3,-2)"].is_one
    assert str(by_label["(1,-2)"]) == "z[1,-4]^-1"
    assert str(by_label["(2,-3)"]) == "z[1,-4] z[2,-5]^-1"
    assert str(by_label["(3,-4)"]) == "z[2,-5] z[3,-6]^-1"


def test_run_sequence_and_involution_walk():
    rng = random.Random(123)
    seed = Seed.initial(build_gamma_l(A3, XI3, 2))
    reference = OracleSeed.initial(seed)
    for _ in range(30):
        v = seed.ctx.mutables[rng.randrange(len(seed.ctx.mutables))]
        k = seed.ctx.mut_index[v]
        nxt = seed.mutate(v)
        reference = reference.mutate(v)
        assert _same_as_oracle(make_record(nxt, k), reference.record(k), seed.ctx)
        assert nxt.mutate(v) == seed
        seed = nxt
    back, edges = run_sequence(seed, [])
    assert back == seed and edges == []


def test_separation_on_grid_seed_after_sequence():
    from clustermod.verify import s_l_sequence

    seed = Seed.initial(build_gamma_l(A3, XI3, 2))
    ctx = seed.ctx
    sequence = s_l_sequence(A3, XI3, 2)
    final, _ = run_sequence(seed, sequence)
    reference = OracleSeed.initial(seed)
    for v in sequence:
        reference = reference.mutate(v)
    for j in range(len(ctx.mutables)):
        rec = make_record(final, j)
        want = reference.record(j)
        assert (rec.gvec, rec.fpoly, rec.denominator) == (want.gvec, want.fpoly, want.denominator)
        assert separation(rec.gtilde, rec.fpoly, ctx) == want.expansion


@pytest.mark.parametrize("name,xi", [("A4", {1: 0, 2: -1, 3: -2, 4: -1}),
                                     ("D4", {1: 0, 2: -1, 3: 0, 4: 0})], ids=["A4", "D4"])
def test_coefficients_obey_ca4_prop_3_13_along_s_l(name, xi):
    """y_k = y0^{c_k} prod_i F_i|_P(y0)^{b_ik} (Cluster algebras IV, Prop. 3.13) in the
    tropical semifield, with F_i|_P(y0) = f^{-bottom(g-tilde_i)}, against the frozen-row
    read-off and the reference seed's TropElem coefficients, at every step of s_l."""
    cartan = cartan_type(name)
    seed = Seed.initial(build_gamma_l(cartan, xi, 3))
    ctx = seed.ctx
    n = len(ctx.mutables)
    reference = OracleSeed.initial(seed)
    steps = s_l_sequence(cartan, xi, 3)
    for v in [None] + steps:
        if v is not None:
            seed, reference = seed.mutate(v), reference.mutate(v)
        assert seed.cvecs == tuple(c.exps for c in reference.pcoeffs)
        for k, u in enumerate(ctx.mutables):
            want = TropElem.one(ctx.gens)
            for c, y in zip(seed.cvecs[k], ctx.y0):
                want = want * TropElem(ctx.gens, y) ** c
            for i, w in enumerate(ctx.mutables):
                want = want * TropElem(ctx.gens, seed.gtilde[i][n:]) ** -seed.quiver.entry(w, u)
            assert seed.coeffs[k] == want.exps == reference.coeffs[k].exps, (v, u)
    assert len(steps) == 2 * cartan.rank


# ---- records against the two-Laurent reference seed -------------------------------------


ORACLE_SCOPES = (
    [(name, linear_height(cartan_type(name))) for name in ("A2", "A5")]
    + [("D5", orientations(cartan_type("D5"))[0])]
    + [(name, xi) for name in ("A3", "A4", "D4") for xi in orientations(cartan_type(name))]
)


@pytest.mark.parametrize("name,xi", ORACLE_SCOPES,
                         ids=[f"{n}-{','.join(map(str, xi.values()))}" for n, xi in ORACLE_SCOPES])
def test_records_match_two_laurent_oracle(name, xi):
    cartan = cartan_type(name)
    seed0 = Seed.initial(build_qcheck(cartan, xi))
    graph = enumerate_exchange_graph(seed0)
    want = oracle_records(seed0)
    assert set(graph.registry) == set(want)
    for g, rec in graph.registry.items():
        assert rec.fpoly == want[g].fpoly, g
        assert separation(rec.gtilde, rec.fpoly, graph.ctx) == want[g].expansion, g
        assert rec.denominator == want[g].denominator, g

    # thin modules: F is the sum of y^S over the submodule supports S
    repctx = RepContext(cartan, xi)
    thin = 0
    for obj in repctx.indecomposables():
        if obj.is_module and max(obj.dims) == 1:
            rec = graph.registry[repctx.g_vector(obj)]
            assert rec.fpoly == oracle_thin_fpoly(obj.dims, repctx.arrows, seed0.ctx.ycoefs), obj
            thin += 1
    assert thin >= cartan.rank
