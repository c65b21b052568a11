"""The exchange-graph BFS that runs one exchange step per edge and builds only new
seeds, against the reference BFS that mutates every seed in every direction, and
against the classical counts."""
import operator
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustermod import engine
from clustermod.cartan import cartan_type, linear_height
from clustermod.engine import Seed, enumerate_exchange_graph
from clustermod.quivers import IceQuiver, build_gamma_l, build_qcheck

from oracles import OracleSeed, TropElem, oracle_full_bfs, orientations


def _scopes(names):
    return [(name, xi) for name in names for xi in orientations(cartan_type(name))]


def _ids(scopes):
    return [f"{n}-{','.join(map(str, xi.values()))}" for n, xi in scopes]


def _count_calls(monkeypatch, owner, name, counts):
    """Count the calls of owner.name into counts[name]."""
    real = getattr(owner, name)

    def counted(*args):
        counts[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


def _fpolys(ctx):
    """(g, F) of every record of the context, in the order they were built."""
    return [(g, record.fpoly) for g, record in ctx.records.items()]


def _assert_same_graph(quiver, max_seeds=10**6):
    """The engine's graph, the reference graph and the engine's F divisions."""
    # fresh contexts, so the record tables fill in each BFS's own order
    counts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        _count_calls(mp, engine, "div_exact", counts)
        got = enumerate_exchange_graph(Seed.initial(quiver), max_seeds)
    want = oracle_full_bfs(Seed.initial(quiver), max_seeds)
    assert list(got.seeds.items()) == list(want.seeds.items())
    fields = operator.attrgetter("vertex", "old_g", "new_gtilde", "m_term", "mp_term", "source")
    assert list(map(fields, got.edges)) == list(map(fields, want.edges))
    assert list(got.registry.items()) == list(want.registry.items())
    assert got.exhaustive == want.exhaustive
    assert got.report_json() == want.report_json()
    return got, want, counts["div_exact"]


# ---- one exchange step per edge against the every-direction reference ---------------

EQUIVALENCE_SCOPES = _scopes(("A3", "A4", "D4")) + [("E6", orientations(cartan_type("E6"))[5])]


@pytest.mark.parametrize("name,xi", EQUIVALENCE_SCOPES, ids=_ids(EQUIVALENCE_SCOPES))
def test_bfs_matches_every_direction_reference(name, xi):
    graph, want, _ = _assert_same_graph(build_qcheck(cartan_type(name), xi))
    assert _fpolys(graph.ctx) == _fpolys(want.ctx)
    assert graph.exhaustive


@pytest.mark.parametrize("name,level,cap", [("A3", 2, 300), ("D4", 2, 200)])
def test_capped_grid_bfs_matches_every_direction_reference(name, level, cap):
    cartan = cartan_type(name)
    quiver = build_gamma_l(cartan, linear_height(cartan) if name == "A3"
                           else orientations(cartan)[0], level)
    graph, want, divisions = _assert_same_graph(quiver, cap)
    # no F division for a seed past the cap: one per variable the BFS keeps
    assert divisions == graph.variable_count - len(graph.ctx.mutables)
    # neither BFS builds the F of a seed past the cap: each holds one record per
    # variable it registers
    assert list(graph.ctx.records) == list(graph.registry)
    assert _fpolys(graph.ctx) == _fpolys(want.ctx)
    assert not graph.exhaustive and graph.seed_count == cap


def test_skipped_directions_walk_back_along_known_edges(monkeypatch):
    real_step, real_mutate = Seed.exchange_step, Seed.mutate_with_edge
    steps, completed = [], []

    def spy(seed, v):
        edge = real_step(seed, v)
        key = seed.key()
        nk = tuple(sorted([g for g in key if g != edge.old_g] + [edge.new_g]))
        steps.append((key, v, nk, edge))
        return edge

    def spy_completion(seed, edge):
        completed.append(edge)
        return real_mutate(seed, edge)

    counts = Counter()
    monkeypatch.setattr(Seed, "exchange_step", spy)
    monkeypatch.setattr(Seed, "mutate_with_edge", spy_completion)
    _count_calls(monkeypatch, IceQuiver, "mutate", counts)
    _count_calls(monkeypatch, engine, "div_exact", counts)
    for name, xi in _scopes(("A3", "D4")):
        quiver = build_qcheck(cartan_type(name), xi)
        steps.clear()
        completed.clear()
        counts.clear()
        seed0 = Seed.initial(quiver)
        graph = enumerate_exchange_graph(seed0)
        assert graph.exhaustive
        # after the walk, the record of each new variable takes one exchange step
        assert len(steps) == len(graph.edges) + graph.variable_count - len(graph.ctx.mutables)
        del steps[len(graph.edges):]
        # every walked direction, to a new seed or a known one, takes one
        # exchange step, and each step is an edge of the graph
        assert len(steps) == len(graph.edges)
        assert all(edge is e for (*_, edge), e in zip(steps, graph.edges))
        # a seed is completed, and an F divided, only from a step whose key is new
        known, fresh = {seed0.key()}, []
        for _, _, nk, edge in steps:
            if nk not in known:
                known.add(nk)
                fresh.append(edge)
        assert len(completed) == len(fresh) == graph.seed_count - 1
        assert all(a is b for a, b in zip(completed, fresh))
        assert counts["mutate"] == graph.seed_count - 1
        assert counts["div_exact"] == graph.variable_count - len(graph.ctx.mutables)
        joined = {(min(a, b), max(a, b)) for a, _, b, _ in steps}
        assert len(joined) == len(graph.edges)
        stepped = {(key, v) for key, v, _, _ in steps}
        skipped = 0
        for key, seed in graph.seeds.items():
            for v in graph.ctx.mutables:
                if (key, v) in stepped:
                    continue
                skipped += 1
                nk = real_mutate(seed, real_step(seed, v)).key()
                assert nk in graph.seeds, (name, key, v)
                assert (min(key, nk), max(key, nk)) in joined, (name, key, v)
        assert skipped == len(graph.edges)


@pytest.mark.parametrize("max_seeds", [10**6, 30])
def test_sign_coherence_checked_on_every_stored_column(monkeypatch, max_seeds):
    real = Seed.epsilon
    checked = set()

    def spy(seed, k):
        checked.add((seed.key(), k))
        return real(seed, k)

    monkeypatch.setattr(Seed, "epsilon", spy)
    cartan = cartan_type("D4")
    graph = enumerate_exchange_graph(Seed.initial(build_qcheck(cartan, orientations(cartan)[2])),
                                     max_seeds)
    assert graph.exhaustive == (max_seeds > 50)
    assert checked == {(key, k) for key in graph.seeds for k in range(cartan.rank)}


# ---- coefficient mutation on exponent tuples against TropElem arithmetic -------------


@pytest.mark.parametrize("quiver", [
    build_qcheck(cartan_type("D4"), orientations(cartan_type("D4"))[3]),
    build_gamma_l(cartan_type("A2"), linear_height(cartan_type("A2")), 2),
], ids=["D4-qcheck", "A2-gamma-2"])
def test_coefficient_mutation_matches_tropical_arithmetic(quiver):
    rng = random.Random(11)
    seed = Seed.initial(quiver)
    ref = OracleSeed.initial(seed)
    one = TropElem.one(seed.ctx.gens)
    for _ in range(25):
        v = rng.choice(seed.ctx.mutables)
        k = seed.ctx.mut_index[v]
        yk, eps = TropElem(seed.ctx.gens, seed.coeffs[k]), seed.epsilon(k)
        edge = seed.exchange_step(v)
        seed = seed.mutate_with_edge(edge)
        ref = ref.mutate(v)
        assert seed.coeffs == tuple(c.exps for c in ref.coeffs)
        assert seed.cvecs == tuple(c.exps for c in ref.pcoeffs)
        inv = (yk + one).inverse()
        plus, minus = (yk * inv).exps, inv.exps
        # the M-term carries [-eps y_k]_+, the M'-term [eps y_k]_+
        m, mp = (minus, plus) if eps > 0 else (plus, minus)
        assert (edge.m_term.fexp, edge.mp_term.fexp) == (m, mp)


# ---- classical counts over orientations ------------------------------------------------


def _classical(name):
    """(seeds, positive roots) of the finite type (Fomin-Zelevinsky 2003)."""
    family, n = name[0], int(name[1:])
    if family == "A":
        return comb(2 * n + 2, n + 1) // (n + 2), n * (n + 1) // 2
    if family == "D":
        return (3 * n - 2) * comb(2 * n - 2, n - 1) // n, n * (n - 1)
    return {"E6": (833, 36), "E7": (4160, 63), "E8": (25080, 120)}[name]


def _assert_classical_counts(name, xi):
    n = cartan_type(name).rank
    graph = enumerate_exchange_graph(Seed.initial(build_qcheck(cartan_type(name), xi)))
    seeds, roots = _classical(name)
    assert graph.exhaustive
    assert graph.seed_count == seeds
    assert 2 * len(graph.edges) == n * seeds
    assert graph.variable_count == roots + n


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "D4"])
def test_classical_counts_every_orientation(name):
    for xi in orientations(cartan_type(name)):
        _assert_classical_counts(name, xi)


@pytest.mark.parametrize("name", ["A6", "D5", "D6", "E6"])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_classical_counts_drawn_orientations(name, data):
    xi = data.draw(st.sampled_from(orientations(cartan_type(name))), label="xi")
    _assert_classical_counts(name, xi)
