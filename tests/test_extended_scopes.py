"""Wider-scope regressions beyond the acceptance floor: A5 counts, the second
star orientation of D4, the E6 pipeline and its full exchange-graph bundle, the
property suite's classical seed and variable counts on A1, A5, D5 and E6, and
`trop-socle` and `psi-kr` on drawn orientations of A6, D5, D6 and E6.

Set CLUSTERMOD_SLOW_TESTS=1 to also enumerate the E7 exchange graph and run the
`exchange` and `hw-exchange` checks on it, through the representation layer and
psi at rank 7 (a few seconds each), and to enumerate the E8 one on two orientations: one whose
largest F-polynomials stay small (a few seconds), and the bipartite one, whose
denominators are checked against the positive roots (under a minute)."""
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustermod.cartan import cartan_type, linear_height
from clustermod.engine import Seed, enumerate_exchange_graph
from clustermod.hlmap import kr_monomial, psi
from clustermod.quivers import build_qcheck
from clustermod.reps import CQObject, RepContext, positive_roots
from clustermod.verify import (
    run_check,
    verify_tropical_socle,
    verify_yhat_identity,
    verify_grid_sequence,
    verify_exchange_exponents,
    verify_hw_exchange,
    verify_properties,
    verify_tsystem,
)

from oracles import orientations

XI_E6 = {1: 0, 2: -1, 3: -1, 4: 0, 5: -1, 6: 0}
XI_D4_UP = {1: 0, 2: 1, 3: 0, 4: 0}  # center above the leaves


def test_a5_exchange_graph_catalan_count():
    ct = cartan_type("A5")
    graph = enumerate_exchange_graph(Seed.initial(build_qcheck(ct, linear_height(ct))))
    assert graph.seed_count == 132  # Catalan number for rank 5
    assert graph.variable_count == 20  # 15 roots + 5 shifts


def test_d4_opposite_orientation():
    ct = cartan_type("D4")
    r = verify_exchange_exponents(ct, XI_D4_UP)
    assert r.passed, r.failures[:3]
    assert r.scope["engine_pinned"] == 0
    assert verify_tropical_socle(ct, XI_D4_UP).passed
    assert verify_yhat_identity(ct, XI_D4_UP).passed
    assert verify_hw_exchange(ct, XI_D4_UP, 2).passed


@pytest.fixture(scope="module")
def e6():
    return RepContext(cartan_type("E6"), XI_E6)


def test_e6_indecomposables_and_psi(e6):
    objs = e6.indecomposables()
    assert len(objs) == 42
    seen = set()
    for obj in objs:
        mono = psi(obj, e6, 2)
        assert mono.is_dominant and mono not in seen
        seen.add(mono)


def test_e6_kr_identifications(e6):
    for i in e6.cartan.vertices:
        assert psi(CQObject.shifted(i), e6, 2) == kr_monomial(i, 2, XI_E6[i] - 2)
        inj = CQObject.module(e6.inj_dims(i))
        assert psi(inj, e6, 2) == kr_monomial(i, 2, XI_E6[i] - 4)


def test_e6_grid_pipeline():
    ct = cartan_type("E6")
    assert verify_tsystem(ct, XI_E6, 2).passed
    assert verify_grid_sequence(ct, XI_E6, 2).passed


def test_e6_full_exchange_graph_bundle():
    from clustermod.verify import get_bundle

    ct = cartan_type("E6")
    graph = get_bundle(ct, XI_E6).graph
    assert graph.seed_count == 833  # the classical count of E6 clusters
    assert graph.variable_count == 42
    assert len(graph.edges) == 2499
    r = verify_exchange_exponents(ct, XI_E6)
    assert r.passed and r.scope["engine_pinned"] == 0
    assert verify_tropical_socle(ct, XI_E6).passed


@pytest.mark.parametrize("name,xi,seeds,variables", [
    ("A1", {1: 0}, 2, 2),
    ("A5", {1: 0, 2: -1, 3: 0, 4: 1, 5: 0}, 132, 20),
    ("D5", {1: 0, 2: -1, 3: 0, 4: -1, 5: -1}, 182, 25),
    ("E6", XI_E6, 833, 42),
])
def test_properties_checks_the_classical_counts_of_every_type(name, xi, seeds, variables):
    ct = cartan_type(name)
    r = verify_properties(ct, xi, walks=0)
    assert r.passed, r.failures[:3]
    # the two count items, five per variable, two per c-vector column, one per edge
    n = ct.rank
    assert r.items == 2 + 5 * variables + 2 * n * seeds + n * seeds // 2


DRAWN_SCOPES = st.sampled_from(["A6", "D5", "D6", "E6"]).map(cartan_type).flatmap(
    lambda ct: st.tuples(st.just(ct), st.sampled_from(orientations(ct))))


@settings(max_examples=8, deadline=None)
@given(DRAWN_SCOPES, st.integers(1, 4))
def test_trop_socle_and_psi_kr_on_drawn_orientations(scope, l):
    # the bundle behind trop-socle raises unless the engine's g-vectors are exactly
    # those of the indecomposables; psi-kr needs a dominant, injective psi
    cartan, xi = scope
    for report in run_check("trop-socle", cartan, xi) + run_check("psi-kr", cartan, xi, l=l):
        assert report.passed and report.items > 0, report.failures[:3]


@pytest.mark.skipif(not os.environ.get("CLUSTERMOD_SLOW_TESTS"),
                    reason="set CLUSTERMOD_SLOW_TESTS=1 to enumerate E7")
def test_e7_exchange_graph_counts():
    ct = cartan_type("E7")
    xi = {1: 0, 3: -1, 4: 0, 2: -1, 5: -1, 6: 0, 7: -1}
    graph = enumerate_exchange_graph(Seed.initial(build_qcheck(ct, xi)))
    assert graph.exhaustive
    assert graph.seed_count == 4160  # the classical count of E7 clusters
    assert len(graph.edges) == 14560  # 7 * 4160 / 2
    assert graph.variable_count == 70  # 63 positive roots + 7 shifts


@pytest.mark.skipif(not os.environ.get("CLUSTERMOD_SLOW_TESTS"),
                    reason="set CLUSTERMOD_SLOW_TESTS=1 to check the E7 exchange relations")
def test_e7_exchange_exponents():
    # every edge's M-term against kappa, and g(im h) through im_h and the Hom solve;
    # then the highest l-weight identity, with psi computed once per relation
    ct = cartan_type("E7")
    xi = {1: 0, 2: -1, 3: -1, 4: 0, 5: -1, 6: 0, 7: -1}
    r = verify_exchange_exponents(ct, xi)
    assert r.passed, r.failures[:3]
    assert r.items == 29127
    r = verify_hw_exchange(ct, xi, 2)
    assert r.passed, r.failures[:3]
    assert r.items == 14560


@pytest.mark.skipif(not os.environ.get("CLUSTERMOD_SLOW_TESTS"),
                    reason="set CLUSTERMOD_SLOW_TESTS=1 to enumerate E8")
def test_e8_exchange_graph_counts():
    ct = cartan_type("E8")
    # heights fall along 1-3-4-5-6-7-8; the bipartite orientation is far slower
    xi = {1: 0, 2: -1, 3: -1, 4: -2, 5: -3, 6: -4, 7: -5, 8: -6}
    graph = enumerate_exchange_graph(Seed.initial(build_qcheck(ct, xi)))
    assert graph.exhaustive
    assert graph.seed_count == 25080  # the classical count of E8 clusters
    assert len(graph.edges) == 100320  # 8 * 25080 / 2
    assert graph.variable_count == 128  # 120 positive roots + 8 shifts


@pytest.mark.skipif(not os.environ.get("CLUSTERMOD_SLOW_TESTS"),
                    reason="set CLUSTERMOD_SLOW_TESTS=1 to enumerate E8")
def test_e8_bipartite_exchange_graph_and_denominators():
    ct = cartan_type("E8")
    xi = {1: 0, 2: -1, 3: -1, 4: 0, 5: -1, 6: 0, 7: -1, 8: 0}
    graph = enumerate_exchange_graph(Seed.initial(build_qcheck(ct, xi)))
    assert graph.exhaustive
    assert graph.seed_count == 25080
    assert len(graph.edges) == 100320
    assert graph.variable_count == 128
    # the initial x_i has g = e_i and denominator -e_i; every other denominator
    # is a positive root, each one once
    units = [tuple(int(j == i) for j in range(ct.rank)) for i in range(ct.rank)]
    assert [graph.registry[e].denominator for e in units] == [
        tuple(-c for c in e) for e in units]
    denominators = sorted(rec.denominator for g, rec in graph.registry.items()
                          if g not in units)
    assert len(denominators) == 120
    assert denominators == sorted(positive_roots(ct))
