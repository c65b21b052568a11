"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
and timings.  Every expected value is exact; the time bounds are the stated
ceilings.
"""
import itertools
import time

import pytest

from clustermod.cartan import cartan_type, linear_height
from clustermod.engine import Seed, enumerate_exchange_graph
from clustermod.hlmap import psi
from clustermod.quivers import build_qcheck
from clustermod.reps import CQObject, RepContext
from clustermod.verify import (
    A3_GTILDE_TABLE,
    A3_PSI_TABLE,
    get_bundle,
    parts,
    verify_tropical_socle,
    verify_yhat_identity,
    verify_grid_sequence,
    verify_properties,
    verify_quiver_goldens,
    verify_psi_kr_images,
    verify_exchange_exponents,
    verify_hw_exchange,
    verify_tsystem,
)

from oracles import oracle_seed_count

A2 = cartan_type("A2")
A3 = cartan_type("A3")
A4 = cartan_type("A4")
D4 = cartan_type("D4")

XI = {
    "A2": linear_height(A2),
    "A3": linear_height(A3),
    "A3alt": {1: 0, 2: -1, 3: 0},
    "A4": linear_height(A4),
    "A4fig": {1: 0, 2: -1, 3: -2, 4: -1},
    "D4": {1: 0, 2: -1, 3: 0, 4: 0},
}

SCOPES = [(A2, XI["A2"]), (A3, XI["A3"]), (A4, XI["A4"]), (D4, XI["D4"])]


class Criterion:
    def __init__(self, number, description, bound):
        self.number = number
        self.description = description
        self.bound = bound
        self.t0 = time.monotonic()

    def done(self):
        dt = time.monotonic() - self.t0
        line = f"PASS {self.number}. {self.description} ({dt:.2f}s, bound {self.bound}s)"
        print(line)
        assert dt < self.bound, f"criterion {self.number} exceeded {self.bound}s: {dt:.2f}s"


def test_c01_extended_g_vector_table():
    c = Criterion(1, "extended g-vector table reproduction", 1.0)
    rc = RepContext(A3, XI["A3"])
    graph = get_bundle(A3, XI["A3"]).graph
    for obj in rc.indecomposables():
        g, s = rc.extended_g(obj)
        assert g + s == A3_GTILDE_TABLE[str(obj)]
        assert graph.registry[g].gtilde == A3_GTILDE_TABLE[str(obj)]
    c.done()


def test_c02_psi_monomial_table():
    c = Criterion(2, "level-2 psi monomial table + worked example", 1.0)
    rc = RepContext(A3, XI["A3"])
    for obj in rc.indecomposables():
        assert str(psi(obj, rc, 2)) == A3_PSI_TABLE[str(obj)]
    assert str(psi(CQObject.module((0, 1, 1)), rc, 2)) == "Y[1,-2] Y[1,0] Y[3,-6] Y[3,-4]"
    c.done()


def test_c03_quiver_goldens():
    c = Criterion(3, "grid and coefficient quiver golden tests", 1.0)
    report = verify_quiver_goldens()
    assert report.passed, report.failures
    c.done()


def test_c04_worked_exchange_relation():
    c = Criterion(4, "worked exchange relation with socle exponents", 1.0)
    rc, graph, obj_by_g = get_bundle(A3, XI["A3"])
    L, N = CQObject.module((0, 0, 1)), CQObject.module((1, 1, 0))
    gl, gn = rc.g_vector(L), rc.g_vector(N)
    edge = next(e for e in graph.edges if {e.old_g, e.new_g} == {gl, gn})
    m_parts, mp_parts = parts(obj_by_g, edge.m_term), parts(obj_by_g, edge.mp_term)
    assert {str(o) for o in m_parts} == {"mod:1,1,1"}
    assert {str(o) for o in mp_parts} == {"mod:1,0,0"}
    assert edge.m_term.fexp == (0, 1, 0)  # the f2 coefficient
    assert edge.mp_term.fexp == (0, 0, 1)  # the f3 coefficient
    assert rc.kappa(L, m_parts, N) == (0, 1, 0)
    assert rc.kappa(L, mp_parts, N) == (-1, 1, 1)
    im = rc.im_h(L, N)
    assert im.dims == (0, 1, 0) and rc.g_of_dims(im.dims) == (1, -1, 0)
    c.done()


def test_c05_exchange_relations_exhaustive():
    c = Criterion(5, "kappa-form exchange relations on every edge (A2, A3 both orientations)", 10.0)
    for cartan, xi, edges in ((A2, XI["A2"], 5), (A3, XI["A3"], 21), (A3, XI["A3alt"], 21)):
        report = verify_exchange_exponents(cartan, xi)
        assert report.passed, report.failures[:3]
        assert report.scope["edges"] == edges
    c.done()


def test_c06_tropical_and_monomial_lemmas():
    c = Criterion(6, "socle-tropical and hat-monomial identities, all indecomposables", 30.0)
    for cartan, xi in SCOPES:
        r1 = verify_tropical_socle(cartan, xi)
        r2 = verify_yhat_identity(cartan, xi)
        assert r1.passed, r1.failures[:3]
        assert r2.passed, r2.failures[:3]
    c.done()


def test_c07_kr_identifications_and_hw_exchange():
    c = Criterion(7, "KR identifications, psi injectivity, hw exchange identity", 60.0)
    for (cartan, xi), l in itertools.product(SCOPES, (1, 2, 3)):
        r1 = verify_psi_kr_images(cartan, xi, l)
        r2 = verify_hw_exchange(cartan, xi, l)
        assert r1.passed, r1.failures[:3]
        assert r2.passed, r2.failures[:3]
    c.done()


def test_c08_mutation_sequence_pipeline():
    c = Criterion(8, "grid mutation-sequence pipeline (subquiver, T-shapes, hw)", 60.0)
    for cartan, xi, l in ((A3, XI["A3"], 2), (A3, XI["A3"], 3), (A4, XI["A4fig"], 2)):
        report = verify_grid_sequence(cartan, xi, l)
        assert report.passed, report.failures[:3]
    c.done()


def test_c09_t_system_identities():
    c = Criterion(9, "T-system monomial identities", 5.0)
    for (cartan, xi), l in itertools.product(SCOPES, (1, 2, 3)):
        report = verify_tsystem(cartan, xi, l)
        assert report.passed, report.failures[:3]
    c.done()


def test_c10_property_suites():
    c = Criterion(10, "property suites: involution walks, BFS invariants, seed counts", 120.0)
    report = verify_properties(A3, XI["A3"], walks=10_000, rng_seed=20240901)
    assert report.passed, report.failures[:3]
    for cartan, xi, want in ((A2, XI["A2"], 5), (A3, XI["A3"], 14), (A4, XI["A4"], 42)):
        report = verify_properties(cartan, xi, walks=200, rng_seed=20240901)
        assert report.passed, report.failures[:3]
        s0 = Seed.initial(build_qcheck(cartan, xi))
        assert oracle_seed_count(s0) == want
        assert enumerate_exchange_graph(s0).seed_count == want
    c.done()


def test_c11_dominance_everywhere():
    c = Criterion(11, "psi dominance over all tested scopes", 30.0)
    checked = 0
    for (cartan, xi), l in itertools.product(SCOPES + [(A3, XI["A3alt"])], (1, 2, 3)):
        rc = RepContext(cartan, xi)
        for obj in rc.indecomposables():
            assert psi(obj, rc, l).is_dominant  # psi itself raises if not
            checked += 1
        # rigid direct sums stay dominant too
        for a, b in itertools.combinations(rc.indecomposables(), 2):
            if rc.ext1_cluster(a, b) == 0:
                assert psi([a, b], rc, l).is_dominant
                checked += 1
    assert checked > 500
    c.done()
