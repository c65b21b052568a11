import pytest

from clustermod.cartan import cartan_type, linear_height, check_height_function, parse_height
from clustermod.errors import ConfigurationError, DomainError, FrozenVertexError
from clustermod.quivers import (
    IceQuiver,
    Vertex,
    build_gamma_full,
    build_gamma_l,
    build_qcheck,
    build_qxi,
    build_qxil,
)

from oracles import orientations

A2 = cartan_type("A2")
A3 = cartan_type("A3")
A4 = cartan_type("A4")
D4 = cartan_type("D4")

XI_A3_LIN = {1: 0, 2: -1, 3: -2}
XI_A3_ALT = {1: 0, 2: -1, 3: 0}


def arrow_set(q):
    return {(str(s), str(t)) for s, t, _ in q.arrows()}


# ---- height functions --------------------------------------------------------


def test_height_function_validation():
    check_height_function(A3, XI_A3_ALT)
    with pytest.raises(DomainError):
        check_height_function(A3, {1: 0, 2: 0, 3: 1})
    with pytest.raises(DomainError):
        check_height_function(A3, {1: 0, 2: -1})
    assert linear_height(A3) == XI_A3_LIN
    assert parse_height(A3, "1:0,2:-1,3:0") == XI_A3_ALT


def test_cartan_matrix():
    # off the diagonal, the Cartan matrix is -1 exactly on the Dynkin edges
    assert A3.edges == ((1, 2), (2, 3))
    assert [A3.neighbors(i) for i in A3.vertices] == [(2,), (1, 3), (2,)]
    assert D4.edges == ((1, 2), (2, 3), (2, 4))


# ---- mutation rule -------------------------------------------------------------


def test_rank2_mutation_is_arrow_reversal():
    q = IceQuiver.from_arrows([Vertex(1), Vertex(2)], (), [(Vertex(1), Vertex(2))])
    m = q.mutate(Vertex(1))
    assert arrow_set(m) == {("2", "1")}
    assert m.mutate(Vertex(1)).equals(q)


def test_mutation_involution_everywhere():
    q = build_qcheck(A3, XI_A3_LIN)
    for v in q.mutable_vertices:
        assert q.mutate(v).mutate(v).equals(q)


def test_mutation_at_frozen_vertex_rejected():
    q = build_qcheck(A2, {1: 0, 2: -1})
    with pytest.raises(FrozenVertexError):
        q.mutate(Vertex(1, primed=True))


def test_qcheck_mutation_at_middle_creates_cycle():
    q = build_qcheck(A3, XI_A3_LIN)
    m = q.mutate(Vertex(2))
    mut = {v for v in m.mutable_vertices}
    got = {(s, t) for s, t in
           ((str(a), str(b)) for a, b, _ in m.arrows())
           if Vertex.parse(s) in mut and Vertex.parse(t) in mut}
    assert got == {("2", "1"), ("3", "2"), ("1", "3")}


def test_skew_symmetry_preserved_by_random_mutations():
    import random

    rng = random.Random(7)
    q = build_gamma_l(A3, XI_A3_ALT, 2)
    for _ in range(50):
        v = q.mutable_vertices[rng.randrange(len(q.mutable_vertices))]
        q = q.mutate(v)
        n = len(q.vertices)
        assert all(q.b[p][r] == -q.b[r][p] for p in range(n) for r in range(n))


def test_mutation_matches_full_matrix_formula():
    import random

    def reference(q, k):
        """b'_pq = -b_pq on row and column k, else b_pq + (|b_pk| b_kq + b_pk |b_kq|) / 2."""
        kk, b, n = q.index(k), q.b, len(q.vertices)
        new = [[-b[p][r] if kk in (p, r)
                else b[p][r] + (abs(b[p][kk]) * b[kk][r] + b[p][kk] * abs(b[kk][r])) // 2
                for r in range(n)] for p in range(n)]
        for p in range(n):
            for r in range(n):
                if q.vertices[p] in q.frozen and q.vertices[r] in q.frozen:
                    new[p][r] = 0
        return tuple(tuple(row) for row in new)

    rng = random.Random(11)
    vertices = [Vertex(i) for i in range(1, 6)] + [Vertex(i, primed=True) for i in (1, 2, 3)]
    frozen = vertices[5:]
    for _ in range(30):
        arrows = [(s, t, rng.randint(1, 3)) for s in vertices for t in vertices
                  if s != t and not (s in frozen and t in frozen) and rng.random() < 0.15]
        q = IceQuiver.from_arrows(vertices, frozen, arrows)
        for _ in range(10):
            v = vertices[rng.randrange(5)]
            want = reference(q, v)
            q = q.mutate(v)
            assert q.b == want


# ---- grid quivers ---------------------------------------------------------------

GAMMA2_A3_ARROWS = {
    ("(1,0)", "(2,-1)"), ("(3,0)", "(2,-1)"),
    ("(2,-1)", "(1,-2)"), ("(2,-1)", "(3,-2)"),
    ("(1,-2)", "(1,0)"), ("(3,-2)", "(3,0)"),
    ("(1,-2)", "(2,-3)"), ("(3,-2)", "(2,-3)"),
    ("(2,-3)", "(2,-1)"),
    ("(2,-3)", "(1,-4)"), ("(2,-3)", "(3,-4)"),
    ("(1,-4)", "(1,-2)"), ("(3,-4)", "(3,-2)"),
    ("(2,-5)", "(2,-3)"),
}


def test_gamma_l_golden():
    q = build_gamma_l(A3, XI_A3_ALT, 2)
    assert len(q.vertices) == 9
    assert {str(v) for v in q.frozen} == {"(1,-4)", "(2,-5)", "(3,-4)"}
    assert arrow_set(q) == GAMMA2_A3_ARROWS


def test_gamma_full_window_and_rules():
    q = build_gamma_full(A3, XI_A3_ALT, -4)
    assert Vertex(1, 2) not in set(q.vertices)
    arrows = arrow_set(q)
    assert ("(1,-2)", "(1,0)") in arrows  # vertical (i,r) -> (i,r+2)
    assert ("(1,0)", "(2,-1)") in arrows  # neighbor rule (i,r) -> (j,r-1)
    # full grid keeps frozen-free bottom diagonals that the level window drops
    assert ("(1,-4)", "(2,-5)") not in arrows  # (2,-5) below window floor


def test_gamma_full_window_without_a_vertex_raises():
    assert [str(v) for v in build_gamma_full(A3, XI_A3_ALT, 0).vertices] == ["(1,0)", "(3,0)"]
    with pytest.raises(DomainError, match="holds no vertex"):
        build_gamma_full(A3, XI_A3_ALT, 1)


def test_gamma_l_level1_and_counts():
    q = build_gamma_l(A2, {1: 0, 2: -1}, 1)
    assert {str(v) for v in q.vertices} == {"(1,0)", "(2,-1)", "(1,-2)", "(2,-3)"}
    assert {str(v) for v in q.frozen} == {"(1,-2)", "(2,-3)"}
    for n, l in ((3, 2), (3, 3), (4, 2)):
        ct = cartan_type(f"A{n}")
        xi = linear_height(ct)
        assert len(build_gamma_l(ct, xi, l).vertices) == n * (l + 1)
    with pytest.raises(DomainError):
        build_gamma_l(A2, {1: 0, 2: -1}, 0)


def test_gamma_l_restriction_consistency():
    # level-l window restricted to the level-(l-1) labels = level-(l-1) quiver
    for xi in (XI_A3_LIN, XI_A3_ALT):
        big = build_gamma_l(A3, xi, 3)
        labels = [Vertex(i, xi[i] - 2 * k) for i in A3.vertices for k in range(3)]
        small = build_gamma_l(A3, xi, 2)
        sub = big.subquiver_on(labels).refreeze(small.frozen)
        assert sub.equals(small)


# ---- Dynkin and companion quivers -------------------------------------------------


def test_qxi_orientations():
    assert arrow_set(build_qxi(A3, XI_A3_LIN)) == {("1", "2"), ("2", "3")}
    assert arrow_set(build_qxi(A3, XI_A3_ALT)) == {("1", "2"), ("3", "2")}
    assert arrow_set(build_qxi(cartan_type("A1"), {1: 0})) == set()


def test_qcheck_structure():
    q = build_qcheck(A3, XI_A3_LIN)
    assert arrow_set(q) == {
        ("1", "2"), ("2", "3"),
        ("1'", "1"), ("2'", "2"), ("3'", "3"),
        ("2", "1'"), ("3", "2'"),
    }
    # principal part equals the Dynkin quiver
    sub = q.subquiver_on([Vertex(i) for i in A3.vertices])
    assert sub.equals(build_qxi(A3, XI_A3_LIN))


def test_qcheck_principal_part_all_heights():
    for name in ("A2", "A3", "A4", "A5", "D4"):
        ct = cartan_type(name)
        for xi in orientations(ct):
            q = build_qcheck(ct, xi)
            sub = q.subquiver_on([Vertex(i) for i in ct.vertices])
            assert sub.equals(build_qxi(ct, xi))


QXIL2_A4_ARROWS = {
    ("(2,-3)", "(1,0)"), ("(1,0)", "(1,-2)"), ("(1,-2)", "(2,-3)"),
    ("(3,-4)", "(2,-1)"), ("(2,-1)", "(2,-3)"),
    ("(2,-3)", "(1,-4)"), ("(2,-3)", "(3,-4)"),
    ("(1,-4)", "(1,-2)"), ("(3,-2)", "(3,-4)"),
    ("(2,-5)", "(2,-3)"), ("(3,-6)", "(3,-4)"), ("(3,-4)", "(2,-5)"),
    ("(4,-1)", "(4,-3)"), ("(4,-5)", "(4,-3)"), ("(4,-3)", "(3,-4)"),
    ("(3,-4)", "(4,-1)"), ("(3,-4)", "(4,-5)"),
}


def test_qxil_golden():
    q = build_qxil(A4, {1: 0, 2: -1, 3: -2, 4: -1}, 2)
    assert len(q.vertices) == 12
    assert len(q.arrows()) == 17
    assert arrow_set(q) == QXIL2_A4_ARROWS


def test_qxil_level1_drops_top_row():
    q = build_qxil(A3, XI_A3_LIN, 1)
    assert {str(v) for v in q.vertices} == {
        "(1,0)", "(2,-1)", "(3,-2)", "(1,-2)", "(2,-3)", "(3,-4)"
    }
    # with the top row gone only the bottom frozen arrows remain per column
    assert ("(1,-2)", "(1,0)") in arrow_set(q)
    assert q.equals(build_gamma_l(A3, XI_A3_LIN, 1))


def test_qxil_a3_linear_diagonals():
    q = build_qxil(A3, XI_A3_LIN, 2)
    arrows = arrow_set(q)
    assert {("(1,-2)", "(2,-3)"), ("(2,-3)", "(3,-4)")} <= arrows  # mid row path
    assert {("(2,-3)", "(1,0)"), ("(2,-3)", "(1,-4)")} <= arrows
    assert {("(3,-4)", "(2,-1)"), ("(3,-4)", "(2,-5)")} <= arrows


def test_no_frozen_frozen_entries():
    for q in (build_gamma_l(A3, XI_A3_ALT, 2), build_qxil(A4, {1: 0, 2: -1, 3: -2, 4: -1}, 2),
              build_qcheck(D4, {1: 0, 2: -1, 3: 0, 4: 0})):
        for u in q.frozen_vertices:
            for v in q.frozen_vertices:
                assert q.entry(u, v) == 0


# ---- serialization ---------------------------------------------------------------


def test_json_round_trip():
    q = build_gamma_l(A3, XI_A3_ALT, 2)
    assert IceQuiver.from_json(q.to_json()).equals(q)
    q2 = build_qcheck(A3, XI_A3_LIN)
    assert IceQuiver.from_json(q2.to_json()).equals(q2)


def test_subquiver_identity_and_errors():
    q = build_qcheck(A3, XI_A3_LIN)
    assert q.subquiver_on(q.vertices).equals(q)
    with pytest.raises(ConfigurationError):
        q.subquiver_on([Vertex(9)])


def test_dot_output_shapes():
    q = build_gamma_l(A2, {1: 0, 2: -1}, 1)
    dot = q.to_dot()
    assert '"(1,-2)" [shape=box];' in dot
    assert '"(1,0)" [shape=ellipse];' in dot
    assert '"(1,-2)" -> "(1,0)";' in dot


def test_from_arrows_rejects_frozen_frozen():
    with pytest.raises(ConfigurationError):
        IceQuiver.from_arrows([Vertex(1), Vertex(2)], [Vertex(1), Vertex(2)],
                              [(Vertex(1), Vertex(2))])


def test_vertex_parse_and_format():
    for text in ["(1,0)", "(2,-5)", "3", "2'"]:
        assert str(Vertex.parse(text)) == text
    with pytest.raises(ConfigurationError):
        Vertex.parse("nope")
