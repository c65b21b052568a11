import ast
import dataclasses
import inspect
import json
import string

import pytest

from clustermod import engine, verify
from clustermod.cartan import cartan_type, linear_height
from clustermod.cli import main
from clustermod.engine import Seed, TermData
from clustermod.errors import ConfigurationError, DomainError, InternalInvariantError
from clustermod.hlmap import psi
from clustermod.verify import (
    CHECK_NAMES,
    check_reads,
    get_bundle,
    parts,
    run_check,
    s_l_sequence,
    verify_worked_examples_a3,
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
from clustermod.quivers import Vertex
from clustermod.reps import CQObject, RepContext
from oracles import oracle_m_term, oracle_properties_walk, orientations

A2 = cartan_type("A2")
A3 = cartan_type("A3")
D4 = cartan_type("D4")
XI2 = linear_height(A2)
XI3 = linear_height(A3)
XI3_ALT = {1: 0, 2: -1, 3: 0}
XI_D4 = {1: 0, 2: -1, 3: 0, 4: 0}


def assert_passes(report):
    assert report.passed, report.failures[:3]
    assert report.items > 0


def test_examples_and_goldens():
    assert_passes(verify_worked_examples_a3())
    assert_passes(verify_quiver_goldens())


@pytest.mark.parametrize("cartan,xi", [(A2, XI2), (A3, XI3), (A3, XI3_ALT), (D4, XI_D4)])
def test_lemmas(cartan, xi):
    assert_passes(verify_tropical_socle(cartan, xi))
    assert_passes(verify_yhat_identity(cartan, xi))


@pytest.mark.parametrize("cartan,xi,edges", [(A2, XI2, 5), (A3, XI3, 21), (A3, XI3_ALT, 21)])
def test_exchange_exponent_check(cartan, xi, edges):
    report = verify_exchange_exponents(cartan, xi)
    assert_passes(report)
    assert report.scope["edges"] == edges


def test_a_wrong_m_prime_exponent_fails_the_exchange_check(monkeypatch, capsys):
    # raise each M'-term exponent of one D4 edge by one; the pair shp:4 / mod:0,0,0,1
    # is also exchanged on edges that stay right, so only its own item can fail
    graph = get_bundle(D4, XI_D4).graph
    edges = list(graph.edges)
    mp = edges[6].mp_term
    edges[6] = dataclasses.replace(edges[6], mp_term=TermData(tuple(e + 1 for e in mp.fexp),
                                                              mp.factors))
    monkeypatch.setattr(graph, "edges", edges)
    report = verify_exchange_exponents(D4, XI_D4)
    assert [f["detail"] for f in report.failures] == [
        "second-term exponents at shp:4 / mod:0,0,0,1"]
    assert report.failures[0]["got"] == "(1, 1, 1, 1)"
    assert report.failures[0]["want"] == "(0, 0, 0, 0)"
    assert report.scope["engine_pinned"] == 1
    assert main(["verify", "exchange", "--cartan", "D4", "--xi", "1:0,2:-1,3:0,4:0"]) == 1
    assert "engine_pinned=1]" in capsys.readouterr().out


def test_passing_edge_checks_format_no_item_labels(monkeypatch):
    # a passing item drops its label, so exchange and hw-exchange build none
    get_bundle(D4, XI_D4)
    shown = []
    text = CQObject.__str__

    def counting_str(obj):
        shown.append(obj)
        return text(obj)

    monkeypatch.setattr(CQObject, "__str__", counting_str)
    assert_passes(verify_exchange_exponents(D4, XI_D4))
    assert_passes(verify_hw_exchange(D4, XI_D4, 2))
    assert shown == []


def test_report_check_formats_its_label_only_when_the_item_fails():
    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("a passing item formatted its label")

    report = verify.Report("t", {})
    report.check(True, "x {}", Unformattable())
    assert (report.items, report.failures) == (1, [])
    report.check(False, "x {} {}", 1, (2, 3), got=4)
    assert report.items == 2
    assert report.failures == [{"detail": "x 1 (2, 3)", "got": "4"}]


def test_every_check_label_is_a_plain_template():
    # a label is a literal whose only fields are bare '{}', one per positional argument,
    # so no check builds an item's text before the item fails
    tree = ast.parse(inspect.getsource(verify))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "check"]
    assert len(calls) > 30
    for call in calls:
        where = f"verify.py line {call.lineno}"
        assert len(call.args) >= 2, where
        label = call.args[1]
        assert isinstance(label, ast.Constant) and isinstance(label.value, str), where
        fields = list(string.Formatter().parse(label.value))
        assert all(spec in (None, "") and conv is None and name in (None, "")
                   for _, name, spec, conv in fields), where
        assert "{" not in "".join(text for text, *_ in fields), where  # no '{{' escape
        assert "}" not in "".join(text for text, *_ in fields), where
        args = call.args[2:]
        assert not any(isinstance(a, ast.Starred) for a in args), where
        assert len(args) == sum(name is not None for _, name, _, _ in fields), where


def test_a_wrong_kr_monomial_fails_psi_kr_with_its_vertex(monkeypatch):
    real = verify.kr_monomial
    monkeypatch.setattr(verify, "kr_monomial",
                        lambda i, k, r: real(i, k, r + 2) if i == 3 else real(i, k, r))
    report = verify_psi_kr_images(D4, XI_D4, 2)
    assert report.failures == [
        {"detail": "psi of shifted projective 3", "got": "Y[3,-2] Y[3,0]",
         "want": "Y[3,0] Y[3,2]"},
        {"detail": "psi of injective 3", "got": "Y[3,-4] Y[3,-2]", "want": "Y[3,-2] Y[3,0]"}]


def test_a_wrong_tropical_value_fails_trop_socle_with_its_object(monkeypatch):
    real, calls = verify.eval_tropical, []

    def first_wrong(fpoly, assign):
        calls.append(fpoly)
        value = real(fpoly, assign)
        return tuple(e + 1 for e in value) if len(calls) == 1 else value

    monkeypatch.setattr(verify, "eval_tropical", first_wrong)
    report = verify_tropical_socle(D4, XI_D4)
    assert report.failures == [
        {"detail": "tropical F value of mod:1,0,0,0", "got": "f[2] f[3] f[4]", "want": "f[1]^-1"}]


def test_a_wrong_g_vector_fails_yhat_with_its_dimension_vector(monkeypatch):
    real, bad = RepContext.g_of_dims, (1, 2, 1, 1)
    monkeypatch.setattr(RepContext, "g_of_dims",
                        lambda self, dims: tuple(e + (dims == bad) for e in real(self, dims)))
    report = verify_yhat_identity(D4, XI_D4)
    assert report.failures == [
        {"detail": "yhat monomial identity for dim (1, 2, 1, 1)",
         "got": "x[1]^-2 x[2]^3 x[3]^-2 x[4]^-2 f[1] f[2]^-2 f[3] f[4]",
         "want": "x[1]^-2 x[2]^3 x[3]^-2 x[4]^-2 f[1]^2 f[2]^-1 f[3]^2 f[4]^2"}]


@pytest.mark.parametrize("name,xi,roots", [
    ("D4", XI_D4, 12), ("E6", {1: 0, 2: -1, 3: -1, 4: 0, 5: -1, 6: 0}, 36)])
def test_yhat_reads_no_exchange_graph(monkeypatch, name, xi, roots):
    # the yhat monomials are the initial seed's: no walk, no F and no bundle, not even
    # a cached one
    def no_engine(*args):
        raise AssertionError("yhat read the exchange graph")

    for module, attr in ((verify, "_bundle"), (verify, "enumerate_exchange_graph"),
                         (engine, "div_exact")):
        monkeypatch.setattr(module, attr, no_engine)
    report = verify_yhat_identity(cartan_type(name), xi)
    assert_passes(report)
    assert report.items == roots


LEVEL_CHECKS = ("psi-kr", "hw-exchange", "tsystem", "sequence")


@pytest.mark.parametrize("name", LEVEL_CHECKS)
def test_an_absent_level_is_the_checks_own_default(name):
    reports = [run_check(name, A3, XI3, l=l)[0] for l in (None, 2)]
    for report in reports:
        report.seconds = 0.0
    assert reports[0].to_json() == reports[1].to_json()
    assert reports[0].scope["l"] == verify.DEFAULT_LEVEL == 2


@pytest.mark.parametrize("name", LEVEL_CHECKS)
@pytest.mark.parametrize("l", [2.5, "2", True])
def test_a_level_that_is_not_an_int_is_a_configuration_error(monkeypatch, name, l):
    # rejected before an exchange graph is built, not only when psi reads it
    monkeypatch.setattr(verify, "_bundle", lambda *args: pytest.fail("a bundle was built"))
    with pytest.raises(ConfigurationError) as exc:
        run_check(name, A3, XI3, l=l)
    assert str(exc.value) == f"the level must be an int, got {l!r}"


@pytest.mark.parametrize("name", LEVEL_CHECKS)
def test_a_level_below_one_is_a_domain_error(monkeypatch, name):
    monkeypatch.setattr(verify, "_bundle", lambda *args: pytest.fail("a bundle was built"))
    with pytest.raises(DomainError) as exc:
        run_check(name, A3, XI3, l=0)
    assert str(exc.value) == "level must be >= 1"


def test_a_wrong_kr_monomial_fails_tsystem_with_its_triple(monkeypatch):
    real = verify.kr_monomial
    monkeypatch.setattr(verify, "kr_monomial", lambda i, k, r: real(
        i, k + 1, r) if (i, k, r) == (3, 2, -5) else real(i, k, r))
    report = verify_tsystem(D4, XI_D4, 2)
    assert report.failures == [
        {"detail": "KR recurrence hw at (3,1,-4)", "lhs": "Y[3,-5] Y[3,-3]",
         "rhs": "Y[3,-5] Y[3,-3] Y[3,-1]"},
        {"detail": "KR recurrence hw at (3,2,-4)", "lhs": "Y[3,-5] Y[3,-3]^2 Y[3,-1]^2",
         "rhs": "Y[3,-5] Y[3,-3]^2 Y[3,-1]"}]


def test_a_wrong_yhat_monomial_fails_sequence_with_its_vertex(monkeypatch):
    real = verify.yhat_monomial
    monkeypatch.setattr(verify, "yhat_monomial", lambda i, r, cartan: real(
        i, r - 2, cartan) if (i, r) == (2, -3) else real(i, r, cartan))
    report = verify_grid_sequence(D4, XI_D4, 2)
    assert report.failures == [
        {"detail": "yhat at (2,-3) equals A-inverse",
         "got": "Y[1,-4] Y[2,-5]^-1 Y[2,-3]^-1 Y[3,-4] Y[4,-4]",
         "want": "Y[1,-6] Y[2,-7]^-1 Y[2,-5]^-1 Y[3,-6] Y[4,-6]"}]


def test_a_wrong_denominator_fails_properties_with_its_g_vector(monkeypatch):
    graph = get_bundle(D4, XI_D4).graph
    g = (1, 0, 0, 0)
    record = graph.registry[g]
    wrong = dataclasses.replace(record, denominator=tuple(d + 1 for d in record.denominator))
    monkeypatch.setattr(graph, "registry", {**graph.registry, g: wrong})
    report = verify_properties(D4, XI_D4, walks=0)
    assert report.failures == [
        {"detail": "denominator vector is the dimension vector at (1, 0, 0, 0)",
         "engine": "(0, 1, 1, 1)", "rep": "(-1, 0, 0, 0)"}]


@pytest.mark.parametrize("walks", [-3, 2.5, "3", True])
def test_properties_walk_count_must_be_an_int_from_zero(walks):
    with pytest.raises(ConfigurationError) as exc:
        run_check("properties", D4, XI_D4, walks=walks)
    assert str(exc.value) == f"the walk count must be an int >= 0, got {walks!r}"


def test_a_wrong_coefficient_fails_properties_with_its_seed_and_column(monkeypatch):
    graph = get_bundle(D4, XI_D4).graph
    first, real = graph.seeds[min(graph.seeds)], verify._prop313_coeff
    monkeypatch.setattr(verify, "_prop313_coeff",
                        lambda seed, k: () if seed is first and k == 1 else real(seed, k))
    report = verify_properties(D4, XI_D4, walks=0)
    assert report.failures == [
        {"detail": "coefficient read-off at seed "
                   "((-1, 0, 0, 0), (0, -1, 0, 0), (0, -1, 0, 1), (0, -1, 1, 0)) column 1"}]


def _one_bad_edge(monkeypatch, bad):
    """Swap the D4 bundle's edges for a copy with one edge rewritten by `bad`: the first
    edge whose pair sits on an earlier edge and for which `bad` does not return None.
    Returns the rewritten edge."""
    graph = get_bundle(D4, XI_D4).graph
    edges, seen = list(graph.edges), set()
    for n, edge in enumerate(edges):
        pair = frozenset((edge.old_g, edge.new_g))
        if pair in seen and (rewritten := bad(edge)) is not None:
            edges[n] = rewritten
            break
        seen.add(pair)
    monkeypatch.setattr(graph, "edges", edges)
    return edges[n]


def _one_more_factor(term_name):
    """Add 1 to the multiplicity of the term's first factor whose socle is nonzero."""
    repctx, _, obj_by_g = get_bundle(D4, XI_D4)

    def bad(edge):
        term = getattr(edge, term_name)
        for n, (fg, mult) in enumerate(term.factors):
            if any(repctx.socle(obj_by_g[fg])):
                factors = term.factors[:n] + ((fg, mult + 1),) + term.factors[n + 1:]
                return dataclasses.replace(edge, **{term_name: TermData(term.fexp, factors)})
        return None

    return bad


def _edge_name(edge):
    obj_by_g = get_bundle(D4, XI_D4).obj_by_g
    return f"{obj_by_g[edge.old_g]} / {obj_by_g[edge.new_g]}"


def test_one_bad_edge_of_a_pair_fails_the_edge_identity(monkeypatch):
    # every check computes once per relation key, so a key of the pair alone would hand
    # the bad edge the identity of the earlier edges of its pair
    items = verify_properties(D4, XI_D4, walks=0).items
    edge = _one_bad_edge(monkeypatch, lambda e: dataclasses.replace(
        e, mp_term=TermData(tuple(x + 1 for x in e.mp_term.fexp), e.mp_term.factors)))
    report = verify_properties(D4, XI_D4, walks=0)
    assert report.failures == [
        {"detail": "edge product identity", "old": str(edge.old_g), "new": str(edge.new_g)}]
    assert report.items == items


def test_one_bad_factor_of_a_pair_fails_exchange_and_hw_exchange(monkeypatch):
    items = verify_exchange_exponents(D4, XI_D4).items, verify_hw_exchange(D4, XI_D4, 2).items
    with monkeypatch.context() as m:
        edge = _one_bad_edge(m, _one_more_factor("mp_term"))
        report = verify_exchange_exponents(D4, XI_D4)
        assert [f["detail"] for f in report.failures] == [
            f"second-term exponents at {_edge_name(edge)}"]
        assert report.items == items[0]
    # hw-exchange reads the M-term alone, so it is checked on a bad M-term factor
    edge = _one_bad_edge(monkeypatch, _one_more_factor("m_term"))
    report = verify_exchange_exponents(D4, XI_D4)
    assert [f["detail"] for f in report.failures] == [
        f"first-term exponents at {_edge_name(edge)}"]
    report = verify_hw_exchange(D4, XI_D4, 2)
    assert [f["detail"] for f in report.failures] == [f"hw identity at {_edge_name(edge)}"]
    assert (verify_exchange_exponents(D4, XI_D4).items, report.items) == items


def test_hw_exchange_raises_each_m_term_factor_to_its_multiplicity(monkeypatch):
    # one more copy of a shifted projective in one edge's M-term: its socle is zero, so
    # kappa stays put, and its psi is not 1, so only the factor's power can see the copy
    bundle = get_bundle(D4, XI_D4)
    repctx, graph, obj_by_g = bundle

    def shift_factor(edge):
        return next((n for n, (fg, _) in enumerate(edge.m_term.factors)
                     if not obj_by_g[fg].is_module), None)

    edges = list(graph.edges)
    found = [n for n, edge in enumerate(edges) if shift_factor(edge) is not None]
    assert len(found) == 7
    edge = edges[found[0]]
    n = shift_factor(edge)
    fg, mult = edge.m_term.factors[n]
    assert not any(repctx.socle(obj_by_g[fg])) and not psi(obj_by_g[fg], repctx, 2).is_one
    factors = edge.m_term.factors[:n] + ((fg, mult + 1),) + edge.m_term.factors[n + 1:]
    edges[found[0]] = dataclasses.replace(edge, m_term=TermData(edge.m_term.fexp, factors))
    bad_graph = dataclasses.replace(graph, edges=edges)
    monkeypatch.setattr(verify, "get_bundle", lambda c, x: bundle._replace(graph=bad_graph))
    report = verify_hw_exchange(D4, XI_D4, 2)
    assert [f["detail"] for f in report.failures] == [f"hw identity at {_edge_name(edge)}"]
    assert report.items == len(edges)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_psi_kr_and_hw_exchange(l):
    for cartan, xi in ((A3, XI3), (D4, XI_D4)):
        assert_passes(verify_psi_kr_images(cartan, xi, l))
        assert_passes(verify_hw_exchange(cartan, xi, l))


@pytest.mark.parametrize("cartan,xi,l", [
    (A2, XI2, 2), (A3, XI3, 2), (A3, XI3, 3), (A3, XI3_ALT, 2), (D4, XI_D4, 2),
])
def test_tsystem_and_grid_sequence(cartan, xi, l):
    assert_passes(verify_tsystem(cartan, xi, l))
    assert_passes(verify_grid_sequence(cartan, xi, l))


def test_grid_sequence_level1_degenerate():
    report = verify_grid_sequence(A3, XI3, 1)
    assert_passes(report)
    assert s_l_sequence(A3, XI3, 1) == []


def test_missing_exchange_factor_names_the_seed_step_and_g_vector(monkeypatch):
    real = Seed.exchange_step
    bogus = (9, 9, 9, 9, 9, 9)
    seen = []

    def lost_factor(seed, v):
        edge = real(seed, v)
        seen.append((seed.key(), v))
        return dataclasses.replace(edge, m_term=TermData(edge.m_term.fexp, ((bogus, 1),)))

    monkeypatch.setattr(Seed, "exchange_step", lost_factor)
    with pytest.raises(InternalInvariantError) as err:
        verify_grid_sequence(A3, XI3, 2)
    (key, v), = seen
    assert str(err.value) == f"exchange factor g = {bogus} not found in seed {key} at step {v}"


def test_g_vector_set_mismatch_names_the_scope(monkeypatch):
    monkeypatch.setattr(RepContext, "g_vector", lambda self, obj: (9,) * self.n)
    with pytest.raises(InternalInvariantError) as err:
        verify._bundle.__wrapped__("D4", ((1, 0), (2, -1), (3, 0), (4, 0)))  # uncached
    assert str(err.value) == (
        "g-vector sets of cluster variables and indecomposables differ for D4 "
        "xi=1:0,2:-1,3:0,4:0; a sign or orientation convention is broken")


def test_s_l_sequence_order():
    # sweeps follow decreasing height, one column at a time, top down
    assert s_l_sequence(A3, XI3, 3) == [
        Vertex(1, 0), Vertex(1, -2),
        Vertex(2, -1), Vertex(2, -3),
        Vertex(3, -2), Vertex(3, -4),
    ]


def test_properties_check():
    report = verify_properties(A3, XI3, walks=150, rng_seed=1)
    assert_passes(report)


def test_properties_deterministic():
    r1 = verify_properties(A2, XI2, walks=50, rng_seed=5)
    r2 = verify_properties(A2, XI2, walks=50, rng_seed=5)
    j1, j2 = json.loads(r1.to_json()), json.loads(r2.to_json())
    j1.pop("seconds"), j2.pop("seconds")
    assert j1 == j2


@pytest.mark.parametrize("broken", [False, True])
def test_properties_walk_matches_the_two_mutation_walk(monkeypatch, broken):
    walks, rng_seed = 60, 1
    graph = get_bundle(A3, XI3).graph  # built with the real kernel
    if broken:
        # the negated column left a list: the values stay right, so every record
        # check passes, but a seed holding it no longer equals one holding a tuple
        real = engine._mutate_cvecs

        def list_column(cvecs, k, brow, eps):
            out = real(cvecs, k, brow, eps)
            return out[:k] + (list(out[k]),) + out[k + 1:]

        monkeypatch.setattr(engine, "_mutate_cvecs", list_column)
    report = verify_properties(A3, XI3, walks=walks, rng_seed=rng_seed)
    walk_items = report.items - verify_properties(A3, XI3, walks=0).items
    want = verify.Report("walk", {})
    walked = oracle_properties_walk(want, A3, XI3, walks, rng_seed, graph)
    assert any(a == b for a, b in zip(walked, walked[1:]))  # a step reuses a back mutation
    assert walk_items == want.items == walks
    assert report.failures == want.failures
    if broken:
        assert 0 < len(want.failures) < walks


def test_properties_builds_each_expansion_once(monkeypatch):
    # records keep no expansion: properties builds each variable's once, by separation
    graph = get_bundle(D4, XI_D4).graph
    real_separation, calls = verify.separation, []

    def counted(gtilde, fpoly, ctx):
        calls.append(gtilde)
        return real_separation(gtilde, fpoly, ctx)

    monkeypatch.setattr(verify, "separation", counted)
    report = verify_properties(D4, XI_D4, walks=0)
    assert report.passed
    assert sorted(calls) == sorted(rec.gtilde for rec in graph.registry.values())
    assert len(calls) == graph.variable_count == 16


def test_a_wrong_expansion_fails_the_edge_identity_of_every_relation_reading_it(monkeypatch):
    graph = verify.get_bundle(A3, XI3).graph
    g = (0, 1, 0)
    real_separation = verify.separation

    def wrong_separation(gtilde, fpoly, ctx):  # the expansion of g doubled
        out = real_separation(gtilde, fpoly, ctx)
        return out * 2 if gtilde == graph.registry[g].gtilde else out

    monkeypatch.setattr(verify, "separation", wrong_separation)
    report = verify_properties(A3, XI3, walks=0)
    monkeypatch.setattr(verify, "separation", real_separation)
    reads = [edge for edge in graph.edges
             if g in (edge.old_g, edge.new_g)
             or any(fg == g for term in (edge.m_term, edge.mp_term) for fg, _ in term.factors)]
    assert 0 < len(reads) < len(graph.edges)
    assert report.failures == [
        {"detail": "edge product identity", "old": str(edge.old_g), "new": str(edge.new_g)}
        for edge in reads]
    assert report.items == verify_properties(A3, XI3, walks=0).items


def test_edge_analysis_shift_injective_edges():
    repctx, graph, obj_by_g = get_bundle(A3, XI3)
    # the shifted-projective / injective exchange has an empty middle and the
    # opposite middle collects the neighbor shifts and injectives
    for i in (1, 2, 3):
        e_i = tuple(1 if t == i - 1 else 0 for t in range(3))
        neg = tuple(-x for x in e_i)
        for edge in graph.edges:
            if {edge.old_g, edge.new_g} == {e_i, neg}:
                assert parts(obj_by_g, edge.m_term) == ()
                assert edge.m_term.fexp == e_i
                want = {f"shp:{j}" for j in repctx.out[i]}
                want |= {"mod:" + ",".join(map(str, repctx.inj_dims(j))) for j in repctx.inn[i]}
                assert {str(o) for o in parts(obj_by_g, edge.mp_term)} == want
                assert edge.mp_term.fexp == (0, 0, 0)
                break
        else:
            raise AssertionError(f"no shift/injective edge for {i}")


def test_every_edge_names_the_m_term_of_the_g_sum_oracle():
    scopes = [("A1", {1: 0}), ("A1", {1: 5})]
    scopes += [(name, xi) for name in ("A2", "A3", "A4", "D4")
               for xi in orientations(cartan_type(name))]
    scopes.append(("E6", {1: 0, 2: -1, 3: -1, 4: 0, 5: -1, 6: 0}))
    for name, xi in scopes:
        repctx, graph, obj_by_g = get_bundle(cartan_type(name), xi)
        for edge in graph.edges:
            assert edge.m_term == oracle_m_term(edge, repctx, obj_by_g), (name, xi, edge)


def test_engine_exchange_pairs_are_the_ext1_pairs_with_one_relation_each():
    """The pairs {old g, new g} of the edges are the dim Ext^1 = 1 pairs of the cluster
    category, and every edge of a pair carries the same relation (M, M'), with each
    term's factors sorted by g-vector."""
    e6_xi = {1: 0, 2: -1, 3: -1, 4: 0, 5: -1, 6: 0}
    scopes = [(name, xi) for name in ("A1", "A2", "A3", "A4", "A5", "D4")
              for xi in orientations(cartan_type(name))] + [("E6", e6_xi)]
    counts = {}
    for name, xi in scopes:
        repctx, graph, obj_by_g = get_bundle(cartan_type(name), xi)
        relations: dict[frozenset, set] = {}
        for edge in graph.edges:
            for term in (edge.m_term, edge.mp_term):
                gs = [fg for fg, _ in term.factors]
                assert gs == sorted(gs), (name, xi, edge)
            pair = frozenset((obj_by_g[edge.old_g], obj_by_g[edge.new_g]))
            relations.setdefault(pair, set()).add(tuple(
                (term.fexp, tuple(sorted(term.factors))) for term in (edge.m_term, edge.mp_term)))
        pairs = repctx.exchange_pairs()
        assert set(relations) == {frozenset(p) for p in pairs}, (name, xi)
        assert len(pairs) == len(relations), (name, xi)
        assert all(len(r) == 1 for r in relations.values()), (name, xi)
        assert len({edge.relation for edge in graph.edges}) == len(pairs), (name, xi)
        counts[name, tuple(sorted(xi.items()))] = len(graph.edges), len(relations)
    assert counts["A3", tuple(sorted(XI3.items()))] == (21, 15)
    assert counts["D4", tuple(sorted(XI_D4.items()))] == (100, 52)
    assert counts["E6", tuple(sorted(e6_xi.items()))] == (2499, 385)


@pytest.mark.parametrize("name", [n for n in CHECK_NAMES if "l" not in check_reads(n)])
def test_checks_outside_the_level_set_do_not_read_the_level(name):
    reports = [run_check(name, A2, XI2, l=l, walks=5)[0] for l in (2, 3)]
    for report in reports:
        report.seconds = 0.0
    assert reports[0].to_json() == reports[1].to_json()


def test_run_check_dispatch_and_json():
    reports = run_check("tsystem", A2, XI2, l=2)
    assert len(reports) == 1 and reports[0].passed
    data = json.loads(reports[0].to_json())
    assert data["name"] == "tsystem" and data["passed"]
    reports = run_check("all", A2, XI2, l=2, walks=30)
    assert all(r.passed for r in reports)
    assert len(reports) == 10
    assert all(r.seconds > 0 for r in reports)


def test_check_reads_states_each_checks_scope():
    scope = {"cartan", "xi"}
    assert check_reads("properties") == scope | {"walks", "rng_seed"}
    for name in ("psi-kr", "hw-exchange", "tsystem", "sequence"):
        assert check_reads(name) == scope | {"l"}
    for name in ("trop-socle", "yhat", "exchange"):
        assert check_reads(name) == scope
    assert check_reads("examples") == check_reads("goldens") == frozenset()
    assert check_reads("all") == scope | {"l", "walks", "rng_seed"}


@pytest.mark.parametrize("name,scope,message", [
    ("bogus", (), "unknown check 'bogus'"),
    ("bogus", (A2, XI2), "unknown check 'bogus'"),
    ("yhat", (), "this check needs a Cartan type and a height function"),
    ("all", (A2, None), "this check needs a Cartan type and a height function"),
])
def test_run_check_rejects_unknown_names_before_a_missing_scope(name, scope, message):
    with pytest.raises(ConfigurationError) as exc:
        run_check(name, *scope)
    assert str(exc.value) == message


def test_fixture_checks_run_without_a_scope():
    reports = run_check("examples") + run_check("goldens")
    assert [r.name for r in reports] == ["examples", "goldens"]
    assert all(r.passed and r.seconds > 0 for r in reports)
