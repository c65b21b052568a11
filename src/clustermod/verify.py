"""Executable checks for every worked example and testable numbered result.

Each check returns a Report with one failure entry per broken item; reports are
deterministic for a fixed scope.  Object <-> variable matching always goes
through g-vectors, computed independently on both sides; a mismatch there
aborts the whole report since nothing downstream would be trustworthy.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .cartan import CartanData, cartan_type, check_level, linear_height
from .engine import (
    ExchangeGraph,
    Seed,
    enumerate_exchange_graph,
    make_record,
    run_sequence,
    seed_context,
    separation,
)
from .errors import (
    ConfigurationError,
    InternalInvariantError,
    ShiftCaseUnsupported,
)
from .hlmap import (
    expand_z,
    hw_extract,
    kr_monomial,
    psi,
    uv_monomials,
    yhat_monomial,
)
from .quivers import IceQuiver, Vertex, build_gamma_l, build_qcheck, build_qxil
from .reps import CQObject, RepContext
from .symbolic import LaurentPoly, Monomial, eval_tropical, fvar


@dataclass
class Report:
    name: str
    scope: dict
    items: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0  # the check's run time, set by run_check

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, label: str, *args, **data):
        """Count one item; a failed item records `label.format(*args)` and its data as
        text, so an item's text is built only when it fails."""
        self.items += 1
        if not ok:
            self.failures.append({"detail": label.format(*args),
                                  **{k: str(v) for k, v in data.items()}})

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "scope": self.scope,
                "items": self.items,
                "passed": self.passed,
                "failures": self.failures,
                "seconds": round(self.seconds, 4),
            },
            indent=2,
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f", {len(self.failures)} failures"
        return f"{status} {self.name} [{_scope_str(self.scope)}]: {self.items} items{extra} ({self.seconds:.2f}s)"


def _scope_str(scope: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in scope.items())


def _xi_key(xi: dict[int, int]) -> tuple:
    return tuple(sorted(xi.items()))


class Bundle(NamedTuple):
    """The data of one (type, height) that the checks on the exchange graph share."""

    repctx: RepContext
    graph: ExchangeGraph  # the companion-quiver BFS
    obj_by_g: dict  # each indecomposable by its g-vector, the engine's registry keys


@functools.lru_cache(maxsize=None)
def _bundle(cartan_name: str, xi_key: tuple) -> Bundle:
    """Shared per-(type, height) data: rep context, companion-quiver BFS, matching."""
    cartan = cartan_type(cartan_name)
    xi = dict(xi_key)
    repctx = RepContext(cartan, xi)
    graph = enumerate_exchange_graph(Seed.initial(build_qcheck(cartan, xi)))
    obj_by_g = {repctx.g_vector(o): o for o in repctx.indecomposables()}
    if set(obj_by_g) != set(graph.registry):
        raise InternalInvariantError(
            f"g-vector sets of cluster variables and indecomposables differ "
            f"{repctx._where()}; a sign or orientation convention is broken")
    return Bundle(repctx, graph, obj_by_g)


def get_bundle(cartan: CartanData, xi: dict[int, int]) -> Bundle:
    return _bundle(cartan.name, _xi_key(xi))


def parts(obj_by_g: dict, term) -> tuple[CQObject, ...]:
    """The objects of an exchange term's factors, each repeated by its multiplicity."""
    return tuple(obj_by_g[fg] for fg, mult in term.factors for _ in range(mult))


# ---------------------------------------------------------------------------
# fixture data for the worked A3 example (height 0, -1, -2; level 2)

A3_GTILDE_TABLE = {
    "shp:1": (1, 0, 0, 0, 0, 0),
    "shp:2": (0, 1, 0, 0, 0, 0),
    "shp:3": (0, 0, 1, 0, 0, 0),
    "mod:1,1,1": (0, 0, -1, 0, 0, 1),
    "mod:0,1,1": (1, 0, -1, 0, 0, 1),
    "mod:0,0,1": (0, 1, -1, 0, 0, 1),
    "mod:1,1,0": (0, -1, 0, 0, 1, 0),
    "mod:0,1,0": (1, -1, 0, 0, 1, 0),
    "mod:1,0,0": (-1, 0, 0, 1, 0, 0),
}

A3_PSI_TABLE = {
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

QXIL2_A4_ARROWS = {
    ("(2,-3)", "(1,0)"), ("(1,0)", "(1,-2)"), ("(1,-2)", "(2,-3)"),
    ("(3,-4)", "(2,-1)"), ("(2,-1)", "(2,-3)"),
    ("(2,-3)", "(1,-4)"), ("(2,-3)", "(3,-4)"),
    ("(1,-4)", "(1,-2)"), ("(3,-2)", "(3,-4)"),
    ("(2,-5)", "(2,-3)"), ("(3,-6)", "(3,-4)"), ("(3,-4)", "(2,-5)"),
    ("(4,-1)", "(4,-3)"), ("(4,-5)", "(4,-3)"), ("(4,-3)", "(3,-4)"),
    ("(3,-4)", "(4,-1)"), ("(3,-4)", "(4,-5)"),
}

QXIL2_A4_FROZEN = {"(1,0)", "(2,-1)", "(3,-2)", "(4,-1)", "(1,-4)", "(2,-5)", "(3,-6)", "(4,-5)"}


def arrows_among(quiver: IceQuiver, labels, frozen) -> Counter:
    """The arrows of `quiver` between two of `labels` but not two `frozen` ones, with
    multiplicity, by (source, target) label text; a label the quiver lacks has none."""
    keep, b = set(labels), quiver.b
    at = [(v, p) for p, v in enumerate(quiver.vertices) if v in keep]
    return Counter({(str(u), str(v)): b[q][p] for u, p in at for v, q in at
                    if b[q][p] > 0 and not (u in frozen and v in frozen)})


def s_l_sequence(cartan: CartanData, xi: dict[int, int], l: int) -> list[Vertex]:
    """Column sweeps ordered by decreasing height (ties by index): l-1 steps per column."""
    order = sorted(cartan.vertices, key=lambda i: (-xi[i], i))
    return [Vertex(i, xi[i] - 2 * k) for i in order for k in range(l - 1)]


# ---------------------------------------------------------------------------
# checks

DEFAULT_LEVEL = 2  # the level of a check that reads one and is given none


def verify_worked_examples_a3() -> Report:
    """The worked A3 tables at heights 0, -1, -2: every extended g-vector, every
    level-2 psi monomial, and the fully worked highest l-weight computation."""
    cartan = cartan_type("A3")
    xi = linear_height(cartan)
    rep = Report("examples", {"cartan": "A3", "xi": "1:0,2:-1,3:-2", "l": 2})
    repctx, graph, _ = get_bundle(cartan, xi)

    for obj in repctx.indecomposables():
        g, s = repctx.extended_g(obj)
        want = A3_GTILDE_TABLE[str(obj)]
        rep.check(g + s == want, "extended g-vector of {}", obj, got=g + s, want=want)
        engine_gt = graph.registry[g].gtilde
        rep.check(engine_gt == want, "engine g-tilde of {}", obj, got=engine_gt, want=want)
        mono = psi(obj, repctx, 2)
        rep.check(str(mono) == A3_PSI_TABLE[str(obj)], "psi of {}", obj, got=mono,
                  want=A3_PSI_TABLE[str(obj)])

    example = psi(CQObject.module((0, 1, 1)), repctx, 2)
    rep.check(
        str(example) == "Y[1,-2] Y[1,0] Y[3,-6] Y[3,-4]",
        "worked highest l-weight monomial",
        got=example,
    )

    # AR quiver structure behind the tables: object and arrow counts, meshes
    objs = repctx.ar_objects()
    arrows = repctx.ar_arrows()
    rep.check(len(objs) == 9, "AR object count", got=len(objs))
    rep.check(len(arrows) == 12, "AR arrow count", got=len(arrows))
    for tz, middles, zz in repctx.ar_meshes():
        if tz.is_module and zz.is_module and all(m.is_module for m in middles):
            lhs = tuple(a + b for a, b in zip(tz.dims, zz.dims))
            rhs = [0] * repctx.n
            for m in middles:
                for t, d in enumerate(m.dims):
                    rhs[t] += d
            rep.check(lhs == tuple(rhs), "mesh additivity at {}", zz, got=rhs, want=lhs)
    return rep


def verify_quiver_goldens() -> Report:
    """Fixtures for the two printed quivers: arrows with multiplicity, vertex count, frozen set."""
    rep = Report("goldens", {"quivers": "grid A3 level 2; coefficient quiver A4 level 2"})
    g2 = build_gamma_l(cartan_type("A3"), {1: 0, 2: -1, 3: 0}, 2)
    got, want = arrows_among(g2, g2.vertices, g2.frozen), Counter(GAMMA2_A3_ARROWS)
    rep.check(got == want, "grid quiver A3 level 2 arrows",
              extra=sorted((got - want).items()), missing=sorted((want - got).items()))
    rep.check(len(g2.vertices) == 9, "grid quiver vertex count", got=len(g2.vertices))
    rep.check({str(v) for v in g2.frozen} == {"(1,-4)", "(2,-5)", "(3,-4)"},
              "grid quiver frozen set", got=sorted(str(v) for v in g2.frozen))

    q = build_qxil(cartan_type("A4"), {1: 0, 2: -1, 3: -2, 4: -1}, 2)
    got, want = arrows_among(q, q.vertices, q.frozen), Counter(QXIL2_A4_ARROWS)
    rep.check(got == want, "coefficient quiver A4 level 2 arrows",
              extra=sorted((got - want).items()), missing=sorted((want - got).items()))
    frozen = {str(v) for v in q.frozen}
    rep.check(len(q.vertices) == 12 and frozen == QXIL2_A4_FROZEN,
              "coefficient quiver vertex count and frozen set",
              got=len(q.vertices), frozen=sorted(frozen))
    return rep


def verify_psi_kr_images(cartan: CartanData, xi: dict[int, int],
                         l: int = DEFAULT_LEVEL) -> Report:
    """KR identification of shifted projectives and injectives, and psi injectivity."""
    rep = Report("psi-kr", {"cartan": cartan.name, "xi": _xi_key(xi), "l": l})
    repctx = RepContext(cartan, xi)
    for i in cartan.vertices:
        got = psi(CQObject.shifted(i), repctx, l)
        want = kr_monomial(i, l, xi[i] - 2 * l + 2)
        rep.check(got == want, "psi of shifted projective {}", i, got=got, want=want)
        got = psi(CQObject.module(repctx.inj_dims(i)), repctx, l)
        want = kr_monomial(i, l, xi[i] - 2 * l)
        rep.check(got == want, "psi of injective {}", i, got=got, want=want)
    seen: dict[Monomial, CQObject] = {}
    for obj in repctx.indecomposables():
        mono = psi(obj, repctx, l)
        rep.check(mono not in seen, "psi injectivity at {}", obj, clash=seen.get(mono))
        seen[mono] = obj
    return rep


def verify_tropical_socle(cartan: CartanData, xi: dict[int, int]) -> Report:
    """Tropical F-polynomial evaluation equals the inverse socle monomial."""
    rep = Report("trop-socle", {"cartan": cartan.name, "xi": _xi_key(xi)})
    repctx, graph, obj_by_g = get_bundle(cartan, xi)
    ctx = graph.ctx
    for g, record in sorted(graph.registry.items()):
        obj = obj_by_g[g]
        val = eval_tropical(record.fpoly, ctx.y0_assign)
        want = tuple(-s for s in repctx.socle(obj))
        rep.check(val == want, "tropical F value of {}", obj,
                  got=Monomial(zip(ctx.gens, val)), want=Monomial(zip(ctx.gens, want)))
    return rep


def verify_yhat_identity(cartan: CartanData, xi: dict[int, int]) -> Report:
    """yhat^(dim M) = x^a(M) f^g(M) for every indecomposable module.  The yhat
    monomials are those of the initial seed, so no exchange graph is read."""
    rep = Report("yhat", {"cartan": cartan.name, "xi": _xi_key(xi)})
    repctx = RepContext(cartan, xi)
    ctx = seed_context(build_qcheck(cartan, xi))
    n = repctx.n
    for dims in repctx.roots:
        mon = Monomial()
        for j, d in enumerate(dims):
            if d:
                mon = mon * ctx.yhat_monomial(j) ** d
        a = tuple(
            sum(dims[s - 1] for s in repctx.inn[i]) - sum(dims[t - 1] for t in repctx.out[i])
            for i in cartan.vertices
        )
        g = repctx.g_of_dims(dims)
        want = Monomial({ctx.xvars[i]: a[i] for i in range(n)}) * Monomial(
            {fvar(i + 1): g[i] for i in range(n)}
        )
        rep.check(mon == want, "yhat monomial identity for dim {}", dims, got=mon, want=want)
    return rep


def verify_exchange_exponents(cartan: CartanData, xi: dict[int, int]) -> Report:
    """Every exchange relation carries the socle-difference exponents.

    On every edge the M-term is checked against kappa(L, M, N), and the M'-term
    against kappa(L, M', N) + g(im h), h: tau^-1 L -> N, in the first order of the
    pair for which h is a map of modules.  One order always is: an exchange pair
    has dim Ext^1 = 1 in the cluster category (Buan-Marsh-Reineke-Reiten-Todorov
    2006), and Ext^1(N, L) = D Hom(tau^-1 L, N).  Both targets are computed once
    per relation (`ExchangeEdge.relation`) and compared with each edge's own
    exponents.  The scope's `engine_pinned` counts the edges whose M'-term fails.
    """
    rep = Report("exchange", {"cartan": cartan.name, "xi": _xi_key(xi)})
    repctx, graph, obj_by_g = get_bundle(cartan, xi)
    mismatched = 0
    crosschecked = set()
    targets: dict[tuple, tuple] = {}
    for edge in graph.edges:
        x, y = obj_by_g[edge.old_g], obj_by_g[edge.new_g]
        key = edge.relation
        if key not in targets:
            beta, mp_parts = None, parts(obj_by_g, edge.mp_term)
            for lobj, nobj in ((x, y), (y, x)):
                try:
                    im = repctx.im_h(lobj, nobj)
                except ShiftCaseUnsupported:
                    continue
                beta = tuple(k + g for k, g in zip(repctx.kappa(lobj, mp_parts, nobj),
                                                   repctx.g_of_dims(im.dims)))
                break
            targets[key] = repctx.kappa(x, parts(obj_by_g, edge.m_term), y), beta
        alpha, beta = targets[key]
        m_fexp, mp_fexp = edge.m_term.fexp, edge.mp_term.fexp
        rep.check(alpha == m_fexp, "first-term exponents at {} / {}", x, y, got=m_fexp,
                  want=alpha)
        ok = beta == mp_fexp
        rep.check(ok, "second-term exponents at {} / {}", x, y, got=mp_fexp, want=beta)
        mismatched += not ok
        if ok:
            crosschecked.add(frozenset((x, y)))
    # shifted-projective / injective edges must always be cross-checkable
    for i in cartan.vertices:
        key = frozenset((CQObject.shifted(i), CQObject.module(repctx.inj_dims(i))))
        rep.check(key in crosschecked, "shift/injective edge at {} is rep-cross-checked", i)
    rep.scope["edges"] = len(graph.edges)
    rep.scope["engine_pinned"] = mismatched
    return rep


def verify_hw_exchange(cartan: CartanData, xi: dict[int, int],
                       l: int = DEFAULT_LEVEL) -> Report:
    """Highest l-weight identity on every exchange pair, at the given level.

    psi is multiplicative, so it is computed once per object: the left side is
    psi(L) psi(N), the right side psi of the M-term's factors, with multiplicity,
    times prod (u_i v_i)^{alpha_i}, with u_i v_i computed once per vertex.  Both sides
    are computed once per relation (`ExchangeEdge.relation`) and checked on every edge."""
    check_level(l)  # before the bundle, which may take long to build
    rep = Report("hw-exchange", {"cartan": cartan.name, "xi": _xi_key(xi), "l": l})
    repctx, graph, obj_by_g = get_bundle(cartan, xi)
    hw = {g: psi(obj, repctx, l) for g, obj in obj_by_g.items()}
    uv = {}  # u_i(l) v_i(l) of each vertex: it reads nothing of the relation
    for i in cartan.vertices:
        u, v = uv_monomials(i, l, xi)
        uv[i] = u * v
    sides: dict[tuple, tuple] = {}
    for edge in graph.edges:
        x, y = obj_by_g[edge.old_g], obj_by_g[edge.new_g]
        key = edge.relation
        if key not in sides:
            alpha = repctx.kappa(x, parts(obj_by_g, edge.m_term), y)
            lhs = hw[edge.old_g] * hw[edge.new_g]
            rhs = Monomial.one()
            for fg, mult in edge.m_term.factors:
                rhs = rhs * hw[fg] ** mult
            for i in cartan.vertices:
                e = alpha[i - 1]
                if e:
                    rhs = rhs * uv[i] ** e
            sides[key] = lhs, rhs
        lhs, rhs = sides[key]
        rep.check(lhs == rhs, "hw identity at {} / {}", x, y, lhs=lhs, rhs=rhs)
    return rep


def verify_tsystem(cartan: CartanData, xi: dict[int, int], l: int = DEFAULT_LEVEL) -> Report:
    """Monomial-level T-system identities: the Dynkin-edge reduction and the
    KR recurrence on a window around the relevant heights."""
    check_level(l)
    rep = Report("tsystem", {"cartan": cartan.name, "xi": _xi_key(xi), "l": l})
    kr = functools.cache(kr_monomial)  # each (i, k, r) is met up to four times
    for i in cartan.vertices:
        lhs = Monomial.one()
        for j in cartan.neighbors(i):
            if xi[i] == xi[j] + 1:
                # Dynkin arrow i -> j contributes the shifted-projective image at j
                lhs = lhs * kr(j, l, xi[j] - 2 * l + 2)
            else:
                # Dynkin arrow j -> i contributes the injective image at j
                lhs = lhs * kr(j, l, xi[j] - 2 * l)
        rhs = Monomial.one()
        for j in cartan.neighbors(i):
            rhs = rhs * kr(j, l, xi[i] - 2 * l + 1)
        rep.check(lhs == rhs, "edge-product reduction at {}", i, lhs=lhs, rhs=rhs)
    for i in cartan.vertices:
        for k in range(1, l + 2):
            for r in range(xi[i] - 2 * l - 1, xi[i] + 2):
                lhs = kr(i, k, r + 1) * kr(i, k, r - 1)
                rhs = kr(i, k - 1, r + 1) * kr(i, k + 1, r - 1)
                rep.check(lhs == rhs, "KR recurrence hw at ({},{},{})", i, k, r, lhs=lhs, rhs=rhs)
    return rep


def verify_grid_sequence(cartan: CartanData, xi: dict[int, int],
                         l: int = DEFAULT_LEVEL) -> Report:
    """Mutation-sequence pipeline on the grid quiver, applied by `run_sequence`.

    Checks: (a) the final quiver's arrows among the 3n designated labels, with
    multiplicity and without those between two frozen labels (which the
    constructor forbids by fiat), are the coefficient quiver's; a label that the
    final quiver lacks fails the item; (b) every step exchanges KR labels in the
    T-system pattern; (c) hw extraction at the top designated row; plus the
    yhat = A^{-1} consistency of the initial grid seed.
    """
    rep = Report("sequence", {"cartan": cartan.name, "xi": _xi_key(xi), "l": l})
    grid = build_gamma_l(cartan, xi, l)
    seed = Seed.initial(grid)
    ctx = seed.ctx
    n_mut = len(ctx.mutables)

    for j, v in enumerate(ctx.mutables):
        out = expand_z(((var.index, e) for var, e in ctx.yhat_monomial(j)), xi)
        want = yhat_monomial(v.i, v.r, cartan)
        rep.check(out == want, "yhat at {} equals A-inverse", v, got=out, want=want)

    def position_hw(sd, j):
        return hw_extract(make_record(sd, j).gtilde, ctx.xvars + ctx.gens, xi)

    seed, edges = run_sequence(seed, s_l_sequence(cartan, xi, l))
    for edge in edges:
        v, source = edge.vertex, edge.source
        i, r = v.i, v.r
        k = (xi[i] - r) // 2 + 1
        j = ctx.mut_index[v]
        got = position_hw(source, j)
        rep.check(got == kr_monomial(i, k, r), "pre-mutation KR label at {}", v, got=got)
        position = {g[:n_mut]: jj for jj, g in enumerate(source.gtilde)}

        def term_hw(term):
            out = hw_extract(term.fexp, ctx.gens, xi)
            for fg, mult in term.factors:
                out = out * position_hw(source, position[fg]) ** mult
            return out

        hm, hmp = term_hw(edge.m_term), term_hw(edge.mp_term)
        got = hw_extract(edge.new_gtilde, ctx.xvars + ctx.gens, xi)
        rep.check(got == kr_monomial(i, k, r - 2), "post-mutation KR label at {}", v, got=got)
        dominant = kr_monomial(i, k - 1, r) * kr_monomial(i, k + 1, r - 2)
        other = Monomial.one()
        for jn in cartan.neighbors(i):
            other = other * kr_monomial(jn, k, r - 1)
        rep.check(hm == dominant and hmp == other, "T-system shape at step {}", v,
                  m_term=hm, mp_term=hmp, dominant=dominant, other=other)

    target = build_qxil(cartan, xi, l)
    got, want = (arrows_among(q, target.vertices, target.frozen) for q in (seed.quiver, target))
    rep.check(got == want, "final subquiver equals the coefficient quiver",
              extra=sorted((got - want).items()), missing=sorted((want - got).items()))

    if l >= 2:
        for i in cartan.vertices:
            v = Vertex(i, xi[i] - 2 * l + 4)
            j = ctx.mut_index[v]
            got = position_hw(seed, j)
            want = kr_monomial(i, l - 1, xi[i] - 2 * l + 2)
            rep.check(got == want, "final hw at {}", v, got=got, want=want)
    return rep


def cluster_count(cartan: CartanData) -> int:
    """The number of clusters of the finite cluster type (Fomin-Zelevinsky, CA II)."""
    n = cartan.rank
    return {"A": math.comb(2 * n + 2, n + 1) // (n + 2),
            "D": (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n,
            "E": {6: 833, 7: 4160, 8: 25080}.get(n)}[cartan.letter]


def verify_properties(cartan: CartanData, xi: dict[int, int], walks: int = 1000,
                      rng_seed: int = 20240901) -> Report:
    """Structural property suite over the full companion-quiver exchange graph,
    its seed and variable counts against the classical counts of the cluster type,
    plus a seeded random mutation walk checking the involution.

    `separation` builds each variable's expansion once; the edge product identity
    x x' = M + M' on them is computed once per relation (`ExchangeEdge.relation`)
    and checked on every edge.  Each walk step checks its forward seed's new record and
    mutates back; a step at the last step's vertex takes its back mutation as forward seed.
    The walk's context is built from the bundle's quiver: its records are fresh, so the
    walk recomputes every F-polynomial, and its vertices are the bundle's own."""
    if type(walks) is not int or walks < 0:  # a bool is not an int
        raise ConfigurationError(f"the walk count must be an int >= 0, got {walks!r}")
    rep = Report("properties", {"cartan": cartan.name, "xi": _xi_key(xi), "walks": walks,
                                "seed": rng_seed})
    repctx, graph, obj_by_g = get_bundle(cartan, xi)
    ctx = graph.ctx
    n = len(ctx.mutables)

    seeds, variables = cluster_count(cartan), n + len(repctx.roots)  # n + |positive roots|
    rep.check(graph.seed_count == seeds, "seed count", got=graph.seed_count, want=seeds)
    rep.check(graph.variable_count == variables, "variable count",
              got=graph.variable_count, want=variables)

    expansion = {g: separation(r.gtilde, r.fpoly, ctx) for g, r in graph.registry.items()}
    for g, record in sorted(graph.registry.items()):
        rep.check(record.fpoly.constant_term() == 1, "F constant term at {}", g)
        rep.check(all(c > 0 for c in record.fpoly.coefficients()), "F positivity at {}", g)
        rep.check(all(c > 0 for c in expansion[g].coefficients()),
                  "expansion positivity at {}", g)
        obj = obj_by_g[g]
        dims = obj.dims if obj.is_module else tuple(-int(t == obj.i) for t in cartan.vertices)
        rep.check(record.denominator == dims,
                  "denominator vector is the dimension vector at {}", g,
                  engine=record.denominator, rep=dims)
        gg, ss = repctx.extended_g(obj)
        rep.check(record.gtilde == gg + ss, "engine/representation g-tilde agreement at {}", g,
                  engine=record.gtilde, rep=gg + ss)

    for key in sorted(graph.seeds):
        seed = graph.seeds[key]
        coeffs = seed.coeffs
        for k in range(n):
            col = seed.cvecs[k]
            rep.check(all(e >= 0 for e in col) or all(e <= 0 for e in col),
                      "sign coherence at seed {} column {}", key, k, col=col)
            # the frozen-row read-off against c-vectors, B and the g-tilde bottoms
            rep.check(coeffs[k] == _prop313_coeff(seed, k),
                      "coefficient read-off at seed {} column {}", key, k)

    # exchange-relation product identity, computed once per relation: it reads
    # nothing of an edge but its two g-vectors and its two terms
    holds: dict[tuple, bool] = {}
    for edge in graph.edges:
        key = edge.relation
        if key not in holds:
            lhs = expansion[edge.old_g] * expansion[edge.new_g]
            rhs = LaurentPoly()
            for term in (edge.m_term, edge.mp_term):
                part = LaurentPoly.from_monomial(Monomial(zip(ctx.gens, term.fexp)))
                for fg, mult in term.factors:
                    part = part * expansion[fg] ** mult
                rhs = rhs + part
            holds[key] = lhs == rhs
        rep.check(holds[key], "edge product identity", old=edge.old_g, new=edge.new_g)

    # the walk runs in a fresh context, so it recomputes every F-polynomial along
    # its own path; each new variable passes the record checks and must match
    # the exchange-graph record of its g-vector.  A step at the vertex of the
    # step before it starts from that step's back mutation, which is the seed it
    # would compute, and still checks its record and its own back mutation.
    # The fresh context is built on the bundle's quiver, so its vertices are the
    # objects of ctx.mutables and every lookup of a walk vertex hits by identity.
    rng = random.Random(rng_seed)
    seed = Seed.initial(ctx.quiver0)
    prev = back = None
    for step in range(walks):
        v = ctx.mutables[rng.randrange(n)]
        # v and prev are both drawn from the one tuple ctx.mutables
        forward = back if v is prev else seed.mutate(v)
        record = make_record(forward, seed.ctx.mut_index[v])
        back = forward.mutate(v)
        rep.check(back == seed and record == graph.registry.get(record.gvec),
                  "mutation involution and walk record at step {}", step, vertex=v,
                  g=record.gvec)
        seed, prev = forward, v
    return rep


def _prop313_coeff(seed: Seed, k: int) -> tuple[int, ...]:
    """y_k = y0^{c_k} prod_i F_i|_P(y0)^{b_ik} (Fomin-Zelevinsky, Cluster algebras IV,
    Prop. 3.13) in the tropical semifield, where F_i|_P(y0) = f^{-bottom(g-tilde_i)};
    the exponents over the frozen generators."""
    ctx = seed.ctx
    n = len(ctx.mutables)
    b, col = seed.quiver.b, ctx.mut_rows[k]
    exps = [0] * len(ctx.gens)
    for c, y in zip(seed.cvecs[k], ctx.y0):
        if c:
            exps = [a + c * e for a, e in zip(exps, y)]
    for row, g in zip(ctx.mut_rows, seed.gtilde):
        bik = b[row][col]
        if bik:
            exps = [a - bik * e for a, e in zip(exps, g[n:])]
    return tuple(exps)


# ---------------------------------------------------------------------------
# dispatch

# every check in the order `all` runs them, by the name of its verify_* function, looked
# up when the check runs so that a rebinding of the module attribute takes effect
_CHECKS = {
    "examples": "verify_worked_examples_a3",
    "goldens": "verify_quiver_goldens",
    "psi-kr": "verify_psi_kr_images",
    "trop-socle": "verify_tropical_socle",
    "yhat": "verify_yhat_identity",
    "exchange": "verify_exchange_exponents",
    "hw-exchange": "verify_hw_exchange",
    "tsystem": "verify_tsystem",
    "sequence": "verify_grid_sequence",
    "properties": "verify_properties",
}
CHECK_NAMES = tuple(_CHECKS)
_READS = {name: frozenset(inspect.signature(globals()[fn]).parameters)
          for name, fn in _CHECKS.items()}


def check_reads(name: str) -> frozenset[str]:
    """The scope arguments a check reads: its verify_* parameters ('all': their union)."""
    return frozenset().union(*_READS.values()) if name == "all" else _READS[name]


def run_check(name: str, cartan: CartanData | None = None, xi: dict[int, int] | None = None,
              l: int | None = None, walks: int | None = None,
              rng_seed: int | None = None) -> list[Report]:
    """Run one named check (or 'all') on the arguments it reads, or its defaults for
    those left None; returns the timed reports."""
    if name != "all" and name not in _CHECKS:
        raise ConfigurationError(f"unknown check {name!r}")
    if "cartan" in check_reads(name) and (cartan is None or xi is None):
        raise ConfigurationError("this check needs a Cartan type and a height function")
    given = {"cartan": cartan, "xi": xi, "l": l, "walks": walks, "rng_seed": rng_seed}
    reports = []
    for check in CHECK_NAMES if name == "all" else (name,):
        kwargs = {k: given[k] for k in _READS[check] if given[k] is not None}
        t0 = time.perf_counter()
        report = globals()[_CHECKS[check]](**kwargs)
        report.seconds = time.perf_counter() - t0
        reports.append(report)
    return reports
