"""Seeds over a tropical coefficient semifield, carried as integer data only.

A seed holds each quantity once: its ice quiver B-tilde, its c-vectors as
integer columns (the exponents of the principal coefficients in the y_j) and
its extended g-vectors.  The ambient tropical coefficient y_k is not stored: it
is read off column k of B-tilde in the frozen rows, one entry per frozen vertex
(each names its own generator), and the same read-off gives the initial
coefficients y0 and the two exponent vectors of each exchange relation.  Column
k is always read as row k negated (b_ik = -b_ki by skew-symmetry), so one tuple
of the matrix holds it.
Every tropical value is such an exponent tuple over the frozen generators: a
product adds tuples and the auxiliary sum takes their componentwise minimum.

Cluster variables are not stored either: the F-polynomial of each one is
computed once, when its record is built, by the Fomin-Zelevinsky recurrence
(Cluster algebras IV, Prop. 5.1) on the exchange relation at its own position,
with one exact division by the F of the pair's other variable; the records table
of the SeedContext, keyed by g, alone holds F.  No record keeps the expansion:
`separation` builds it from F and g-tilde by the separation formula (ibid., Thm 3.7),
and only on demand.  The denominator vector is read off the support of F by the
same formula, d_i = max over e in supp F of -(g_i + (B0 e)_i), so a record never
builds the expansion.

Records cross-check the integer data against F: constant term 1, positive
coefficients, the frozen block of the extended g-vector against -trop(F)(y0),
and the sign-rule g recursion against the c-vector recursion through tropical
duality G^T C = I (Nakanishi-Zelevinsky 2012); a mismatch raises
InternalInvariantError.

Mutation is split in two public phases.  Seed.exchange_step reads the exchange
relation x x' = M + M' off the current seed alone, with one read of row k for
the sign rule and y_k, splitting the exchange column once: the M-term is the one
the sign rule sums over, and the new extended g-vector is read off it.  Each
term lists its factors in increasing g order, so the relation is in canonical
form: every edge of an exchange pair carries the same one (ExchangeEdge.relation).
Seed.mutate_with_edge completes that edge to the mutated seed: B-tilde, the
c-vectors (from one read of row k) and the g-tilde row of the edge, and writes
nothing.  Seed.mutate is the composition of the two phases, the only mutation
path.  The exchange-graph BFS takes one exchange step per edge (the reverse step
of an edge it has found lands back on the seed it came from, so it is skipped),
reads the key of the mutated seed off the edge, and completes the step only for
a key that is new and under the seed cap.  Sign coherence is checked on every
column of every stored seed, and the records are built after the walk.
"""
from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .errors import (ConfigurationError, FrozenVertexError, InexactDivisionError,
                     InternalInvariantError)
from .quivers import IceQuiver, Vertex
from .symbolic import (
    LaurentPoly,
    Monomial,
    VarId,
    div_exact,
    eval_tropical,
    fvar,
    substitute,
    xvar,
    ycoef,
    zvar,
)


def _var_for_vertex(v: Vertex) -> VarId:
    return xvar(v.i) if v.r is None else zvar(v.i, v.r)


def _gen_for_vertex(v: Vertex) -> VarId:
    # a frozen companion i' is named after its mutable partner i: f_i
    return fvar(v.i) if v.r is None else zvar(v.i, v.r)


def _ycoef_for_vertex(v: Vertex) -> VarId:
    return ycoef(v.i) if v.r is None else ycoef(v.i, v.r)


@dataclass(frozen=True)
class SeedContext:
    """Fixed data of an initial seed (variable alphabet and ambient semifield), plus
    the records that every seed mutated from it shares, filled by `make_record`."""

    quiver0: IceQuiver
    mutables: tuple[Vertex, ...]
    xvars: tuple[VarId, ...]
    gens: tuple[VarId, ...]
    gen_rows: tuple[int, ...]  # matrix index of the frozen vertex of each generator
    ycoefs: tuple[VarId, ...]

    @functools.cached_property
    def mut_index(self) -> dict[Vertex, int]:
        return {v: k for k, v in enumerate(self.mutables)}

    @functools.cached_property
    def records(self) -> dict[tuple[int, ...], "ClusterVarRecord"]:
        """Checked record of every cluster variable built so far, keyed by g-vector."""
        return {}

    @functools.cached_property
    def mut_rows(self) -> tuple[int, ...]:
        """Matrix indices of the mutable vertices; mutation keeps the vertex order."""
        return tuple(self.quiver0.index(v) for v in self.mutables)

    @functools.cached_property
    def b0_cols(self) -> tuple[tuple[int, ...], ...]:
        """Initial exchange-matrix columns restricted to mutable rows."""
        return tuple(
            tuple(self.quiver0.entry(u, v) for u in self.mutables) for v in self.mutables
        )

    def coeff_exps(self, rowk: tuple[int, ...]) -> tuple[int, ...]:
        """Exponents of the ambient coefficient y_k, from row k of B-tilde: column k
        in the frozen row of each generator, read as b_rk = -b_kr."""
        return tuple([-rowk[r] for r in self.gen_rows])

    def coeffs_of(self, b: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
        """Exponents over `gens` of every ambient coefficient of the matrix b."""
        return tuple(self.coeff_exps(b[row]) for row in self.mut_rows)

    @functools.cached_property
    def y0(self) -> tuple[tuple[int, ...], ...]:
        """Ambient coefficients of the initial seed, as exponents over `gens`."""
        return self.coeffs_of(self.quiver0.b)

    @functools.cached_property
    def y0_assign(self) -> dict[VarId, tuple[int, ...]]:
        return dict(zip(self.ycoefs, self.y0))

    def yhat_monomial(self, j: int) -> Monomial:
        """yhat_j = y_j * prod_i x_i^{b_ij} over the initial seed."""
        return Monomial([*zip(self.gens, self.y0[j]), *zip(self.xvars, self.b0_cols[j])])

    @functools.cached_property
    def yhat(self) -> dict[VarId, Monomial]:
        """The substitution y_j -> yhat_j of the separation formula."""
        return {y: self.yhat_monomial(j) for j, y in enumerate(self.ycoefs)}

    @functools.cached_property
    def x_index(self) -> dict[VarId, int]:
        return {x: i for i, x in enumerate(self.xvars)}


def seed_context(quiver: IceQuiver) -> SeedContext:
    """The context of `quiver` as an initial seed.  Each vertex names its own variable,
    x_v when mutable and f_v when frozen, so labels i and i' that would name one
    variable twice raise ConfigurationError.  The generators sort by name."""
    mutables = quiver.mutable_vertices
    xvars = tuple(_var_for_vertex(v) for v in mutables)
    frozen = sorted(((_gen_for_vertex(v), v) for v in quiver.frozen_vertices),
                    key=lambda pair: pair[0])
    named: dict[VarId, Vertex] = {}
    for var, v in [*zip(xvars, mutables), *frozen]:
        if named.setdefault(var, v) != v:
            raise ConfigurationError(f"vertices {named[var]} and {v} both name the variable {var}")
    return SeedContext(
        quiver0=quiver,
        mutables=mutables,
        xvars=xvars,
        gens=tuple(var for var, _ in frozen),
        gen_rows=tuple(quiver.index(v) for _, v in frozen),
        ycoefs=tuple(_ycoef_for_vertex(v) for v in mutables),
    )


@dataclass(frozen=True)
class TermData:
    """One side of an exchange relation: frozen-generator exponents and the
    cluster-variable factors given by their g-vectors with multiplicities, in
    increasing g order."""

    fexp: tuple[int, ...]
    factors: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class ExchangeEdge:
    """One exchange x x' = M + M' taken from the seed `source`, and the extended
    g-vector of x'.  The M-term is the one the sign rule sums over, so g + g' is
    the sum of its factors' g-vectors; it carries kappa(L, M, N)."""

    vertex: Vertex
    old_g: tuple[int, ...]
    new_gtilde: tuple[int, ...]
    m_term: TermData
    mp_term: TermData
    source: "Seed" = field(compare=False, repr=False)

    @property
    def new_g(self) -> tuple[int, ...]:
        return self.new_gtilde[:len(self.old_g)]

    @property
    def relation(self) -> tuple:
        """The exchange relation as a hashable value: the unordered pair {g, g'} and the
        two terms.  Every edge of an exchange pair gives the same value."""
        return frozenset((self.old_g, self.new_g)), self.m_term, self.mp_term


@dataclass(frozen=True)
class Seed:
    """Labeled seed as integer data: quiver B-tilde, c-vectors (columns), g-tilde."""

    ctx: SeedContext
    quiver: IceQuiver
    cvecs: tuple[tuple[int, ...], ...]
    gtilde: tuple[tuple[int, ...], ...]

    @staticmethod
    def initial(quiver: IceQuiver) -> "Seed":
        ctx = seed_context(quiver)
        n, m = len(ctx.mutables), len(ctx.gens)
        return Seed(
            ctx=ctx,
            quiver=quiver,
            cvecs=tuple(tuple(int(t == j) for t in range(n)) for j in range(n)),
            gtilde=tuple(tuple(int(t == j) for t in range(n + m)) for j in range(n)),
        )

    @property
    def coeffs(self) -> tuple[tuple[int, ...], ...]:
        """Ambient tropical coefficients as exponents over `gens`, read off the
        frozen rows of B-tilde."""
        return self.ctx.coeffs_of(self.quiver.b)

    def epsilon(self, k: int) -> int:
        """Common sign of the k-th c-vector column (well defined by sign coherence)."""
        col = self.cvecs[k]
        lo, hi = min(col), max(col)
        if lo < 0 < hi:
            raise InternalInvariantError(
                f"c-vector column {k} of seed {self.key()} not sign-coherent: {col}")
        if lo == hi == 0:
            raise InternalInvariantError(f"c-vector column {k} of seed {self.key()} is zero")
        return 1 if hi > 0 else -1

    def mutate(self, v: Vertex) -> "Seed":
        return self.mutate_with_edge(self.exchange_step(v))

    def exchange_step(self, v: Vertex) -> ExchangeEdge:
        """The exchange step at v, read from this seed alone: x_k x'_k = M + M' with
        M = f^[-eps y_k]_+ prod x_i^[-eps b_ik]_+ and M' = f^[eps y_k]_+ prod x_i^[eps b_ik]_+,
        and the new extended g-vector by the sign rule: -g-tilde_k plus the M-term's
        g-tilde rows and f-exponents.  Column k of B-tilde is read once, as row k
        negated (b_ik = -b_ki)."""
        ctx = self.ctx
        k = ctx.mut_index.get(v)
        if k is None:
            raise FrozenVertexError(f"mutation at frozen or unknown vertex {v}")
        eps = self.epsilon(k)
        rows = ctx.mut_rows
        n = len(rows)
        rowk = self.quiver.b[rows[k]]
        gtilde = self.gtilde
        gk = gtilde[k]
        acc = None  # sum of the M-term's g-tilde rows with multiplicity
        m_factors, mp_factors = [], []
        for i, row in enumerate(rows):
            w = eps * rowk[row]  # -eps b_ik
            if w > 0:
                gi = gtilde[i]
                m_factors.append((gi[:n], w))
                if acc is None:
                    acc = gi if w == 1 else [w * e for e in gi]
                else:
                    acc = [a + w * e for a, e in zip(acc, gi)]
            elif w:
                mp_factors.append((gtilde[i][:n], -w))
        yk = ctx.coeff_exps(rowk)
        pos = tuple([a if a > 0 else 0 for a in yk])  # y_k / (y_k + 1) in the tropical semifield
        neg = tuple([-a if a < 0 else 0 for a in yk])  # 1 / (y_k + 1)
        m_fexp, mp_fexp = (neg, pos) if eps > 0 else (pos, neg)
        fexp = (0,) * n + m_fexp
        if acc is None:
            new_gtilde = tuple([f - b for b, f in zip(gk, fexp)])
        else:
            new_gtilde = tuple([a - b + f for a, b, f in zip(acc, gk, fexp)])
        m_factors.sort()
        mp_factors.sort()
        return ExchangeEdge(v, gk[:n], new_gtilde, TermData(m_fexp, tuple(m_factors)),
                            TermData(mp_fexp, tuple(mp_factors)), self)

    def mutate_with_edge(self, edge: ExchangeEdge) -> "Seed":
        """The exchange step `edge`, taken from this seed or an equal one, completed
        to the mutated seed: B-tilde, the c-vectors and the new g-tilde row."""
        ctx = self.ctx
        source = edge.source
        if source is not self and source != self:
            raise ConfigurationError(f"exchange step at {edge.vertex} with g = {edge.old_g} "
                                     f"was not taken from seed {self.key()}")
        v = edge.vertex
        k = ctx.mut_index[v]
        gtilde = self.gtilde[:k] + (edge.new_gtilde,) + self.gtilde[k + 1:]
        rows = ctx.mut_rows
        rowk = self.quiver.b[rows[k]]
        cvecs = _mutate_cvecs(self.cvecs, k, [rowk[row] for row in rows], self.epsilon(k))
        return Seed(ctx, self.quiver.mutate(v), cvecs, gtilde)

    def key(self) -> tuple:
        """Canonical unlabeled-seed key: sorted multiset of g-vectors."""
        n = len(self.ctx.mutables)
        return tuple(sorted(g[:n] for g in self.gtilde))


def _mutate_cvecs(cvecs, k, brow, eps) -> tuple[tuple[int, ...], ...]:
    """c-vector mutation at position k, from row k of the exchange matrix
    (brow[j] = b_kj): the principal coefficients mutated in their tropical
    semifield, on exponent vectors.

    c'_k = -c_k, and c'_j = c_j + b_kj [c_k]_+ for b_kj > 0 or
    c_j - b_kj min(c_k, 0) for b_kj < 0.  c_k is sign-coherent, of sign eps
    (Seed.epsilon), so one of the two is zero: only the b_kj of sign eps move c_j,
    by |b_kj| c_k.
    """
    ck = cvecs[k]
    new = list(cvecs)
    new[k] = tuple([-a for a in ck])
    for j, bkj in enumerate(brow):  # b_kk = 0 leaves position k as set above
        w = eps * bkj
        if w > 0:
            new[j] = tuple([a + w * s for a, s in zip(cvecs[j], ck)])
    return tuple(new)


@dataclass(frozen=True)
class ClusterVarRecord:
    """Per-variable principal data: (extended) g-vector, F-polynomial, denominator
    vector.  g-tilde and F fix the expansion: it is `separation(gtilde, fpoly, ctx)`."""

    gvec: tuple[int, ...]
    gtilde: tuple[int, ...]
    fpoly: LaurentPoly
    denominator: tuple[int, ...]


def _initial(g: tuple[int, ...]) -> bool:
    return sum(g) == 1 and g.count(0) == len(g) - 1  # a unit vector: x_i, with F = 1


def _exchange_fpoly(seed: Seed, j: int) -> LaurentPoly:
    """F at position j by the exchange relation there, with principal coefficients:
    (y^{|c_j|} prod F^M' + prod F^M) / F', F' the F of the other variable of the pair.
    Both ends of the pair give it: they carry one relation, and |c'_j| = |c_j|."""
    ctx, ys = seed.ctx, seed.ctx.ycoefs

    def known(g):
        record = ctx.records.get(g)
        if record is None and not _initial(g):
            raise InternalInvariantError(f"F-polynomial at position {j} of seed {seed.key()} "
                                         f"needs the record of g = {g}, which is not built yet")
        return LaurentPoly.one() if record is None else record.fpoly

    def side(exps, term):
        out = LaurentPoly.from_monomial(Monomial({y: abs(e) for y, e in zip(ys, exps) if e}))
        for g, mult in term.factors:
            out = out * known(g) ** mult
        return out

    edge = seed.exchange_step(ctx.mutables[j])
    try:
        return div_exact(side(seed.cvecs[j], edge.mp_term) + side((), edge.m_term),
                         known(edge.new_g))
    except InexactDivisionError as exc:
        raise InexactDivisionError(f"F-polynomial at position {j} of seed {seed.key()}, "
                                   f"g = {seed.gtilde[j][:len(ys)]}: {exc}") from exc


def make_record(seed: Seed, j: int) -> ClusterVarRecord:
    """The record for position j, after cross-checking the seed's integer data
    against the F-polynomial; built once per g-vector and shared by the context.

    A new F comes from the exchange relation at j, whose other variables need their
    records first.  The rest is linear in the size of F: one tropical evaluation for
    the frozen block of g-tilde, and one substitution F(yhat), whose x-exponents give
    the denominator vector off the support of F; the expansion is never built."""
    ctx = seed.ctx
    n = len(ctx.mutables)
    if type(j) is not int or not 0 <= j < n:  # a bool is not an int
        raise ConfigurationError(f"position {j!r} is not a mutable position of a seed "
                                 f"with {n} mutable vertices")
    gtilde = seed.gtilde[j]
    g = gtilde[:n]
    support = [(i, e) for i, e in enumerate(g) if e]  # g has few nonzero entries
    for k, c in enumerate(seed.cvecs):
        if sum([e * c[i] for i, e in support]) != (k == j):
            raise InternalInvariantError(
                f"tropical duality G^T C = I fails in seed {seed.key()} at position {j}, "
                f"column {k}: g = {g}, c = {c}")

    record = ctx.records.get(g)
    if record is None:
        fpoly = LaurentPoly.one() if _initial(g) else _exchange_fpoly(seed, j)
        if fpoly.constant_term() != 1:
            raise InternalInvariantError(f"F-polynomial constant term != 1 at g = {g}: {fpoly}")
        if any(c <= 0 for c in fpoly.coefficients()):
            raise InternalInvariantError(
                f"F-polynomial has non-positive coefficient at g = {g}: {fpoly}")
        full = g + tuple(-e for e in eval_tropical(fpoly, ctx.y0_assign))
        # d_i = max over e in supp F of -(g_i + (B0 e)_i), and (B0 e)_i is the exponent
        # of x_i in yhat^e: the least one over the terms, 0 where x_i is absent, as it is
        # from the image 1 of F's constant term
        xpos, least = ctx.x_index, [0] * n
        for mon in substitute(fpoly, ctx.yhat).monomials():
            for v, e in mon.items:
                i = xpos.get(v)  # None for a frozen generator
                if i is not None and e < least[i]:
                    least[i] = e
        denom = tuple([-gi - lo for gi, lo in zip(g, least)])
        ctx.records[g] = record = ClusterVarRecord(g, full, fpoly, denom)

    if record.gtilde != gtilde:
        raise InternalInvariantError(
            f"extended g-vector recursion disagrees with -trop(F)(y0) in seed {seed.key()} "
            f"at position {j}, g = {g}: {gtilde} vs {record.gtilde}")
    return record


def separation(gtilde: tuple[int, ...], fpoly: LaurentPoly, ctx: SeedContext) -> LaurentPoly:
    """Ambient expansion x^g f^bottom * F(yhat) of the variable with this extended
    g-vector and F; the bottom block is -trop(F)(y0), so f^bottom = 1 / F|_P(y).
    The yhat images are monomials, built once per context, so the substitution
    maps each term of F to one monomial."""
    lead = Monomial([(v, e) for v, e in zip(ctx.xvars + ctx.gens, gtilde) if e])
    return substitute(fpoly, ctx.yhat) * lead


@dataclass
class ExchangeGraph:
    ctx: SeedContext
    seeds: dict
    edges: list[ExchangeEdge]
    registry: dict[tuple[int, ...], ClusterVarRecord]
    exhaustive: bool

    @property
    def seed_count(self) -> int:
        return len(self.seeds)

    @property
    def variable_count(self) -> int:
        return len(self.registry)

    def report_json(self) -> str:
        variables = []
        for g in sorted(self.registry):
            rec = self.registry[g]
            variables.append(
                {
                    "g": list(rec.gvec),
                    "gtilde": list(rec.gtilde),
                    "F": str(rec.fpoly),
                    "denominator": list(rec.denominator),
                }
            )
        return json.dumps(
            {
                "seeds": self.seed_count,
                "edges": len(self.edges),
                "exhaustive": self.exhaustive,
                "variables": variables,
            },
            indent=2,
        )


def enumerate_exchange_graph(seed0: Seed, max_seeds: int = 10**6) -> ExchangeGraph:
    """Deterministic BFS of the exchange graph, deduplicating unlabeled seeds.

    Each edge gets one exchange step.  A seed is fixed by its cluster (Gekhtman-
    Shapiro-Vainshtein 2008), and a cluster minus one variable lies in exactly
    two clusters (Fomin-Zelevinsky, CA II), so mutating the stored seed at the
    end of an edge in the direction of the edge's new variable walks back to the
    seed it came from; that direction is marked by the new g-vector (the
    g-vectors of a seed are distinct) and skipped when the seed is dequeued, so
    that every walked direction gives a distinct edge.  In every other direction
    the exchange step gives the edge and, from its new g-vector, the key of the
    mutated seed; only a new key under the cap completes the step with
    `Seed.mutate_with_edge`, so a seed is built only when stored.  Sign coherence is
    checked on every column of every stored seed; after the walk, the records are
    built in storage order, each from the relation its seed was mutated along.  That
    relation reads only recorded variables when every variable of the start seed is
    initial or recorded, as in `Seed.initial` and a seed that `run_sequence` returned."""
    if type(max_seeds) is not int or max_seeds < 1:  # a bool is not an int
        raise ConfigurationError(f"the seed cap must be an int >= 1, got {max_seeds!r}")
    ctx = seed0.ctx
    n = len(ctx.mutables)
    for g in seed0.key():
        if not _initial(g) and g not in ctx.records:
            raise ConfigurationError(
                f"the start seed's variable g = {g} has no record: start from "
                f"Seed.initial or from a seed that run_sequence returned")
    seeds: dict[tuple, Seed] = {}
    queue: deque[tuple] = deque()
    # g-vectors of each queued seed whose directions walk back along an edge already found
    walked: dict[tuple, set[tuple[int, ...]]] = {}
    exhaustive = True

    def store(key: tuple, seed: Seed):
        seeds[key] = seed
        queue.append(key)
        walked[key] = set()
        for k in range(n):
            seed.epsilon(k)

    store(seed0.key(), seed0)
    edges: list[ExchangeEdge] = []
    while queue:
        key = queue.popleft()
        seed = seeds[key]
        skip = walked.pop(key)
        gs = [g[:n] for g in seed.gtilde]
        for k, v in enumerate(ctx.mutables):
            if gs[k] in skip:
                continue
            edge = seed.exchange_step(v)
            new_g = edge.new_g
            nk = tuple(sorted(gs[:k] + [new_g] + gs[k + 1:]))
            if nk not in seeds:
                if len(seeds) >= max_seeds:
                    exhaustive = False
                    continue
                store(nk, seed.mutate_with_edge(edge))
            back = walked.get(nk)
            if back is not None:  # nk is still queued
                back.add(new_g)
            edges.append(edge)
    registry: dict[tuple[int, ...], ClusterVarRecord] = {}
    for seed in seeds.values():
        for j, gtilde in enumerate(seed.gtilde):
            if gtilde[:n] not in registry:
                registry[gtilde[:n]] = make_record(seed, j)
    return ExchangeGraph(ctx, seeds, edges, registry, exhaustive)


def run_sequence(seed: Seed, vertices: Iterable[Vertex]) -> tuple[Seed, list[ExchangeEdge]]:
    """Apply a mutation sequence, building the record of each step's new variable,
    and return the final seed and per-step edges."""
    edges = []
    for v in vertices:
        edges.append(seed.exchange_step(v))
        seed = seed.mutate_with_edge(edges[-1])
        make_record(seed, seed.ctx.mut_index[v])
    return seed, edges
