"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the code paths they check: the reference seed
carries every cluster variable as two Laurent polynomials (ambient and
principal coefficients), each mutated by its exchange relation and one exact
division (its own leading-term reduction over Monomials with a pairwise
comparator, where the library reduces dense exponent tuples), instead of an
F-polynomial recurrence on integer seed data, and reads F off by the
polynomial-arithmetic substitution kept below; seed counting keys on that
seed's expansion strings instead of g-vectors; the reference exchange-graph BFS
mutates every seed in every direction instead of each edge once; thin
F-polynomials are sums over submodules; root enumeration uses the Tits form on
a box instead of reflection closure, and type-A Hom dimensions come from the
classical interval criterion.  Socles and Ext^1 dimensions are read off
explicit representations over Q (a rank of the outgoing maps, a Hom space)
instead of the Euler-form formulas they check.
The reference row reduction divides every pivot row in Fractions, where the
library reduces over the integers and refuses a pivot other than 1 or -1; the
pivots it meets are read off the reference reduction of each prefix of its rows.
The oracles that reduce rows share a dense reduction over whole rows, where the
library reduces sparse rows (only their nonzero entries).
The reference reflection-chain search is the plain
list-queue BFS that the library's search must reproduce state for state; a second reference reads every chain off one shared state
graph, as the least sinks along distances to the simple roots.  The reference
Hom space builds one dense row per equation and takes the null space of its
dense reduced row echelon form, where the library eliminates sparse rows.  The
reference reflection step takes a column basis of psi, completes it with
standard vectors and inverts the completed basis, where the library reads the
cokernel map off one reduced row echelon form of [psi | I].
The reference image of the exchange morphism takes a column basis of the Hom
vector at each vertex and solves one linear system per arrow, where the library
reads the arrow maps off one reduced row echelon form per vertex.  The
reference seed's tropical coefficients are `TropElem`s, which carry their
generator list and do semiring arithmetic, where the library keeps bare
exponent tuples; each of them, the initial ones too, sums the frozen rows that
carry a generator's name, where the library reads the one row of each generator
off `SeedContext.gen_rows`.  The reference AR translation tau applies the
Coxeter matrix -E^-1 E^T, where the library reads tau off the inverse of
tau^-1.  The reference M-term of an exchange edge is the term whose factors'
g-vectors sum to g + g', with kappa(L, 0, N) from the reference socles on rank
1, where the library reads it off the sign of the exchanged c-vector.  The
reference mutation walk of the
property check mutates forward and back at every step, where the library takes
a step at the vertex of the step before it from that step's back mutation.
The reference exchange step, seed mutation and matrix mutation are the
library's own as they stood when its results were built by the generated
frozen-dataclass __init__, from a full c-vector split and a negated copy of
g-tilde_k; the reference seed mutates its quiver with that copy.
The reference dense tropical evaluation is the library's own as it stood when it
took one list operation per generator for every variable of every term, where the
library reads each value once as its nonzero entries.
"""
from __future__ import annotations

import functools
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping

from clustermod import Seed
from clustermod.cartan import check_height_function
from clustermod.engine import (
    ClusterVarRecord,
    ExchangeEdge,
    ExchangeGraph,
    SeedContext,
    TermData,
    make_record,
)
from clustermod.errors import (
    ConfigurationError,
    FrozenVertexError,
    InexactDivisionError,
    InternalInvariantError,
    NotSubtractionFreeError,
    ShiftCaseUnsupported,
)
from clustermod.quivers import IceQuiver, Vertex, build_qcheck
from clustermod.reps import CQObject, QuiverRep, _mat, _zeros
from clustermod.symbolic import LaurentPoly, Monomial, VarId, fvar, zvar


# The tropical semifield as arithmetic on elements that carry their generator
# list, kept as it stood before the library reduced every tropical value to an
# exponent tuple over the frozen generators.


@dataclass(frozen=True)
class TropElem:
    """Element of Trop(gens): exponent vector with multiplication = +, oplus = min."""

    gens: tuple[VarId, ...]
    exps: tuple[int, ...]

    def __post_init__(self):
        if len(self.gens) != len(self.exps):
            raise ConfigurationError("generator/exponent length mismatch")

    @staticmethod
    def one(gens: tuple[VarId, ...]) -> "TropElem":
        return TropElem(gens, (0,) * len(gens))

    @staticmethod
    def generator(gens: tuple[VarId, ...], v: VarId, e: int = 1) -> "TropElem":
        return TropElem(gens, tuple(e if g == v else 0 for g in gens))

    @staticmethod
    def from_exponents(gens: tuple[VarId, ...], exps: Mapping[VarId, int]) -> "TropElem":
        unknown = set(exps) - set(gens)
        if unknown:
            raise ConfigurationError(f"exponents on non-generators: {unknown}")
        return TropElem(gens, tuple(exps.get(g, 0) for g in gens))

    def _check(self, other: "TropElem"):
        if self.gens != other.gens:
            raise ConfigurationError("tropical elements over different generator lists")

    @property
    def is_one(self) -> bool:
        return not any(self.exps)

    def exponent(self, v: VarId) -> int:
        return self.exps[self.gens.index(v)]

    def __mul__(self, other: "TropElem") -> "TropElem":
        self._check(other)
        return TropElem(self.gens, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __add__(self, other: "TropElem") -> "TropElem":
        """Auxiliary addition: componentwise minimum of exponent vectors."""
        self._check(other)
        return TropElem(self.gens, tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def inverse(self) -> "TropElem":
        return TropElem(self.gens, tuple(-a for a in self.exps))

    def __pow__(self, n: int) -> "TropElem":
        return TropElem(self.gens, tuple(n * a for a in self.exps))

    def as_monomial(self) -> Monomial:
        return Monomial({g: e for g, e in zip(self.gens, self.exps) if e})

    def __str__(self) -> str:
        return str(self.as_monomial())


def trop_add(a: TropElem, b: TropElem) -> TropElem:
    return a + b


# The polynomial-arithmetic substitution and the TropElem-arithmetic tropical
# evaluation, kept as they stood before the library maps terms straight to
# exponent dicts and exponent lists.


def oracle_substitute(p: LaurentPoly, assign: Mapping[VarId, Monomial]) -> LaurentPoly:
    """Ring-homomorphic image of p under monomial images; unassigned variables map
    to themselves."""
    out = LaurentPoly()
    for m, c in p._terms.items():
        acc = LaurentPoly.from_monomial(Monomial.one(), c)
        for v, e in m:
            img = assign.get(v)
            if img is None:
                acc = acc * Monomial({v: e})
                continue
            acc = acc * img ** e
        out = out + acc
    return out


def oracle_eval_tropical(f: LaurentPoly, assign: Mapping[VarId, TropElem]) -> TropElem:
    """Evaluate a subtraction-free Laurent polynomial in a tropical semifield.

    Coefficients are discarded; any negative coefficient is rejected since the
    tropical evaluation of a general expression is not defined term-by-term.
    """
    if f.is_zero:
        raise ConfigurationError("cannot tropically evaluate the zero polynomial")
    total: TropElem | None = None
    for m, c in f._terms.items():
        if c < 0:
            raise NotSubtractionFreeError("polynomial has a negative coefficient")
        val: TropElem | None = None
        for v, e in m:
            try:
                factor = assign[v] ** e
            except KeyError:
                raise ConfigurationError(f"no tropical value assigned to {v}") from None
            val = factor if val is None else val * factor
        if val is None:
            gens = next(iter(assign.values())).gens if assign else ()
            val = TropElem.one(tuple(gens))
        total = val if total is None else total + val
    assert total is not None
    return total


# The dense tropical evaluation on exponent tuples, kept as it stood before the
# library read each value once as its nonzero entries: every variable of every
# term costs one list operation per generator.


def oracle_dense_eval_tropical(f: LaurentPoly,
                               assign: Mapping[VarId, tuple[int, ...]]) -> tuple[int, ...]:
    if f.is_zero:
        raise ConfigurationError("cannot tropically evaluate the zero polynomial")
    low = None
    for m, c in f._terms.items():
        if c < 0:
            raise NotSubtractionFreeError("polynomial has a negative coefficient")
        vec = None
        for v, e in m:
            try:
                t = assign[v]
            except KeyError:
                raise ConfigurationError(f"no tropical value assigned to {v}") from None
            if vec is None:
                vec = [e * a for a in t]
            elif len(t) != len(vec):
                raise ConfigurationError("tropical values of different lengths")
            else:
                vec = [a + e * b for a, b in zip(vec, t)]
        if vec is None:
            vec = [0] * len(next(iter(assign.values()))) if assign else []
        if low is None:
            low = vec
        elif len(vec) != len(low):
            raise ConfigurationError("tropical values of different lengths")
        else:
            low = list(map(min, low, vec))
    return tuple(low)


# Exact division by leading-term reduction over Monomials, kept as it stood
# before the library reduced on dense exponent tuples: a pairwise merge
# comparator for the term order, and per-variable exponent bounds keyed on VarId.

_ORACLE_DIV_STEP_CAP = 1_000_000


def _oracle_var_key(v: VarId) -> tuple:
    """The canonical variable order: by family x, f, Y, z, y, then by index."""
    return "xfYzy".index(v.family), v.index


def oracle_cmp_monomials(a: Monomial, b: Monomial) -> int:
    """Lexicographic order over the canonical variable order; absent exponent = 0.

    Compatible with multiplication, so leading terms multiply; this makes
    exact division by leading-term reduction valid.
    """
    na, nb = len(a), len(b)
    pa = pb = 0
    while pa < na or pb < nb:
        if pa < na and (pb >= nb or _oracle_var_key(a[pa][0]) < _oracle_var_key(b[pb][0])):
            ea, eb = a[pa][1], 0
            pa += 1
        elif pb < nb and (pa >= na or _oracle_var_key(b[pb][0]) < _oracle_var_key(a[pa][0])):
            ea, eb = 0, b[pb][1]
            pb += 1
        else:
            ea, eb = a[pa][1], b[pb][1]
            pa += 1
            pb += 1
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


oracle_monomial_sort_key = functools.cmp_to_key(oracle_cmp_monomials)


def _oracle_leading_term(p: LaurentPoly) -> tuple[Monomial, int]:
    m = max(p._terms, key=oracle_monomial_sort_key)
    return m, p._terms[m]


def oracle_div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient q with q*b == a; raises InexactDivisionError otherwise.

    Division by a monomial is always exact in the Laurent ring.  For a general
    divisor the quotient is found by leading-term reduction, valid because the
    term order is compatible with multiplication.
    """
    if b.is_zero:
        raise InexactDivisionError("division by zero")
    if b.is_monomial:
        m, c = b.monomial_and_coefficient()
        inv = m.inverse()
        out: dict[Monomial, int] = {}
        for mm, cc in a._terms.items():
            if cc % c:
                raise InexactDivisionError("coefficient does not divide")
            out[mm * inv] = cc // c
        return LaurentPoly(out)
    if a.is_zero:
        return a
    box = _oracle_quotient_box(a, b)
    lt_m, lt_c = _oracle_leading_term(b)
    q: dict[Monomial, int] = {}
    r = a
    steps = 0
    while not r.is_zero:
        steps += 1
        if steps > _ORACLE_DIV_STEP_CAP:
            raise InexactDivisionError("division did not terminate")
        rm, rc = _oracle_leading_term(r)
        if rc % lt_c:
            raise InexactDivisionError("leading coefficient does not divide")
        qm = rm / lt_m
        for v, e in qm:
            lo, hi = box.get(v, (0, 0))
            if not lo <= e <= hi:
                raise InexactDivisionError("quotient exponent out of range")
        qc = rc // lt_c
        q[qm] = qc
        r = r + b * LaurentPoly.from_monomial(qm, -qc)
    return LaurentPoly(q)


def _oracle_quotient_box(a: LaurentPoly, b: LaurentPoly) -> dict[VarId, tuple[int, int]]:
    """Per-variable exponent bounds any exact quotient a/b must satisfy.

    Extremal exponents multiply without cancellation over a domain, so
    min_v(q) = min_v(a) - min_v(b) and max_v(q) = max_v(a) - max_v(b).
    An empty range proves inexactness immediately.
    """

    def ranges(p):
        lo: dict[VarId, int] = {}
        hi: dict[VarId, int] = {}
        nterms = 0
        counts: dict[VarId, int] = {}
        for m in p._terms:
            nterms += 1
            for v, e in m:
                counts[v] = counts.get(v, 0) + 1
                if v not in lo or e < lo[v]:
                    lo[v] = e
                if v not in hi or e > hi[v]:
                    hi[v] = e
        for v, c in counts.items():
            if c < nterms:  # variable absent from some term: exponent 0 occurs
                lo[v] = min(lo[v], 0)
                hi[v] = max(hi[v], 0)
        return {v: (lo[v], hi[v]) for v in lo}

    ra, rb = ranges(a), ranges(b)
    box = {}
    for v in set(ra) | set(rb):
        alo, ahi = ra.get(v, (0, 0))
        blo, bhi = rb.get(v, (0, 0))
        lo, hi = alo - blo, ahi - bhi
        if lo > hi:
            raise InexactDivisionError(f"no exact quotient: variable {v} range is empty")
        box[v] = (lo, hi)
    return box


# The exchange step, the seed mutation that completes it, the c-vector mutation,
# the matrix mutation and the read-off of y_k, kept verbatim in their plainer form
# from before the exchange step was made leaner (methods turned into functions of
# `self`, calls renamed to these copies).  The library's copies are checked
# against these step by step; OracleSeed mutates its quiver with them.


def oracle_exchange_step(self: Seed, v: Vertex) -> ExchangeEdge:
    """The exchange step at v, read from this seed alone: x_k x'_k = M + M' with
    M = f^[-eps y_k]_+ prod x_i^[-eps b_ik]_+ and M' = f^[eps y_k]_+ prod x_i^[eps b_ik]_+,
    and the new extended g-vector by the sign rule: -g-tilde_k plus the M-term's
    g-tilde rows and f-exponents.  Column k of B-tilde is read once, as row k
    negated (b_ik = -b_ki)."""
    ctx = self.ctx
    k = ctx.mut_index.get(v)
    if k is None:
        raise FrozenVertexError(f"mutation at frozen or unknown vertex {v}")
    n = len(ctx.mutables)
    eps = self.epsilon(k)
    rowk = self.quiver.b[ctx.mut_rows[k]]
    gtilde = self.gtilde
    acc = [-x for x in gtilde[k]]
    m_factors, mp_factors = [], []
    for i, row in enumerate(ctx.mut_rows):
        w = eps * rowk[row]  # -eps b_ik
        if w > 0:
            m_factors.append((gtilde[i][:n], w))
            acc = [a + w * e for a, e in zip(acc, gtilde[i])]
        elif w:
            mp_factors.append((gtilde[i][:n], -w))
    yk = oracle_coeff_exps(ctx, rowk)
    pos = tuple([a if a > 0 else 0 for a in yk])  # y_k / (y_k + 1) in the tropical semifield
    neg = tuple([-a if a < 0 else 0 for a in yk])  # 1 / (y_k + 1)
    m_fexp, mp_fexp = (neg, pos) if eps > 0 else (pos, neg)
    acc[n:] = [a + e for a, e in zip(acc[n:], m_fexp)]
    return ExchangeEdge(v, gtilde[k][:n], tuple(acc),
                        TermData(m_fexp, tuple(sorted(m_factors))),
                        TermData(mp_fexp, tuple(sorted(mp_factors))), self)


def oracle_coeff_exps(self: SeedContext, rowk: tuple[int, ...]) -> tuple[int, ...]:
    """Exponents of the ambient coefficient y_k, from row k of B-tilde: column k
    summed, for each generator, over the frozen vertices of the initial quiver that
    carry its name (f_i for i and i', z_{i,r} for (i, r)), read as b_rk = -b_kr."""
    quiver = self.quiver0

    def name(v: Vertex) -> VarId:
        return fvar(v.i) if v.r is None else zvar(v.i, v.r)

    return tuple([-sum([rowk[quiver.index(v)] for v in quiver.frozen_vertices if name(v) == g])
                  for g in self.gens])


def oracle_mutate_with_edge(self: Seed, edge: ExchangeEdge) -> Seed:
    """The exchange step `edge`, taken from this seed or an equal one, completed
    to the mutated seed: B-tilde, the c-vectors and the new g-tilde row."""
    ctx = self.ctx
    if edge.source is not self and edge.source != self:
        raise ConfigurationError(f"exchange step at {edge.vertex} with g = {edge.old_g} "
                                 f"was not taken from seed {self.key()}")
    k = ctx.mut_index[edge.vertex]
    gtilde = self.gtilde[:k] + (edge.new_gtilde,) + self.gtilde[k + 1:]
    rowk = self.quiver.b[ctx.mut_rows[k]]
    cvecs = oracle_mutate_cvecs(self.cvecs, k, [rowk[row] for row in ctx.mut_rows])
    return Seed(ctx, oracle_quiver_mutate(self.quiver, edge.vertex), cvecs, gtilde)


def oracle_mutate_cvecs(cvecs, k, brow) -> tuple[tuple[int, ...], ...]:
    """c-vector mutation at position k, from row k of the exchange matrix
    (brow[j] = b_kj): the principal coefficients mutated in their tropical
    semifield, on exponent vectors.

    c'_k = -c_k, and c'_j = c_j + b_kj [c_k]_+ for b_kj > 0 or
    c_j - b_kj min(c_k, 0) for b_kj < 0.
    """
    ck = cvecs[k]
    pos = [a if a > 0 else 0 for a in ck]
    neg = [a if a < 0 else 0 for a in ck]
    new = list(cvecs)
    new[k] = tuple([-a for a in ck])
    for j, bkj in enumerate(brow):  # b_kk = 0 leaves position k as set above
        if bkj:
            step = pos if bkj > 0 else neg
            if any(step):
                w = abs(bkj)
                new[j] = tuple([a + w * s for a, s in zip(cvecs[j], step)])
    return tuple(new)


def oracle_quiver_mutate(self: IceQuiver, k: Vertex) -> IceQuiver:
    """Matrix mutation at a mutable vertex; frozen-frozen entries stay 0."""
    kk = self.index(k)
    mask = self._frozen_mask
    if mask[kk]:
        raise FrozenVertexError(f"mutation at frozen vertex {k}")
    rowk = self.b[kk]
    # besides row and column k, b_pq changes only where b_pk * b_kq > 0, to
    # b_pq + |b_pk| b_kq, so only the rows of the neighbours of k are rebuilt,
    # each across to the neighbours on the other side of k (b_pk = -rowk[p])
    outs = [q for q, e in enumerate(rowk) if e > 0]
    ins = [q for q, e in enumerate(rowk) if e < 0]
    new = list(self.b)
    new[kk] = tuple([-e for e in rowk])
    for ps, qs in ((ins, outs), (outs, ins)):
        qs_mutable = [q for q in qs if not mask[q]]
        for p in ps:
            row = list(self.b[p])
            row[kk] = rowk[p]
            w = abs(rowk[p])
            for q in qs_mutable if mask[p] else qs:
                row[q] += w * rowk[q]
            new[p] = tuple(row)
    # same labels and frozen set, and mutation keeps B skew-symmetric, so the
    # checks of __post_init__ hold by construction and are not rerun
    out = object.__new__(IceQuiver)
    out.__dict__.update(vertices=self.vertices, frozen=self.frozen, b=tuple(new),
                        _index=self._index, _frozen_mask=mask)
    return out


def _mutate_cluster(cluster, coeffs, gens, k, bcol):
    """Exchange relation at position k over the given tropical coefficients."""
    one_t = TropElem.one(gens)
    yk = coeffs[k]
    pos = LaurentPoly.one()
    neg = LaurentPoly.one()
    for i, bi in enumerate(bcol):
        if bi > 0:
            pos = pos * cluster[i] ** bi
        elif bi < 0:
            neg = neg * cluster[i] ** (-bi)
    num = LaurentPoly.from_monomial(yk.as_monomial()) * pos + neg
    new_cluster = list(cluster)
    new_cluster[k] = oracle_div_exact(num, cluster[k]) * (yk + one_t).inverse().as_monomial()
    new_coeffs = list(coeffs)
    new_coeffs[k] = yk.inverse()
    for j in range(len(cluster)):
        if j == k:
            continue
        bkj = -bcol[j]
        if bkj > 0:
            new_coeffs[j] = coeffs[j] * yk ** bkj * (yk + one_t) ** (-bkj)
        elif bkj < 0:
            new_coeffs[j] = coeffs[j] * (yk + one_t) ** (-bkj)
    return tuple(new_cluster), tuple(new_coeffs)


@dataclass(frozen=True)
class OracleRecord:
    gvec: tuple[int, ...]
    fpoly: LaurentPoly
    expansion: LaurentPoly
    denominator: tuple[int, ...]


@dataclass(frozen=True)
class OracleSeed:
    """Reference seed over the alphabet of an engine seed's context."""

    ctx: object
    quiver: object
    cluster: tuple[LaurentPoly, ...]
    coeffs: tuple[TropElem, ...]
    pcluster: tuple[LaurentPoly, ...]
    pcoeffs: tuple[TropElem, ...]

    @staticmethod
    def initial(seed0: Seed) -> "OracleSeed":
        ctx = seed0.ctx
        xs = tuple(LaurentPoly.from_monomial(Monomial({v: 1})) for v in ctx.xvars)
        ys = tuple(TropElem.generator(ctx.ycoefs, y) for y in ctx.ycoefs)
        # the initial coefficients by the reference read-off, not the engine's ctx.y0
        b0 = ctx.quiver0.b
        y0 = tuple(TropElem(ctx.gens, oracle_coeff_exps(ctx, b0[ctx.quiver0.index(v)]))
                   for v in ctx.mutables)
        return OracleSeed(ctx, ctx.quiver0, xs, y0, xs, ys)

    def mutate(self, v) -> "OracleSeed":
        ctx = self.ctx
        k = ctx.mut_index[v]
        bcol = tuple(self.quiver.entry(u, v) for u in ctx.mutables)
        cluster, coeffs = _mutate_cluster(self.cluster, self.coeffs, ctx.gens, k, bcol)
        pcluster, pcoeffs = _mutate_cluster(self.pcluster, self.pcoeffs, ctx.ycoefs, k, bcol)
        return OracleSeed(ctx, oracle_quiver_mutate(self.quiver, v), cluster, coeffs,
                          pcluster, pcoeffs)

    def key(self) -> tuple[str, ...]:
        return tuple(sorted(str(p) for p in self.cluster))

    def record(self, j: int) -> OracleRecord:
        """F by specialising the principal expansion at x = 1, g by its degree."""
        ctx = self.ctx
        pexp = self.pcluster[j]
        fpoly = oracle_substitute(pexp, {v: Monomial.one() for v in ctx.xvars})
        expansion = self.cluster[j]
        denom = None
        for mon, _ in expansion.terms():
            exps = dict(mon)
            vec = [-exps.get(x, 0) for x in ctx.xvars]
            denom = vec if denom is None else [max(a, b) for a, b in zip(denom, vec)]
        return OracleRecord(_homogeneous_degree(pexp, ctx), fpoly, expansion, tuple(denom))


def _homogeneous_degree(pexp: LaurentPoly, ctx) -> tuple[int, ...]:
    """The common degree of all terms, with deg x_i = e_i and deg y_j = -b_j."""
    n = len(ctx.mutables)
    xidx = {v: i for i, v in enumerate(ctx.xvars)}
    yidx = {v: j for j, v in enumerate(ctx.ycoefs)}
    degrees = set()
    for mon, _ in pexp.terms():
        vec = [0] * n
        for v, e in mon:
            if v in xidx:
                vec[xidx[v]] += e
            else:
                col = ctx.b0_cols[yidx[v]]
                for t in range(n):
                    vec[t] -= e * col[t]
        degrees.add(tuple(vec))
    assert len(degrees) == 1, "principal expansion is not g-homogeneous"
    return degrees.pop()


def oracle_bfs(seed0: Seed, cap: int = 10**5) -> dict[tuple[str, ...], OracleSeed]:
    """BFS of unlabeled reference seeds keyed by their sorted expansion strings."""
    start = OracleSeed.initial(seed0)
    seen = {start.key(): start}
    queue = deque([start])
    while queue:
        seed = queue.popleft()
        for v in seed.ctx.mutables:
            nxt = seed.mutate(v)
            k = nxt.key()
            if k not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("oracle cap exceeded")
                seen[k] = nxt
                queue.append(nxt)
    return seen


def oracle_seed_count(seed0: Seed, cap: int = 10**5) -> int:
    return len(oracle_bfs(seed0, cap))


def oracle_records(seed0: Seed) -> dict[tuple[int, ...], OracleRecord]:
    """Reference record of every cluster variable, keyed by g-vector."""
    out = {}
    done = set()
    for seed in oracle_bfs(seed0).values():
        for j, x in enumerate(seed.cluster):
            if x in done:
                continue
            done.add(x)
            rec = seed.record(j)
            assert rec.gvec not in out, f"two cluster variables share the g-vector {rec.gvec}"
            out[rec.gvec] = rec
    return out


def oracle_full_bfs(seed0: Seed, max_seeds: int = 10**6) -> ExchangeGraph:
    """The exchange-graph BFS that mutates every stored seed in all n directions,
    so each edge is computed twice; the engine mutates each edge once."""
    if max_seeds < 1:
        raise ConfigurationError(f"the seed cap must be at least 1, got {max_seeds}")
    ctx = seed0.ctx
    key0 = seed0.key()
    seeds = {key0: seed0}
    registry: dict[tuple[int, ...], ClusterVarRecord] = {}
    exhaustive = True

    def register(seed: Seed):
        n = len(ctx.mutables)
        for j in range(len(ctx.mutables)):
            g = seed.gtilde[j][:n]
            if g not in registry:
                registry[g] = make_record(seed, j)

    register(seed0)
    queue = deque([key0])
    edges: dict[tuple, ExchangeEdge] = {}
    while queue:
        key = queue.popleft()
        seed = seeds[key]
        for v in ctx.mutables:
            edge = seed.exchange_step(v)
            new_seed = seed.mutate_with_edge(edge)
            nk = new_seed.key()
            known = nk in seeds
            if not known:
                if len(seeds) >= max_seeds:
                    exhaustive = False
                    continue
                seeds[nk] = new_seed
                queue.append(nk)
                register(new_seed)
            ekey = (min(key, nk), max(key, nk))
            if ekey not in edges:
                edges[ekey] = edge
    return ExchangeGraph(ctx, seeds, list(edges.values()), registry, exhaustive)


def oracle_thin_fpoly(dims: tuple[int, ...], arrows, ycoefs) -> LaurentPoly:
    """F of a thin module: sum of y^S over the successor-closed subsets S of its support.

    A subset of the support spans a submodule of a thin module exactly when it
    is closed under the arrows inside the support.
    """
    supp = [i for i, d in enumerate(dims, start=1) if d]
    inner = [(s, t) for s, t in arrows if s in supp and t in supp]
    out = LaurentPoly()
    for size in range(len(supp) + 1):
        for sub in combinations(supp, size):
            if all(t in sub for s, t in inner if s in sub):
                out = out + LaurentPoly.from_monomial(Monomial({ycoefs[i - 1]: 1 for i in sub}))
    return out


def oracle_positive_roots(cartan, box: int = 6) -> set[tuple[int, ...]]:
    """Nonzero nonnegative vectors of Tits form 1 inside a bounding box."""
    n = cartan.rank
    out = set()

    def tits(v):
        val = sum(x * x for x in v)
        for a, b in cartan.edges:
            val -= v[a - 1] * v[b - 1]
        return val

    def rec(prefix):
        if len(prefix) == n:
            if any(prefix) and tits(prefix) == 1:
                out.add(tuple(prefix))
            return
        for x in range(box + 1):
            rec(prefix + [x])

    rec([])
    return out


def oracle_hom_dim_typeA_linear(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Hom dimension between interval modules of the linear A_n quiver 1->2->...->n.

    For intervals [a1,a2] and [b1,b2] there is a nonzero morphism exactly when
    b1 <= a1 <= b2 <= a2, and then the space is one-dimensional.
    """

    def interval(d):
        ones = [i for i, x in enumerate(d) if x == 1]
        assert all(x in (0, 1) for x in d) and ones == list(range(ones[0], ones[-1] + 1))
        return ones[0], ones[-1]

    a1, a2 = interval(a)
    b1, b2 = interval(b)
    return 1 if b1 <= a1 <= b2 <= a2 else 0


def orientations(cartan) -> list[dict[int, int]]:
    """A height function for every orientation of the Dynkin tree."""
    out = []
    for signs in product((1, -1), repeat=len(cartan.edges)):
        step = dict(zip(cartan.edges, signs))
        xi = {1: 0}
        while len(xi) < cartan.rank:
            for (a, b), s in step.items():
                if a in xi and b not in xi:
                    xi[b] = xi[a] - s
                elif b in xi and a not in xi:
                    xi[a] = xi[b] + s
        out.append(check_height_function(cartan, xi))
    return out


def _rank(rows: list[list[int | Fraction]]) -> int:
    """Rank by Gaussian elimination over Q, in Fractions."""
    rows = [[Fraction(a) for a in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def oracle_socle(rc, obj) -> tuple[int, ...]:
    """soc_i(M) = dim M_i - rank of the stacked maps out of vertex i; zero on shifts."""
    if not obj.is_module:
        return (0,) * rc.n
    rep = rc.rep(obj.dims)
    soc = []
    for i in rc.cartan.vertices:
        stacked = [list(row) for s, t, m in rep.mats if s == i for row in m]
        soc.append(rep.dims[i - 1] - _rank(stacked))
    return tuple(soc)


def oracle_euler(arrows, x, y) -> int:
    return sum(a * b for a, b in zip(x, y)) - sum(x[s - 1] * y[t - 1] for s, t in arrows)


def oracle_ext1_mod(rc, x, y) -> int:
    """dim Ext^1(X, Y) = dim Hom(X, Y) - <x, y>, with Hom from the dense solve."""
    hom_dim, _ = oracle_hom(rc, rc.rep(x.dims), rc.rep(y.dims))
    return hom_dim - oracle_euler(rc.arrows, x.dims, y.dims)


def oracle_exchange_pairs(rc) -> set[frozenset[str]]:
    """Pairs with Ext^1 = 1 in the cluster category, Ext^1 between modules from Hom."""
    out = set()
    for x, y in combinations(rc.indecomposables(), 2):
        if x.is_module and y.is_module:
            ext = oracle_ext1_mod(rc, x, y) + oracle_ext1_mod(rc, y, x)
        elif x.is_module or y.is_module:
            shift, mod = (y, x) if x.is_module else (x, y)
            ext = mod.dims[shift.i - 1]  # dim Hom(P_i, M) = dim M_i
        else:
            ext = 0
        if ext == 1:
            out.add(frozenset((str(x), str(y))))
    return out


def oracle_m_term(edge: ExchangeEdge, rc, obj_by_g) -> TermData:
    """The M-term of an exchange edge by g-vector additivity: the term whose factors'
    g-vectors sum to g + g'.  On rank 1 the exchange column is zero, both sums are
    empty and equal g + g' = 0, and the M-term is the one whose exponents equal
    kappa(L, 0, N) = soc L + soc N."""
    gsum = tuple(a + b for a, b in zip(edge.old_g, edge.new_g))

    def g_total(term):
        total = [0] * len(gsum)
        for fg, mult in term.factors:
            total = [t + mult * e for t, e in zip(total, fg)]
        return tuple(total)

    hits = [term for term in (edge.m_term, edge.mp_term) if g_total(term) == gsum]
    if len(hits) == 2 and not edge.m_term.factors and not edge.mp_term.factors:
        kappa = tuple(a + b for a, b in zip(oracle_socle(rc, obj_by_g[edge.old_g]),
                                            oracle_socle(rc, obj_by_g[edge.new_g])))
        hits = [term for term in hits if term.fexp == kappa]
    assert len(hits) == 1, f"no single M-term on {edge}"
    return hits[0]


def oracle_rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with every pivot row divided in Fractions."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((rr for rr in range(r, len(mat)) if mat[rr][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for rr in range(len(mat)):
            if rr != r and mat[rr][c] != 0:
                f = mat[rr][c]
                mat[rr] = [a - f * b for a, b in zip(mat[rr], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def oracle_pivots_met(rows: list[list[int]], ncols: int) -> list[tuple[int, Fraction]]:
    """(column, value) of the pivot that each row meets when the rows are reduced one
    at a time: the leading entry of the row minus, at each pivot column of the rows
    before it, its entry times that pivot's row of their reference rref.  A row that
    reduces to zero meets none."""
    met = []
    for k, row in enumerate(rows):
        ref, pivots = oracle_rref([[Fraction(v) for v in r] for r in rows[:k]], ncols)
        rest = [Fraction(v) for v in row]
        for prow, pc in zip(ref, pivots):
            rest = [a - row[pc] * b for a, b in zip(rest, prow)]
        lead = next((c for c, v in enumerate(rest) if v), None)
        if lead is not None:
            met.append((lead, rest[lead]))
    return met


# The dense row reduction, kept as it stood before the library reduced sparse rows
# only: ints stay ints, and a Fraction appears only after an inexact pivot division.
# The oracles below that reduce rows call it.  It divides through Fraction itself,
# not through the library's division helpers, so a fault there cannot hide here.


def _oracle_fraction(x, pv=1):
    """x / pv over Q: an int when the quotient is integral, else a Fraction."""
    q = Fraction(x) / pv
    return q.numerator if q.denominator == 1 else q


def oracle_dense_rref(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over Q: its nonzero rows and the pivot columns."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    fractions = False
    r = 0
    for c in range(ncols):
        pr = next((rr for rr in range(r, len(mat)) if mat[rr][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        if pv != 1:
            mat[r] = [_oracle_fraction(x, pv) for x in mat[r]]
        prow = mat[r]
        # while every pivot row is integral, elimination keeps the result integral
        fractions = fractions or any(type(x) is not int for x in prow)
        for rr in range(len(mat)):
            f = mat[rr][c]
            if rr != r and f != 0:
                mat[rr] = [a - f * b for a, b in zip(mat[rr], prow)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    if fractions:
        return [[_oracle_fraction(x) for x in row] for row in mat[:r]], pivots
    return mat[:r], pivots


# The dense Hom solve, kept as it stood before the library solved the Hom system
# with sparse rows: one dense row per equation, and the null space of the dense
# reduced row echelon form.


def oracle_null_space(rows: list[list], ncols: int) -> list[tuple]:
    """Basis of {x : rows x = 0} as length-ncols vectors (no rows: the unit vectors)."""
    rref, pivots = oracle_dense_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [0] * ncols
        x[fc] = 1
        for row, pc in zip(rref, pivots):
            x[pc] = -row[fc]
        basis.append(tuple(x))
    return basis


def oracle_hom_equations(rc, x: QuiverRep, y: QuiverRep):
    """The nonzero dense rows of the Hom equations, per arrow a: s -> t, per row r of
    Y_t and column c of X_s, and the unknowns' offsets by vertex and their number."""
    offs = {}
    total = 0
    for i in rc.cartan.vertices:
        offs[i] = total
        total += y.dims[i - 1] * x.dims[i - 1]
    rows = []
    for s, t in rc.arrows:
        xa = x.matrix(s, t)
        ya = y.matrix(s, t)
        for r in range(y.dims[t - 1]):
            for c in range(x.dims[s - 1]):
                row = [0] * total
                # (Y_a H_s)[r][c]
                for u in range(y.dims[s - 1]):
                    row[offs[s] + u * x.dims[s - 1] + c] += ya[r][u]
                # -(H_t X_a)[r][c]
                for u in range(x.dims[t - 1]):
                    row[offs[t] + r * x.dims[t - 1] + u] -= xa[u][c]
                if any(v != 0 for v in row):
                    rows.append(row)
    return rows, offs, total


def oracle_hom(rc, x: QuiverRep, y: QuiverRep):
    """Morphism space: dimension and a basis of vertex-matrix families."""
    rows, offs, total = oracle_hom_equations(rc, x, y)
    basis_vecs = oracle_null_space(rows, total)
    basis = []
    for vec in basis_vecs:
        fam = {}
        for i in rc.cartan.vertices:
            di, dx = y.dims[i - 1], x.dims[i - 1]
            fam[i] = _mat(
                [[vec[offs[i] + r * dx + c] for c in range(dx)] for r in range(di)]
            )
        basis.append(fam)
    return len(basis), basis


def _flip(arrows, k):
    return tuple(sorted((t, s) if k in (s, t) else (s, t) for s, t in arrows))


def oracle_reflection_chain(rc, alpha):
    """BFS over (orientation, root) states down to a simple root, as
    [(arrows_0, k_0), ..., (arrows_m, j)] with k_t a sink of arrows_t."""
    def unit(v):
        return tuple(1 if w == v else 0 for w in rc.cartan.vertices)

    start = (rc.arrows, alpha)
    prev: dict = {start: None}
    queue = [start]
    goal = None
    while queue:
        state = queue.pop(0)
        arrows, beta = state
        j = next((v for v in rc.cartan.vertices if beta == unit(v)), None)
        if j is not None:
            goal = (state, j)
            break
        sinks = [v for v in rc.cartan.vertices if not any(s == v for s, _ in arrows)]
        for k in sinks:
            s = 2 * beta[k - 1] - sum(beta[j2 - 1] for j2 in rc.cartan.neighbors(k))
            gamma = tuple(
                beta[v - 1] if v != k else beta[k - 1] - s for v in rc.cartan.vertices
            )
            if any(x < 0 for x in gamma):
                continue
            nxt = (_flip(arrows, k), gamma)
            if nxt not in prev:
                prev[nxt] = (state, k)
                queue.append(nxt)
    state, j = goal
    steps = []
    cur = state
    while prev[cur] is not None:
        parent, k = prev[cur]
        steps.append((parent[0], k))
        cur = parent
    steps.reverse()
    steps.append((state[0], j))
    return steps


def oracle_shortest_chains(rc) -> dict[tuple[int, ...], list]:
    """Every root's reflection chain, in the form oracle_reflection_chain returns,
    as the lexicographically least (by sink) shortest path from (base orientation,
    root) to a simple root.

    One state graph serves every root: its distances to the simple roots come from
    one BFS along reversed edges, and each chain walks from its root, taking at every
    state the least sink whose successor is one step closer.
    """
    vertices = rc.cartan.vertices
    units = {tuple(int(w == v) for w in vertices): v for v in vertices}
    succ: dict = {}  # state -> [(sink, next state)], sinks in vertex order
    todo = [(rc.arrows, alpha) for alpha in rc.roots]
    while todo:
        state = todo.pop()
        if state in succ:
            continue
        arrows, beta = state
        succ[state] = []
        if beta in units:
            continue
        for k in vertices:
            if any(s == k for s, _ in arrows):
                continue
            s_k = 2 * beta[k - 1] - sum(beta[j - 1] for j in rc.cartan.neighbors(k))
            gamma = tuple(beta[v - 1] - (s_k if v == k else 0) for v in vertices)
            if min(gamma) >= 0:
                nxt = (_flip(arrows, k), gamma)
                succ[state].append((k, nxt))
                todo.append(nxt)
    preds: dict = {state: [] for state in succ}
    for state, outs in succ.items():
        for _, nxt in outs:
            preds[nxt].append(state)
    dist = {state: 0 for state in succ if state[1] in units}
    queue = deque(dist)
    while queue:
        state = queue.popleft()
        for prev in preds[state]:
            if prev not in dist:
                dist[prev] = dist[state] + 1
                queue.append(prev)
    chains = {}
    for alpha in rc.roots:
        state = (rc.arrows, alpha)
        steps = []
        while dist[state]:
            k, state_next = min((k, nxt) for k, nxt in succ[state]
                                if dist.get(nxt) == dist[state] - 1)
            steps.append((state[0], k))
            state = state_next
        steps.append((state[0], units[state[1]]))
        chains[alpha] = steps
    return chains


# The three-reduction reflection step, kept as it stood before the library read
# the cokernel map off one reduced row echelon form of [psi | I]: a column basis
# of psi, its completion by standard vectors, and the inverse of the completed
# basis.  It takes the orientation in which k is a source.


def _column_basis(m, nrows: int, ncols: int) -> list[tuple]:
    """Independent columns of m, as length-nrows vectors."""
    if nrows == 0 or ncols == 0:
        return []
    _, pivots = oracle_dense_rref([list(row) for row in m], ncols)
    return [tuple(m[r][c] for r in range(nrows)) for c in pivots]


def _invert(m, n: int, where: str):
    rows = [list(m[r]) + [int(c == r) for c in range(n)] for r in range(n)]
    rref, pivots = oracle_dense_rref(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        raise InternalInvariantError(f"matrix is singular in {where}")
    return _mat([row[n:] for row in rref])


def oracle_reflect_minus(rc, rep: QuiverRep, k: int, arrows) -> QuiverRep:
    """Inverse reflection functor at a source k of rep's quiver `arrows`.

    Produces a representation of the quiver with all arrows at k reversed.
    """
    dims = rep.dims
    targets = sorted(t for s, t in arrows if s == k)
    blocks = {t: rep.matrix(k, t) for t in targets}
    total = sum(dims[t - 1] for t in targets)
    dk = dims[k - 1]
    stacked = []
    for t in targets:
        for r in range(dims[t - 1]):
            stacked.append(list(blocks[t][r]))
    # coker of psi: M_k -> direct sum of targets
    img = _column_basis(_mat(stacked) if stacked else _zeros(0, dk), total, dk)
    rank = len(img)
    new_dk = total - rank
    # complete the image to a basis of the ambient space with standard vectors: the
    # pivot columns of [img | I] past the image block are the first ones independent
    ident = [[int(r == e) for e in range(total)] for r in range(total)]
    _, pivots = oracle_dense_rref([[v[r] for v in img] + ident[r] for r in range(total)],
                                  rank + total)
    cols = img + [ident[e - rank] for e in pivots[rank:]]
    p = _mat([[cols[c][r] for c in range(total)] for r in range(total)])
    p_inv = _invert(p, total, f"the reflection of dimension vector {dims} at vertex {k}")
    proj = tuple(p_inv[rank + r] for r in range(new_dk))  # new_dk x total

    new_dims = tuple(new_dk if v == k else dims[v - 1] for v in rc.cartan.vertices)
    new_arrows = tuple(sorted((t, s) if s == k else (s, t) for s, t in arrows))
    mats = []
    offset = {}
    acc = 0
    for t in targets:
        offset[t] = acc
        acc += dims[t - 1]
    for s, t in new_arrows:
        if t == k:
            dt = dims[s - 1]
            block = _mat(
                [[proj[r][offset[s] + c] for c in range(dt)] for r in range(new_dk)]
            )
            mats.append((s, t, block))
        else:
            mats.append((s, t, rep.matrix(s, t)))
    return QuiverRep(new_dims, tuple(mats))


# The solve-based image of the exchange morphism, kept as it stood before the
# library read the arrow maps off one reduced row echelon form per vertex.


def _matmul(a, b, n: int, m: int, p: int):
    # a: n x m, b: m x p
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)) for i in range(n)
    )


def oracle_solve_matrix(a, b, nrows: int, acols: int, bcols: int, where: str):
    """Solve a Z = b column by column; a must have full column rank on span(b)."""
    rows = [list(a[r]) + list(b[r]) for r in range(nrows)]
    rref, pivots = oracle_dense_rref(rows, acols + bcols)
    z = [[0] * bcols for _ in range(acols)]
    for row, pc in zip(rref, pivots):
        if pc >= acols:
            raise InternalInvariantError(f"inconsistent linear system in solve for {where}")
        for j in range(bcols):
            z[pc][j] = row[acols + j]
    return _mat(z)


def oracle_im_h(rc, l_obj, n_obj) -> QuiverRep:
    """Image of the (unique up to scalar) morphism tau^-1 L -> N, module case only."""
    rc.check_object(l_obj)
    rc.check_object(n_obj)
    lt = rc.tau_inv(l_obj)
    if not lt.is_module or not n_obj.is_module:
        raise ShiftCaseUnsupported("tau^-1 L or N is not a module")
    euler = rc.euler_form(lt.dims, n_obj.dims)
    if euler <= 0:
        raise ShiftCaseUnsupported("Hom(tau^-1 L, N) = 0")
    if euler > 1:
        raise ShiftCaseUnsupported("Hom(tau^-1 L, N) is not one-dimensional")
    rl = rc.rep(lt.dims)
    rn = rc.rep(n_obj.dims)
    dim, basis = rc.hom(rl, rn)
    if dim != 1:
        raise InternalInvariantError(
            f"Hom({lt.dims}, {n_obj.dims}) has dimension {dim}, Euler form gives 1")
    h = basis[0]
    col_bases = {}
    dims = []
    for i in rc.cartan.vertices:
        cb = _column_basis(h[i], rn.dims[i - 1], rl.dims[i - 1])
        col_bases[i] = cb
        dims.append(len(cb))
    mats = []
    for s, t in rc.arrows:
        bs, bt = col_bases[s], col_bases[t]
        na = rn.matrix(s, t)
        moved = _matmul(
            na,
            _mat([[bs[c][r] for c in range(len(bs))] for r in range(rn.dims[s - 1])]),
            rn.dims[t - 1],
            rn.dims[s - 1],
            len(bs),
        )
        bmat = _mat([[bt[c][r] for c in range(len(bt))] for r in range(rn.dims[t - 1])])
        z = oracle_solve_matrix(bmat, moved, rn.dims[t - 1], len(bt), len(bs),
                                f"Hom({lt.dims}, {n_obj.dims}) at arrow {s}->{t}")
        mats.append((s, t, z))
    return QuiverRep(tuple(dims), tuple(mats))


# The Coxeter-matrix tau, kept as it stood before the library took tau as the
# inverse of tau^-1 on the indecomposables.


def oracle_tau(rc, obj):
    """tau: a shift to its injective, a projective to its shift, and every other
    module by the Coxeter matrix -E^-1 E^T, where <x, y> = x^T E y.

    Row i of E^-1 is dim P_i, because <dim P_i, y> = dim Hom(P_i, Y) = y_i.  P_i
    has the vertices reachable from i along the arrows, I_i those that reach i.
    """
    n = rc.n
    e = [[int(r == c) for c in range(n)] for r in range(n)]
    for s, t in rc.arrows:
        e[s - 1][t - 1] -= 1

    def reach(i, arrows):
        seen, stack = {i}, [i]
        while stack:
            u = stack.pop()
            for s, t in arrows:
                if s == u and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return tuple(int(j in seen) for j in rc.cartan.vertices)

    einv = [reach(i, rc.arrows) for i in rc.cartan.vertices]

    def neg_product(a, b):
        return tuple(
            tuple(-sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
            for r in range(n)
        )

    coxeter = neg_product(einv, tuple(zip(*e)))
    if obj.kind == "shift":
        return CQObject.module(reach(obj.i, [(t, s) for s, t in rc.arrows]))
    j = {p: i for i, p in enumerate(einv, 1)}.get(obj.dims)
    if j is not None:
        return CQObject.shifted(j)
    out = tuple(sum(coxeter[r][c] * obj.dims[c] for c in range(n)) for r in range(n))
    if out not in rc.roots:
        raise InternalInvariantError(f"tau of {obj.dims} gave non-root {out}")
    return CQObject.module(out)


# The mutation walk of verify_properties, kept as it stood with two mutations
# per step: the forward mutation is computed afresh at every step.


def oracle_properties_walk(rep, cartan, xi, walks, rng_seed, graph) -> list:
    """Run the walk into the Report `rep`, with the items and failure entries of
    verify_properties' walk; returns the vertices walked."""
    ctx = graph.ctx
    n = len(ctx.mutables)
    walked = []
    rng = random.Random(rng_seed)
    seed = Seed.initial(build_qcheck(cartan, xi))
    for step in range(walks):
        v = ctx.mutables[rng.randrange(n)]
        forward = seed.mutate(v)
        record = make_record(forward, seed.ctx.mut_index[v])
        back = forward.mutate(v)
        rep.check(back == seed and record == graph.registry.get(record.gvec),
                  "mutation involution and walk record at step {}", step, vertex=v,
                  g=record.gvec)
        seed = forward
        walked.append(v)
    return walked
