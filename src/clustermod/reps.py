"""Dynkin quiver representations and the cluster-category combinatorics built on them.

Objects of the cluster category are modules (positive roots) plus one shifted
projective per vertex.  Socles and Ext^1 dimensions are integer formulas in the
dimension vectors: a Dynkin quiver is representation-directed, so for
indecomposables X, Y at most one of Hom(X, Y) and Ext^1(X, Y) is nonzero and the
Euler form <x, y> gives both (Ringel, LNM 1099).  The AR translation is derived once,
as tau^-1 by the inverse Coxeter matrix; tau is its inverse on the indecomposables, and
the AR quiver is read off one table of tau^-1 columns from the shifted projectives.
Explicit indecomposables are built over the integers by reflection functors along a BFS
over (orientation, root) states.  One exact row reduction, `_rref` on sparse rows (only
their nonzero entries), does all their linear algebra: the cokernel of each reflection
step, the Hom spaces, and the image of the morphism in `im_h`.  Hom between
indecomposables is at most one-dimensional, so `im_h` reads that image off one reduced
row echelon form per vertex of its Hom vector.  Every pivot met is 1 or -1, as the
indecomposables have 0/1 bases (Ringel, "Exceptional modules are tree modules"), so
every entry is an int; any other pivot is an InternalInvariantError.
"""
from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .cartan import CartanData, check_height_function
from .errors import DomainError, InternalInvariantError, ShiftCaseUnsupported
from .quivers import IceQuiver, build_qxi

Matrix = tuple[tuple[int, ...], ...]


def _mat(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def _zeros(nrows: int, ncols: int) -> Matrix:
    return tuple((0,) * ncols for _ in range(nrows))


def _rref(rows, where) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form over the integers of rows given as dicts {column: nonzero
    value}: its nonzero rows, in the same form, and their pivot columns, both in column
    order.

    Each pivot row is kept 1 at its pivot column and 0 at every other: a new row is
    reduced by the pivots it meets, negated if it leads with -1, and its pivot column
    cleared from the other pivot rows.  A leading entry other than 1 or -1 raises
    InternalInvariantError, naming the scope `where()`.  The rows are consumed.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        for pc in [c for c in row if c in pivots]:
            _axpy(row, row[pc], pivots[pc])
        if row:
            lead = min(row)
            pv = row[lead]
            if pv == -1:
                row = {c: -v for c, v in row.items()}
            elif pv != 1:
                raise InternalInvariantError(
                    f"row reduction met pivot {pv} at column {lead} {where()}")
            for prow in pivots.values():
                if lead in prow:
                    _axpy(prow, prow[lead], row)
            pivots[lead] = row
    order = sorted(pivots)
    return [pivots[c] for c in order], order


def _axpy(row: dict, f, prow: dict) -> None:
    """row -= f * prow in place, dropping the entries that cancel."""
    for c, v in prow.items():
        x = row.get(c, 0) - f * v
        if x:
            row[c] = x
        else:
            del row[c]


@dataclass(frozen=True)
class QuiverRep:
    """Representation of a Dynkin quiver: dims by vertex (1-based), one matrix per arrow."""

    dims: tuple[int, ...]
    mats: tuple[tuple[int, int, Matrix], ...]  # (src, tgt, matrix of shape dims[tgt] x dims[src])

    def matrix(self, src: int, tgt: int) -> Matrix:
        for s, t, m in self.mats:
            if s == src and t == tgt:
                return m
        raise DomainError(f"no arrow {src}->{tgt}")


class CQObject(NamedTuple):
    """Indecomposable of the cluster category: a module or a shifted projective.

    A named tuple that hashes in C and equals only another CQObject, as `Vertex` does.
    """

    kind: str  # "mod" | "shift"
    dims: tuple[int, ...] = ()
    i: int = 0

    def __eq__(self, other) -> bool:
        return type(other) is CQObject and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return type(other) is not CQObject or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    @staticmethod
    def module(dims) -> "CQObject":
        return CQObject("mod", tuple(dims))

    @staticmethod
    def shifted(i: int) -> "CQObject":
        return CQObject("shift", (), i)

    @property
    def is_module(self) -> bool:
        return self.kind == "mod"

    def __str__(self) -> str:
        if self.kind == "shift":
            return f"shp:{self.i}"
        return "mod:" + ",".join(str(d) for d in self.dims)

    @staticmethod
    def parse(text: str) -> "CQObject":
        text = text.strip()
        try:
            if text.startswith("shp:"):
                return CQObject.shifted(int(text[4:]))
            if text.startswith("mod:"):
                return CQObject.module(tuple(int(x) for x in text[4:].split(",")))
        except ValueError:
            pass
        raise DomainError(f"cannot parse object spec {text!r}")


def positive_roots(cartan: CartanData) -> tuple[tuple[int, ...], ...]:
    """All positive roots, by reflection closure from the simple roots."""
    n = cartan.rank
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for v in frontier:
            for k in range(n):
                s = 2 * v[k] - sum(v[j - 1] for j in cartan.neighbors(k + 1))
                w = tuple(v[j] if j != k else v[k] - s for j in range(n))
                if all(x >= 0 for x in w) and w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    return tuple(sorted(seen, key=lambda v: (sum(v), v)))


class RepContext:
    """Representation theory of the quiver determined by (cartan, xi)."""

    def __init__(self, cartan: CartanData, xi: dict[int, int]):
        check_height_function(cartan, xi)
        self.cartan = cartan
        self.xi = dict(xi)
        self.n = cartan.rank
        self.qxi: IceQuiver = build_qxi(cartan, xi)
        self.arrows: tuple[tuple[int, int], ...] = tuple(
            sorted((s.i, t.i) for s, t, _ in self.qxi.arrows())
        )
        self.out = {i: tuple(t for s, t in self.arrows if s == i) for i in cartan.vertices}
        self.inn = {i: tuple(s for s, t in self.arrows if t == i) for i in cartan.vertices}
        self._rep_cache: dict[tuple[int, ...], QuiverRep] = {}
        self._tau_inv_cache: dict[CQObject, CQObject] = {}
        self._extended_g_cache: dict[CQObject, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._proj = {i: self._reach(i, self.out) for i in cartan.vertices}
        self._inj = {i: self._reach(i, self.inn) for i in cartan.vertices}
        self._vertex_of_inj = {d: i for i, d in self._inj.items()}
        self._vertex_of_unit = {self._unit(i): i for i in cartan.vertices}

    def _where(self) -> str:
        """'for <type> xi=<heights>': the scope that every InternalInvariantError names."""
        xi = ",".join(f"{i}:{h}" for i, h in sorted(self.xi.items()))
        return f"for {self.cartan.name} xi={xi}"

    # ---- roots and basic dimension vectors -------------------------------

    @functools.cached_property
    def roots(self) -> tuple[tuple[int, ...], ...]:
        return positive_roots(self.cartan)

    @functools.cached_property
    def _root_set(self) -> frozenset:
        return frozenset(self.roots)

    def check_object(self, obj: CQObject) -> None:
        """Raise DomainError unless obj is an indecomposable of this cluster category."""
        if obj.is_module:
            if obj.dims not in self._root_set:
                raise DomainError(f"{obj.dims} is not a positive root")
        elif obj.i not in self.out:
            raise DomainError(f"{obj} needs a vertex in 1..{self.n}")

    def _reach(self, i: int, step) -> tuple[int, ...]:
        reach = {i}
        stack = [i]
        while stack:
            for w in step[stack.pop()]:
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
        return tuple(1 if j in reach else 0 for j in self.cartan.vertices)

    def inj_dims(self, i: int) -> tuple[int, ...]:
        return self._inj[i]

    def indecomposables(self) -> tuple[CQObject, ...]:
        shifts = tuple(CQObject.shifted(i) for i in self.cartan.vertices)
        mods = tuple(CQObject.module(r) for r in self.roots)
        return shifts + mods

    # ---- explicit representations ----------------------------------------

    def simple(self, j: int, arrows) -> QuiverRep:
        dims = tuple(1 if v == j else 0 for v in self.cartan.vertices)
        mats = tuple((s, t, _zeros(dims[t - 1], dims[s - 1])) for s, t in arrows)
        return QuiverRep(dims, mats)

    def rep(self, dims) -> QuiverRep:
        """The indecomposable with the given dimension vector (a positive root)."""
        dims = tuple(dims)
        if dims in self._rep_cache:
            return self._rep_cache[dims]
        if dims not in self._root_set:
            raise DomainError(f"{dims} is not a positive root")
        chain = self._reflection_chain(dims)
        rep = self.simple(chain[-1][1], chain[-1][0])
        for arrows_t, k in reversed(chain[:-1]):
            rep = self._reflect_minus(rep, k, arrows_t)
        if rep.dims != dims:
            raise InternalInvariantError(
                f"reflection build produced {rep.dims}, wanted {dims} {self._where()}")
        end_dim, _ = self.hom(rep, rep)
        if end_dim != 1:
            raise InternalInvariantError(
                f"End space of {dims} has dimension {end_dim} {self._where()}")
        self._rep_cache[dims] = rep
        return rep

    @functools.cached_property
    def _sink_tests(self) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
        """Per vertex k: (k, bits of the base arrows at k, bits of those leaving k, neighbours).

        An orientation is the bitmask of the base arrows it reverses; k is a sink of
        `mask` exactly when `mask & at_k == leaving_k`, and reflecting at k flips `at_k`.
        """
        bits = tuple(enumerate(self.arrows))
        return tuple(
            (k, sum(1 << b for b, arrow in bits if k in arrow),
             sum(1 << b for b, (s, _) in bits if s == k), self.cartan.neighbors(k))
            for k in self.cartan.vertices)

    def _orientation(self, mask: int) -> tuple[tuple[int, int], ...]:
        """The sorted arrows of the base orientation with the arrows in `mask` reversed."""
        return tuple(sorted((t, s) if mask >> b & 1 else (s, t)
                            for b, (s, t) in enumerate(self.arrows)))

    def _reflection_chain(self, alpha):
        """BFS over (orientation, root) states down to a simple root.

        Returns [(arrows_0, k_0), ..., (arrows_m, j)] where arrows_0 is the base
        orientation, k_t is a sink of arrows_t, and the final entry holds the
        simple root index j reached.  A state keys its orientation by the bitmask of
        reversed base arrows; sinks are tried in vertex order, and arrow tuples are
        built only for the chain returned.
        """
        start = (0, alpha)
        prev: dict = {start: None}
        queue = deque([start])
        goal = None
        sink_tests = self._sink_tests
        while queue:
            state = queue.popleft()
            mask, beta = state
            j = self._vertex_of_unit.get(beta)
            if j is not None:
                goal = (state, j)
                break
            for k, at_k, leaving_k, nbrs in sink_tests:
                if mask & at_k != leaving_k:
                    continue
                # the reflection at the sink k changes coordinate k only
                bk = sum(beta[j2 - 1] for j2 in nbrs) - beta[k - 1]
                if bk < 0:
                    continue
                nxt = (mask ^ at_k, beta[:k - 1] + (bk,) + beta[k:])
                if nxt not in prev:
                    prev[nxt] = (state, k)
                    queue.append(nxt)
        if goal is None:
            raise InternalInvariantError(f"no reflection chain found from {alpha} {self._where()}")
        state, j = goal
        steps = []
        cur = state
        while prev[cur] is not None:
            parent, k = prev[cur]
            steps.append((self._orientation(parent[0]), k))
            cur = parent
        steps.reverse()
        steps.append((self._orientation(state[0]), j))
        return steps

    def _unit(self, v: int) -> tuple[int, ...]:
        return tuple(1 if w == v else 0 for w in self.cartan.vertices)

    def _reflect_minus(self, rep: QuiverRep, k: int, arrows) -> QuiverRep:
        """Inverse reflection functor at k into the sorted orientation `arrows`, where k
        is a sink; rep lives on `arrows` with every arrow at k reversed.

        The new space at k is the cokernel of psi: M_k -> (+) M_s over the arrows s -> k.
        The rref of [psi | I] is E [psi | I] with E invertible; its rows with a pivot at
        or past dim M_k have a zero psi block, so their right block, a block of E, is a
        surjection onto the cokernel whose kernel is the image of psi.
        """
        dims = rep.dims
        dk = dims[k - 1]
        stacked = [row for s, t in arrows if t == k for row in rep.matrix(k, s)]
        cols = range(dk, dk + len(stacked))
        rows, pivots = _rref([{c: v for c, v in enumerate(row) if v} | {dk + r: 1}
                              for r, row in enumerate(stacked)], self._where)
        coker = [[row.get(c, 0) for c in cols] for row, pc in zip(rows, pivots) if pc >= dk]
        mats = []
        offset = 0
        for s, t in arrows:
            if t == k:
                ds = dims[s - 1]
                mats.append((s, t, _mat(row[offset:offset + ds] for row in coker)))
                offset += ds
            else:
                mats.append((s, t, rep.matrix(s, t)))
        new_dims = dims[:k - 1] + (len(coker),) + dims[k:]
        return QuiverRep(new_dims, tuple(mats))

    # ---- socle, g-vectors -------------------------------------------------

    def socle(self, obj: CQObject) -> tuple[int, ...]:
        """soc_i = dim Hom(S_i, M) = max(<e_i, dim M>, 0) = max(-g_i, 0); zero on shifts."""
        return self.extended_g(obj)[1]

    def g_vector(self, obj: CQObject) -> tuple[int, ...]:
        self.check_object(obj)
        if obj.kind == "shift":
            return self._unit(obj.i)
        return self.g_of_dims(obj.dims)

    def extended_g(self, obj: CQObject) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The g-vector and the socle, read off it as in `socle`; once per object,
        after `g_vector` has checked it."""
        out = self._extended_g_cache.get(obj)
        if out is None:
            g = self.g_vector(obj)
            out = self._extended_g_cache[obj] = g, tuple(max(-x, 0) for x in g)
        return out

    # ---- AR translation ----------------------------------------------------

    @functools.cached_property
    def _coxeter_inv(self) -> tuple[tuple[int, ...], ...]:
        """Rows of the inverse Coxeter matrix -E^-T E, where <x, y> = x^T E y.

        Row i of E^-1 is dim P_i (<dim P_i, y> = dim Hom(P_i, Y) = y_i), so column c
        of -E^-T E is the sum of dim P_s over the arrows s -> c, minus dim P_c.
        """
        vs = self.cartan.vertices
        return tuple(
            tuple(sum(self._proj[s][r] for s in self.inn[c]) - self._proj[c][r] for c in vs)
            for r in range(self.n))

    def tau_inv(self, obj: CQObject) -> CQObject:
        """tau^-1: a shift to its projective, an injective to its shift, and every
        other module by the inverse Coxeter matrix."""
        out = self._tau_inv_cache.get(obj)
        if out is None:
            self.check_object(obj)
            if obj.kind == "shift":
                out = CQObject.module(self._proj[obj.i])
            elif obj.dims in self._vertex_of_inj:
                out = CQObject.shifted(self._vertex_of_inj[obj.dims])
            else:
                dims = tuple(sum(a * d for a, d in zip(row, obj.dims))
                             for row in self._coxeter_inv)
                if dims not in self._root_set:
                    raise InternalInvariantError(
                        f"tau^-1 of {obj.dims} gave non-root {dims} {self._where()}")
                out = CQObject.module(dims)
            self._tau_inv_cache[obj] = out
        return out

    @functools.cached_property
    def _tau_table(self) -> dict[CQObject, CQObject]:
        objs = self.indecomposables()
        table = {self.tau_inv(o): o for o in objs}
        if len(table) < len(objs):
            raise InternalInvariantError(
                f"tau^-1 is not a bijection: {len(table)} images of {len(objs)} objects "
                f"{self._where()}")
        return table

    def tau(self, obj: CQObject) -> CQObject:
        """tau, as the inverse of tau^-1 on the indecomposables."""
        self.check_object(obj)
        return self._tau_table[obj]

    # ---- Hom / Ext ----------------------------------------------------------

    def hom(self, x: QuiverRep, y: QuiverRep):
        """Morphism space: dimension and a basis of vertex-matrix families.

        H_i[r][c] is unknown offs[i - 1] + r * dim X_i + c.  Each equation
        (Y_a H_s - H_t X_a)[r][c] = 0 of an arrow a: s -> t is a dict of its nonzero
        entries (none when dim X_s or dim Y_t is 0).  The basis has a vector per free
        column of their `_rref`, in column order, with -row[fc] at each pivot column.
        Between indecomposables every pivot is 1 or -1; on representations whose
        equations meet another pivot, `_rref` raises InternalInvariantError.
        """
        offs = [0]  # and offs[-1], the number of unknowns
        for dx, dy in zip(x.dims, y.dims):
            offs.append(offs[-1] + dx * dy)
        rows = []
        for s, t in self.arrows:
            dxs, dxt = x.dims[s - 1], x.dims[t - 1]
            if not dxs or not y.dims[t - 1]:
                continue
            xa, off_s, off_t = x.matrix(s, t), offs[s - 1], offs[t - 1]
            for r, yrow in enumerate(y.matrix(s, t)):
                for c in range(dxs):
                    # (Y_a H_s)[r][c] - (H_t X_a)[r][c]; the two blocks never overlap
                    row = {off_s + u * dxs + c: v for u, v in enumerate(yrow) if v}
                    for u in range(dxt):
                        if xa[u][c]:
                            row[off_t + r * dxt + u] = -xa[u][c]
                    rows.append(row)
        rows, pivots = _rref(rows, self._where)
        bound = set(pivots)
        basis = []
        for fc in (c for c in range(offs[-1]) if c not in bound):
            vec = [0] * offs[-1]
            vec[fc] = 1
            for row, pc in zip(rows, pivots):
                if fc in row:
                    vec[pc] = -row[fc]
            basis.append({i: tuple([tuple(vec[o + r * dx:o + r * dx + dx]) for r in range(dy)])
                          for i, (dx, dy, o) in enumerate(zip(x.dims, y.dims, offs), 1)})
        return len(basis), basis

    def euler_form(self, dx, dy) -> int:
        val = sum(a * b for a, b in zip(dx, dy))
        for s, t in self.arrows:
            val -= dx[s - 1] * dy[t - 1]
        return val

    def ext1_mod(self, x: CQObject, y: CQObject) -> int:
        """dim Ext^1(X, Y) = max(-<x, y>, 0) for modules X, Y."""
        return max(-self.euler_form(x.dims, y.dims), 0)

    def ext1_cluster(self, x: CQObject, y: CQObject) -> int:
        self.check_object(x)
        self.check_object(y)
        if x.kind == "shift" and y.kind == "shift":
            return 0
        if x.kind == "shift":
            return y.dims[x.i - 1]
        if y.kind == "shift":
            return x.dims[y.i - 1]
        return self.ext1_mod(x, y) + self.ext1_mod(y, x)

    def exchange_pairs(self) -> tuple[tuple[CQObject, CQObject], ...]:
        objs = self.indecomposables()
        pairs = []
        for a in range(len(objs)):
            for b in range(a + 1, len(objs)):
                if self.ext1_cluster(objs[a], objs[b]) == 1:
                    pairs.append((objs[a], objs[b]))
        return tuple(pairs)

    # ---- exchange-relation ingredients --------------------------------------

    def im_h(self, l_obj: CQObject, n_obj: CQObject) -> QuiverRep:
        """Image of the (unique up to scalar) morphism h: tau^-1 L -> N, module case only.

        At each vertex i the pivot columns P_i of the block h_i span the image, and
        the reduced rows R_i of h_i give h_i = h_i[:, P_i] R_i.  Since N_a h_s = h_t L_a
        on an arrow a: s -> t, N_a h_s[:, P_s] = h_t[:, P_t] z with z = R_t L_a[:, P_s],
        so z is the image's map on a in the basis P; the product is checked.
        """
        self.check_object(l_obj)
        self.check_object(n_obj)
        lt = self.tau_inv(l_obj)
        if not lt.is_module or not n_obj.is_module:
            raise ShiftCaseUnsupported("tau^-1 L or N is not a module")
        # dim Hom(tau^-1 L, N) = max(<dim tau^-1 L, dim N>, 0), as in ext1_mod
        euler = self.euler_form(lt.dims, n_obj.dims)
        if euler <= 0:
            raise ShiftCaseUnsupported("Hom(tau^-1 L, N) = 0")
        if euler > 1:
            raise ShiftCaseUnsupported("Hom(tau^-1 L, N) is not one-dimensional")
        rl = self.rep(lt.dims)
        rn = self.rep(n_obj.dims)
        dim, basis = self.hom(rl, rn)
        if dim != 1:
            raise InternalInvariantError(
                f"Hom({lt.dims}, {n_obj.dims}) has dimension {dim}, Euler form gives 1 "
                f"{self._where()}")
        h = basis[0]
        reduced = {i: _rref([{c: x for c, x in enumerate(row) if x} for row in h[i]], self._where)
                   for i in self.cartan.vertices}
        mats = []
        for s, t in self.arrows:
            rows_t, piv_t = reduced[t]
            piv_s = reduced[s][1]
            la = rl.matrix(s, t)
            # z = R_t L_a[:, P_s], over the nonzero entries of each row of R_t
            z = tuple([tuple([sum([x * la[k][c] for k, x in row.items()]) for c in piv_s])
                       for row in rows_t])
            # N_a h_s[:, P_s] = h_t[:, P_t] z row by row; with P_s empty, nothing to compare
            if piv_s:
                hs = h[s]
                for hrow, narow in zip(h[t], rn.matrix(s, t)):
                    hz = [(z[q], x) for q, x in enumerate([hrow[p] for p in piv_t]) if x]
                    nh = [(hs[k], x) for k, x in enumerate(narow) if x]
                    if any(sum([x * zq[c] for zq, x in hz]) != sum([x * hk[pc] for hk, x in nh])
                           for c, pc in enumerate(piv_s)):
                        raise InternalInvariantError(
                            f"inconsistent linear system in solve for "
                            f"Hom({lt.dims}, {n_obj.dims}) at arrow {s}->{t} {self._where()}")
            mats.append((s, t, z))
        dims = tuple([len(piv) for _, piv in reduced.values()])
        return QuiverRep(dims, tuple(mats))

    def g_of_dims(self, d) -> tuple[int, ...]:
        return tuple(
            sum(d[t - 1] for t in self.out[j]) - d[j - 1] for j in self.cartan.vertices
        )

    def kappa(self, l_obj: CQObject, m_parts, n_obj: CQObject) -> tuple[int, ...]:
        """soc(L) + soc(N) - soc(direct sum of the middle parts)."""
        total = [a + b for a, b in zip(self.socle(l_obj), self.socle(n_obj))]
        for part in m_parts:
            for t, a in enumerate(self.socle(part)):
                total[t] -= a
        return tuple(total)

    # ---- AR quiver knitting --------------------------------------------------

    @functools.cached_property
    def _columns(self) -> tuple[tuple[CQObject, ...], ...]:
        """Columns 0 .. total + 1 of the knitting: column m holds tau^-m of the shifted
        projectives, in vertex order."""
        cols = [tuple(CQObject.shifted(i) for i in self.cartan.vertices)]
        for _ in range(len(self.roots) + self.n + 1):
            cols.append(tuple(self.tau_inv(o) for o in cols[-1]))
        return tuple(cols)

    def ar_objects(self) -> tuple[CQObject, ...]:
        """All indecomposables in knitting order (column by column from the shifts)."""
        objs = tuple(dict.fromkeys(o for col in self._columns for o in col))
        if len(objs) != len(self.roots) + self.n:
            raise InternalInvariantError(
                f"AR knitting failed to close {self._where()}: "
                f"{len(objs)} objects knitted, {len(self.roots) + self.n} indecomposables")
        return objs

    def ar_arrows(self) -> tuple[tuple[CQObject, CQObject], ...]:
        """Per column X and arrow s -> t: X_t -> X_s and X_s -> tau^-1 X_t, in first-seen order."""
        cols = self._columns
        out: dict[tuple[CQObject, CQObject], None] = {}
        for m in range(len(cols) - 1):
            for s, t in self.arrows:
                out[cols[m][t - 1], cols[m][s - 1]] = None
                out[cols[m][s - 1], cols[m + 1][t - 1]] = None
        return tuple(out)

    def ar_meshes(self) -> tuple[tuple[CQObject, tuple[CQObject, ...], CQObject], ...]:
        """Meshes (tau Z, middle terms, Z) for every object Z."""
        arrows = self.ar_arrows()
        out = []
        for z in self.ar_objects():
            middles = tuple(sorted((x for x, y in arrows if y == z), key=str))
            out.append((self.tau(z), middles, z))
        return tuple(out)


def rep_json(rep: QuiverRep) -> str:
    """JSON form of a representation: dimension vector plus one matrix per arrow."""
    import json

    return json.dumps(
        {
            "dims": list(rep.dims),
            "matrices": [{"from": s, "to": t, "matrix": m} for s, t, m in rep.mats],
        },
        indent=2,
    )
