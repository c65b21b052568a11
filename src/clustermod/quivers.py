"""Ice quivers, matrix mutation, and the named quiver constructors.

Matrix <-> quiver dictionary used everywhere: b[u][v] = #(arrows v->u) - #(arrows u->v).
Entries between two frozen vertices are stored as 0 always.
"""
from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import NamedTuple

from .cartan import CartanData, check_height_function, check_level
from .errors import ConfigurationError, DomainError, FrozenVertexError


class Vertex(NamedTuple):
    """Quiver vertex label: grid pair (i, r), plain index i, or frozen companion i'.

    A named tuple, so it hashes in C, with the values of hash((i, r, primed)).
    It equals only another Vertex: as a plain tuple Vertex(1, 0) would equal
    (1, 0, 0), since False == 0.
    """

    i: int
    r: int | None = None
    primed: bool = False

    def __eq__(self, other) -> bool:
        return type(other) is Vertex and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return type(other) is not Vertex or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    @property
    def sort_key(self) -> tuple:
        # grid labels sort top-down within a column; primed companions follow plain ones
        return (self.i, 1 if self.primed else 0, 0 if self.r is None else -self.r)

    def __str__(self) -> str:
        if self.r is not None:
            return f"({self.i},{self.r})"
        return f"{self.i}'" if self.primed else f"{self.i}"

    @staticmethod
    def parse(text: str) -> "Vertex":
        text = text.strip()
        m = re.fullmatch(r"\((-?\d+)\s*,\s*(-?\d+)\)", text)
        if m:
            return Vertex(int(m.group(1)), int(m.group(2)))
        m = re.fullmatch(r"(-?\d+)'", text)
        if m:
            return Vertex(int(m.group(1)), primed=True)
        m = re.fullmatch(r"-?\d+", text)
        if m:
            return Vertex(int(text))
        raise ConfigurationError(f"cannot parse vertex label {text!r}")


def _json_field(obj: dict, key: str, default, kind: type, what: str):
    """obj[key], or default when absent; a value of any other JSON type than `kind`
    (a bool is not an integer) is malformed quiver JSON."""
    value = obj.get(key, default)
    if type(value) is not kind:
        raise ValueError(f"{key} must be {what}, got {json.dumps(value)}")
    return value


@dataclass(frozen=True)
class IceQuiver:
    """Vertex-labeled quiver with a frozen subset and skew-symmetric matrix."""

    vertices: tuple[Vertex, ...]
    frozen: frozenset[Vertex]
    b: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise ConfigurationError("duplicate vertex labels")
        if not self.frozen <= set(self.vertices):
            raise ConfigurationError("frozen set contains unknown labels")
        if len(self.b) != n or any(len(row) != n for row in self.b):
            raise ConfigurationError("matrix shape does not match vertex count")
        for p in range(n):
            for q in range(n):
                if self.b[p][q] != -self.b[q][p]:
                    raise ConfigurationError("matrix is not skew-symmetric")

    @functools.cached_property
    def _index(self) -> dict[Vertex, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    def index(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ConfigurationError(f"unknown vertex label {v}") from None

    @functools.cached_property
    def _frozen_mask(self) -> tuple[bool, ...]:
        """Whether each vertex is frozen, by matrix index."""
        return tuple(v in self.frozen for v in self.vertices)

    @property
    def mutable_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if v not in self.frozen)

    @property
    def frozen_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if v in self.frozen)

    def entry(self, u: Vertex, v: Vertex) -> int:
        return self.b[self.index(u)][self.index(v)]

    def arrows(self) -> tuple[tuple[Vertex, Vertex, int], ...]:
        """Net arrows (src, tgt, mult) derived from the matrix dictionary."""
        out = []
        n = len(self.vertices)
        for p in range(n):
            for q in range(n):
                if self.b[q][p] > 0:
                    out.append((self.vertices[p], self.vertices[q], self.b[q][p]))
        out.sort(key=lambda a: (a[0].sort_key, a[1].sort_key))
        return tuple(out)

    @staticmethod
    def from_arrows(vertices, frozen, arrows) -> "IceQuiver":
        vertices = tuple(sorted(vertices, key=lambda v: v.sort_key))
        frozen = frozenset(frozen)
        idx = {v: k for k, v in enumerate(vertices)}
        n = len(vertices)
        b = [[0] * n for _ in range(n)]
        for arrow in arrows:
            src, tgt = arrow[0], arrow[1]
            mult = arrow[2] if len(arrow) > 2 else 1
            if src not in idx or tgt not in idx:
                raise ConfigurationError(f"arrow {src}->{tgt} has an endpoint off the vertex list")
            if src == tgt:
                raise ConfigurationError(
                    f"arrow {src}->{tgt} is a loop; cluster quivers have no loops")
            if mult < 1:
                raise ConfigurationError(f"arrow {src}->{tgt} has multiplicity {mult}, below 1")
            if src in frozen and tgt in frozen:
                raise ConfigurationError(f"arrow between frozen vertices {src}->{tgt}")
            b[idx[tgt]][idx[src]] += mult
            b[idx[src]][idx[tgt]] -= mult
        return IceQuiver(vertices, frozen, tuple(tuple(row) for row in b))

    def mutate(self, k: Vertex) -> "IceQuiver":
        """Matrix mutation at a mutable vertex; frozen-frozen entries stay 0."""
        kk = self._index.get(k)
        if kk is None:
            raise ConfigurationError(f"unknown vertex label {k}")
        mask = self._frozen_mask
        if mask[kk]:
            raise FrozenVertexError(f"mutation at frozen vertex {k}")
        rowk = self.b[kk]
        # besides row and column k, b_pq changes only where b_pk * b_kq > 0, to
        # b_pq + |b_pk| b_kq, so only the rows of the neighbours of k are rebuilt,
        # each across to the neighbours on the other side of k (b_pk = -rowk[p])
        outs, ins = [], []
        for q, e in enumerate(rowk):
            if e:
                (outs if e > 0 else ins).append(q)
        b = self.b
        new = list(b)
        new[kk] = tuple([-e for e in rowk])
        for ps, qs in ((ins, outs), (outs, ins)):
            qs_mutable = [q for q in qs if not mask[q]]
            for p in ps:
                row = list(b[p])
                w = row[kk] = rowk[p]
                if w < 0:
                    w = -w
                for q in qs_mutable if mask[p] else qs:
                    row[q] += w * rowk[q]
                new[p] = tuple(row)
        # same labels and frozen set, and mutation keeps B skew-symmetric, so the
        # checks of __post_init__ hold by construction and are not rerun
        out = object.__new__(IceQuiver)
        out.__dict__.update(vertices=self.vertices, frozen=self.frozen, b=tuple(new),
                            _index=self._index, _frozen_mask=mask)
        return out

    def to_json(self) -> str:
        data = {
            "vertices": [
                {"label": str(v), "frozen": v in self.frozen}
                for v in sorted(self.vertices, key=lambda v: v.sort_key)
            ],
            "arrows": [
                {"from": str(s), "to": str(t), "mult": m} for s, t, m in self.arrows()
            ],
        }
        return json.dumps(data, indent=2)

    @staticmethod
    def from_json(text: str) -> "IceQuiver":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # nesting too deep for the decoder
            raise ConfigurationError(f"quiver file is not JSON: {exc}") from None
        try:
            vertices = [Vertex.parse(v["label"]) for v in data["vertices"]]
            frozen = [Vertex.parse(v["label"]) for v in data["vertices"]
                      if _json_field(v, "frozen", False, bool, "a boolean")]
            arrows = [
                (Vertex.parse(a["from"]), Vertex.parse(a["to"]),
                 _json_field(a, "mult", 1, int, "an integer"))
                for a in data["arrows"]
            ]
        except KeyError as exc:
            raise ConfigurationError(f"quiver JSON lacks the key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed quiver JSON: {exc}") from None
        return IceQuiver.from_arrows(vertices, frozen, arrows)

    def to_dot(self) -> str:
        lines = ["digraph quiver {"]
        for v in sorted(self.vertices, key=lambda v: v.sort_key):
            shape = "box" if v in self.frozen else "ellipse"
            lines.append(f'  "{v}" [shape={shape}];')
        for s, t, m in self.arrows():
            for _ in range(m):
                lines.append(f'  "{s}" -> "{t}";')
        lines.append("}")
        return "\n".join(lines)


def _grid_window(cartan: CartanData, xi: dict[int, int], floors: dict[int, int],
                 frozen: list[Vertex]) -> IceQuiver:
    """Grid quiver on the vertices (i,p), floors[i] <= p <= xi(i): arrows (i,p) -> (i,p+2)
    and (i,p) -> (j,p-1) for each neighbour j of i, none between two frozen vertices."""
    vertices = []
    for i in cartan.vertices:
        p = xi[i]
        while p >= floors[i]:
            vertices.append(Vertex(i, p))
            p -= 2
    vset = set(vertices)
    fset = set(frozen)
    arrows = []
    for v in vertices:
        up = Vertex(v.i, v.r + 2)
        if up in vset and not (v in fset and up in fset):
            arrows.append((v, up))
        for j in cartan.neighbors(v.i):
            w = Vertex(j, v.r - 1)
            if w in vset and not (v in fset and w in fset):
                arrows.append((v, w))
    return IceQuiver.from_arrows(vertices, fset, arrows)


def build_gamma_full(cartan: CartanData, xi: dict[int, int], r_min: int) -> IceQuiver:
    """Finite window of the infinite grid quiver: vertices (i,p), r_min <= p <= xi(i)."""
    check_height_function(cartan, xi)
    if r_min > max(xi.values()):
        raise DomainError(f"the window r >= {r_min} holds no vertex")
    return _grid_window(cartan, xi, dict.fromkeys(cartan.vertices, r_min), [])


def build_gamma_l(cartan: CartanData, xi: dict[int, int], l: int) -> IceQuiver:
    """The level-l grid quiver: window xi(i)-2l <= p <= xi(i), bottom row frozen."""
    check_height_function(cartan, xi)
    check_level(l)
    floors = {i: xi[i] - 2 * l for i in cartan.vertices}
    return _grid_window(cartan, xi, floors, [Vertex(i, floors[i]) for i in cartan.vertices])


def build_qxi(cartan: CartanData, xi: dict[int, int]) -> IceQuiver:
    """The Dynkin quiver determined by the height function: i -> j iff xi(i) = xi(j)+1."""
    check_height_function(cartan, xi)
    vertices = [Vertex(i) for i in cartan.vertices]
    arrows = []
    for a, b in cartan.edges:
        if xi[a] == xi[b] + 1:
            arrows.append((Vertex(a), Vertex(b)))
        else:
            arrows.append((Vertex(b), Vertex(a)))
    return IceQuiver.from_arrows(vertices, (), arrows)


def build_qcheck(cartan: CartanData, xi: dict[int, int]) -> IceQuiver:
    """The Dynkin quiver with one frozen companion per vertex.

    Arrows: the Dynkin part, i' -> i for every i, and i -> j' for every
    Dynkin arrow j -> i.
    """
    qxi = build_qxi(cartan, xi)
    vertices = [Vertex(i) for i in cartan.vertices]
    frozen = [Vertex(i, primed=True) for i in cartan.vertices]
    arrows = list((s, t) for s, t, _ in qxi.arrows())
    for i in cartan.vertices:
        arrows.append((Vertex(i, primed=True), Vertex(i)))
    for s, t, _ in qxi.arrows():
        # arrow j -> i induces i -> j'
        arrows.append((t, Vertex(s.i, primed=True)))
    return IceQuiver.from_arrows(vertices + frozen, frozen, arrows)


def build_qxil(cartan: CartanData, xi: dict[int, int], l: int) -> IceQuiver:
    """Three-row coefficient quiver on labels (i, xi(i)-2l+{4,2,0}); top and bottom frozen.

    Rows above xi(i) are dropped (empty-label convention), which removes the whole
    top row when l = 1.  Arrows: top(i)->mid(i), bot(i)->mid(i); for each Dynkin
    edge with xi(i) = xi(j)+1: mid(i)->mid(j), mid(j)->top(i), mid(j)->bot(i).
    """
    check_height_function(cartan, xi)
    check_level(l)

    def top(i):
        r = xi[i] - 2 * l + 4
        return Vertex(i, r) if r <= xi[i] else None

    def mid(i):
        return Vertex(i, xi[i] - 2 * l + 2)

    def bot(i):
        return Vertex(i, xi[i] - 2 * l)

    vertices = []
    frozen = []
    for i in cartan.vertices:
        t = top(i)
        if t is not None:
            vertices.append(t)
            frozen.append(t)
        vertices.append(mid(i))
        vertices.append(bot(i))
        frozen.append(bot(i))
    arrows = []
    for i in cartan.vertices:
        t = top(i)
        if t is not None:
            arrows.append((t, mid(i)))
        arrows.append((bot(i), mid(i)))
    for a, b in cartan.edges:
        i, j = (a, b) if xi[a] == xi[b] + 1 else (b, a)
        arrows.append((mid(i), mid(j)))
        t = top(i)
        if t is not None:
            arrows.append((mid(j), t))
        arrows.append((mid(j), bot(i)))
    return IceQuiver.from_arrows(vertices, frozen, arrows)
