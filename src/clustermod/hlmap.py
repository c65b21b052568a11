"""Monomial dictionary between cluster data and highest l-weight monomials.

All spectral parameters are integers on the lattice of pairs (i, r); dominant
means every exponent is nonnegative.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .cartan import CartanData
from .errors import DomainError, NonDominantError
from .reps import CQObject, RepContext


class YMonomial:
    """Formal monomial in the variables Y_{i,r}: exponent map (i, r) -> nonzero int."""

    __slots__ = ("_items", "_hash")

    def __init__(self, exps: Mapping[tuple[int, int], int] | Iterable = ()):
        if isinstance(exps, Mapping):
            pairs = exps.items()
        else:
            pairs = exps
        d: dict[tuple[int, int], int] = {}
        for key, e in pairs:
            e = d.get(key, 0) + e
            if e:
                d[key] = e
            elif key in d:
                del d[key]
        self._items = tuple(sorted(d.items()))
        self._hash = hash(self._items)

    @classmethod
    def _from_sorted(cls, items: tuple) -> "YMonomial":
        """Wrap items sorted by key, with distinct keys and no zero exponent."""
        m = cls.__new__(cls)
        m._items = items
        m._hash = hash(items)
        return m

    @staticmethod
    def one() -> "YMonomial":
        return YMonomial()

    @staticmethod
    def gen(i: int, r: int, e: int = 1) -> "YMonomial":
        return YMonomial({(i, r): e})

    @property
    def items(self):
        return self._items

    def exponent(self, i: int, r: int) -> int:
        return dict(self._items).get((i, r), 0)

    @property
    def is_one(self) -> bool:
        return not self._items

    @property
    def is_dominant(self) -> bool:
        return all(e >= 0 for _, e in self._items)

    def __mul__(self, other: "YMonomial") -> "YMonomial":
        d = dict(self._items)
        for key, e in other._items:
            e = d.get(key, 0) + e
            if e:
                d[key] = e
            else:
                del d[key]
        return YMonomial._from_sorted(tuple(sorted(d.items())))

    def __truediv__(self, other: "YMonomial") -> "YMonomial":
        return self * other.inverse()

    def inverse(self) -> "YMonomial":
        return YMonomial._from_sorted(tuple((k, -e) for k, e in self._items))

    def __pow__(self, n: int) -> "YMonomial":
        if n == 0:
            return YMonomial()
        return YMonomial._from_sorted(tuple((k, n * e) for k, e in self._items))

    def __eq__(self, other) -> bool:
        return isinstance(other, YMonomial) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._items:
            return "1"
        parts = []
        for (i, r), e in self._items:
            base = f"Y[{i},{r}]"
            parts.append(base if e == 1 else f"{base}^{e}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"YMonomial({self})"

    def to_json(self):
        return [[i, r, e] for (i, r), e in self._items]


def _z_range(i: int, p: int, xi: dict[int, int]) -> range:
    """The spectral parameters r of the factors Y_{i,r} of z_{i,p}."""
    if (p - xi[i]) % 2:
        raise DomainError(f"spectral parameter {p} off the lattice of column {i}")
    if p > xi[i]:
        raise DomainError(f"z variable needs p <= xi({i}) = {xi[i]}, got {p}")
    return range(p, xi[i] + 1, 2)


def _add_z(exps: dict, i: int, p: int, xi: dict[int, int], e: int) -> None:
    """Multiply the exponent map `exps` by z_{i,p}^e in place."""
    for q in _z_range(i, p, xi):
        exps[(i, q)] = exps.get((i, q), 0) + e


def z_monomial(i: int, p: int, xi: dict[int, int]) -> YMonomial:
    """Initial cluster variable z_{i,p} = prod of Y_{i,p+2k} up to height xi(i)."""
    return YMonomial._from_sorted(tuple(((i, q), 1) for q in _z_range(i, p, xi)))


def kr_monomial(i: int, k: int, r: int) -> YMonomial:
    """Highest weight of the Kirillov-Reshetikhin module with k factors from Y_{i,r}."""
    if k < 0:
        raise DomainError("KR length must be >= 0")
    return YMonomial._from_sorted(tuple(((i, r + 2 * j), 1) for j in range(k)))


def uv_monomials(i: int, l: int, xi: dict[int, int]) -> tuple[YMonomial, YMonomial]:
    """The frozen-pair monomials u_i(l) = z_{i,xi-2l+2}/z_{i,xi} and v_i(l) = z_{i,xi-2l}."""
    if l < 1:
        raise DomainError("level must be >= 1")
    u = z_monomial(i, xi[i] - 2 * l + 2, xi) / z_monomial(i, xi[i], xi)
    v = z_monomial(i, xi[i] - 2 * l, xi)
    return u, v


def a_monomial(i: int, r: int, cartan: CartanData) -> YMonomial:
    """A_{i,r} = Y_{i,r+1} Y_{i,r-1} prod_{j ~ i} Y_{j,r}^{-1}."""
    exps = {(i, r + 1): 1, (i, r - 1): 1}
    for j in cartan.neighbors(i):
        exps[(j, r)] = -1
    return YMonomial(exps)


def yhat_monomial(i: int, r: int, cartan: CartanData) -> YMonomial:
    """The hat-variable at lattice point (i, r): the inverse of A_{i,r-1}."""
    return a_monomial(i, r - 1, cartan).inverse()


def psi(objs, repctx: RepContext, l: int) -> YMonomial:
    """Highest l-weight monomial of the cluster module attached to a rigid object.

    Accepts a single CQObject or an iterable (a direct sum); multiplicative over
    summands: prod_i z_{i,xi-2l+2}^{g_i} (u_i v_i)^{s_i} over every summand, with
    u_i v_i = z_{i,xi-2l+2} z_{i,xi}^-1 z_{i,xi-2l}, summed into one exponent map.
    The result must be dominant; anything else signals a convention error
    somewhere upstream.
    """
    if isinstance(objs, CQObject):
        objs = (objs,)
    if l < 1:
        raise DomainError("level must be >= 1")
    xi = repctx.xi
    exps: dict[tuple[int, int], int] = {}
    for obj in objs:
        g, s = repctx.extended_g(obj)
        for i in repctx.cartan.vertices:
            gi = g[i - 1]
            if gi:
                _add_z(exps, i, xi[i] - 2 * l + 2, xi, gi)
            si = s[i - 1]
            if si:
                _add_z(exps, i, xi[i] - 2 * l + 2, xi, si)
                _add_z(exps, i, xi[i], xi, -si)
                _add_z(exps, i, xi[i] - 2 * l, xi, si)
    out = YMonomial(exps)
    if not out.is_dominant:
        raise NonDominantError(f"psi produced non-dominant monomial {out}")
    return out


@dataclass(frozen=True)
class HwSource:
    """What hw extraction needs from an engine record: g-tilde plus label maps."""

    gtilde: tuple[int, ...]
    mut_labels: tuple[tuple[int, int], ...]
    gen_labels: tuple[tuple[int, int], ...]


def hw_extract(source: HwSource, xi: dict[int, int]) -> YMonomial:
    """Expand z^{g-tilde} into Y-variables in one exponent map; the result must be dominant."""
    exps: dict[tuple[int, int], int] = {}
    for (i, r), e in zip(source.mut_labels + source.gen_labels, source.gtilde):
        if e:
            _add_z(exps, i, r, xi, e)
    out = YMonomial(exps)
    if not out.is_dominant:
        raise NonDominantError(f"hw extraction produced non-dominant monomial {out}")
    return out


def hw_source_from_record(record, ctx) -> HwSource:
    """Adapter from an engine ClusterVarRecord + SeedContext over a grid quiver."""
    if any(v.r is None for v in ctx.mutables) or any(len(g.index) != 2 for g in ctx.gens):
        raise DomainError("hw extraction requires a grid-labeled seed")
    mut_labels = tuple((v.i, v.r) for v in ctx.mutables)
    gen_labels = tuple((g.index[0], g.index[1]) for g in ctx.gens)
    return HwSource(tuple(record.gtilde), mut_labels, gen_labels)
