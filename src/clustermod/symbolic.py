"""Exact arithmetic: multivariate Laurent polynomials over Z and their tropical evaluation.

Variables form an extensible alphabet of (family, index) pairs; coefficients are
unbounded Python integers.  Everything here is immutable and pure.
"""
from __future__ import annotations

import functools
import heapq
from collections.abc import Iterable, Mapping

from .errors import (
    ConfigurationError,
    InexactDivisionError,
    NotSubtractionFreeError,
)

# Canonical family order used for printing, hashing and term comparison.
_FAMILIES = ("x", "f", "Y", "z", "y")
_FAMILY_ORDER = {name: k for k, name in enumerate(_FAMILIES)}

_DIV_STEP_CAP = 1_000_000  # guards non-termination when an "exact" division is not


class VarId(tuple):
    """A formal variable: family in {x, f, Y, z, y}, integer index tuple.

    The tuple itself is (family order, index), so CPython hashes, compares and
    sorts variables in C: by family, then by index.  A variable therefore equals
    the plain tuple of the same two values.  Family, index and text sit in the
    instance dict (a tuple subclass has no slots), precomputed for printing.
    """

    def __new__(cls, family: str, index: tuple[int, ...]):
        if family not in _FAMILY_ORDER:
            raise ConfigurationError(f"unknown variable family {family!r}")
        index = tuple(index)
        self = super().__new__(cls, (_FAMILY_ORDER[family], index))
        self.family = family
        self.index = index
        self._text = "%s[%s]" % (family, ",".join(str(c) for c in index))
        return self

    def __getnewargs__(self):
        return self.family, self.index

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"VarId({self.family!r}, {self.index!r})"


@functools.lru_cache(maxsize=None)
def _var(family: str, index: tuple[int, ...]) -> VarId:
    return VarId(family, index)


def xvar(*index: int) -> VarId:
    return _var("x", tuple(index))


def fvar(*index: int) -> VarId:
    return _var("f", tuple(index))


def Yvar(i: int, r: int) -> VarId:
    return _var("Y", (i, r))


def zvar(i: int, p: int) -> VarId:
    return _var("z", (i, p))


def ycoef(*index: int) -> VarId:
    """Principal coefficient variable attached to a mutable vertex."""
    return _var("y", tuple(index))


class Monomial:
    """Exponent map VarId -> nonzero integer; the multiplicative carrier of all formulas."""

    __slots__ = ("_items", "_hash")

    def __init__(self, exps: Mapping[VarId, int] | Iterable[tuple[VarId, int]] = ()):
        if isinstance(exps, Mapping):
            pairs = exps.items()
        else:
            pairs = exps
        merged: dict[VarId, int] = {}
        for v, e in pairs:
            e = merged.get(v, 0) + e
            if e:
                merged[v] = e
            elif v in merged:
                del merged[v]
        self._items = tuple(sorted(merged.items()))
        self._hash = None

    @staticmethod
    def one() -> "Monomial":
        return _MONOMIAL_ONE

    @classmethod
    def _from_sorted(cls, items: tuple) -> "Monomial":
        """Wrap items sorted by variable, with distinct variables and no zero exponent."""
        m = cls.__new__(cls)
        m._items = items
        m._hash = None
        return m

    @property
    def items(self) -> tuple[tuple[VarId, int], ...]:
        return self._items

    @property
    def is_one(self) -> bool:
        return not self._items

    @property
    def is_dominant(self) -> bool:
        return all(e >= 0 for _, e in self._items)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.is_one:
            return other
        if other.is_one:
            return self
        # merge of two sorted exponent lists
        a, b = self._items, other._items
        na, nb = len(a), len(b)
        ia = ib = 0
        out = []
        while ia < na and ib < nb:
            va, vb = a[ia][0], b[ib][0]
            if va < vb:
                out.append(a[ia])
                ia += 1
            elif vb < va:
                out.append(b[ib])
                ib += 1
            else:
                e = a[ia][1] + b[ib][1]
                if e:
                    out.append((va, e))
                ia += 1
                ib += 1
        out.extend(a[ia:])
        out.extend(b[ib:])
        return Monomial._from_sorted(tuple(out))

    def inverse(self) -> "Monomial":
        return Monomial._from_sorted(tuple((v, -e) for v, e in self._items))

    def __pow__(self, n: int) -> "Monomial":
        if n == 0:
            return Monomial.one()
        return Monomial._from_sorted(tuple((v, n * e) for v, e in self._items))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._items == other._items

    def __hash__(self) -> int:
        # taken on first use: many monomials (Y-monomials in the checks) are only compared
        h = self._hash
        if h is None:
            h = self._hash = hash(self._items)
        return h

    def __str__(self) -> str:
        if not self._items:
            return "1"
        parts = []
        for v, e in self._items:
            parts.append(v._text if e == 1 else f"{v._text}^{e}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self})"


_MONOMIAL_ONE = Monomial()


def _exponent_tuples(*polys: "LaurentPoly"):
    """The polys' variables in canonical order, and the map from a monomial over
    them to its dense exponent tuple.

    Lexicographic order on these tuples is the term order: compatible with
    multiplication, so leading terms multiply, which makes exact division by
    leading-term reduction valid.  Two monomials compare alike over any larger
    variable list, since a variable absent from both is equal in both.
    """
    vs = sorted({v for p in polys for m in p._terms for v, _ in m._items})
    pos = {v: i for i, v in enumerate(vs)}
    zero = [0] * len(vs)

    def dense(m: Monomial) -> tuple[int, ...]:
        t = zero.copy()
        for v, e in m._items:
            t[pos[v]] = e
        return tuple(t)

    return vs, dense


class LaurentPoly:
    """Exact Laurent polynomial: map Monomial -> nonzero int, canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        if isinstance(terms, Mapping):
            pairs = terms.items()
        else:
            pairs = terms
        d: dict[Monomial, int] = {}
        for m, c in pairs:
            c = d.get(m, 0) + c
            if c:
                d[m] = c
            elif m in d:
                del d[m]
        self._terms = d

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({Monomial.one(): 1})

    @staticmethod
    def from_monomial(m: Monomial, c: int = 1) -> "LaurentPoly":
        return LaurentPoly({m: c}) if c else LaurentPoly()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms sorted with the leading (largest) monomial first."""
        _, dense = _exponent_tuples(self)
        return sorted(self._terms.items(), key=lambda t: dense(t[0]), reverse=True)

    def monomials(self):
        """Monomials in storage order, without the sort of `terms()`."""
        return self._terms.keys()

    def coefficients(self):
        """Coefficients in storage order, without the sort of `terms()`."""
        return self._terms.values()

    def __len__(self) -> int:
        return len(self._terms)

    def constant_term(self) -> int:
        return self._terms.get(Monomial.one(), 0)

    def monomial_and_coefficient(self) -> tuple[Monomial, int]:
        if len(self._terms) != 1:
            raise ConfigurationError("polynomial is not a single term")
        return next(iter(self._terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self._terms)
        for m, c in other._terms.items():
            c = d.get(m, 0) + c
            if c:
                d[m] = c
            else:
                del d[m]
        p = LaurentPoly.__new__(LaurentPoly)
        p._terms = d
        return p

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            p = LaurentPoly.__new__(LaurentPoly)
            p._terms = {m: c * other for m, c in self._terms.items()}
            return p
        if isinstance(other, Monomial):
            p = LaurentPoly.__new__(LaurentPoly)
            p._terms = {m * other: c for m, c in self._terms.items()}
            return p
        d: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                c = d.get(m, 0) + c1 * c2
                if c:
                    d[m] = c
                elif m in d:
                    del d[m]
        p = LaurentPoly.__new__(LaurentPoly)
        p._terms = d
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ConfigurationError("negative power of a polynomial")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for m, c in self.terms():
            if m.is_one:
                body = str(abs(c))
            elif abs(c) == 1:
                body = str(m)
            else:
                body = f"{abs(c)} {m}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def substitute(p: LaurentPoly, assign: Mapping[VarId, Monomial]) -> LaurentPoly:
    """Image of p under the monomial change of variables v -> assign[v];
    unassigned variables map to themselves.

    Each term maps to one monomial through one exponent dict, and the images
    are added into one result dict, so the cost is linear in the size of p.
    """
    if not all(isinstance(img, Monomial) for img in assign.values()):
        raise ConfigurationError("substitution images must be monomials")
    out: dict[Monomial, int] = {}
    for m, c in p._terms.items():
        exps: dict[VarId, int] = {}
        for v, e in m.items:
            img = assign.get(v)
            if img is None:
                exps[v] = exps.get(v, 0) + e
            else:
                for w, f in img._items:
                    exps[w] = exps.get(w, 0) + e * f
        mm = Monomial._from_sorted(tuple(sorted([t for t in exps.items() if t[1]])))
        c += out.get(mm, 0)
        if c:
            out[mm] = c
        else:
            del out[mm]
    q = LaurentPoly.__new__(LaurentPoly)
    q._terms = out
    return q


def div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient q with q*b == a; raises InexactDivisionError otherwise.

    Division by a monomial is always exact in the Laurent ring.  For a general
    divisor the quotient is found by leading-term reduction, valid because the
    term order is compatible with multiplication.  A heap of negated exponent
    tuples gives each leading term: a tuple is pushed when it enters the
    remainder, and a popped tuple no longer in it is skipped.
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
    vs, dense = _exponent_tuples(a, b)
    r = {dense(m): c for m, c in a._terms.items()}
    bt = [(dense(m), c) for m, c in b._terms.items()]
    lt, lc = max(bt)
    # Extremal exponents multiply without cancellation over a domain, so every
    # exponent of an exact quotient lies in [min(a) - min(b), max(a) - max(b)]
    # per variable; an empty range proves inexactness at once.
    cols = list(zip(zip(*r), zip(*(t for t, _ in bt))))
    lo = [min(ea) - min(eb) for ea, eb in cols]
    hi = [max(ea) - max(eb) for ea, eb in cols]
    for v, vlo, vhi in zip(vs, lo, hi):
        if vlo > vhi:
            raise InexactDivisionError(f"no exact quotient: variable {v} range is empty")
    q: dict[tuple[int, ...], int] = {}
    heap = [tuple([-e for e in t]) for t in r]
    heapq.heapify(heap)
    steps = 0
    while r:
        rt = tuple([-e for e in heapq.heappop(heap)])
        if rt not in r:
            continue
        steps += 1
        if steps > _DIV_STEP_CAP:
            raise InexactDivisionError("division did not terminate")
        rc = r[rt]
        if rc % lc:
            raise InexactDivisionError("leading coefficient does not divide")
        qt = tuple(x - y for x, y in zip(rt, lt))
        if not all(vlo <= e <= vhi for vlo, e, vhi in zip(lo, qt, hi)):
            raise InexactDivisionError("quotient exponent out of range")
        qc = q[qt] = rc // lc
        for f, c in bt:
            t = tuple(x + y for x, y in zip(qt, f))
            c = r.get(t, 0) - qc * c
            if c:
                if t not in r:
                    heapq.heappush(heap, tuple([-e for e in t]))
                r[t] = c
            else:
                del r[t]
    out = LaurentPoly.__new__(LaurentPoly)
    out._terms = {Monomial._from_sorted(tuple((v, e) for v, e in zip(vs, t) if e)): c
                  for t, c in q.items()}
    return out


def eval_tropical(f: LaurentPoly, assign: Mapping[VarId, tuple[int, ...]]) -> tuple[int, ...]:
    """Evaluate a subtraction-free Laurent polynomial in a tropical semifield.

    A semifield value is its exponent tuple over a fixed generator list, so
    multiplication adds tuples and the auxiliary addition is the componentwise
    minimum.  Coefficients are discarded; any negative coefficient is rejected
    since the tropical evaluation of a general expression is not defined
    term-by-term.  The values met must all have one length.

    Each value is read once, on first use, as its length and its (index, nonzero
    entry) pairs, so a term costs the nonzero entries of its variables.  The
    minimum is kept as a dense list, with the set of its positive entries: a term
    with no entry at such an index lowers it to 0.
    """
    if f.is_zero:
        raise ConfigurationError("cannot tropically evaluate the zero polynomial")
    sparse: dict[VarId, tuple[int, list[tuple[int, int]]]] = {}
    low = positive = None
    for m, c in f._terms.items():
        if c < 0:
            raise NotSubtractionFreeError("polynomial has a negative coefficient")
        width, vec = None, {}
        for v, e in m.items:
            val = sparse.get(v)
            if val is None:
                try:
                    t = assign[v]
                except KeyError:
                    raise ConfigurationError(f"no tropical value assigned to {v}") from None
                val = sparse[v] = len(t), [(i, a) for i, a in enumerate(t) if a]
            if width is None:
                width = val[0]
            elif val[0] != width:
                raise ConfigurationError("tropical values of different lengths")
            for i, a in val[1]:
                vec[i] = vec.get(i, 0) + e * a
        if width is None:
            width = len(next(iter(assign.values()))) if assign else 0
        if low is None:
            low = [0] * width
            for i, a in vec.items():
                low[i] = a
            positive = {i for i, a in vec.items() if a > 0}
        elif width != len(low):
            raise ConfigurationError("tropical values of different lengths")
        else:
            for i, a in vec.items():
                if a < low[i]:
                    low[i] = a
            if positive:
                for i in [i for i in positive if low[i] <= 0 or i not in vec]:
                    low[i] = min(low[i], 0)
                    positive.discard(i)
    return tuple(low)
