"""Monomial dictionary between cluster data and highest l-weight monomials.

Y-monomials are `Monomial`s over `Yvar`.  All spectral parameters are integers on
the lattice of pairs (i, r); dominant means every exponent is nonnegative.  Hw
extraction reads each (i, p) label off the seed's own z-variables (`VarId.index`).
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping

from .cartan import CartanData, check_level
from .errors import DomainError, NonDominantError
from .reps import CQObject, RepContext
from .symbolic import Monomial, VarId, Yvar


def _y_monomial(exps: Mapping[tuple[int, int], int]) -> Monomial:
    """prod Y_{i,r}^e over an (i, r) -> e map: sorted once, zero exponents dropped."""
    return Monomial._from_sorted(tuple((Yvar(i, r), e) for (i, r), e in sorted(exps.items()) if e))


def expand_z(pairs: Iterable[tuple[tuple[int, int], int]], xi: dict[int, int]) -> Monomial:
    """prod z_{i,p}^e over ((i, p), e) pairs, expanded into Y-variables in one exponent map.

    z_{i,p} = prod Y_{i,q} over q = p, p+2, ..., xi(i); a zero exponent expands nothing.
    """
    exps: dict[tuple[int, int], int] = {}
    for (i, p), e in pairs:
        if not e:
            continue
        if (p - xi[i]) % 2:
            raise DomainError(f"spectral parameter {p} off the lattice of column {i}")
        if p > xi[i]:
            raise DomainError(f"z variable needs p <= xi({i}) = {xi[i]}, got {p}")
        for q in range(p, xi[i] + 1, 2):
            exps[(i, q)] = exps.get((i, q), 0) + e
    return _y_monomial(exps)


def z_monomial(i: int, p: int, xi: dict[int, int]) -> Monomial:
    """Initial cluster variable z_{i,p} = prod of Y_{i,p+2k} up to height xi(i)."""
    return expand_z((((i, p), 1),), xi)


def kr_monomial(i: int, k: int, r: int) -> Monomial:
    """Highest weight of the Kirillov-Reshetikhin module with k factors from Y_{i,r}."""
    if k < 0:
        raise DomainError("KR length must be >= 0")
    return Monomial._from_sorted(tuple((Yvar(i, r + 2 * j), 1) for j in range(k)))


def uv_monomials(i: int, l: int, xi: dict[int, int]) -> tuple[Monomial, Monomial]:
    """The frozen-pair monomials u_i(l) = z_{i,xi-2l+2}/z_{i,xi} and v_i(l) = z_{i,xi-2l}."""
    check_level(l)
    u = z_monomial(i, xi[i] - 2 * l + 2, xi) / z_monomial(i, xi[i], xi)
    v = z_monomial(i, xi[i] - 2 * l, xi)
    return u, v


def a_monomial(i: int, r: int, cartan: CartanData) -> Monomial:
    """A_{i,r} = Y_{i,r+1} Y_{i,r-1} prod_{j ~ i} Y_{j,r}^{-1}."""
    exps = {(i, r + 1): 1, (i, r - 1): 1}
    for j in cartan.neighbors(i):
        exps[(j, r)] = -1
    return _y_monomial(exps)


def yhat_monomial(i: int, r: int, cartan: CartanData) -> Monomial:
    """The hat-variable at lattice point (i, r): the inverse of A_{i,r-1}."""
    return a_monomial(i, r - 1, cartan).inverse()


def psi(objs, repctx: RepContext, l: int) -> Monomial:
    """Highest l-weight monomial of the cluster module attached to a rigid object.

    Accepts a single CQObject or an iterable (a direct sum), which must be rigid:
    a pair of summands with dim Ext^1 != 0 is a DomainError.  Multiplicative over
    summands: prod_i z_{i,xi-2l+2}^{g_i} (u_i v_i)^{s_i} over every summand, with
    u_i v_i = z_{i,xi-2l+2} z_{i,xi}^-1 z_{i,xi-2l}, summed into one exponent map.
    The result must be dominant; anything else signals a convention error
    somewhere upstream.
    """
    objs = (objs,) if isinstance(objs, CQObject) else tuple(objs)
    for x, y in itertools.combinations(objs, 2):
        if ext := repctx.ext1_cluster(x, y):
            raise DomainError(f"{'+'.join(map(str, objs))} is not rigid: "
                              f"dim Ext^1({x}, {y}) = {ext}")
    check_level(l)
    xi = repctx.xi
    pairs = []
    for obj in objs:
        g, s = repctx.extended_g(obj)
        for i in repctx.cartan.vertices:
            top = xi[i] - 2 * l + 2
            pairs += [((i, top), g[i - 1] + s[i - 1]), ((i, xi[i]), -s[i - 1]),
                      ((i, top - 2), s[i - 1])]
    out = expand_z(pairs, xi)
    if not out.is_dominant:
        raise NonDominantError(f"psi produced non-dominant monomial {out}")
    return out


def hw_extract(exps: tuple[int, ...], variables: tuple[VarId, ...],
               xi: dict[int, int]) -> Monomial:
    """prod z_{i,p}^e over the exponents and the z-variables they belong to, read off
    each variable's (i, p) label and expanded into Y-variables; the result must be dominant."""
    if len(exps) != len(variables):
        raise DomainError(f"g-tilde has {len(exps)} entries for {len(variables)} variables")
    if any(v.family != "z" for v in variables):
        raise DomainError("hw extraction requires a grid-labeled seed")
    out = expand_z(zip((v.index for v in variables), exps), xi)
    if not out.is_dominant:
        raise NonDominantError(f"hw extraction produced non-dominant monomial {out}")
    return out
