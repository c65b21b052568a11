"""Correctness oracles that never read clustermod's own results.

Cluster counts come from the classical formulas (Fomin-Zelevinsky, "Y-systems
and generalized associahedra", Ann. Math. 2003).  Representation-side values
come from the Euler form of the Dynkin quiver: its category of representations
is representation-directed, so for indecomposables X, Y at most one of
Hom(X, Y) and Ext^1(X, Y) is nonzero (Ringel, LNM 1099).
"""
from __future__ import annotations

import itertools
from math import comb

# largest coefficient of the highest root, which bounds every positive root
_HIGHEST_COEFF = {"A": 1, "D": 2, "E6": 3, "E7": 4, "E8": 6}
_E_COUNTS = {6: (833, 36), 7: (4160, 63), 8: (25080, 120)}


def cluster_counts(letter: str, n: int) -> tuple[int, int, int]:
    """(seeds, exchange edges, cluster variables) of the finite type X_n."""
    if letter == "A":
        seeds, roots = comb(2 * n + 2, n + 1) // (n + 2), n * (n + 1) // 2
    elif letter == "D":
        seeds, roots = (3 * n - 2) * comb(2 * n - 2, n - 1) // n, n * (n - 1)
    else:
        seeds, roots = _E_COUNTS[n]
    return seeds, n * seeds // 2, roots + n


def arrows_of(edges, xi: dict[int, int]) -> list[tuple[int, int]]:
    """Dynkin arrows of a height function: i -> j when xi(i) = xi(j) + 1."""
    return [(a, b) if xi[a] == xi[b] + 1 else (b, a) for a, b in edges]


def positive_roots(letter: str, n: int, edges) -> list[tuple[int, ...]]:
    """Nonnegative nonzero vectors on which the Tits form equals 1."""
    bound = _HIGHEST_COEFF.get(letter, _HIGHEST_COEFF.get(f"{letter}{n}"))
    out = []
    for x in itertools.product(range(bound + 1), repeat=n):
        q = sum(v * v for v in x) - sum(x[a - 1] * x[b - 1] for a, b in edges)
        if q == 1:
            out.append(x)
    return out


def euler(arrows, x, y) -> int:
    return sum(a * b for a, b in zip(x, y)) - sum(x[s - 1] * y[t - 1] for s, t in arrows)


def socle(arrows, n: int, dims) -> tuple[int, ...]:
    """soc_i(M) = dim Hom(S_i, M) = max(<S_i, M>, 0)."""
    unit = lambda i: tuple(1 if j == i else 0 for j in range(1, n + 1))  # noqa: E731
    return tuple(max(euler(arrows, unit(i), dims), 0) for i in range(1, n + 1))


def exchange_pairs(arrows, n: int, roots) -> set[frozenset[str]]:
    """Pairs of indecomposables of the cluster category with dim Ext^1 = 1.

    Objects are named as clustermod prints them: 'shp:i' for the shifted
    projective at i, 'mod:d1,...,dn' for the module with dimension vector d.
    Ext^1 in the cluster category is Ext^1(X, Y) + Ext^1(Y, X) for modules,
    with dim Ext^1(X, Y) = max(-<x, y>, 0); against P_i[1] it is dim M_i.
    """
    mods = [("mod:" + ",".join(map(str, r)), r) for r in roots]
    pairs = set()
    for i in range(1, n + 1):
        for name, r in mods:
            if r[i - 1] == 1:
                pairs.add(frozenset((f"shp:{i}", name)))
    for (na, ra), (nb, rb) in itertools.combinations(mods, 2):
        ext = max(-euler(arrows, ra, rb), 0) + max(-euler(arrows, rb, ra), 0)
        if ext == 1:
            pairs.add(frozenset((na, nb)))
    return pairs
