"""Simply-laced Cartan data and height functions on Dynkin diagrams."""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class CartanData:
    """ADE type: symmetric Cartan matrix with vertices 1..rank and a tree edge list."""

    letter: str
    rank: int
    edges: tuple[tuple[int, int], ...]

    @property
    def name(self) -> str:
        return f"{self.letter}{self.rank}"

    @functools.cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    @functools.cached_property
    def _adj(self) -> dict[int, tuple[int, ...]]:
        nb: dict[int, list[int]] = {i: [] for i in self.vertices}
        for a, b in self.edges:
            nb[a].append(b)
            nb[b].append(a)
        return {i: tuple(sorted(js)) for i, js in nb.items()}

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]


def _edges_for(letter: str, n: int) -> tuple[tuple[int, int], ...]:
    if letter == "A":
        if n < 1:
            raise DomainError("A_n needs n >= 1")
        return tuple((i, i + 1) for i in range(1, n))
    if letter == "D":
        if n < 4:
            raise DomainError("D_n needs n >= 4")
        return tuple((i, i + 1) for i in range(1, n - 1)) + ((n - 2, n),)
    if letter == "E":
        if n not in (6, 7, 8):
            raise DomainError("E_n needs n in {6,7,8}")
        chain = ((1, 3), (3, 4), (4, 5), (5, 6))
        if n >= 7:
            chain += ((6, 7),)
        if n == 8:
            chain += ((7, 8),)
        return chain + ((2, 4),)
    raise DomainError(f"unknown type letter {letter!r}")


def cartan_type(name: str) -> CartanData:
    """Parse a type name like 'A3', 'D4', 'E6'."""
    m = re.fullmatch(r"([ADE])(\d+)", name.strip())
    if not m:
        raise DomainError(f"cannot parse Cartan type {name!r}")
    letter, n = m.group(1), int(m.group(2))
    return CartanData(letter, n, _edges_for(letter, n))


def check_height_function(cartan: CartanData, xi: dict[int, int]) -> dict[int, int]:
    """Validate |xi(i)-xi(j)| = 1 across every Dynkin edge; returns xi."""
    missing = set(cartan.vertices) - set(xi)
    if missing:
        raise DomainError(f"height function missing vertices {sorted(missing)}")
    unknown = set(xi) - set(cartan.vertices)
    if unknown:
        raise DomainError(f"height function names vertices {sorted(unknown)} "
                          f"off the {cartan.name} diagram")
    for a, b in cartan.edges:
        if abs(xi[a] - xi[b]) != 1:
            raise DomainError(f"|xi({a})-xi({b})| != 1 for Dynkin edge {a}~{b}")
    return xi


def check_level(l: int) -> int:
    """Validate the level, an int l >= 1 (a bool is not an int); returns l."""
    if type(l) is not int:
        raise ConfigurationError(f"the level must be an int, got {l!r}")
    if l < 1:
        raise DomainError("level must be >= 1")
    return l


def linear_height(cartan: CartanData) -> dict[int, int]:
    """The sink-to-source path orientation xi(i) = 1 - i (type A sugar)."""
    if cartan.letter != "A":
        raise DomainError("--linear is only defined for type A")
    return {i: 1 - i for i in cartan.vertices}


def parse_height(cartan: CartanData, text: str) -> dict[int, int]:
    """Parse 'i:val' comma lists, e.g. '1:0,2:-1,3:0'."""
    xi: dict[int, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, _, val = piece.partition(":")
        try:
            i, v = int(key), int(val)
        except ValueError:
            raise DomainError(f"bad height entry {piece!r}") from None
        if i in xi:
            raise DomainError(f"height function names vertex {i} twice")
        xi[i] = v
    return check_height_function(cartan, xi)
