"""Geometry of the even discrete torus Z_m^d.

Vertices are mixed-radix indices: coordinate 1 is most significant, so the
index of (x_1,...,x_d) is (((x_1*m + x_2)*m + x_3)...)*m + x_d. Adjacency is
a +-1 step (mod m) in one coordinate; for m=2 the two steps coincide, so the
torus is d-regular there and 2d-regular for m >= 4. The coordinate-parity
bipartition E/O (even/odd coordinate sum) is used everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class TorusGraph:
    m: int
    d: int

    def __post_init__(self):
        if self.m < 2 or self.m % 2 != 0:
            raise ValueError(f"torus side must be even and >= 2, got {self.m}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")

    @property
    def n(self) -> int:
        return self.m**self.d

    @property
    def degree(self) -> int:
        return 2 * self.d if self.m >= 4 else self.d

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates")
        v = 0
        for x in coords:
            if not 0 <= x < self.m:
                raise ValueError(f"coordinate {x} out of range 0..{self.m - 1}")
            v = v * self.m + x
        return v

    def _check(self, v: int):
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range 0..{self.n - 1}")

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Coordinate-major order, minus step before plus step; for m=2 the
        two steps coincide and are listed once."""
        self._check(v)
        out = []
        radix = self.n  # m^(d - coordinate index)
        for _ in range(self.d):
            radix //= self.m
            x = (v // radix) % self.m
            base = v - x * radix
            out.append(base + ((x - 1) % self.m) * radix)
            if self.m > 2:
                out.append(base + ((x + 1) % self.m) * radix)
        return tuple(out)

    def parity(self, v: int) -> int:
        self._check(v)
        s = 0
        while v:
            s += v % self.m
            v //= self.m
        return s & 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as (u, v) with u < v."""
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    # Tables built on first use and kept for the life of the torus. The
    # methods above check their arguments on every call; these are for
    # code that walks the whole torus per sample.

    @cached_property
    def neighbor_table(self) -> tuple[tuple[int, ...], ...]:
        """neighbors(v) for every vertex v."""
        return tuple(self.neighbors(v) for v in range(self.n))

    @cached_property
    def parity_table(self) -> tuple[int, ...]:
        """parity(v) for every vertex v."""
        return tuple(self.parity(v) for v in range(self.n))

    @cached_property
    def side_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(even side, odd side), from the parity table; every edge crosses
        between them."""
        par = self.parity_table
        return tuple(
            tuple(v for v in range(self.n) if par[v] == side) for side in (0, 1)
        )

    @cached_property
    def edge_table(self) -> tuple[tuple[int, int], ...]:
        """Each edge once as (even endpoint, odd endpoint), in the order
        edges() lists them."""
        par = self.parity_table
        return tuple((u, v) if par[u] == 0 else (v, u) for u, v in self.edges())

    # The same tables as read-only numpy arrays, for code that gathers
    # over whole blocks of states.

    @cached_property
    def neighbor_array(self) -> np.ndarray:
        """neighbor_table as a (degree, n) array: row j holds the j-th
        neighbor of every vertex."""
        return _frozen(np.array(self.neighbor_table, dtype=np.intp).T)

    @cached_property
    def side_array(self) -> np.ndarray:
        """side_table as a (2, n/2) array: even side, then odd."""
        return _frozen(np.array(self.side_table, dtype=np.intp))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """edge_table as a (2, num_edges) array: even endpoints, then odd."""
        return _frozen(np.array(self.edge_table, dtype=np.intp).T)

    @cached_property
    def incidence_array(self) -> np.ndarray:
        """(degree, n) array: the edge_table index of the edge from each
        vertex to the neighbor in the same place of neighbor_array."""
        index = {e: i for i, e in enumerate(self.edge_table)}
        par = self.parity_table
        return _frozen(np.array(
            [[index[(v, u) if par[v] == 0 else (u, v)] for u in row]
             for v, row in enumerate(self.neighbor_table)],
            dtype=np.intp,
        ).T)

    @property
    def num_edges(self) -> int:
        return self.n * self.degree // 2

    def shift(self, v: int, coord: int, step: int) -> int:
        """Vertex obtained by moving `step` (mod m) along coordinate
        `coord` (1-based)."""
        radix = self.m ** (self.d - coord)
        x = (v // radix) % self.m
        return v - x * radix + ((x + step) % self.m) * radix


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a

