"""Reference computations that share no code with torushom.

Every check in the benchmark compares the program against these routines or
against constants known from the literature. They are deliberately plain:
the torus is rebuilt from coordinates, colorings are enumerated by a direct
depth-first search, and extremal pairs are found by trying every pair of
color sets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

# Independent sets of the hypercube Q_d, d = 1..6.
IND_Q = {1: 3, 2: 7, 3: 35, 4: 743, 5: 254475, 6: 19768832143}
# Proper 3-colorings of Q_d, d = 1..5.
K3_Q = {1: 6, 2: 18, 3: 114, 4: 2970, 5: 1185282}
# Search nodes the enumerator visits before it gives up, so that no check
# waits long on it: a search stopped here took 1.4 s on the development
# machine (see bench/README.md), while k3 on Q_4 (2,970 colorings) took 0.2 s.
NODE_CAP = 60_000


def neighbors(m: int, d: int) -> list[list[int]]:
    """Neighbor lists of Z_m^d, built from coordinates (last one fastest)."""
    n = m**d
    out = []
    for v in range(n):
        coords = []
        x = v
        for _ in range(d):
            coords.append(x % m)
            x //= m
        coords.reverse()
        nb = set()
        for i in range(d):
            for step in (-1, 1):
                c = list(coords)
                c[i] = (c[i] + step) % m
                u = 0
                for y in c:
                    u = u * m + y
                nb.add(u)
        out.append(sorted(nb))
    return out


def parity(m: int, d: int, v: int) -> int:
    s = 0
    for _ in range(d):
        s += v % m
        v //= m
    return s & 1


def edges_ok(nbrs: list[list[int]], adj: list[int], state) -> bool:
    """Every torus edge lands on an edge of H (adj[k] is a bitmask)."""
    return all(
        (adj[state[u]] >> state[v]) & 1 for u in range(len(nbrs)) for v in nbrs[u]
    )


def weighted_count(m, d, adj, weights, pins=None):
    """Sum of weights of the colorings of Z_m^d into H, or None past NODE_CAP.

    pins maps a vertex to the only color it may take.
    """
    nbrs = neighbors(m, d)
    n = len(nbrs)
    h = len(adj)
    back = [[u for u in nbrs[v] if u < v] for v in range(n)]
    color = [0] * n
    pins = pins or {}
    nodes = 0

    def rec(v):
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise OverflowError
        if v == n:
            total = Fraction(1)
            for k in color:
                total *= weights[k]
            return total
        total = Fraction(0)
        for k in ([pins[v]] if v in pins else range(h)):
            if all((adj[color[u]] >> k) & 1 for u in back[v]):
                color[v] = k
                total += rec(v + 1)
        return total

    try:
        return rec(0)
    except OverflowError:
        return None


@lru_cache(maxsize=None)
def scan_pairs(adj: tuple, weights: tuple):
    """(eta, set of maximal (A, B)) by trying every pair of nonempty sets."""
    h = len(adj)
    sets = range(1, 1 << h)
    lam = [sum((weights[k] for k in range(h) if (s >> k) & 1), Fraction(0))
           for s in range(1 << h)]
    best, pairs = Fraction(0), set()
    for a in sets:
        for b in sets:
            if all(b & ~adj[k] == 0 for k in range(h) if (a >> k) & 1):
                p = lam[a] * lam[b]
                if p > best:
                    best, pairs = p, {(a, b)}
                elif p == best:
                    pairs.add((a, b))
    return best, pairs


def complete_graph_structure(q: int) -> tuple[int, int]:
    """(eta, number of maximal pairs) for K_q: the pairs are the splits into
    halves of sizes floor(q/2) and ceil(q/2), in either order when q is odd."""
    lo, hi = q // 2, (q + 1) // 2
    return lo * hi, (1 + q % 2) * comb(q, lo)
