"""Single-site Glauber dynamics and phase-structure observables.

The chain picks a uniform vertex and resamples its color from the
weights restricted to what the neighborhood allows, so the stationary
law is exactly the Gibbs distribution. On top of the dynamics sit the
structural observables: ideal edges (edges whose endpoint neighborhoods
show exactly the two palettes of a maximal pair), the not-ideal
probability estimator with its exact enumeration twin, and a phase
classifier that labels a coloring by the largest ideal component.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterator, Sequence

import numpy as np

from .constraint_graph import (
    ConstraintGraph,
    MaximalPair,
    WeightSet,
    instance_structure,
    mask_from,
    mask_members,
)
from .errors import EmptyConstraint, InvalidColoring, NoValidInitial
from .exact import (
    Coloring,
    coloring_weight,
    enumerate_colorings,
    is_valid_coloring,
    partition_function,
)
from .torus import TorusGraph, giant_component_after_deletion

_GREEDY_RESTARTS = 100
_RNG_BUFFER = 1 << 14

# Desk-scale defaults; the asymptotic theory leaves the thresholds free,
# so these are explicit configuration, not derived constants.
DEFAULT_DEFECT_CAP = 0.1
DEFAULT_BALANCE_TOL = 0.2


@dataclass(frozen=True)
class ChainConfig:
    """Run-length, seed, and conditioning parameters for one chain."""

    steps: int
    burn_in: int = 0
    seed: int = 0
    pinned: tuple[int, int] | None = None
    thin: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not (0 <= self.burn_in < self.steps):
            raise ValueError("burn_in must satisfy 0 <= burn_in < steps")
        if self.thin < 1:
            raise ValueError("thin must be positive")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")


@dataclass
class ChainStats:
    steps: int = 0
    forced_moves: int = 0
    color_changes: int = 0
    # "greedy", "pure", "explicit", or "pure-fallback" after greedy gave up.
    start: str = ""


def chain_rng(seed: int, chain_index: int = 0) -> np.random.Generator:
    """Independent stream per chain index, all derived from one seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chain_index,))
    )


def _draw(table: tuple[tuple[int, ...], list[float]], u: float) -> int:
    """The color a uniform u in [0, 1) picks from a (colors, cumulative
    weights) draw table. Callers draw u, so each keeps its own RNG use."""
    colors, cum = table
    return colors[min(bisect_right(cum, u * cum[-1]), len(colors) - 1)]


def _greedy_initial(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    rng: np.random.Generator,
    pinned: tuple[int, int] | None,
) -> list[int]:
    tables = w.draw_tables
    nbrs = t.neighbor_table
    for _ in range(_GREEDY_RESTARTS):
        order = list(rng.permutation(t.n))
        state: list[int | None] = [None] * t.n
        if pinned is not None:
            state[pinned[0]] = pinned[1]
            order.remove(pinned[0])
        ok = True
        for v in order:
            cand = g.full_mask
            for u in nbrs[v]:
                if state[u] is not None:
                    cand &= g.adj[state[u]]
            if cand == 0:
                ok = False
                break
            table = tables[cand]
            if len(table[0]) == 1:
                state[v] = table[0][0]
            else:
                state[v] = _draw(table, rng.random())
        if ok:
            return state  # type: ignore[return-value]
    raise NoValidInitial(
        f"greedy initialization failed {_GREEDY_RESTARTS} times"
    )


def _pure_initial(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    pair: MaximalPair,
    rng: np.random.Generator,
    pinned: tuple[int, int] | None,
) -> list[int]:
    tables = w.draw_tables
    sides = (tables[pair.a], tables[pair.b])
    state = [_draw(sides[p], rng.random()) for p in t.parity_table]
    if pinned is not None:
        y, lcol = pinned
        state[y] = lcol
        # repair the neighborhood greedily if the pin broke it
        nbrs = t.neighbor_table
        for u in nbrs[y]:
            cand = g.full_mask
            for z in nbrs[u]:
                cand &= g.adj[state[z]]
            if cand == 0:
                raise NoValidInitial("pin is incompatible with the pure state")
            if not (cand >> state[u]) & 1:
                state[u] = _draw(tables[cand], rng.random())
    return state


def _admitting_pair(
    t: TorusGraph,
    pairs: Sequence[MaximalPair],
    pinned: tuple[int, int] | None,
) -> MaximalPair | None:
    """The first maximal pair whose class on the pinned vertex's side holds
    the pinned color (the first pair when nothing is pinned), or None."""
    for pair in pairs:
        if pinned is None:
            return pair
        y, lcol = pinned
        if ((pair.b if t.parity_table[y] else pair.a) >> lcol) & 1:
            return pair
    return None


def _pure_fallback(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    rng: np.random.Generator,
    pinned: tuple[int, int] | None,
) -> list[int]:
    """Pure start for when greedy gives up: the first maximal pair whose
    class on the pinned vertex's side holds the pinned color.

    Every pure coloring is valid, so this fails only when H has no
    maximal pair or no pair admits the pin.
    """
    try:
        pairs = instance_structure(g, w).pairs
    except EmptyConstraint:
        pairs = ()
    pair = _admitting_pair(t, pairs, pinned)
    if pair is None:
        raise NoValidInitial(
            f"greedy initialization failed {_GREEDY_RESTARTS} times and no "
            "pure start admits the pin"
        )
    return _pure_initial(t, g, w, pair, rng, pinned)


def _resolve_initial(t, g, w, initial, rng, pinned) -> tuple[list[int], str]:
    """The initial state and the kind of start that produced it."""
    if initial == "uniform-greedy":
        try:
            return _greedy_initial(t, g, w, rng, pinned), "greedy"
        except NoValidInitial:
            return _pure_fallback(t, g, w, rng, pinned), "pure-fallback"
    if initial == "pure":
        pair = _admitting_pair(t, instance_structure(g, w).pairs, pinned)
        if pair is None:
            raise NoValidInitial("no maximal pair admits the pin")
        return _pure_initial(t, g, w, pair, rng, pinned), "pure"
    if isinstance(initial, tuple) and len(initial) == 2 and isinstance(
        initial[1], MaximalPair
    ):
        tag, pair = initial
        if tag != "pure":
            raise ValueError(f"unknown initializer {initial!r}")
        return _pure_initial(t, g, w, pair, rng, pinned), "pure"
    if not is_valid_coloring(t, g, initial):
        raise InvalidColoring("explicit initial coloring is not valid")
    state = list(initial)
    if pinned is not None and state[pinned[0]] != pinned[1]:
        raise InvalidColoring("explicit initial coloring contradicts the pin")
    return state, "explicit"


def run_chain(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    cfg: ChainConfig,
    initial="uniform-greedy",
    *,
    chain_index: int = 0,
    stats: ChainStats | None = None,
) -> Iterator[Coloring]:
    """Stream thinned post-burn-in states; deterministic given the config.

    The pinned vertex (if any) keeps its color for the whole run, which
    targets the conditional Gibbs law exactly. Initializers: a coloring,
    "uniform-greedy" (random order, weighted greedy fill, restarts, then a
    pure start that admits the pin if every restart fails), or "pure" /
    ("pure", pair) for a two-palette start. "pure" starts from the first
    maximal pair whose class on the pinned vertex's side holds the pinned
    color. `stats.start` records which start was used.
    """
    if cfg.pinned is not None:
        y, lcol = cfg.pinned
        if not (0 <= y < t.n) or not (0 <= lcol < g.h):
            raise ValueError("pinned pair outside instance")
    rng = chain_rng(cfg.seed, chain_index)
    state, start = _resolve_initial(t, g, w, initial, rng, cfg.pinned)
    if stats is not None:
        stats.start = start
    pinned_vertex = cfg.pinned[0] if cfg.pinned is not None else None
    tables = w.draw_tables
    nbrs = t.neighbor_table
    adj = g.adj
    full = g.full_mask
    free_count = t.n - (1 if pinned_vertex is not None else 0)

    def stream() -> Iterator[Coloring]:
        vbuf = ubuf = None
        pos = _RNG_BUFFER
        for step in range(1, cfg.steps + 1):
            if pos == _RNG_BUFFER:
                # memoryviews index to plain Python numbers, without a list
                # of 2 * _RNG_BUFFER boxed values
                vbuf = memoryview(rng.integers(0, free_count, size=_RNG_BUFFER))
                ubuf = memoryview(rng.random(_RNG_BUFFER))
                pos = 0
            v = vbuf[pos]
            if pinned_vertex is not None and v >= pinned_vertex:
                v += 1
            cand = full
            for u in nbrs[v]:
                cand &= adj[state[u]]
            table = tables[cand]
            if len(table[0]) == 1:
                new = table[0][0]
                if stats is not None:
                    stats.forced_moves += 1
            else:
                new = _draw(table, ubuf[pos])
            pos += 1
            if stats is not None:
                stats.steps += 1
                if new != state[v]:
                    stats.color_changes += 1
            state[v] = new
            if step > cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
                yield tuple(state)

    return stream()


def _palettes(t: TorusGraph, f: Sequence[int]) -> list[int]:
    """The set of colors each vertex's neighborhood shows, as a mask."""
    bit = [1 << c for c in f]
    get = bit.__getitem__
    return [reduce(or_, map(get, row)) for row in t.neighbor_table]


def is_ideal_edge(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    f: Sequence[int],
    e: tuple[int, int],
) -> MaximalPair | None:
    """The maximal pair whose palettes the edge exhibits, if any.

    The even endpoint's neighborhood must show exactly B and the odd
    endpoint's exactly A for some maximal pair (A,B); the pair is then
    unique. Accepts the edge in either orientation.
    """
    u, v = e
    if t.parity(u) == 1:
        u, v = v, u
    if t.parity(u) != 0 or v not in t.neighbors(u):
        raise ValueError(f"({e[0]},{e[1]}) is not a torus edge")
    nbrs = t.neighbor_table
    pal_u = mask_from(f[z] for z in nbrs[u])
    pal_v = mask_from(f[z] for z in nbrs[v])
    return instance_structure(g, w).pair_of.get((pal_v, pal_u))


def ideal_edge_map(
    t: TorusGraph, g: ConstraintGraph, w: WeightSet, f: Sequence[int]
) -> dict[tuple[int, int], MaximalPair]:
    """All ideal edges of f at once, keyed by (even endpoint, odd endpoint)."""
    pair_of = instance_structure(g, w).pair_of
    pal = _palettes(t, f)
    out = {}
    for e in t.edge_table:
        hit = pair_of.get((pal[e[1]], pal[e[0]]))
        if hit is not None:
            out[e] = hit
    return out


def ideal_fraction(
    t: TorusGraph, g: ConstraintGraph, w: WeightSet, f: Sequence[int]
) -> Fraction:
    return Fraction(len(ideal_edge_map(t, g, w, f)), t.num_edges)


def exact_not_ideal_probability(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    edge: tuple[int, int] | None = None,
) -> Fraction:
    """Exact Gibbs probability that a fixed edge is not ideal, by enumeration."""
    if edge is None:
        edge = (0, t.shift(0, t.d, 1))
    z = partition_function(t, g, w).z
    bad = Fraction(0)
    for f in enumerate_colorings(t, g):
        if is_ideal_edge(t, g, w, f, edge) is None:
            bad += coloring_weight(t, g, w, f)
    return bad / z


def _batch_stderr(xs: list[float]) -> float:
    nb = max(2, min(64, int(math.isqrt(len(xs)))))
    size = len(xs) // nb
    if size == 0:
        return float("inf")
    means = [
        sum(xs[i * size : (i + 1) * size]) / size for i in range(nb)
    ]
    grand = sum(means) / nb
    var = sum((mu - grand) ** 2 for mu in means) / (nb - 1)
    return math.sqrt(var / nb)


def epsilon_estimate(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    cfg: ChainConfig,
    *,
    all_edges: bool = True,
    initial="uniform-greedy",
) -> dict:
    """Monte-Carlo estimate of Pr(edge not ideal) with batch-means stderr.

    By vertex-transitivity every edge has the same probability, so the
    default averages the not-ideal indicator over all edges per sample
    (same mean, lower variance). all_edges=False watches the single
    edge from the origin along the last coordinate instead.
    """
    edge0 = (0, t.shift(0, t.d, 1))
    n_edges = t.num_edges
    xs: list[float] = []
    for f in run_chain(t, g, w, cfg, initial):
        ideal = ideal_edge_map(t, g, w, f)
        if all_edges:
            xs.append((n_edges - len(ideal)) / n_edges)
        else:
            xs.append(float(edge0 not in ideal))
    mean = sum(xs) / len(xs)
    return {
        "p_not_ideal": mean,
        "stderr": _batch_stderr(xs),
        "n_samples": len(xs),
        "mode": "all-edges" if all_edges else "single-edge",
    }


@dataclass(frozen=True)
class PhaseLabel:
    """Classification of one coloring by its ideal-edge structure."""

    kind: str  # "pure" or "exceptional"
    pair: MaximalPair | None
    defect_e: frozenset[int]
    defect_o: frozenset[int]
    ideal_fraction: Fraction
    balanced: bool | None
    deviations: tuple[tuple[int, float], ...] = field(default=())


def classify(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    f: Sequence[int],
    *,
    defect_cap: float = DEFAULT_DEFECT_CAP,
    balance_tol: float = DEFAULT_BALANCE_TOL,
) -> PhaseLabel:
    """Label a coloring Pure(A,B) or Exceptional from its ideal subgraph.

    Pure requires the largest ideal-edge component to cover at least
    (1 - defect_cap) of all vertices; among equal largest components the
    one holding the lowest vertex is taken (two can tie above the cap only
    when defect_cap >= 1/2). Its edges agree on one maximal pair
    by connectivity, and every component vertex is automatically colored
    inside its side's class, so the defect sets are small by
    construction. Balance compares per-color side frequencies against
    the within-class weight proportions, multiplicatively.
    """
    edge_pairs = ideal_edge_map(t, g, w, f)
    frac = Fraction(len(edge_pairs), t.num_edges)
    if not edge_pairs:
        return PhaseLabel("exceptional", None, frozenset(), frozenset(), frac, None)

    size, comp = giant_component_after_deletion(
        t, [e for e in t.edge_table if e not in edge_pairs]
    )
    if size < (1 - defect_cap) * t.n:
        return PhaseLabel("exceptional", None, frozenset(), frozenset(), frac, None)

    # the lowest id of the largest size holds the lowest vertex among them
    root = min(c for c, k in Counter(comp).items() if k == size)
    component_pairs = {p for e, p in edge_pairs.items() if comp[e[0]] == root}
    assert len(component_pairs) == 1  # connectivity forces agreement
    pair = component_pairs.pop()
    even, odd = t.side_table
    defect_e = frozenset(v for v in even if not (pair.a >> f[v]) & 1)
    defect_o = frozenset(v for v in odd if not (pair.b >> f[v]) & 1)

    half = t.n // 2
    class_weight = instance_structure(g, w).class_weight
    devs = []
    balanced = True
    for side, mask, side_vertices in (("e", pair.a, even), ("o", pair.b, odd)):
        lam = class_weight[mask]
        counts: dict[int, int] = {}
        for v in side_vertices:
            counts[f[v]] = counts.get(f[v], 0) + 1
        for k in mask_members(mask):
            target = w[k] / lam
            actual = Fraction(counts.get(k, 0), half)
            rel = float(abs(actual - target) / target)
            devs.append((k, rel))
            if rel > balance_tol:
                balanced = False
    return PhaseLabel(
        "pure", pair, defect_e, defect_o, frac, balanced, tuple(devs)
    )
