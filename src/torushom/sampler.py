"""Single-site Glauber dynamics and phase-structure observables.

The chain picks a uniform vertex and resamples its color from the
weights restricted to what the neighborhood allows, so the stationary
law is exactly the Gibbs distribution. On top of the dynamics sit the
structural observables: ideal edges (edges whose endpoint neighborhoods
show exactly the two palettes of a maximal pair), the not-ideal
probability estimator, and a phase labeller that labels each coloring of
a block by its largest ideal component.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .constraint_graph import (
    MAX_COLORS,
    ConstraintGraph,
    InstanceStructure,
    MaximalPair,
    WeightSet,
    instance_structure,
    mask_members,
)
from .errors import BudgetExceeded, EmptyConstraint, InvalidColoring, NoValidInitial
from .exact import Coloring, _coloring_fault
from .torus import TorusGraph

_GREEDY_RESTARTS = 100
_RNG_BUFFER = 1 << 14
# Entries of the palette gather (states x vertices x degree) a block of
# states may hold: 2,048 states on Q_2, 8 on Z_4^4, and one on Z_8^4,
# whose 32,768 entries are past the cap.
_BLOCK_ENTRIES = 1 << 14
# Neighbour cells (n * degree) a chain may hold. A chain keeps about
# 190-300 bytes of tables and state per cell, the most on degree-2 tori:
# `sample --steps 10` peaks near 790 MB on Z_1250000 (2.5M cells) and
# 450-490 MB on Q_17 (2.2M cells), both under 1 GB.
_CHAIN_CELLS = 2_500_000

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

    def require_samples(self) -> None:
        """ValueError unless the chain yields at least one state."""
        if (self.steps - self.burn_in) // self.thin == 0:
            raise ValueError(
                f"the chain yields no sample: steps - burn_in = "
                f"{self.steps} - {self.burn_in} is below thin = {self.thin}"
            )


@dataclass
class ChainStats:
    """Totals over the runs given this object; a run adds its steps, forced
    moves and color changes when its generator is exhausted or closed."""

    steps: int = 0
    forced_moves: int = 0
    color_changes: int = 0
    # "greedy", "pure", "explicit", or "pure-fallback" after greedy gave up.
    start: str = ""
    # greedy fills that dead-ended before the start: _GREEDY_RESTARTS
    # for "pure-fallback", 0 for a start that is not greedy
    restarts: int = 0


def chain_rng(seed: int) -> np.random.Generator:
    """The chain's random stream, derived from its seed."""
    # spawn_key=(0,) keeps every seeded stream byte-identical to the trajectory locks.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    )


def _draw(table: tuple[tuple[int, ...], list[float], float], u: float) -> int:
    """The color a uniform u in [0, 1) picks from a (colors, cumulative
    weights, total) draw table. Callers draw u, so each keeps its own RNG
    use. The +inf last cumulative weight keeps u * total, which rounding
    can bring up to the total, on the last color."""
    colors, cum, total = table
    return colors[bisect_right(cum, u * total)]


def _greedy_initial(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    rng: np.random.Generator,
    pinned: tuple[int, int] | None,
) -> tuple[list[int], int]:
    """A weighted greedy fill in random order, and how many fills dead-ended
    before it."""
    tables = w.draw_tables
    nbrs = t.neighbor_table
    for restarts in range(_GREEDY_RESTARTS):
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
            return state, restarts  # type: ignore[return-value]
    raise NoValidInitial(
        f"greedy initialization failed {_GREEDY_RESTARTS} times"
    )


def _pure_initial(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    rng: np.random.Generator,
    pinned: tuple[int, int] | None,
) -> list[int]:
    """Pure start from the first maximal pair whose class on the pinned
    vertex's side holds the pinned color (the first pair when nothing is
    pinned), with the pin's neighbourhood repaired greedily.

    Every pure coloring is valid, so this fails only when H has no maximal
    pair (EmptyConstraint) or no pair admits the pin (NoValidInitial).
    """
    pairs = instance_structure(g, w).pairs
    if pinned is not None:
        y, lcol = pinned
        side = t.parity_table[y]
        pairs = [p for p in pairs if ((p.b if side else p.a) >> lcol) & 1]
        if not pairs:
            raise NoValidInitial("no maximal pair admits the pin")
    tables = w.draw_tables
    sides = (tables[pairs[0].a], tables[pairs[0].b])
    state = [_draw(sides[p], rng.random()) for p in t.parity_table]
    if pinned is not None:
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


def _resolve_initial(t, g, w, initial, rng, pinned) -> tuple[list[int], str, int]:
    """The initial state, the kind of start that produced it, and the
    greedy fills that dead-ended before it."""
    if initial == "uniform-greedy":
        try:
            state, restarts = _greedy_initial(t, g, w, rng, pinned)
            return state, "greedy", restarts
        except NoValidInitial:
            pass
        try:
            state = _pure_initial(t, g, w, rng, pinned)
        except (EmptyConstraint, NoValidInitial) as e:
            raise NoValidInitial(
                f"greedy initialization failed {_GREEDY_RESTARTS} times "
                f"and no pure start was found: {e}"
            ) from None
        return state, "pure-fallback", _GREEDY_RESTARTS
    if initial == "pure":
        return _pure_initial(t, g, w, rng, pinned), "pure", 0
    if isinstance(initial, str):
        raise ValueError(
            f"unknown initializer {initial!r}: use uniform-greedy or pure"
        )
    fault = _coloring_fault(t, g, initial)
    if fault is not None:
        raise InvalidColoring(f"explicit initial coloring is not valid: {fault}")
    state = list(initial)
    if pinned is not None and state[pinned[0]] != pinned[1]:
        raise InvalidColoring("explicit initial coloring contradicts the pin")
    return state, "explicit", 0


def run_chain(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    cfg: ChainConfig,
    initial="uniform-greedy",
    *,
    stats: ChainStats | None = None,
) -> Iterator[Coloring]:
    """Stream thinned post-burn-in states; deterministic given the config.

    The pinned vertex (if any) keeps its color for the whole run, which
    targets the conditional Gibbs law exactly. Initializers: a coloring,
    "uniform-greedy" (random order, weighted greedy fill, restarts, then a
    pure start that admits the pin if every restart fails), or "pure" for a
    two-palette start from the first maximal pair whose class on the pinned
    vertex's side holds the pinned color; any other string is a ValueError.
    `stats.start` records which start was used. A torus of more than
    _CHAIN_CELLS neighbour cells is refused (BudgetExceeded) first.

    Each vertex keeps a neighbour code, the sum of (degree + 1)^c over its
    neighbours' colors c, which names the multiset of colors around it. A
    step finds the vertex's draw table under its code in a per-run dict
    and draws by `_draw`'s rule, inlined; a color change a -> b adds
    (degree + 1)^b - (degree + 1)^a to each neighbour's code. The totals
    in `stats` are added once, when the generator is exhausted (every
    step) or closed (the steps up to the last state yielded).
    """
    if t.n * t.degree > _CHAIN_CELLS:
        raise BudgetExceeded(
            f"the chain needs {t.n}*{t.degree} > {_CHAIN_CELLS} neighbour cells"
        )
    if cfg.pinned is not None:
        y, lcol = cfg.pinned
        if not (0 <= y < t.n) or not (0 <= lcol < g.h):
            raise ValueError("pinned pair outside instance")
    rng = chain_rng(cfg.seed)
    state, start, restarts = _resolve_initial(t, g, w, initial, rng, cfg.pinned)
    if stats is not None:
        stats.start, stats.restarts = start, restarts
    # the vertex a draw skips; n, which no draw reaches, when nothing is pinned
    pinned_vertex = cfg.pinned[0] if cfg.pinned is not None else t.n
    free_count = t.n - (1 if cfg.pinned is not None else 0)
    steps, thin = cfg.steps, cfg.thin
    tables = w.draw_tables
    nbrs = t.neighbor_table
    adj = g.adj
    full = g.full_mask
    # each vertex has fewer than `base` neighbours: a code names one multiset
    base = t.degree + 1
    powers = [base**c for c in range(g.h)]

    def stream() -> Iterator[Coloring]:
        code = [sum(powers[state[u]] for u in row) for row in nbrs]
        by_code: dict[int, tuple] = {}  # code -> tables[candidate mask]
        forced = changes = 0
        done = cfg.burn_in  # steps up to the last item yielded
        countdown = cfg.burn_in + thin  # steps to the next output
        left = steps
        try:
            while left:
                # memoryviews iterate as plain Python numbers, without a
                # list of 2 * _RNG_BUFFER boxed values
                vbuf = memoryview(rng.integers(0, free_count, size=_RNG_BUFFER))
                ubuf = memoryview(rng.random(_RNG_BUFFER))
                k = min(left, _RNG_BUFFER)
                left -= k
                for v, u in zip(vbuf[:k], ubuf[:k]):
                    if v >= pinned_vertex:
                        v += 1
                    try:
                        table = by_code[code[v]]
                    except KeyError:
                        cand = full
                        for x in nbrs[v]:
                            cand &= adj[state[x]]
                        table = by_code[code[v]] = tables[cand]
                    colors, cum, total = table
                    if len(colors) == 1:
                        new = colors[0]
                        forced += 1
                    else:
                        # _draw's rule, inlined
                        new = colors[bisect_right(cum, u * total)]
                    old = state[v]
                    if new != old:
                        changes += 1
                        state[v] = new
                        delta = powers[new] - powers[old]
                        for x in nbrs[v]:
                            code[x] += delta
                    countdown -= 1
                    if not countdown:
                        countdown = thin
                        done += thin
                        yield tuple(state)
            done = steps
        finally:
            if stats is not None:
                stats.steps += done
                stats.forced_moves += forced
                stats.color_changes += changes

    return stream()


@lru_cache(maxsize=256)
def _pair_keys(s: InstanceStructure) -> np.ndarray:
    """A << MAX_COLORS | B of each pair in `s.pairs` (ascending in A, so
    ascending), then a key no pair has, for `_ideal_hits`."""
    keys = [p.a << MAX_COLORS | p.b for p in s.pairs] + [np.iinfo(np.int64).max]
    return np.array(keys, dtype=np.int64)


def _ideal_hits(
    t: TorusGraph, s: InstanceStructure, states
) -> tuple[np.ndarray, np.ndarray]:
    """Ideal edges of a 2-D block of states, one row per state.

    Returns, per row and per entry of t.edge_table, whether the edge is
    ideal, and the place in `s.pairs` of the pair it shows (read it only
    where the edge is ideal). The odd endpoint's neighborhood must show A
    and the even endpoint's B. The palettes are numpy gathers over the
    torus arrays, and each edge's (A, B) key is searched among the pairs'.
    """
    keys = _pair_keys(s)
    bits = np.left_shift(1, np.asarray(states), dtype=np.int64)
    rows = iter(t.neighbor_array)
    pal = bits.take(next(rows), axis=1)
    for row in rows:
        pal |= bits.take(row, axis=1)
    even, odd = t.edge_array
    key = pal.take(odd, axis=1) << MAX_COLORS
    key |= pal.take(even, axis=1)
    at = keys.searchsorted(key)
    return keys.take(at) == key, at


def _blocks(t: TorusGraph, states: Iterable) -> Iterator[list]:
    """`states` in lists of as many rows as one `_ideal_hits` block holds."""
    rows = max(1, _BLOCK_ENTRIES // (t.n * t.degree))
    it = iter(states)
    return iter(lambda: list(islice(it, rows)), [])


def _state_blocks(t: TorusGraph, states: Iterable[Coloring]) -> Iterator[np.ndarray]:
    """`states` in 2-D uint8 arrays of as many rows as one `_ideal_hits`
    block holds."""
    # colors are below MAX_COLORS = 16: a byte each
    for block in _blocks(t, map(bytes, states)):
        yield np.frombuffer(b"".join(block), np.uint8).reshape(len(block), t.n)


def _batch_stderr(xs: Sequence[float]) -> float:
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
    initial="uniform-greedy",
) -> dict:
    """Monte-Carlo estimate of Pr(edge not ideal) with batch-means stderr.

    By vertex-transitivity every edge has the same probability, so each
    sample contributes its share of not-ideal edges: the same mean as one
    watched edge, with lower variance.
    """
    cfg.require_samples()
    s = instance_structure(g, w)
    n_edges = t.num_edges
    xs: list[float] = []
    for states in _state_blocks(t, run_chain(t, g, w, cfg, initial)):
        hit, _ = _ideal_hits(t, s, states)
        # the same float as (n_edges - ideal count) / n_edges in Python
        xs.extend(((n_edges - hit.sum(axis=1)) / n_edges).tolist())
    mean = sum(xs) / len(xs)
    return {
        "p_not_ideal": mean,
        "stderr": _batch_stderr(xs),
        "n_samples": len(xs),
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


def _component_roots(t: TorusGraph, kept: np.ndarray) -> np.ndarray:
    """The lowest vertex of each vertex's component in the subgraph of the
    kept edges, where `kept` holds a truth value per row and entry of
    t.edge_table; one row of vertices per row of `kept`.

    Every vertex starts as its own root. Each round hooks the larger root
    of every edge whose ends have different roots onto the smallest root
    it meets there, then jumps pointers until each vertex points at a
    root. Roots only move down, so the root of a component is its lowest
    vertex; an edge whose ends share a root is dropped for good.
    """
    rows, edges = np.nonzero(kept)
    n = t.n
    even, odd = t.edge_array
    u = even.take(edges) + rows * n
    v = odd.take(edges) + rows * n
    root = np.arange(len(kept) * n)
    while True:
        ru, rv = root.take(u), root.take(v)
        split = ru != rv
        if not split.any():
            break
        u, v, ru, rv = u[split], v[split], ru[split], rv[split]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root.take(root)
            if np.array_equal(up, root):
                break
            root = up
    return root.reshape(-1, n) - np.arange(0, root.size, n)[:, None]


def label_block(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    states,
    *,
    defect_cap: float = DEFAULT_DEFECT_CAP,
    balance_tol: float = DEFAULT_BALANCE_TOL,
) -> tuple[list[PhaseLabel], np.ndarray]:
    """Label each row of a 2-D block of colorings Pure(A,B) or Exceptional
    from its ideal subgraph, and count each side's colors.

    Returns one label per row and a (rows, 2, h) array of how many even
    (index 0) and odd (index 1) vertices of each row hold each color.

    Pure requires the largest ideal-edge component to cover at least
    (1 - defect_cap) of all vertices; among equal largest components the
    one holding the lowest vertex is taken (two can tie above the cap only
    when defect_cap >= 1/2). Its edges agree on one maximal pair
    by connectivity, and every component vertex is automatically colored
    inside its side's class, so the defect sets are small by
    construction. Balance compares per-color side frequencies against
    the within-class weight proportions, multiplicatively.

    The whole block shares one `_ideal_hits` gather, one component
    search and one count of colors per side.
    """
    s = instance_structure(g, w)
    states = np.asarray(states)
    r, n = states.shape
    hit, at = _ideal_hits(t, s, states)
    n_ideal = hit.sum(axis=1)
    # component sizes, counted at each component's lowest vertex
    roots = _component_roots(t, hit) + np.arange(0, r * n, n)[:, None]
    sizes = np.bincount(roots.ravel(), minlength=r * n).reshape(r, n)
    # the first largest root is the component with the lowest vertex
    best = sizes.argmax(axis=1)
    pure = np.flatnonzero(
        (n_ideal > 0) & (sizes.max(axis=1) >= (1 - defect_cap) * n)
    )

    # colors by side: sided[i, 0] on the even vertices, sided[i, 1] odd
    h = g.h
    sided = states.take(t.side_array, axis=1)
    slots = np.arange(0, 2 * r * h, h).reshape(r, 2, 1)
    counts = np.bincount(
        (sided + slots).ravel(), minlength=2 * r * h
    ).reshape(r, 2, h)

    # The component has an ideal edge at each of its vertices, and its
    # edges agree on one maximal pair by connectivity: read it off the
    # first ideal edge at the component's lowest vertex.
    incident = t.incidence_array.take(best[pure], axis=1)
    first = hit[pure, incident].argmax(axis=0)
    which = at[pure, incident[first, np.arange(len(pure))]].tolist()
    classes = np.array([s.pairs[k] for k in which], dtype=np.int64)
    classes = classes.reshape(-1, 2, 1)
    # the vertices of each side colored outside that side's class, in
    # order of pure row, then side
    outside = ((classes >> sided[pure]) & 1) == 0
    place = np.nonzero(outside)
    defects = t.side_array[place[1], place[2]].tolist()
    bounds = [0, *outside.sum(axis=2).cumsum().tolist()]
    sets = [frozenset(defects[a:b]) for a, b in zip(bounds, bounds[1:])]
    found = dict(zip(pure.tolist(), zip(which, sets[0::2], sets[1::2])))

    ints = s.int_weights
    half = n // 2
    labels = []
    for i, (ideal, side_counts) in enumerate(
        zip(n_ideal.tolist(), counts.tolist())
    ):
        frac = Fraction(ideal, t.num_edges)
        if i not in found:
            labels.append(PhaseLabel(
                "exceptional", None, frozenset(), frozenset(), frac, None
            ))
            continue
        at_pair, defect_e, defect_o = found[i]
        pair = s.pairs[at_pair]
        # With c of a side's half vertices colored k, the deviation
        # |c/half - lambda_k/lambda_A| / (lambda_k/lambda_A) is the rational
        # |c lambda_A - half lambda_k| / (half lambda_k), here in the integer-
        # scaled weights; int / int rounds it once, as float(Fraction) does.
        devs = []
        balanced = True
        for mask, side in zip(pair, side_counts):
            members = mask_members(mask)
            lam = sum(ints[k] for k in members)
            for k in members:
                target = half * ints[k]
                rel = abs(side[k] * lam - target) / target
                devs.append((k, rel))
                if rel > balance_tol:
                    balanced = False
        labels.append(PhaseLabel(
            "pure", pair, defect_e, defect_o, frac, balanced, tuple(devs)
        ))
    return labels, counts
