"""Reference definitions that tests compare the program against.

None of this is reached by the `torushom` program, so it lives beside the
tests rather than in `src/`: the largest component of a subgraph by
depth-first search, the farthest vertex by breadth-first search,
the definition of an admissible pair, the block sizes of a blow-up, plain
enumeration of colorings and their weights, the weight of each
layer state, closed forms for pure and near-pure families, the
eta^(n/2) bounds on |Hom|, the enumeration twin of the not-ideal
estimator with its edge lookup, the label of a single coloring, the per-color limit targets, the exact and
limiting influence ratios, the exact-versus-limit comparison records, the
q-coloring count prediction, the closed-chain count g of one color-set
tuple with the per-pair alternating identity it checks, the JSON form of an
extremal-identity report, and the Glauber chain with its per-step palette AND. pytest does not
collect this module; tests import from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

import numpy as np

from torushom.analysis import (
    EVEN,
    ODD,
    SAME_SIDE,
    ComparisonRecord,
    _check_relation,
    _check_side,
    _prefactor_string,
    conjecture_f_q,
    exact_occupation_vector,
    far_vertex,
    sup_distance,
    theorem_conditional_vector,
    theorem_occupation_vector,
)
from torushom.constraint_graph import (
    Blowup,
    ColorSet,
    ConstraintGraph,
    MaximalPair,
    WeightSet,
    common_neighborhood,
    instance_structure,
    mask_members,
    mask_size,
    subset_weight,
)
from torushom.errors import InvalidColoring, TorushomError
from torushom.exact import (
    Coloring,
    Pins,
    _coloring_fault,
    _cycle_trace,
    _pin_masks,
    brute_force_partition_function,
    transfer_matrix_partition_function,
)
from torushom.proof_quantities import (
    ColorSetTuple,
    ExtremalIdentityReport,
    _factor,
    _validate_tuple_length,
    alternating_tuple,
)
from torushom.sampler import (
    _RNG_BUFFER,
    DEFAULT_BALANCE_TOL,
    DEFAULT_DEFECT_CAP,
    ChainConfig,
    ChainStats,
    PhaseLabel,
    _blocks,
    _draw,
    _ideal_hits,
    _resolve_initial,
    chain_rng,
    label_block,
)
from torushom.torus import TorusGraph


# ------------------------------------------------------------- geometry

def decode(t: TorusGraph, v: int) -> tuple[int, ...]:
    """The coordinates of vertex v, inverse to `TorusGraph.encode`."""
    t._check(v)
    out = []
    for _ in range(t.d):
        out.append(v % t.m)
        v //= t.m
    return tuple(reversed(out))


def giant_component(t: TorusGraph, kept) -> tuple[int, int, list[int]]:
    """Components of the subgraph of the kept edges, where `kept` holds a
    truth value per entry of t.edge_table, by depth-first search. Returns
    the largest size, the id of the first component of that size and a
    component id per vertex; ids count up from 0 in the order of each
    component's lowest vertex."""
    n = t.n
    # kept neighbors per vertex; n stands in for a dropped one
    rows = np.where(
        np.asarray(kept, dtype=bool)[t.incidence_array], t.neighbor_array, n
    ).T.tolist()
    comp = [-1] * n + [0]  # the stand-in counts as visited
    best = root = 0
    cid = 0
    for s in range(n):
        if comp[s] >= 0:
            continue
        stack = [s]
        comp[s] = cid
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for v in rows[u]:
                if comp[v] < 0:
                    comp[v] = cid
                    stack.append(v)
        if size > best:
            best, root = size, cid
        cid += 1
    del comp[n]
    return best, root, comp


def far_vertex_bfs(t: TorusGraph, side: str) -> int:
    """Farthest vertex from the origin within one parity class (smallest
    index among ties), by breadth-first search over the whole torus."""
    _check_side(side)
    want = 0 if side == EVEN else 1
    dist = [-1] * t.n
    dist[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for v in queue:
            for u in t.neighbors(v):
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        queue = nxt
    best = None
    for v in range(t.n):
        if t.parity(v) == want and (best is None or dist[v] > dist[best]):
            best = v
    return best


def edge_index(t: TorusGraph, e: tuple[int, int]) -> int:
    """The t.edge_table index of the edge e, given in either orientation;
    ValueError if e is not a torus edge."""
    u, v = e
    if 0 <= u < t.n and 0 <= v < t.n:
        if t.parity_table[u]:
            u, v = v, u
        row = t.neighbor_table[u]
        if v in row:
            return int(t.incidence_array[row.index(v), u])
    raise ValueError(f"({e[0]},{e[1]}) is not a torus edge")


# ---------------------------------------------------- constraint graphs

def relabeled(g: ConstraintGraph, perm: Sequence[int]) -> ConstraintGraph:
    """Apply a color permutation: new color perm[k] plays old k's role."""
    adj = [0] * g.h
    for k in range(g.h):
        row = 0
        for j in mask_members(g.adj[k]):
            row |= 1 << perm[j]
        adj[perm[k]] = row
    labels = [""] * g.h
    for k in range(g.h):
        labels[perm[k]] = g.labels[k]
    return ConstraintGraph(g.h, tuple(adj), tuple(labels))


def block_sizes(bu: Blowup) -> tuple[int, ...]:
    """The number of clones of each original color in a blow-up."""
    return tuple(mask_size(b) for b in bu.blocks)


def all_adjacent(g: ConstraintGraph, a: ColorSet, b: ColorSet) -> bool:
    """True iff every color of a is adjacent to every color of b
    (vacuously true when either side is empty)."""
    for x in mask_members(a):
        if b & ~g.adj[x]:
            return False
    return True


# ------------------------------------------------------- exact counting

def coloring_weight(
    t: TorusGraph, g: ConstraintGraph, w: WeightSet, f: Sequence[int]
) -> Fraction:
    """Product of vertex weights of a valid coloring.

    Raises InvalidColoring when f is not a valid coloring.
    """
    fault = _coloring_fault(t, g, f)
    if fault is not None:
        raise InvalidColoring(fault)
    return math.prod((w[k] for k in f), start=Fraction(1))


def is_valid_coloring(t: TorusGraph, g: ConstraintGraph, f: Sequence) -> bool:
    """True when every entry is a color and every torus edge lands on an
    edge of the constraint graph."""
    return _coloring_fault(t, g, f) is None


def enumerate_colorings(
    t: TorusGraph, g: ConstraintGraph, pins: Pins | None = None
) -> Iterator[Coloring]:
    """Yield every valid coloring, optionally restricted by per-vertex pins."""
    n = t.n
    masks = _pin_masks(t, g, pins)
    lower = [[u for u in t.neighbors(v) if u < v] for v in range(n)]
    adj = g.adj
    color = [0] * n

    def rec(v: int) -> Iterator[Coloring]:
        cand = masks[v]
        for u in lower[v]:
            cand &= adj[color[u]]
        while cand:
            bit = cand & -cand
            cand ^= bit
            color[v] = bit.bit_length() - 1
            if v == n - 1:
                yield tuple(color)
            else:
                yield from rec(v + 1)

    yield from rec(0)


def state_weights(states: np.ndarray, w: WeightSet) -> list[int]:
    """Integer-scaled weight of each layer state (one row of colors each),
    as a Python product over its positions."""
    wint = w.integer_scaled()[1]
    return [math.prod(wint[c] for c in row) for row in states.tolist()]


def pure_coloring_weight(
    g: ConstraintGraph, w: WeightSet, pair: MaximalPair, t: TorusGraph
) -> Fraction:
    """Total weight of colorings that map one side into A and the other into B.

    Equals (lambda_A * lambda_B)^(n/2); at all-1 weights this is the count
    (|A||B|)^(n/2).
    """
    return (subset_weight(w, pair.a) * subset_weight(w, pair.b)) ** (t.n // 2)


def check_global_bounds(t: TorusGraph, g: ConstraintGraph, w: WeightSet) -> dict:
    """Compare |Hom| against eta^(n/2) below and eta^(n/2) * 2^(n/(2 deg)) above.

    The lower bound is universal and is asserted; the upper bound is an
    asymptotic statement in the degree and is only reported, since small
    tori can violate it numerically.
    """
    if not (w.is_uniform() and w[0] == 1):
        raise ValueError("global bounds are stated for all-1 weights")
    z = transfer_matrix_partition_function(t, g, w).z
    eta = instance_structure(g, w).eta
    lower = eta ** (t.n // 2)
    if z < lower:
        raise TorushomError(
            f"lower bound violated: Z={z} < eta^(n/2)={lower}"
        )
    upper = float(lower) * 2.0 ** (t.n / (2 * t.degree))
    return {
        "z": z,
        "eta": eta,
        "n": t.n,
        "degree": t.degree,
        "lower_bound": lower,
        "lower_ok": True,
        "lower_slack": float(z / lower),
        "upper_bound": upper,
        "upper_ok": float(z) <= upper,
        "upper_slack": upper / float(z) if z else math.inf,
    }


def near_pure_one_defect_count(
    t: TorusGraph, g: ConstraintGraph, pair: MaximalPair
) -> int:
    """Count colorings that are pure-(A,B) except one even vertex colored in B.

    Requires A and B disjoint so "colored from B" is unambiguous. Counted
    by construction: sum over the defect vertex of a pinned enumeration.
    """
    if pair.a & pair.b:
        raise ValueError("defect family needs disjoint classes")
    even, odd = t.side_table
    w = WeightSet.ones(g.h)
    total = Fraction(0)
    for v in even:
        pins = {u: (pair.b if u == v else pair.a) for u in even}
        pins.update({u: pair.b for u in odd})
        total += brute_force_partition_function(t, g, w, pins=pins).z
    assert total.denominator == 1
    return int(total)


# ------------------------------------------------------ proof quantities

def cycle_count_g(g: ConstraintGraph, sets: ColorSetTuple) -> int:
    """Closed chains (x_0, ..., x_{m-1}), x_i in A_i, consecutive pairs adjacent.

    Computed as trace(prod_i diag(1_{A_i}) Adj(H)). For m=2 this counts
    each adjacent pair once: the 0/1 entries are idempotent under the
    closure, so a 2-column is an edge, not a doubled cycle.
    """
    m = len(sets)
    _validate_tuple_length(m)
    return _cycle_trace(lambda _: [_factor(g, s) for s in sets], g.h**m, g.h)


def tuple_neighborhood(g: ConstraintGraph, sets: ColorSetTuple) -> ColorSetTuple:
    """Componentwise common neighborhood of a color-set tuple."""
    return tuple(common_neighborhood(g, s) for s in sets)


def check_alternating_identity(g: ConstraintGraph, w: WeightSet, m: int) -> int:
    """Verify g(alt) * g(n alt) = eta^m on every maximal pair; return the count.

    A violation raises TorushomError: it would falsify the structure
    theory itself, not indicate caller error.
    """
    if not (w.is_uniform() and w[0] == 1):
        raise ValueError("extremal identities are stated at all-1 weights")
    _validate_tuple_length(m)
    s = instance_structure(g, w)
    assert s.eta.denominator == 1
    eta_m = int(s.eta) ** m
    for p in s.pairs:
        alt = alternating_tuple(p.a, p.b, m)
        prod_val = cycle_count_g(g, alt) * cycle_count_g(g, tuple_neighborhood(g, alt))
        if prod_val != eta_m:
            raise TorushomError(f"identity violated on pair {p}: {prod_val} != {eta_m}")
    return len(s.pairs)


def extremal_report_json(report: ExtremalIdentityReport) -> dict:
    """The report as JSON data, each witness set as its sorted colors."""
    return {
        "eta": report.eta,
        "m": report.m,
        "identity_checked": report.identity_checked,
        "delta": report.delta,
        "delta_is_exact": report.delta_is_exact,
        "witnesses": [
            [sorted(mask_members(s)) for s in wit] for wit in report.witnesses
        ],
    }


# ---------------------------------------------------------------- chain

def reference_chain(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    cfg: ChainConfig,
    initial="uniform-greedy",
    *,
    stats: ChainStats | None = None,
) -> Iterator[Coloring]:
    """The Glauber chain with the per-step palette AND: each step ANDs the
    allowed masks of the picked vertex's neighbours, draws through `_draw`,
    and writes the running totals to `stats` at every yield. `run_chain`
    must yield the same states and leave the same totals."""
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

    def stream() -> Iterator[Coloring]:
        # The counters live in locals and reach `stats` at every yield and
        # at the end, so a reader between items sees the running totals.
        if stats is not None:
            base = (stats.steps, stats.forced_moves, stats.color_changes)
        forced = changes = 0
        # adj[state[u]] for every vertex, kept in step with state
        allowed = [adj[c] for c in state]
        countdown = cfg.burn_in + thin  # steps to the next output
        vbuf = ubuf = None
        pos = _RNG_BUFFER
        for step in range(1, steps + 1):
            if pos == _RNG_BUFFER:
                # memoryviews index to plain Python numbers, without a list
                # of 2 * _RNG_BUFFER boxed values
                vbuf = memoryview(rng.integers(0, free_count, size=_RNG_BUFFER))
                ubuf = memoryview(rng.random(_RNG_BUFFER))
                pos = 0
            v = vbuf[pos]
            if v >= pinned_vertex:
                v += 1
            cand = full
            for u in nbrs[v]:
                cand &= allowed[u]
            table = tables[cand]
            if len(table[0]) == 1:
                new = table[0][0]
                forced += 1
            else:
                new = _draw(table, ubuf[pos])
            pos += 1
            if new != state[v]:
                changes += 1
                state[v] = new
                allowed[v] = adj[new]
            countdown -= 1
            if not countdown:
                countdown = thin
                if stats is not None:
                    stats.steps, stats.forced_moves, stats.color_changes = (
                        base[0] + step, base[1] + forced, base[2] + changes
                    )
                yield tuple(state)
        if stats is not None:
            stats.steps, stats.forced_moves, stats.color_changes = (
                base[0] + steps, base[1] + forced, base[2] + changes
            )

    return stream()


# ---------------------------------------------------------- ideal edges

def classify(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    f: Sequence[int],
    *,
    defect_cap: float = DEFAULT_DEFECT_CAP,
    balance_tol: float = DEFAULT_BALANCE_TOL,
) -> PhaseLabel:
    """The label of one coloring: `label_block` on a block of one."""
    labels, _ = label_block(
        t, g, w, [f], defect_cap=defect_cap, balance_tol=balance_tol
    )
    return labels[0]


def ideal_edge_map(
    t: TorusGraph, g: ConstraintGraph, w: WeightSet, f: Sequence[int]
) -> dict[tuple[int, int], MaximalPair]:
    """All ideal edges of f at once, keyed by (even endpoint, odd endpoint)."""
    s = instance_structure(g, w)
    hit, at = _ideal_hits(t, s, (f,))
    pairs, edges = s.pairs, t.edge_table
    found = np.flatnonzero(hit[0])
    return {
        edges[e]: pairs[k] for e, k in zip(found.tolist(), at[0, found].tolist())
    }


def exact_not_ideal_probability(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    edge: tuple[int, int] | None = None,
) -> Fraction:
    """Exact Gibbs probability that a fixed edge is not ideal, by enumeration."""
    i = edge_index(t, (0, t.shift(0, t.d, 1)) if edge is None else edge)
    z = transfer_matrix_partition_function(t, g, w).z
    s = instance_structure(g, w)
    bad = Fraction(0)
    for block in _blocks(t, enumerate_colorings(t, g)):
        hit, _ = _ideal_hits(t, s, block)
        for f, ideal in zip(block, hit[:, i].tolist()):
            if not ideal:
                bad += coloring_weight(t, g, w, f)
    return bad / z


# ------------------------------------------------------------- analysis

def theorem_occupation_target(
    g: ConstraintGraph, w: WeightSet, side: str, k: int
) -> Fraction:
    """Limit of p(f(x)=k) for x on the given side."""
    return theorem_occupation_vector(g, w, side)[k]


def theorem_conditional_target(
    g: ConstraintGraph, w: WeightSet, relation: str, k: int, ell: int
) -> Fraction:
    """Limit of p(f(x)=k | f(y)=ell) for even x and far y."""
    return theorem_conditional_vector(g, w, relation, ell)[k]


class ZeroDenominator(TorushomError):
    """Influence ratio requested with a zero unconditional probability."""


def theorem_influence_ratio(
    g: ConstraintGraph, w: WeightSet, relation: str, k: int, ell: int
) -> Fraction:
    """Limit of the conditional-to-unconditional ratio at far vertices."""
    base = theorem_occupation_target(g, w, EVEN, k)
    if base == 0:
        raise ZeroDenominator(f"occupation target of color {k} is zero")
    return theorem_conditional_target(g, w, relation, k, ell) / base


def conditional_comparison(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    relation: str,
    ell: int,
    *,
    y: int | None = None,
    target: Sequence | None = None,
) -> ComparisonRecord:
    """Exact conditional occupation at the origin vs the limit target.

    y defaults to the farthest vertex on the side the relation implies;
    an explicit target overrides the class-uniform one.
    """
    _check_relation(relation)
    if y is None:
        y = far_vertex(t, EVEN if relation == SAME_SIDE else ODD)
    if target is None:
        target = theorem_conditional_vector(g, w, relation, ell)
    vec = exact_occupation_vector(t, g, w, 0, (y, ell))
    return ComparisonRecord(
        label=f"{relation} ell={ell} y={y} m={t.m} d={t.d}",
        target=tuple(target),
        exact=vec,
        distance=sup_distance(vec, target),
    )


def occupation_comparison(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    *,
    x: int = 0,
    target: Sequence | None = None,
) -> ComparisonRecord:
    if target is None:
        target = theorem_occupation_vector(g, w, EVEN)
    vec = exact_occupation_vector(t, g, w, x)
    return ComparisonRecord(
        label=f"occupation x={x} m={t.m} d={t.d}",
        target=tuple(target),
        exact=vec,
        distance=sup_distance(vec, target),
    )


def influence_ratio(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    x: int,
    k: int,
    y: int,
    ell: int,
) -> Fraction:
    """Exact finite-torus ratio p(f(x)=k | f(y)=ell) / p(f(x)=k): entry k
    of the conditional law of f(x) over entry k of its unconditional law."""
    if not (0 <= k < g.h):
        raise ValueError(f"color {k} outside palette")
    base = exact_occupation_vector(t, g, w, x)[k]
    if base == 0:
        raise ZeroDenominator(f"p(f({x})={k}) is zero on this torus")
    return exact_occupation_vector(t, g, w, x, (y, ell))[k] / base


@dataclass(frozen=True)
class ColoringCountPrediction:
    """Predicted proper q-coloring count of the m=2 torus of dimension d:
    pair_count * base^(2^(d-1)) * exp(correction_exponent)."""

    q: int
    d: int
    pair_count: int
    base: int
    correction_exponent: Fraction

    @property
    def prefactor_model(self) -> str:
        return _prefactor_string(self.pair_count, self.correction_exponent)

    def value(self) -> float:
        return (
            self.pair_count
            * float(self.base) ** (2 ** (self.d - 1))
            * math.exp(float(self.correction_exponent))
        )


def coloring_count_prediction(q: int, d: int) -> ColoringCountPrediction:
    if q < 2 or d < 1:
        raise ValueError("need q >= 2 and d >= 1")
    return ColoringCountPrediction(
        q=q,
        d=d,
        pair_count=(1 + (q % 2)) * comb(q, q // 2),
        base=(q // 2) * ((q + 1) // 2),
        correction_exponent=conjecture_f_q(q, d),
    )
