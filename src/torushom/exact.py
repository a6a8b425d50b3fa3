"""Exact weighted counting on even discrete tori.

Two independent routes compute the same partition function: a sweep over
the vertices in index order that keeps one array over the colorings of its
frontier (the swept vertices that still have an unswept neighbor) and
eliminates each vertex once its last neighbor is swept, and a layered
transfer matrix. They share numpy and the `_arithmetic` rule but not the
decomposition (vertex elimination against layer transfer), which is what
makes their exact agreement a meaningful cross-check. Everything here is
exact. Floating point touches a partition function in one place only: the
unpinned transfer contraction runs on float64 BLAS when an entry bound
proves that every value it forms is an integer below 2^53, where float64
arithmetic is exact (`_arithmetic`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from numbers import Integral
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .constraint_graph import (
    ConstraintGraph,
    MaximalPair,
    WeightSet,
    instance_structure,
    mask_from,
    mask_members,
    subset_weight,
)
from .errors import (
    BudgetExceeded,
    InvalidColoring,
    TorushomError,
    ZeroConditioningEvent,
)
from .torus import TorusGraph

Coloring = tuple[int, ...]
# Pins map a vertex to a bitmask of colors it may take.
Pins = Mapping[int, int]

DEFAULT_BRUTE_BUDGET = 10**8
DEFAULT_TRANSFER_BUDGET = 10**7

# Below this, float64 represents every integer and adds them exactly.
_FLOAT64_EXACT = 2**53
# Above this, int64 layer products could overflow; switch to exact bigints.
_INT64_SAFE = 2**62


def _arithmetic(bound: int, *, blas: bool = False) -> tuple[str, object]:
    """(label, dtype) of the narrowest exact arithmetic for nonnegative integer
    matrix products whose entries, partial sums and trace stay at most
    `bound`: float64 below 2^53 if `blas`, int64 below 2^62, else Python ints."""
    if blas and bound < _FLOAT64_EXACT:
        return "float64", np.float64
    if bound < _INT64_SAFE:
        return "int64", np.int64
    return "int", object


def _bit_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """0/1 uint8 matrix whose row i holds bits 0..n-1 of masks[i]."""
    nbytes = (n + 7) // 8
    data = b"".join(x.to_bytes(nbytes, "little") for x in masks)
    rows = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little")


def _cycle_trace(factors: Iterable[np.ndarray]) -> int:
    """Exact trace of the ordered product of two or more square factors, in
    a dtype `_arithmetic` chose. Factors are drawn one at a time, so a
    generator never holds them all; the last product closes as a Frobenius sum."""
    it = iter(factors)
    prod, last = next(it), next(it)
    for f in it:
        prod, last = prod @ last, f
    return int((prod * last.T).sum())


@dataclass(frozen=True)
class PartitionFunctionResult:
    """Exact partition function value plus provenance of the computation.

    `method` names the public route (brute or transfer). `route` names the
    path inside it: "brute", "bitset" (transfer at m=2), "squaring"
    (unpinned transfer at m >= 4) or "masked" (pinned transfer at m >= 4).
    `arithmetic` is "float64", "int64" or "int" (Python integers); brute
    force takes "int64" or "int". `layer_states` is the number of valid
    layer colorings, None for brute; `search_states` is the number of
    nonzero (vertex, frontier coloring) entries the brute-force sweep met,
    None for transfer.
    """

    z: Fraction
    method: str
    instance: str
    route: str
    arithmetic: str
    layer_states: int | None
    search_states: int | None


def _descriptor(t: TorusGraph, g: ConstraintGraph, w: WeightSet) -> str:
    ws = ",".join(str(q) for q in w.weights)
    return f"m={t.m} d={t.d} h={g.h} w=({ws})"


def _coloring_fault(
    t: TorusGraph, g: ConstraintGraph, f: Sequence
) -> str | None:
    """Why f is not a valid coloring of t into g, or None when it is."""
    if len(f) != t.n:
        return f"expected {t.n} entries, got {len(f)}"
    for v, k in enumerate(f):
        if not (isinstance(k, Integral) and 0 <= k < g.h):
            return f"vertex {v} holds {k!r}, not a color 0..{g.h - 1}"
    for u, v in t.edge_table:
        if not g.has_edge(f[u], f[v]):
            return f"edge ({u},{v}) maps to non-adjacent colors ({f[u]},{f[v]})"
    return None


def is_valid_coloring(t: TorusGraph, g: ConstraintGraph, f: Sequence) -> bool:
    """True when every entry is a color and every torus edge lands on an
    edge of the constraint graph."""
    return _coloring_fault(t, g, f) is None


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


def _pin_masks(t: TorusGraph, g: ConstraintGraph, pins: Pins | None) -> list[int]:
    masks = [g.full_mask] * t.n
    if pins:
        for v, cmask in pins.items():
            if not (0 <= v < t.n):
                raise ValueError(f"pinned vertex {v} outside torus")
            masks[v] = cmask & g.full_mask
    return masks


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


def brute_force_partition_function(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    *,
    budget: int = DEFAULT_BRUTE_BUDGET,
    pins: Pins | None = None,
) -> PartitionFunctionResult:
    """Forward sweep over the vertices in index order, eliminating each one
    once its last neighbor is colored.

    Before vertex v the state holds, for each coloring of the frontier
    F_v = {u < v : u has a neighbor >= v}, the weighted count of the valid
    colorings of vertices 0..v-1 that agree with it: one flat array with an
    axis of length h per frontier vertex, in vertex order. Vertex v appends
    an axis holding its pinned integer-scaled weights, multiplies in the
    adjacency of H against the axis of each lower neighbor, and sums out
    every vertex whose last neighbor is v. Every partial sum is at most
    (sum of weights)^n, so `_arithmetic` of that bound picks "int64" or
    "int" (Python ints in object arrays).

    The budget bounds the sweep's real work, sum_v h^(|F_v| + 1): the
    array at vertex v holds h^(|F_v| + 1) entries. The sum is taken from
    the frontier sizes, vertex by vertex, before any array is built, and
    the run is refused at the first vertex where it passes the budget, so
    refusal is deterministic, costs at most that many vertices, and no
    array is larger than the budget. `search_states` reports the nonzero
    frontier entries met before vertices 0..n-2, which with positive
    weights are the frontier colorings some valid prefix reaches.
    """
    n, h = t.n, g.h
    nbrs: list[tuple[int, ...]] = []
    # done[v]: the vertices whose axis is summed out once v is colored;
    # every u <= v is filed by the time v is reached.
    done: dict[int, list[int]] = {}
    steps = frontier = 0  # frontier = |F_v|
    for v in range(n):
        nbrs.append(t.neighbors(v))
        done.setdefault(max(v, *nbrs[v]), []).append(v)
        steps += h ** (frontier + 1)
        if steps > budget:
            raise BudgetExceeded(
                f"brute force needs more than {budget} frontier steps: "
                f"sum_v h^(|F_v|+1) passes it at vertex {v} of {n}"
            )
        frontier += 1 - len(done.get(v, ()))
    scale, wint = w.integer_scaled()
    arithmetic, dtype = _arithmetic(sum(wint) ** n)
    vertex_w = _bit_rows(_pin_masks(t, g, pins), h) * np.array(wint, dtype=dtype)
    adj = _bit_rows(g.adj, h).astype(dtype)[None, :, None, :]
    axes: list[int] = []  # frontier vertices, ascending: the state's axes
    state = np.ones(1, dtype=dtype)
    states = 0
    for v in range(n):
        if v < n - 1:
            states += int(np.count_nonzero(state))
        state = (state[:, None] * vertex_w[v]).ravel()
        axes.append(v)
        for u in {u for u in nbrs[v] if u < v}:
            i = bisect_left(axes, u)
            view = state.reshape(h**i, h, -1, h)
            np.multiply(view, adj, out=view)
        for u in done.get(v, ()):
            i = bisect_left(axes, u)
            state = state.reshape(h**i, h, -1).sum(axis=1).ravel()
            del axes[i]
    return PartitionFunctionResult(
        z=Fraction(int(state[0]), scale**n),
        method="brute",
        instance=_descriptor(t, g, w),
        route="brute",
        arithmetic=arithmetic,
        layer_states=None,
        search_states=states,
    )


class _TransferEngine:
    """Layered transfer-matrix evaluator for one (torus shape, H, weights).

    The torus is sliced along the last coordinate into m layers, each a
    Z_m^{d-1} torus (a single vertex when d=1). States are the valid
    colorings of one layer; compatibility between consecutive layers is
    a bitset intersection over positions. For m=2 the two layers are
    joined by a single matching, so the inter-layer feasibility is
    applied exactly once rather than squared.
    """

    def __init__(self, t: TorusGraph, g: ConstraintGraph, w: WeightSet):
        self.t = t
        self.g = g
        self.layer_n = t.n // t.m
        if t.d == 1:
            states: list[Coloring] = [(k,) for k in range(g.h)]
        else:
            layer = TorusGraph(t.m, t.d - 1)
            states = list(enumerate_colorings(layer, g))
        self.states = states
        self.scale, wint = w.integer_scaled()
        self.state_w = [math.prod((wint[k] for k in s), start=1) for s in states]

        # by_pc[p][c]: bitset of states whose color at position p is c.
        by_pc = [[0] * g.h for _ in range(self.layer_n)]
        for i, s in enumerate(states):
            bit = 1 << i
            for p, k in enumerate(s):
                by_pc[p][k] |= bit
        self.by_pc = by_pc

        allowed = [[0] * g.h for _ in range(self.layer_n)]
        for p in range(self.layer_n):
            for c in range(g.h):
                acc = 0
                for k in mask_members(g.adj[c]):
                    acc |= by_pc[p][k]
                allowed[p][c] = acc

        full = (1 << len(states)) - 1
        compat = []
        for s in states:
            mask = full
            for p, k in enumerate(s):
                mask &= allowed[p][k]
            compat.append(mask)
        self.compat = compat

        groups: dict[int, int] = {}
        for i, wgt in enumerate(self.state_w):
            groups[wgt] = groups.get(wgt, 0) | (1 << i)
        self.weight_groups = tuple(groups.items())

    def _wsum(self, mask: int) -> int:
        return sum(wgt * (mask & grp).bit_count() for wgt, grp in self.weight_groups)

    def layer_allowed(self, pins: Pins | None) -> list[int] | None:
        """Translate vertex pins into per-layer allowed-state bitsets."""
        if not pins:
            return None
        full = (1 << len(self.states)) - 1
        out = [full] * self.t.m
        for v, cmask in pins.items():
            if not (0 <= v < self.t.n):
                raise ValueError(f"pinned vertex {v} outside torus")
            layer, pos = v % self.t.m, v // self.t.m
            acc = 0
            for k in mask_members(cmask & self.g.full_mask):
                acc |= self.by_pc[pos][k]
            out[layer] &= acc
        return out

    def z_int(self, allowed: list[int] | None, budget: int) -> tuple[int, str, str]:
        """Integer-scaled weighted count, with the route and arithmetic used.

        On Python ints each product of s x s matrices is s^3 interpreted
        multiply-adds, so that arithmetic charges s^3 per product to `budget`
        before the first one, and raises BudgetExceeded if they do not fit."""
        s_count = len(self.states)
        if self.t.m == 2:
            a0, a1 = allowed or ((1 << s_count) - 1,) * 2
            total = 0
            rest = a0
            while rest:
                bit = rest & -rest
                rest ^= bit
                i = bit.bit_length() - 1
                total += self.state_w[i] * self._wsum(self.compat[i] & a1)
            return total, "bitset", "int"
        route = "squaring" if allowed is None else "masked"
        if s_count == 0:
            return 0, route, "int"
        # Entry and trace bound for the m-fold product of row-masked T: an
        # entry of a j-fold product is at most s^(j-1) * w_max^j, and the
        # trace at most s^m * w_max^m.
        bound = (s_count * max(self.state_w)) ** self.t.m
        arithmetic, dtype = _arithmetic(bound, blas=allowed is None)
        if arithmetic == "int":
            # T^(m/2) by binary powering, or m - 2 products of masked factors
            half = self.t.m // 2
            products = (
                half.bit_length() + half.bit_count() - 2
                if allowed is None
                else self.t.m - 2
            )
            if s_count**3 * products > budget:
                raise BudgetExceeded(
                    f"transfer on Python ints needs {products} products of "
                    f"{s_count} x {s_count} matrices: "
                    f"{s_count}^3 * {products} > {budget}"
                )
        if allowed is None:
            return self._trace_power(dtype), route, arithmetic
        t_mat = self._matrix(dtype)
        keep = _bit_rows(allowed, s_count).astype(dtype)
        return _cycle_trace(t_mat * row[:, None] for row in keep), route, arithmetic

    def _matrix(self, dtype) -> np.ndarray:
        """T in `dtype`: T[i, j] is state i's weight when j may follow i."""
        weights = np.array(self.state_w, dtype=dtype)
        return _bit_rows(self.compat, len(self.states)).astype(dtype) * weights[:, None]

    def _trace_power(self, dtype) -> int:
        """trace(T^m) as sum(P * P^T) with P = T^(m/2) by binary powering.

        With every entry of T a nonnegative integer and s^m * w_max^m below
        2^53, every product, partial sum and Frobenius term formed here is
        an integer no larger than that bound, so float64 (BLAS) is exact in
        any summation order. Below 2^62 the same holds for int64.
        """
        base, power = self._matrix(dtype), None
        k = self.t.m // 2
        while k:
            if k & 1:
                power = base if power is None else power @ base
            k >>= 1
            if k:
                base = base @ base
        return _cycle_trace((power, power))


@lru_cache(maxsize=None)
def _engine(t: TorusGraph, g: ConstraintGraph, w: WeightSet) -> _TransferEngine:
    return _TransferEngine(t, g, w)


def engine_cache_counts() -> tuple[int, int]:
    """(hits, misses) of the transfer-engine cache since the process started."""
    info = _engine.cache_info()
    return info.hits, info.misses


def transfer_matrix_partition_function(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    *,
    budget: int = DEFAULT_TRANSFER_BUDGET,
    pins: Pins | None = None,
) -> PartitionFunctionResult:
    """Transfer-matrix route: layer states, bitset compatibility, cyclic trace."""
    layer_size = t.n // t.m
    if g.h**layer_size > budget:
        raise BudgetExceeded(
            f"transfer needs {g.h}^{layer_size} > {budget} raw layer states"
        )
    eng = _engine(t, g, w)
    z_int, route, arithmetic = eng.z_int(eng.layer_allowed(pins), budget)
    return PartitionFunctionResult(
        z=Fraction(z_int, eng.scale**t.n),
        method="transfer",
        instance=_descriptor(t, g, w),
        route=route,
        arithmetic=arithmetic,
        layer_states=len(eng.states),
        search_states=None,
    )


def partition_function(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    *,
    method: str = "auto",
    pins: Pins | None = None,
    brute_budget: int = DEFAULT_BRUTE_BUDGET,
    transfer_budget: int = DEFAULT_TRANSFER_BUDGET,
) -> PartitionFunctionResult:
    """Dispatch to a route; "auto" prefers transfer, falls back to brute."""
    if method == "brute":
        return brute_force_partition_function(t, g, w, budget=brute_budget, pins=pins)
    if method == "transfer":
        return transfer_matrix_partition_function(
            t, g, w, budget=transfer_budget, pins=pins
        )
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if g.h ** (t.n // t.m) <= transfer_budget:
        return transfer_matrix_partition_function(
            t, g, w, budget=transfer_budget, pins=pins
        )
    return brute_force_partition_function(t, g, w, budget=brute_budget, pins=pins)


def exact_occupation_vector(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    x: int = 0,
    condition: tuple[int, int] | None = None,
) -> tuple[Fraction, ...]:
    """Exact law of f(x), optionally given f(y)=l: the h pinned counts
    Z(f(x)=k and condition), each divided by their sum.

    The sum is the weight of the condition, so the law is exact and costs
    h partition functions. Conditioning on a zero-weight event raises
    ZeroConditioningEvent.
    """
    if not (0 <= x < t.n):
        raise ValueError(f"vertex {x} outside torus")
    given: dict[int, int] = {}
    if condition is not None:
        y, lcol = condition
        if not (0 <= y < t.n) or not (0 <= lcol < g.h):
            raise ValueError("conditioning pair outside instance")
        given[y] = mask_from((lcol,))
    counts = [
        partition_function(
            t, g, w, pins={**given, x: given.get(x, g.full_mask) & mask_from((k,))}
        ).z
        for k in range(g.h)
    ]
    total = sum(counts)
    if total == 0:
        raise ZeroConditioningEvent("conditioning event has weight zero")
    return tuple(c / total for c in counts)


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
    z = partition_function(t, g, w).z
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


@dataclass(frozen=True)
class CorpusInstance:
    """One named instance small enough for both counting routes."""

    name: str
    torus: TorusGraph
    graph: ConstraintGraph
    weights: WeightSet


def standard_corpus() -> tuple[CorpusInstance, ...]:
    """Instances where brute force and transfer matrices must agree exactly.

    Spans m in {2,4} and d in {1,2,3} across every preset family, plus
    genuinely weighted variants; m=4 with d=2 is capped at three colors by
    the brute-force budget.
    """
    from .constraint_graph import preset

    def inst(name: str, m: int, d: int, spec: str, weights: str | None = None):
        g = preset(spec)
        w = WeightSet.ones(g.h) if weights is None else WeightSet.parse(weights)
        return CorpusInstance(name, TorusGraph(m, d), g, w)

    return (
        inst("ind-m2d1", 2, 1, "ind"),
        inst("k3-m2d1", 2, 1, "k3"),
        inst("wr-m2d1", 2, 1, "wr"),
        inst("k4loop-m2d1", 2, 1, "k4loop"),
        inst("k8-m2d1", 2, 1, "k8"),
        inst("cycle5-m2d1", 2, 1, "cycle:5"),
        inst("ind-m2d2", 2, 2, "ind"),
        inst("k3-m2d2", 2, 2, "k3"),
        inst("k4-m2d2", 2, 2, "k4"),
        inst("wr-m2d2", 2, 2, "wr"),
        inst("k4loop-m2d2", 2, 2, "k4loop"),
        inst("k8-m2d2", 2, 2, "k8"),
        inst("path3-m2d2", 2, 2, "path:3"),
        inst("ind-m2d3", 2, 3, "ind"),
        inst("k3-m2d3", 2, 3, "k3"),
        inst("k4-m2d3", 2, 3, "k4"),
        inst("wr-m2d3", 2, 3, "wr"),
        inst("k4loop-m2d3", 2, 3, "k4loop"),
        inst("k8-m2d3", 2, 3, "k8"),
        inst("ind-m4d1", 4, 1, "ind"),
        inst("k3-m4d1", 4, 1, "k3"),
        inst("wr-m4d1", 4, 1, "wr"),
        inst("k4loop-m4d1", 4, 1, "k4loop"),
        inst("k8-m4d1", 4, 1, "k8"),
        inst("ind-m4d2", 4, 2, "ind"),
        inst("k3-m4d2", 4, 2, "k3"),
        inst("ind-weighted-m2d2", 2, 2, "ind", "3/2,1"),
        inst("k3-weighted-m2d2", 2, 2, "k3", "3/2,1,1"),
        inst("wr-weighted-m2d2", 2, 2, "wr", "1,2,1"),
        inst("ind-weighted-m4d1", 4, 1, "ind", "1/3,1"),
        inst("k4loop-weighted-m2d3", 2, 3, "k4loop", "1,2,3,4"),
    )


def dual_route_records(
    corpus: Sequence[CorpusInstance] | None = None,
) -> list[dict]:
    """Run both routes over a corpus; each record carries both exact values."""
    out = []
    for inst in corpus if corpus is not None else standard_corpus():
        zb = brute_force_partition_function(inst.torus, inst.graph, inst.weights)
        zt = transfer_matrix_partition_function(inst.torus, inst.graph, inst.weights)
        out.append(
            {
                "name": inst.name,
                "instance": zb.instance,
                "z_brute": zb.z,
                "z_transfer": zt.z,
                "agree": zb.z == zt.z,
            }
        )
    return out
