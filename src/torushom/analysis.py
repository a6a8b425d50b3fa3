"""Limit-law targets, long-range influence, and partition-function predictors.

The target vectors here are computed from the constraint graph and its
weights alone, by one rule. Almost every coloring lies in one phase class
(A,B), and under approximate equipartition the classes carry equal mass,
so for the set S of classes still possible the law of f(x) at an even x
tends to the class-uniform mixture

    p(f(x) = k) -> (1/|S|) sum over (A,B) in S with k in A of lambda_k/lambda_A.

The occupation law takes S = every maximal pair (the B classes for odd
x); the law given f(y)=ell at a far y keeps the pairs that can show ell
there, ell in A for even y and ell in B for odd y. The exact finite-torus
side of every comparison, the law of f(x) with or without a pinned far
vertex, is formed here from the counting module's partition functions,
pinned and unpinned, so distances between the two are honest
measurements, not simulations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .constraint_graph import (
    ConstraintGraph,
    MaximalPair,
    WeightSet,
    apply_perm_to_mask,
    automorphism_generators,
    common_neighborhood,
    complete_graph,
    instance_structure,
    mask_from,
    mask_members,
    orbit_closure,
    subset_weight,
)
from .errors import NotEquipartition, ZeroConditioning, ZeroConditioningEvent
from . import exact
from .torus import TorusGraph

SAME_SIDE = "same-side"
CROSS_SIDE = "cross-side"
EVEN = "even"
ODD = "odd"


# ------------------------------------------------------- equipartition

class EquipartitionOrbit(NamedTuple):
    """The equipartition class with what its orbit step cost."""

    label: str
    generators: int  # automorphism generators the search found
    orbit_size: int  # pairs reached from the first pair and its swap
    nodes: int  # backtracking nodes the generator search visited
    seconds: float


@lru_cache(maxsize=None)
def _equipartition(g: ConstraintGraph, w: WeightSet) -> EquipartitionOrbit:
    pairs = instance_structure(g, w).pairs
    mset = set(pairs)
    if len(mset) == 1:
        return EquipartitionOrbit("singleton", 0, 1, 0, 0.0)
    if len(mset) == 2:
        p, q = mset
        if p.a == q.b and p.b == q.a:
            return EquipartitionOrbit("two-class-swap", 0, 2, 0, 0.0)
    started = time.perf_counter()
    # The swap commutes with every componentwise relabeling, so the orbit
    # of the first pair under both is its closure under a generating set
    # of the automorphisms together with the swap; the group itself, up
    # to h! permutations, is never listed.
    gens = automorphism_generators(g, w)
    maps = [
        lambda p, pi=pi: MaximalPair(
            apply_perm_to_mask(pi, p.a), apply_perm_to_mask(pi, p.b)
        )
        for pi in gens.perms
    ]
    maps.append(lambda p: MaximalPair(p.b, p.a))
    orbit = orbit_closure([pairs[0]], maps)
    assert orbit <= mset  # symmetries cannot leave the maximal set
    return EquipartitionOrbit(
        "transitive" if orbit == mset else "unknown",
        len(gens.perms),
        len(orbit),
        gens.nodes,
        time.perf_counter() - started,
    )


def equipartition_class(g: ConstraintGraph, w: WeightSet) -> str:
    """Which sufficient condition for approximate equipartition holds.

    Returns "singleton", "two-class-swap", "transitive" (a single orbit
    of the maximal pairs under weight-preserving color automorphisms
    together with the (A,B) -> (B,A) swap), or "unknown". Relative class
    sizes are never guessed: anything else is "unknown".
    """
    return _equipartition(g, w).label


def equipartition_orbit(g: ConstraintGraph, w: WeightSet) -> EquipartitionOrbit:
    """`equipartition_class` with the cost of its orbit step. Results are
    cached per (g, w), so the cost is that of the first call."""
    return _equipartition(g, w)


def _equipartition_pairs(
    g: ConstraintGraph, w: WeightSet
) -> tuple[MaximalPair, ...]:
    if equipartition_class(g, w) == "unknown":
        raise NotEquipartition(
            "no equipartition condition detected (singleton, two-class "
            "swap, or transitive maximal pairs); targets are undefined"
        )
    return instance_structure(g, w).pairs


def _check_side(side: str) -> None:
    if side not in (EVEN, ODD):
        raise ValueError(f"side must be {EVEN!r} or {ODD!r}, got {side!r}")


def _check_relation(relation: str) -> None:
    if relation not in (SAME_SIDE, CROSS_SIDE):
        raise ValueError(
            f"relation must be {SAME_SIDE!r} or {CROSS_SIDE!r}, got {relation!r}"
        )


# ----------------------------------------------------- theorem targets

def _mixture(
    g: ConstraintGraph, w: WeightSet, classes: Sequence[int]
) -> tuple[Fraction, ...]:
    """The class-uniform mixture over the classes C (bitmasks): entry k is
    (1/|classes|) sum of lambda_k/lambda_C over the classes that hold k."""
    lam = instance_structure(g, w).class_weight
    out = [Fraction(0)] * g.h
    for c in classes:
        for k in mask_members(c):
            out[k] += w[k] / lam[c]
    return tuple(x / len(classes) for x in out)


def theorem_occupation_vector(
    g: ConstraintGraph, w: WeightSet, side: str = EVEN
) -> tuple[Fraction, ...]:
    """Limit law of f(x) for x on the given side: the mixture over the
    side's class of every maximal pair."""
    _check_side(side)
    pairs = _equipartition_pairs(g, w)
    return _mixture(g, w, [p.a if side == EVEN else p.b for p in pairs])


def theorem_conditional_vector(
    g: ConstraintGraph, w: WeightSet, relation: str, ell: int
) -> tuple[Fraction, ...]:
    """Limit law of f(x) given f(y)=ell, for even x and far y: the mixture
    over the A classes of the pairs that can show ell at y.

    y sits on the even side for same-side relations and on the odd side
    for cross-side ones, so ell must lie in A or in B respectively.
    """
    _check_relation(relation)
    pairs = _equipartition_pairs(g, w)
    at_y = 0 if relation == SAME_SIDE else 1  # y's class: A, or B
    kept = [p.a for p in pairs if (p[at_y] >> ell) & 1]
    if not kept:
        raise ZeroConditioning(
            f"color {ell} never appears on the conditioning side"
        )
    return _mixture(g, w, kept)


# ---------------------------------------------------- exact comparisons

def exact_occupation_vector(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    x: int = 0,
    condition: tuple[int, int] | None = None,
) -> tuple[Fraction, ...]:
    """Exact law of f(x), optionally given f(y)=l.

    Given f(y)=l, it is the h pinned counts Z(f(x)=k and f(y)=l), each
    divided by their sum, the weight of the condition. Without a condition
    that sum is Z itself, which the unpinned transfer count forms for less
    than a pinned count's cost: the law takes the pinned counts of the
    first h - 1 colors, then Z, and the last color's count is Z minus the
    others. The pinned counts come first, so a torus too large for them is
    refused before Z is formed. Either way the law is exact.
    Conditioning on a zero-weight event raises ZeroConditioningEvent.
    """
    if not (0 <= x < t.n):
        raise ValueError(f"vertex {x} outside torus")
    given: dict[int, int] = {}
    if condition is not None:
        y, lcol = condition
        if not (0 <= y < t.n) or not (0 <= lcol < g.h):
            raise ValueError("conditioning pair outside instance")
        given[y] = mask_from((lcol,))
    # looked up on the module at each call, so a wrapper installed on
    # exact.transfer_matrix_partition_function sees every count
    counts = [
        exact.transfer_matrix_partition_function(
            t, g, w, pins={**given, x: given.get(x, g.full_mask) & mask_from((k,))}
        ).z
        for k in range(g.h if given else g.h - 1)
    ]
    if given:
        total = sum(counts)
    else:
        total = exact.transfer_matrix_partition_function(t, g, w).z
        counts.append(total - sum(counts))
    if total == 0:
        raise ZeroConditioningEvent("conditioning event has weight zero")
    return tuple(c / total for c in counts)


def antipode(t: TorusGraph) -> int:
    """The vertex farthest from the origin: all coordinates m/2."""
    return t.encode((t.m // 2,) * t.d)


def far_vertex(t: TorusGraph, side: str) -> int:
    """Farthest vertex from the origin within one parity class (smallest
    index among ties): the antipode when d*m/2 has the side's parity, else
    the antipode - m^(d-1).

    The distance to x is sum_i min(x_i, m - x_i), which reaches d*m/2 only
    at the antipode, of parity d*m/2; a vertex of the other parity is at
    most d*m/2 - 1 away, with equality exactly when one antipode coordinate
    moves one step, and moving the most significant one down is smallest.
    """
    _check_side(side)
    want = 0 if side == EVEN else 1
    far = antipode(t)
    return far if (t.d * t.m // 2) % 2 == want else far - t.m ** (t.d - 1)


def sup_distance(u: Sequence, v: Sequence):
    """d_inf between two vectors; exact when both sides are exact."""
    if len(u) != len(v):
        raise ValueError("vectors have different lengths")
    return max(abs(a - b) for a, b in zip(u, v))


@dataclass(frozen=True)
class ComparisonRecord:
    """A target vector next to its measured counterparts."""

    label: str
    target: tuple
    exact: tuple | None = None
    distance: object = None

    def to_json_dict(self) -> dict:
        def num(x):
            return [str(x.numerator), str(x.denominator)] if isinstance(
                x, Fraction
            ) else x

        return {
            "label": self.label,
            "target": [num(x) for x in self.target],
            "exact": None
            if self.exact is None
            else [num(x) for x in self.exact],
            "d_inf_distance": num(self.distance),
        }


# ------------------------------------------------ partition predictors

def _exp_string(c: Fraction) -> str:
    if c == 0:
        return "1"
    if c == Fraction(1, 2):
        return "sqrt(e)"
    if c == 1:
        return "e"
    return f"exp({c})"


def _prefactor_string(count: int, c: Fraction) -> str:
    """count * exp(c) as text: "n", "ne" or "n*exp(c)"."""
    e = _exp_string(c)
    if e == "1":
        return str(count)
    if e == "e":
        return f"{count}e"
    return f"{count}*{e}"


@dataclass(frozen=True)
class ConjecturePrediction:
    """Corrected first-order weight of one phase class:
    base^half_volume * exp(correction_exponent)."""

    pair: MaximalPair
    base: Fraction
    half_volume: int
    correction_exponent: Fraction

    def __post_init__(self):
        if self.correction_exponent < 0:
            raise ValueError("correction exponent must be nonnegative")

    def value(self) -> float:
        return float(self.base) ** self.half_volume * math.exp(
            float(self.correction_exponent)
        )


def conjecture_L(
    g: ConstraintGraph, w: WeightSet, pair: MaximalPair, t: TorusGraph
) -> Fraction:
    """Second-order interaction term of the predicted class weight.

    Sums, over colors that could replace a class on one side, the weight
    of the replacement times the surviving palette weight raised to the
    torus degree. Zero exactly when neither class can be left.
    """
    if pair not in instance_structure(g, w).pairs:
        raise ValueError(f"{pair} is not a maximal pair of this instance")
    deg = t.degree

    def half(a: int, b: int) -> Fraction:
        # colors that could join class a, each weighted by the palette it
        # leaves on b's side, over 2 * lambda_a * lambda_b^deg
        joins = Fraction(0)
        for k in mask_members(g.full_mask ^ a):
            palette = common_neighborhood(g, a | (1 << k))
            joins += w[k] * subset_weight(w, palette) ** deg
        return joins / (2 * subset_weight(w, a) * subset_weight(w, b) ** deg)

    return half(pair.a, pair.b) + half(pair.b, pair.a)


def conjecture_weight_prediction(
    g: ConstraintGraph, w: WeightSet, pair: MaximalPair, t: TorusGraph
) -> ConjecturePrediction:
    ell = conjecture_L(g, w, pair, t)
    return ConjecturePrediction(
        pair=pair,
        base=subset_weight(w, pair.a) * subset_weight(w, pair.b),
        half_volume=t.n // 2,
        correction_exponent=t.n * ell,
    )


@dataclass(frozen=True)
class PartitionPrediction:
    """Sum of per-class predictions, with a closed form when they agree."""

    predictions: tuple[ConjecturePrediction, ...]
    prefactor_model: str | None

    def total(self) -> float:
        return sum(p.value() for p in self.predictions)


def conjecture_partition_prediction(
    g: ConstraintGraph, w: WeightSet, t: TorusGraph
) -> PartitionPrediction:
    preds = tuple(
        conjecture_weight_prediction(g, w, p, t)
        for p in instance_structure(g, w).pairs
    )
    shapes = {(p.base, p.correction_exponent) for p in preds}
    model = None
    if len(shapes) == 1:
        model = _prefactor_string(len(preds), preds[0].correction_exponent)
    return PartitionPrediction(predictions=preds, prefactor_model=model)


def conjecture_f_q(q: int, d: int) -> Fraction:
    """Correction exponent for counting proper q-colorings at m=2."""
    if q < 2 or d < 1:
        raise ValueError("need q >= 2 and d >= 1")
    lo, hi = q // 2, (q + 1) // 2
    return Fraction(hi, 2 * lo) * (2 - Fraction(2, hi)) ** d + Fraction(
        lo, 2 * hi
    ) * (2 - Fraction(2, lo)) ** d


def consistency_L_vs_f(q: int, d: int) -> bool:
    """The per-class interaction term and the coloring-count exponent
    describe the same correction: 2^d * L equals f(q) exactly."""
    g = complete_graph(q)
    w = WeightSet.ones(q)
    a = (1 << (q // 2)) - 1  # first floor(q/2) colors
    b = g.full_mask ^ a
    ell = conjecture_L(g, w, MaximalPair(a, b), TorusGraph(2, d))
    return 2**d * ell == conjecture_f_q(q, d)
