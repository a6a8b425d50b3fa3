"""Finite checks behind the extremal-pair structure theory.

The central quantity is the closed-chain count g: how many cyclic
sequences of colors pass through a prescribed tuple of color sets with
every consecutive pair adjacent. Alternating tuples built from maximal
pairs achieve g(tuple) * g(neighborhood tuple) = eta^m exactly; every
other tuple falls short by an integer gap, and the minimum gap delta is
what a counting argument needs to be at least 1. Everything here is
exact integer arithmetic at all-1 weights; weighted instances route
through the blow-up construction instead. g is the trace of the product
of the factors diag(1_{A_i}) Adj(H), taken by `exact._cycle_trace` on
int64 below 2^62 and modulo primes past it; the gap search over tuples of
support sets takes every g at once, on int64, from a table of
half-products, a block at a time, and charges the work cap as if each g
were formed alone.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cache

import numpy as np

from .constraint_graph import (
    ConstraintGraph,
    WeightSet,
    common_neighborhood,
    instance_structure,
    mask_size,
)
from .errors import CapExceeded, TorushomError
from .exact import _bit_rows, _cycle_trace

# A tuple of color sets, one bitmask per cyclic position.
ColorSetTuple = tuple[int, ...]

DEFAULT_M_CAP = 8
DEFAULT_WORK_CAP = 2_000_000
_WITNESS_CAP = 32
# Entries of g(T) g(nT) the support sweep forms per block.
_BLOCK_ENTRIES = 4096


def _validate_tuple_length(m: int) -> None:
    if m < 2 or m % 2:
        raise ValueError(f"tuple length must be even and >= 2, got {m}")


def _factor(g: ConstraintGraph, s: int) -> np.ndarray:
    """diag(1_A) Adj(H) for A = s on int64, whose 0/1 entries are residues."""
    rows = [g.adj[x] if s >> x & 1 else 0 for x in range(g.h)]
    return _bit_rows(rows, g.h).astype(np.int64)


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


def alternating_tuple(a: int, b: int, m: int) -> ColorSetTuple:
    _validate_tuple_length(m)
    return (a, b) * (m // 2)


@dataclass(frozen=True)
class ExtremalIdentityReport:
    """Exact identity and gap data for one (H, m)."""

    eta: int
    m: int
    identity_checked: int
    delta: int
    delta_is_exact: bool
    witnesses: tuple[ColorSetTuple, ...]


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


def _half_products(factors: np.ndarray, k: int) -> np.ndarray:
    """Every ordered product of k matrices from the stack `factors`, as a
    stack in `itertools.product` order: the first factor varies slowest."""
    prods = factors
    for _ in range(k - 1):
        prods = (prods[:, None] @ factors[None]).reshape(-1, *factors.shape[1:])
    return prods


def _support_sweep(
    g: ConstraintGraph,
    support: list[int],
    alt_forms: set[ColorSetTuple],
    m: int,
) -> tuple[int | None, list[ColorSetTuple], int]:
    """Largest g(T) g(nT) over the non-alternating tuples T of support sets.

    Returns that product (None if every tuple alternates), the first
    _WITNESS_CAP tuples reaching it in `itertools.product` order, and the
    number of tuples swept. A tuple's index in that order is the base-|S|
    number of its sets' positions in `support`. Its first m/2 digits pick
    a left half-product L and its last m/2 a right one R, and
    g(T) = trace(LR) = vec(L) . vec(R^T); so one matrix product of a block
    of left halves with all right halves gives g on whole rows of the
    |S|^(m/2) x |S|^(m/2) table, once for A and once for n(A). Blocks are
    scanned in order and hold at most max(_BLOCK_ENTRIES, |S|^(m/2))
    entries each; the alternating forms are masked by index. The sweep runs
    on int64, which holds g(T) g(nT) <= h^(2m) under the caps on h and m.
    """
    assert g.h ** (2 * m) <= 12**16 < 2**62, "h <= 12 and m <= 8 keep int64 exact"
    s, k = len(support), m // 2
    half = s**k

    def halves(sets: list[int]) -> tuple[np.ndarray, np.ndarray]:
        f = np.stack([_factor(g, x) for x in sets])
        prods = _half_products(f, k)
        # Row r of the first is vec(L_r); column c of the second is vec(R_c^T).
        return prods.reshape(half, -1), prods.transpose(2, 1, 0).reshape(-1, half)

    left, right = halves(support)
    n_left, n_right = halves([common_neighborhood(g, x) for x in support])
    pos = {x: i for i, x in enumerate(support)}
    # Both sets of a maximal pair are in the support, so every alternating
    # form is a support tuple.
    place = [s ** (m - 1 - i) for i in range(m)]
    skip = sorted(sum(pos[x] * p for x, p in zip(t, place)) for t in alt_forms)

    best, found = -1, []
    rows = max(1, _BLOCK_ENTRIES // half)
    for r0 in range(0, half, rows):
        blk = slice(r0, r0 + rows)
        vals = ((left[blk] @ right) * (n_left[blk] @ n_right)).ravel().tolist()
        base = r0 * half
        end = base + len(vals)
        for i in skip[bisect_left(skip, base) : bisect_left(skip, end)]:
            vals[i - base] = -1
        top = max(vals)
        if top < max(best, 0):
            continue
        if top > best:
            best, found = top, []
        room = _WITNESS_CAP - len(found)
        found += [base + i for i, v in enumerate(vals) if v == top][:room]

    swept = s**m - len(skip)
    if best < 0:
        return None, [], swept
    return best, [tuple(support[i // p % s] for p in place) for i in found], swept


def verify_extremal_identities(
    g: ConstraintGraph,
    w: WeightSet,
    m: int,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> ExtremalIdentityReport:
    """Check the exact product identity on maximal pairs and compute the gap.

    For every maximal pair (A,B), the alternating tuple satisfies
    g(alt) * g(n alt) = eta^m exactly; a violation raises TorushomError
    since it would falsify the structure theory, not the caller. delta is
    the minimum of eta^m - g(T) * g(nT) over tuples T not of alternating
    maximal form. Tuples staying inside the support family are all
    evaluated, from a table of half-products a block at a time
    (`_support_sweep`); tuples leaving it are covered by the product bound
    g(T) <= prod |A_i|, which certifies their gap wholesale. When that
    bound cannot separate, a branch-and-bound over all tuples settles the
    minimum, and if the work cap stops it, delta_is_exact is False and
    delta is a verified lower bound (still >= 1).
    `work_cap` bounds the matrix products (m - 1 per g) plus the
    branch-and-bound nodes. Each non-alternating support tuple is still
    charged the 2(m - 1) products a g(T) g(nT) pair takes one at a time,
    and a support enumeration past the cap is refused before it starts.
    """
    if not (w.is_uniform() and w[0] == 1):
        raise ValueError("extremal identities are stated at all-1 weights")
    _validate_tuple_length(m)
    if m > DEFAULT_M_CAP:
        raise CapExceeded(f"tuple length {m} exceeds cap {DEFAULT_M_CAP}")
    if g.h > 12:
        raise CapExceeded(f"{g.h} colors exceeds the subset-table cap")

    checked = check_alternating_identity(g, w, m)
    record = instance_structure(g, w)
    eta = int(record.eta)
    eta_m = eta**m
    alt_forms = {alternating_tuple(p.a, p.b, m) for p in record.pairs}

    # the pairs hold each A once, ascending
    support = [p.a for p in record.pairs]
    n_table = [common_neighborhood(g, s) for s in range(1 << g.h)]
    # b(A) = |A| |n(A)| caps g(T) g(nT) one position at a time; off the
    # support family it is at most eta - 1, which powers the wholesale tier.
    b_table = [mask_size(s) * mask_size(n_table[s]) for s in range(1 << g.h)]
    support_set = set(support)
    b_out = max(
        (b_table[s] for s in range(1 << g.h) if s not in support_set), default=0
    )
    outside_gap = eta_m - b_out * eta ** (m - 1)

    factor_of = cache(lambda s: _factor(g, s))
    # Matrix products formed so far, starting with the identity check's.
    work = 2 * (m - 1) * checked

    walks = g.h**m  # g counts closed walks, so it is at most h^m

    def prod_of(tup: ColorSetTuple) -> int:
        nonlocal work
        work += 2 * (m - 1)
        g_t = _cycle_trace(lambda _: [factor_of(s) for s in tup], walks, g.h)
        n_t = _cycle_trace(lambda _: [factor_of(n_table[s]) for s in tup], walks, g.h)
        return g_t * n_t

    def spend_node() -> bool:
        """Charge one search node; False once a leaf could pass the cap."""
        nonlocal work
        work += 1
        return work + 2 * (m - 1) <= work_cap

    if len(support) ** m * 2 * (m - 1) > work_cap:
        raise CapExceeded(
            f"support enumeration needs {len(support)}^{m} tuples, "
            f"{2 * (m - 1)} products each, > {work_cap}"
        )
    top, support_wits, swept = _support_sweep(g, support, alt_forms, m)
    work += 2 * (m - 1) * swept
    best_support = None if top is None else eta_m - top

    if best_support is not None and best_support <= outside_gap:
        delta, exact, wits = best_support, True, support_wits
    else:
        full = _full_branch_and_bound(b_table, prod_of, eta, m, alt_forms, spend_node)
        if full is not None:
            best_prod, wits = full
            delta, exact = eta_m - best_prod, True
        else:
            # Work cap hit: report the best verified lower bound.
            bounds = (outside_gap, best_support)
            delta, exact = min(x for x in bounds if x is not None), False
            wits = support_wits if best_support == delta else []

    if delta < 1:
        raise TorushomError(f"gap {delta} < 1 contradicts the counting bound")
    return ExtremalIdentityReport(
        eta=eta,
        m=m,
        identity_checked=checked,
        delta=delta,
        delta_is_exact=exact,
        witnesses=tuple(wits),
    )


def _full_branch_and_bound(
    b_table: list[int],
    prod_of,
    eta: int,
    m: int,
    alt_forms: set[ColorSetTuple],
    spend_node,
) -> tuple[int, list[ColorSetTuple]] | None:
    """Maximize g(T) g(nT) over non-alternating tuples, or None on cap.

    Candidates are tried in decreasing b order so a strong incumbent
    arrives early; a prefix is cut when even eta-filling its remaining
    positions cannot beat the incumbent. `spend_node()` charges each node
    to the work cap and returns False when the search must stop. The
    witnesses are the lexicographically first _WITNESS_CAP ties, in order.
    """
    order = sorted(range(len(b_table)), key=lambda s: -b_table[s])
    best_prod = -1
    wits: list[ColorSetTuple] = []
    prefix: list[int] = []

    def rec(depth: int, b_prod: int) -> bool:
        nonlocal best_prod, wits
        if not spend_node():
            return False
        if depth == m:
            tup = tuple(prefix)
            if tup in alt_forms:
                return True
            val = prod_of(tup)
            if val > best_prod:
                best_prod, wits = val, [tup]
            elif val == best_prod and (
                len(wits) < _WITNESS_CAP or tup < wits[-1]
            ):
                insort(wits, tup)
                del wits[_WITNESS_CAP:]
            return True
        for s in order:
            nb = b_prod * b_table[s]
            if nb * eta ** (m - depth - 1) < best_prod:
                break  # descending order: no later s can do better
            prefix.append(s)
            ok = rec(depth + 1, nb)
            prefix.pop()
            if not ok:
                return False
        return True

    if not rec(0, 1):
        return None
    return best_prod, wits


def identity_corpus() -> tuple[tuple[str, ConstraintGraph], ...]:
    """Small constraint graphs (h <= 6) the identity checks run over."""
    from .constraint_graph import preset

    names = (
        "ind",
        "k3",
        "k4",
        "k5",
        "k6",
        "wr",
        "k4loop",
        "cycle:5",
        "path:3",
        "ind+k3",
    )
    return tuple((name, preset(name)) for name in names)
