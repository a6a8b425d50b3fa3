"""Finite checks behind the extremal-pair structure theory.

The central quantity is the closed-chain count g: how many cyclic
sequences of colors pass through a prescribed tuple of color sets with
every consecutive pair adjacent. Alternating tuples built from maximal
pairs achieve g(tuple) * g(neighborhood tuple) = eta^m exactly; every
other tuple falls short by an integer gap, and the minimum gap delta is
what a counting argument needs to be at least 1. Everything here is
exact integer arithmetic at all-1 weights; weighted instances route
through the blow-up construction instead. g is the trace of the product
of the factors diag(1_{A_i}) Adj(H). The gap search takes every g over
the tuples of a family of color sets at once, on int64, from a table of
half-products, a block at a time: first over the support, then over the
sets whose product bound can still reach the support's best. The support
table holds every alternating tuple, so the identity is read from it
before those entries are masked. Every product g(T) g(nT) is at most
h^(2m), so h^(2m) < 2^62 keeps the table exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .constraint_graph import (
    ConstraintGraph,
    MaximalPair,
    WeightSet,
    common_neighborhood,
    instance_structure,
    mask_size,
)
from .errors import CapExceeded, TorushomError
from .exact import _bit_rows

# A tuple of color sets, one bitmask per cyclic position.
ColorSetTuple = tuple[int, ...]

# Tuples one table sweep of the gap search may cover.
DEFAULT_WORK_CAP = 1 << 24
_WITNESS_CAP = 32
# Entries of g(T) g(nT) a table sweep forms per block.
_BLOCK_ENTRIES = 4096


def _validate_tuple_length(m: int) -> None:
    if m < 2 or m % 2:
        raise ValueError(f"tuple length must be even and >= 2, got {m}")


def _factor(g: ConstraintGraph, s: int) -> np.ndarray:
    """diag(1_A) Adj(H) for A = s on int64, whose 0/1 entries are residues."""
    rows = [g.adj[x] if s >> x & 1 else 0 for x in range(g.h)]
    return _bit_rows(rows, g.h).astype(np.int64)


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


def _half_products(factors: np.ndarray, k: int) -> np.ndarray:
    """Every ordered product of k matrices from the stack `factors`, as a
    stack in `itertools.product` order: the first factor varies slowest."""
    prods = factors
    for _ in range(k - 1):
        prods = (prods[:, None] @ factors[None]).reshape(-1, *factors.shape[1:])
    return prods


def _family_sweep(
    g: ConstraintGraph,
    family: list[int],
    alt_forms: set[ColorSetTuple],
    m: int,
    eta_m: int,
) -> tuple[int | None, list[ColorSetTuple]]:
    """Largest g(T) g(nT) over the non-alternating tuples T of family sets.

    Returns that product (None if every tuple alternates) and the first
    _WITNESS_CAP tuples reaching it in `itertools.product` order. A tuple's
    index in that order is the base-|F| number of its sets' positions in
    `family`. Its first m/2 digits pick a left half-product L and its last
    m/2 a right one R, and g(T) = trace(LR) = vec(L) . vec(R^T); so one
    matrix product of a block of left halves with all right halves gives
    g on whole rows of the |F|^(m/2) x |F|^(m/2) table, once for A and
    once for n(A). Blocks are scanned in order and hold at most
    max(_BLOCK_ENTRIES, |F|^(m/2)) entries each. Each alternating form's
    entry must equal eta^m, or TorushomError is raised; then it is masked
    by index. The caller keeps h^(2m) < 2^62, so int64 holds every entry.
    """
    s, k = len(family), m // 2
    half = s**k

    def halves(sets: list[int]) -> tuple[np.ndarray, np.ndarray]:
        f = np.stack([_factor(g, x) for x in sets])
        prods = _half_products(f, k)
        # Row r of the first is vec(L_r); column c of the second is vec(R_c^T).
        return prods.reshape(half, -1), prods.transpose(2, 1, 0).reshape(-1, half)

    left, right = halves(family)
    n_left, n_right = halves([common_neighborhood(g, x) for x in family])
    pos = {x: i for i, x in enumerate(family)}
    # Both sets of a maximal pair are in the support, which every family
    # holds, so every alternating form is a family tuple.
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
            if vals[i - base] != eta_m:
                pair = MaximalPair(family[i // place[0]], family[i // place[1] % s])
                raise TorushomError(
                    f"identity violated on pair {pair}: {vals[i - base]} != {eta_m}"
                )
            vals[i - base] = -1
        top = max(vals)
        if top < max(best, 0):
            continue
        if top > best:
            best, found = top, []
        room = _WITNESS_CAP - len(found)
        found += [base + i for i, v in enumerate(vals) if v == top][:room]

    if best < 0:
        return None, []
    return best, [tuple(family[i // p % s] for p in place) for i in found]


def verify_extremal_identities(
    g: ConstraintGraph,
    w: WeightSet,
    m: int,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> ExtremalIdentityReport:
    """Check the exact product identity on maximal pairs and compute the gap.

    For every maximal pair (A,B), the alternating tuple satisfies
    g(alt) * g(n alt) = eta^m exactly. Each sweep reads that product from
    its table, and the first sweep covers every pair, so
    `identity_checked` is the pair count; a violation raises TorushomError
    since it would falsify the structure theory, not the caller. delta is
    the minimum of eta^m - g(T) * g(nT) over tuples T not of alternating
    maximal form, found exactly by table sweeps (`_family_sweep`). The
    first covers the support S and gives top_S; the threshold tau is top_S,
    or b_out eta^(m-1) when every support tuple alternates, b_out being the
    largest b(A) = |A| |n(A)| off S. Since A x n(A) is complete bipartite,
    b(A) <= eta and g(T) g(nT) <= prod_i b(A_i), so every tuple reaching
    tau lies in F^m for F = {A : b(A) eta^(m-1) >= tau}, which the second
    sweep covers in ascending mask order; the witnesses are the
    lexicographically first _WITNESS_CAP ties. Without top_S, a best
    below tau lowers tau to it and the wider F is swept once more.
    `work_cap` bounds the tuples of each sweep: one with
    |family|^m > work_cap is refused up front. So is any (H, m) with
    h^(2m) >= 2^62, past which the int64 table could wrap.
    """
    if not (w.is_uniform() and w[0] == 1):
        raise ValueError("extremal identities are stated at all-1 weights")
    _validate_tuple_length(m)
    if g.h ** (2 * m) >= 1 << 62:
        raise CapExceeded(f"gap table entries up to {g.h}^{2 * m} pass int64")

    record = instance_structure(g, w)
    eta = int(record.eta)
    alt_forms = {alternating_tuple(p.a, p.b, m) for p in record.pairs}

    def sweep(family: list[int]) -> tuple[int | None, list[ColorSetTuple]]:
        if len(family) ** m > work_cap:
            raise CapExceeded(
                f"gap search needs {len(family)}^{m} tuples > {work_cap}"
            )
        return _family_sweep(g, family, alt_forms, m, eta**m)

    # the pairs hold each A once, ascending
    support = [p.a for p in record.pairs]
    top, wits = sweep(support)
    sets = range(1 << g.h)
    b = [mask_size(s) * mask_size(common_neighborhood(g, s)) for s in sets]
    lift = eta ** (m - 1)
    tau = top
    if top is None:
        tau = lift * max(b[s] for s in sets if s not in support)
    while (family := [s for s in sets if b[s] * lift >= tau]) != support:
        top, wits = sweep(family)
        if top >= tau:
            break
        tau = top  # only without top_S: the wider family reaches it

    delta = eta**m - top
    if delta < 1:
        raise TorushomError(f"gap {delta} < 1 contradicts the counting bound")
    return ExtremalIdentityReport(
        eta=eta,
        m=m,
        identity_checked=len(record.pairs),
        delta=delta,
        delta_is_exact=True,
        witnesses=tuple(wits),
    )


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
