"""Exact weighted counting on even discrete tori.

Two independent routes compute the same partition function: a sweep over
the vertices in index order that keeps one array over the colorings of its
frontier (the swept vertices that still have an unswept neighbor) and
eliminates each vertex once its last neighbor is swept, and a layered
transfer matrix. They share numpy and the modular arithmetic below but not
the decomposition (vertex elimination against layer transfer), which is
what makes their exact agreement a meaningful cross-check. Callers name
their route, and each refuses (BudgetExceeded) at the first array that
would pass its budget, before forming it. Everything here is exact: a count
whose bound stays below 2^62 runs on int64, and past it modulo primes on
float64, every value an integer below 2^53, where float64 is exact; `_crt`
assembles it from enough primes to pass the bound, and one spare prime must
agree. Unpinned transfer counts at m >= 4 always run modulo primes
p = 1 (mod m), whose m-th roots of unity split trace(T^m) into momentum
sectors, one per character of the layer's translation group.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from numbers import Integral
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .constraint_graph import ConstraintGraph, WeightSet
from .errors import BudgetExceeded, OracleMismatch
from .torus import TorusGraph

Coloring = tuple[int, ...]
# Pins map a vertex to a bitmask of colors it may take.
Pins = Mapping[int, int]

DEFAULT_BRUTE_BUDGET = 10**8
DEFAULT_TRANSFER_BUDGET = 10**7

# Above this, int64 products could overflow; count modulo primes instead.
_INT64_SAFE = 2**62


def _bit_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """0/1 uint8 matrix whose row i holds bits 0..n-1 of masks[i]."""
    nbytes = (n + 7) // 8
    data = b"".join(x.to_bytes(nbytes, "little") for x in masks)
    rows = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little")


def _cycle_trace(factors: Callable, bound: int, dim: int) -> int:
    """Exact trace of the ordered product of two or more dim x dim integer
    factors with entries, partial sums and trace at most `bound`: on int64
    from `factors(None)` below 2^62, else from residues `factors(p)` modulo
    the primes of `_crt`, drawn one at a time; it closes as a Frobenius sum."""

    def trace(p: int | None) -> int:
        mod = (lambda x: x) if p is None else (lambda x: _reduce(x, p))
        it = (f if p is None else f.astype(np.float64) for f in factors(p))
        prod, last = next(it), next(it)
        for f in it:
            prod, last = mod(prod @ last), f
        # modulo p, a row sums dim terms below p^2, so it is exact
        return int(mod((prod * last.T).sum(axis=1)).sum())

    return trace(None) if bound < _INT64_SAFE else _crt(trace, bound, 1, dim)


@dataclass(frozen=True)
class PartitionFunctionResult:
    """Exact partition function value plus provenance of the computation.

    `method` names the public route (brute or transfer). `route` names the
    path inside it: "brute", "bitset" (transfer at m=2, popcounts of packed
    compatibility rows), "sectors" (unpinned transfer at m >= 4) or
    "masked" (pinned transfer at m >= 4). `arithmetic` is "int" for
    "bitset" (popcounts summed as Python integers), "modular" (residues
    modulo primes, assembled by `_crt`) for "sectors", and "int64" or
    "modular" for "brute" and "masked". `layer_states` is the number of valid
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


def _pin_masks(t: TorusGraph, g: ConstraintGraph, pins: Pins | None) -> list[int]:
    masks = [g.full_mask] * t.n
    if pins:
        for v, cmask in pins.items():
            if not (0 <= v < t.n):
                raise ValueError(f"pinned vertex {v} outside torus")
            masks[v] = cmask & g.full_mask
    return masks


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
    (sum of weights)^n: below 2^62 the sweep runs on int64 ("int64"), and
    past it on float64 modulo one prime of `_crt` at a time ("modular").

    The budget bounds the sweep's real work, passes * sum_v h^(|F_v| + 1):
    the array at vertex v holds h^(|F_v| + 1) entries, and past 2^62 each
    prime, the spare and the 0/1 pass below take a pass. The sum is taken
    from the frontier sizes, vertex by vertex, before any array is built,
    and the run is refused at the first vertex where it passes the budget,
    so refusal is deterministic, costs at most that many vertices, and no
    array is larger than the budget. On a torus where even a floor on the
    passes from bit lengths passes it, the refusal comes on that floor,
    before (sum of weights)^n is formed. `search_states` reports the nonzero
    frontier entries met before vertices 0..n-2, which with positive
    weights are the frontier colorings some valid prefix reaches: past
    2^62, one pass at unit weights with partial sums clamped to 1.
    """
    n, h = t.n, g.h
    scale, wint = w.integer_scaled()
    total = sum(wint)
    # total^n >= 2^((b - 1) n), b = total.bit_length(), and every prime is
    # below 2^31, so this floor on the passes is 1 below 2^62 and needs no
    # power; while it alone passes the budget at h steps a vertex, the sweep
    # is refused on it below, before the power is formed.
    passes = max(1, (total.bit_length() - 1) * n // 31)
    if passes * h * n <= budget:
        bound = total**n
        passes = 1 if bound < _INT64_SAFE else len(_primes(bound, 1, 1)) + 2
    nbrs: list[tuple[int, ...]] = []
    # done[v]: the vertices whose axis is summed out once v is colored;
    # every u <= v is filed by the time v is reached.
    done: dict[int, list[int]] = {}
    steps = frontier = 0  # frontier = |F_v|
    for v in range(n):
        nbrs.append(t.neighbors(v))
        done.setdefault(max(v, *nbrs[v]), []).append(v)
        steps += passes * h ** (frontier + 1)
        if steps > budget:
            raise BudgetExceeded(
                f"brute force needs more than {budget} frontier steps: "
                f"{passes} pass(es) of sum_v h^(|F_v|+1) exceed it "
                f"at vertex {v} of {n}"
            )
        frontier += 1 - len(done.get(v, ()))
    masks = _bit_rows(_pin_masks(t, g, pins), h)
    adj = _bit_rows(g.adj, h)[:, None, :]

    def sweep(lane_w: np.ndarray, mod: Callable) -> tuple[int, int]:
        """(Z, nonzero frontier entries met) over one lane of weights, every
        partial sum taken through mod."""
        vertex_w, adj_w = masks * lane_w, adj.astype(lane_w.dtype)
        axes: list[int] = []  # frontier vertices, ascending: the state's axes
        state, nonzero = np.ones(1, dtype=lane_w.dtype), 0
        for v in range(n):
            if v < n - 1:
                nonzero += int(np.count_nonzero(state))
            state = mod((state[:, None] * vertex_w[v]).reshape(-1))
            axes.append(v)
            for u in {u for u in nbrs[v] if u < v}:
                i = bisect_left(axes, u)
                view = state.reshape(h**i, h, -1, h)
                np.multiply(view, adj_w, out=view)
            for u in done.get(v, ()):
                i = bisect_left(axes, u)
                state = mod(state.reshape(h**i, h, -1).sum(axis=1).reshape(-1))
                del axes[i]
        return int(state[0]), nonzero

    if bound < _INT64_SAFE:
        arithmetic = "int64"
        z, states = sweep(np.array(wint, dtype=np.int64), lambda x: x)
    else:
        arithmetic = "modular"
        _, states = sweep(np.ones(h, dtype=np.int64), lambda x: np.minimum(x, 1, out=x))
        lane = lambda p: np.array([x % p for x in wint], dtype=np.float64)
        z = _crt(lambda p: sweep(lane(p), lambda x: _reduce(x, p))[0], bound, 1, 1)
    return PartitionFunctionResult(
        z=Fraction(z, scale**n),
        method="brute",
        instance=_descriptor(t, g, w),
        route="brute",
        arithmetic=arithmetic,
        layer_states=None,
        search_states=states,
    )


def _is_prime(n: int) -> bool:
    """Miller-Rabin to bases 2, 3, 5 and 7, which is exact below 3,215,031,751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime(m: int, dim: int, i: int) -> int:
    """The i-th largest prime p = 1 (mod m), any prime for m = 1, at which
    every entry and partial sum of a product of two dim x dim residue
    matrices, at most dim * (p - 1)^2, stays below 2^53 (float64 is exact).
    BudgetExceeded when there are only i such primes."""
    top = math.isqrt((2**53 - 1) // dim) + 1
    p = _prime(m, dim, i - 1) - 1 if i else top
    p -= (p - 1) % m  # the largest p' <= p with p' = 1 (mod m)
    while not _is_prime(p):
        if p <= m:
            raise BudgetExceeded(
                f"counting modulo primes needs more primes p = 1 (mod {m}) "
                f"below {top}, where float64 products stay exact, "
                f"than there are ({i})"
            )
        p -= m
    return p


@lru_cache(maxsize=None)
def _root_of_unity(m: int, p: int) -> int:
    """A primitive m-th root of unity modulo a prime p = 1 (mod m)."""
    factors = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    omega, x = 1, 1
    while any(pow(omega, m // q, p) == 1 for q in factors):
        x += 1
        omega = pow(x, (p - 1) // m, p)
    return omega


def _primes(bound: int, m: int, dim: int) -> list[int]:
    """`_prime(m, dim, i)` for i = 0, 1, ... until their product passes bound."""
    used, modulus = [], 1
    while modulus <= bound:
        used.append(_prime(m, dim, len(used)))
        modulus *= used[-1]
    return used


def _crt(residue: Callable[[int], int], bound: int, m: int, dim: int) -> int:
    """The integer 0 <= z <= bound that is `residue(p)` modulo each prime of
    `_primes(bound, m, dim)`, called one prime at a time.
    CRT assembles z; the residue at one spare prime, taken last, must agree,
    or OracleMismatch is raised."""
    used = _primes(bound, m, dim)
    modulus = math.prod(used)
    z = sum(residue(p) * (q := modulus // p) * pow(q, -1, p) for p in used) % modulus
    spare = _prime(m, dim, len(used))
    check = residue(spare) % spare
    if z % spare != check:
        raise OracleMismatch(
            f"count {z} is {z % spare} modulo the spare prime {spare}, "
            f"which gives {check}"
        )
    return z


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 integers 0 <= x < 2^53 and a prime p.
    The rounded quotient is within 2^-53 * x/p < 1/p of x/p, which is an
    integer or at least 1/p below the next one, so its floor is exact."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _power_trace_mod(mats: np.ndarray, m: int, p: int) -> int:
    """Sum over a stack of residue matrices of trace(M^m) mod p, m even: P =
    M^(m/2) by binary powering, closed as the diagonal of P P."""
    base, power, k = mats, None, m // 2
    while k:
        if k & 1:
            power = base if power is None else _reduce(power @ base, p)
        k >>= 1
        if k:
            base = _reduce(base @ base, p)
    # dim terms below p^2 per diagonal entry, so each sum is exact
    diag = _reduce(np.einsum("kij,kji->ki", power, power), p)
    return int(diag.astype(np.int64).sum()) % p


def _layer_states(t: TorusGraph, g: ConstraintGraph, budget: int) -> np.ndarray:
    """The valid colorings of one layer of t (the torus Z_m^(d-1), or one
    vertex when d = 1), one row per coloring in lexicographic order: a
    sweep over the layer's vertices that extends every row by each color
    its lower neighbors allow. Colors are uint8 up to 256 colors, and the
    smallest unsigned type that holds h - 1 beyond. Before vertex v it is
    refused when rows * h * (v + 1) passes the budget: those cells bound the
    candidate table, its index arrays and the next table of rows."""
    adj = _bit_rows(g.adj, g.h).astype(bool)
    layer = TorusGraph(t.m, t.d - 1) if t.d > 1 else None
    positions = t.n // t.m
    dtype = np.min_scalar_type(g.h - 1)
    states = np.zeros((1, 0), dtype=dtype)
    for v in range(positions):
        if len(states) * g.h * (v + 1) > budget:
            raise BudgetExceeded(
                f"transfer's layer sweep needs {len(states)}*{g.h}*{v + 1} > "
                f"{budget} cells at layer vertex {v} of {positions}"
            )
        cand = np.ones((len(states), g.h), dtype=bool)
        for u in layer.neighbors(v) if layer else ():
            if u < v:
                cand &= adj[states[:, u]]
        rows, colors = np.nonzero(cand)
        states = np.column_stack((states[rows], colors.astype(dtype)))
    return states


class _Sectors(NamedTuple):
    """Orbits of the layer states under the translations G = Z_m^(d-1) of the
    layer. Group elements are numbered like the layer's positions."""

    orbit: np.ndarray  # (s,) orbit of each state
    shift: np.ndarray  # (s,) an element taking each state to its representative
    reps: np.ndarray  # (orbits,) the least state of each orbit
    kdot: np.ndarray  # (|G|, |G|) k . a mod m
    member: np.ndarray  # (|G|, orbits) chi_k is trivial on the orbit's stabilizer


def _sectors(t: TorusGraph, states: np.ndarray) -> _Sectors:
    """Orbit labels from the index permutation of each unit translation,
    composed over the whole group."""
    s, positions = states.shape
    act = np.arange(s)[None, :]  # act[a, i]: the index of state i shifted by a
    coords = np.zeros((1, 0), dtype=np.int64)
    if t.d > 1:
        layer = TorusGraph(t.m, t.d - 1)
        for c in range(1, t.d):
            shifted = np.empty_like(states)
            shifted[:, [layer.shift(p, c, 1) for p in range(positions)]] = states
            # states are sorted rows, and the shifted rows are the same set
            gen = np.empty(s, dtype=np.intp)
            gen[np.lexsort(shifted.T[::-1])] = np.arange(s)
            steps = [act]
            for _ in range(t.m - 1):
                steps.append(gen[steps[-1]])
            # a new least significant coordinate, so elements follow positions
            act = np.stack(steps, axis=1).reshape(-1, s)
            coords = np.column_stack(
                (np.repeat(coords, t.m, axis=0), np.tile(np.arange(t.m), len(coords)))
            )
    reps, orbit = np.unique(act.min(axis=0), return_inverse=True)
    kdot = coords @ coords.T % t.m
    stab = act[:, reps] == reps
    member = (kdot != 0).astype(np.int64) @ stab.astype(np.int64) == 0
    return _Sectors(orbit.ravel(), act.argmin(axis=0), reps, kdot, member)


class _TransferEngine:
    """Layered transfer-matrix evaluator for one (torus shape, H, weights).

    The torus is sliced along the last coordinate into m layers, each a
    Z_m^{d-1} torus (a single vertex when d=1). States are the valid
    colorings of one layer, one row each (`_layer_states`). State j may
    follow state i when every position's colors are adjacent in H; row i
    of `compat` packs those j into bits. For m=2 the two layers are joined by a single
    matching, so the inter-layer feasibility is applied exactly once
    rather than squared. Unpinned counts at m >= 4 go through the orbits
    of the states under the layer's translations (`sectors`); pinned
    counts at m >= 4 take row-masked products of T.
    Each array past the budget is refused where it would be formed, before
    it is: the layer sweep's tables in the constructor, the s^2 bits of
    `compat` (m = 2 and pinned counts), the (m - 1) * s^2 entries of a
    pinned count's dense products per residue in `z_int`, and the orbits * s
    rows and |G| * orbits^2 counts of the sectors in `_sector_sum`.
    """

    def __init__(self, t: TorusGraph, g: ConstraintGraph, w: WeightSet, budget: int):
        self.t = t
        self.g = g
        self.budget = budget
        self.scale, wint = w.integer_scaled()
        self.states = _layer_states(t, g, budget)
        # A state's weight depends only on how many of its positions take each
        # distinct weight. Classes are refined one weight at a time, so a key
        # stays below s * (positions + 1).
        key_of = np.zeros(len(self.states), dtype=np.intp)
        for x in sorted(set(wint)):
            hits = np.array([y == x for y in wint])[self.states].sum(axis=1)
            key = key_of * (t.n // t.m + 1) + hits
            _, first, key_of = np.unique(key, return_index=True, return_inverse=True)
        key_w = [math.prod(wint[c] for c in row) for row in self.states[first].tolist()]
        # weights: the distinct state weights, ascending; cls: each state's place
        self.weights = tuple(sorted(set(key_w)))
        place = np.array([bisect_left(self.weights, x) for x in key_w], dtype=np.intp)
        self.cls = place[key_of]

    @cached_property
    def _near(self) -> np.ndarray:
        """(positions, h, packed states): the states whose color at the
        position is adjacent to the color."""
        adj = _bit_rows(self.g.adj, self.g.h).astype(bool)
        near = adj[:, self.states.T].transpose(1, 0, 2)
        return np.packbits(near, axis=-1, bitorder="little")

    def _compat_rows(self, index) -> np.ndarray:
        """Packed compatibility rows of the states at `index`."""
        sub = self.states[index]
        near = self._near
        out = near[0][sub[:, 0]]
        for p in range(1, sub.shape[1]):
            out &= near[p][sub[:, p]]
        return out

    @cached_property
    def compat(self) -> np.ndarray:
        """Bit j of row i (little-endian) is set when state j may follow i."""
        s_count = len(self.states)
        if s_count**2 > self.budget:
            raise BudgetExceeded(
                f"transfer needs {s_count}^2 > {self.budget} compatibility bits "
                f"for its {s_count} layer states"
            )
        return self._compat_rows(slice(None))

    @cached_property
    def sectors(self) -> _Sectors:
        return _sectors(self.t, self.states)

    def layer_allowed(self, pins: Pins | None) -> np.ndarray | None:
        """Translate vertex pins into an (m, states) mask of allowed states."""
        if not pins:
            return None
        colors = _bit_rows(_pin_masks(self.t, self.g, pins), self.g.h).astype(bool)
        out = np.ones((self.t.m, len(self.states)), dtype=bool)
        for v in pins:
            out[v % self.t.m] &= colors[v][self.states[:, v // self.t.m]]
        return out

    def z_int(self, allowed: np.ndarray | None) -> tuple[int, str, str]:
        """Integer-scaled weighted count, with the route and arithmetic used."""
        s_count = len(self.states)
        # Entry and trace bound for the m-fold product of T, row-masked or
        # not: an entry of a j-fold product is at most s^(j-1) * w_max^j,
        # and the trace at most s^m * w_max^m.
        bound = (s_count * max(self.weights, default=0)) ** self.t.m
        if self.t.m == 2:
            return self._pair_sum(allowed), "bitset", "int"
        if allowed is None:
            return self._sector_sum(bound), "sectors", "modular"
        if (self.t.m - 1) * s_count**2 > self.budget:
            raise BudgetExceeded(
                f"pinned transfer needs {self.t.m - 1}*{s_count}^2 > {self.budget} "
                f"product entries for its {s_count} layer states"
            )
        bits = np.unpackbits(self.compat, axis=1, count=s_count, bitorder="little")

        def factors(p: int | None) -> Iterator[np.ndarray]:
            """Row-masked T, T[i, j] = w_i (or w_i mod p) when j may follow i."""
            w = [x if p is None else x % p for x in self.weights]
            t_mat = bits * np.array(w, dtype=np.int64)[self.cls][:, None]
            return (t_mat * row[:, None] for row in allowed)

        arithmetic = "int64" if bound < _INT64_SAFE else "modular"
        return _cycle_trace(factors, bound, s_count), "masked", arithmetic

    def _pair_sum(self, allowed: np.ndarray | None) -> int:
        """m = 2: the sum of w_i * w_j over compatible pairs, i allowed in
        layer 0 and j in layer 1, from popcounts per weight class."""
        k = len(self.weights)
        row_cls = self.cls if allowed is None else np.where(allowed[0], self.cls, k)
        buf = np.empty_like(self.compat)
        total = 0
        for c, wc in enumerate(self.weights):
            cols = self.cls == c
            if allowed is not None:
                cols &= allowed[1]
            np.bitwise_and(self.compat, np.packbits(cols, bitorder="little"), out=buf)
            per_row = np.bitwise_count(buf, out=buf).sum(axis=1, dtype=np.int64)
            by_cls = np.zeros(k + 1, dtype=np.int64)
            np.add.at(by_cls, row_cls, per_row)
            total += wc * sum(wr * int(x) for wr, x in zip(self.weights, by_cls))
        return total

    def _sector_sum(self, bound: int) -> int:
        """trace(T^m) as the sum over the characters chi_k of G of
        trace(M_k^m), where M_k[O, O'] = w(O) * sum over the states y of O'
        that may follow O's representative of chi_k(shift of y), and
        O, O' range over the orbits of sector k.

        Each sector trace is taken modulo primes p = 1 (mod m), where the
        m-th roots of unity exist, and `_crt` assembles Z. The shift takes y
        to its representative rather than back, which relabels sector k as
        -k and leaves the sum unchanged."""
        s_count = len(self.states)
        if s_count == 0:
            return 0
        sec = self.sectors
        n, group = len(sec.reps), len(sec.kdot)
        if n * s_count + group * n**2 > self.budget:
            raise BudgetExceeded(
                f"transfer's sectors need {n}*{s_count} + {group}*{n}^2 > "
                f"{self.budget} cells for the {n} orbits of its {s_count} layer states"
            )
        # counts[a, O, O']: states y of O' with shift a that may follow O's rep
        o, y = np.nonzero(np.unpackbits(
            self._compat_rows(sec.reps), axis=1, count=s_count, bitorder="little"
        ))
        counts = np.bincount(
            (sec.shift[y] * n + o) * n + sec.orbit[y], minlength=group * n * n
        ).reshape(group, n, n).astype(np.float64)
        # a product entry sums n terms below p^2, a character sum |O'| <= |G|
        residue = lambda p: self._sector_residue(sec, counts, p)
        return _crt(residue, bound, self.t.m, max(n, group))

    def _sector_residue(self, sec: _Sectors, counts: np.ndarray, p: int) -> int:
        """Sum over k of trace(M_k^m) mod p; a sector's matrix keeps the full
        orbit index, zero outside its orbits."""
        n, group = len(sec.reps), len(sec.kdot)
        omega = _root_of_unity(self.t.m, p)
        powers = np.array([pow(omega, e, p) for e in range(self.t.m)], dtype=np.float64)
        chars = powers[sec.kdot]
        w_mod = np.array([x % p for x in self.weights], dtype=np.float64)
        weighted = (counts * w_mod[self.cls[sec.reps], None]).reshape(group, n * n)
        # An entry sums at most |O'| <= |G| terms below p^2, so it is exact.
        mats = _reduce(chars @ weighted, p).reshape(group, n, n)
        mats *= sec.member[:, :, None] & sec.member[:, None, :]
        return _power_trace_mod(mats, self.t.m, p)


# Room for the 31 engines of `standard_corpus()` and the counts that reuse them.
@lru_cache(maxsize=36)
def _engine(
    t: TorusGraph, g: ConstraintGraph, w: WeightSet, budget: int
) -> _TransferEngine:
    return _TransferEngine(t, g, w, budget)


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
    """Transfer-matrix route: layer states, bitset compatibility, cyclic trace.

    Every refusal is made by the engine before it forms the array that would
    pass the budget (`_TransferEngine`): a refusal by the layer sweep caches
    no engine, and a refusal by a route keeps its engine's layer states."""
    eng = _engine(t, g, w, budget)
    z_int, route, arithmetic = eng.z_int(eng.layer_allowed(pins))
    return PartitionFunctionResult(
        z=Fraction(z_int, eng.scale**t.n),
        method="transfer",
        instance=_descriptor(t, g, w),
        route=route,
        arithmetic=arithmetic,
        layer_states=len(eng.states),
        search_states=None,
    )


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
