"""Constraint graphs (color graphs) with rational vertex weights.

A constraint graph H encodes which colors may sit next to which: vertices
are colors 0..h-1, edges (loops allowed) are the permitted adjacent pairs.
Color subsets are bitmasks throughout. The central computation is the
extremal constant eta = max over fully-adjacent subset pairs (A,B) of
lambda_A * lambda_B, together with the set of ordered pairs achieving it.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import CapExceeded, EmptyConstraint, ParseError

MAX_COLORS = 16

ColorSet = int  # bitmask over colors


def mask_from(colors) -> int:
    m = 0
    for c in colors:
        m |= 1 << c
    return m


def mask_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_size(mask: int) -> int:
    return mask.bit_count()


# adjacency bytes `_is_symmetric` reads at a time
_SYMMETRY_CHUNK = 2**14


def _is_symmetric(adj: Sequence[int]) -> bool:
    """Whether bit j of adj[i] equals bit i of adj[j] for every i and j.

    Up to MAX_COLORS colors each set bit (i, j) is walked in Python: a row
    is one machine word, and this costs less than forming the arrays. Past
    it each row is laid out in bytes up to its highest set bit, one row
    after another; each nonzero byte is unpacked, and each set bit (i, j)
    reads one byte of row j. The work is linear in the bytes and the set
    bits, and apart from the bytes no array outgrows what one chunk needs.
    """
    if len(adj) <= MAX_COLORS:
        return all(adj[j] >> i & 1 for i, row in enumerate(adj) for j in mask_members(row))
    size = np.array([(row.bit_length() + 7) // 8 for row in adj], dtype=np.int64)
    start = np.cumsum(size) - size
    data = np.frombuffer(
        b"".join(row.to_bytes(n, "little") for row, n in zip(adj, size.tolist())),
        dtype=np.uint8,
    )
    for lo in range(0, len(data), _SYMMETRY_CHUNK):
        at = lo + np.flatnonzero(data[lo : lo + _SYMMETRY_CHUNK])
        # the last row starting at or before the byte; rows before it with
        # the same start are empty
        row = np.searchsorted(start, at, side="right") - 1
        hit, bit = np.nonzero(np.unpackbits(data[at, None], axis=1, bitorder="little"))
        i = row[hit]
        j = (at[hit] - start[i]) * 8 + bit
        byte = i >> 3
        if (size[j] <= byte).any():
            return False
        if not (data[start[j] + byte] >> (i & 7) & 1).all():
            return False
    return True


@dataclass(frozen=True)
class ConstraintGraph:
    """Symmetric adjacency on colors 0..h-1, loops allowed."""

    h: int
    adj: tuple[int, ...]  # adj[k] = bitmask of colors adjacent to k
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("need at least one color")
        if len(self.adj) != self.h:
            raise ValueError("adjacency length != color count")
        for k, row in enumerate(self.adj):
            if row >> self.h:
                raise ValueError(f"adjacency row {k} references colors >= {self.h}")
        if not _is_symmetric(self.adj):
            raise ValueError("adjacency not symmetric")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(k) for k in range(self.h)))
        elif len(self.labels) != self.h:
            raise ValueError("labels length != color count")

    @property
    def full_mask(self) -> int:
        return (1 << self.h) - 1

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def is_loop(self, k: int) -> bool:
        return bool(self.adj[k] >> k & 1)


class _DrawTables(dict):
    """mask -> (colors of the mask, cumulative float weights, their total),
    each entry built on first lookup. The last cumulative weight is +inf,
    so a search for u * total below the total always lands on a color."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[float, ...]):
        super().__init__()
        self.weights = weights

    def __missing__(self, mask: int):
        colors = mask_members(mask)
        cum, acc = [], 0.0
        for k in colors:
            acc += self.weights[k]
            cum.append(acc)
        if cum:
            cum[-1] = math.inf
        entry = self[mask] = (colors, cum, acc)
        return entry


@dataclass(frozen=True)
class WeightSet:
    """Strictly positive rational weight per color."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "weights", ws)
        # Hashing a Fraction runs Python code; every record lookup hashes w.
        object.__setattr__(self, "_hash", hash(ws))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def ones(cls, h: int) -> "WeightSet":
        return cls((Fraction(1),) * h)

    @classmethod
    def parse(cls, text: str) -> "WeightSet":
        """Comma-separated rationals, e.g. "3/2,1,1"."""
        try:
            return cls(tuple(Fraction(part.strip()) for part in text.split(",")))
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad weight list {text!r}: {e}") from None

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, k: int) -> Fraction:
        return self.weights[k]

    def is_uniform(self) -> bool:
        return all(w == self.weights[0] for w in self.weights)

    def scale_denominator(self) -> int:
        """Smallest positive integer C with C*lambda_k integral for all k."""
        return math.lcm(*(w.denominator for w in self.weights))

    def integer_scaled(self) -> tuple[int, tuple[int, ...]]:
        """(C, (C*lambda_k as ints)) for exact integer-weight counting."""
        c = self.scale_denominator()
        return c, tuple(int(w * c) for w in self.weights)

    @cached_property
    def draw_tables(self) -> _DrawTables:
        """Candidate mask -> (its colors, their cumulative float weights,
        the total), for weighted draws; each entry is built on first
        lookup. They depend on the weights alone, so they need no extremal
        scan."""
        return _DrawTables(tuple(float(x) for x in self.weights))


class MaximalPair(NamedTuple):
    a: ColorSet
    b: ColorSet


@dataclass(frozen=True)
class Blowup:
    """Unweighted graph with each color k expanded to a block of C*lambda_k
    clones; edges expand to complete bipartite links, loops to complete
    looped blocks. Reduces the weighted model to a uniform one."""

    graph: ConstraintGraph
    scale_c: int
    block_of: tuple[int, ...]  # blow-up vertex -> original color
    blocks: tuple[int, ...]  # original color -> bitmask of blow-up vertices

    def lift(self, mask: ColorSet) -> int:
        """Image of an original color set as a blow-up vertex set."""
        out = 0
        for k in mask_members(mask):
            out |= self.blocks[k]
        return out


def common_neighborhood(g: ConstraintGraph, a: ColorSet) -> ColorSet:
    """n(a): colors adjacent to everything in a; n(empty) = all colors."""
    out = g.full_mask
    m = a
    while m:
        low = m & -m
        out &= g.adj[low.bit_length() - 1]
        m ^= low
    return out


def subset_weight(w: WeightSet, t: ColorSet) -> Fraction:
    """lambda_t = sum of weights over the set; empty set weighs 0."""
    total = Fraction(0)
    for k in mask_members(t):
        total += w[k]
    return total


@dataclass(frozen=True, eq=False)
class InstanceStructure:
    """What the sampler, the ideal-edge tests and the limit targets read
    from an instance (H, lambda), built once by `instance_structure`."""

    scale_c: int  # smallest C with every C*lambda_k integral
    int_weights: tuple[int, ...]  # C*lambda_k
    eta: Fraction  # max lambda_A * lambda_B over fully adjacent (A, B)
    pairs: tuple[MaximalPair, ...]  # every maximizer, ascending in A
    class_weight: dict[ColorSet, Fraction]  # lambda of each class of a pair


def _subset_table(items, op, unit) -> list:
    """`op` folded over every subset of the items, by the low-bit recurrence
    t[s] = op(t[s minus its low bit], item of the low bit): 2^h entries,
    65,536 at MAX_COLORS."""
    table = [unit] * (1 << len(items))
    for s in range(1, len(table)):
        table[s] = op(table[s & (s - 1)], items[(s & -s).bit_length() - 1])
    return table


@lru_cache(maxsize=256)
def _structure(g: ConstraintGraph, w: WeightSet) -> InstanceStructure:
    """The extremal scan, on integer-scaled weights.

    Scanning A over nonempty subsets and pairing with B = n(A) is
    exhaustive: weight positivity forces B = n(A) in any maximizer, and
    A = n(n(A)) follows (a strictly larger first component would beat the
    maximum). Scaling every weight by C scales every product by C^2, so
    the maximizers are those of the rational scan.
    """
    if len(w) != g.h:
        raise ValueError("weight count != color count")
    if g.h > MAX_COLORS:
        raise CapExceeded(f"subset scan capped at {MAX_COLORS} colors, got {g.h}")
    if not any(g.adj):
        raise EmptyConstraint("constraint graph has no edge or loop")

    c, ints = w.integer_scaled()
    sums = _subset_table(ints, operator.add, 0)
    nbhd = _subset_table(g.adj, operator.and_, g.full_mask)
    best = 0
    arg_masks: list[int] = []
    for a in range(1, 1 << g.h):
        b = nbhd[a]
        if not b:
            continue
        prod = sums[a] * sums[b]
        if prod > best:
            best = prod
            arg_masks = [a]
        elif prod == best:
            arg_masks.append(a)

    if not arg_masks:
        raise EmptyConstraint("no adjacent pair of color subsets")

    pairs = []
    for a in arg_masks:
        b = nbhd[a]
        assert nbhd[b] == a, "maximizer must satisfy a = n(b)"
        pairs.append(MaximalPair(a, b))
    return InstanceStructure(
        scale_c=c,
        int_weights=ints,
        eta=Fraction(best, c * c),
        pairs=tuple(pairs),
        class_weight={cls: Fraction(sums[cls], c) for p in pairs for cls in p},
    )


def instance_structure(g: ConstraintGraph, w: WeightSet) -> InstanceStructure:
    """The structure record of (g, w): built on the first call, then shared
    by every caller until the least recently used of 256 records goes."""
    return _structure(g, w)


def structure_cache_counts() -> tuple[int, int]:
    """(hits, misses) of the structure records since the process started."""
    info = _structure.cache_info()
    return info.hits, info.misses


def blowup(g: ConstraintGraph, w: WeightSet) -> Blowup:
    if len(w) != g.h:
        raise ValueError("weight count != color count")
    c, sizes = w.integer_scaled()
    blocks = []
    block_of = []
    start = 0
    for k in range(g.h):
        size = sizes[k]
        blocks.append(((1 << size) - 1) << start)
        block_of.extend([k] * size)
        start += size
    n = start
    adj = []
    for v in range(n):
        row = 0
        for j in mask_members(g.adj[block_of[v]]):
            row |= blocks[j]
        adj.append(row)
    labels = tuple(
        f"{g.labels[block_of[v]]}.{v - (blocks[block_of[v]] & -blocks[block_of[v]]).bit_length() + 1}"
        for v in range(n)
    )
    bg = ConstraintGraph(n, tuple(adj), labels)
    return Blowup(bg, c, tuple(block_of), tuple(blocks))


def check_blowup_pair_bijection(g: ConstraintGraph, w: WeightSet) -> bool:
    """Recompute the extremal structure on the blow-up (all-1 weights) and
    verify eta scales by C^2 and maximal pairs are exactly the lifted ones.
    A blow-up past MAX_COLORS is refused before it is built."""
    s = instance_structure(g, w)
    size = sum(s.int_weights)
    if size > MAX_COLORS:
        raise CapExceeded(f"subset scan capped at {MAX_COLORS} colors, got {size}")
    bu = blowup(g, w)
    bs = instance_structure(bu.graph, WeightSet.ones(bu.graph.h))
    if bs.eta != s.eta * bu.scale_c**2:
        return False
    lifted = {(bu.lift(p.a), bu.lift(p.b)) for p in s.pairs}
    return lifted == {(p.a, p.b) for p in bs.pairs}


class _PermutationSearch:
    """Backtracking over the color permutations that preserve adjacency (and
    weights if given). Colors 0, 1, ... are assigned in order, each only to a
    color with the same (weight, loop, degree-profile) signature. `nodes`
    counts, over all searches, the partial permutations visited that extend
    a whole prefix, the prefix itself included."""

    def __init__(self, g: ConstraintGraph, w: Optional[WeightSet]):
        if w is not None and len(w) != g.h:
            raise ValueError("weight count != color count")

        def signature(k):
            wt = w[k] if w is not None else None
            deg = mask_size(g.adj[k])
            nbr_profile = tuple(sorted(
                (mask_size(g.adj[j]), g.is_loop(j), w[j] if w is not None else None)
                for j in mask_members(g.adj[k])
            ))
            return (wt, g.is_loop(k), deg, nbr_profile)

        sigs = [signature(k) for k in range(g.h)]
        self.g = g
        self.candidates = [
            [j for j in range(g.h) if sigs[j] == sigs[k]] for k in range(g.h)
        ]
        self.nodes = 0

    def extensions(self, prefix: Sequence[int] = ()) -> Iterator[tuple[int, ...]]:
        """Every automorphism sending color k to prefix[k] for k < len(prefix),
        lazily and in lexicographic order."""
        g = self.g
        choices = [
            cands if k >= len(prefix) else [j for j in cands if j == prefix[k]]
            for k, cands in enumerate(self.candidates)
        ]
        counted_from = max(len(prefix) - 1, 0)
        perm = [-1] * g.h
        used = [False] * g.h

        def extend(k: int) -> Iterator[tuple[int, ...]]:
            if k == g.h:
                yield tuple(perm)
                return
            for img in choices[k]:
                if used[img]:
                    continue
                ok = True
                for prev in range(k):
                    if g.has_edge(k, prev) != bool(g.adj[img] >> perm[prev] & 1):
                        ok = False
                        break
                if ok and g.is_loop(k) == bool(g.adj[img] >> img & 1):
                    self.nodes += k >= counted_from
                    perm[k] = img
                    used[img] = True
                    yield from extend(k + 1)
                    used[img] = False
                    perm[k] = -1

        return extend(0)


def automorphisms(
    g: ConstraintGraph, w: Optional[WeightSet] = None
) -> Iterator[tuple[int, ...]]:
    """The whole group of color permutations preserving adjacency (and
    weights if given), listed lazily. Its size can reach h!, so code that
    only needs orbits should close them under `automorphism_generators`."""
    yield from _PermutationSearch(g, w).extensions()


class AutomorphismGenerators(NamedTuple):
    perms: tuple[tuple[int, ...], ...]
    nodes: int  # partial permutations the backtracking visited


def automorphism_generators(
    g: ConstraintGraph, w: Optional[WeightSet] = None
) -> AutomorphismGenerators:
    """A generating set of the group `automorphisms` lists.

    G_i, the automorphisms fixing colors 0..i-1, form a stabilizer chain.
    Working from the deepest level up, for each color j with i's signature
    that the generators found so far cannot send i to, the first extension
    of the prefix (0, ..., i-1, j) is a representative of a coset of G_{i+1}
    in G_i, if one exists. Every coset gets a representative or is reached
    through earlier ones, so by Schreier-Sims these generate the group
    (Seress, Permutation Group Algorithms, 2003). The subtrees below those
    prefixes are disjoint parts of the tree `automorphisms` walks, so the
    search never visits more nodes than listing the group does.
    """
    search = _PermutationSearch(g, w)
    gens: list[tuple[int, ...]] = []
    for i in reversed(range(g.h)):
        reached = orbit_closure([i], [p.__getitem__ for p in gens])
        for j in search.candidates[i]:
            if j < i or j in reached:
                continue
            rep = next(search.extensions(tuple(range(i)) + (j,)), None)
            if rep is not None:
                gens.append(rep)
                reached = orbit_closure([i], [p.__getitem__ for p in gens])
    return AutomorphismGenerators(tuple(gens), search.nodes)


def orbit_closure(seeds, maps) -> set:
    """The smallest set holding `seeds` and closed under every map in `maps`."""
    orbit = set(seeds)
    todo = list(orbit)
    while todo:
        x = todo.pop()
        for f in maps:
            y = f(x)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def apply_perm_to_mask(perm: Sequence[int], mask: int) -> int:
    out = 0
    for k in mask_members(mask):
        out |= 1 << perm[k]
    return out


# ---------------------------------------------------------------- presets


def complete_graph(q: int) -> ConstraintGraph:
    if q < 2:
        raise ValueError("complete target needs q >= 2")
    full = (1 << q) - 1
    return ConstraintGraph(q, tuple(full ^ (1 << k) for k in range(q)),
                           tuple(str(k + 1) for k in range(q)))


def complete_looped_graph(q: int) -> ConstraintGraph:
    full = (1 << q) - 1
    return ConstraintGraph(q, (full,) * q, tuple(str(k + 1) for k in range(q)))


def hard_core_graph() -> ConstraintGraph:
    # color 0 = "in" (unlooped), color 1 = "out" (looped, adjacent to both)
    return ConstraintGraph(2, (0b10, 0b11), ("in", "out"))


def widom_rowlinson_graph() -> ConstraintGraph:
    # fully looped path 1-2-3: the two outer colors exclude each other
    return ConstraintGraph(3, (0b011, 0b111, 0b110), ("1", "2", "3"))


def cycle_graph(n: int) -> ConstraintGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    adj = [0] * n
    for k in range(n):
        adj[k] = (1 << ((k + 1) % n)) | (1 << ((k - 1) % n))
    return ConstraintGraph(n, tuple(adj), tuple(str(k + 1) for k in range(n)))


def path_graph(n: int) -> ConstraintGraph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    adj = [0] * n
    for k in range(n - 1):
        adj[k] |= 1 << (k + 1)
        adj[k + 1] |= 1 << k
    return ConstraintGraph(n, tuple(adj), tuple(str(k + 1) for k in range(n)))


def disjoint_union(g1: ConstraintGraph, g2: ConstraintGraph) -> ConstraintGraph:
    adj = list(g1.adj) + [row << g1.h for row in g2.adj]
    labels = tuple(g1.labels) + tuple(f"{lab}'" if lab in g1.labels else lab
                                      for lab in g2.labels)
    return ConstraintGraph(g1.h + g2.h, tuple(adj), labels)


_PRESET_RE = re.compile(r"^(ind|wr|k4loop|kq:(\d+)|k(\d+)|cycle:(\d+)|path:(\d+))$")


def preset(name: str) -> ConstraintGraph:
    """Named target graphs; disjoint unions via '+', e.g. 'ind+kq:3'."""
    parts = name.strip().split("+")
    graphs = []
    for part in parts:
        part = part.strip()
        m = _PRESET_RE.match(part)
        if not m:
            raise ParseError(f"unknown target preset {part!r}")
        if part == "ind":
            graphs.append(hard_core_graph())
        elif part == "wr":
            graphs.append(widom_rowlinson_graph())
        elif part == "k4loop":
            graphs.append(complete_looped_graph(4))
        elif m.group(2) or m.group(3):
            graphs.append(complete_graph(int(m.group(2) or m.group(3))))
        elif m.group(4):
            graphs.append(cycle_graph(int(m.group(4))))
        else:
            graphs.append(path_graph(int(m.group(5))))
    out = graphs[0]
    for extra in graphs[1:]:
        out = disjoint_union(out, extra)
    return out


# ---------------------------------------------------------------- file input


def parse_text(text: str) -> tuple[ConstraintGraph, WeightSet]:
    """Text format: 'colors h' header, optional 'w k p/q' weight lines
    (default 1), 'e i j' edge lines (i == j declares a loop)."""
    h = None
    weights: dict[int, Fraction] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "colors" and len(fields) == 2:
                h = int(fields[1])
                if h < 1:
                    raise ValueError("need at least one color")
            elif fields[0] in ("w", "e"):
                if h is None:
                    raise ValueError("'colors h' header must come first")
                if len(fields) != 3:
                    raise ValueError(f"expected 2 arguments on {line!r}")
                if fields[0] == "w":
                    k, wt = int(fields[1]), Fraction(fields[2])
                    if not 0 <= k < h:
                        raise ValueError(f"weight index {k} out of range for {h} colors")
                    weights[k] = wt
                else:
                    i, j = int(fields[1]), int(fields[2])
                    if not (0 <= i < h and 0 <= j < h):
                        raise ValueError(f"edge ({i},{j}) out of range for {h} colors")
                    edges.append((i, j))
            else:
                raise ValueError(f"unrecognized line {line!r}")
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"line {lineno}: {e}") from None
    if h is None:
        raise ParseError("missing 'colors h' header")
    return _assemble(h, weights, edges)


def parse_json(text: str) -> tuple[ConstraintGraph, WeightSet]:
    """JSON format: {"colors": h, "weights": ["3/2", ...], "edges": [[i,j], ...]}."""
    try:
        doc = json.loads(text)
        h = int(doc["colors"])
        weights = {k: Fraction(str(v)) for k, v in enumerate(doc.get("weights", []))}
        edges = [(int(i), int(j)) for i, j in doc.get("edges", [])]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad constraint-graph JSON: {e}") from None
    return _assemble(h, weights, edges)


def _assemble(h, weights, edges):
    if h < 1:
        raise ParseError("need at least one color")
    adj = [0] * h
    for i, j in edges:
        if not (0 <= i < h and 0 <= j < h):
            raise ParseError(f"edge ({i},{j}) out of range for {h} colors")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    for k in weights:
        if not 0 <= k < h:
            raise ParseError(f"weight index {k} out of range for {h} colors")
    g = ConstraintGraph(h, tuple(adj))
    try:
        w = WeightSet(tuple(weights.get(k, Fraction(1)) for k in range(h)))
    except ValueError as e:
        raise ParseError(str(e)) from None
    return g, w


def load(path: str) -> tuple[ConstraintGraph, WeightSet]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_text(text)
