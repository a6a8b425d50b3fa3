"""Properties of the per-instance structure record and the torus tables,
checked against scans written here from the definitions alone."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torushom.constraint_graph import (
    ConstraintGraph,
    WeightSet,
    instance_structure,
    structure_cache_counts,
)
from torushom.errors import EmptyConstraint
from torushom.torus import TorusGraph
from references import relabeled

WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


@st.composite
def instances(draw, max_colors=6, min_colors=1):
    """A random constraint graph (loops allowed, at least one edge) with
    weights drawn from WEIGHTS."""
    h = draw(st.integers(min_colors, max_colors))
    slots = [(i, j) for i in range(h) for j in range(i, h)]
    present = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    assume(any(present))
    adj = [0] * h
    for (i, j), on in zip(slots, present):
        if on:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    ws = draw(st.lists(st.sampled_from(WEIGHTS), min_size=h, max_size=h))
    return ConstraintGraph(h, tuple(adj)), WeightSet(tuple(ws))


def pair_scan(g, w):
    """eta and every maximizing (A, B) over all pairs of nonempty color sets
    with every color of A adjacent to every color of B, in Fractions."""
    colors = range(g.h)

    def weight(mask):
        return sum((w.weights[k] for k in colors if mask >> k & 1), Fraction(0))

    def linked(a, b):
        return all(
            g.adj[x] >> y & 1
            for x in colors if a >> x & 1
            for y in colors if b >> y & 1
        )

    best, arg = Fraction(0), []
    for a in range(1, 1 << g.h):
        for b in range(1, 1 << g.h):
            if not linked(a, b):
                continue
            prod = weight(a) * weight(b)
            if prod > best:
                best, arg = prod, [(a, b)]
            elif prod == best:
                arg.append((a, b))
    return best, arg, weight


@given(instances())
@settings(max_examples=60, deadline=None)
def test_record_matches_a_rational_pair_scan(inst):
    g, w = inst
    s = instance_structure(g, w)
    eta, arg, weight = pair_scan(g, w)
    assert s.eta == eta
    assert [(p.a, p.b) for p in s.pairs] == sorted(arg)
    assert s.class_weight == {m: weight(m) for pair in arg for m in pair}
    c = s.scale_c
    assert s.int_weights == tuple(lam * c for lam in w.weights)
    assert all((lam * c).denominator == 1 for lam in w.weights)
    assert not any(
        all((lam * smaller).denominator == 1 for lam in w.weights)
        for smaller in range(1, c)
    )


def neighbourhood_scan(g, w):
    """eta and every maximizing (A, n(A)) over nonempty A, with n(A) the AND
    of the adjacency rows of A's colors and lambda summed in Fractions."""

    def weight(mask):
        return sum((w.weights[k] for k in range(g.h) if mask >> k & 1), Fraction(0))

    best, arg = Fraction(0), []
    for a in range(1, 1 << g.h):
        b = g.full_mask
        for k in range(g.h):
            if a >> k & 1:
                b &= g.adj[k]
        if not b:
            continue
        prod = weight(a) * weight(b)
        if prod > best:
            best, arg = prod, [(a, b)]
        elif prod == best:
            arg.append((a, b))
    return best, arg, weight


@given(instances(max_colors=12, min_colors=9))
@settings(max_examples=30, deadline=None)
def test_record_past_eight_colors_matches_a_neighbourhood_scan(inst):
    """Subsets that span more than one byte of colors, which the 6-color
    pair scan above never draws."""
    g, w = inst
    s = instance_structure(g, w)
    eta, arg, weight = neighbourhood_scan(g, w)
    assert s.eta == eta
    assert [(p.a, p.b) for p in s.pairs] == arg
    assert s.class_weight == {m: weight(m) for pair in arg for m in pair}


@given(instances(max_colors=5), st.data())
@settings(max_examples=60, deadline=None)
def test_relabeled_or_reweighted_instance_gets_its_own_record(inst, data):
    g, w = inst
    perm = data.draw(st.sampled_from(list(permutations(range(g.h)))))
    moved = [Fraction(0)] * g.h
    for k in range(g.h):
        moved[perm[k]] = w.weights[k]
    k = data.draw(st.integers(0, g.h - 1))
    new = data.draw(st.sampled_from(WEIGHTS))
    reweighted = w.weights[:k] + (new,) + w.weights[k + 1:]
    others = [(relabeled(g, perm), WeightSet(tuple(moved))), (g, WeightSet(reweighted))]

    first = instance_structure(g, w)
    for g2, w2 in others:
        s2 = instance_structure(g2, w2)
        assert (s2 is first) == (g2 == g and w2 == w)
        eta, arg, _ = pair_scan(g2, w2)
        assert s2.eta == eta and [(p.a, p.b) for p in s2.pairs] == sorted(arg)
        hits, misses = structure_cache_counts()
        assert instance_structure(g2, w2) is s2
        assert structure_cache_counts() == (hits + 1, misses)
    assert instance_structure(g, w) is first


@given(instances())
@settings(max_examples=40, deadline=None)
def test_equal_weight_sets_hash_alike_and_share_a_record(inst):
    g, w = inst
    text = ",".join(str(x) for x in w.weights)
    equal = [
        WeightSet(tuple(w.weights)),
        WeightSet.parse(text),
        WeightSet(tuple(str(x) for x in w.weights)),
        WeightSet(tuple(x * 1 for x in w.weights)),
    ]
    first = instance_structure(g, w)
    for w2 in equal:
        assert w2 == w and w2 is not w
        assert hash(w2) == hash(w)
        assert instance_structure(g, w2) is first
    assert len({w, *equal}) == 1
    if not w.is_uniform():
        other = WeightSet(w.weights[1:] + w.weights[:1])
        assert other != w and instance_structure(g, other) is not first


def test_edgeless_graph_has_no_record():
    with pytest.raises(EmptyConstraint):
        instance_structure(ConstraintGraph(2, (0, 0)), WeightSet.ones(2))


@pytest.mark.parametrize(
    "m,d", [(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2), (4, 3), (6, 2)]
)
def test_torus_tables_match_the_checked_methods(m, d):
    t = TorusGraph(m, d)
    assert isinstance(t.neighbor_table, tuple)
    assert all(isinstance(row, tuple) for row in t.neighbor_table)
    assert t.neighbor_table == tuple(t.neighbors(v) for v in range(t.n))

    assert isinstance(t.parity_table, tuple)
    assert t.parity_table == tuple(t.parity(v) for v in range(t.n))

    assert isinstance(t.side_table, tuple)
    assert all(isinstance(side, tuple) for side in t.side_table)
    assert t.side_table == tuple(
        tuple(v for v in range(t.n) if t.parity(v) == side) for side in (0, 1)
    )

    edges = t.edge_table
    assert isinstance(edges, tuple) and all(isinstance(e, tuple) for e in edges)
    assert len(edges) == len(set(edges)) == t.num_edges
    assert all(t.parity(u) == 0 and t.parity(v) == 1 for u, v in edges)
    assert {frozenset(e) for e in edges} == {frozenset(e) for e in t.edges()}

    # built once: the same objects on every read
    assert t.neighbor_table is t.neighbor_table and t.edge_table is t.edge_table
