"""The block ideal-edge helper, the phase labels and the estimators built
on it, against a plain per-edge loop kept here as the oracle; the sentinel
draw tables against the clamped search they replace; the greedy restart
count; and the estimator's refusal of a chain that yields no sample."""

import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushom import sampler
from torushom.constraint_graph import (
    WeightSet,
    instance_structure,
    mask_from,
    mask_members,
    preset,
)
from torushom.errors import InvalidColoring
from torushom.exact import transfer_matrix_partition_function
from torushom.sampler import (
    ChainConfig,
    ChainStats,
    _batch_stderr,
    _draw,
    _ideal_hits,
    epsilon_estimate,
    label_block,
    run_chain,
)
from torushom.torus import TorusGraph
from references import (
    classify,
    coloring_weight,
    enumerate_colorings,
    exact_not_ideal_probability,
    giant_component,
    ideal_edge_map,
)

TORI = {
    "Q1": TorusGraph(2, 1),
    "Q2": TorusGraph(2, 2),
    "Q3": TorusGraph(2, 3),
    "Q4": TorusGraph(2, 4),
    "Z4^2": TorusGraph(4, 2),
    "Z4^3": TorusGraph(4, 3),
    "Z6^2": TorusGraph(6, 2),
    "Z8^2": TorusGraph(8, 2),
}
INSTANCES = {
    "ind": ("ind", "1,1"),
    "wr": ("wr", "1,1,1"),
    "k3": ("k3", "1,1,1"),
    "ind+k3": ("ind+k3", "1,1,1,1,1"),
    "wr[1,2,1]": ("wr", "1,2,1"),
}


def instance(name):
    spec, weights = INSTANCES[name]
    return preset(spec), WeightSet.parse(weights)


def per_edge_ideal(t, g, w, f):
    """(even endpoint, odd endpoint) -> pair, one edge at a time: each
    endpoint's palette from its neighbors' colors, looked up in a map of
    the maximal pairs built here."""
    pair_of = {(p.a, p.b): p for p in instance_structure(g, w).pairs}
    out = {}
    for u, v in t.edges():
        if t.parity(u) == 1:
            u, v = v, u
        pal_u = mask_from(f[z] for z in t.neighbors(u))
        pal_v = mask_from(f[z] for z in t.neighbors(v))
        pair = pair_of.get((pal_v, pal_u))
        if pair is not None:
            out[(u, v)] = pair
    return out


def oracle_label(t, g, w, f, defect_cap, balance_tol):
    """classify's label from the per-edge oracle: a search over the ideal
    edges, the first largest component in order of lowest vertex, and the
    balance in Fractions."""
    ideal = per_edge_ideal(t, g, w, f)
    frac = Fraction(len(ideal), t.num_edges)
    nbrs = {v: [] for v in range(t.n)}
    for u, v in ideal:
        nbrs[u].append(v)
        nbrs[v].append(u)
    comp = [-1] * t.n
    sizes = []
    for s in range(t.n):
        if comp[s] >= 0:
            continue
        comp[s] = len(sizes)
        stack, size = [s], 0
        while stack:
            u = stack.pop()
            size += 1
            for v in nbrs[u]:
                if comp[v] < 0:
                    comp[v] = len(sizes)
                    stack.append(v)
        sizes.append(size)
    if not ideal or max(sizes) < (1 - defect_cap) * t.n:
        return ("exceptional", None, frozenset(), frozenset(), frac, None, ())
    root = sizes.index(max(sizes))
    (pair,) = {p for e, p in ideal.items() if comp[e[0]] == root}
    even, odd = t.side_table
    defect_e = frozenset(v for v in even if not (pair.a >> f[v]) & 1)
    defect_o = frozenset(v for v in odd if not (pair.b >> f[v]) & 1)
    devs, balanced = [], True
    for mask, side in ((pair.a, even), (pair.b, odd)):
        lam = sum(w[k] for k in mask_members(mask))
        for k in mask_members(mask):
            target = w[k] / lam
            actual = Fraction(sum(f[v] == k for v in side), t.n // 2)
            rel = float(abs(actual - target) / target)
            devs.append((k, rel))
            balanced = balanced and rel <= balance_tol
    return ("pure", pair, defect_e, defect_o, frac, balanced, tuple(devs))


def label_tuple(label):
    return (label.kind, label.pair, label.defect_e, label.defect_o,
            label.ideal_fraction, label.balanced, label.deviations)


def hits_from_oracle(t, g, w, f):
    """The oracle's hits as (edge_table index -> place in the sorted pairs)."""
    ideal = per_edge_ideal(t, g, w, f)
    pairs = sorted(instance_structure(g, w).pairs)
    return {i: pairs.index(ideal[e]) for i, e in enumerate(t.edge_table) if e in ideal}


def helper_hits(hit_row, at_row):
    return {i: int(at_row[i]) for i in np.flatnonzero(hit_row)}


chain_states = st.tuples(
    st.sampled_from(sorted(TORI)),
    st.sampled_from(sorted(INSTANCES)),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["uniform-greedy", "pure"]),
    st.integers(1, 3_000),
    st.integers(1, 400),
)


def run_states(torus, inst, seed, initial, steps, thin):
    """At most 20 states of a seeded chain."""
    t = TORI[torus]
    g, w = instance(inst)
    cfg = ChainConfig(steps=steps, seed=seed, thin=min(max(thin, steps // 20), steps))
    return t, g, w, list(run_chain(t, g, w, cfg, initial))


@given(chain_states)
@settings(max_examples=60, deadline=None)
def test_block_and_single_hits_match_the_per_edge_loop(case):
    t, g, w, states = run_states(*case)
    s = instance_structure(g, w)
    want = [hits_from_oracle(t, g, w, f) for f in states]
    hit, at = _ideal_hits(t, s, states)
    assert [helper_hits(h, a) for h, a in zip(hit, at)] == want
    packed = np.array(states, dtype=np.uint8)
    hit, at = _ideal_hits(t, s, packed)
    assert [helper_hits(h, a) for h, a in zip(hit, at)] == want
    for f, hits in zip(states, want):
        hit, at = _ideal_hits(t, s, (f,))
        assert helper_hits(hit[0], at[0]) == hits


@given(chain_states)
@settings(max_examples=60, deadline=None)
def test_edge_maps_and_labels_match_the_oracle(case):
    t, g, w, states = run_states(*case)
    for f in states:
        assert ideal_edge_map(t, g, w, f) == per_edge_ideal(t, g, w, f)
        for cap, tol in ((0.1, 0.2), (0.4, 0.05), (0.6, 0.5)):
            got = classify(t, g, w, f, defect_cap=cap, balance_tol=tol)
            assert label_tuple(got) == oracle_label(t, g, w, f, cap, tol)


@given(
    torus=st.sampled_from(sorted(TORI)),
    inst=st.sampled_from(sorted(INSTANCES)),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_any_coloring_matches_the_oracle(torus, inst, data):
    # The palettes are defined for every coloring, valid or not.
    t = TORI[torus]
    g, w = instance(inst)
    f = data.draw(st.lists(st.integers(0, g.h - 1), min_size=t.n, max_size=t.n))
    hit, at = _ideal_hits(t, instance_structure(g, w), (f,))
    assert helper_hits(hit[0], at[0]) == hits_from_oracle(t, g, w, f)
    got = classify(t, g, w, f, defect_cap=0.6)
    assert label_tuple(got) == oracle_label(t, g, w, f, 0.6, 0.2)


BLOCK_TORI = ["Q2", "Q3", "Z4^2", "Z6^2", "Z4^3"]
# (defect_cap, balance_tol); caps of 1/2 and more let two equal largest
# components both pass
LABEL_SETTINGS = ((0.1, 0.2), (0.4, 0.05), (0.5, 0.2), (0.6, 0.5), (0.9, 0.2))


def patched_coloring(t, cut, first, second, picks):
    """Vertices below `cut` colored from the classes of pair `first`, the
    rest from `second`: each vertex takes the class member its pick names."""
    f = []
    for v, pick in enumerate(picks):
        pair = first if v < cut else second
        members = mask_members(pair.b if t.parity_table[v] else pair.a)
        f.append(members[pick % len(members)])
    return f


@st.composite
def block_colorings(draw, t, g, s):
    """One coloring: two pure patches with a few recolored vertices, any
    coloring at all, or one color everywhere."""
    kind = draw(st.sampled_from(["patches", "any", "constant"]))
    if kind == "constant":
        return (draw(st.integers(0, g.h - 1)),) * t.n
    picks = draw(st.lists(st.integers(0, 15), min_size=t.n, max_size=t.n))
    if kind == "any":
        return tuple(k % g.h for k in picks)
    pairs = st.sampled_from(s.pairs)
    f = patched_coloring(t, draw(st.integers(0, t.n)), draw(pairs), draw(pairs), picks)
    recolor = st.tuples(st.integers(0, t.n - 1), st.integers(0, g.h - 1))
    for v, k in draw(st.lists(recolor, max_size=3)):
        f[v] = k
    return tuple(f)


def side_counts(t, g, f):
    return [[sum(f[v] == k for v in side) for k in range(g.h)] for side in t.side_table]


@given(
    torus=st.sampled_from(BLOCK_TORI),
    inst=st.sampled_from(sorted(INSTANCES)),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_block_labels_match_the_oracle_state_by_state(torus, inst, data):
    t = TORI[torus]
    g, w = instance(inst)
    block = data.draw(
        st.lists(block_colorings(t, g, instance_structure(g, w)), min_size=1, max_size=8)
    )
    packed = np.array(block, dtype=np.uint8)
    for cap, tol in LABEL_SETTINGS:
        want = [oracle_label(t, g, w, f, cap, tol) for f in block]
        for states in (block, packed):
            labels, counts = label_block(
                t, g, w, states, defect_cap=cap, balance_tol=tol
            )
            assert [label_tuple(label) for label in labels] == want
            assert counts.tolist() == [side_counts(t, g, f) for f in block]


def tied_coloring(t, g, w):
    """A coloring, found by a seeded search over two-patch colorings, whose
    ideal subgraph has two equal largest components showing different
    pairs; and their size."""
    s = instance_structure(g, w)
    rng = random.Random(0)
    for _ in range(5_000):
        first, second = rng.sample(s.pairs, 2)
        picks = [rng.randrange(16) for _ in range(t.n)]
        f = patched_coloring(t, rng.randrange(1, t.n), first, second, picks)
        ideal = ideal_edge_map(t, g, w, f)
        size, _, comp = giant_component(t, [e in ideal for e in t.edge_table])
        tops = {c for c in comp if comp.count(c) == size}
        shown = {frozenset(p for e, p in ideal.items() if comp[e[0]] == c) for c in tops}
        if len(tops) > 1 and len(shown) > 1:
            return f, size
    raise AssertionError("no tied coloring found")


@pytest.mark.parametrize("torus", ["Q3", "Z4^2", "Z6^2", "Z4^3"])
def test_a_mixed_block_with_a_tie_matches_the_oracle(torus):
    t = TORI[torus]
    g, w = instance("ind")
    tied, size = tied_coloring(t, g, w)
    # the tied components pass the cap, which is then at least 1/2
    tie_cap = 1 - (size - 0.5) / t.n
    assert tie_cap >= 0.5
    # ind's colors are 0 = in, 1 = out. Even vertices in or out by the
    # parity of their first coordinate, odd ones out: each odd vertex sees
    # both colors, each even one sees out, so every edge shows ({0, 1}, {1}).
    pure = tuple(
        (v // (t.n // t.m)) % 2 if t.parity_table[v] == 0 else 1 for v in range(t.n)
    )
    nothing = (1,) * t.n  # every palette is {out}: no edge is ideal
    block = [pure, tied, nothing, pure]
    labels, _ = label_block(t, g, w, block)
    assert [label.kind for label in labels] == ["pure", "exceptional", "exceptional", "pure"]
    assert labels[0].ideal_fraction == 1
    assert labels[1].ideal_fraction > 0 and labels[2].ideal_fraction == 0
    for cap, tol in (*LABEL_SETTINGS, (tie_cap, 0.2)):
        labels, _ = label_block(t, g, w, block, defect_cap=cap, balance_tol=tol)
        assert [label_tuple(label) for label in labels] == [
            oracle_label(t, g, w, f, cap, tol) for f in block
        ]
    labels, _ = label_block(t, g, w, block, defect_cap=tie_cap)
    assert labels[1].kind == "pure"


@pytest.mark.parametrize("torus", ["Q2", "Q3"])
@pytest.mark.parametrize("spec, weights", [("k3", "1,2,3"), ("wr", "1,2,1")])
def test_exact_not_ideal_matches_the_per_coloring_sum(torus, spec, weights):
    t = TORI[torus]
    g, w = preset(spec), WeightSet.parse(weights)
    edge = t.edge_table[-1]  # not the default edge from the origin
    assert 0 not in edge
    bad = sum(
        coloring_weight(t, g, w, f)
        for f in enumerate_colorings(t, g)
        if edge not in per_edge_ideal(t, g, w, f)
    )
    want = Fraction(bad) / transfer_matrix_partition_function(t, g, w).z
    assert 0 < want < 1
    assert exact_not_ideal_probability(t, g, w, edge) == want
    assert exact_not_ideal_probability(t, g, w, edge[::-1]) == want


def block_rows(t):
    return max(1, sampler._BLOCK_ENTRIES // (t.n * t.degree))


@pytest.mark.parametrize("torus", ["Q2", "Z4^3"])
@pytest.mark.parametrize("extra", ["one sample", "one block", "one block and one"])
@pytest.mark.parametrize("pure_start", [True, False])
def test_estimate_matches_per_sample_values(torus, extra, pure_start):
    # hard-core at fugacity 1: about a third of the edges are not ideal,
    # so the not-ideal share changes between samples
    t = TORI[torus]
    g, w = instance("ind")
    samples = {"one sample": 1, "one block": block_rows(t),
               "one block and one": block_rows(t) + 1}[extra]
    cfg = ChainConfig(steps=samples * 20 + 5, burn_in=5, seed=11, thin=20)
    initial = "pure" if pure_start else "uniform-greedy"
    xs = [
        (t.num_edges - len(per_edge_ideal(t, g, w, f))) / t.num_edges
        for f in run_chain(t, g, w, cfg, initial)
    ]
    assert len(xs) == samples
    assert samples == 1 or len(set(xs)) > 1
    got = epsilon_estimate(t, g, w, cfg, initial=initial)
    assert got == {
        "p_not_ideal": sum(xs) / len(xs),
        "stderr": _batch_stderr(xs),
        "n_samples": samples,
    }


def test_block_rows_follow_the_torus_size():
    assert block_rows(TORI["Q2"]) > 1000
    assert 1 <= block_rows(TorusGraph(8, 4)) <= 2


@pytest.mark.parametrize(
    "steps, burn_in, thin", [(10, 0, 100), (50, 45, 10), (1, 0, 2)]
)
def test_estimate_refuses_a_chain_without_samples(steps, burn_in, thin):
    cfg = ChainConfig(steps=steps, burn_in=burn_in, thin=thin)
    g, w = instance("ind")
    with pytest.raises(ValueError, match="steps.*burn_in.*thin"):
        epsilon_estimate(TORI["Q2"], g, w, cfg)


def test_estimate_refuses_before_the_chain_runs():
    # An invalid explicit start would raise once the chain starts.
    g, w = instance("k3")
    bad = (0,) * TORI["Q2"].n
    with pytest.raises(InvalidColoring):
        epsilon_estimate(TORI["Q2"], g, w, ChainConfig(steps=4), initial=bad)
    with pytest.raises(ValueError, match="no sample"):
        epsilon_estimate(TORI["Q2"], g, w, ChainConfig(steps=4, thin=5), initial=bad)


def clamped_draw(colors, weights, u):
    """The draw rule before the sentinel: a search for u * total among the
    true cumulative weights, clamped to the last color."""
    acc = 0.0
    cum = []
    for x in weights:
        acc += x
        cum.append(acc)
    return colors[min(bisect_right(cum, u * cum[-1]), len(colors) - 1)]


@given(
    weights=st.lists(
        st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
        min_size=1, max_size=6,
    ),
    mask=st.integers(1, 63),
    u=st.one_of(
        st.floats(0, 1, exclude_max=True),
        st.just(math.nextafter(1.0, 0.0)),
        st.just(0.0),
    ),
)
@settings(max_examples=200, deadline=None)
def test_sentinel_draw_matches_the_clamped_search(weights, mask, u):
    w = WeightSet(tuple(weights))
    mask &= (1 << len(weights)) - 1
    if not mask:
        return
    colors, cum, total = w.draw_tables[mask]
    assert colors == mask_members(mask)
    assert cum[-1] == math.inf and len(cum) == len(colors)
    floats = [float(w[k]) for k in colors]
    assert total == sum(floats[:-1], 0.0) + floats[-1]
    assert _draw((colors, cum, total), u) == clamped_draw(colors, floats, u)


class TestGreedyRestarts:
    def test_pure_start_has_none(self):
        g, w = instance("wr")
        stats = ChainStats(restarts=7)
        list(run_chain(TORI["Z4^2"], g, w, ChainConfig(steps=5), "pure", stats=stats))
        assert stats.start == "pure" and stats.restarts == 0

    def test_fallback_counts_every_restart(self):
        g, w = instance("k3")
        stats = ChainStats()
        list(run_chain(TorusGraph(8, 3), g, w, ChainConfig(steps=1), stats=stats))
        assert stats.start == "pure-fallback"
        assert stats.restarts == sampler._GREEDY_RESTARTS == 100

    def test_greedy_success_counts_dead_ends_before_it(self):
        g, w = instance("k3")
        seen = set()
        for seed in range(20):
            stats = ChainStats()
            list(run_chain(TORI["Z4^2"], g, w, ChainConfig(steps=1, seed=seed), stats=stats))
            assert stats.start == "greedy"
            assert 0 <= stats.restarts < 100
            seen.add(stats.restarts)
        assert len(seen) > 1
