"""Chain correctness (exact detailed balance, stationarity, conditioning)
and the ideal-edge / phase-label machinery on hand-checked instances."""

import math
from collections import Counter
from fractions import Fraction
from itertools import islice, product, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushom.analysis import exact_occupation_vector
from torushom.constraint_graph import (
    ConstraintGraph,
    MaximalPair,
    WeightSet,
    apply_perm_to_mask,
    instance_structure,
    mask_from,
    mask_members,
    preset,
    subset_weight,
)
from torushom.errors import BudgetExceeded, InvalidColoring, NoValidInitial
from torushom.exact import transfer_matrix_partition_function
from torushom import sampler
from torushom.sampler import (
    ChainConfig,
    ChainStats,
    chain_rng,
    epsilon_estimate,
    run_chain,
    _pure_initial,
    _resolve_initial,
)
from torushom.torus import TorusGraph
from references import (
    classify,
    coloring_weight,
    edge_index,
    enumerate_colorings,
    exact_not_ideal_probability,
    ideal_edge_map,
    is_valid_coloring,
    reference_chain,
)


IND = preset("ind")
K3 = preset("k3")
WR = preset("wr")
LOOP1 = ConstraintGraph(1, (1,), ("o",))
Q2 = TorusGraph(2, 2)
Q3 = TorusGraph(2, 3)


def empirical_law(t, g, w, cfg, **kw):
    counts = Counter()
    n = 0
    for f in run_chain(t, g, w, cfg, **kw):
        counts[f] += 1
        n += 1
    return counts, n


def tv_to_exact(t, g, w, counts, n, pins=None):
    z = transfer_matrix_partition_function(t, g, w, pins=pins).z
    tv = Fraction(0)
    for f in enumerate_colorings(t, g, pins=pins):
        p = coloring_weight(t, g, w, f) / z
        tv += abs(p - Fraction(counts.get(f, 0), n))
    # unseen invalid states contribute nothing: counts only hold valid f
    return float(tv) / 2


class TestChainConfig:
    def test_defaults(self):
        cfg = ChainConfig(steps=10)
        assert (cfg.burn_in, cfg.seed, cfg.pinned, cfg.thin) == (0, 0, None, 1)

    @pytest.mark.parametrize(
        "kw",
        [
            {"steps": 0},
            {"steps": 5, "burn_in": 5},
            {"steps": 5, "burn_in": -1},
            {"steps": 5, "thin": 0},
            {"steps": 5, "seed": -1},
            {"steps": 5, "seed": 2**64},
        ],
    )
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises(ValueError):
            ChainConfig(**kw)

    def test_sample_count_matches_schedule(self):
        w = WeightSet.ones(2)
        for steps, burn, thin in [(10, 0, 1), (10, 3, 2), (7, 6, 5)]:
            cfg = ChainConfig(steps=steps, burn_in=burn, seed=3, thin=thin)
            got = sum(1 for _ in run_chain(Q2, IND, w, cfg))
            assert got == (steps - burn) // thin


class TestDeterminism:
    def test_same_config_same_stream(self):
        w = WeightSet.ones(3)
        cfg = ChainConfig(steps=200, seed=17)
        a = list(run_chain(Q2, K3, w, cfg))
        b = list(run_chain(Q2, K3, w, cfg))
        assert a == b

    def test_seed_changes_stream(self):
        w = WeightSet.ones(3)
        a = list(run_chain(Q2, K3, w, ChainConfig(steps=200, seed=1)))
        b = list(run_chain(Q2, K3, w, ChainConfig(steps=200, seed=2)))
        assert a != b


class _FixedRng:
    """Scripted vertex picks and uniform draws for single-step tests."""

    def __init__(self, vertex, u=0.0):
        self.vertex = vertex
        self.u = u

    def integers(self, lo, hi, size):
        assert lo <= self.vertex < hi
        return np.full(size, self.vertex)

    def random(self, size):
        return np.full(size, self.u)


@pytest.fixture
def one_step(monkeypatch):
    """One run_chain move from an explicit state, with the vertex pick and
    the uniform draw scripted."""

    def step(t, g, w, state, vertex, u=0.0):
        monkeypatch.setattr(sampler, "chain_rng", lambda *_: _FixedRng(vertex, u))
        (out,) = run_chain(t, g, w, ChainConfig(steps=1), initial=state)
        return out

    return step


class TestGlauberStep:
    def test_forced_move_keeps_state_valid(self, one_step):
        # vertex 1 sees an occupied neighbor, so it is forced unoccupied
        w = WeightSet.ones(2)
        state = (0, 1, 1, 1)
        assert one_step(Q2, IND, w, state, 1) == state

    def test_free_vertex_follows_the_uniform_draw(self, one_step):
        w = WeightSet.ones(2)
        state = (1, 1, 1, 1)
        assert one_step(Q2, IND, w, state, 0, u=0.1) == (0, 1, 1, 1)
        assert one_step(Q2, IND, w, state, 0, u=0.9) == (1, 1, 1, 1)

    def test_weighted_draw_respects_thresholds(self, one_step):
        # weights (3, 1): the occupied color owns the first 3/4 of the draw
        w = WeightSet.parse("3,1")
        state = (1, 1, 1, 1)
        assert one_step(Q2, IND, w, state, 0, u=0.74) == (0, 1, 1, 1)
        assert one_step(Q2, IND, w, state, 0, u=0.76) == state

    def test_pinned_vertex_never_selected(self):
        w = WeightSet.ones(3)
        cfg = ChainConfig(steps=3000, seed=9, pinned=(2, 1))
        for f in run_chain(Q2, K3, w, cfg):
            assert f[2] == 1

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_steps_preserve_validity(self, seed):
        w = WeightSet.ones(3)
        start = tuple(v % 2 for v in range(Q3.n))
        cfg = ChainConfig(steps=40, seed=seed)
        for state in run_chain(Q3, WR, w, cfg, initial=start):
            assert is_valid_coloring(Q3, WR, state)


class TestDetailedBalance:
    """The single-site kernel satisfies detailed balance exactly."""

    @staticmethod
    def kernel(t, g, w, f):
        out = {}
        for v in range(t.n):
            cand = g.full_mask
            for u in t.neighbors(v):
                cand &= g.adj[f[u]]
            s = subset_weight(w, cand)
            for c in mask_members(cand):
                nxt = f[:v] + (c,) + f[v + 1 :]
                out[nxt] = out.get(nxt, Fraction(0)) + Fraction(1, t.n) * w[c] / s
        return out

    @pytest.mark.parametrize("wtext", ["1,1", "3/2,1", "1/3,2"])
    def test_exact_reversibility(self, wtext):
        w = WeightSet.parse(wtext)
        z = transfer_matrix_partition_function(Q2, IND, w).z
        states = list(enumerate_colorings(Q2, IND))
        prob = {f: coloring_weight(Q2, IND, w, f) / z for f in states}
        kernels = {f: self.kernel(Q2, IND, w, f) for f in states}
        for f in states:
            assert sum(kernels[f].values()) == 1
            for nxt, p_move in kernels[f].items():
                assert prob[f] * p_move == prob[nxt] * kernels[nxt][f]

    def test_kernel_support_matches_implementation(self, one_step):
        # every kernel transition is reachable by some scripted draw
        w = WeightSet.parse("3/2,1")
        f = (1, 1, 1, 1)
        reachable = set()
        for v in range(Q2.n):
            for u in (0.01, 0.35, 0.65, 0.99):
                reachable.add(one_step(Q2, IND, w, f, v, u))
        assert reachable == set(self.kernel(Q2, IND, w, f))


class TestStationarity:
    def test_uniform_hard_core_law(self):
        w = WeightSet.ones(2)
        cfg = ChainConfig(steps=200_000, burn_in=5_000, seed=42, thin=2)
        counts, n = empirical_law(Q2, IND, w, cfg)
        assert tv_to_exact(Q2, IND, w, counts, n) < 0.02

    def test_weighted_hard_core_law(self):
        w = WeightSet.parse("3/2,1")
        cfg = ChainConfig(steps=200_000, burn_in=5_000, seed=43, thin=2)
        counts, n = empirical_law(Q2, IND, w, cfg)
        assert tv_to_exact(Q2, IND, w, counts, n) < 0.02

    def test_pinned_chain_targets_conditional_law(self):
        w = WeightSet.ones(3)
        cfg = ChainConfig(steps=200_000, burn_in=5_000, seed=11, pinned=(0, 0), thin=4)
        counts, n = empirical_law(Q2, K3, w, cfg)
        assert tv_to_exact(Q2, K3, w, counts, n, pins={0: 1}) < 0.02

    def test_pinned_marginal_matches_exact(self):
        w = WeightSet.ones(3)
        cfg = ChainConfig(steps=150_000, burn_in=5_000, seed=11, pinned=(0, 0), thin=4)
        hits = Counter()
        n = 0
        for f in run_chain(Q2, K3, w, cfg):
            hits[f[3]] += 1
            n += 1
        law = exact_occupation_vector(Q2, K3, w, 3, (0, 0))
        tv = sum(abs(hits[k] / n - float(law[k])) for k in range(3)) / 2
        assert tv < 0.02


class TestInitializers:
    def test_loop_graph_chain_is_constant(self):
        w = WeightSet.ones(1)
        stats = ChainStats()
        cfg = ChainConfig(steps=50, seed=1)
        samples = list(run_chain(Q2, LOOP1, w, cfg, stats=stats))
        assert samples == [(0, 0, 0, 0)] * 50
        assert stats.steps == 50
        assert stats.forced_moves == 50
        assert stats.color_changes == 0

    def test_greedy_failure_raises(self):
        free = ConstraintGraph(1, (0,), ("x",))
        with pytest.raises(NoValidInitial):
            list(run_chain(Q2, free, WeightSet.ones(1), ChainConfig(steps=5)))

    def test_greedy_start_is_recorded(self):
        stats = ChainStats()
        list(run_chain(Q2, K3, WeightSet.ones(3), ChainConfig(steps=5), stats=stats))
        assert stats.start == "greedy"

    def test_greedy_gives_up_then_pure_start(self):
        # Greedy 3-coloring of Z_8^3 in random order dead-ends every time.
        t = TorusGraph(8, 3)
        stats = ChainStats()
        (f,) = run_chain(t, K3, WeightSet.ones(3), ChainConfig(steps=1), stats=stats)
        assert stats.start == "pure-fallback"
        assert is_valid_coloring(t, K3, f)

    @pytest.mark.parametrize("y", [0, 1])
    def test_pure_fallback_admits_the_pin(self, y):
        t = TorusGraph(8, 3)
        stats = ChainStats()
        cfg = ChainConfig(steps=1, pinned=(y, 2))
        (f,) = run_chain(t, K3, WeightSet.ones(3), cfg, stats=stats)
        assert stats.start == "pure-fallback"
        assert f[y] == 2 and is_valid_coloring(t, K3, f)
        # The start itself is pure for a pair whose side holds the pin.
        start = _pure_initial(t, K3, WeightSet.ones(3), chain_rng(0), (y, 2))
        even, odd = t.side_table
        assert start[y] == 2
        assert any(
            all((p.a >> start[v]) & 1 for v in even)
            and all((p.b >> start[v]) & 1 for v in odd)
            for p in instance_structure(K3, WeightSet.ones(3)).pairs
        )

    def test_fallback_needs_a_pair_admitting_the_pin(self):
        # K2 plus a looped color of weight 1/2 that lies in no maximal pair:
        # pinning it forces the all-2 coloring, which greedy cannot find and
        # no pure start contains.
        g = ConstraintGraph(3, (0b010, 0b001, 0b100))
        w = WeightSet.parse("1,1,1/2")
        cfg = ChainConfig(steps=1, pinned=(0, 2))
        with pytest.raises(NoValidInitial):
            list(run_chain(TorusGraph(8, 2), g, w, cfg))

    def test_pure_initial_runs(self):
        w = WeightSet.parse("1,2,1")
        cfg = ChainConfig(steps=5, seed=2)
        samples = list(run_chain(Q3, WR, w, cfg, initial="pure"))
        assert len(samples) == 5

    def test_pure_initial_uses_the_first_pair(self):
        w = WeightSet.ones(2)
        pair = MaximalPair(mask_from((1,)), mask_from((0, 1)))
        assert instance_structure(IND, w).pairs[0] == pair
        start = _pure_initial(Q2, IND, w, chain_rng(0), None)
        even, odd = Q2.side_table
        assert all((pair.a >> start[v]) & 1 for v in even)
        assert all((pair.b >> start[v]) & 1 for v in odd)
        assert is_valid_coloring(Q2, IND, start)
        cfg = ChainConfig(steps=1, seed=0)
        (f,) = run_chain(Q2, IND, w, cfg, initial=start)
        assert is_valid_coloring(Q2, IND, f)

    def test_unknown_initializer_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown initializer 'magic'"):
            run_chain(Q2, K3, WeightSet.ones(3), ChainConfig(steps=1), "magic")

    def test_pure_pair_tuple_is_not_an_initializer(self):
        # A (tag, pair) tuple is read as an explicit coloring, and refused.
        pair = instance_structure(IND, WeightSet.ones(2)).pairs[0]
        with pytest.raises(InvalidColoring):
            run_chain(Q2, IND, WeightSet.ones(2), ChainConfig(steps=1), ("pure", pair))

    def test_explicit_invalid_initial_rejected(self):
        with pytest.raises(InvalidColoring):
            list(
                run_chain(
                    Q2, IND, WeightSet.ones(2), ChainConfig(steps=1), (0, 0, 0, 0)
                )
            )

    def test_explicit_invalid_initial_names_its_fault(self):
        # the refusal carries the reason the coloring check found
        msg = r"is not valid: edge \(0,1\) maps to non-adjacent colors \(0,0\)$"
        with pytest.raises(InvalidColoring, match=msg):
            list(run_chain(Q2, K3, WeightSet.ones(3), ChainConfig(steps=1), (0, 0, 1, 2)))

    def test_torus_past_the_cell_cap_refused_before_any_table(self, monkeypatch):
        # Z_4^2 holds 16 * 4 neighbour cells: accepted at a cap of 64,
        # refused at 63 before a start or a torus table is formed
        t = TorusGraph(4, 2)
        monkeypatch.setattr(sampler, "_CHAIN_CELLS", 63)
        with pytest.raises(BudgetExceeded, match=r"needs 16\*4 > 63 neighbour cells"):
            run_chain(t, K3, WeightSet.ones(3), ChainConfig(steps=1), "magic")
        assert not {"neighbor_table", "parity_table"} & set(vars(t))
        monkeypatch.setattr(sampler, "_CHAIN_CELLS", 64)
        assert len(list(run_chain(t, K3, WeightSet.ones(3), ChainConfig(steps=3)))) == 3

    def test_explicit_initial_contradicting_pin_rejected(self):
        cfg = ChainConfig(steps=2, pinned=(0, 1))
        with pytest.raises(InvalidColoring):
            list(run_chain(Q2, IND, WeightSet.ones(2), cfg, (0, 1, 1, 1)))

    def test_pin_incompatible_with_pure_state(self):
        g = preset("ind+k3")
        w = WeightSet.ones(5)
        # The first pair, ({out}, {in, out}), cannot hold the clique color 2
        # on the odd side; the first pair that can is ({3}, {2, 4}), so the
        # pure start comes from it.
        pin = (1, 2)
        state, start, restarts = _resolve_initial(Q2, g, w, "pure", chain_rng(0), pin)
        assert start == "pure" and restarts == 0 and state[1] == 2
        even, odd = Q2.side_table
        assert all(state[v] == 3 for v in even)
        assert all(state[v] in (2, 4) for v in odd)
        cfg = ChainConfig(steps=2, seed=0, pinned=pin)
        for f in run_chain(Q2, g, w, cfg, initial="pure"):
            assert f[1] == 2 and is_valid_coloring(Q2, g, f)

    def test_pure_start_keeps_the_first_pair_when_it_admits_the_pin(self):
        # ({out}, {in, out}) holds color 0 on the odd side, so the pin does
        # not change which pair the start uses.
        w = WeightSet.ones(2)
        first = instance_structure(IND, w).pairs[0]
        pinned = _pure_initial(Q2, IND, w, chain_rng(3), (1, 0))
        even, odd = Q2.side_table
        assert pinned[1] == 0
        assert all((first.a >> pinned[v]) & 1 for v in even)
        assert all((first.b >> pinned[v]) & 1 for v in odd)

    def test_pure_start_with_no_admitting_pair_raises(self):
        # With out weighted 2, only the two hard-core pairs are maximal, and
        # neither class holds a clique color.
        g = preset("ind+k3")
        w = WeightSet.parse("1,2,1,1,1")
        assert all(p.a | p.b == 0b11 for p in instance_structure(g, w).pairs)
        cfg = ChainConfig(steps=2, seed=0, pinned=(1, 2))
        with pytest.raises(NoValidInitial):
            list(run_chain(Q2, g, w, cfg, initial="pure"))

    def test_pin_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            list(
                run_chain(
                    Q2, IND, WeightSet.ones(2), ChainConfig(steps=2, pinned=(9, 0))
                )
            )

    def test_stats_accumulate(self):
        w = WeightSet.ones(2)
        stats = ChainStats()
        cfg = ChainConfig(steps=500, seed=7)
        list(run_chain(Q2, IND, w, cfg, stats=stats))
        assert stats.steps == 500
        assert 0 <= stats.forced_moves <= 500
        assert 0 <= stats.color_changes <= 500 - stats.forced_moves + 500


class TestIdealEdges:
    def test_hand_example_single_occupied_vertex(self):
        w = WeightSet.ones(2)
        f = (0, 1, 1, 1)
        pair = ideal_edge_map(Q2, IND, w, f)[(0, 1)]
        assert pair == MaximalPair(mask_from((0, 1)), mask_from((1,)))

    def test_orientation_is_automatic(self):
        # either orientation names one edge_table entry, and the map keys
        # that edge (even endpoint, odd endpoint)
        w = WeightSet.ones(2)
        i = edge_index(Q2, (1, 0))
        assert i == edge_index(Q2, (0, 1))
        assert Q2.edge_table[i] == (0, 1)
        assert (0, 1) in ideal_edge_map(Q2, IND, w, (0, 1, 1, 1))

    def test_all_unoccupied_has_no_ideal_edges(self):
        w = WeightSet.ones(2)
        f = (1, 1, 1, 1)
        assert ideal_edge_map(Q2, IND, w, f) == {}
        assert classify(Q2, IND, w, f).ideal_fraction == 0

    def test_non_edge_rejected(self):
        # out-of-range endpoints fail the same way as in-range non-edges
        w = WeightSet.ones(2)
        for e in [(0, 3), (1, 2), (0, 0), (0, 99), (99, 0), (-1, 0), (0, -1)]:
            with pytest.raises(ValueError, match="is not a torus edge"):
                exact_not_ideal_probability(Q2, IND, w, e)

    def test_pure_coloring_is_ideal_everywhere(self):
        # even side color 0; the odd side must show both remaining colors
        w = WeightSet.ones(3)
        f = (0, 1, 2, 0)
        want = MaximalPair(mask_from((0,)), mask_from((1, 2)))
        emap = ideal_edge_map(Q2, K3, w, f)
        assert set(emap.values()) == {want}
        assert classify(Q2, K3, w, f).ideal_fraction == 1
        for u, v in emap:
            assert Q2.parity(u) == 0 and Q2.parity(v) == 1

    def test_exact_not_ideal_small_tori(self):
        w = WeightSet.ones(2)
        assert exact_not_ideal_probability(Q2, IND, w) == Fraction(3, 7)
        assert exact_not_ideal_probability(Q3, IND, w) == Fraction(9, 35)

    def test_exact_not_ideal_loop_graph_is_zero(self):
        assert exact_not_ideal_probability(Q2, LOOP1, WeightSet.ones(1)) == 0

    def test_exact_not_ideal_accepts_reversed_edge(self):
        w = WeightSet.ones(2)
        e = (0, Q2.shift(0, Q2.d, 1))
        assert exact_not_ideal_probability(
            Q2, IND, w, (e[1], e[0])
        ) == exact_not_ideal_probability(Q2, IND, w, e)


class TestEpsilonEstimate:
    def test_all_edges_estimate_near_exact(self):
        w = WeightSet.ones(2)
        cfg = ChainConfig(steps=60_000, burn_in=5_000, seed=5, thin=10)
        out = epsilon_estimate(Q2, IND, w, cfg)
        exact = float(Fraction(3, 7))
        assert set(out) == {"p_not_ideal", "stderr", "n_samples"}
        assert out["n_samples"] == 5_500
        assert abs(out["p_not_ideal"] - exact) < max(4 * out["stderr"], 0.03)

    def test_sample_count_follows_burn_in_and_thin(self):
        w = WeightSet.ones(2)
        cfg = ChainConfig(steps=4_000, burn_in=1_000, seed=6, thin=3)
        out = epsilon_estimate(Q2, IND, w, cfg)
        assert out["n_samples"] == 1_000
        assert 0.0 <= out["p_not_ideal"] <= 1.0


class TestClassify:
    def test_pure_proper_coloring(self):
        w = WeightSet.ones(3)
        label = classify(Q2, K3, w, (0, 1, 2, 0))
        assert label.kind == "pure"
        assert label.pair == MaximalPair(mask_from((0,)), mask_from((1, 2)))
        assert label.defect_e == frozenset() and label.defect_o == frozenset()
        assert label.ideal_fraction == 1
        assert label.balanced is True
        assert all(dev == 0.0 for _, dev in label.deviations)

    def test_mixed_class_pure_state(self):
        # even side one occupied one empty: every odd palette is the full class
        w = WeightSet.ones(2)
        label = classify(Q2, IND, w, (0, 1, 1, 1))
        assert label.kind == "pure"
        assert label.pair == MaximalPair(mask_from((0, 1)), mask_from((1,)))
        assert label.balanced is True

    def test_all_unoccupied_is_exceptional(self):
        w = WeightSet.ones(2)
        label = classify(Q2, IND, w, (1, 1, 1, 1))
        assert label.kind == "exceptional"
        assert label.pair is None
        assert label.ideal_fraction == 0
        assert label.balanced is None

    def test_within_class_recoloring_can_break_palettes(self):
        # an in-class recolor is never a defect, but palette equality is
        # strict: vertex 3 now sees color 2 three times, losing color 1,
        # so its edges stop being ideal and the strict label degrades
        w = WeightSet.ones(3)
        f = [0] * Q3.n
        f[1], f[2], f[4], f[7] = 1, 2, 1, 2
        want = MaximalPair(mask_from((0,)), mask_from((1, 2)))
        full = classify(Q3, K3, w, f)
        assert full.pair == want and full.ideal_fraction == 1
        f[1] = 2
        assert classify(Q3, K3, w, f).kind == "exceptional"
        label = classify(Q3, K3, w, f, defect_cap=0.15)
        assert label.kind == "pure"
        assert label.pair == want
        assert label.defect_e == frozenset() and label.defect_o == frozenset()
        assert label.ideal_fraction == Fraction(3, 4)

    def test_single_occupied_defect_vertex(self):
        # one occupied odd vertex: its even neighborhood must empty out.
        # The defect's own star stays ideal for the swapped pair, but the
        # larger component carries the main pair and reports the defect.
        t = TorusGraph(2, 4)
        w = WeightSet.ones(2)
        v0 = 1
        f = [1] * t.n
        f[v0] = 0
        for v in range(t.n):
            if t.parity(v) == 0 and v not in t.neighbors(v0):
                f[v] = 0
        assert is_valid_coloring(t, IND, f)
        emap = ideal_edge_map(t, IND, w, f)
        star = {e for e, p in emap.items() if p.a == mask_from((1,))}
        assert len(emap) == 16 and len(star) == 4
        assert all(v == v0 for _, v in star)
        assert classify(t, IND, w, f).kind == "exceptional"
        loose = classify(t, IND, w, f, defect_cap=0.4)
        assert loose.kind == "pure"
        assert loose.pair == MaximalPair(mask_from((0, 1)), mask_from((1,)))
        assert loose.defect_e == frozenset()
        assert loose.defect_o == frozenset({v0})
        assert loose.ideal_fraction == Fraction(1, 2)
        assert loose.balanced is True

    def test_parity_swap_flips_the_pair(self):
        w = WeightSet.ones(3)
        f = (0, 1, 2, 0)
        swapped = tuple(f[Q2.shift(v, Q2.d, 1)] for v in range(Q2.n))
        label = classify(Q2, K3, w, swapped)
        assert label.kind == "pure"
        assert label.pair == MaximalPair(mask_from((1, 2)), mask_from((0,)))

    def test_color_relabeling_equivariance(self):
        w = WeightSet.ones(3)
        f = (0, 1, 2, 0)
        perm = (1, 2, 0)  # color rotation of the triangle
        base = classify(Q2, K3, w, f)
        rot = classify(Q2, K3, w, tuple(perm[c] for c in f))
        assert rot.kind == "pure"
        assert rot.pair == MaximalPair(
            apply_perm_to_mask(perm, base.pair.a),
            apply_perm_to_mask(perm, base.pair.b),
        )

    def test_imbalance_is_relative_to_class_weights(self):
        # last-coordinate coloring shows both classes at every vertex;
        # its 50/50 side counts violate the 1:2 weighted split
        w = WeightSet.parse("1,2,1")
        f = tuple(v % 2 for v in range(Q3.n))
        label = classify(Q3, WR, w, f)
        assert label.kind == "pure"
        assert label.pair == MaximalPair(mask_from((0, 1)), mask_from((0, 1)))
        assert label.balanced is False
        assert classify(Q3, WR, w, f, balance_tol=0.6).balanced is True

    def test_defect_bound_holds_along_a_chain(self):
        w = WeightSet.ones(2)
        cfg = ChainConfig(steps=8_000, burn_in=2_000, seed=8, thin=3)
        cap = 0.1
        seen = set()
        for f in run_chain(Q3, IND, w, cfg):
            label = classify(Q3, IND, w, f, defect_cap=cap)
            seen.add(label.kind)
            if label.kind == "pure":
                assert len(label.defect_e) + len(label.defect_o) <= cap * Q3.n
        assert seen <= {"pure", "exceptional"} and seen


def union_find_pair(t, g, w, f, defect_cap):
    """The pair `classify` labels f with, or None for exceptional, from a
    union-find over the ideal edges: the component search `classify` used
    before it called `giant_component`, kept as an oracle.
    Among equal largest components it takes the lowest root, so it may
    disagree with `classify` only when defect_cap >= 1/2."""
    edge_pairs = ideal_edge_map(t, g, w, f)
    if not edge_pairs:
        return None
    comp = list(range(t.n))

    def find(a):
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    for u, v in edge_pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            comp[ru] = rv
    sizes = Counter(find(z) for z in {z for e in edge_pairs for z in e})
    root = max(sizes, key=lambda r: (sizes[r], -r))
    if sizes[root] < (1 - defect_cap) * t.n:
        return None
    (pair,) = {p for e, p in edge_pairs.items() if find(e[0]) == root}
    return pair


class TestClassifyAgainstUnionFind:
    @pytest.mark.parametrize("spec", ["wr", "ind", "k3"])
    @pytest.mark.parametrize(
        "t", [TorusGraph(4, 2), Q3, TorusGraph(8, 3)], ids=["Z4^2", "Q3", "Z8^3"]
    )
    def test_labels_agree_on_chain_states(self, spec, t):
        g = preset(spec)
        w = WeightSet.ones(g.h)
        kinds = Counter()
        for initial in ("uniform-greedy", "pure"):
            cfg = ChainConfig(steps=3_000, burn_in=200, seed=5, thin=200)
            for f in run_chain(t, g, w, cfg, initial):
                for cap in (0.1, 0.4):
                    label = classify(t, g, w, f, defect_cap=cap)
                    want = union_find_pair(t, g, w, f, cap)
                    assert label.pair == want
                    assert label.kind == ("exceptional" if want is None else "pure")
                    kinds[label.kind] += 1
        assert kinds["pure"] > 0


# The neighbour-code kernel against the per-step palette AND it replaced.
KERNEL_H = [
    ("ind", "1,1"),
    ("k3", "1,1,1"),
    ("wr", "1,1,1"),
    ("wr", "1,2,1"),
    ("k4loop", "1,1,1,1"),
    ("kq:6", "1,1,1,1,1,1"),
]
KERNEL_TORI = [(2, 1), (2, 3), (2, 4), (4, 2), (6, 2), (8, 2), (4, 3), (4, 4)]
# 40,000 steps draw from two full RNG buffers and stop inside the third
KERNEL_STEPS = 40_000
# (burn_in, thin), thin 1 included
KERNEL_SCHEDULES = [(0, 1), (1_000, 7), (5_000, 500), (39_990, 1)]
KERNEL_RUNS = list(
    product(("uniform-greedy", "pure", "explicit"), (False, True), KERNEL_SCHEDULES)
)


def _totals(stats):
    return (
        stats.start,
        stats.restarts,
        stats.steps,
        stats.forced_moves,
        stats.color_changes,
    )


def _kernel_instance(h, wt, m, d):
    t, g, w = TorusGraph(m, d), preset(h), WeightSet.parse(wt)
    # a valid coloring from a short chain: the explicit start, and the
    # source of a pinned color every start admits
    *_, explicit = reference_chain(t, g, w, ChainConfig(steps=500, seed=99))
    return t, g, w, explicit


class TestKernelMatchesReference:
    @pytest.mark.parametrize(
        "case, h, wt, m, d",
        [
            (i, h, wt, m, d)
            for i, ((h, wt), (m, d)) in enumerate(product(KERNEL_H, KERNEL_TORI))
        ],
        ids=[f"{h}[{wt}]-Z{m}^{d}" for (h, wt), (m, d) in product(KERNEL_H, KERNEL_TORI)],
    )
    def test_same_states_and_totals(self, case, h, wt, m, d):
        t, g, w, explicit = _kernel_instance(h, wt, m, d)
        # two runs a case; the 48 cases cover every run kind twice over
        for initial, pinned, (burn_in, thin) in (
            KERNEL_RUNS[(2 * case) % len(KERNEL_RUNS)],
            KERNEL_RUNS[(2 * case + 1) % len(KERNEL_RUNS)],
        ):
            y = t.n - 1
            cfg = ChainConfig(
                steps=KERNEL_STEPS,
                burn_in=burn_in,
                seed=case,
                thin=thin,
                pinned=(y, explicit[y]) if pinned else None,
            )
            start = explicit if initial == "explicit" else initial
            got, want = ChainStats(), ChainStats()
            items = 0
            for a, b in zip_longest(
                run_chain(t, g, w, cfg, start, stats=got),
                reference_chain(t, g, w, cfg, start, stats=want),
            ):
                assert a == b
                items += 1
            assert items == (KERNEL_STEPS - burn_in) // thin
            assert _totals(got) == _totals(want)
            assert got.steps == KERNEL_STEPS

    @pytest.mark.parametrize("k", [1, 2, 37, 5_000])
    def test_close_leaves_the_totals_at_the_last_item(self, k):
        t, g, w = TorusGraph(4, 3), preset("wr"), WeightSet.parse("1,2,1")
        cfg = ChainConfig(steps=KERNEL_STEPS, burn_in=300, seed=4, thin=7)
        got, want = ChainStats(), ChainStats()
        chain = run_chain(t, g, w, cfg, "pure", stats=got)
        ref = reference_chain(t, g, w, cfg, "pure", stats=want)
        assert list(islice(chain, k)) == list(islice(ref, k))
        chain.close()
        assert _totals(got) == _totals(want)
        assert got.steps == 300 + 7 * k

    def test_reused_stats_keep_adding(self):
        t, g, w = TorusGraph(4, 2), preset("ind"), WeightSet.ones(2)
        got, want = ChainStats(), ChainStats()
        for seed, thin in ((1, 3), (2, 1)):
            cfg = ChainConfig(steps=KERNEL_STEPS, seed=seed, thin=thin)
            assert list(run_chain(t, g, w, cfg, stats=got)) == list(
                reference_chain(t, g, w, cfg, stats=want)
            )
            assert _totals(got) == _totals(want)
        assert got.steps == 2 * KERNEL_STEPS
