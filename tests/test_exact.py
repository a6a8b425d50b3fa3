import math
import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torushom.analysis import exact_occupation_vector
from torushom.constraint_graph import (
    ConstraintGraph,
    MaximalPair,
    WeightSet,
    mask_from,
    preset,
)
from torushom.errors import (
    BudgetExceeded,
    InvalidColoring,
    OracleMismatch,
    ZeroConditioningEvent,
)
from torushom.exact import (
    DEFAULT_TRANSFER_BUDGET,
    brute_force_partition_function,
    dual_route_records,
    standard_corpus,
    transfer_matrix_partition_function,
)
from torushom import exact as exact_module
from torushom.sampler import ChainConfig, run_chain
from torushom.torus import TorusGraph
from references import (
    check_global_bounds,
    coloring_weight,
    cycle_count_g,
    enumerate_colorings,
    influence_ratio,
    is_valid_coloring,
    near_pure_one_defect_count,
    pure_coloring_weight,
    state_weights,
)


def ones(g):
    return WeightSet.ones(g.h)


C4 = TorusGraph(2, 2)
Q3 = TorusGraph(2, 3)


@pytest.fixture
def sector_primes(monkeypatch):
    """The primes the sector route takes residues modulo, in order."""
    seen = []
    residue = exact_module._TransferEngine._sector_residue

    def spy(self, sec, counts, p):
        seen.append(p)
        return residue(self, sec, counts, p)

    monkeypatch.setattr(exact_module._TransferEngine, "_sector_residue", spy)
    return seen


class TestColoringWeight:
    def test_all_ones_weight_is_one(self):
        g = preset("k3")
        assert coloring_weight(C4, g, ones(g), (0, 1, 1, 2)) == 1

    def test_hard_core_counts_ins(self):
        g = preset("ind")
        w = WeightSet.parse("5/2,1")
        # two "in" vertices on opposite corners of C_4
        assert coloring_weight(C4, g, w, (0, 1, 1, 0)) == Fraction(25, 4)

    def test_weighted_k3_alternating(self):
        g = preset("k3")
        w = WeightSet.parse("3/2,1,1")
        assert coloring_weight(C4, g, w, (0, 1, 1, 0)) == Fraction(9, 4)

    def test_invalid_edge_raises(self):
        g = preset("ind")
        with pytest.raises(InvalidColoring):
            coloring_weight(C4, g, ones(g), (0, 0, 1, 1))

    def test_wrong_length_raises(self):
        g = preset("k3")
        with pytest.raises(InvalidColoring):
            coloring_weight(C4, g, ones(g), (0, 1, 2))

    def test_out_of_range_color_raises(self):
        g = preset("ind")
        with pytest.raises(InvalidColoring):
            coloring_weight(C4, g, ones(g), (0, 3, 0, 3))

    def test_validity_predicate(self):
        g = preset("ind")
        assert is_valid_coloring(C4, g, (1, 1, 1, 1))
        assert is_valid_coloring(C4, g, (0, 1, 1, 1))
        assert not is_valid_coloring(C4, g, (0, 0, 1, 1))
        assert not is_valid_coloring(C4, g, (1, 1, 1))

    @pytest.mark.parametrize("entry", [0.5, "a", None])
    @pytest.mark.parametrize(
        "call", ["is_valid_coloring", "coloring_weight", "run_chain"]
    )
    def test_non_integer_entry_is_not_a_coloring(self, call, entry):
        # refused as a coloring by the one check, never a TypeError
        g = preset("ind")
        f = (entry, 1, 1, 1)
        if call == "is_valid_coloring":
            assert is_valid_coloring(C4, g, f) is False
            return
        with pytest.raises(InvalidColoring):
            if call == "coloring_weight":
                coloring_weight(C4, g, ones(g), f)
            else:
                run_chain(C4, g, ones(g), ChainConfig(steps=1), f)


class TestBruteForce:
    def test_proper_3_colorings_of_c4(self):
        g = preset("k3")
        assert brute_force_partition_function(C4, g, ones(g)).z == 18

    def test_independent_sets_of_c4(self):
        g = preset("ind")
        assert brute_force_partition_function(C4, g, ones(g)).z == 7

    @pytest.mark.parametrize(
        "lam,expected",
        [(Fraction(3, 2), Fraction(23, 2)), (Fraction(1, 3), Fraction(23, 9)), (2, 17)],
    )
    def test_hard_core_polynomial_on_c4(self, lam, expected):
        # Z = 1 + 4*lam + 2*lam^2 over the seven independent sets
        g = preset("ind")
        w = WeightSet((Fraction(lam), Fraction(1)))
        assert brute_force_partition_function(C4, g, w).z == expected

    def test_single_edge_torus_hard_core(self):
        g = preset("ind")
        t = TorusGraph(2, 1)
        assert brute_force_partition_function(t, g, ones(g)).z == 3

    def test_budget_is_a_precondition(self):
        g = preset("k8")
        with pytest.raises(BudgetExceeded):
            brute_force_partition_function(TorusGraph(4, 2), g, ones(g))

    def test_custom_budget(self):
        # the sweep over C4 in index order holds 3 + 9 + 27 + 27 = 66 entries
        g = preset("k3")
        with pytest.raises(BudgetExceeded, match="frontier steps"):
            brute_force_partition_function(C4, g, ones(g), budget=65)
        assert brute_force_partition_function(C4, g, ones(g), budget=66).z == 18

    def test_budget_charges_every_modular_pass(self):
        # one int64 sweep of ind on Z_4^2 takes 3,486 steps; (10^9 + 1)^16
        # takes 19 primes, so the 0/1 pass, the primes and the spare make 21
        g, t = preset("ind"), TorusGraph(4, 2)
        heavy = WeightSet.parse("1000000000,1")
        for w, passes in ((ones(g), 1), (heavy, 21)):
            with pytest.raises(BudgetExceeded, match=rf"{passes} pass\(es\)"):
                brute_force_partition_function(t, g, w, budget=passes * 3486 - 1)
            brute_force_partition_function(t, g, w, budget=passes * 3486)

    @pytest.mark.parametrize(
        "m, d, weights",
        [(2, 40, "1,1,1"), (2, 40, "1,1000000000,1"), (10**7, 1, "1,1000000000,1")],
    )
    def test_large_torus_is_refused_before_its_bound_is_formed(self, m, d, weights):
        # (sum of weights)^n has from 1.7e12 to 3e8 bits here; a floor on
        # the passes from bit lengths refuses the sweep without forming it
        with pytest.raises(BudgetExceeded, match=rf"at vertex [01] of {m**d}$"):
            brute_force_partition_function(
                TorusGraph(m, d), preset("k3"), WeightSet.parse(weights)
            )

    def test_budget_counts_the_sweep_not_the_raw_states(self):
        # ind on Q_5 has 2^32 raw states but a sweep of about 1.4e6 entries
        g = preset("ind")
        t = TorusGraph(2, 5)
        res = brute_force_partition_function(t, g, ones(g))
        assert res.z == transfer_matrix_partition_function(t, g, ones(g)).z
        assert res.z == 254475

    def test_one_color_search_on_2048_vertices_is_counted(self):
        # 1^n always passes the raw budget; the sweep has no recursion to
        # outgrow, and each of vertices 0..n-2 meets one frontier entry
        looped = ConstraintGraph(1, (1,))
        res = brute_force_partition_function(
            TorusGraph(2, 11), looped, WeightSet.ones(1)
        )
        assert (res.z, res.search_states) == (1, 2047)

    def test_zero_when_hom_empty(self):
        lonely = ConstraintGraph(1, (0,))
        res = brute_force_partition_function(C4, lonely, WeightSet.ones(1))
        assert res.z == 0

    def test_result_metadata(self):
        g = preset("k3")
        res = brute_force_partition_function(C4, g, ones(g))
        assert res.method == "brute"
        assert "m=2" in res.instance and "h=3" in res.instance


# Nonzero frontier entries the brute-force sweep meets on each corpus instance.
CORPUS_SEARCH_STATES = {
    "ind-m2d1": 1, "k3-m2d1": 1, "wr-m2d1": 1, "k4loop-m2d1": 1,
    "k8-m2d1": 1, "cycle5-m2d1": 1, "ind-m2d2": 6, "k3-m2d2": 10,
    "k4-m2d2": 17, "wr-m2d2": 11, "k4loop-m2d2": 21, "k8-m2d2": 65,
    "path3-m2d2": 8, "ind-m2d3": 37, "k3-m2d3": 100, "k4-m2d3": 425,
    "wr-m2d3": 163, "k4loop-m2d3": 853, "k8-m2d3": 9137, "ind-m4d1": 6,
    "k3-m4d1": 10, "wr-m4d1": 11, "k4loop-m4d1": 21, "k8-m4d1": 65,
    "ind-m4d2": 397, "k3-m4d2": 1546, "ind-weighted-m2d2": 6,
    "k3-weighted-m2d2": 10, "wr-weighted-m2d2": 11, "ind-weighted-m4d1": 6,
    "k4loop-weighted-m2d3": 853,
}


class TestBruteArithmetic:
    @pytest.mark.parametrize("inst", standard_corpus(), ids=lambda i: i.name)
    def test_search_states_on_corpus(self, inst):
        res = brute_force_partition_function(inst.torus, inst.graph, inst.weights)
        assert res.search_states == CORPUS_SEARCH_STATES[inst.name]
        assert res.arithmetic == "int64"

    @pytest.mark.parametrize("shape", [(2, 3), (4, 2)])
    @pytest.mark.parametrize("pins", [None, {0: 0b01}, {3: 0b10, 5: 0b11}])
    def test_heavy_weights_take_python_ints(self, shape, pins):
        # (10^9 + 1)^n is far past 2^62, so the sweep runs modulo primes; the
        # transfer route takes the popcount sum at m = 2 (Python ints) and,
        # at m = 4, the sectors or, pinned, the masked product modulo primes,
        # whose state weight classes reach 10^18
        g = preset("ind")
        w = WeightSet.parse("1000000000,1")
        t = TorusGraph(*shape)
        res = brute_force_partition_function(t, g, w, pins=pins)
        expected = sum(
            (coloring_weight(t, g, w, f) for f in enumerate_colorings(t, g, pins)),
            Fraction(0),
        )
        assert res.arithmetic == "modular"
        assert res.z == expected
        # an entry is nonzero when it is nonzero modulo one of the primes
        unit = brute_force_partition_function(t, g, ones(g), pins=pins)
        assert res.search_states == unit.search_states
        tr = transfer_matrix_partition_function(t, g, w, pins=pins)
        route = "bitset" if t.m == 2 else "masked" if pins else "sectors"
        assert (tr.route, tr.arithmetic) == (
            route, "int" if route == "bitset" else "modular"
        )
        assert tr.z == expected

    def test_modular_sweep_holds_one_prime_at_a_time(self):
        # Past 2^62 the sweep runs modulo one prime at a time, so it holds no
        # more than the int64 sweep at unit weights, whatever the prime count.
        g, t = preset("wr"), TorusGraph(4, 2)

        def traced_peak(weights):
            tracemalloc.start()
            try:
                res = brute_force_partition_function(t, g, WeightSet.parse(weights))
                return res.arithmetic, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        unit, unit_peak = traced_peak("1,1,1")
        heavy, heavy_peak = traced_peak("1,1000000000,1")
        assert (unit, heavy) == ("int64", "modular")
        assert heavy_peak <= 2 * unit_peak

    @pytest.mark.parametrize(
        "weights, arithmetic", [("1,2,3,209", "int64"), ("1,2,3,210", "modular")]
    )
    def test_int64_boundary_on_looped_k4(self, weights, arithmetic):
        # Every coloring of Q_3 is valid, so Z = (sum of weights)^8, the
        # bound itself: 215^8 < 2^62 <= 216^8.
        g = preset("k4loop")
        w = WeightSet.parse(weights)
        res = brute_force_partition_function(Q3, g, w)
        total = sum(int(x) for x in w.weights)
        assert res.z == total**8
        assert res.arithmetic == arithmetic
        assert (res.z < 2**62) == (arithmetic == "int64")


class TestTransferMatrix:
    def test_trace_of_k3_adjacency_fourth_power(self):
        g = preset("k3")
        t = TorusGraph(4, 1)
        assert transfer_matrix_partition_function(t, g, ones(g)).z == 18

    def test_fully_looped_k4_on_q3(self):
        g = preset("k4loop")
        assert transfer_matrix_partition_function(Q3, g, ones(g)).z == 65536

    def test_matches_brute_on_widom_rowlinson(self):
        g = preset("wr")
        zb = brute_force_partition_function(C4, g, ones(g)).z
        zt = transfer_matrix_partition_function(C4, g, ones(g)).z
        assert zb == zt == 35

    @pytest.mark.parametrize("m", [2, 4])
    def test_matches_brute_past_256_colors(self, m):
        # a layer state's color 256 needs more than a byte
        g = preset("k257")
        t = TorusGraph(m, 1)
        zb = brute_force_partition_function(t, g, ones(g)).z
        zt = transfer_matrix_partition_function(t, g, ones(g)).z
        assert zb == zt == 256**m + (-1) ** m * 256
        engine = lambda h: exact_module._engine(t, h, ones(h), DEFAULT_TRANSFER_BUDGET)
        assert engine(g).states.dtype == np.uint16
        assert engine(preset("k256")).states.dtype == np.uint8

    def test_budget_is_on_layer_state_space(self):
        g = preset("k8")
        with pytest.raises(BudgetExceeded):
            transfer_matrix_partition_function(TorusGraph(2, 5), g, ones(g))

    def test_six_layer_cycle(self):
        # C_6 proper 3-colorings: (q-1)^n + (q-1)*(-1)^n = 64 + 2
        g = preset("k3")
        t = TorusGraph(6, 1)
        assert transfer_matrix_partition_function(t, g, ones(g)).z == 66

    def test_bigint_fallback_handles_large_weights(self):
        g = preset("k4loop")
        w = WeightSet.parse("1000000,1000000,1000000,1000000")
        t = TorusGraph(4, 1)
        # 4^4 colorings each of weight 10^24; int64 would overflow, and
        # the bound (4 * 10^6)^4 takes several primes
        res = transfer_matrix_partition_function(t, g, w)
        assert res.z == 256 * 10**24
        assert res.arithmetic == "modular"
        assert res.z == brute_force_partition_function(t, g, w).z

    def test_unpinned_wr_on_z8_squared_forms_no_product_of_t(self, monkeypatch):
        # wr on Z_8^2: 1,155 layer states and an entry bound past 2^62. The
        # sector route counts it modulo primes and forms no product of T.
        def no_product(*_):
            raise AssertionError("a matrix product was formed")

        monkeypatch.setattr(exact_module, "_cycle_trace", no_product)
        t, g = TorusGraph(8, 2), preset("wr")
        res = transfer_matrix_partition_function(t, g, ones(g))
        assert res.z == 2146443144974317720907
        assert (res.route, res.arithmetic) == ("sectors", "modular")

    def test_eight_distinct_weights_on_q9_count_by_transfer(self):
        # 8 isolated looped colors on Q_9: each Q_8 layer is one color, so
        # 8 layer states over 256 positions, and Z = sum_c c^512
        g = ConstraintGraph(8, tuple(1 << k for k in range(8)))
        w = WeightSet.parse(",".join(str(c) for c in range(1, 9)))
        res = transfer_matrix_partition_function(TorusGraph(2, 9), g, w)
        assert res.z == sum(c**512 for c in range(1, 9))
        assert (res.route, res.layer_states) == ("bitset", 8)

    def test_sixteen_distinct_weights_are_refused_by_the_layer_sweep(self):
        # k16 with 16 distinct weights on Z_4^3: the class refinement sets
        # no cap of its own, and the layer sweep refuses at the default budget
        g = preset("k16")
        w = WeightSet.parse(",".join(str(k) for k in range(1, 17)))
        with pytest.raises(BudgetExceeded, match="at layer vertex 5 of 16"):
            transfer_matrix_partition_function(TorusGraph(4, 3), g, w)

    def test_method_label(self):
        g = preset("ind")
        res = transfer_matrix_partition_function(Q3, g, ones(g))
        assert res.method == "transfer"

    @pytest.mark.parametrize("lam, primes", [(1722, 3), (1723, 4)])
    def test_prime_count_boundary_on_looped_k4(self, sector_primes, lam, primes):
        # On Z_4 the bound (s * w_max)^m = (4 * lam)^4 equals Z, so 1722 is
        # the largest uniform weight whose Z two primes cover; the last
        # prime taken is the spare.
        g = preset("k4loop")
        w = WeightSet.parse(",".join([str(lam)] * 4))
        res = transfer_matrix_partition_function(TorusGraph(4, 1), g, w)
        assert res.z == (4 * lam) ** 4
        assert (res.route, res.arithmetic) == ("sectors", "modular")
        assert len(sector_primes) == primes
        assert all(p % 4 == 1 for p in sector_primes)
        assert math.prod(sector_primes[:-2]) <= res.z < math.prod(sector_primes[:-1])

    def test_ind_on_z4_cubed_runs_on_float64(self):
        # Z_4^3 is Q_6, whose independent sets number 19,768,832,143.
        g = preset("ind")
        res = transfer_matrix_partition_function(TorusGraph(4, 3), g, ones(g))
        assert res.z == 19768832143
        assert (res.route, res.arithmetic, res.layer_states) == (
            "sectors", "modular", 743
        )

    def test_pinned_route_keeps_integer_arithmetic(self):
        g = preset("wr")
        t = TorusGraph(4, 2)
        res = transfer_matrix_partition_function(t, g, ones(g), pins={5: 1})
        assert (res.route, res.arithmetic) == ("masked", "int64")
        assert res.z == brute_force_partition_function(t, g, ones(g), pins={5: 1}).z

    def test_compat_bits_are_refused_before_compat_is_built(self, monkeypatch):
        # Q_6 sliced into two Q_5 layers: 2^32 raw layer states pass a budget
        # of 10^10, but the 254,475 valid ones need 254475^2 > 10^10
        # compatibility bits (about 8 GB).
        def no_compat(*_):
            raise AssertionError("compatibility rows were built")

        monkeypatch.setattr(exact_module._TransferEngine, "_compat_rows", no_compat)
        g = preset("ind")
        with pytest.raises(BudgetExceeded, match="254475\\^2"):
            transfer_matrix_partition_function(
                TorusGraph(2, 6), g, ones(g), budget=10**10
            )

    def test_k3_on_q5_counts_its_2970_valid_layer_states(self):
        # 3^16 raw layer states, of which only 2,970 are proper colorings
        g = preset("k3")
        res = transfer_matrix_partition_function(TorusGraph(2, 5), g, ones(g))
        assert res.z == 1185282
        assert (res.route, res.layer_states) == ("bitset", 2970)

    def test_k3_on_z4_cubed_is_counted_by_sectors(self):
        g = preset("k3")
        res = transfer_matrix_partition_function(TorusGraph(4, 3), g, ones(g))
        assert res.z == 100301050602
        assert (res.route, res.layer_states) == ("sectors", 2970)

    @pytest.mark.parametrize(
        "spec, m, d, charge",
        [("k3", 4, 3, "3\\*2970\\^2"), ("ind", 16, 2, "15\\*2207\\^2")],
    )
    def test_masked_charge_refuses_pinned_counts(self, spec, m, d, charge):
        # the unpinned count of the same instance stays within the budget
        g = preset(spec)
        with pytest.raises(BudgetExceeded, match=f"pinned transfer needs {charge} "):
            transfer_matrix_partition_function(
                TorusGraph(m, d), g, ones(g), pins={0: 1}
            )

    def test_masked_charge_admits_wr_on_z8_squared(self):
        # 7 * 1155^2 = 9,338,175 product entries, within 10^7
        t, g = TorusGraph(8, 2), preset("wr")
        res = transfer_matrix_partition_function(t, g, ones(g), pins={0: g.full_mask})
        assert res.z == 2146443144974317720907
        assert (res.route, res.arithmetic) == ("masked", "modular")

    @pytest.mark.parametrize(
        "t, spec, budget, pins",
        [
            (TorusGraph(2, 40), "k3", DEFAULT_TRANSFER_BUDGET, None),  # layer sweep
            (TorusGraph(2, 5), "k3", 2970**2 - 1, None),  # compatibility bits
            (TorusGraph(4, 3), "k3", DEFAULT_TRANSFER_BUDGET, {0: 1}),  # masked
        ],
    )
    def test_refused_engine_is_not_cached(self, t, spec, budget, pins):
        g = preset(spec)
        with pytest.raises(BudgetExceeded):
            transfer_matrix_partition_function(t, g, ones(g), budget=budget, pins=pins)
        lookup = lambda: exact_module._engine(t, g, ones(g), budget)
        hits = exact_module._engine.cache_info().hits
        if t.d == 40:
            # the layer sweep refuses in the constructor: nothing is cached
            with pytest.raises(BudgetExceeded):
                lookup()
            assert exact_module._engine.cache_info().hits == hits
        else:
            # the route refuses: the engine stays cached, and its compatibility
            # bits were never formed
            assert "compat" not in vars(lookup())
            assert exact_module._engine.cache_info().hits == hits + 1

    def test_sector_charge_refuses_k4_on_z8_squared(self, monkeypatch):
        # 834 orbits of 6,564 layer states: 834*6564 + 8*834^2 > 10^7 cells,
        # refused before the representatives' rows are unpacked
        def no_rows(*_):
            raise AssertionError("compatibility rows were built")

        monkeypatch.setattr(exact_module._TransferEngine, "_compat_rows", no_rows)
        g = preset("k4")
        with pytest.raises(BudgetExceeded, match="834\\*6564 \\+ 8\\*834\\^2 > "):
            transfer_matrix_partition_function(TorusGraph(8, 2), g, ones(g))

    @pytest.mark.parametrize(
        "spec, m, d, z, states",
        [
            ("cycle:5", 4, 3, 167168417670, 4950),
            ("ind+k3", 4, 3, 120069882745, 3713),
            ("kq:5", 6, 2, 2788302915518903360, 4100),
        ],
    )
    def test_sectors_count_past_s_squared_bits(self, spec, m, d, z, states):
        # s^2 passes 10^7, but the sector route forms only the orbits'
        # rows and the per-sector counts
        g = preset(spec)
        res = transfer_matrix_partition_function(TorusGraph(m, d), g, ones(g))
        assert res.z == z
        assert (res.route, res.layer_states) == ("sectors", states)
        assert states**2 > DEFAULT_TRANSFER_BUDGET

    def test_pinned_and_unpinned_counts_share_one_engine(self):
        t, g, w = TorusGraph(4, 2), preset("wr"), WeightSet.parse("1,5,7")
        misses = exact_module.engine_cache_counts()[1]
        whole = transfer_matrix_partition_function(t, g, w)
        pinned = transfer_matrix_partition_function(t, g, w, pins={0: g.full_mask})
        assert (whole.route, pinned.route) == ("sectors", "masked")
        assert whole.z == pinned.z
        assert exact_module.engine_cache_counts()[1] == misses + 1

    def test_engine_cache_is_bounded(self):
        # each engine of k3 on Q_5 holds 2,970 states and 1.1 MB of bits
        g, t = preset("k3"), TorusGraph(2, 5)
        bound = exact_module._engine.cache_info().maxsize
        for k in range(1, 41):
            transfer_matrix_partition_function(t, g, WeightSet.parse(f"1,1,{k}"))
        assert exact_module._engine.cache_info().currsize <= bound < 40

    @pytest.mark.parametrize(
        "t, g, w, classes",
        [
            *(
                pytest.param(i.torus, i.graph, i.weights, None, id=i.name)
                for i in standard_corpus()
            ),
            # distinct weight counts whose products coincide, as 1*4 = 2*2
            (Q3, preset("k4loop"), WeightSet.parse("1,2,3,4"), 25),
            (TorusGraph(2, 4), preset("k4loop"), WeightSet.parse("1,2,3,4"), 81),
            (TorusGraph(2, 4), preset("k3"), WeightSet.parse("1,2,4"), 9),
            (TorusGraph(6, 2), preset("wr"), WeightSet.parse("1,2,3"), 19),
            (
                TorusGraph(2, 9),
                ConstraintGraph(8, tuple(1 << k for k in range(8))),
                WeightSet.parse("1,2,3,4,5,6,7,8"),
                8,
            ),
        ],
    )
    def test_weight_classes_match_products_per_state(self, t, g, w, classes):
        eng = exact_module._TransferEngine(t, g, w, DEFAULT_TRANSFER_BUDGET)
        ref = state_weights(eng.states, w)
        assert eng.weights == tuple(sorted(set(ref)))
        assert [eng.weights[c] for c in eng.cls] == ref
        if classes is not None:
            assert len(eng.weights) == classes


class TestPins:
    @pytest.mark.parametrize(
        "route, t",
        [
            (brute_force_partition_function, TorusGraph(2, 3)),
            (transfer_matrix_partition_function, TorusGraph(2, 3)),  # bitset
            (transfer_matrix_partition_function, TorusGraph(4, 1)),  # masked
        ],
    )
    def test_pin_outside_torus_is_rejected(self, route, t):
        g = preset("k3")
        for v in (-1, t.n):
            with pytest.raises(ValueError, match=f"pinned vertex {v} outside torus"):
                route(t, g, ones(g), pins={v: 1})

    @pytest.mark.parametrize("t", [TorusGraph(2, 3), TorusGraph(4, 1)])
    def test_pin_bits_past_h_are_clipped(self, t):
        g, w = preset("wr"), WeightSet.parse("1,2,3")
        wide = {0: 0b1000101, t.n - 1: 0b110 | 1 << g.h}
        clipped = {0: 0b101, t.n - 1: 0b110}
        for route in (brute_force_partition_function, transfer_matrix_partition_function):
            z = route(t, g, w, pins=clipped).z
            assert route(t, g, w, pins=wide).z == z > 0


# Every m >= 4 corpus instance, and two whose pinned counts pass 2^62.
PINNED_CASES = [
    *(
        pytest.param(i.torus, i.graph, i.weights, id=i.name)
        for i in standard_corpus()
        if i.torus.m >= 4
    ),
    pytest.param(
        TorusGraph(4, 2), preset("ind"), WeightSet.parse("1000000000,1"),
        id="ind-heavy-m4d2",
    ),
    pytest.param(
        TorusGraph(8, 1), preset("wr"), WeightSet.parse("1000000,1,1000000"),
        id="wr-heavy-m8d1",
    ),
]


class TestSectors:
    @pytest.mark.parametrize(
        "spec, m, d, orbits",
        [("ind", 4, 3, 56), ("wr", 8, 2, 152), ("k3", 4, 2, 6), ("wr", 6, 1, 3)],
    )
    def test_orbits_and_sectors_partition_the_states(self, spec, m, d, orbits):
        g = preset(spec)
        t = TorusGraph(m, d)
        eng = exact_module._engine(t, g, ones(g), DEFAULT_TRANSFER_BUDGET)
        sec = eng.sectors
        s, group = len(eng.states), m ** (d - 1)
        sizes = np.bincount(sec.orbit)
        assert len(sec.reps) == len(sizes) == orbits
        assert sizes.sum() == s
        assert all(group % int(x) == 0 for x in sizes)
        # each orbit has one basis vector in |G| / |stabilizer| = |O| sectors
        assert sec.member.shape == (group, orbits)
        assert (sec.member.sum(axis=0) == sizes).all()
        assert sec.member.sum() == s

    @pytest.mark.parametrize(
        "route", ["sectors", "masked", "brute", "cycle_count_g"]
    )
    def test_wrong_residue_on_one_prime_is_caught(self, monkeypatch, route):
        # every count past int64 reaches its residues through one CRT helper
        crt = exact_module._crt

        def off_by_one_on_the_first(residue, bound, m, dim):
            first = exact_module._prime(m, dim, 0)

            def wrong(p):
                return (residue(p) + (p == first)) % p

            return crt(wrong, bound, m, dim)

        monkeypatch.setattr(exact_module, "_crt", off_by_one_on_the_first)
        heavy = WeightSet.parse("1000000000,1")
        with pytest.raises(OracleMismatch, match="spare prime"):
            if route == "sectors":
                transfer_matrix_partition_function(
                    TorusGraph(6, 2), preset("wr"), WeightSet.parse("1,3,1")
                )
            elif route == "masked":
                transfer_matrix_partition_function(
                    TorusGraph(4, 2), preset("ind"), heavy, pins={5: 0b01}
                )
            elif route == "brute":
                brute_force_partition_function(Q3, preset("ind"), heavy)
            else:
                g = preset("k4loop")
                cycle_count_g(g, (g.full_mask,) * 40)

    @pytest.mark.parametrize("t, g, w", PINNED_CASES)
    @pytest.mark.parametrize("v", [0, 1])
    def test_pinned_counts_sum_to_the_sector_count(self, t, g, w, v):
        # v = 1 lies in the second layer; no brute force is involved
        pinned = [
            transfer_matrix_partition_function(t, g, w, pins={v: mask_from((k,))})
            for k in range(g.h)
        ]
        whole = transfer_matrix_partition_function(t, g, w)
        assert {r.route for r in pinned} == {"masked"}
        assert whole.route == "sectors"
        assert sum(r.z for r in pinned) == whole.z
        if max(w.weights) > 1000:
            assert {r.arithmetic for r in pinned} == {"modular"}

    @pytest.mark.parametrize(
        "d, weights, z",
        [(1, "1000000,1000000,1000000,1000000", 256 * 10**24), (2, "1,2,3,4", 10**16)],
    )
    def test_crt_over_several_primes_is_exact(self, sector_primes, d, weights, z):
        # Every coloring is valid on k4loop, so Z = (sum of weights)^n.
        res = transfer_matrix_partition_function(
            TorusGraph(4, d), preset("k4loop"), WeightSet.parse(weights)
        )
        assert res.z == z
        assert len(sector_primes) >= 3
        assert len(set(sector_primes)) == len(sector_primes)

    @pytest.mark.parametrize(
        "spec, weights", [("ind", None), ("k3", None), ("wr", None), ("wr", "1,2,1")]
    )
    def test_z4_squared_is_q4_across_routes(self, spec, weights):
        # Z_4^2 and Q_4 are isomorphic: the sector route at m=4 against
        # the packed pair count at m=2
        g = preset(spec)
        w = ones(g) if weights is None else WeightSet.parse(weights)
        sectors = transfer_matrix_partition_function(TorusGraph(4, 2), g, w)
        pairs = transfer_matrix_partition_function(TorusGraph(2, 4), g, w)
        assert (sectors.route, pairs.route) == ("sectors", "bitset")
        assert sectors.z == pairs.z

    @pytest.mark.parametrize(
        "spec, m, d, budget, z",
        [
            ("wr", 8, 2, DEFAULT_TRANSFER_BUDGET, 2146443144974317720907),
            ("k3", 4, 3, 10**12, 100301050602),
        ],
    )
    def test_locked_values(self, spec, m, d, budget, z):
        g = preset(spec)
        res = transfer_matrix_partition_function(
            TorusGraph(m, d), g, ones(g), budget=budget
        )
        assert res.z == z


class TestDualRoute:
    @pytest.mark.parametrize("inst", standard_corpus(), ids=lambda i: i.name)
    def test_routes_agree_exactly(self, inst):
        zb = brute_force_partition_function(inst.torus, inst.graph, inst.weights)
        zt = transfer_matrix_partition_function(inst.torus, inst.graph, inst.weights)
        assert zb.z == zt.z
        assert zb.z > 0

    def test_corpus_is_large_and_varied(self):
        corpus = standard_corpus()
        assert len(corpus) >= 20
        shapes = {(i.torus.m, i.torus.d) for i in corpus}
        assert {(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)} <= shapes
        assert any(not i.weights.is_uniform() for i in corpus)

    def test_record_runner(self):
        recs = dual_route_records(standard_corpus()[:3])
        assert all(r["agree"] for r in recs)
        assert all(r["z_brute"] == r["z_transfer"] for r in recs)

    def test_agreement_with_matching_pins(self):
        g = preset("wr")
        w = WeightSet.parse("1,2,1")
        pins = {0: mask_from((0, 1)), 5: mask_from((2,)), 3: mask_from((1,))}
        zb = brute_force_partition_function(Q3, g, w, pins=pins).z
        zt = transfer_matrix_partition_function(Q3, g, w, pins=pins).z
        assert zb == zt > 0

    def test_disjoint_union_law_small(self):
        g = preset("ind+k3")
        z = transfer_matrix_partition_function(C4, g, ones(g)).z
        assert z == 7 + 18

    def test_disjoint_union_law_looped(self):
        g = preset("k4loop+k8")
        z_union = transfer_matrix_partition_function(Q3, g, ones(g)).z
        z_k8 = transfer_matrix_partition_function(Q3, preset("k8"), WeightSet.ones(8)).z
        assert z_union == 65536 + z_k8


class TestEnumeration:
    def test_lists_the_seven_independent_sets(self):
        g = preset("ind")
        cols = list(enumerate_colorings(C4, g))
        assert len(cols) == 7
        assert all(is_valid_coloring(C4, g, f) for f in cols)
        assert len(set(cols)) == 7

    def test_pins_restrict(self):
        g = preset("ind")
        cols = list(enumerate_colorings(C4, g, pins={0: mask_from((0,))}))
        # vertex 0 "in" forces both neighbors out; vertex 3 free
        assert len(cols) == 2

    def test_total_weight_equals_z(self):
        g = preset("wr")
        w = WeightSet.parse("1,3,2")
        total = sum(coloring_weight(C4, g, w, f) for f in enumerate_colorings(C4, g))
        assert total == transfer_matrix_partition_function(C4, g, w).z


class TestExactMarginal:
    def test_hard_core_occupation_on_c4(self):
        g = preset("ind")
        t = TorusGraph(4, 1)
        assert exact_occupation_vector(t, g, ones(g), 0)[0] == Fraction(2, 7)

    def test_k3_is_uniform_by_symmetry(self):
        g = preset("k3")
        for k in range(3):
            assert exact_occupation_vector(C4, g, ones(g), 0)[k] == Fraction(1, 3)

    def test_marginals_sum_to_one(self):
        g = preset("wr")
        w = WeightSet.parse("1,2,1")
        for x in range(Q3.n):
            assert sum(exact_occupation_vector(Q3, g, w, x)[k] for k in range(3)) == 1

    def test_conditioning_on_self(self):
        g = preset("k3")
        assert exact_occupation_vector(C4, g, ones(g), 0, (0, 1))[1] == 1
        assert exact_occupation_vector(C4, g, ones(g), 0, (0, 2))[1] == 0

    def test_conditioning_shifts_mass(self):
        g = preset("k3")
        # adjacent vertex cannot reuse the conditioned color
        assert exact_occupation_vector(C4, g, ones(g), 1, (0, 0))[0] == 0
        assert exact_occupation_vector(C4, g, ones(g), 1, (0, 0))[1] == Fraction(1, 2)

    def test_zero_conditioning_event(self):
        lonely = ConstraintGraph(1, (0,))
        with pytest.raises(ZeroConditioningEvent):
            exact_occupation_vector(C4, lonely, WeightSet.ones(1), 0)
        with pytest.raises(ZeroConditioningEvent):
            exact_occupation_vector(C4, lonely, WeightSet.ones(1), 0, (2, 0))

    def test_invalid_vertex_or_color(self):
        g = preset("k3")
        with pytest.raises(ValueError):
            exact_occupation_vector(C4, g, ones(g), 99)
        with pytest.raises(ValueError, match="outside palette"):
            influence_ratio(C4, g, ones(g), 0, 7, 1, 0)

    def test_translation_invariance(self):
        g = preset("wr")
        w = WeightSet.parse("1,2,1")
        base = exact_occupation_vector(Q3, g, w, 0)
        for x in (1, 3, 6, 7):
            assert exact_occupation_vector(Q3, g, w, x) == base

    def test_routes_agree_on_marginals(self):
        # the law of f(5) given f(0)=0, from each route's pinned counts
        g = preset("wr")
        w = WeightSet.parse("1,2,1")
        laws = []
        for route in (brute_force_partition_function, transfer_matrix_partition_function):
            counts = [
                route(Q3, g, w, pins={0: mask_from((0,)), 5: mask_from((k,))}).z
                for k in range(g.h)
            ]
            laws.append(tuple(c / sum(counts) for c in counts))
        assert laws[0] == laws[1] == exact_occupation_vector(Q3, g, w, 5, (0, 0))


class TestPureColoringWeight:
    def test_k3_singleton_doubleton(self):
        g = preset("k3")
        pair = MaximalPair(mask_from((0,)), mask_from((1, 2)))
        assert pure_coloring_weight(g, ones(g), pair, C4) == 4

    def test_fully_looped_full_pair(self):
        g = preset("k4loop")
        pair = MaximalPair(g.full_mask, g.full_mask)
        assert pure_coloring_weight(g, ones(g), pair, Q3) == 65536

    def test_weighted_hard_core(self):
        g = preset("ind")
        lam = Fraction(3, 2)
        w = WeightSet((lam, Fraction(1)))
        pair = MaximalPair(mask_from((0, 1)), mask_from((1,)))
        assert pure_coloring_weight(g, w, pair, C4) == (1 + lam) ** 2


class TestGlobalBounds:
    def test_q2_k3_upper_fails_at_tiny_scale(self):
        rep = check_global_bounds(C4, preset("k3"), WeightSet.ones(3))
        assert rep["z"] == 18
        assert rep["lower_bound"] == 4
        assert rep["lower_ok"]
        assert not rep["upper_ok"]

    def test_q3_fully_looped_lower_bound_tight(self):
        rep = check_global_bounds(Q3, preset("k4loop"), WeightSet.ones(4))
        assert rep["z"] == rep["lower_bound"] == 65536
        assert rep["lower_slack"] == 1.0
        assert rep["upper_ok"]

    def test_single_looped_vertex(self):
        g = ConstraintGraph(1, (1,))
        rep = check_global_bounds(Q3, g, WeightSet.ones(1))
        assert rep["z"] == rep["lower_bound"] == 1
        assert rep["upper_ok"]

    def test_rejects_weights(self):
        with pytest.raises(ValueError):
            check_global_bounds(C4, preset("ind"), WeightSet.parse("2,1"))


class TestNearPureFamily:
    K8_PAIR = MaximalPair(mask_from((0, 1, 2, 3)), mask_from((4, 5, 6, 7)))

    @pytest.mark.parametrize("d,expected", [(2, 288), (3, 110592)])
    def test_one_defect_count_matches_formula(self, d, expected):
        g = preset("k8")
        count = near_pure_one_defect_count(TorusGraph(2, d), g, self.K8_PAIR)
        assert count == expected
        assert count == Fraction(1, 2) * Fraction(3, 2) ** d * 16 ** (2 ** (d - 1))

    def test_cross_check_by_filtering_full_enumeration(self):
        g = preset("k8")
        even, odd = C4.side_table
        a, b = self.K8_PAIR
        hits = 0
        for f in enumerate_colorings(C4, g):
            defects = [v for v in even if mask_from((f[v],)) & b]
            pure_odd = all(mask_from((f[v],)) & b for v in odd)
            rest_a = all(
                mask_from((f[v],)) & a for v in even if v not in defects
            )
            if len(defects) == 1 and pure_odd and rest_a:
                hits += 1
        assert hits == 288

    def test_rejects_overlapping_classes(self):
        g = preset("k4loop")
        pair = MaximalPair(g.full_mask, g.full_mask)
        with pytest.raises(ValueError):
            near_pure_one_defect_count(C4, g, pair)


@st.composite
def random_instances(draw, max_h=4):
    h = draw(st.integers(min_value=1, max_value=max_h))
    bits = [[draw(st.booleans()) for _ in range(h)] for _ in range(h)]
    adj = [0] * h
    for i in range(h):
        for j in range(i, h):
            if bits[i][j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    weights = tuple(
        Fraction(draw(st.integers(min_value=1, max_value=3)), draw(st.integers(min_value=1, max_value=2)))
        for _ in range(h)
    )
    return ConstraintGraph(h, tuple(adj)), WeightSet(weights)


@settings(max_examples=40, deadline=None)
@given(random_instances(), st.sampled_from([(2, 1), (2, 2), (4, 1), (2, 3)]))
def test_routes_agree_on_random_graphs(gw, shape):
    g, w = gw
    t = TorusGraph(*shape)
    zb = brute_force_partition_function(t, g, w).z
    zt = transfer_matrix_partition_function(t, g, w).z
    assert zb == zt


@settings(max_examples=40, deadline=None)
@given(random_instances(), st.sampled_from([(4, 1), (6, 1), (8, 1), (4, 2)]))
# 16 layer states of weight up to 6^4: the bound 20736^4 takes three primes
@example((ConstraintGraph(2, (3, 3)), WeightSet.parse("3,1/2")), (4, 2))
def test_squaring_matches_brute_on_random_graphs(gw, shape):
    g, w = gw
    assume(shape[1] == 1 or g.h <= 2)  # keeps brute force on Z_4^2 small
    t = TorusGraph(*shape)
    zt = transfer_matrix_partition_function(t, g, w)
    assert (zt.route, zt.arithmetic) == ("sectors", "modular")
    assert zt.z == brute_force_partition_function(t, g, w).z


def _layer_states(g, t):
    # Hom(Z_m^(d-1), H): h for d = 1, closed walks trace(A^m) for d = 2
    if t.d == 1:
        return g.h
    a = np.array([[g.adj[i] >> j & 1 for j in range(g.h)] for i in range(g.h)])
    return int(np.trace(np.linalg.matrix_power(a, t.m)))


@settings(max_examples=40, deadline=None)
@given(
    random_instances(),
    st.sampled_from([4, 6]),
    st.sampled_from([1, 2]),
    st.data(),
)
def test_pin_allowing_every_color_matches_squaring(gw, m, d, data):
    g, w = gw
    t = TorusGraph(m, d)
    assume(_layer_states(g, t) <= 128)  # keeps the int64 products small
    v = data.draw(st.integers(min_value=0, max_value=t.n - 1))
    unpinned = transfer_matrix_partition_function(t, g, w)
    pinned = transfer_matrix_partition_function(t, g, w, pins={v: g.full_mask})
    assert unpinned.route == "sectors"
    assert pinned.route == "masked"
    assert pinned.z == unpinned.z


non_unit_weights = st.builds(
    Fraction, st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=3)
).filter(lambda q: q != 1)


@settings(max_examples=60, deadline=None)
@given(
    random_instances(),
    st.sampled_from([(2, 2), (2, 3), (4, 1), (6, 1)]),
    st.data(),
)
def test_brute_matches_enumeration_with_pins_on_last_vertices(gw, shape, data):
    g, _ = gw
    w = WeightSet(tuple(data.draw(non_unit_weights) for _ in range(g.h)))
    t = TorusGraph(*shape)
    pins = {
        v: data.draw(st.integers(min_value=0, max_value=g.full_mask))
        for v in (t.n - 2, t.n - 1)
    }
    expected = sum(
        (coloring_weight(t, g, w, f) for f in enumerate_colorings(t, g, pins)),
        Fraction(0),
    )
    assert brute_force_partition_function(t, g, w, pins=pins).z == expected


# More colorings than this and the enumeration reference is too slow to run.
_ENUMERATION_CAP = 70_000


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (4, 1), (4, 2), (6, 1)]), st.data())
def test_brute_matches_enumeration_with_pins_anywhere(shape, data):
    # The sweep keeps one array over the colorings of its frontier, so
    # pins on frontier vertices (vertex 0 and its wrap-around neighbor m-1)
    # are drawn as often as pins anywhere else.
    t = TorusGraph(*shape)
    g, w = data.draw(random_instances(max_h=3 if shape == (4, 2) else 4))
    vertex = st.one_of(
        st.sampled_from([0, t.m - 1]), st.integers(min_value=0, max_value=t.n - 1)
    )
    pins = data.draw(
        st.dictionaries(
            vertex, st.integers(min_value=0, max_value=g.full_mask), max_size=3
        )
    )
    colorings = list(islice(enumerate_colorings(t, g, pins), _ENUMERATION_CAP + 1))
    assume(len(colorings) <= _ENUMERATION_CAP)
    scale, wint = w.integer_scaled()
    total = sum(math.prod(wint[k] for k in f) for f in colorings)
    res = brute_force_partition_function(t, g, w, pins=pins)
    assert res.z == Fraction(total, scale**t.n)
    # one nonzero entry per (vertex, frontier coloring) at most
    frontier = [
        [u for u in range(v) if max(t.neighbors(u)) >= v] for v in range(t.n - 1)
    ]
    assert res.search_states <= sum(g.h ** len(f) for f in frontier)
