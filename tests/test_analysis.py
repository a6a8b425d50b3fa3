"""Limit-target algebra, exact finite-torus comparisons, and the
partition-function predictors, pinned to hand-derived values."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushom.analysis import (
    ComparisonRecord,
    ConjecturePrediction,
    _exp_string,
    antipode,
    conjecture_L,
    conjecture_f_q,
    conjecture_partition_prediction,
    conjecture_weight_prediction,
    consistency_L_vs_f,
    equipartition_class,
    exact_occupation_vector,
    far_vertex,
    sup_distance,
    theorem_conditional_vector,
    theorem_occupation_vector,
)
from torushom.constraint_graph import (
    ConstraintGraph,
    MaximalPair,
    WeightSet,
    _PermutationSearch,
    automorphism_generators,
    automorphisms,
    instance_structure,
    mask_from,
    preset,
)
from torushom.errors import NotEquipartition, ZeroConditioning
from torushom.exact import transfer_matrix_partition_function
from torushom.torus import TorusGraph
from references import (
    ColoringCountPrediction,
    ZeroDenominator,
    coloring_count_prediction,
    conditional_comparison,
    far_vertex_bfs,
    influence_ratio,
    occupation_comparison,
    pure_coloring_weight,
    theorem_conditional_target,
    theorem_influence_ratio,
    theorem_occupation_target,
)

IND = preset("ind")
K3 = preset("k3")
WR = preset("wr")
W1 = WeightSet.ones(1)
W2 = WeightSet.ones(2)
W3 = WeightSet.ones(3)
LOOP1 = ConstraintGraph(1, (1,), ("o",))


class TestEquipartition:
    @pytest.mark.parametrize(
        "name, h, expected",
        [
            ("ind", 2, "two-class-swap"),
            ("k3", 3, "transitive"),
            ("k4", 4, "transitive"),
            ("k5", 5, "transitive"),
            ("wr", 3, "transitive"),
            ("k4loop", 4, "singleton"),
            ("ind+k3", 5, "unknown"),
        ],
    )
    def test_preset_classes(self, name, h, expected):
        assert equipartition_class(preset(name), WeightSet.ones(h)) == expected

    def test_weights_can_change_the_class(self):
        # a heavy end breaks the path-reversal symmetry and leaves a
        # single maximizing class
        assert equipartition_class(WR, WeightSet.parse("2,1,1")) == "singleton"
        # a heavy color on the clique keeps only one split and its swap
        assert (
            equipartition_class(K3, WeightSet.parse("2,1,1"))
            == "two-class-swap"
        )
        assert equipartition_class(IND, WeightSet.parse("7/3,1")) == (
            "two-class-swap"
        )

    def test_unknown_refuses_targets(self):
        g = preset("ind+k3")
        w = WeightSet.ones(5)
        with pytest.raises(NotEquipartition):
            theorem_occupation_target(g, w, "even", 0)
        with pytest.raises(NotEquipartition):
            theorem_conditional_target(g, w, "same-side", 0, 0)

    def test_bad_side_and_relation_rejected(self):
        with pytest.raises(ValueError):
            theorem_occupation_target(K3, W3, "left", 0)
        with pytest.raises(ValueError):
            theorem_conditional_target(K3, W3, "diagonal", 0, 0)


class TestOccupationTargets:
    @pytest.mark.parametrize("lam", [Fraction(3, 2), Fraction(1, 3), 1])
    def test_occupied_color_target(self, lam):
        w = WeightSet((Fraction(lam), Fraction(1)))
        assert theorem_occupation_target(IND, w, "even", 0) == lam / (
            2 * (1 + lam)
        )
        assert theorem_occupation_target(IND, w, "even", 1) == (2 + lam) / (
            2 * (1 + lam)
        )

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_uniform_colorings(self, q):
        g = preset(f"kq:{q}")
        w = WeightSet.ones(q)
        assert theorem_occupation_vector(g, w) == (Fraction(1, q),) * q

    def test_widom_rowlinson(self):
        assert theorem_occupation_vector(WR, W3) == (
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(1, 4),
        )

    @pytest.mark.parametrize("name, h", [("ind", 2), ("k3", 3), ("wr", 3)])
    def test_sides_agree_and_sum_to_one(self, name, h):
        g = preset(name)
        w = WeightSet.ones(h)
        even = theorem_occupation_vector(g, w, "even")
        assert even == theorem_occupation_vector(g, w, "odd")
        assert sum(even) == 1


class TestConditionalTargets:
    def test_hard_core_displays(self):
        lam = Fraction(3, 2)
        w = WeightSet((lam, Fraction(1)))
        assert theorem_conditional_vector(IND, w, "same-side", 0) == (
            lam / (1 + lam),
            1 / (1 + lam),
        )
        assert theorem_conditional_vector(IND, w, "cross-side", 0) == (
            Fraction(0),
            Fraction(1),
        )

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_coloring_displays(self, q):
        g = preset(f"kq:{q}")
        w = WeightSet.ones(q)
        same = theorem_conditional_vector(g, w, "same-side", 0)
        assert same[0] == Fraction(2, q)
        assert set(same[1:]) == {Fraction(q - 2, q * (q - 1))}
        cross = theorem_conditional_vector(g, w, "cross-side", 0)
        assert cross[0] == 0
        assert set(cross[1:]) == {Fraction(1, q - 1)}

    def test_widom_rowlinson_both_relations(self):
        # conditioning on an end color keeps only the class containing
        # it, for both relations; the mirrored vector belongs to the
        # other end color
        half = Fraction(1, 2)
        assert theorem_conditional_vector(WR, W3, "same-side", 0) == (
            half,
            half,
            0,
        )
        assert theorem_conditional_vector(WR, W3, "cross-side", 0) == (
            half,
            half,
            0,
        )
        assert theorem_conditional_vector(WR, W3, "cross-side", 2) == (
            0,
            half,
            half,
        )

    def test_conditional_vectors_sum_to_one(self):
        for rel in ("same-side", "cross-side"):
            for ell in range(3):
                assert sum(theorem_conditional_vector(K3, W3, rel, ell)) == 1

    def test_zero_conditioning(self):
        w = WeightSet.parse("2,1,1")  # singleton class {1,2}
        with pytest.raises(ZeroConditioning):
            theorem_conditional_target(WR, w, "same-side", 0, 2)

    def test_influence_ratio_targets(self):
        assert theorem_influence_ratio(K3, W3, "same-side", 0, 0) == 2
        assert theorem_influence_ratio(IND, W2, "cross-side", 0, 0) == 0
        assert theorem_influence_ratio(LOOP1, W1, "same-side", 0, 0) == 1

    def test_influence_ratio_zero_denominator(self):
        w = WeightSet.parse("2,1,1")  # color 3 never occupies a class
        with pytest.raises(ZeroDenominator):
            theorem_influence_ratio(WR, w, "same-side", 2, 1)


class TestExactComparisons:
    def test_exact_influence_ratio_small_square(self):
        # at d=2 the conditional doubling is already exact
        t = TorusGraph(2, 2)
        assert influence_ratio(t, K3, W3, 0, 0, 3, 0) == 2

    def test_exact_influence_ratio_loop(self):
        t = TorusGraph(2, 2)
        assert influence_ratio(t, LOOP1, W1, 0, 0, 3, 0) == 1

    def test_exact_influence_zero_denominator(self):
        # color 2 has no allowed neighbors, so it never appears
        g = ConstraintGraph(3, (0b011, 0b011, 0b000), ("a", "b", "c"))
        t = TorusGraph(2, 2)
        with pytest.raises(ZeroDenominator):
            influence_ratio(t, g, W3, 0, 2, 3, 0)

    def test_antipode(self):
        assert antipode(TorusGraph(2, 2)) == 3
        assert antipode(TorusGraph(2, 3)) == 7
        assert antipode(TorusGraph(4, 2)) == TorusGraph(4, 2).encode((2, 2))

    def test_far_vertex(self):
        q3 = TorusGraph(2, 3)
        assert far_vertex(q3, "odd") == antipode(q3)
        assert far_vertex(q3, "even") == 3  # distance 2, smallest index
        q4 = TorusGraph(2, 4)
        assert far_vertex(q4, "even") == antipode(q4)
        assert far_vertex(q4, "odd") == 7
        c4 = TorusGraph(4, 1)
        assert far_vertex(c4, "even") == 2
        assert far_vertex(c4, "odd") == 1

    def test_far_vertex_matches_breadth_first_search(self):
        # every torus with m in {2, 4, 6, 8} and at most 40,000 vertices
        tori = [
            TorusGraph(m, d)
            for m in (2, 4, 6, 8)
            for d in range(1, 16)
            if m**d <= 40_000
        ]
        assert len(tori) == 15 + 7 + 5 + 5
        for t in tori:
            for side in ("even", "odd"):
                assert far_vertex(t, side) == far_vertex_bfs(t, side), (t, side)

    def test_occupation_vector_sums_to_one(self):
        t = TorusGraph(2, 3)
        w = WeightSet.parse("1,2,1")
        vec = exact_occupation_vector(t, WR, w)
        assert sum(vec) == 1

    def test_sup_distance(self):
        assert sup_distance(
            (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 3))
        ) == Fraction(1, 4)
        with pytest.raises(ValueError):
            sup_distance((1,), (1, 2))

    def test_conditional_comparison_record(self):
        rec = conditional_comparison(
            TorusGraph(2, 3), K3, W3, "same-side", 0
        )
        assert rec.exact == (
            Fraction(13, 19),
            Fraction(3, 19),
            Fraction(3, 19),
        )
        assert rec.target == (
            Fraction(2, 3),
            Fraction(1, 6),
            Fraction(1, 6),
        )
        assert rec.distance == Fraction(1, 57)

    def test_occupation_comparison_record(self):
        rec = occupation_comparison(TorusGraph(2, 2), WR, W3)
        assert rec.distance == Fraction(1, 70)

    def test_hard_core_antipodal_distances(self):
        # measured exact values, pinned as regressions; the sequence
        # rises, so no monotone-approach assertion is available here
        got = []
        for d in (2, 3, 4):
            t = TorusGraph(2, d)
            y = antipode(t)
            rel = "same-side" if t.parity(y) == 0 else "cross-side"
            got.append(conditional_comparison(t, IND, W2, rel, 0, y=y).distance)
        assert got == [0, Fraction(1, 9), Fraction(49, 354)]

    def test_comparison_json_shape(self):
        rec = conditional_comparison(TorusGraph(2, 2), K3, W3, "same-side", 0)
        j = rec.to_json_dict()
        assert j["d_inf_distance"] == ["0", "1"]
        assert j["target"][0] == ["2", "3"]
        assert list(j) == ["label", "target", "exact", "d_inf_distance"]

    def test_explicit_target_override(self):
        rec = conditional_comparison(
            TorusGraph(2, 2),
            WR,
            W3,
            "cross-side",
            0,
            target=(Fraction(0), Fraction(1, 2), Fraction(1, 2)),
        )
        assert rec.distance == Fraction(1, 2)


class TestConjectureL:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_hard_core_closed_form(self, d):
        t = TorusGraph(2, d)
        pair = MaximalPair(mask_from((0, 1)), mask_from((1,)))
        assert conjecture_L(IND, W2, pair, t) == Fraction(1, 2 ** (d + 1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coloring_closed_form(self, d):
        t = TorusGraph(2, d)
        pair = MaximalPair(mask_from((0,)), mask_from((1, 2)))
        assert conjecture_L(K3, W3, pair, t) == Fraction(1, 2**d)

    def test_fully_looped_is_zero(self):
        g = preset("k4loop")
        w = WeightSet.ones(4)
        pair = MaximalPair(g.full_mask, g.full_mask)
        assert conjecture_L(g, w, pair, TorusGraph(2, 3)) == 0

    def test_wide_torus_uses_full_degree(self):
        # m=4 doubles the degree, so the palette weight enters squared
        t = TorusGraph(4, 1)
        pair = MaximalPair(mask_from((0, 1)), mask_from((1,)))
        assert t.degree == 2
        assert conjecture_L(IND, W2, pair, t) == Fraction(1, 8)

    def test_weighted_hard_core(self):
        w = WeightSet.parse("3/2,1")
        pair = MaximalPair(mask_from((0, 1)), mask_from((1,)))
        assert conjecture_L(IND, w, pair, TorusGraph(2, 2)) == Fraction(3, 25)

    def test_non_maximal_pair_rejected(self):
        with pytest.raises(ValueError):
            conjecture_L(
                IND, W2, MaximalPair(mask_from((1,)), mask_from((1,))),
                TorusGraph(2, 2),
            )


class TestPredictions:
    def test_hard_core_prediction(self):
        pp = conjecture_partition_prediction(IND, W2, TorusGraph(2, 3))
        assert pp.prefactor_model == "2*sqrt(e)"
        assert len(pp.predictions) == 2
        for p in pp.predictions:
            assert p.base == 2
            assert p.half_volume == 4
            assert p.correction_exponent == Fraction(1, 2)
            assert _exp_string(p.correction_exponent) == "sqrt(e)"
        assert pp.total() == pytest.approx(2 * math.sqrt(math.e) * 2**4)

    def test_coloring_prediction(self):
        pp = conjecture_partition_prediction(K3, W3, TorusGraph(2, 2))
        assert pp.prefactor_model == "6e"
        assert pp.total() == pytest.approx(6 * math.e * 4)

    def test_fully_looped_prediction_is_exact(self):
        g = preset("k4loop")
        w = WeightSet.ones(4)
        t = TorusGraph(2, 3)
        pp = conjecture_partition_prediction(g, w, t)
        assert pp.prefactor_model == "1"
        assert pp.total() == 65536
        assert pp.total() == float(transfer_matrix_partition_function(t, g, w).z)

    @pytest.mark.parametrize(
        "name, h, weights",
        [
            ("ind", 2, None),
            ("k3", 3, None),
            ("wr", 3, None),
            ("k4loop", 4, None),
            ("ind", 2, "3/2,1"),
            ("wr", 3, "1,2,1"),
        ],
    )
    def test_leading_term_is_the_pure_weight(self, name, h, weights):
        g = preset(name)
        w = WeightSet.ones(h) if weights is None else WeightSet.parse(weights)
        t = TorusGraph(2, 3)
        for pred in conjecture_partition_prediction(g, w, t).predictions:
            pure = pure_coloring_weight(g, w, pred.pair, t)
            assert pred.base**pred.half_volume == pure
            assert pred.value() >= float(pure)

    def test_negative_correction_rejected(self):
        with pytest.raises(ValueError):
            ConjecturePrediction(
                pair=MaximalPair(1, 2),
                base=Fraction(2),
                half_volume=2,
                correction_exponent=Fraction(-1, 2),
            )

class TestColoringCountConjecture:
    def test_f_values(self):
        assert conjecture_f_q(2, 5) == 0
        assert conjecture_f_q(3, 7) == 1
        assert conjecture_f_q(4, 9) == 1
        assert conjecture_f_q(5, 3) == Fraction(19, 9)
        assert conjecture_f_q(6, 3) == Fraction(64, 27)

    def test_f_five_formula(self):
        for d in (1, 2, 3, 4):
            assert conjecture_f_q(5, d) == Fraction(3, 4) * Fraction(
                4, 3
            ) ** d + Fraction(1, 3)

    def test_two_colorings_prediction_is_exact(self):
        # a connected bipartite graph has exactly two proper 2-colorings,
        # and the predictor already lands on 2 at every d
        for d in (2, 3):
            cp = coloring_count_prediction(2, d)
            assert cp.pair_count == 2 and cp.base == 1
            assert cp.value() == 2
            t = TorusGraph(2, d)
            g = preset("kq:2")
            assert transfer_matrix_partition_function(t, g, WeightSet.ones(2)).z == 2

    def test_three_colorings_prefactor(self):
        cp = coloring_count_prediction(3, 4)
        assert cp.pair_count == 6
        assert cp.base == 2
        assert cp.prefactor_model == "6e"
        assert cp.value() == pytest.approx(6 * math.e * 2**8)

    def test_four_colorings_small_square(self):
        # the prediction is asymptotic; at d=2 the exact count is far
        # below it, so only the exact value is asserted
        cp = coloring_count_prediction(4, 2)
        assert cp.value() == pytest.approx(96 * math.e)
        t = TorusGraph(2, 2)
        g = preset("kq:4")
        assert transfer_matrix_partition_function(t, g, WeightSet.ones(4)).z == 84

    def test_five_colorings_model_string(self):
        cp = coloring_count_prediction(5, 3)
        assert cp.pair_count == 20
        assert cp.prefactor_model == "20*exp(19/9)"

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_consistency_with_class_term(self, q, d):
        assert consistency_L_vs_f(q, d)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            conjecture_f_q(1, 3)
        with pytest.raises(ValueError):
            coloring_count_prediction(3, 0)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["ind", "k3", "k4", "wr", "k4loop"]),
    num=st.lists(st.integers(1, 5), min_size=5, max_size=5),
)
def test_target_vectors_are_distributions(name, num):
    g = preset(name)
    w = WeightSet(tuple(Fraction(x, 2) for x in num[: g.h]))
    if equipartition_class(g, w) == "unknown":
        return
    assert sum(theorem_occupation_vector(g, w)) == 1
    for rel in ("same-side", "cross-side"):
        for ell in range(g.h):
            try:
                vec = theorem_conditional_vector(g, w, rel, ell)
            except ZeroConditioning:
                continue
            assert sum(vec) == 1
            assert all(x >= 0 for x in vec)


def _image(perm, mask):
    return sum(1 << perm[k] for k in range(len(perm)) if mask >> k & 1)


def _class_from_whole_group(g, w):
    """The class as found by listing every automorphism: the first pair's
    orbit is its image set together with the image set of its swap."""
    pairs = instance_structure(g, w).pairs
    mset = set(pairs)
    if len(mset) == 1:
        return "singleton"
    if len(mset) == 2:
        p, q = mset
        if p.a == q.b and p.b == q.a:
            return "two-class-swap"
    first = pairs[0]
    images = {
        MaximalPair(_image(pi, a), _image(pi, b))
        for pi in automorphisms(g, w)
        for a, b in ((first.a, first.b), (first.b, first.a))
    }
    return "transitive" if images == mset else "unknown"


@st.composite
def _instances(draw):
    h = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["edges", "circulant", "copies"]))
    adj = [0] * h
    if kind == "circulant":
        # i ~ j iff j - i mod h lies in a symmetric offset set, so the
        # rotations (and more) are automorphisms
        offsets = draw(st.sets(st.integers(0, h - 1), min_size=1))
        offsets |= {-o % h for o in offsets}
        for i in range(h):
            for o in offsets:
                adj[i] |= 1 << (i + o) % h
    else:
        # "copies" repeats one random graph on b colors as disjoint blocks
        # (plus isolated leftovers): a wreath product, whose stabilizer
        # chain needs several generators at one level
        b = draw(st.integers(1, min(3, h))) if kind == "copies" else h
        edges = draw(st.lists(
            st.tuples(st.integers(0, b - 1), st.integers(0, b - 1)),
            min_size=1, max_size=b * (b + 1) // 2,
        ))
        for start in range(0, h - b + 1, b):
            for i, j in edges:
                adj[start + i] |= 1 << (start + j)
                adj[start + j] |= 1 << (start + i)
    weights = draw(st.one_of(
        st.just((1,) * h),
        st.lists(st.integers(1, 3), min_size=h, max_size=h),
    ))
    return ConstraintGraph(h, tuple(adj)), WeightSet(tuple(weights))


@settings(max_examples=150, deadline=None)
@given(inst=_instances())
def test_orbit_from_generators_matches_whole_group(inst):
    g, w = inst
    assert equipartition_class(g, w) == _class_from_whole_group(g, w)

    group = set(automorphisms(g, w))
    listing = _PermutationSearch(g, w)
    assert len(list(listing.extensions())) == len(group)
    found = automorphism_generators(g, w)
    assert found.nodes <= listing.nodes  # disjoint subtrees of the listing
    gens = found.perms
    closed = {tuple(range(g.h))}
    todo = list(closed)
    while todo:
        p = todo.pop()
        for s in gens:
            q = tuple(s[p[k]] for k in range(g.h))
            if q not in closed:
                closed.add(q)
                todo.append(q)
    assert closed == group
