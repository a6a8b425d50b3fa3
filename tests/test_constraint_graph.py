import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushom import constraint_graph
from torushom.constraint_graph import (
    ConstraintGraph,
    MaximalPair,
    WeightSet,
    apply_perm_to_mask,
    automorphism_generators,
    automorphisms,
    blowup,
    check_blowup_pair_bijection,
    common_neighborhood,
    complete_graph,
    complete_looped_graph,
    cycle_graph,
    disjoint_union,
    hard_core_graph,
    instance_structure,
    mask_from,
    mask_members,
    parse_json,
    parse_text,
    path_graph,
    preset,
    subset_weight,
    widom_rowlinson_graph,
)
from torushom.errors import CapExceeded, EmptyConstraint, ParseError
from references import all_adjacent, block_sizes

IND = hard_core_graph()
K3 = complete_graph(3)
WR = widom_rowlinson_graph()
K4L = complete_looped_graph(4)

# H_ind colors: 0 = in, 1 = out
IN, OUT = 0, 1


def ones(g):
    return WeightSet.ones(g.h)


class TestAdjacencyOps:
    def test_all_adjacent_ind(self):
        assert all_adjacent(IND, mask_from([IN, OUT]), mask_from([OUT]))

    def test_all_adjacent_needs_loop(self):
        assert not all_adjacent(K3, 0b001, 0b001)

    def test_all_adjacent_vacuous(self):
        for g in (IND, K3, WR):
            assert all_adjacent(g, 0, g.full_mask)
            assert all_adjacent(g, 0, 0)

    def test_common_neighborhood_ind(self):
        assert common_neighborhood(IND, mask_from([OUT])) == mask_from([IN, OUT])

    def test_common_neighborhood_k3(self):
        assert common_neighborhood(K3, 0b001) == 0b110

    def test_common_neighborhood_wr_ends(self):
        # colors 1 and 3 share only the middle color
        assert common_neighborhood(WR, 0b101) == 0b010

    def test_common_neighborhood_empty_is_everything(self):
        assert common_neighborhood(K3, 0) == K3.full_mask

    def test_common_neighborhood_of_full_kq(self):
        # nothing is adjacent to all colors including itself (no loops)
        assert common_neighborhood(K3, K3.full_mask) == 0

class TestSubsetWeight:
    def test_sum(self):
        w = WeightSet((Fraction(3, 2), Fraction(1), Fraction(1)))
        assert subset_weight(w, 0b011) == Fraction(5, 2)

    def test_empty(self):
        assert subset_weight(ones(K3), 0) == 0

    def test_full_uniform(self):
        for q in range(2, 9):
            g = complete_graph(q)
            assert subset_weight(ones(g), g.full_mask) == q

    def test_positive_required(self):
        with pytest.raises(ValueError):
            WeightSet((Fraction(0), Fraction(1)))


class TestExtremalPairs:
    def test_hard_core_pairs(self):
        lam = Fraction(7, 3)
        s = instance_structure(IND, WeightSet((lam, Fraction(1))))
        assert s.eta == 1 + lam
        both, out = mask_from([IN, OUT]), mask_from([OUT])
        assert set(s.pairs) == {MaximalPair(both, out), MaximalPair(out, both)}

    @pytest.mark.parametrize("q", range(2, 9))
    def test_kq_pair_count(self, q):
        s = instance_structure(complete_graph(q), WeightSet.ones(q))
        assert s.eta == (q // 2) * ((q + 1) // 2)
        expected = (1 + q % 2) * math.comb(q, q // 2)
        assert len(s.pairs) == expected

    def test_k5_eta(self):
        s = instance_structure(complete_graph(5), WeightSet.ones(5))
        assert s.eta == 6 and len(s.pairs) == 20

    def test_wr_pairs(self):
        s = instance_structure(WR, ones(WR))
        assert s.eta == 4
        a, b = 0b011, 0b110  # {1,2} and {2,3}
        assert set(s.pairs) == {MaximalPair(a, a), MaximalPair(b, b)}

    def test_k4loop_single_pair(self):
        s = instance_structure(K4L, ones(K4L))
        assert s.eta == 16
        assert s.pairs == (MaximalPair(K4L.full_mask, K4L.full_mask),)

    def test_pair_structure_invariants(self):
        for g, w in [
            (IND, WeightSet((Fraction(5, 4), Fraction(1)))),
            (K3, ones(K3)),
            (WR, ones(WR)),
            (K3, WeightSet((Fraction(3, 2), Fraction(1), Fraction(1)))),
            (cycle_graph(5), WeightSet.ones(5)),
        ]:
            s = instance_structure(g, w)
            seen = set()
            for a, b in s.pairs:
                assert all_adjacent(g, a, b)
                assert common_neighborhood(g, a) == b
                assert common_neighborhood(g, b) == a
                assert subset_weight(w, a) * subset_weight(w, b) == s.eta
                seen.add((a, b))
            # swap closure: (B,A) is always a maximizer too
            assert all((b, a) in seen for a, b in seen)
            # strictness off the maximizing set
            for a in range(1, 1 << g.h):
                for b in range(1, 1 << g.h):
                    if all_adjacent(g, a, b) and (a, b) not in seen:
                        assert subset_weight(w, a) * subset_weight(w, b) < s.eta

    def test_no_edges_rejected(self):
        bare = ConstraintGraph(3, (0, 0, 0))
        with pytest.raises(EmptyConstraint):
            instance_structure(bare, WeightSet.ones(3))

    def test_color_cap(self):
        n = 25
        g = ConstraintGraph(n, ((1 << n) - 1,) * n)
        with pytest.raises(CapExceeded):
            instance_structure(g, WeightSet.ones(n))

    def test_scale_invariance(self):
        w = WeightSet((Fraction(3, 2), Fraction(1), Fraction(1)))
        s = instance_structure(K3, w)
        scaled = WeightSet(tuple(x * Fraction(7, 5) for x in w.weights))
        s2 = instance_structure(K3, scaled)
        assert s2.eta == s.eta * Fraction(7, 5) ** 2
        assert s2.pairs == s.pairs

    def test_automorphism_symmetry(self):
        for g, w in [(K3, ones(K3)), (WR, ones(WR)), (IND, ones(IND))]:
            pair_set = {(p.a, p.b) for p in instance_structure(g, w).pairs}
            for perm in automorphisms(g, w):
                mapped = {
                    (apply_perm_to_mask(perm, a), apply_perm_to_mask(perm, b))
                    for a, b in pair_set
                }
                assert mapped == pair_set


class TestSupportFamily:
    def test_ind(self):
        fam = [p.a for p in instance_structure(IND, ones(IND)).pairs]
        assert fam == [mask_from([OUT]), mask_from([IN, OUT])]

    def test_k3_all_singletons_and_doubletons(self):
        fam = [p.a for p in instance_structure(K3, ones(K3)).pairs]
        assert fam == [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]

    def test_k4loop(self):
        fam = [p.a for p in instance_structure(K4L, ones(K4L)).pairs]
        assert fam == [K4L.full_mask]


class TestBlowup:
    def test_k3_with_three_halves(self):
        w = WeightSet((Fraction(3, 2), Fraction(1), Fraction(1)))
        bu = blowup(K3, w)
        assert bu.scale_c == 2
        assert block_sizes(bu) == (3, 2, 2)
        assert check_blowup_pair_bijection(K3, w)

    def test_identity_blowup(self):
        bu = blowup(WR, ones(WR))
        assert bu.scale_c == 1
        assert bu.graph.adj == WR.adj

    def test_ind_thirds(self):
        w = WeightSet((Fraction(1, 3), Fraction(1, 2)))
        bu = blowup(IND, w)
        assert bu.scale_c == 6
        assert block_sizes(bu) == (2, 3)
        assert len(instance_structure(bu.graph, WeightSet.ones(bu.graph.h)).pairs) == 2
        assert check_blowup_pair_bijection(IND, w)

    def test_eta_scales_by_c_squared(self):
        for g, w in [
            (IND, WeightSet((Fraction(3, 4), Fraction(1)))),
            (WR, WeightSet((Fraction(1, 2), Fraction(1), Fraction(1, 2)))),
            (K3, WeightSet((Fraction(3, 2), Fraction(1), Fraction(1)))),
        ]:
            eta = instance_structure(g, w).eta
            bu = blowup(g, w)
            beta = instance_structure(bu.graph, WeightSet.ones(bu.graph.h)).eta
            assert beta == eta * bu.scale_c**2
            assert check_blowup_pair_bijection(g, w)

    def test_loop_blocks_fully_looped(self):
        w = WeightSet((Fraction(1), Fraction(1, 2)))
        bu = blowup(IND, w)
        for v in range(bu.graph.h):
            if bu.block_of[v] == OUT:
                assert bu.graph.is_loop(v)
            else:
                assert not bu.graph.is_loop(v)


class TestAutomorphisms:
    def test_k3_count(self):
        assert len(list(automorphisms(K3))) == 6

    def test_wr_count(self):
        perms = list(automorphisms(WR))
        assert len(perms) == 2  # identity and the end-swap
        assert (2, 1, 0) in perms

    def test_weights_can_break_symmetry(self):
        w = WeightSet((Fraction(2), Fraction(1), Fraction(1)))
        perms = list(automorphisms(K3, w))
        assert len(perms) == 2  # only colors 1 and 2 may swap

    def test_ind_rigid(self):
        assert list(automorphisms(IND)) == [(0, 1)]

    def test_generators_of_small_groups(self):
        assert automorphism_generators(IND).perms == ()
        assert automorphism_generators(WR).perms == ((2, 1, 0),)
        # one generator per stabilizer level of S_6, not its 720 elements
        assert len(automorphism_generators(preset("kq:6")).perms) == 5


class TestPresetsAndParsing:
    def test_presets(self):
        assert preset("ind").adj == IND.adj
        assert preset("kq:5").h == 5
        assert preset("k5").h == 5
        assert preset("wr").adj == WR.adj
        assert preset("k4loop").adj == K4L.adj
        assert preset("cycle:6").h == 6
        assert preset("path:3").h == 3

    def test_preset_union(self):
        g = preset("ind+kq:3")
        assert g.h == 5
        assert not g.has_edge(0, 2)  # components stay disconnected
        assert g.is_loop(1) and not g.is_loop(3)

    def test_unknown_preset(self):
        with pytest.raises(ParseError):
            preset("mystery")

    def test_text_roundtrip(self):
        text = """
        colors 3
        w 0 3/2
        e 0 1
        e 1 1
        e 1 2
        """
        g, w = parse_text(text)
        assert g.h == 3
        assert g.is_loop(1) and not g.is_loop(0)
        assert w[0] == Fraction(3, 2) and w[1] == 1

    def test_text_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_text("colors 2\ne 0 5")
        with pytest.raises(ParseError, match="line 1"):
            parse_text("colours 2")
        with pytest.raises(ParseError, match="header"):
            parse_text("e 0 1")

    def test_json(self):
        g, w = parse_json(
            '{"colors": 2, "weights": ["1", "1/2"], "edges": [[0, 1], [1, 1]]}'
        )
        assert g.adj == IND.adj
        assert w[1] == Fraction(1, 2)

    def test_json_errors(self):
        with pytest.raises(ParseError):
            parse_json('{"edges": []}')


class TestGraphValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            ConstraintGraph(2, (0b10, 0b00))

    def test_many_colors_checked_over_set_bits(self):
        # h^2 pair checks would take minutes at 10^5 colors
        h = 10**5
        g = ConstraintGraph(h, (0,) * h)
        assert g.h == h and not any(g.adj)
        one_way = (1 << (h - 1),) + (0,) * (h - 1)
        with pytest.raises(ValueError, match="not symmetric"):
            ConstraintGraph(h, one_way)
        with pytest.raises(ValueError, match="references colors"):
            ConstraintGraph(h, (1 << h,) + (0,) * (h - 1))

    def test_symmetry_check_walks_no_row_past_max_colors_with_mask_members(
        self, monkeypatch
    ):
        # each step of mask_members is a big-int operation over a wide row
        def walk(mask):
            raise AssertionError("mask_members walked an adjacency row")

        monkeypatch.setattr(constraint_graph, "mask_members", walk)
        g = complete_graph(300)
        assert g.has_edge(0, 299) and not g.is_loop(150)
        one_way = list(g.adj)
        one_way[7] ^= 1 << 200
        with pytest.raises(ValueError, match="not symmetric"):
            ConstraintGraph(300, tuple(one_way))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_symmetry_check_matches_every_pair(self, data):
        # up to MAX_COLORS = 16 the set bits are walked; past it rows of up
        # to 70 colors span several bytes, and flipped bits may land in a
        # row shorter than the byte they read
        h = data.draw(st.integers(1, 70))
        pair = st.tuples(st.integers(0, h - 1), st.integers(0, h - 1))
        adj = [0] * h
        for i, j in data.draw(st.lists(pair, max_size=60)):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        for i, j in data.draw(st.lists(pair, max_size=3)):
            adj[i] ^= 1 << j
        symmetric = all(
            (adj[i] >> j & 1) == (adj[j] >> i & 1) for i in range(h) for j in range(h)
        )
        if symmetric:
            assert ConstraintGraph(h, tuple(adj)).adj == tuple(adj)
        else:
            with pytest.raises(ValueError, match="not symmetric"):
                ConstraintGraph(h, tuple(adj))

    def test_cycle_path(self):
        c5 = cycle_graph(5)
        assert sum(bin(a).count("1") for a in c5.adj) == 10
        p3 = path_graph(3)
        assert p3.adj == (0b010, 0b101, 0b010)

    def test_disjoint_union_adjacency(self):
        g = disjoint_union(IND, K3)
        assert g.h == 5
        assert g.has_edge(0, 1) and g.has_edge(2, 3)
        assert not any(g.has_edge(i, j) for i in (0, 1) for j in (2, 3, 4))


# ------------------------------------------------------------ properties

small_graphs = st.integers(min_value=2, max_value=5).flatmap(
    lambda h: st.lists(
        st.tuples(st.integers(0, h - 1), st.integers(0, h - 1)),
        min_size=1,
        max_size=h * (h + 1) // 2,
    ).map(lambda edges: _graph_from_edges(h, edges))
)


def _graph_from_edges(h, edges):
    adj = [0] * h
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return ConstraintGraph(h, tuple(adj))


small_weights = st.integers(min_value=2, max_value=5).flatmap(
    lambda h: st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=4),
        min_size=h,
        max_size=h,
    ).map(lambda ws: WeightSet(tuple(ws)))
)


@given(g=small_graphs, data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_maximizers_are_neighborhood_pairs(g, data):
    ws = data.draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4),
                         max_denominator=4),
            min_size=g.h,
            max_size=g.h,
        )
    )
    w = WeightSet(tuple(ws))
    try:
        s = instance_structure(g, w)
    except EmptyConstraint:
        assert not any(g.adj)
        return
    assert s.eta > 0
    for a, b in s.pairs:
        assert common_neighborhood(g, a) == b
        assert common_neighborhood(g, b) == a
        assert subset_weight(w, a) * subset_weight(w, b) == s.eta
    # scaling leaves the pair set alone and squares eta
    s3 = instance_structure(g, WeightSet(tuple(x * 3 for x in w.weights)))
    assert s3.pairs == s.pairs and s3.eta == s.eta * 9


@given(g=small_graphs)
@settings(max_examples=40, deadline=None)
def test_property_blowup_correspondence(g):
    w = WeightSet(tuple(Fraction(1 + (k % 3), 2) for k in range(g.h)))
    if not any(g.adj):
        return
    assert check_blowup_pair_bijection(g, w)
