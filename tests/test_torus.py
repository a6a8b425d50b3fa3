import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushom.sampler import _component_roots
from torushom.torus import TorusGraph
from references import decode, giant_component


class TestConstruction:
    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            TorusGraph(3, 2)

    def test_bad_d_rejected(self):
        with pytest.raises(ValueError):
            TorusGraph(4, 0)

    @pytest.mark.parametrize("m,d,deg", [(2, 1, 1), (2, 3, 3), (4, 2, 4), (6, 1, 2)])
    def test_degree(self, m, d, deg):
        t = TorusGraph(m, d)
        assert t.degree == deg
        assert all(len(t.neighbors(v)) == deg for v in range(t.n))

    def test_codec_examples(self):
        t = TorusGraph(4, 2)
        assert t.encode((1, 2)) == 6
        assert decode(t, 6) == (1, 2)
        assert t.encode((0, 0)) == 0

    def test_codec_roundtrip_exhaustive(self):
        for m, d in [(2, 4), (4, 2), (6, 2), (2, 1)]:
            t = TorusGraph(m, d)
            for v in range(t.n):
                assert t.encode(decode(t, v)) == v


class TestNeighbors:
    def test_m4_order(self):
        t = TorusGraph(4, 2)
        got = [decode(t, u) for u in t.neighbors(t.encode((0, 0)))]
        assert got == [(3, 0), (1, 0), (0, 3), (0, 1)]

    def test_m2_dedup(self):
        t = TorusGraph(2, 3)
        got = [decode(t, u) for u in t.neighbors(t.encode((0, 0, 0)))]
        assert got == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_m2_d1_single_edge(self):
        t = TorusGraph(2, 1)
        assert t.neighbors(0) == (1,)
        assert t.num_edges == 1

    def test_symmetry(self):
        for t in (TorusGraph(4, 2), TorusGraph(2, 4), TorusGraph(6, 1)):
            for u in range(t.n):
                for v in t.neighbors(u):
                    assert u in t.neighbors(v)

    def test_edge_count(self):
        for t in (TorusGraph(4, 2), TorusGraph(2, 3), TorusGraph(6, 2)):
            assert len(list(t.edges())) == t.num_edges


class TestBipartition:
    def test_m2d2(self):
        t = TorusGraph(2, 2)
        even, odd = t.side_table
        assert {decode(t, v) for v in even} == {(0, 0), (1, 1)}
        assert {decode(t, v) for v in odd} == {(0, 1), (1, 0)}

    def test_m4d1(self):
        t = TorusGraph(4, 1)
        even, odd = t.side_table
        assert even == (0, 2) and odd == (1, 3)

    @pytest.mark.parametrize("m,d", [(2, 2), (2, 3), (4, 2), (4, 3), (6, 2), (2, 5)])
    def test_every_edge_crosses(self, m, d):
        t = TorusGraph(m, d)
        assert t.n <= 4096
        even, odd = t.side_table
        assert len(even) == len(odd) == t.n // 2
        for u, v in t.edges():
            assert t.parity(u) != t.parity(v)


def roots_of(t, kept) -> list[int]:
    """The block component routine on a block of one kept-edge vector."""
    return _component_roots(t, np.array([kept], dtype=bool))[0].tolist()


def largest(t, kept) -> int:
    return max(Counter(roots_of(t, kept)).values())


class TestGiantComponent:
    def test_no_deletion(self):
        t = TorusGraph(4, 2)
        roots = roots_of(t, [True] * t.num_edges)
        assert roots == [0] * t.n

    def test_all_edges_of_c4(self):
        t = TorusGraph(2, 2)
        roots = roots_of(t, [False] * t.num_edges)
        assert roots == list(range(t.n))

    def test_isolate_two_vertices(self):
        t = TorusGraph(4, 2)
        lone = {t.encode((0, 0)), t.encode((2, 2))}
        kept = [not lone & set(e) for e in t.edge_table]
        assert kept.count(False) == 8
        assert largest(t, kept) == 14
        roots = roots_of(t, kept)
        assert roots[t.encode((2, 2))] == t.encode((2, 2))
        assert sorted(set(roots)) == [0, 1, t.encode((2, 2))]


class TestAudits:
    def test_component_bound_after_deletion(self):
        # if |D|^d * 4^(d-1) < m^(d(d-1)) then the surviving giant covers
        # all but at most n * (m|D|/n)^(d/(d-1)) vertices
        rng = random.Random(7)
        for m, d in [(4, 2), (2, 3), (4, 3), (6, 2)]:
            t = TorusGraph(m, d)
            all_edges = list(t.edges())
            for trial in range(20):
                k = rng.randint(0, max(1, t.n // 8))
                dele = rng.sample(all_edges, min(k, len(all_edges)))
                nd = len(dele)
                if nd**d * 4 ** (d - 1) >= m ** (d * (d - 1)):
                    continue
                gone = set(dele)
                size = largest(t, [e not in gone for e in all_edges])
                assert (t.n - size) ** (d - 1) <= nd**d


@given(
    md=st.sampled_from([(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (6, 1)]),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_property_codec_and_shift(md, data):
    m, d = md
    t = TorusGraph(m, d)
    v = data.draw(st.integers(0, t.n - 1))
    assert t.encode(decode(t, v)) == v
    coord = data.draw(st.integers(1, d))
    step = data.draw(st.integers(-m, m))
    u = t.shift(v, coord, step)
    cu, cv = decode(t, u), decode(t, v)
    assert cu[coord - 1] == (cv[coord - 1] + step) % m
    assert all(cu[i] == cv[i] for i in range(d) if i != coord - 1)


@given(
    md=st.sampled_from([(2, 1), (2, 3), (4, 2), (4, 3), (6, 2)]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_kept_mask_components_match_deletion(md, data):
    t = TorusGraph(*md)
    kept = data.draw(st.lists(st.booleans(), min_size=t.num_edges, max_size=t.num_edges))
    best, root, comp = giant_component(t, np.array(kept))
    sizes = [comp.count(c) for c in range(max(comp) + 1)]
    assert best == max(sizes) and root == sizes.index(best)
    # ids follow the lowest vertex of each component
    assert [comp.index(c) for c in range(len(sizes))] == sorted(
        comp.index(c) for c in range(len(sizes))
    )
    for (u, v), k in zip(t.edge_table, kept):
        if k:
            assert comp[u] == comp[v]
    # the block routine names each component by its lowest vertex
    assert roots_of(t, kept) == [comp.index(c) for c in comp]


@given(
    md=st.sampled_from([(2, 1), (2, 2), (2, 3), (4, 2), (4, 3), (6, 2)]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_block_components_match_the_search_row_by_row(md, data):
    # rows from all-dropped to all-kept, so paths, cycles and the whole
    # torus all appear as components
    t = TorusGraph(*md)
    rows = data.draw(st.lists(
        st.tuples(st.floats(0, 1), st.randoms(use_true_random=False)),
        min_size=1, max_size=6,
    ))
    kept = np.array([[r.random() < p for _ in range(t.num_edges)] for p, r in rows])
    roots = _component_roots(t, kept)
    assert roots.shape == (len(kept), t.n)
    for row, got in zip(kept, roots.tolist()):
        best, root, comp = giant_component(t, row)
        assert got == [comp.index(c) for c in comp]
        sizes = Counter(got)
        assert max(sizes.values()) == best
        # the first largest component by lowest vertex is the search's
        assert min(v for v, z in sizes.items() if z == best) == comp.index(root)


def test_arrays_mirror_the_tables():
    t = TorusGraph(4, 3)
    assert t.neighbor_array.T.tolist() == [list(r) for r in t.neighbor_table]
    assert t.edge_array.T.tolist() == [list(e) for e in t.edge_table]
    assert t.side_array.tolist() == [list(side) for side in t.side_table]
    assert not t.side_array.flags.writeable
    for v in range(t.n):
        for u, e in zip(t.neighbor_array[:, v], t.incidence_array[:, v]):
            assert set(t.edge_table[e]) == {v, u}
    assert not t.neighbor_array.flags.writeable
