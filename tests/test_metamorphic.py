"""Metamorphic properties of the counting routes.

Most properties count, by brute force, two instances that must have the
same partition function (up to a known factor) but that the search meets
in different vertex orders, so its frontiers and the frontier arrays it
sums differ. The maps between the instances (a Gray-code isomorphism, the
Widom-Rowlinson / hard-core bijection, the blow-up, color relabellings and
torus translations) move pins and weights. Two properties need no second
route and run on the transfer route: the Gray-code isomorphism, whose two
sides the transfer route meets at m = 4 (sectors or masked products modulo
primes) and at m = 2 (popcounts on Python ints), and the count into a
disjoint union of targets, the sum of the counts into its parts, also
checked against brute force where the torus is small.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from torushom.constraint_graph import (
    ConstraintGraph,
    WeightSet,
    blowup,
    disjoint_union,
    preset,
)
from torushom.exact import (
    brute_force_partition_function,
    transfer_matrix_partition_function,
)
from torushom.torus import TorusGraph
from references import decode, relabeled

from test_exact import random_instances

SHAPES = [(2, 2), (2, 3), (4, 1), (6, 1), (4, 2)]


def max_colors(shape) -> int:
    # Z_4^2 with four colors is past the brute-force budget (4^16 > 10^8).
    return 3 if shape == (4, 2) else 4


def pin_sets(t: TorusGraph, g: ConstraintGraph):
    return st.dictionaries(
        st.integers(min_value=0, max_value=t.n - 1),
        st.integers(min_value=0, max_value=g.full_mask),
        max_size=3,
    )


def z(t, g, w, pins=None):
    return brute_force_partition_function(t, g, w, pins=pins).z


# Z_4 is the 4-cycle 0-1-2-3 and Q_2 the square 00-01-11-10: the Gray code.
_GRAY = (0, 1, 3, 2)


def cube_image(t: TorusGraph, v: int) -> int:
    """Image in Q_{2d} of vertex v of Z_4^d: each coordinate becomes two bits."""
    out = 0
    for x in decode(t, v):
        out = out * 4 + _GRAY[x]
    return out


def test_gray_map_is_an_isomorphism():
    for d in (1, 2):
        t, q = TorusGraph(4, d), TorusGraph(2, 2 * d)
        image = {cube_image(t, v) for v in range(t.n)}
        edges = {
            frozenset((cube_image(t, u), cube_image(t, v))) for u, v in t.edges()
        }
        assert image == set(range(q.n))
        assert edges == {frozenset(e) for e in q.edges()}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.data())
def test_z4_torus_counts_as_hypercube(d, data):
    # Z_4^1 = Q_2 and Z_4^2 = Q_4; pinned counts give the marginals too.
    t, q = TorusGraph(4, d), TorusGraph(2, 2 * d)
    g, w = data.draw(random_instances(max_h=3))
    pins = data.draw(pin_sets(t, g))
    mapped = {cube_image(t, v): mask for v, mask in pins.items()}
    assert z(t, g, w, pins) == z(q, g, w, mapped)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2]), st.data())
def test_z4_torus_counts_as_hypercube_on_transfer(d, data):
    # Z_4^d counts by sectors, or pinned by masked products, modulo primes
    # once the bound passes 2^62; Q_2d counts by popcounts on Python ints.
    # Weights up to 10^9 check both CRT callers against a route with no
    # modular arithmetic.
    t, q = TorusGraph(4, d), TorusGraph(2, 2 * d)
    g, _ = data.draw(random_instances(max_h=3))
    w = WeightSet(tuple(Fraction(data.draw(st.integers(1, 10**9))) for _ in range(g.h)))
    pins = data.draw(pin_sets(t, g))
    mapped = {cube_image(t, v): mask for v, mask in pins.items()}
    # 3^8 layer states of Q_4 need 3^16 compatibility bits
    torus, cube = (
        transfer_matrix_partition_function(x, g, w, pins=p, budget=10**8)
        for x, p in ((t, pins), (q, mapped))
    )
    assert (torus.method, cube.route) == ("transfer", "bitset")
    assert torus.z == cube.z


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]),
)
def test_widom_rowlinson_is_hard_core_one_dimension_up(d, lam):
    # On a bipartite G, Widom-Rowlinson colorings (outer colors 0 and 2 never
    # adjacent) match the independent sets of the Cartesian product
    # G x K_2 = Q_{d+1}: color 0 at v puts (v, parity(v)) in the set and
    # color 2 puts (v, 1 - parity(v)). So Z_wr(Q_d; lam, 1, lam) = Z_ind(Q_{d+1}; lam).
    wr, ind = preset("wr"), preset("ind")
    z_wr = z(TorusGraph(2, d), wr, WeightSet((lam, Fraction(1), lam)))
    z_ind = z(TorusGraph(2, d + 1), ind, WeightSet((lam, Fraction(1))))
    assert z_wr == z_ind


@settings(max_examples=30, deadline=None)
@given(
    random_instances(max_h=3), st.sampled_from([(2, 1), (2, 2), (4, 1), (6, 1)])
)
def test_blowup_scales_by_c_to_the_n(gw, shape):
    # Up to 18 blow-up colors, so the shapes stay within the brute budget.
    g, w = gw
    t = TorusGraph(*shape)
    bu = blowup(g, w)
    unweighted = z(t, bu.graph, WeightSet.ones(bu.graph.h))
    assert unweighted == bu.scale_c**t.n * z(t, g, w)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SHAPES), st.data())
def test_invariant_under_color_relabelling(shape, data):
    t = TorusGraph(*shape)
    g, w = data.draw(random_instances(max_h=max_colors(shape)))
    perm = data.draw(st.permutations(range(g.h)))
    pins = data.draw(pin_sets(t, g))
    w_perm = [None] * g.h
    for k in range(g.h):
        w_perm[perm[k]] = w[k]

    def move(mask):
        return sum(1 << perm[k] for k in range(g.h) if mask >> k & 1)

    assert z(t, g, w, pins) == z(
        t, relabeled(g, perm), WeightSet(tuple(w_perm)),
        {v: move(mask) for v, mask in pins.items()},
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SHAPES), st.data())
def test_invariant_under_torus_translation(shape, data):
    t = TorusGraph(*shape)
    g, w = data.draw(random_instances(max_h=max_colors(shape)))
    pins = data.draw(pin_sets(t, g))
    step = data.draw(st.tuples(*[st.integers(0, t.m - 1)] * t.d))

    def move(v):
        return t.encode([(x + s) % t.m for x, s in zip(decode(t, v), step)])

    moved = {move(v): mask for v, mask in pins.items()}
    assert z(t, g, w, pins) == z(t, g, w, moved)


def z_transfer(t, g, w, pins=None):
    return transfer_matrix_partition_function(t, g, w, pins=pins).z


@settings(max_examples=40, deadline=None)
@given(
    random_instances(max_h=3),
    random_instances(max_h=3),
    st.sampled_from([(2, 1), (2, 2), (2, 3), (4, 1), (6, 1)]),
    st.data(),
)
def test_disjoint_union_adds_counts(gw1, gw2, shape, data):
    # The torus is connected, so a coloring into H1 + H2 lands in one part:
    # Z(H1 + H2) = Z(H1) + Z(H2), with each pin split between the parts.
    (g1, w1), (g2, w2) = gw1, gw2
    t = TorusGraph(*shape)
    g, w = disjoint_union(g1, g2), WeightSet(w1.weights + w2.weights)
    pins = data.draw(pin_sets(t, g))
    low = {v: mask & g1.full_mask for v, mask in pins.items()}
    high = {v: mask >> g1.h for v, mask in pins.items()}
    whole = z_transfer(t, g, w, pins)
    assert whole == z_transfer(t, g1, w1, low) + z_transfer(t, g2, w2, high)
    assert whole == z(t, g, w, pins)


def test_disjoint_union_adds_counts_on_z4_cubed():
    # past brute force: 19,768,832,143 independent sets and
    # 100,301,050,602 proper 3-colorings of Z_4^3 = Q_6
    t = TorusGraph(4, 3)
    ind, k3, both = (preset(s) for s in ("ind", "k3", "ind+k3"))
    z_ind = z_transfer(t, ind, WeightSet.ones(2))
    z_k3 = z_transfer(t, k3, WeightSet.ones(3))
    assert (z_ind, z_k3) == (19768832143, 100301050602)
    assert z_transfer(t, both, WeightSet.ones(5)) == z_ind + z_k3 == 120069882745
