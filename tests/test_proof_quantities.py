import dataclasses
import hashlib
import json
import math
import re
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torushom.constraint_graph import (
    ConstraintGraph,
    WeightSet,
    instance_structure,
    mask_from,
    mask_members,
    mask_size,
    preset,
)
from torushom import proof_quantities
from torushom.errors import CapExceeded, TorushomError
from torushom.proof_quantities import (
    alternating_tuple,
    identity_corpus,
    verify_extremal_identities,
)
from references import (
    check_alternating_identity,
    cycle_count_g,
    extremal_report_json,
    tuple_neighborhood,
)


def naive_cycle_count(g, sets):
    members = [mask_members(s) for s in sets]
    m = len(sets)
    return sum(
        1
        for combo in product(*members)
        if all(g.has_edge(combo[i], combo[(i + 1) % m]) for i in range(m))
    )


class TestCycleCount:
    def test_k3_alternating_length_four(self):
        g = preset("k3")
        tup = alternating_tuple(mask_from((0,)), mask_from((1, 2)), 4)
        assert cycle_count_g(g, tup) == 4

    def test_empty_set_kills_count(self):
        g = preset("k3")
        assert cycle_count_g(g, (0, mask_from((1, 2)))) == 0

    def test_two_column_counts_edges_once(self):
        g = preset("ind")
        # ({out}, {in,out}): pairs (out,in) and (out,out)
        assert cycle_count_g(g, (mask_from((1,)), mask_from((0, 1)))) == 2

    def test_k3_singleton_complement(self):
        g = preset("k3")
        assert cycle_count_g(g, (mask_from((0,)), mask_from((1, 2)))) == 2

    def test_fully_looped_full_tuple(self):
        g = preset("k4loop")
        assert cycle_count_g(g, (g.full_mask,) * 4) == 256

    def test_exact_past_int64(self):
        # 4^40 = 2^80: the product runs modulo primes, not on int64
        g = preset("k4loop")
        assert cycle_count_g(g, (g.full_mask,) * 40) == 4**40

    @pytest.mark.parametrize("bad", [(), (1,), (1, 2, 3)])
    def test_odd_or_short_tuples_rejected(self, bad):
        g = preset("k3")
        with pytest.raises(ValueError):
            cycle_count_g(g, bad)

    @pytest.mark.parametrize("name", ["ind", "k3", "wr", "k4loop", "path:3"])
    @pytest.mark.parametrize("m", [2, 4])
    def test_matches_naive_enumeration(self, name, m):
        g = preset(name)
        full = g.full_mask
        samples = [full, full >> 1, 1, mask_from((g.h - 1,))]
        for tup in product(samples, repeat=m):
            assert cycle_count_g(g, tup) == naive_cycle_count(g, tup)


class TestTupleNeighborhood:
    def test_k3_alternating(self):
        g = preset("k3")
        tup = alternating_tuple(mask_from((0,)), mask_from((1, 2)), 4)
        assert tuple_neighborhood(g, tup) == alternating_tuple(
            mask_from((1, 2)), mask_from((0,)), 4
        )

    def test_full_set_on_unlooped_complete_graph(self):
        g = preset("k4")
        assert tuple_neighborhood(g, (g.full_mask,) * 2) == (0, 0)

    def test_single_looped_vertex_fixed_point(self):
        g = ConstraintGraph(1, (1,))
        assert tuple_neighborhood(g, (1, 1)) == (1, 1)


class TestAlternatingIdentity:
    # The gap search reads g(alt) g(n alt) off its support table, so
    # identity_checked counts the maximal pairs it found equal to eta^m.
    @pytest.mark.parametrize(
        "name,g", identity_corpus(), ids=[n for n, _ in identity_corpus()]
    )
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_identity_across_corpus(self, name, g, m):
        w = WeightSet.ones(g.h)
        pairs = instance_structure(g, w).pairs
        if name in ("k5", "k6") and m == 6:
            # 20^6 support tuples are past the work cap: the reference checks
            assert check_alternating_identity(g, w, m) == len(pairs)
            return
        assert verify_extremal_identities(g, w, m).identity_checked == len(pairs) >= 1

    def test_identity_count_matches_pair_count(self):
        g = preset("k3")
        assert verify_extremal_identities(g, WeightSet.ones(3), 2).identity_checked == 6
        g = preset("k4loop")
        assert verify_extremal_identities(g, WeightSet.ones(4), 4).identity_checked == 1

    def test_weighted_input_rejected(self):
        g = preset("ind")
        with pytest.raises(ValueError):
            verify_extremal_identities(g, WeightSet.parse("2,1"), 2)

    def test_odd_m_rejected(self):
        g = preset("ind")
        with pytest.raises(ValueError):
            verify_extremal_identities(g, WeightSet.ones(2), 3)

    def test_wrong_eta_fails_the_identity_in_the_sweep(self, monkeypatch):
        g = preset("k3")
        real = instance_structure(g, WeightSet.ones(3))
        wrong = dataclasses.replace(real, eta=real.eta + 1)
        monkeypatch.setattr(proof_quantities, "instance_structure", lambda *_: wrong)
        first = real.pairs[0]
        msg = re.escape(f"identity violated on pair {first}: 16 != 81")
        with pytest.raises(TorushomError, match=msg):
            verify_extremal_identities(g, WeightSet.ones(3), 4)


@pytest.fixture
def family_sweeps(monkeypatch):
    """The family of every table sweep the gap search runs, in call order."""
    families = []
    real = proof_quantities._family_sweep

    def recorded(g, family, alt_forms, m, eta_m):
        families.append(list(family))
        return real(g, family, alt_forms, m, eta_m)

    monkeypatch.setattr(proof_quantities, "_family_sweep", recorded)
    return families


class TestGap:
    def test_k3_gap_is_one_with_singleton_witness(self):
        g = preset("k3")
        rep = verify_extremal_identities(g, WeightSet.ones(3), 2)
        assert rep.eta == 2
        assert rep.delta == 1
        assert rep.delta_is_exact
        assert rep.identity_checked == 6
        assert rep.witnesses[0] == (mask_from((0,)), mask_from((1,)))
        assert len(rep.witnesses) == 12

    def test_hard_core_gap_is_one(self):
        g = preset("ind")
        rep = verify_extremal_identities(g, WeightSet.ones(2), 2)
        assert rep.delta == 1 and rep.delta_is_exact
        assert rep.witnesses == (
            (mask_from((1,)), mask_from((1,))),
            (mask_from((0, 1)), mask_from((0, 1))),
        )

    def test_widom_rowlinson_minimum_lies_outside_support(self):
        # the support-family scan alone gives 7; the true gap is 6
        g = preset("wr")
        rep = verify_extremal_identities(g, WeightSet.ones(3), 2)
        assert rep.delta == 6 and rep.delta_is_exact
        wit = rep.witnesses[0]
        support = {mask_from((0, 1)), mask_from((1, 2))}
        assert any(s not in support for s in wit)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_fully_looped_gap_formula(self, m):
        g = preset("k4loop")
        rep = verify_extremal_identities(g, WeightSet.ones(4), m)
        assert rep.delta == 4 ** (2 * m - 1)
        assert rep.delta_is_exact
        assert rep.identity_checked == 1

    @pytest.mark.parametrize(
        "name,m", [("k4", 2), ("k5", 2), ("k6", 2), ("cycle:5", 2), ("path:3", 2), ("ind+k3", 2)]
    )
    def test_gap_at_least_one(self, name, m):
        g = preset(name)
        rep = verify_extremal_identities(g, WeightSet.ones(g.h), m)
        assert rep.delta >= 1

    def test_m_cap(self):
        # the one cap on m is h^(2m) < 2^62, which keeps the int64 table exact
        g = preset("k16")
        with pytest.raises(CapExceeded, match=r"16\^16 pass int64"):
            verify_extremal_identities(g, WeightSet.ones(16), 8)
        rep = verify_extremal_identities(preset("ind"), WeightSet.ones(2), 10)
        assert rep.delta == 384 and rep.identity_checked == 2

    def test_tiny_work_cap_rejected_up_front(self):
        g = preset("k3")
        with pytest.raises(CapExceeded):
            verify_extremal_identities(g, WeightSet.ones(3), 2, work_cap=10)

    # The four tests below keep the names they had when the cap stopped a
    # branch-and-bound part-way and left only a lower bound on delta. The cap
    # now counts tuples, one product g(T)g(nT) each: a run with
    # |S|^m <= cap < |F|^m sweeps the support and refuses F unswept, so no
    # capped run reports an inexact delta.

    @staticmethod
    def _refused_after_support_sweep(family_sweeps, name, m, cap):
        g = preset(name)
        with pytest.raises(CapExceeded, match="tuples"):
            verify_extremal_identities(g, WeightSet.ones(g.h), m, work_cap=cap)
        support = [p.a for p in instance_structure(g, WeightSet.ones(g.h)).pairs]
        assert family_sweeps == [support]
        assert len(support) ** m <= cap

    def test_capped_branch_and_bound_reports_lower_bound(self, family_sweeps):
        self._refused_after_support_sweep(family_sweeps, "k4loop", 4, 10)
        # uncapped, the delta the old capped run only bounded is exact
        rep = verify_extremal_identities(preset("k4loop"), WeightSet.ones(4), 4)
        assert rep.delta_is_exact and rep.delta == 4**7

    def test_capped_search_forms_at_most_cap_products(self, family_sweeps):
        # 6^6 = 46,656 support tuples fit under 600,000; |F|^6 does not
        self._refused_after_support_sweep(family_sweeps, "k4", 6, 600_000)

    @pytest.mark.parametrize("name,m,cap", [("k4", 4, 10_000), ("wr", 6, 3_000)])
    def test_work_cap_bounds_products_in_branch_and_bound(
        self, family_sweeps, name, m, cap
    ):
        self._refused_after_support_sweep(family_sweeps, name, m, cap)

    @pytest.mark.parametrize("name", ["k5", "k6"])
    def test_default_cap_refuses_at_m6_before_searching(self, family_sweeps, name):
        # 20 support sets: 20^6 tuples is past 2^24
        g = preset(name)
        with pytest.raises(CapExceeded, match=r"20\^6 tuples"):
            verify_extremal_identities(g, WeightSet.ones(g.h), 6)
        # no sweep ran, so no g was formed
        assert family_sweeps == []

    def test_json_shape(self):
        g = preset("ind")
        d = extremal_report_json(verify_extremal_identities(g, WeightSet.ones(2), 2))
        assert set(d) == {
            "eta", "m", "identity_checked", "delta", "delta_is_exact", "witnesses",
        }
        assert d["witnesses"][0] == [[1], [1]]


# SHA-256 of json.dumps(extremal_report_json(report), sort_keys=True),
# recorded before g moved onto the shared product path (k5 at m=4 before
# the support sweep moved onto the half-product table); they pin delta,
# exactness and the witnesses in order. (k6, 2) was recorded again when the
# branch-and-bound began to keep the lexicographically first ties: its old
# digest pinned 32 ties taken in search order and then sorted, which missed
# ({1,2},{0,3,4}) and others (see test_gap_and_witnesses_match_full_enumeration).
GAP_REPORT_DIGESTS = {
    ("ind", 2): "af19ba1f0c98e280caf9c1c582255b6116f791b0a8048363e6f4f2cf37b25c62",
    ("ind", 4): "fd78c20e89b52e0de3b36bb2e163f1a28fc32b66f821547acd05a98f2b43a322",
    ("ind", 6): "e438d49c15563e6d43b6d1c237d52448015acd264fe7c04a56b8dff97e030eaf",
    ("k3", 2): "88a0683c6bf4ac71ae9265284ef897d4e9be69614728e644765007d67a20c4f1",
    ("k3", 4): "1372e49d9beaefac274ca848a709ee94e3fb1ca1b75ff4ca6d07a4facc4f5ebe",
    ("k3", 6): "897d930f310164a65b2f22bc8a6ff2a6461ce8dae140f96659df69aa55d05f3f",
    ("wr", 2): "3189b079ad9f08262c08c79c367eef6e4e1b5a00368901976bbc14a660fd5512",
    ("wr", 4): "8191c98a6da3c3e18db009a06ac7b04af8dd66b5ef8a1f126b781ed41a51c48d",
    ("wr", 6): "877f513e70fb10e2b661136f147bbb0e503a73f137a6f91431de69ff934caf36",
    ("k4loop", 2): "75d64fa739b86e98ae6e11bed567c7a342a9cdc607b5b43710f2cea1bfefbaa4",
    ("k4loop", 4): "6172ffb1fd6c19616fbaf85f2ddaae814bacb83d32b093c0e7b2d97dc34b819b",
    ("k4loop", 6): "8b0568327d324cb15fa2fcc52e5ce82cb1bef4f154cce87ff004e28543ce2b2b",
    ("k4", 2): "3ccf300af170bf876a409a73f1fce24905cf27b5159d6a5fbaa1da0a58337e0c",
    ("k4", 4): "2e44ba57242aba81359d68842938786a5f7829cb59ed6f457c6a2189b89368b7",
    ("k5", 2): "9bac0509ac3389880f7f6b2c3550e491bae03e3169ffb8dbfa3a9447e9012940",
    ("k6", 2): "8399ad31ddc2721dff774643fc81668a0444ee4761cba4e59ca4178c07cb955f",
    ("cycle:5", 2): "513c7d89474ddebf4db386490aaf2ec8338f62d107f24c8e43d33ec8662322b4",
    ("path:3", 2): "b9a29b426229b2a2d7e8877b2d95059bcc1d82bb958865526ac9676644d495b5",
    ("ind+k3", 2): "b068e2e6458d4bb091ee21c483f8ef59f604d07d3d985edb6d1073fd09cf6740",
    ("cycle:5", 4): "074c001fcadca9e1e0943f338f4217b062d5aebafadd872facec4d012c2ebd01",
    ("path:3", 4): "3aa2af56e4d83f9b7f40122409ddcd1017cfc470a7ada817a5fcd404db141f6d",
    ("ind+k3", 4): "6adcb55e2d757ca89bc7b76a9127503c8debbc5f9374c100e7ab22414c162e79",
    ("k5", 4): "acaca95ce835267caafe87d0618d7b6ba4d652b3a5ea6e94e920a01086277e5f",
}


@pytest.mark.parametrize(
    "name,m", sorted(GAP_REPORT_DIGESTS), ids=lambda v: str(v)
)
def test_gap_report_lock(name, m):
    g = preset(name)
    rep = verify_extremal_identities(g, WeightSet.ones(g.h), m)
    doc = json.dumps(extremal_report_json(rep), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == GAP_REPORT_DIGESTS[(name, m)]


# Instances the work cap of the branch-and-bound search left inexact or
# refused: the exact delta, and the lower bound that search reported.
PAST_OLD_CAP = {
    ("k4", 6): (1792, 1024),
    ("k6", 4): (1539, 729),
    ("cycle:5", 6): (24, None),
    ("ind+k3", 6): (24, None),
}
# SHA-256 as in GAP_REPORT_DIGESTS, recorded with the family sweep.
PAST_OLD_CAP_DIGESTS = {
    ("k4", 6): "6269f3d077b3875a19cb5adc6065c666c9fd75b6b7a8a059d038b1bc4b97260b",
    ("k6", 4): "ba04307e1c188b3368a8efaabedb7c531467af019700f4f56483719d05c3d6de",
    ("cycle:5", 6): "1bc75b12f34ff252710076df6ca3a0fb56ab51c337f55f706fae03f923926a4a",
    ("ind+k3", 6): "727cfed33fa09e57d93c35dcf194ca2198da92cca5546f8c6957b63a3c6e9462",
}


@pytest.mark.parametrize("name,m", sorted(PAST_OLD_CAP), ids=lambda v: str(v))
def test_exact_gap_past_old_cap(name, m):
    delta, lower = PAST_OLD_CAP[(name, m)]
    g = preset(name)
    rep = verify_extremal_identities(g, WeightSet.ones(g.h), m)
    assert rep.delta_is_exact and rep.delta == delta
    assert lower is None or rep.delta >= lower
    assert len(rep.witnesses) == proof_quantities._WITNESS_CAP
    doc = json.dumps(extremal_report_json(rep), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == PAST_OLD_CAP_DIGESTS[(name, m)]


def naive_neighborhood(g, s):
    return mask_from(
        y for y in range(g.h) if all(g.has_edge(x, y) for x in mask_members(s))
    )


def naive_gap_report(g, m):
    """(eta, delta, witnesses) over every tuple of color sets in `product`
    order: eta and the maximal pairs from |A| |n(A)| over all A, the
    alternating forms skipped, and the first _WITNESS_CAP tuples reaching
    the largest g(T) g(nT) as the witnesses."""
    sets = range(1 << g.h)
    size = {s: mask_size(s) * mask_size(naive_neighborhood(g, s)) for s in sets}
    eta = max(size.values())
    alt = {
        (a, naive_neighborhood(g, a)) * (m // 2) for a in sets if size[a] == eta
    }
    best, wits = -1, []
    for tup in product(sets, repeat=m):
        if tup in alt:
            continue
        n_tup = tuple(naive_neighborhood(g, s) for s in tup)
        val = naive_cycle_count(g, tup) * naive_cycle_count(g, n_tup)
        if val > best:
            best, wits = val, [tup]
        elif val == best and len(wits) < proof_quantities._WITNESS_CAP:
            wits.append(tup)
    return eta, eta**m - best, wits


@pytest.mark.parametrize(
    "name,m",
    [(name, 2) for name, _ in identity_corpus()]
    + [(name, 4) for name, g in identity_corpus() if g.h <= 3],
)
def test_gap_and_witnesses_match_full_enumeration(name, m):
    g = preset(name)
    rep = verify_extremal_identities(g, WeightSet.ones(g.h), m)
    assert rep.delta_is_exact
    assert (rep.eta, rep.delta, list(rep.witnesses)) == naive_gap_report(g, m)


@st.composite
def graph_and_tuple(draw):
    h = draw(st.integers(min_value=1, max_value=4))
    adj = [0] * h
    for i in range(h):
        for j in range(i, h):
            if draw(st.booleans()):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    m = draw(st.sampled_from([2, 4]))
    tup = tuple(draw(st.integers(min_value=0, max_value=(1 << h) - 1)) for _ in range(m))
    return ConstraintGraph(h, tuple(adj)), tup


@settings(max_examples=80, deadline=None)
@given(graph_and_tuple())
def test_cycle_count_matches_naive(gt):
    g, tup = gt
    assert cycle_count_g(g, tup) == naive_cycle_count(g, tup)


@settings(max_examples=80, deadline=None)
@given(graph_and_tuple())
def test_product_bound_dominates(gt):
    g, tup = gt
    assert cycle_count_g(g, tup) <= math.prod(mask_size(s) for s in tup)


@st.composite
def small_graph_and_m(draw):
    """A graph with an edge or loop on h <= 4 colors at m = 2, or on h <= 3
    colors at m = 4, small enough to enumerate every tuple of color sets."""
    m = draw(st.sampled_from([2, 4]))
    h = draw(st.integers(min_value=1, max_value=4 if m == 2 else 3))
    adj = [0] * h
    for i in range(h):
        for j in range(i, h):
            if draw(st.booleans()):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    assume(any(adj))
    return ConstraintGraph(h, tuple(adj)), m


@settings(max_examples=40, deadline=None)
@given(small_graph_and_m())
def test_gap_report_matches_full_enumeration_on_random_graphs(gm):
    # tuples off the support included: the F sweep must find every one
    # reaching the threshold, and its witnesses in `product` order
    g, m = gm
    rep = verify_extremal_identities(g, WeightSet.ones(g.h), m)
    assert rep.delta_is_exact
    assert (rep.eta, rep.delta, list(rep.witnesses)) == naive_gap_report(g, m)


def per_tuple_sweep(g, family, alt_forms, m, eta_m):
    """The table sweep as one g(T) g(nT) per tuple, in `product` order."""
    best, wits = None, []
    for tup in product(family, repeat=m):
        val = cycle_count_g(g, tup) * cycle_count_g(g, tuple_neighborhood(g, tup))
        if tup in alt_forms:
            if val != eta_m:
                raise TorushomError(f"identity violated on {tup}: {val} != {eta_m}")
            continue
        if best is None or val > best:
            best, wits = val, [tup]
        elif val == best and len(wits) < proof_quantities._WITNESS_CAP:
            wits.append(tup)
    return best, wits


SWEEP_TUPLE_CAP = 2_000


@st.composite
def sweep_case(draw):
    """A graph on h <= 5 colors, an m whose support sweep fits
    SWEEP_TUPLE_CAP, and a block of whole table rows that splits the
    |S|^(m/2) rows into at least 3 blocks."""
    h = draw(st.integers(min_value=1, max_value=5))
    adj = [0] * h
    for i in range(h):
        for j in range(i, h):
            if draw(st.booleans()):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    assume(any(adj))
    g = ConstraintGraph(h, tuple(adj))
    pairs = instance_structure(g, WeightSet.ones(h)).pairs
    s = len({p.a for p in pairs})
    ms = [m for m in (2, 4, 6) if s**m <= SWEEP_TUPLE_CAP and s ** (m // 2) >= 3]
    assume(ms)
    m = draw(st.sampled_from(ms))
    half = s ** (m // 2)
    rows = draw(st.integers(min_value=1, max_value=max(1, (half - 1) // 2)))
    assert -(-half // rows) >= 3
    return g, m, rows * half


def capped_report(g, w, m):
    """The report under SWEEP_TUPLE_CAP, or CapExceeded if a sweep passes it."""
    try:
        return verify_extremal_identities(g, w, m, work_cap=SWEEP_TUPLE_CAP)
    except CapExceeded:
        return CapExceeded


@settings(max_examples=60, deadline=None)
@given(sweep_case())
def test_table_sweep_matches_per_tuple_loop(case):
    g, m, block = case
    w = WeightSet.ones(g.h)
    record = instance_structure(g, w)
    pairs = record.pairs
    support = sorted({p.a for p in pairs})
    alt_forms = {alternating_tuple(p.a, p.b, m) for p in pairs}
    eta_m = int(record.eta) ** m
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proof_quantities, "_BLOCK_ENTRIES", block)
        got = proof_quantities._family_sweep(g, support, alt_forms, m, eta_m)
        rep = capped_report(g, w, m)
    assert got == per_tuple_sweep(g, support, alt_forms, m, eta_m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proof_quantities, "_family_sweep", per_tuple_sweep)
        ref = capped_report(g, w, m)
    # delta, exactness and the witnesses in order, among the other fields;
    # a case whose family passes the cap is refused on both sides
    assert rep == ref
