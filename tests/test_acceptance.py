"""Acceptance gate: ten checks spanning extremal structure, blow-ups,
dual-route counting, identity gaps, limit targets, growth predictions,
sampler fidelity, ideal-edge decay, influence trends, and label
equivariance. Each check prints one CRITERION line (run with -s to see
them on success) and then asserts.

The influence check (criterion 9) asserts the direction of long-range
influence: wherever pinning a far vertex changes a color's limiting
probability at the origin, the exact finite-torus ratio lies on the same
side of 1. It also prints the exact distances to the limiting targets for
d = 2, 3, 4 with a monotone column; those distances do not shrink step by
step at these sizes, which the table records as a finding.
"""

import math
import statistics
import time
from collections import Counter
from fractions import Fraction

from torushom.analysis import (
    _exp_string,
    conjecture_f_q,
    conjecture_partition_prediction,
    conjecture_weight_prediction,
    exact_occupation_vector,
    far_vertex,
    theorem_conditional_vector,
    theorem_occupation_vector,
)
from torushom.constraint_graph import (
    ConstraintGraph,
    MaximalPair,
    WeightSet,
    apply_perm_to_mask,
    automorphisms,
    blowup,
    check_blowup_pair_bijection,
    instance_structure,
    preset,
)
from torushom.exact import (
    dual_route_records,
    standard_corpus,
    transfer_matrix_partition_function,
)
from torushom.proof_quantities import (
    identity_corpus,
    verify_extremal_identities,
)
from torushom.sampler import (
    ChainConfig,
    epsilon_estimate,
    label_block,
    run_chain,
)
from torushom.torus import TorusGraph
from references import (
    block_sizes,
    check_alternating_identity,
    coloring_count_prediction,
    coloring_weight,
    conditional_comparison,
    enumerate_colorings,
    exact_not_ideal_probability,
    influence_ratio,
    near_pure_one_defect_count,
    occupation_comparison,
    theorem_influence_ratio,
)

ones = WeightSet.ones


def report(num, name, ok, detail, started, limit):
    elapsed = time.monotonic() - started
    line = (
        f"CRITERION {num}: {'PASS' if ok else 'FAIL'} {name} | {detail} "
        f"({elapsed:.2f}s, limit {limit:g}s)"
    )
    print(line)
    assert elapsed < limit, f"criterion {num} exceeded the {limit}s limit"
    assert ok, line


def test_criterion_01_extremal_pair_structure():
    started = time.monotonic()
    ind_pairs = instance_structure(preset("ind"), ones(2)).pairs
    ok_ind = set(ind_pairs) == {
        MaximalPair(0b11, 0b10),
        MaximalPair(0b10, 0b11),
    }
    ok_kq = all(
        len(instance_structure(preset(f"kq:{q}"), ones(q)).pairs)
        == (1 + q % 2) * math.comb(q, q // 2)
        for q in range(2, 9)
    )
    wr_pairs = instance_structure(preset("wr"), ones(3)).pairs
    ok_wr = set(wr_pairs) == {
        MaximalPair(0b011, 0b011),
        MaximalPair(0b110, 0b110),
    }
    report(
        1,
        "extremal pair structure",
        ok_ind and ok_kq and ok_wr,
        f"ind={ok_ind} |M(Kq)| q=2..8={ok_kq} wr={ok_wr}",
        started,
        1.0,
    )


def test_criterion_02_blowup_correspondence():
    started = time.monotonic()
    # looped hub adjacent to two leaves, hub weight 3/2
    hub = ConstraintGraph(3, (0b111, 0b001, 0b001), ("1", "2", "3"))
    bl = blowup(hub, WeightSet.parse("3/2,1,1"))
    ok_hub = bl.scale_c == 2 and block_sizes(bl) == (3, 2, 2)

    seen = set()
    checked = 0
    ok_bijection = True
    cases = [(hub, WeightSet.parse("3/2,1,1"))] + [
        (inst.graph, inst.weights) for inst in standard_corpus()
    ]
    for g, w in cases:
        key = (g.adj, w.weights)
        if key in seen or w.scale_denominator() > 4:
            continue
        seen.add(key)
        checked += 1
        ok_bijection = ok_bijection and check_blowup_pair_bijection(g, w)
    report(
        2,
        "blow-up reduction",
        ok_hub and ok_bijection,
        f"hub C={bl.scale_c} blocks={block_sizes(bl)} "
        f"pair bijections checked={checked}",
        started,
        5.0,
    )


def test_criterion_03_dual_route_counting():
    started = time.monotonic()
    records = dual_route_records()
    ok_size = len(records) >= 20
    ok_agree = all(r["agree"] for r in records)
    loop_rec = next(r for r in records if r["name"] == "k4loop-m2d3")
    ok_loop = loop_rec["z_brute"] == 65536

    pair = MaximalPair(0b00001111, 0b11110000)
    k8 = preset("k8")
    ok_near = all(
        near_pure_one_defect_count(TorusGraph(2, d), k8, pair)
        == Fraction(1, 2) * Fraction(3, 2) ** d * 16 ** (2 ** (d - 1))
        for d in (2, 3)
    )
    report(
        3,
        "dual-route exact counting",
        ok_size and ok_agree and ok_loop and ok_near,
        f"instances={len(records)} agree={ok_agree} "
        f"fully-looped-4^8={ok_loop} near-pure-family={ok_near}",
        started,
        120.0,
    )


def test_criterion_04_extremal_identities_and_gap():
    started = time.monotonic()
    identity_checks = 0
    for _, g in identity_corpus():
        for m in (2, 4, 6):
            identity_checks += check_alternating_identity(g, ones(g.h), m)

    expected_delta = {
        ("ind", 2): 1,
        ("ind", 6): 24,
        ("k3", 2): 1,
        ("k3", 6): 24,
        ("wr", 2): 6,
        ("wr", 4): 112,
        ("wr", 6): 1792,
        ("k4loop", 2): 4**3,
        ("k4loop", 4): 4**7,
        ("k4loop", 6): 4**11,
        ("k4", 2): 6,
        ("k4", 4): 112,
        ("k5", 2): 4,
        ("k6", 2): 15,
        ("cycle:5", 2): 1,
        ("path:3", 2): 2,
        ("ind+k3", 2): 1,
    }
    runs = [("ind", m) for m in (2, 4, 6)]
    runs += [("k3", m) for m in (2, 4, 6)]
    runs += [("wr", m) for m in (2, 4, 6)]
    runs += [("k4loop", m) for m in (2, 4, 6)]
    runs += [("k4", 2), ("k4", 4), ("k5", 2), ("k6", 2)]
    runs += [("cycle:5", 2), ("path:3", 2), ("ind+k3", 2)]

    ok = True
    k3_witnesses = None
    for name, m in runs:
        g = preset(name)
        rep = verify_extremal_identities(g, ones(g.h), m)
        ok = ok and rep.delta >= 1
        want = expected_delta.get((name, m))
        if want is not None:
            ok = ok and rep.delta == want and rep.delta_is_exact
        if name == "k3" and m == 2:
            k3_witnesses = len(rep.witnesses)
            ok = ok and rep.delta == 1
    report(
        4,
        "alternating identity and gap",
        ok,
        f"identity pairs checked={identity_checks} gap runs={len(runs)} "
        f"k3/m=2 delta=1 witnesses={k3_witnesses}",
        started,
        60.0,
    )


def test_criterion_05_limit_target_displays():
    started = time.monotonic()
    ind = preset("ind")
    ok = True
    for lam in (Fraction(1), Fraction(3, 2), Fraction(1, 3)):
        w = WeightSet((lam, Fraction(1)))
        ok = ok and theorem_occupation_vector(ind, w) == (
            lam / (2 * (1 + lam)),
            (2 + lam) / (2 * (1 + lam)),
        )
        ok = ok and theorem_conditional_vector(ind, w, "same-side", 0) == (
            lam / (1 + lam),
            1 / (1 + lam),
        )
        ok = ok and theorem_conditional_vector(ind, w, "cross-side", 0) == (
            Fraction(0),
            Fraction(1),
        )

    for q in range(3, 9):
        g = preset(f"kq:{q}")
        w = ones(q)
        ok = ok and theorem_occupation_vector(g, w) == (Fraction(1, q),) * q
        same = theorem_conditional_vector(g, w, "same-side", 0)
        ok = ok and same == (Fraction(2, q),) + (
            Fraction(q - 2, q * (q - 1)),
        ) * (q - 1)
        cross = theorem_conditional_vector(g, w, "cross-side", 0)
        ok = ok and cross == (Fraction(0),) + (Fraction(1, q - 1),) * (q - 1)

    wr = preset("wr")
    w3 = ones(3)
    half = Fraction(1, 2)
    ok = ok and theorem_occupation_vector(wr, w3) == (
        Fraction(1, 4),
        half,
        Fraction(1, 4),
    )
    ok = ok and theorem_conditional_vector(wr, w3, "same-side", 0) == (
        half,
        half,
        Fraction(0),
    )
    # the displayed cross-side vector (0, 1/2, 1/2) is the mirrored
    # conditioning, reached by pinning the opposite end color
    ok = ok and theorem_conditional_vector(wr, w3, "cross-side", 2) == (
        Fraction(0),
        half,
        half,
    )
    report(
        5,
        "limit target displays",
        ok,
        "occupied-fraction, coloring, and two-species vectors exact",
        started,
        1.0,
    )


def test_criterion_06_growth_prediction_forms():
    started = time.monotonic()
    ok = True
    for d in range(2, 7):
        cp = coloring_count_prediction(3, d)
        ok = ok and cp.prefactor_model == "6e"
        ok = ok and conjecture_f_q(3, d) == 1

    ind = preset("ind")
    w2 = ones(2)
    pair = MaximalPair(0b11, 0b10)
    for d in range(2, 6):
        t = TorusGraph(2, d)
        pred = conjecture_weight_prediction(ind, w2, pair, t)
        ok = (
            ok
            and pred.base == 2
            and pred.half_volume == 2 ** (d - 1)
            and pred.correction_exponent == Fraction(1, 2)
            and _exp_string(pred.correction_exponent) == "sqrt(e)"
        )
        pp = conjecture_partition_prediction(ind, w2, t)
        ok = ok and pp.prefactor_model == "2*sqrt(e)"
        ok = ok and math.isclose(
            pp.total(), 2 * math.sqrt(math.e) * 2 ** (2 ** (d - 1))
        )
    report(
        6,
        "growth prediction forms",
        ok,
        "3-coloring prefactor 6e; occupied-fraction class form "
        "sqrt(e)*2^(n/2), total 2*sqrt(e)*2^(n/2)",
        started,
        1.0,
    )


def _chain_tv(t, g, w, seed):
    cfg = ChainConfig(steps=1_000_000, burn_in=100_000, seed=seed)
    counts: Counter = Counter()
    for state in run_chain(t, g, w, cfg):
        counts[state] += 1
    total = sum(counts.values())
    z = transfer_matrix_partition_function(t, g, w).z
    law = {
        f: coloring_weight(t, g, w, f) / z for f in enumerate_colorings(t, g)
    }
    return sum(abs(counts.get(f, 0) / total - p) for f, p in law.items()) / 2


def _pinned_marginal_deviation(t, g, w, pin, x, k, steps, seed):
    cfg = ChainConfig(steps=steps, burn_in=steps // 10, seed=seed, pinned=pin)
    hits = [1.0 if state[x] == k else 0.0 for state in run_chain(t, g, w, cfg)]
    batches = 10
    size = len(hits) // batches
    means = [sum(hits[i * size : (i + 1) * size]) / size for i in range(batches)]
    stderr = statistics.stdev(means) / math.sqrt(batches)
    exact = float(exact_occupation_vector(t, g, w, x, condition=pin)[k])
    p_hat = sum(hits) / len(hits)
    return abs(p_hat - exact) / stderr if stderr else 0.0


def test_criterion_07_sampler_matches_exact_law():
    started = time.monotonic()
    t = TorusGraph(2, 2)
    worst_tv = 0.0
    for g, w in ((preset("ind"), ones(2)), (preset("k3"), ones(3))):
        for seed in (0, 1, 2):
            worst_tv = max(worst_tv, _chain_tv(t, g, w, seed))
    ok_tv = worst_tv <= 0.02

    worst_sigma = 0.0
    for k in (0, 1):
        worst_sigma = max(
            worst_sigma,
            _pinned_marginal_deviation(
                t, preset("ind"), ones(2), (3, 0), 0, k, 300_000, 4
            ),
        )
    for k in (0, 1, 2):
        worst_sigma = max(
            worst_sigma,
            _pinned_marginal_deviation(
                t, preset("k3"), ones(3), (3, 0), 0, k, 300_000, 5
            ),
        )
    ok_pin = worst_sigma <= 3.0
    report(
        7,
        "sampler vs exact law",
        ok_tv and ok_pin,
        f"worst TV={worst_tv:.4f} (<=0.02) "
        f"worst pinned deviation={worst_sigma:.2f} sigma (<=3)",
        started,
        120.0,
    )


def test_criterion_08_ideal_edge_decay():
    started = time.monotonic()
    ind = preset("ind")
    w2 = ones(2)
    exact = [
        exact_not_ideal_probability(TorusGraph(2, d), ind, w2)
        for d in (2, 3, 4)
    ]
    ok_values = exact == [Fraction(3, 7), Fraction(9, 35), Fraction(155, 743)]
    ok_trend = exact[0] > exact[1] > exact[2]

    worst_sigma = 0.0
    for d, seed in ((2, 6), (3, 7)):
        t = TorusGraph(2, d)
        est = epsilon_estimate(
            t, ind, w2, ChainConfig(steps=400_000, burn_in=40_000, seed=seed)
        )
        dev = abs(est["p_not_ideal"] - float(exact[d - 2])) / est["stderr"]
        worst_sigma = max(worst_sigma, dev)
    ok_emp = worst_sigma <= 3.0
    report(
        8,
        "ideal-edge decay",
        ok_values and ok_trend and ok_emp,
        f"exact={[str(x) for x in exact]} strictly decreasing={ok_trend} "
        f"worst empirical deviation={worst_sigma:.2f} sigma (<=3)",
        started,
        300.0,
    )


def test_criterion_09_influence_trend():
    started = time.monotonic()
    k3, wr = preset("k3"), preset("wr")
    w3 = ones(3)
    ell = 0
    tori = [TorusGraph(2, d) for d in (2, 3, 4)]
    conditional = [
        ("k3 same-side", k3, "same-side"),
        ("k3 cross-side", k3, "cross-side"),
        ("wr same-side", wr, "same-side"),
        ("wr cross-side", wr, "cross-side"),
    ]

    def cond_row(g, relation, target=None):
        return [
            conditional_comparison(
                t, g, w3, relation, ell, target=target
            ).distance
            for t in tori
        ]

    rows = [(name, cond_row(g, rel)) for name, g, rel in conditional]
    rows.append(
        (
            "wr occupation",
            [occupation_comparison(t, wr, w3).distance for t in tori],
        )
    )
    # contrast only: pinning the other end color mirrors the target to
    # (0, 1/2, 1/2), which a pin of color 0 should sit far from
    mirrored = theorem_conditional_vector(wr, w3, "cross-side", 2)
    contrast = (
        "wr cross-side vs ell=2 target",
        cond_row(wr, "cross-side", mirrored),
    )

    # The table records a finding, not a requirement: the limit theorem
    # says nothing about distances shrinking step by step, and at these
    # sizes they do not (the far vertex is not even monotonically farther).
    print(f"{'row':<30} {'d=2':>18} {'d=3':>18} {'d=4':>18}  monotone")
    for name, dists in rows + [contrast]:
        monotone = dists[0] >= dists[1] >= dists[2]
        cells = " ".join(f"{str(x):>10}={float(x):.5f}" for x in dists)
        print(f"{name:<30} {cells}  {monotone}")

    # Asserted: the direction of long-range influence. Wherever the pin
    # changes a color's limiting probability, the exact ratio lies strictly
    # on the same side of 1; reading the pin on the mirrored side flips it.
    checked = 0
    wrong = []
    for name, g, rel in conditional:
        for t in tori:
            y = far_vertex(t, "even" if rel == "same-side" else "odd")
            for k in range(g.h):
                limit = theorem_influence_ratio(g, w3, rel, k, ell)
                if limit == 1:
                    continue
                exact = influence_ratio(t, g, w3, 0, k, y, ell)
                checked += 1
                if exact == 1 or (exact > 1) != (limit > 1):
                    wrong.append(f"{name} d={t.d} k={k}: {exact} vs {limit}")
    report(
        9,
        "far pin moves the origin's law as the limit predicts",
        checked > 0 and not wrong,
        f"{checked - len(wrong)}/{checked} exact influence ratios on the "
        "limit's side of 1"
        + (f"; wrong side: {', '.join(wrong)}" if wrong else "")
        + "; distance table above",
        started,
        600.0,
    )


def test_criterion_10_label_equivariance():
    started = time.monotonic()
    instances = [
        ("ind", TorusGraph(2, 3), preset("ind"), ones(2)),
        ("k3", TorusGraph(2, 2), preset("k3"), ones(3)),
        ("wr", TorusGraph(2, 2), preset("wr"), ones(3)),
        ("k4loop", TorusGraph(2, 2), preset("k4loop"), ones(4)),
    ]
    per_instance = 2600
    thin = 10
    total = 0
    pure_seen = 0
    ok = True
    for seed, (name, t, g, w) in enumerate(instances):
        perms = list(automorphisms(g, w))
        sigma = [t.shift(v, t.d, 1) for v in range(t.n)]
        cfg = ChainConfig(
            steps=1000 + thin * per_instance, burn_in=1000, seed=seed, thin=thin
        )
        cap = 0.1 * t.n
        for state in run_chain(t, g, w, cfg):
            total += 1
            # the state, its shift and its relabelings as one block
            block = [state, tuple(state[v] for v in sigma)]
            block += [tuple(perm[c] for c in state) for perm in perms]
            label, swapped, *relabelings = label_block(t, g, w, block)[0]
            if label.kind == "pure":
                pure_seen += 1
                ok = ok and (
                    len(label.defect_e) + len(label.defect_o) <= cap
                )
            ok = ok and swapped.kind == label.kind
            if label.pair is not None:
                ok = ok and swapped.pair == MaximalPair(
                    label.pair.b, label.pair.a
                )
            for perm, relabeled in zip(perms, relabelings):
                ok = ok and relabeled.kind == label.kind
                if label.pair is not None:
                    ok = ok and relabeled.pair == MaximalPair(
                        apply_perm_to_mask(perm, label.pair.a),
                        apply_perm_to_mask(perm, label.pair.b),
                    )
            if not ok:
                break
        if not ok:
            break
    report(
        10,
        "label equivariance",
        ok and total >= 10_000,
        f"samples={total} pure labels={pure_seen} "
        "defect cap, side swap, and color symmetry all honored",
        started,
        300.0,
    )
