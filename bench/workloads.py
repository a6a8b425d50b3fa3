"""The four workloads: their operations, their inputs and their checks.

An operation is one call a user makes: a `torushom` command run in-process
through `torushom.cli.main`, or a public library function where no command
exposes the computation. `build(workload, seed, workdir)` returns the
operations of one round. The seed fixes a relabeling of the colors of every
target graph H (written to a file that the command reads), the pinned
vertices and the chain seeds; the two counted failures use fixed inputs.

Every operation carries a check. Checks compare against values computed
apart from the program (`oracle.py`, known counts, isomorphic instances) or
against properties the method must have; they run after the timed rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable

from torushom import analysis, cli, constraint_graph, exact, proof_quantities, sampler
from torushom.constraint_graph import WeightSet, preset
from torushom.torus import TorusGraph

import oracle

WORKLOADS = ("count", "influence", "chain", "structure")
TRANSFER_BUDGET = exact.DEFAULT_TRANSFER_BUDGET


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]
    # Ops kept as counted failures name the fault they stand for and the
    # exit code it gives; any other failure of any op is an error.
    fault: str | None = None
    fault_rc: int | None = None
    extra: dict = field(default_factory=dict)


# ------------------------------------------------------------------ inputs


@dataclass(frozen=True)
class Instance:
    """A target graph H after the seed's relabeling, as written to a file."""

    name: str
    adj: tuple[int, ...]
    weights: tuple[Fraction, ...]
    path: str

    @property
    def h(self) -> int:
        return len(self.adj)


def relabel(rng: random.Random, name: str, weights: str | None, workdir: Path,
            graph=None) -> Instance:
    """Apply a seeded color permutation to H and write it as H text.

    H is the preset `name`, or `graph` when given; `weights` is a
    comma-separated list, all 1 when omitted.
    """
    g = graph if graph is not None else preset(name)
    w = [Fraction(x) for x in weights.split(",")] if weights else [Fraction(1)] * g.h
    perm = list(range(g.h))
    while g.h > 1 and perm == sorted(perm):
        rng.shuffle(perm)
    adj = [0] * g.h
    new_w = [Fraction(1)] * g.h
    for k in range(g.h):
        new_w[perm[k]] = w[k]
        for j in range(g.h):
            if (g.adj[k] >> j) & 1:
                adj[perm[k]] |= 1 << perm[j]
    lines = [f"colors {g.h}"]
    lines += [f"w {k} {q}" for k, q in enumerate(new_w)]
    lines += [f"e {i} {j}" for i in range(g.h) for j in range(i, g.h) if (adj[i] >> j) & 1]
    path = workdir / f"h{len(list(workdir.iterdir()))}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Instance(name, tuple(adj), tuple(new_w), str(path))


def loaded(inst: Instance):
    return constraint_graph.load(inst.path)


# -------------------------------------------------------------- operations


def cli_run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        return {"rc": rc, "error": err.getvalue().strip().splitlines()[-1:]}
    return {"rc": 0, "result": json.loads(out.getvalue())["result"]}


def cli_op(name, argv, check, fault=None, fault_rc=None, **extra) -> Op:
    return Op(name, lambda: cli_run(argv), check, fault, fault_rc, extra)


def lib_op(name, fn, check) -> Op:
    return Op(name, lambda: {"rc": 0, "result": fn()}, check)


def frac(x) -> Fraction:
    if isinstance(x, list):
        return Fraction(int(x[0]), int(x[1]))
    return Fraction(x)


def expect(errors: list[str], ok: bool, msg: str) -> None:
    if not ok:
        errors.append(msg)


def label_pairs(inst_h: int, pairs) -> set:
    """Maximal pairs as sets of color labels (file-loaded H labels colors 0..h-1)."""
    def names(mask):
        return tuple(str(k) for k in range(inst_h) if (mask >> k) & 1)

    return {(names(a), names(b)) for a, b in pairs}


def eta_lower_bound_ok(inst: Instance, m: int, d: int, z: Fraction) -> bool:
    eta, _ = oracle.scan_pairs(inst.adj, inst.weights)
    return eta ** (m**d // 2) <= z


def enumerated(inst: Instance, m: int, d: int, pins=None):
    return oracle.weighted_count(m, d, list(inst.adj), inst.weights, pins)


# ------------------------------------------------------------------- count


def build_count(rng: random.Random, workdir: Path) -> list[Op]:
    corpus = []
    corpus_inst = {}
    for c in exact.standard_corpus():
        weights = ",".join(str(q) for q in c.weights.weights)
        inst = relabel(rng, c.name, weights, workdir, graph=c.graph)
        g, w = loaded(inst)
        corpus.append(exact.CorpusInstance(c.name, c.torus, g, w))
        corpus_inst[c.name] = (inst, c.torus.m, c.torus.d)

    def check_corpus(res):
        errs = []
        expect(errs, len(res) == len(corpus), "corpus record count")
        for rec in res:
            inst, m, d = corpus_inst[rec["name"]]
            zb, zt = Fraction(rec["z_brute"]), Fraction(rec["z_transfer"])
            expect(errs, zb == zt and rec["agree"], f"{rec['name']}: brute {zb} != transfer {zt}")
            known = _corpus_known(rec["name"], m, d)
            if known is not None:
                expect(errs, zb == known, f"{rec['name']}: {zb} != known {known}")
            expect(errs, eta_lower_bound_ok(inst, m, d, zb), f"{rec['name']}: eta^(n/2) > Z")
            mine = enumerated(inst, m, d)
            if mine is not None:
                expect(errs, mine == zb, f"{rec['name']}: {zb} != enumerated {mine}")
        return errs

    ops = [lib_op("dual_route_records standard_corpus",
                  lambda: [{**r, "z_brute": str(r["z_brute"]), "z_transfer": str(r["z_transfer"])}
                           for r in exact.dual_route_records(corpus)],
                  check_corpus)]

    def count_op(spec, m, d, method, known):
        inst = relabel(rng, spec, None, workdir)

        def check(res):
            errs = []
            z = Fraction(res["z"])
            expect(errs, z == known(), f"{spec} m={m} d={d}: {z} != {known()}")
            expect(errs, eta_lower_bound_ok(inst, m, d, z), f"{spec} m={m} d={d}: eta^(n/2) > Z")
            return errs

        return cli_op(f"count {spec} m={m} d={d} {method}",
                      ["count", "--h", inst.path, "--m", str(m), "--d", str(d), "--method", method],
                      check)

    def k4_q4():
        # Z_4^2 is isomorphic to Q_4; at m=4 the transfer route multiplies
        # matrices where at m=2 it intersects bitsets.
        g = preset("k4")
        return exact.transfer_matrix_partition_function(
            TorusGraph(4, 2), g, WeightSet.ones(4)).z

    ops += [
        count_op("k4", 2, 4, "transfer", k4_q4),
        count_op("wr", 2, 4, "transfer", lambda: oracle.IND_Q[5]),  # Z_wr(Q_d) = Z_ind(Q_{d+1})
        count_op("wr", 4, 2, "brute", lambda: oracle.IND_Q[5]),  # Z_4^2 = Q_4
        count_op("ind", 4, 3, "transfer", lambda: oracle.IND_Q[6]),  # Z_4^3 = Q_6
    ]

    for spec, known in (("k3", oracle.K3_Q), ("wr", {d: oracle.IND_Q[d + 1] for d in (1, 2, 3)})):
        inst = relabel(rng, spec, None, workdir)

        def check(res, spec=spec, known=known, inst=inst):
            errs = []
            rows = res["rows"]
            expect(errs, [r["d"] for r in rows] == [1, 2, 3], f"conjecture {spec}: rows")
            for r in rows:
                z = Fraction(r["exact"])
                expect(errs, z == known[r["d"]], f"conjecture {spec} d={r['d']}: {z} != {known[r['d']]}")
                expect(errs, eta_lower_bound_ok(inst, 2, r["d"], z), f"conjecture {spec}: eta bound")
            return errs

        ops.append(cli_op(f"conjecture {spec} m=2",
                          ["conjecture", "--h", inst.path, "--m", "2"], check))

    golden = sorted(Path("tests/golden").glob("*.json"))

    def check_golden(res):
        errs = []
        expect(errs, res["total"] == len(golden) and not res["failed"],
               f"corpus: {res['failed']} of {res['total']} drifted")
        return errs

    ops.append(cli_op("corpus tests/golden", ["corpus", "--golden-dir", "tests/golden"], check_golden))

    def check_k3_q5(res):
        z = Fraction(res["z"])
        return [] if z == oracle.K3_Q[5] else [f"k3 Q_5: {z} != {oracle.K3_Q[5]}"]

    ops.append(cli_op(
        "count k3 m=2 d=5 transfer",
        ["count", "--h", "k3", "--m", "2", "--d", "5", "--method", "transfer"],
        check_k3_q5,
        fault="the transfer budget counts 3^16 raw layer states; only 2,970 are valid",
        fault_rc=3,
    ))
    return ops


def _corpus_known(name: str, m: int, d: int):
    # Z_4^k is isomorphic to Q_{2k}.
    q = d if m == 2 else 2 * d
    family = name.split("-")[0]
    if "weighted" in name:
        return Fraction(10) ** (m**d) if family == "k4loop" else None
    if family == "ind":
        return oracle.IND_Q[q]
    if family == "k3":
        return oracle.K3_Q[q]
    if family == "wr":
        return oracle.IND_Q[q + 1]
    if family == "k4loop":
        return 4 ** (m**d)
    return None


# --------------------------------------------------------------- influence


def far_vertices(m: int, d: int, side: int) -> list[int]:
    """Vertices of the given parity at the largest distance from 0."""
    nbrs = oracle.neighbors(m, d)
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in nbrs[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    cand = [v for v in dist if oracle.parity(m, d, v) == side]
    top = max(dist[v] for v in cand)
    return sorted(v for v in cand if dist[v] == top)


INFLUENCE_TORI = ((2, 2), (2, 3), (2, 4), (2, 5), (4, 2), (6, 2))


def build_influence(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for spec, weights in (("ind", None), ("k3", None), ("wr", None), ("ind", "3/2,1")):
        inst = relabel(rng, spec, weights, workdir)
        for m, d in INFLUENCE_TORI:
            if inst.h ** (m ** (d - 1)) > TRANSFER_BUDGET:
                continue
            for side in (0, 1):
                y = rng.choice(far_vertices(m, d, side))
                for ell in range(inst.h):
                    ops.append(cli_op(
                        f"influence {spec}{'/' + weights if weights else ''} m={m} d={d} y={y} l={ell}",
                        ["influence", "--h", inst.path, "--m", str(m), "--d", str(d),
                         "--x", str(y), "--l", str(ell)],
                        lambda res, inst=inst, m=m, d=d, y=y, ell=ell: check_influence(inst, m, d, y, ell, res),
                        inst=inst, m=m, d=d,
                    ))
    return ops


def check_influence(inst: Instance, m: int, d: int, y: int, ell: int, res: dict) -> list[str]:
    errs = []
    tag = f"influence {inst.name} m={m} d={d} y={y} l={ell}"
    cond = [frac(x) for x in res["conditional"]["exact"]]
    occ = [frac(x) for x in res["occupation"]["exact"]]
    expect(errs, sum(cond) == 1, f"{tag}: conditional sums to {sum(cond)}")
    expect(errs, sum(occ) == 1, f"{tag}: occupation sums to {sum(occ)}")
    expect(errs, sum(frac(x) for x in res["conditional"]["target"]) == 1, f"{tag}: target sum")
    ratio, target = res["ratio_exact"], res["ratio_target"]
    if ratio is not None and target is not None and Fraction(target) != 1:
        expect(errs, (Fraction(ratio) - 1) * (Fraction(target) - 1) > 0,
               f"{tag}: exact ratio {ratio} on the other side of 1 from {target}")
    if m**d <= 8:
        # Tiny tori: the benchmark's own enumerator gives both vectors exactly.
        z = enumerated(inst, m, d)
        zy = enumerated(inst, m, d, {y: ell})
        mine_occ = [enumerated(inst, m, d, {0: k}) / z for k in range(inst.h)]
        mine_cond = [enumerated(inst, m, d, {0: k, y: ell}) / zy for k in range(inst.h)]
        expect(errs, mine_occ == occ, f"{tag}: occupation {occ} != enumerated {mine_occ}")
        expect(errs, mine_cond == cond, f"{tag}: conditional {cond} != enumerated {mine_cond}")
    return errs


def check_even_marginals(ops: list[Op], results: list[dict]) -> list[str]:
    """The occupation law at the origin equals the law at another even vertex."""
    errs = []
    seen = set()
    for op, res in zip(ops, results):
        key = (op.extra.get("inst"), op.extra.get("m"), op.extra.get("d"))
        if key[0] is None or key in seen or res["rc"] != 0:
            continue
        seen.add(key)
        inst, m, d = key
        t = TorusGraph(m, d)
        x = t.encode((0,) * (d - 2) + (1, 1)) if m == 2 else t.encode((0,) * (d - 1) + (2,))
        g, w = loaded(inst)
        other = analysis.exact_occupation_vector(t, g, w, x)
        occ = tuple(frac(v) for v in res["result"]["occupation"]["exact"])
        expect(errs, other == occ, f"{inst.name} m={m} d={d}: law at {x} differs from law at 0")
    return errs


# ------------------------------------------------------------------- chain


def build_chain(rng: random.Random, workdir: Path) -> list[Op]:
    inst = relabel(rng, "wr", None, workdir)
    g, w = loaded(inst)
    _, pairs = oracle.scan_pairs(inst.adj, inst.weights)
    maximal = label_pairs(inst.h, pairs)
    middle = next(k for k in range(inst.h) if inst.adj[k] == (1 << inst.h) - 1)
    chain_seed = rng.randrange(2**32)
    ops = []

    t4 = TorusGraph(4, 4)
    y = rng.choice([v for v in range(t4.n) if oracle.parity(4, 4, v) == 0])
    steps, thin = 400_000, 4_000
    nbrs = oracle.neighbors(4, 4)

    def plain_chain():
        stats = sampler.ChainStats()
        cfg = sampler.ChainConfig(steps=steps, seed=chain_seed, thin=thin, pinned=(y, middle))
        states = [list(s) for s in sampler.run_chain(t4, g, w, cfg, "pure", stats=stats)]
        return {"states": states, "steps": stats.steps, "color_changes": stats.color_changes}

    def check_plain(res):
        errs = []
        states = res["states"]
        expect(errs, len(states) == steps // thin, "run_chain: state count")
        expect(errs, all(oracle.edges_ok(nbrs, list(inst.adj), s) for s in states),
               "run_chain: a state breaks an edge of H")
        expect(errs, all(s[y] == middle for s in states), "run_chain: pinned vertex changed color")
        return errs

    ops.append(lib_op("run_chain wr m=4 d=4 pinned", plain_chain, check_plain))

    def check_sample(res, expected):
        errs = []
        expect(errs, len(res["trace"]) == expected, "sample: trace length")
        for entry in res["trace"]:
            if entry["kind"] == "pure":
                pair = (tuple(entry["pair"]["a"]), tuple(entry["pair"]["b"]))
                expect(errs, pair in maximal, f"sample: pure label {pair} is not a maximal pair")
        return errs

    ops.append(cli_op(
        "sample wr m=4 d=4 pure",
        ["sample", "--h", inst.path, "--m", "4", "--d", "4", "--steps", "100000",
         "--thin", "500", "--initial", "pure", "--seed", str(chain_seed)],
        lambda res: check_sample(res, 200),
    ))

    t3 = TorusGraph(4, 3)
    eps_cfg = sampler.ChainConfig(steps=20_000, thin=20, seed=chain_seed)

    def check_eps(res):
        # Redo the estimate from the same chain's states: palettes and ideal
        # edges from the benchmark's own torus and pair scan.
        errs = []
        states = list(sampler.run_chain(t3, g, w, eps_cfg, "pure"))
        nbrs3 = oracle.neighbors(4, 3)
        edges = [(u, v) for u in range(len(nbrs3)) if oracle.parity(4, 3, u) == 0
                 for v in nbrs3[u]]
        shares = []
        for f in states:
            pal = [sum({1 << f[u] for u in nbrs3[v]}) for v in range(len(nbrs3))]
            shares.append(sum((pal[v], pal[u]) not in pairs for u, v in edges) / len(edges))
        mine = sum(shares) / len(shares)
        expect(errs, res["n_samples"] == len(states) == 1000,
               f"epsilon_estimate: {res['n_samples']} samples, chain gave {len(states)}")
        expect(errs, all(oracle.edges_ok(nbrs3, list(inst.adj), f) for f in states),
               "epsilon_estimate: a state breaks an edge of H")
        expect(errs, abs(res["p_not_ideal"] - mine) <= 1e-12,
               f"epsilon_estimate: {res['p_not_ideal']} != {mine} from the scanned pairs")
        return errs

    ops.append(lib_op(
        "epsilon_estimate wr m=4 d=3",
        lambda: sampler.epsilon_estimate(t3, g, w, eps_cfg, initial="pure"),
        check_eps,
    ))

    q3 = TorusGraph(2, 3)
    anti = q3.encode((1, 1, 1))
    ell = rng.choice([k for k in range(inst.h) if k != middle])
    pinned_steps = 200_000

    def check_pinned(res):
        errs = []
        emp = res["empirical"]
        zy = enumerated(inst, 2, 3, {anti: ell})
        exact_p = enumerated(inst, 2, 3, {anti: ell, 0: ell}) / zy
        expect(errs, frac(res["conditional"]["exact"][ell]) == exact_p,
               f"influence: exact {res['conditional']['exact'][ell]} != enumerated {exact_p}")
        dev = abs(emp["p_conditional"] - float(exact_p))
        expect(errs, dev <= 5 * emp["stderr"],
               f"influence: empirical {emp['p_conditional']} is {dev / emp['stderr']:.1f} "
               f"stderr from {float(exact_p)}")
        return errs

    ops.append(cli_op(
        "influence --steps wr m=2 d=3",
        ["influence", "--h", inst.path, "--m", "2", "--d", "3", "--x", str(anti),
         "--l", str(ell), "--steps", str(pinned_steps), "--seed", str(chain_seed)],
        check_pinned,
    ))

    k3_pairs = label_pairs(3, oracle.scan_pairs(preset("k3").adj, (1, 1, 1))[1])
    k3_labels = {str(k): str(k + 1) for k in range(3)}
    k3_maximal = {(tuple(k3_labels[c] for c in a), tuple(k3_labels[c] for c in b))
                  for a, b in k3_pairs}

    def check_k3(res):
        errs = []
        expect(errs, len(res["trace"]) == 2, "sample k3: trace length")
        for entry in res["trace"]:
            if entry["kind"] == "pure":
                pair = (tuple(entry["pair"]["a"]), tuple(entry["pair"]["b"]))
                expect(errs, pair in k3_maximal, f"sample k3: {pair} is not a maximal pair")
        return errs

    ops.append(cli_op(
        "sample k3 m=8 d=3",
        ["sample", "--h", "k3", "--m", "8", "--d", "3", "--steps", "2000", "--thin", "1000",
         "--seed", "0"],
        check_k3,
        fault="greedy start gives up after 100 restarts though a pure start exists",
        fault_rc=2,
    ))
    return ops


def color_change_ratio(ops: list[Op], results: list[dict]) -> float:
    steps = changes = 0
    for op, res in zip(ops, results):
        if res["rc"] != 0:
            continue
        r = res["result"]
        if op.name.startswith("run_chain"):
            steps += r["steps"]
            changes += r["color_changes"]
        elif op.name.startswith("sample"):
            steps += r["steps"]
            changes += r["stats"]["color_changes"]
    return changes / steps if steps else 0.0


# --------------------------------------------------------------- structure


def build_structure(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []

    def analyze_op(spec, weights, check):
        inst = relabel(rng, spec, weights, workdir)
        argv = ["analyze", "--h", inst.path]
        return cli_op(f"analyze {spec}{' ' + weights if weights else ''}", argv,
                      lambda res: check(inst, res))

    def general(inst, res, eta=None, count=None, cls=None):
        errs = []
        tag = f"analyze {inst.name}"
        if eta is not None:
            expect(errs, Fraction(res["eta"]) == eta, f"{tag}: eta {res['eta']} != {eta}")
        if count is not None:
            expect(errs, res["pair_count"] == count, f"{tag}: {res['pair_count']} pairs != {count}")
        if cls is not None:
            expect(errs, res["equipartition"] == cls, f"{tag}: class {res['equipartition']} != {cls}")
        expect(errs, res["blowup"]["pair_bijection_ok"] is True, f"{tag}: blow-up bijection")
        if inst.h <= 8:
            my_eta, pairs = oracle.scan_pairs(inst.adj, inst.weights)
            got = {(tuple(p["a"]), tuple(p["b"])) for p in res["maximal_pairs"]}
            expect(errs, Fraction(res["eta"]) == my_eta, f"{tag}: eta != scanned {my_eta}")
            expect(errs, got == label_pairs(inst.h, pairs), f"{tag}: pairs differ from the scan")
        return errs

    for q in (6, 7, 8, 9):
        eta, count = oracle.complete_graph_structure(q)
        ops.append(analyze_op(f"kq:{q}", None,
                              lambda inst, res, eta=eta, count=count:
                              general(inst, res, eta, count, "transitive")))
    # A cycle C_N (N >= 5) has the 2N stars (v, {v-1, v+1}) and their swaps as
    # maximal pairs; a path P_N has one per interior vertex and side.
    ops.append(analyze_op("cycle:12", None, lambda i, r: general(i, r, 2, 24, "transitive")))
    ops.append(analyze_op("path:10", None, lambda i, r: general(i, r, 2, 16, "unknown")))
    ops.append(analyze_op("k4", "1,2,3,4", lambda i, r: general(i, r, 25, 2, "two-class-swap")))
    ops.append(analyze_op("ind+k3+wr", None, lambda i, r: general(i, r, 4, 2)))
    ops.append(analyze_op("ind", None, lambda i, r: general(i, r, 2, 2)))
    ops.append(analyze_op("wr", None, lambda i, r: general(i, r, 4, 2)))

    for q in (6, 7, 8):
        g = preset(f"kq:{q}")
        ops.append(lib_op(
            f"automorphisms kq:{q}",
            lambda g=g: sum(1 for _ in constraint_graph.automorphisms(g)),
            lambda res, q=q: [] if res == factorial(q) else [f"kq:{q}: {res} automorphisms"],
        ))

    # Blow-ups stay within 8 colors, so the benchmark's own scan can redo them.
    for spec, weights in (("ind", "3/2,1"), ("k3", "3/2,1,1"), ("wr", "1,2,1")):
        inst = relabel(rng, spec, weights, workdir)
        g, w = loaded(inst)

        def bijection(g=g, w=w):
            bu = constraint_graph.blowup(g, w)
            return {"ok": constraint_graph.check_blowup_pair_bijection(g, w),
                    "adj": list(bu.graph.adj), "scale": bu.scale_c}

        def check_bij(res, inst=inst):
            errs = []
            eta, _ = oracle.scan_pairs(inst.adj, inst.weights)
            beta, _ = oracle.scan_pairs(tuple(res["adj"]), (1,) * len(res["adj"]))
            expect(errs, res["ok"] is True, f"blow-up {inst.name}: bijection reported broken")
            expect(errs, beta == eta * res["scale"] ** 2, f"blow-up {inst.name}: eta {beta} != C^2 eta")
            return errs

        ops.append(lib_op(f"blowup bijection {spec} {weights}", bijection, check_bij))

    # k5 and k6 at m=4 are left out: 20^4 support tuples alone take 10 s and 163 s.
    plan = [(name, 2) for name, _ in proof_quantities.identity_corpus()]
    plan += [(name, 4) for name, _ in proof_quantities.identity_corpus() if name not in ("k5", "k6")]
    plan += [("k3", 6), ("wr", 6)]
    for spec, m in plan:
        inst = relabel(rng, spec, None, workdir)
        g, w = loaded(inst)

        def report(g=g, w=w, m=m):
            r = proof_quantities.verify_extremal_identities(g, w, m)
            return {"eta": r.eta, "checked": r.identity_checked, "delta": r.delta,
                    "exact": r.delta_is_exact}

        def check_report(res, inst=inst, m=m):
            errs = []
            eta, pairs = oracle.scan_pairs(inst.adj, inst.weights)
            tag = f"identities {inst.name} m={m}"
            expect(errs, res["eta"] == eta, f"{tag}: eta {res['eta']} != {eta}")
            expect(errs, res["checked"] == len(pairs), f"{tag}: {res['checked']} pairs checked")
            expect(errs, res["delta"] >= 1, f"{tag}: delta {res['delta']} < 1")
            return errs

        ops.append(lib_op(f"verify_extremal_identities {spec} m={m}", report, check_report))
    return ops


# ------------------------------------------------------------------- entry


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"{workload}-{seed}")
    if workload == "count":
        return build_count(rng, workdir)
    if workload == "influence":
        return build_influence(rng, workdir)
    if workload == "chain":
        return build_chain(rng, workdir)
    if workload == "structure":
        return build_structure(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def evaluate(workload: str, ops: list[Op], results: list[dict]) -> list[str]:
    """Run every check on one round's results.

    A failed operation is an error unless it is a counted failure that failed
    with its fault's exit code.
    """
    errs = []
    for op, res in zip(ops, results):
        if res["rc"] == 0:
            errs += op.check(res["result"])
        elif op.fault is None:
            errs.append(f"{op.name}: failed with exit {res['rc']}: {res['error']}")
        elif res["rc"] != op.fault_rc:
            errs.append(f"{op.name}: exit {res['rc']}, not the {op.fault_rc} of its fault "
                        f"({op.fault}): {res['error']}")
    if workload == "influence":
        errs += check_even_marginals(ops, results)
    return errs
