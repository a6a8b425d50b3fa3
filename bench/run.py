"""Benchmark for torushom: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; torushom is imported from its `src/`.
A run repeats whole rounds of the workload's operations until `--seconds`
have passed (at least three rounds). Each round runs in a child forked after
set-up, so it starts with the caches a fresh `torushom` process starts with,
and rounds stay alike however many run before them. Checks run after the
timed rounds. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are wall_s (median round time), setup_s (median
of five fresh processes timed from their start to the first operation) and
peak_rss_mb (largest resident set of a round). The processor speed of a
shared machine drifts over seconds to minutes, so both times are scaled to
a reference speed: the operations are timed in segments of at least
SEGMENT_S, a fixed calibration loop is timed between segments (and between
set-up processes), and a segment (or set-up) of length t counts
t * CALIBRATION_REF_S / (mean of the loop times on either side). Raw times
go to standard error. With --trace 1 the rounds
alternate between untraced and traced, and the metrics are the per-layer
figures of the traced rounds, averaged per round, plus the tracing overhead.

    python3 bench/run.py --self-test

feeds the checks a wrong count, two wrong labels, a failed operation and a
counted failure with the wrong exit code, and exits 0 only if every one of
them is caught.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PROBES = 5
MIN_ROUNDS = 3
# Median time of one `calibrate()` call on the development machine (see README).
CALIBRATION_REF_S = 0.083
# Operations are timed in segments of at least this long, each between two
# calibrations, so the scaling follows drift within a round.
SEGMENT_S = 1.0


def import_program():
    """Import torushom from the checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import torushom
    except ImportError as e:
        sys.exit(f"bench: cannot import torushom from {ROOT / 'src'}: {e}")
    if Path(torushom.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"bench: torushom came from {torushom.__file__}, not the checkout")
    return torushom


def probe(workload: str, seed: int) -> None:
    """Set-up as a fresh process does it; say so on stdout, then clean up."""
    import_program()
    import workloads

    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workloads.build(workload, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up times of PROBES fresh processes; each probe is
    scaled by the calibration loops timed just before and just after it."""
    raw, scaled = [], []
    before = calibrate()
    for _ in range(PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        raw.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            sys.exit("bench: set-up probe failed")
        after = calibrate()
        scaled.append(raw[-1] * CALIBRATION_REF_S / ((before + after) / 2))
        before = after
    return raw, scaled


def calibrate() -> float:
    """Time a fixed loop of Python integer and dict operations, the kind of
    work that dominates most rounds."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(400_000):
        acc ^= (i * 2654435761) & 0xFFFF
        table[i & 1023] = acc
    return time.perf_counter() - start


def forked(fn) -> dict:
    """Run fn in a forked child and return the JSON document it produced."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(fn(), fh)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        sys.exit(f"bench: round process failed (status {status})")
    return json.loads(data)


def run_round(torushom, ops, traced: bool) -> dict:
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(torushom)
    results = []
    elapsed = scaled = segment = 0.0
    before = calibrate()
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            results.append(op.run())
        except Exception as e:  # a crash is a failed operation, not a failed run
            results.append({"rc": 1, "error": [f"{type(e).__name__}: {e}"]})
        segment += time.perf_counter() - start
        if segment >= SEGMENT_S or i == len(ops) - 1:
            after = calibrate()
            elapsed += segment
            scaled += segment * CALIBRATION_REF_S / ((before + after) / 2)
            before, segment = after, 0.0
    return {
        "time": elapsed,
        "scaled": scaled,
        "results": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.summary() if tracer else None,
    }


# ---------------------------------------------------------------- metrics


def layer_metrics(traces: list[dict], overhead_s: float, change_ratio: float) -> dict:
    n = len(traces)
    stats: dict[str, list[float]] = {}
    for tr in traces:
        for name, (calls, total, self_time, items) in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_time
            acc[3] += items

    def calls(*names):
        return sum(stats.get(x, (0,))[0] for x in names) / n

    def self_s(*names):
        return sum(stats.get(x, (0, 0, 0.0))[2] for x in names) / n

    def layer(prefix, index):
        return sum(v[index] for k, v in stats.items() if k.startswith(prefix)) / n

    first_s, repeat = 0.0, []
    for tr in traces:
        seen = set()
        for key, dur in tr["transfer_calls"]:
            if key in seen:
                repeat.append(dur)
            else:
                seen.add(key)
                first_s += dur
    chains = [r for tr in traces for r in tr["chain_runs"] if not r["estimator"]]
    inits = [r["init"] for tr in traces for r in tr["chain_runs"] if r["init"] is not None]
    estimators = [e for tr in traces for e in tr["estimator_runs"]]
    chain_time = sum(r["time"] for r in chains)
    est_time = sum(t for _, t in estimators)
    classify = stats.get("sampler.classify", (0, 0.0))
    targets = [k for k in stats if k.startswith("analysis.theorem_")]
    targets.append("analysis.class_posterior_conditional")

    values = {
        "torus.calls": (layer("torus.", 0), "count"),
        "torus.self_s": (layer("torus.", 2), "s"),
        "constraint_graph.eta_calls": (calls("constraint_graph.eta_and_maximal_pairs"), "count"),
        "constraint_graph.eta_self_s": (self_s("constraint_graph.eta_and_maximal_pairs"), "s"),
        "constraint_graph.automorphisms_yielded":
            (sum(tr["stats"].get("constraint_graph.automorphisms", [0, 0, 0, 0])[3]
                 for tr in traces) / n, "count"),
        "constraint_graph.automorphisms_self_s": (self_s("constraint_graph.automorphisms"), "s"),
        "constraint_graph.blowup_self_s":
            (self_s("constraint_graph.blowup", "constraint_graph.check_blowup_pair_bijection"), "s"),
        "analysis.equipartition_self_s": (self_s("analysis.equipartition_class"), "s"),
        "analysis.targets_self_s": (self_s(*targets), "s"),
        "analysis.comparison_self_s": (self_s(
            "analysis.conditional_comparison", "analysis.occupation_comparison",
            "analysis.exact_occupation_vector", "analysis.influence_ratio",
            "analysis.sup_distance"), "s"),
        "exact.brute_calls": (calls("exact.brute_force_partition_function"), "count"),
        "exact.brute_self_s": (self_s("exact.brute_force_partition_function"), "s"),
        "exact.transfer_first_s": (first_s / n, "s"),
        "exact.transfer_calls": (calls("exact.transfer_matrix_partition_function"), "count"),
        "exact.transfer_self_s": (self_s("exact.transfer_matrix_partition_function"), "s"),
        "exact.transfer_repeat_ms": (statistics.median(repeat) * 1000 if repeat else 0.0, "ms"),
        "exact.partition_function_calls": (calls("exact.partition_function"), "count"),
        "exact.marginal_calls": (calls("exact.exact_marginal"), "count"),
        "exact.marginal_self_s": (self_s("exact.exact_marginal"), "s"),
        "exact.rss_growth_mb": (sum(tr["exact_rss_growth"] for tr in traces) / n / 2**20, "MB"),
        "proof_quantities.identity_self_s": (self_s(
            "proof_quantities.check_alternating_identity", "proof_quantities.cycle_count_g",
            "proof_quantities.tuple_neighborhood", "proof_quantities.alternating_tuple"), "s"),
        "proof_quantities.gap_self_s": (self_s("proof_quantities.verify_extremal_identities"), "s"),
        "sampler.chain_steps_per_s":
            (sum(r["steps"] for r in chains) / chain_time if chain_time else 0.0, "steps/s"),
        "sampler.estimator_steps_per_s":
            (sum(s for s, _ in estimators) / est_time if est_time else 0.0, "steps/s"),
        "sampler.init_ms": (statistics.median(inits) * 1000 if inits else 0.0, "ms"),
        "sampler.classify_calls": (classify[0] / n, "count"),
        "sampler.classify_ms": (classify[1] / classify[0] * 1000 if classify[0] else 0.0, "ms"),
        "sampler.color_change_ratio": (change_ratio, "ratio"),
        "cli.calls": (calls("cli.main"), "count"),
        "cli.self_s": (layer("cli.", 2), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ------------------------------------------------------------------- runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    if args.probe:
        probe(args.probe, args.seed)
        return 0
    torushom = import_program()
    import workloads

    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    setup, setup_scaled = setup_seconds(args.workload, args.seed)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        rounds = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(forked(lambda: run_round(torushom, ops, traced)))
            rounds[-1]["traced"] = traced
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
                break
        checked = time.perf_counter()
        errors = check(args.workload, workloads, ops, rounds)
        checked = time.perf_counter() - checked
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = rounds[0]["results"]
    for op, res in zip(ops, first):
        if res["rc"] != 0:
            print(f"bench: failed: {op.name}: {res['error']}"
                  + (f" [counted: {op.fault}]" if op.fault else ""), file=sys.stderr)
    for e in errors:
        print(f"bench: check: {e}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    wall = statistics.median(r["scaled"] for r in plain)
    print(f"bench: {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"times={[round(r['time'], 3) for r in rounds]} "
          f"scaled={[round(r['scaled'], 3) for r in rounds]} "
          f"setup={[round(s, 3) for s in setup]} "
          f"setup_scaled={[round(s, 3) for s in setup_scaled]} checks={checked:.1f}s",
          file=sys.stderr)
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        overhead = statistics.median(r["scaled"] for r in traced_rounds) - wall
        ratio = workloads.color_change_ratio(ops, first)
        metrics = layer_metrics([r["trace"] for r in traced_rounds], overhead, ratio)
        write_trace(args.workload, args.seed, traced_rounds)
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in plain), "unit": "MB"},
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops) * len(rounds),
        "failed": sum(res["rc"] != 0 for r in rounds for res in r["results"]),
        "metrics": metrics,
    }))
    return 0


def check(workload: str, workloads, ops, rounds) -> list[str]:
    """Every round must give the first round's results, and those must pass."""
    first = rounds[0]["results"]
    errors = []
    for i, r in enumerate(rounds[1:], start=2):
        for op, a, b in zip(ops, first, r["results"]):
            if a != b:
                errors.append(f"{op.name}: round {i} differs from round 1")
    try:
        errors += workloads.evaluate(workload, ops, first)
    except Exception as e:  # a malformed result fails the check, not the run
        errors.append(f"check raised {type(e).__name__}: {e}")
    return errors


def write_trace(workload: str, seed: int, traced_rounds: list[dict]) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    doc = [{"round_time": r["time"], **r["trace"]} for r in traced_rounds]
    path.write_text(json.dumps(doc), encoding="utf-8")
    print(f"bench: spans written to {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
