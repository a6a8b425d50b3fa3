"""Command-line surface: run configuration, JSON reports, golden corpus.

Every command reads an instance (target graph, weights, torus size),
computes a deterministic result document, and writes it as JSON with
sorted keys. Volatile data (timestamp, runtime) lives in a separate
"meta" object, so the "result" object is byte-identical across reruns
of the same configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

from .analysis import (
    ComparisonRecord,
    antipode,
    conjecture_f_q,
    conjecture_partition_prediction,
    consistency_L_vs_f,
    equipartition_class,
    equipartition_orbit,
    exact_occupation_vector,
    far_vertex,
    sup_distance,
    theorem_conditional_vector,
    theorem_occupation_vector,
)
from .constraint_graph import (
    ConstraintGraph,
    WeightSet,
    check_blowup_pair_bijection,
    instance_structure,
    load,
    mask_members,
    preset,
    structure_cache_counts,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    ConfigError,
    NotEquipartition,
    OracleMismatch,
    ParseError,
    TorushomError,
    ZeroConditioning,
)
from .exact import (
    brute_force_partition_function,
    engine_cache_counts,
    transfer_matrix_partition_function,
)
from .sampler import (
    ChainConfig,
    ChainStats,
    _batch_stderr,
    _state_blocks,
    label_block,
    run_chain,
)
from .torus import TorusGraph

COMMANDS = ("analyze", "count", "sample", "influence", "conjecture", "corpus")
_CSV_COMMANDS = frozenset({"influence", "conjecture"})

_INT_FIELDS = frozenset({"m", "d", "steps", "burn_in", "thin", "seed", "max_d"})
_BOOL_FIELDS = frozenset({"update"})


# ------------------------------------------------------------- run config


@dataclass(frozen=True)
class RunConfig:
    """Flat bag of every knob; commands read the fields they use."""

    command: str
    h: str = "ind"
    weights: str | None = None
    m: int = 2
    d: int = 2
    method: str = "both"
    steps: int | None = None
    burn_in: int = 0
    thin: int | None = None
    initial: str = "uniform-greedy"
    seed: int = 0
    x: str = "antipodal"
    k: str | None = None
    l: str | None = None
    max_d: int = 3
    out: str | None = None
    csv: str | None = None
    golden_dir: str = "tests/golden"
    update: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.csv and self.command not in _CSV_COMMANDS:
            raise ConfigError(
                f"csv export is not available for the {self.command} command"
            )

    def to_json_dict(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        vals = {}
        for key, raw in mapping.items():
            if raw is None:
                continue
            vals[key] = coerce_config_value(key, raw)
        if "command" not in vals:
            raise ConfigError("configuration is missing 'command'")
        try:
            return cls(**vals)
        except TypeError as e:
            raise ConfigError(str(e)) from None


def _field_names() -> frozenset[str]:
    return frozenset(f.name for f in fields(RunConfig))


def coerce_config_value(key: str, raw):
    if key not in _field_names():
        raise ConfigError(f"unknown configuration key {key!r}")
    if key in _INT_FIELDS:
        return parse_int(raw, key)
    if key in _BOOL_FIELDS:
        if isinstance(raw, bool):
            return raw
        word = str(raw).strip().lower()
        if word in ("true", "1", "yes"):
            return True
        if word in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} expects true/false, got {raw!r}")
    return str(raw)


def parse_int(raw, key: str) -> int:
    """Integer option; scientific notation like 1e6 is accepted, parsed
    exactly and only within the float range."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    text = str(raw).strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ConfigError(f"{key} expects an integer, got {raw!r}") from None
    if not math.isfinite(float(value)) or value != value.to_integral_value():
        raise ConfigError(f"{key} expects an integer, got {raw!r}")
    return int(value)


def parse_config_text(text: str) -> dict:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"bad JSON configuration: {e}") from None
        if not isinstance(doc, dict):
            raise ConfigError("JSON configuration must be an object")
        return doc
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    return parse_config_text(text)


# ------------------------------------------------------- instance plumbing


def resolve_instance(cfg: RunConfig) -> tuple[ConstraintGraph, WeightSet]:
    """Target graph from a preset name or a file, weights flag on top."""
    name = cfg.h
    if os.sep in name or name.endswith((".txt", ".json")) or os.path.exists(name):
        try:
            g, w = load(name)
        except OSError as e:
            raise ConfigError(f"cannot read target graph {name}: {e}") from None
    else:
        g = preset(name)
        w = WeightSet.ones(g.h)
    if cfg.weights is not None:
        try:
            w = WeightSet.parse(cfg.weights)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"bad weights {cfg.weights!r}: {e}") from None
    if len(w) != g.h:
        raise ConfigError(f"{len(w)} weights for {g.h} colors")
    return g, w


def resolve_torus(cfg: RunConfig) -> TorusGraph:
    try:
        return TorusGraph(cfg.m, cfg.d)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def resolve_color(g: ConstraintGraph, raw: str | None, flag: str) -> int:
    """Color by label (preferred) or by numeric index."""
    if raw is None:
        raise ConfigError(f"--{flag} is required for this command")
    if raw in g.labels:
        return g.labels.index(raw)
    try:
        k = int(raw)
    except ValueError:
        raise ConfigError(
            f"--{flag}: {raw!r} is neither a label in {g.labels} nor an index"
        ) from None
    if not 0 <= k < g.h:
        raise ConfigError(f"--{flag}: index {k} out of range for {g.h} colors")
    return k


def resolve_vertex(t: TorusGraph, raw: str) -> int:
    if raw == "antipodal":
        return antipode(t)
    if raw == "far-even":
        return far_vertex(t, "even")
    if raw == "far-odd":
        return far_vertex(t, "odd")
    try:
        v = int(raw)
    except ValueError:
        raise ConfigError(
            f"--x expects a vertex index, 'antipodal', 'far-even', or "
            f"'far-odd', got {raw!r}"
        ) from None
    if not 0 <= v < t.n:
        raise ConfigError(f"--x: vertex {v} outside torus of {t.n} vertices")
    return v


def frac_str(value) -> str:
    return str(Fraction(value))


def pair_labels(g: ConstraintGraph, pair) -> dict:
    return {
        "a": [g.labels[k] for k in mask_members(pair.a)],
        "b": [g.labels[k] for k in mask_members(pair.b)],
    }


# --------------------------------------------------------------- reporting


def result_bytes(result: dict) -> str:
    """Canonical compact JSON of a result. Two results are equal here
    exactly when their indented golden files are, since only whitespace
    between tokens differs, and the compact form runs on the C encoder."""
    return json.dumps(result, sort_keys=True)


def emit(
    cfg: RunConfig, result: dict, meta: dict, started: float, summary: str
) -> None:
    """Write the document; `meta` holds what the command reported besides
    its result."""
    doc = {
        "result": result,
        "meta": {
            **meta,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "runtime_ms": int((time.monotonic() - started) * 1000),
            "config": cfg.to_json_dict(),
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- commands


def cmd_analyze(cfg: RunConfig, meta: dict) -> dict:
    g, w = resolve_instance(cfg)
    s = instance_structure(g, w)
    scale_c, block_sizes = w.integer_scaled()
    result = {
        "colors": g.h,
        "labels": list(g.labels),
        "weights": [str(q) for q in w.weights],
        "eta": frac_str(s.eta),
        "pair_count": len(s.pairs),
        "maximal_pairs": [pair_labels(g, p) for p in sorted(s.pairs)],
        "support": sorted(
            sorted(g.labels[k] for k in mask_members(p.a)) for p in s.pairs
        ),
        "equipartition": equipartition_class(g, w),
        "blowup": {
            "scale_c": scale_c,
            "vertices": sum(block_sizes),
            "block_sizes": list(block_sizes),
            "pair_bijection_ok": check_blowup_pair_bijection(g, w),
        },
    }
    orbit = equipartition_orbit(g, w)
    meta["orbit"] = {
        "generators": orbit.generators,
        "orbit_size": orbit.orbit_size,
        "nodes": orbit.nodes,
        "seconds": round(orbit.seconds, 6),
    }
    return result


def _analyze_summary(result: dict) -> str:
    return (
        f"eta={result['eta']} pairs={result['pair_count']} "
        f"class={result['equipartition']}"
    )


def cmd_count(cfg: RunConfig, meta: dict) -> dict:
    g, w = resolve_instance(cfg)
    t = resolve_torus(cfg)
    if cfg.method not in ("brute", "transfer", "both"):
        raise ConfigError(f"unknown counting method {cfg.method!r}")
    out: dict = {"m": t.m, "d": t.d, "n": t.n, "method": cfg.method}
    if cfg.method == "both":
        zb = brute_force_partition_function(t, g, w)
        zt = transfer_matrix_partition_function(t, g, w)
        meta["count"] = {r.method: _count_path(r) for r in (zb, zt)}
        out["z_brute"] = frac_str(zb.z)
        out["z_transfer"] = frac_str(zt.z)
        out["instance"] = zb.instance
        if zb.z != zt.z:
            raise OracleMismatch(
                f"brute {zb.z} != transfer {zt.z} on {zb.instance}"
            )
        out["z"] = frac_str(zb.z)
    else:
        res = {"brute": brute_force_partition_function,
               "transfer": transfer_matrix_partition_function}[cfg.method](t, g, w)
        meta["count"] = {res.method: _count_path(res)}
        out["z"] = frac_str(res.z)
        out["instance"] = res.instance
        out["route"] = res.method
    return out


def _count_path(res) -> dict:
    return {
        "route": res.route,
        "arithmetic": res.arithmetic,
        "layer_states": res.layer_states,
        "search_states": res.search_states,
    }


def cmd_sample(cfg: RunConfig, meta: dict) -> dict:
    g, w = resolve_instance(cfg)
    t = resolve_torus(cfg)
    steps = cfg.steps if cfg.steps is not None else 10_000
    thin = cfg.thin if cfg.thin is not None else max(1, (steps - cfg.burn_in) // 200)
    chain_cfg = ChainConfig(
        steps=steps, burn_in=cfg.burn_in, seed=cfg.seed, thin=thin
    )
    try:
        chain_cfg.require_samples()
    except ValueError as e:
        raise ConfigError(str(e)) from None
    stats = ChainStats()
    states = run_chain(t, g, w, chain_cfg, cfg.initial, stats=stats)
    trace = []
    step = cfg.burn_in
    final = None
    for block in _state_blocks(t, states):
        labels, counts = label_block(t, g, w, block)
        for label, (even, odd) in zip(labels, counts.tolist()):
            step += thin
            trace.append(
                {
                    "step": step,
                    "kind": label.kind,
                    "pair": pair_labels(g, label.pair) if label.pair else None,
                    "ideal_fraction": frac_str(label.ideal_fraction),
                    "histogram_even": dict(zip(g.labels, even)),
                    "histogram_odd": dict(zip(g.labels, odd)),
                }
            )
        final = labels[-1]
    meta["start"] = stats.start
    meta["restarts"] = stats.restarts
    return {
        "instance": f"m={t.m} d={t.d} h={g.h}",
        "steps": steps,
        "burn_in": cfg.burn_in,
        "thin": thin,
        "seed": cfg.seed,
        "initial": cfg.initial,
        "trace": trace,
        "stats": {
            "forced_moves": stats.forced_moves,
            "color_changes": stats.color_changes,
        },
        "final_kind": final.kind if final else None,
    }


def _sample_summary(result: dict) -> str:
    last = result["trace"][-1] if result["trace"] else None
    tail = (
        f" final={result['final_kind']} ideal_fraction={last['ideal_fraction']}"
        if last
        else ""
    )
    return f"samples={len(result['trace'])}{tail}"


def cmd_influence(cfg: RunConfig, meta: dict) -> dict:
    g, w = resolve_instance(cfg)
    t = resolve_torus(cfg)
    y = resolve_vertex(t, cfg.x)
    ell = resolve_color(g, cfg.l, "l")
    k = resolve_color(g, cfg.k, "k") if cfg.k is not None else ell
    relation = "same-side" if t.parity(y) == 0 else "cross-side"
    out: dict = {
        "instance": f"m={t.m} d={t.d} h={g.h}",
        "pin_vertex": y,
        "pin_color": g.labels[ell],
        "observe_vertex": 0,
        "observe_color": g.labels[k],
        "relation": relation,
        "labels": list(g.labels),
    }
    # The exact laws of f(0), h pinned counts each. A refused count ends
    # the command unless a chain is asked for, which still runs.
    try:
        occ = exact_occupation_vector(t, g, w)
        cond = exact_occupation_vector(t, g, w, 0, (y, ell))
    except BudgetExceeded:
        if cfg.steps is None:
            raise
        occ = cond = None
    # Their limits, undefined without an equipartition condition.
    try:
        occ_t = theorem_occupation_vector(g, w)
        cond_t = theorem_conditional_vector(g, w, relation, ell)
    except (NotEquipartition, ZeroConditioning) as e:
        occ_t = cond_t = None
        out["target_note"] = str(e)
    out["occupation"] = _block(f"occupation x=0 m={t.m} d={t.d}", occ, occ_t)
    out["conditional"] = _block(
        f"{relation} ell={ell} y={y} m={t.m} d={t.d}", cond, cond_t
    )
    out["ratio_exact"] = _ratio(cond, occ, k)
    out["ratio_target"] = _ratio(cond_t, occ_t, k)
    if cfg.steps is not None:
        out["empirical"] = _empirical_conditional(t, g, w, cfg, y, ell, k, meta)
    return out


def _block(label: str, exact, target) -> dict | None:
    """An exact law next to its limit, or None when either is missing."""
    if exact is None or target is None:
        return None
    return ComparisonRecord(
        label, target, exact, distance=sup_distance(exact, target)
    ).to_json_dict()


def _ratio(cond, occ, k: int) -> str | None:
    """cond[k] / occ[k] as text; None when a law is missing or occ[k] is 0."""
    return frac_str(cond[k] / occ[k]) if occ and occ[k] else None


def _empirical_conditional(
    t: TorusGraph,
    g: ConstraintGraph,
    w: WeightSet,
    cfg: RunConfig,
    y: int,
    ell: int,
    k: int,
    meta: dict,
) -> dict:
    burn = cfg.burn_in if cfg.burn_in else cfg.steps // 10
    chain_cfg = ChainConfig(
        steps=cfg.steps, burn_in=burn, seed=cfg.seed, pinned=(y, ell)
    )
    stats = ChainStats()
    # one byte per sample, 1 where f(0) = k: the counts and means are the
    # ones a list of 0.0 / 1.0 gives, in an eighth of the memory
    hits = bytearray(
        state[0] == k
        for state in run_chain(t, g, w, chain_cfg, cfg.initial, stats=stats)
    )
    meta["start"] = stats.start
    meta["restarts"] = stats.restarts
    stderr = _batch_stderr(hits) if len(hits) >= 4 else None
    return {
        "p_conditional": sum(hits) / len(hits),
        "stderr": stderr,
        "n_samples": len(hits),
    }


def _influence_summary(result: dict) -> str:
    cond = result.get("conditional")
    dist = cond["d_inf_distance"] if cond else None
    dist_text = f"{dist[0]}/{dist[1]}" if dist else "n/a"
    return (
        f"relation={result['relation']} pin={result['pin_vertex']} "
        f"ratio_exact={result['ratio_exact']} "
        f"ratio_target={result['ratio_target']} d_inf={dist_text}"
    )


def _is_complete_uniform(g: ConstraintGraph, w: WeightSet) -> bool:
    full = g.full_mask
    return (
        w.is_uniform()
        and w[0] == 1
        and all(g.adj[k] == full ^ (1 << k) for k in range(g.h))
    )


def cmd_conjecture(cfg: RunConfig, meta: dict) -> dict:
    g, w = resolve_instance(cfg)
    is_coloring = _is_complete_uniform(g, w)
    rows = []
    for d in range(1, cfg.max_d + 1):
        t = TorusGraph(cfg.m, d)
        pp = conjecture_partition_prediction(g, w, t)
        try:
            prediction = pp.total()
        except OverflowError:
            prediction = math.inf
        if math.isinf(prediction):
            raise BudgetExceeded(
                f"the prediction at d={d} is too large for a float"
            )
        if prediction == 0.0:
            raise BudgetExceeded(
                f"the prediction at d={d} is too small for a float"
            )
        row: dict = {
            "d": d,
            "n": t.n,
            "prediction": prediction,
            "prefactor_model": pp.prefactor_model,
            "pair_count": len(pp.predictions),
            "correction_exponents": sorted(
                {frac_str(p.correction_exponent) for p in pp.predictions}
            ),
        }
        try:
            row["exact"] = frac_str(transfer_matrix_partition_function(t, g, w).z)
            row["prediction_over_exact"] = prediction / float(
                Fraction(row["exact"])
            )
        except BudgetExceeded:
            row["exact"] = None
            row["prediction_over_exact"] = None
        if is_coloring and cfg.m == 2:
            row["f_q"] = frac_str(conjecture_f_q(g.h, d))
            row["consistency_L_vs_f"] = consistency_L_vs_f(g.h, d)
        rows.append(row)
    return {
        "m": cfg.m,
        "colors": g.h,
        "weights": [str(q) for q in w.weights],
        "coloring_model": is_coloring,
        "rows": rows,
    }


def _conjecture_summary(result: dict) -> str:
    lines = [
        f"{'d':>3} {'n':>6} {'prediction':>16} {'exact':>16} {'ratio':>9}  model"
    ]
    for row in result["rows"]:
        exact = row["exact"] if row["exact"] is not None else "-"
        ratio = (
            f"{row['prediction_over_exact']:9.4f}"
            if row["prediction_over_exact"] is not None
            else f"{'-':>9}"
        )
        lines.append(
            f"{row['d']:>3} {row['n']:>6} {row['prediction']:>16.6g} "
            f"{exact:>16} {ratio}  {row['prefactor_model']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------- golden corpus


# Caches whose hits and misses over the run go into meta: the meta key, the
# (hits, misses) counter and the commands that report them.
_CACHE_METERS = (
    ("structure_cache", structure_cache_counts, {"analyze", "sample", "influence"}),
    ("engine_cache", engine_cache_counts, {"count", "influence"}),
)


def run_command(cfg: RunConfig, meta: dict) -> dict:
    runner = {
        "analyze": cmd_analyze,
        "count": cmd_count,
        "sample": cmd_sample,
        "influence": cmd_influence,
        "conjecture": cmd_conjecture,
    }.get(cfg.command)
    if runner is None:
        raise ConfigError(f"command {cfg.command!r} cannot run inside a corpus")
    before = [counts() for _, counts, _ in _CACHE_METERS]
    result = runner(cfg, meta)
    for (key, counts, commands), (hits0, misses0) in zip(_CACHE_METERS, before):
        if cfg.command in commands:
            hits, misses = counts()
            meta[key] = {"hits": hits - hits0, "misses": misses - misses0}
    return result


def cmd_corpus(cfg: RunConfig, meta: dict) -> dict:
    golden_dir = Path(cfg.golden_dir)
    if not golden_dir.is_dir():
        raise ConfigError(f"golden directory {golden_dir} does not exist")
    paths = sorted(golden_dir.glob("*.json"))
    if not paths:
        raise ConfigError(f"no golden files in {golden_dir}")

    def run_one(path: Path) -> dict:
        doc = json.loads(path.read_text(encoding="utf-8"))
        inst = RunConfig.from_mapping(doc["config"])
        got = run_command(inst, {})
        record = {"name": path.stem, "command": inst.command}
        if cfg.update:
            path.write_text(
                json.dumps(
                    {"config": inst.to_json_dict(), "result": got},
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )
            record["status"] = "updated"
        elif result_bytes(got) == result_bytes(doc.get("result")):
            record["status"] = "ok"
        else:
            record["status"] = "mismatch"
            record["expected"] = doc.get("result")
            record["got"] = got
        return record

    records = [run_one(path) for path in paths]
    failed = [r["name"] for r in records if r["status"] == "mismatch"]
    result = {
        "golden_dir": str(golden_dir),
        "total": len(records),
        "failed": failed,
        "records": records,
    }
    if failed:
        raise CorpusMismatch(result)
    return result


class CorpusMismatch(TorushomError):
    """Golden diff failure; carries the full result for reporting."""

    def __init__(self, result: dict):
        super().__init__(f"{len(result['failed'])} golden mismatches")
        self.result = result


def _corpus_summary(result: dict) -> str:
    return f"golden={result['total']} failed={len(result['failed'])}"


# ----------------------------------------------------------------- driver


def _csv_export(cfg: RunConfig, result: dict) -> None:
    if not cfg.csv:
        return
    if cfg.command == "influence":
        header = ["color", "occupation_target", "occupation_exact",
                  "conditional_target", "conditional_exact"]
        occ = result.get("occupation")
        cond = result.get("conditional")
        rows = []
        for i, label in enumerate(result["labels"]):
            def cell(block, field):
                if not block or block.get(field) is None:
                    return ""
                num, den = block[field][i]
                return f"{num}/{den}" if den != "1" else num
            rows.append([label, cell(occ, "target"), cell(occ, "exact"),
                         cell(cond, "target"), cell(cond, "exact")])
    else:  # conjecture: RunConfig refuses csv for every other command
        header = ["d", "n", "prediction", "exact", "prediction_over_exact",
                  "prefactor_model"]
        rows = [
            [r["d"], r["n"], repr(r["prediction"]),
             r["exact"] if r["exact"] is not None else "",
             repr(r["prediction_over_exact"])
             if r["prediction_over_exact"] is not None else "",
             r["prefactor_model"]]
            for r in result["rows"]
        ]
    write_csv(cfg.csv, header, rows)


_SUMMARIES = {
    "analyze": _analyze_summary,
    "count": lambda r: f"Z = {r['z']} ({r['method']})",
    "sample": _sample_summary,
    "influence": _influence_summary,
    "conjecture": _conjecture_summary,
    "corpus": _corpus_summary,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. Int flags arrive as
    text; `RunConfig.from_mapping` coerces them with `parse_int`."""
    parser = argparse.ArgumentParser(
        prog="torushom",
        description="Weighted homomorphism structure on even discrete tori.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--h", help="target graph preset name or file path")
        p.add_argument("--weights", help="comma-separated color weights")
        p.add_argument("--m")
        p.add_argument("--d")
        p.add_argument("--seed")
        p.add_argument("--config", help="key=value or JSON config file")
        p.add_argument("--out", help="write the JSON document to this path")
        p.add_argument("--csv", help="export table/vector rows to this path")

    p = sub.add_parser("analyze", help="extremal pairs, blow-up, symmetry class")
    common(p)

    p = sub.add_parser("count", help="exact partition function")
    common(p)
    p.add_argument("--method", choices=["brute", "transfer", "both"])

    p = sub.add_parser("sample", help="single-site chain with phase trace")
    common(p)
    p.add_argument("--steps")
    p.add_argument("--burn-in")
    p.add_argument("--thin")
    p.add_argument("--initial")

    p = sub.add_parser("influence", help="pinned-vertex conditional marginals")
    common(p)
    p.add_argument("--x", help="pin vertex: index, antipodal, far-even, far-odd")
    p.add_argument("--k", help="observed color (label or index)")
    p.add_argument("--l", help="pinned color (label or index)")
    p.add_argument("--steps")
    p.add_argument("--burn-in")

    p = sub.add_parser("conjecture", help="growth predictions vs exact counts")
    common(p)
    p.add_argument("--max-d")

    p = sub.add_parser("corpus", help="run golden instances and diff outputs")
    common(p)
    p.add_argument("--golden-dir")
    p.add_argument("--update", action="store_const", const=True, default=None)

    return parser


def build_config(argv) -> RunConfig:
    parser = build_parser()
    ns = vars(parser.parse_args(argv))
    config_path = ns.pop("config", None)
    mapping: dict = {"command": ns.pop("command")}
    if config_path:
        file_vals = load_config_file(config_path)
        file_vals.pop("command", None)  # subcommand on the CLI wins
        mapping.update(file_vals)
    mapping.update({k: v for k, v in ns.items() if v is not None})
    return RunConfig.from_mapping(mapping)


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        cfg = build_config(argv)
    except SystemExit as e:
        return int(e.code or 0)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        runner = {**{c: run_command for c in COMMANDS}, "corpus": cmd_corpus}
        meta: dict = {}
        result = runner[cfg.command](cfg, meta)
        _csv_export(cfg, result)
        emit(cfg, result, meta, started, _SUMMARIES[cfg.command](result))
        return 0
    except CorpusMismatch as e:
        emit(cfg, e.result, {}, started, _corpus_summary(e.result))
        print(f"assertion error: {e}", file=sys.stderr)
        return 4
    except (BudgetExceeded, CapExceeded) as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 3
    except OracleMismatch as e:
        print(f"assertion error: {e}", file=sys.stderr)
        return 4
    except (ConfigError, ParseError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except TorushomError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
