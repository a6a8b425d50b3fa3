"""End-to-end command-line tests: config plumbing, exit codes, JSON
determinism, CSV export, and the golden corpus runner."""

import json
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import torushom
from torushom import constraint_graph, exact
from torushom.cli import (
    RunConfig,
    build_config,
    main,
    parse_config_text,
    parse_int,
    result_bytes,
)
from torushom.constraint_graph import WeightSet, preset
from torushom.errors import ConfigError
from torushom.sampler import ChainConfig, _batch_stderr, run_chain
from torushom.torus import TorusGraph
from references import (
    conditional_comparison,
    influence_ratio,
    occupation_comparison,
    theorem_influence_ratio,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_json(tmp_path, argv):
    """Run main with --out and return (exit_code, result dict)."""
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, (doc["result"] if doc else None)


def run_subprocess(argv, memory_mb=None):
    """Run the CLI module in a new interpreter with a 60 s timeout, so a
    refusal that first built what it refuses fails the test. `memory_mb`
    caps the interpreter's address space, for a refusal whose failure
    would otherwise fill the machine's memory before the timeout."""
    src = str(Path(torushom.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")

    def cap():
        limit = memory_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "torushom.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")},
        preexec_fn=None if memory_mb is None else cap,
    )


class TestRunConfig:
    def test_json_round_trip(self):
        cfg = RunConfig(command="corpus", golden_dir="g", update=True)
        assert RunConfig.from_mapping(cfg.to_json_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"command": "count", "mm": 2})

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"command": "paint"})

    def test_missing_command_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping(parse_config_text("m=2\n"))

    def test_bool_coercion(self):
        def update(text):
            return RunConfig.from_mapping(parse_config_text(text)).update

        assert update("command=corpus\nupdate=true\n")
        assert not update("command=corpus\nupdate=no\n")
        with pytest.raises(ConfigError):
            update("command=corpus\nupdate=maybe\n")

    def test_parse_int_forms(self):
        assert parse_int("1e6", "steps") == 1_000_000
        assert parse_int("250", "steps") == 250
        assert parse_int(7, "steps") == 7
        # exact, where a float would lose the low digits
        assert parse_int("1e23", "steps") == 10**23
        assert parse_int("12345678901234567.0", "steps") == 12345678901234567
        with pytest.raises(ConfigError):
            parse_int("1.5", "steps")
        with pytest.raises(ConfigError):
            parse_int("many", "steps")

    def test_config_text_comments_and_errors(self):
        assert parse_config_text("# note\nm=2\n\nd = 3\n") == {"m": "2", "d": "3"}
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_text("{not json")


class TestConfigMerging:
    def test_flags_override_file(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("h=k3\nm=2\nd=3\nseed=9\n")
        cfg = build_config(["count", "--config", str(cfile), "--d", "2"])
        assert (cfg.h, cfg.m, cfg.d, cfg.seed) == ("k3", 2, 2, 9)

    def test_json_config_file(self, tmp_path):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"h": "wr", "weights": "1,2,1"}))
        cfg = build_config(["analyze", "--config", str(cfile)])
        assert cfg.h == "wr" and cfg.weights == "1,2,1"

    def test_subcommand_beats_config_command(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("command=sample\nh=k3\n")
        cfg = build_config(["analyze", "--config", str(cfile)])
        assert cfg.command == "analyze"

    def test_missing_config_file(self, capsys):
        assert main(["analyze", "--config", "/nonexistent.cfg"]) == 2
        assert "config error" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_balanced_split_report(self, tmp_path):
        code, res = run_json(tmp_path, ["analyze", "--h", "kq:5"])
        assert code == 0
        assert res["eta"] == "6"
        assert res["pair_count"] == 20
        assert res["equipartition"] == "transitive"

    def test_ten_colors_transitive(self, tmp_path):
        # 10! automorphisms: the orbit step must not list the group
        code, res = run_json(tmp_path, ["analyze", "--h", "kq:10"])
        assert code == 0
        assert res["eta"] == "25"
        assert res["pair_count"] == 252
        assert res["equipartition"] == "transitive"

    def test_seventeen_colors_refused(self, capsys):
        # past MAX_COLORS the subset scan refuses before it starts
        assert main(["analyze", "--h", "k17"]) == 3
        assert "budget error" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["k17", "k24"])
    def test_past_the_cap_refused_before_any_subset_table(self, monkeypatch, h):
        def no_table(*args):
            raise AssertionError("a subset table was built")

        monkeypatch.setattr(constraint_graph, "_subset_table", no_table)
        assert main(["analyze", "--h", h]) == 3

    def test_blowup_past_the_cap_refused_before_it_is_built(self):
        # 1,000,001 clones would need 10^12 adjacency bits
        proc = run_subprocess(["analyze", "--h", "ind", "--weights", "1000000,1"])
        assert proc.returncode == 3
        assert "subset scan capped at 16 colors, got 1000001" in proc.stderr

    def test_orbit_step_in_meta(self, tmp_path):
        out = tmp_path / "doc.json"
        assert main(["analyze", "--h", "kq:6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        orbit = doc["meta"]["orbit"]
        assert set(orbit) == {"generators", "orbit_size", "nodes", "seconds"}
        assert orbit["orbit_size"] == doc["result"]["pair_count"] == 20
        assert orbit["generators"] == 5  # one per stabilizer level of S_6
        assert orbit["nodes"] > 0 and orbit["seconds"] >= 0
        assert "orbit" not in doc["result"]

    def test_two_class_swap_report(self, tmp_path):
        code, res = run_json(tmp_path, ["analyze", "--h", "ind"])
        assert code == 0
        assert res["pair_count"] == 2
        assert res["equipartition"] == "two-class-swap"
        assert {"a": ["in", "out"], "b": ["out"]} in res["maximal_pairs"]

    def test_blowup_summary(self, tmp_path):
        code, res = run_json(
            tmp_path, ["analyze", "--h", "ind", "--weights", "3/2,1"]
        )
        assert code == 0
        assert res["blowup"]["scale_c"] == 2
        assert res["blowup"]["block_sizes"] == [3, 2]
        assert res["blowup"]["pair_bijection_ok"] is True

    def test_target_graph_from_file(self, tmp_path):
        hfile = tmp_path / "hard_core.txt"
        hfile.write_text("colors 2\nw 0 3/2\ne 0 1\ne 1 1\n")
        code, res = run_json(tmp_path, ["analyze", "--h", str(hfile)])
        assert code == 0
        assert res["eta"] == "5/2"
        assert res["weights"] == ["3/2", "1"]

    def test_file_parse_error_reports_line(self, tmp_path, capsys):
        hfile = tmp_path / "bad.txt"
        hfile.write_text("colors 2\nedge 0 1\n")
        assert main(["analyze", "--h", str(hfile)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_summary_line(self, capsys):
        assert main(["analyze", "--h", "wr"]) == 0
        captured = capsys.readouterr()
        assert "eta=4 pairs=2 class=transitive" in captured.err
        json.loads(captured.out)  # stdout carries the document


class TestCountCommand:
    def test_both_routes(self, tmp_path):
        code, res = run_json(
            tmp_path, ["count", "--h", "k3", "--m", "2", "--d", "2"]
        )
        assert code == 0
        assert res["z"] == "18"
        assert res["z_brute"] == res["z_transfer"] == "18"

    def test_single_route(self, tmp_path):
        code, res = run_json(
            tmp_path,
            ["count", "--h", "k4loop", "--m", "2", "--d", "3",
             "--method", "transfer"],
        )
        assert code == 0
        assert res["z"] == "65536" and res["route"] == "transfer"

    def test_weighted_value_is_exact(self, tmp_path):
        code, res = run_json(
            tmp_path,
            ["count", "--h", "ind", "--weights", "1/3,1", "--m", "4",
             "--d", "1"],
        )
        assert code == 0
        # 1 + 4*lam + 2*lam^2 at lam=1/3
        assert res["z"] == "23/9"

    @pytest.mark.parametrize(
        "name, transfer",
        [
            ("count-k3-m2-d2", {"route": "bitset", "arithmetic": "int",
                                "layer_states": 6}),
            ("count-k4loop-m2-d3", {"route": "bitset", "arithmetic": "int",
                                    "layer_states": 256}),
            ("count-wr-weighted-m4-d1", {"route": "sectors",
                                         "arithmetic": "modular",
                                         "layer_states": 3}),
        ],
    )
    def test_path_in_meta_and_golden_bytes(self, tmp_path, name, transfer):
        # (vertex, frontier coloring) entries the brute-force search stores
        search_states = {"count-k3-m2-d2": 10, "count-k4loop-m2-d3": 853,
                         "count-wr-weighted-m4-d1": 11}[name]
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        config = tmp_path / "config.json"
        config.write_text(json.dumps(golden["config"]))
        out = tmp_path / "doc.json"
        assert main(["count", "--config", str(config), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert result_bytes(doc["result"]) == result_bytes(golden["result"])
        assert doc["meta"]["count"] == {
            "brute": {"route": "brute", "arithmetic": "int64",
                      "layer_states": None, "search_states": search_states},
            "transfer": {**transfer, "search_states": None},
        }

    def test_single_route_path_in_meta(self, tmp_path):
        out = tmp_path / "doc.json"
        argv = ["count", "--h", "ind", "--m", "4", "--d", "2",
                "--method", "transfer", "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["count"] == {
            "transfer": {"route": "sectors", "arithmetic": "modular",
                         "layer_states": 7, "search_states": None},
        }
        assert "count" not in doc["result"]

    def test_budget_exit_code(self, capsys):
        assert main(["count", "--h", "k8", "--m", "6", "--d", "3"]) == 3
        assert "budget error" in capsys.readouterr().err

    def test_transfer_budget_refused_without_forming_the_power(self):
        # a Q_39 layer has 2^39 positions: the layer sweep is refused after
        # a few dozen of them, before it lists the rest
        proc = run_subprocess(
            ["count", "--h", "k3", "--m", "2", "--d", "40", "--method", "transfer"]
        )
        assert proc.returncode == 3
        assert re.search(
            r"transfer's layer sweep needs \d+\*3\*\d+ > 10000000 cells "
            r"at layer vertex \d+ of 549755813888", proc.stderr
        )

    @pytest.mark.parametrize("m, found", [("100000", 105), ("200000000", 0)])
    def test_transfer_refused_when_its_primes_run_out(self, m, found):
        # only `found` primes p = 1 (mod m) lie below the float64 bound
        proc = run_subprocess(
            ["count", "--h", "ind", "--m", m, "--d", "1", "--method", "transfer"]
        )
        assert proc.returncode == 3
        assert (
            f"needs more primes p = 1 (mod {m}) below 67108864, where float64 "
            f"products stay exact, than there are ({found})" in proc.stderr
        )

    def test_one_color_brute_on_large_torus_is_counted(self, tmp_path):
        # n = 2048 vertices: deeper than the interpreter's recursion limit,
        # which the vertex sweep does not meet
        hfile = tmp_path / "one.txt"
        hfile.write_text("colors 1\ne 0 0\n")
        argv = ["count", "--h", str(hfile), "--m", "2", "--d", "11"]
        code, res = run_json(tmp_path, argv + ["--method", "brute"])
        assert code == 0
        assert res["z"] == "1"

    def test_bad_method(self, capsys):
        assert main(["count", "--h", "k3", "--method", "magic"]) == 2

    def test_odd_torus_rejected(self, capsys):
        assert main(["count", "--h", "k3", "--m", "3", "--d", "2"]) == 2

    def test_bad_weights_length(self, capsys):
        assert main(["count", "--h", "k3", "--weights", "1,1"]) == 2


class TestSampleCommand:
    def test_trace_structure(self, tmp_path):
        code, res = run_json(
            tmp_path,
            ["sample", "--h", "ind", "--m", "2", "--d", "2",
             "--steps", "400", "--thin", "40", "--seed", "3"],
        )
        assert code == 0
        assert len(res["trace"]) == 10
        rec = res["trace"][-1]
        assert rec["step"] == 400
        assert rec["kind"] in ("pure", "exceptional")
        assert sum(rec["histogram_even"].values()) == 2
        assert sum(rec["histogram_odd"].values()) == 2

    def test_scientific_steps_accepted(self, tmp_path):
        code, res = run_json(
            tmp_path,
            ["sample", "--h", "ind", "--m", "2", "--d", "2",
             "--steps", "1e3", "--seed", "1"],
        )
        assert code == 0
        assert res["steps"] == 1000

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        argv = ["sample", "--h", "k3", "--m", "2", "--d", "2",
                "--steps", "500", "--seed", "5"]
        _, first = run_json(tmp_path, argv)
        _, second = run_json(tmp_path, argv)
        assert result_bytes(first) == result_bytes(second)

    def test_greedy_failure_falls_back_to_pure_start(self, tmp_path):
        out = tmp_path / "doc.json"
        argv = ["sample", "--h", "k3", "--m", "8", "--d", "3", "--steps",
                "2000", "--thin", "1000", "--seed", "0", "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["start"] == "pure-fallback"
        assert len(doc["result"]["trace"]) == 2
        assert doc["result"]["initial"] == "uniform-greedy"

    @pytest.mark.parametrize("initial", ["abcd", "greedy"])
    def test_unknown_initializer_is_a_config_error(self, capsys, initial):
        # "abcd" has one character per vertex of Z_2^2: it is still a name,
        # not a coloring
        argv = ["sample", "--h", "ind", "--m", "2", "--d", "2", "--steps",
                "10", "--initial", initial]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown initializer {initial!r}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_chain_without_a_sample_is_a_config_error(self, capsys, tmp_path):
        out = tmp_path / "doc.json"
        argv = ["sample", "--h", "wr", "--m", "4", "--d", "2", "--steps",
                "10", "--thin", "20", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the chain yields no sample")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_chain_past_its_cells_refused_before_its_tables(self):
        # Q_40's tables would need terabytes; the memory cap turns a missing
        # refusal into a failure instead of an exhausted machine
        proc = run_subprocess(
            ["sample", "--h", "ind", "--m", "2", "--d", "40", "--steps", "10"],
            memory_mb=2048,
        )
        assert proc.returncode == 3
        assert "the chain needs 1099511627776*40 > 2500000 neighbour cells" in proc.stderr

    def test_different_seed_changes_trace(self, tmp_path):
        base = ["sample", "--h", "k3", "--m", "2", "--d", "2",
                "--steps", "500"]
        _, first = run_json(tmp_path, base + ["--seed", "1"])
        _, second = run_json(tmp_path, base + ["--seed", "2"])
        assert result_bytes(first) != result_bytes(second)


class TestInfluenceCommand:
    def test_chain_past_its_cells_refused_before_its_tables(self):
        # the exact laws are refused too, and a chain is asked for
        proc = run_subprocess(
            ["influence", "--h", "ind", "--m", "2", "--d", "40", "--l", "0",
             "--steps", "10"],
            memory_mb=2048,
        )
        assert proc.returncode == 3
        assert "the chain needs 1099511627776*40 > 2500000 neighbour cells" in proc.stderr

    def test_exact_comparison(self, tmp_path):
        code, res = run_json(
            tmp_path,
            ["influence", "--h", "wr", "--m", "2", "--d", "2",
             "--x", "antipodal", "--k", "1", "--l", "1"],
        )
        assert code == 0
        assert res["relation"] == "same-side"
        assert res["ratio_target"] == "2"
        assert res["conditional"]["target"] == [["1", "2"], ["1", "2"], ["0", "1"]]
        assert res["conditional"]["d_inf_distance"] == ["1", "9"]

    def test_label_and_index_agree(self, tmp_path):
        by_label = run_json(
            tmp_path,
            ["influence", "--h", "ind", "--m", "2", "--d", "2",
             "--x", "antipodal", "--k", "in", "--l", "in"],
        )[1]
        by_index = run_json(
            tmp_path,
            ["influence", "--h", "ind", "--m", "2", "--d", "2",
             "--x", "antipodal", "--k", "0", "--l", "0"],
        )[1]
        assert result_bytes(by_label) == result_bytes(by_index)

    def test_observed_color_defaults_to_pinned(self, tmp_path):
        code, res = run_json(
            tmp_path,
            ["influence", "--h", "wr", "--m", "2", "--d", "2",
             "--x", "far-odd", "--l", "1"],
        )
        assert code == 0
        assert res["observe_color"] == "1"
        assert res["relation"] == "cross-side"

    def test_empirical_block(self, tmp_path):
        code, res = run_json(
            tmp_path,
            ["influence", "--h", "ind", "--m", "2", "--d", "2",
             "--x", "3", "--k", "in", "--l", "in", "--steps", "4000",
             "--seed", "2"],
        )
        assert code == 0
        emp = res["empirical"]
        assert emp["n_samples"] == 3600
        assert 0.0 <= emp["p_conditional"] <= 1.0
        assert emp["stderr"] > 0
        # pinned "in" at the same-side vertex raises the observed rate
        exact = res["conditional"]["exact"][0]
        p_cond = int(exact[0]) / int(exact[1])
        assert abs(emp["p_conditional"] - p_cond) < 5 * emp["stderr"] + 0.02

    def test_empirical_stderr_is_batch_means_of_the_chain(self, tmp_path):
        argv = ["influence", "--h", "ind", "--m", "2", "--d", "2", "--x", "3",
                "--k", "in", "--l", "in", "--seed", "2"]
        code, res = run_json(tmp_path, argv + ["--steps", "4000"])
        assert code == 0
        # the same chain: burn-in steps // 10, pinned (3, "in"), greedy start
        g = preset("ind")
        cfg = ChainConfig(steps=4000, burn_in=400, seed=2, pinned=(3, 0))
        hits = [
            1.0 if f[0] == 0 else 0.0
            for f in run_chain(TorusGraph(2, 2), g, WeightSet.ones(2), cfg)
        ]
        emp = res["empirical"]
        assert emp["n_samples"] == len(hits)
        assert emp["p_conditional"] == sum(hits) / len(hits)
        assert emp["stderr"] == _batch_stderr(hits)
        code, res = run_json(tmp_path, argv + ["--steps", "3"])
        assert code == 0
        assert res["empirical"]["n_samples"] == 3
        assert res["empirical"]["stderr"] is None

    def test_missing_pin_color(self, capsys):
        assert main(["influence", "--h", "wr", "--m", "2", "--d", "2"]) == 2
        assert "--l" in capsys.readouterr().err

    def test_bad_pin_vertex(self, capsys):
        assert main(
            ["influence", "--h", "wr", "--m", "2", "--d", "2",
             "--x", "99", "--l", "1"]
        ) == 2

    def test_csv_export(self, tmp_path):
        csv_path = tmp_path / "vec.csv"
        code, _ = run_json(
            tmp_path,
            ["influence", "--h", "wr", "--m", "2", "--d", "2",
             "--x", "antipodal", "--l", "1", "--csv", str(csv_path)],
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("color,occupation_target")
        assert len(lines) == 4
        assert lines[1].split(",")[3] == "1/2"  # conditional target for color 1


class TestInfluenceCounts:
    """`influence` forms the law of f(0) from h - 1 pinned counts and Z,
    the law given the pin from h pinned counts, and reads the exact ratio
    from those two laws."""

    def test_h_minus_1_pinned_counts_then_z_then_h_pinned(self, tmp_path, monkeypatch):
        calls = []
        real = exact.transfer_matrix_partition_function

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append((kwargs.get("pins"), res.route))
            return res

        monkeypatch.setattr(exact, "transfer_matrix_partition_function", spy)
        code, res = run_json(
            tmp_path,
            ["influence", "--h", "wr", "--m", "6", "--d", "2",
             "--x", "antipodal", "--l", "1"],
        )
        assert code == 0
        y, ell = res["pin_vertex"], res["labels"].index(res["pin_color"])
        assert calls == (
            [({0: 1 << k}, "masked") for k in range(2)]
            + [(None, "sectors")]
            + [({y: 1 << ell, 0: 1 << k}, "masked") for k in range(3)]
        )
        assert res["ratio_exact"] is not None

    def test_refused_before_the_unpinned_count(self, monkeypatch):
        # k3 on Z_4^3: the sectors count Z within the budget, but the
        # pinned counts pass it, and they come first
        def no_sectors(self, bound):
            raise AssertionError("the unpinned count was reached")

        monkeypatch.setattr(exact._TransferEngine, "_sector_sum", no_sectors)
        assert main(["influence", "--h", "k3", "--m", "4", "--d", "3", "--l", "1"]) == 3

    @pytest.mark.parametrize(
        "spec,m,d,x,k,ell",  # k and ell are color labels
        [
            ("wr", 2, 3, "antipodal", "1", "2"),
            ("k3", 4, 2, "far-odd", "3", "1"),
            # no equipartition target: the exact ratio is still reported
            ("ind+kq:3", 2, 2, "antipodal", "2", "3"),
        ],
    )
    def test_ratio_matches_influence_ratio(self, tmp_path, spec, m, d, x, k, ell):
        code, res = run_json(
            tmp_path,
            ["influence", "--h", spec, "--m", str(m), "--d", str(d),
             "--x", x, "--k", k, "--l", ell],
        )
        assert code == 0
        assert ("target_note" in res) == (spec == "ind+kq:3")
        g, t = preset(spec), TorusGraph(m, d)
        expected = influence_ratio(
            t, g, WeightSet.ones(g.h), 0, g.labels.index(k),
            res["pin_vertex"], g.labels.index(ell),
        )
        assert Fraction(res["ratio_exact"]) == expected


class TestInfluenceOnePath:
    """`influence` forms each exact law once and each limit target once,
    and a refused count or an impossible pin is reported the same way
    whether or not the targets exist."""

    def test_refused_count_without_targets_exits_3(self, tmp_path):
        # ind+k3 has no equipartition target; its counts on Q_6 are refused
        argv = ["influence", "--h", "ind+k3", "--m", "2", "--d", "6", "--l", "1"]
        assert main(argv) == 3
        code, res = run_json(tmp_path, argv + ["--steps", "2000"])
        assert code == 0
        assert "target_note" in res
        assert res["occupation"] is None and res["conditional"] is None
        assert res["ratio_exact"] is None and res["ratio_target"] is None
        assert res["empirical"]["n_samples"] == 1800

    @pytest.mark.parametrize("extra", [[], ["--k", "0"]])
    def test_impossible_pin_color_exits_2(self, tmp_path, capsys, extra):
        # color 2 has no neighbour, so no coloring of the torus uses it
        path = tmp_path / "h.txt"
        path.write_text("colors 3\ne 0 1\ne 1 1\n")
        argv = ["influence", "--h", str(path), "--m", "2", "--d", "2", "--l", "2"]
        assert main(argv + extra) == 2
        assert "conditioning event has weight zero" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,d", [("wr", 3), ("ind+k3", 2)])
    def test_2h_partition_functions(self, tmp_path, monkeypatch, spec, d):
        calls = []
        real = exact.transfer_matrix_partition_function

        def counter(*args, **kwargs):
            calls.append(kwargs.get("pins"))
            return real(*args, **kwargs)

        monkeypatch.setattr(exact, "transfer_matrix_partition_function", counter)
        code, _ = run_json(
            tmp_path,
            ["influence", "--h", spec, "--m", "2", "--d", str(d), "--l", "1"],
        )
        assert code == 0
        assert len(calls) == 2 * preset(spec).h

    @pytest.mark.parametrize("m,d", [(2, 2), (2, 3), (4, 2)])
    @pytest.mark.parametrize(
        "spec,weights", [("ind", None), ("ind", "3/2,1"), ("k3", None), ("wr", None)]
    )
    def test_matches_the_reference_comparisons(self, tmp_path, spec, weights, m, d):
        g, t = preset(spec), TorusGraph(m, d)
        w = WeightSet.ones(g.h) if weights is None else WeightSet.parse(weights)
        ell, k = 1, g.h - 1
        argv = ["influence", "--h", spec, "--m", str(m), "--d", str(d),
                "--x", "far-odd", "--l", g.labels[ell], "--k", g.labels[k]]
        if weights is not None:
            argv += ["--weights", weights]
        code, res = run_json(tmp_path, argv)
        assert code == 0
        y, rel = res["pin_vertex"], res["relation"]
        assert res["occupation"] == occupation_comparison(t, g, w).to_json_dict()
        assert res["conditional"] == conditional_comparison(
            t, g, w, rel, ell, y=y
        ).to_json_dict()
        assert Fraction(res["ratio_exact"]) == influence_ratio(t, g, w, 0, k, y, ell)
        assert Fraction(res["ratio_target"]) == theorem_influence_ratio(
            g, w, rel, k, ell
        )


class TestConjectureCommand:
    def test_coloring_table(self, tmp_path):
        code, res = run_json(tmp_path, ["conjecture", "--h", "k3", "--m", "2"])
        assert code == 0
        assert res["coloring_model"] is True
        assert [row["d"] for row in res["rows"]] == [1, 2, 3]
        row = res["rows"][1]
        assert row["exact"] == "18"
        assert row["prefactor_model"] == "6e"
        assert row["f_q"] == "1"
        assert row["consistency_L_vs_f"] is True

    def test_non_coloring_model(self, tmp_path):
        code, res = run_json(
            tmp_path, ["conjecture", "--h", "ind", "--max-d", "2"]
        )
        assert code == 0
        assert res["coloring_model"] is False
        assert "f_q" not in res["rows"][0]
        assert res["rows"][1]["prefactor_model"] == "2*sqrt(e)"

    def test_prediction_past_float_range_is_refused(self, capsys):
        # k3 at d=11 predicts about 6 * 2^1024, past the largest float
        argv = ["conjecture", "--h", "k3", "--m", "2", "--max-d", "11"]
        assert main(argv) == 3
        assert "the prediction at d=11 is too large" in capsys.readouterr().err

    def test_prediction_below_float_range_is_refused(self, capsys):
        # weights 1/10 predict 2e-256 at d=8, and the float is 0.0 at d=9
        argv = ["conjecture", "--h", "kq:2", "--weights", "1/10,1/10",
                "--m", "2", "--max-d", "23"]
        assert main(argv) == 3
        assert "the prediction at d=9 is too small" in capsys.readouterr().err

    def test_prediction_past_float_range_refused_without_forming_the_power(self):
        # base 1 + 10^-6 stays in float range to d=29; an exact power of it
        # with 2^(d-1) factors would not end within the timeout
        proc = run_subprocess(
            ["conjecture", "--h", "ind", "--weights", "1/1000000,1", "--m", "2",
             "--max-d", "40"]
        )
        assert proc.returncode == 3
        assert "the prediction at d=30 is too large" in proc.stderr

    def test_table_summary(self, capsys):
        assert main(["conjecture", "--h", "k3", "--m", "2"]) == 0
        err = capsys.readouterr().err
        assert "6e" in err and "prediction" in err

    def test_csv_export(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        code, _ = run_json(
            tmp_path,
            ["conjecture", "--h", "k3", "--m", "2", "--csv", str(csv_path)],
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 4

    def test_csv_rejected_elsewhere(self, capsys):
        assert main(["count", "--h", "k3", "--csv", "/tmp/x.csv"]) == 2

    def test_csv_refused_before_the_command_runs(self, tmp_path, capsys):
        # the count alone is refused by its budget (exit 3)
        argv = ["count", "--h", "k3", "--m", "2", "--d", "6", "--method", "transfer"]
        assert main(argv) == 3
        capsys.readouterr()
        assert main(argv + ["--csv", str(tmp_path / "x.csv")]) == 2
        assert "csv export is not available" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_csv_refused_from_a_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"csv={tmp_path / 'x.csv'}\nsteps=20\n")
        assert main(["sample", "--h", "k3", "--config", str(cfg)]) == 2
        with pytest.raises(ConfigError, match="csv export"):
            RunConfig(command="analyze", csv="x.csv")


class TestStructureCacheMeta:
    @pytest.mark.parametrize(
        "argv,lookups,instances",
        [
            # the instance and its blow-up
            (["analyze", "--h", "wr", "--weights", "1,3/2,1"], 2, 2),
            # one record lookup for the start and one per block of
            # classified samples: the 20 samples on Q_2 make one block
            (["sample", "--h", "wr", "--weights", "1,3/2,1", "--m", "2",
              "--d", "2", "--steps", "400", "--thin", "20", "--initial", "pure"], 2, 1),
            (["influence", "--h", "wr", "--weights", "1,3/2,1", "--m", "2",
              "--d", "2", "--x", "antipodal", "--l", "1"], 1, 1),
        ],
    )
    def test_record_hits_and_misses_in_meta(self, tmp_path, argv, lookups, instances):
        out = tmp_path / "doc.json"
        assert main(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        cache = doc["meta"]["structure_cache"]
        assert set(cache) == {"hits", "misses"}
        # each record is built at most once a run
        assert cache["misses"] <= instances
        assert cache["hits"] + cache["misses"] >= lookups
        assert "structure_cache" not in json.dumps(doc["result"])

    def test_count_does_not_report_it(self, tmp_path):
        out = tmp_path / "doc.json"
        assert main(["count", "--h", "k3", "--m", "2", "--d", "2", "--out", str(out)]) == 0
        assert "structure_cache" not in json.loads(out.read_text())["meta"]


class TestEngineCacheMeta:
    @pytest.mark.parametrize(
        "argv,lookups",
        [
            (["count", "--h", "wr", "--m", "4", "--d", "2", "--method", "transfer"], 1),
            # every pinned count after the first reuses the one engine
            (["influence", "--h", "ind", "--weights", "3/2,1", "--m", "4",
              "--d", "1", "--x", "antipodal", "--l", "0"], 3),
        ],
    )
    def test_engine_hits_and_misses_in_meta(self, tmp_path, argv, lookups):
        out = tmp_path / "doc.json"
        assert main(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        cache = doc["meta"]["engine_cache"]
        assert set(cache) == {"hits", "misses"}
        # one torus and one instance: at most one engine is built
        assert cache["misses"] <= 1
        assert cache["hits"] + cache["misses"] >= lookups
        assert "engine_cache" not in json.dumps(doc["result"])

    def test_analyze_does_not_report_it(self, tmp_path):
        out = tmp_path / "doc.json"
        assert main(["analyze", "--h", "k3", "--out", str(out)]) == 0
        assert "engine_cache" not in json.loads(out.read_text())["meta"]


class TestCorpusCommand:
    def make_golden(self, path, config, result=None):
        path.write_text(
            json.dumps({"config": config, "result": result}, indent=2) + "\n"
        )

    def test_update_then_pass(self, tmp_path, capsys):
        gdir = tmp_path / "golden"
        gdir.mkdir()
        self.make_golden(
            gdir / "count.json",
            {"command": "count", "h": "k3", "m": 2, "d": 2, "method": "both"},
        )
        assert main(["corpus", "--golden-dir", str(gdir)]) == 4
        capsys.readouterr()
        assert main(["corpus", "--golden-dir", str(gdir), "--update"]) == 0
        stored = json.loads((gdir / "count.json").read_text())
        assert stored["result"]["z"] == "18"
        capsys.readouterr()
        assert main(["corpus", "--golden-dir", str(gdir)]) == 0

    def test_tampered_golden_fails(self, tmp_path, capsys):
        gdir = tmp_path / "golden"
        gdir.mkdir()
        self.make_golden(
            gdir / "analyze.json", {"command": "analyze", "h": "wr"}
        )
        assert main(["corpus", "--golden-dir", str(gdir), "--update"]) == 0
        doc = json.loads((gdir / "analyze.json").read_text())
        doc["result"]["eta"] = "5"
        (gdir / "analyze.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["corpus", "--golden-dir", str(gdir)])
        assert code == 4
        captured = capsys.readouterr()
        assert "failed=1" in captured.err or "failed=1" in captured.out

    def test_empty_dir_is_config_error(self, tmp_path, capsys):
        assert main(["corpus", "--golden-dir", str(tmp_path)]) == 2

    def test_checked_in_corpus_passes(self, capsys):
        assert main(["corpus", "--golden-dir", str(GOLDEN_DIR)]) == 0


class TestDriver:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["count", "--zzz", "1"]) == 2

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["analyze", "--h", "mystery"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_result_identical_across_reruns(self, tmp_path):
        argv = ["influence", "--h", "wr", "--m", "2", "--d", "2",
                "--x", "antipodal", "--l", "1"]
        _, first = run_json(tmp_path, argv)
        _, second = run_json(tmp_path, argv)
        assert result_bytes(first) == result_bytes(second)

    def test_meta_separated_from_result(self, tmp_path):
        out = tmp_path / "doc.json"
        assert main(["analyze", "--h", "k3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"result", "meta"}
        assert set(doc["meta"]) == {
            "timestamp", "runtime_ms", "config", "orbit", "structure_cache"
        }


class TestRestartsInMeta:
    def doc(self, tmp_path, argv):
        out = tmp_path / "doc.json"
        assert main(argv + ["--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_fallback_start_reports_every_restart(self, tmp_path):
        doc = self.doc(tmp_path, [
            "sample", "--h", "k3", "--m", "8", "--d", "3", "--steps", "2000",
            "--thin", "1000", "--seed", "0"])
        assert doc["meta"]["start"] == "pure-fallback"
        assert doc["meta"]["restarts"] == 100
        assert "restarts" not in doc["result"]
        assert "restarts" not in doc["result"]["stats"]

    def test_pure_start_reports_none(self, tmp_path):
        doc = self.doc(tmp_path, [
            "sample", "--h", "wr", "--m", "4", "--d", "2", "--steps", "500",
            "--initial", "pure", "--seed", "3"])
        assert doc["meta"]["start"] == "pure"
        assert doc["meta"]["restarts"] == 0

    def test_pinned_chain_reports_its_restarts(self, tmp_path):
        doc = self.doc(tmp_path, [
            "influence", "--h", "wr", "--m", "2", "--d", "2", "--x", "antipodal",
            "--l", "1", "--steps", "2000", "--seed", "4"])
        assert doc["meta"]["start"] == "greedy"
        assert doc["meta"]["restarts"] == 0
        assert "restarts" not in json.dumps(doc["result"])
