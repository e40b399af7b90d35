"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import re

import pytest

from repro.baselines import available_methods
from repro.cli import EXPERIMENT_REGISTRY, build_parser, main
from repro.datasets import available_datasets
from repro.metrics import available_metrics


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_experiment_names_match_registry(self):
        args = build_parser().parse_args(["experiment", "table4"])
        assert args.name == "table4"
        for name in EXPERIMENT_REGISTRY:
            build_parser().parse_args(["experiment", name])


class TestListCommand:
    @pytest.mark.parametrize(
        "what, expected",
        [
            ("datasets", available_datasets),
            ("methods", available_methods),
            ("metrics", available_metrics),
            ("experiments", lambda: sorted(EXPERIMENT_REGISTRY)),
        ],
    )
    def test_lists_registries(self, capsys, what, expected):
        assert main(["list", what]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == list(expected())


class TestBuildAndQuery:
    def test_build_prints_summary(self, capsys):
        code = main(["build", "--dataset", "tloc", "--cardinality", "300", "--node-capacity", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "300 objects" in out
        assert "build time" in out
        assert "storage" in out

    def test_build_save_query_round_trip(self, capsys, tmp_path):
        index_path = tmp_path / "tloc.npz"
        assert main([
            "build", "--dataset", "tloc", "--cardinality", "300",
            "--node-capacity", "8", "--output", str(index_path),
        ]) == 0
        assert index_path.exists()
        capsys.readouterr()

        assert main([
            "query", "--index", str(index_path),
            "--num-queries", "4", "--k", "3", "--radius", "0.5", "--show", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "kNN batch" in out
        assert "MRQ batch" in out
        assert "query " in out

    def test_build_words_dataset(self, capsys, tmp_path):
        index_path = tmp_path / "words.npz"
        assert main([
            "build", "--dataset", "words", "--cardinality", "200", "--output", str(index_path),
        ]) == 0
        capsys.readouterr()
        assert main(["query", "--index", str(index_path), "--num-queries", "3", "--k", "2"]) == 0
        assert "kNN batch" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_table(self, capsys):
        code = main([
            "compare", "--dataset", "tloc", "--cardinality", "300",
            "--methods", "GTS,MVPT,LAESA", "--num-queries", "4", "--k", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for method in ("GTS", "MVPT", "LAESA"):
            assert method in out
        assert "kNN thpt" in out

    def test_compare_unknown_method(self, capsys):
        code = main([
            "compare", "--dataset", "tloc", "--cardinality", "200", "--methods", "GTS,NoSuchMethod",
        ])
        assert code == 2
        assert "unknown methods" in capsys.readouterr().err

    def test_compare_with_memory_limit(self, capsys):
        code = main([
            "compare", "--dataset", "tloc", "--cardinality", "300",
            "--methods", "GTS,GPU-Table", "--num-queries", "4", "--device-memory-mb", "64",
        ])
        assert code == 0
        assert "GPU-Table" in capsys.readouterr().out


class TestExperimentCommand:
    def test_runs_cost_model_ablation_and_writes_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code = main([
            "experiment", "ablation-cost-model", "--scale", "0.02",
            "--num-queries", "4", "--csv", str(csv_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "node_capacity" in out
        assert csv_path.exists()
        assert "node_capacity" in csv_path.read_text()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestServeSimCommand:
    def test_serves_workload_and_verifies(self, capsys):
        code = main([
            "serve-sim", "--dataset", "tloc", "--cardinality", "600",
            "--clients", "3", "--rate", "60000", "--duration", "0.001",
            "--max-batch", "16", "--verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload" in out
        assert "micro-batches" in out
        assert "identical to sequential replay" in out

    def test_deadline_policy_reports_miss_rate(self, capsys):
        code = main([
            "serve-sim", "--dataset", "tloc", "--cardinality", "400",
            "--clients", "3", "--rate", "50000", "--duration", "0.001",
            "--policy", "deadline", "--deadline", "0.0005",
        ])
        assert code == 0
        assert "deadline miss rate" in capsys.readouterr().out

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--policy", "fifo"])

    def test_serves_sharded_index_and_verifies(self, capsys):
        code = main([
            "serve-sim", "--dataset", "tloc", "--cardinality", "600",
            "--clients", "3", "--rate", "60000", "--duration", "0.001",
            "--shards", "3", "--max-batch", "16", "--verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 shards (round-robin)" in out
        assert "identical to sequential replay" in out

    @pytest.mark.parametrize(
        "tier", [[], ["--device-memory", "0.004", "--block-kb", "0.25"]], ids=["resident", "tiered"]
    )
    def test_generation_swap_serving_verifies(self, tier, capsys):
        code = main([
            "serve-sim", "--dataset", "tloc", "--cardinality", "600",
            "--clients", "3", "--rate", "60000", "--duration", "0.001",
            "--max-batch", "16", "--update-heavy", "--cache-kb", "0.25",
            "--maintenance", "--verify", *tier,
        ])
        assert code == 0
        out = capsys.readouterr().out
        swaps = re.search(r"(\d+) generation swaps", out)
        assert swaps is not None and int(swaps.group(1)) >= 1
        assert "identical to sequential replay" in out

    def test_rejects_non_positive_shards(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--shards", "0"])

    def test_rejects_unknown_shard_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--shard-policy", "hash-ring"])

    @pytest.mark.parametrize("flag", ["--device-memory", "--block-kb"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2", "many"])
    def test_rejects_invalid_tier_sizes(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve-sim", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("removed", [["--eviction", "lru"], ["--prefetch"]])
    def test_removed_tier_flags_are_rejected(self, removed):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve-sim", "--device-memory", "1", *removed])
        assert exc.value.code == 2

    def test_serves_tiered_sharded_index_and_verifies(self, capsys):
        code = main([
            "serve-sim", "--dataset", "tloc", "--cardinality", "600",
            "--clients", "3", "--rate", "60000", "--duration", "0.001",
            "--shards", "2", "--device-memory", "0.002", "--block-kb", "0.25",
            "--max-batch", "16", "--verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "LRU eviction" in out
        assert "2 shards (round-robin)" in out
        assert "pager      : hit rate" in out
        assert "identical to sequential replay" in out
