"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_mesh_parsing(self):
        args = build_parser().parse_args(
            ["optimize", "--model", "x", "--mesh", "8x8"]
        )
        assert args.mesh == (8, 8)

    def test_bad_mesh_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["optimize", "--model", "x", "--mesh", "eight"]
            )

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_defaults_match_pinned_config(self):
        args = build_parser().parse_args(["bench"])
        assert args.restarts == 8
        assert args.seed == 0
        assert args.out == "BENCH_perf.json"
        assert args.check is False
        assert args.threshold == 0.25


class TestBenchCheck:
    """The regression verdicts of `repro bench --check` (no search run)."""

    REFERENCE = {
        "restarts": 8,
        "seed": 0,
        "wall_seconds": 20.0,
        "total_cycles": 1_000_000,
        "winner": {"label": "sa[4]", "fingerprint": "abcd"},
        "cost_kernel": {"batch_calls": 648, "batch_rows": 58261},
    }

    def _report(self, **overrides):
        report = dict(self.REFERENCE)
        report.update(overrides)
        return report

    def test_identical_run_passes(self):
        from repro.perf_bench import check_against

        assert check_against(self._report(), self.REFERENCE, 0.25) == []

    def test_tolerated_slowdown_passes(self):
        from repro.perf_bench import check_against

        report = self._report(wall_seconds=24.9)
        assert check_against(report, self.REFERENCE, 0.25) == []

    def test_wall_time_regression_fails(self):
        from repro.perf_bench import check_against

        report = self._report(wall_seconds=26.0)
        problems = check_against(report, self.REFERENCE, 0.25)
        assert len(problems) == 1 and "regressed" in problems[0]

    def test_result_drift_fails_regardless_of_speed(self):
        from repro.perf_bench import check_against

        report = self._report(
            wall_seconds=1.0,
            total_cycles=999_999,
            winner={"label": "sa[0]", "fingerprint": "ffff"},
        )
        problems = check_against(report, self.REFERENCE, 0.25)
        assert any("bit-exactness" in p for p in problems)
        assert any("winner drifted" in p for p in problems)

    def test_wall_time_regression_names_the_grown_stages(self):
        from repro.perf_bench import check_against

        reference = dict(
            self.REFERENCE,
            stage_seconds={"tiling": 4.0, "sim": 2.0, "mapping": 2.0},
        )
        report = self._report(
            wall_seconds=26.0,
            stage_seconds={"tiling": 4.1, "sim": 6.0, "mapping": 2.6},
        )
        [problem] = check_against(report, reference, 0.25)
        assert "wall time regressed" in problem
        assert "sim 6.00s > 2.00s" in problem
        assert "mapping 2.60s > 2.00s" in problem
        assert "tiling" not in problem

    def test_stage_growth_alone_passes(self):
        from repro.perf_bench import check_against

        reference = dict(self.REFERENCE, stage_seconds={"sim": 2.0})
        report = self._report(wall_seconds=20.0, stage_seconds={"sim": 9.0})
        assert check_against(report, reference, 0.25) == []

    def test_cost_kernel_drift_fails_with_identical_result(self):
        from repro.perf_bench import check_against

        report = self._report(
            cost_kernel={"batch_calls": 649, "batch_rows": 58300}
        )
        problems = check_against(report, self.REFERENCE, 0.25)
        assert len(problems) == 1 and "cost_kernel drifted" in problems[0]


class TestCommands:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "vgg19" in out

    def test_optimize_runs(self, capsys, tmp_path):
        rc = main(
            [
                "optimize",
                "--model", "vgg19_bench",
                "--mesh", "2x2",
                "--sa-iterations", "10",
                "--scheduler", "greedy",
                "--gantt", "3",
                "--save", str(tmp_path / "sol.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "PE utilization" in out
        assert "R0" in out  # gantt header
        assert (tmp_path / "sol.json").exists()

    def test_compare_prints_all_strategies(self, capsys):
        rc = main(
            [
                "compare",
                "--model", "vgg19_bench",
                "--mesh", "2x2",
                "--sa-iterations", "10",
                "--scheduler", "greedy",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for strategy in ("AD", "LS", "CNN-P", "IL-Pipe", "Rammer", "Ideal"):
            assert strategy in out

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            main(["optimize", "--model", "alexnet", "--sa-iterations", "5"])
