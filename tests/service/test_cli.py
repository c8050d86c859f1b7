"""``python -m repro`` service subcommands: parsing and exit codes."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-suite", "--config", "turbo"])

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestRunSuite:
    def test_mini_subset_ok(self, capsys, cache_dir):
        code, out, err = run_cli(
            capsys,
            "--cache-dir", cache_dir,
            "run-suite", "--size", "MINI", "--kernels", "gemm,atax",
        )
        assert code == 0
        assert "gemm" in out and "atax" in out
        assert "miss" in out
        assert "hit rate" in out

    def test_second_run_is_warm(self, capsys, cache_dir):
        run_cli(
            capsys,
            "--cache-dir", cache_dir,
            "run-suite", "--size", "MINI", "--kernels", "gemm",
        )
        code, out, _ = run_cli(
            capsys,
            "--cache-dir", cache_dir,
            "run-suite", "--size", "MINI", "--kernels", "gemm",
        )
        assert code == 0
        assert "hit" in out
        assert "100% hit rate" in out

    def test_fail_on_lint_passes_on_clean_suite(self, capsys, cache_dir):
        code, out, err = run_cli(
            capsys,
            "--cache-dir", cache_dir,
            "run-suite", "--size", "MINI", "--kernels", "gemm",
            "--fail-on-lint",
        )
        assert code == 0
        assert "LINT FINDINGS" not in err
        assert "lint: all modules clean" in out

    def test_unknown_kernel_exits_2(self, capsys, cache_dir):
        code, _, err = run_cli(
            capsys,
            "--cache-dir", cache_dir,
            "run-suite", "--size", "MINI", "--kernels", "nope",
        )
        assert code == 2
        assert "REPRO-CFG" in err or "error[" in err

    @pytest.mark.slow
    def test_parallel_jobs_flag(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys,
            "--cache-dir", cache_dir,
            "run-suite", "--size", "MINI", "--kernels", "gemm,atax",
            "--jobs", "2",
        )
        assert code == 0
        assert "jobs=2" in out


class TestCacheMaintenance:
    def test_stats_empty(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, "--cache-dir", cache_dir, "cache", "stats")
        assert code == 0
        assert "entries:    0" in out

    def test_stats_after_run(self, capsys, cache_dir):
        run_cli(
            capsys,
            "--cache-dir", cache_dir,
            "run-suite", "--size", "MINI", "--kernels", "gemm",
        )
        code, out, _ = run_cli(capsys, "--cache-dir", cache_dir, "cache", "stats")
        assert code == 0
        assert "entries:    1" in out
        assert "gemm" in out

    def test_clear(self, capsys, cache_dir):
        run_cli(
            capsys,
            "--cache-dir", cache_dir,
            "run-suite", "--size", "MINI", "--kernels", "gemm,atax",
        )
        code, out, _ = run_cli(capsys, "--cache-dir", cache_dir, "cache", "clear")
        assert code == 0
        assert "removed 2" in out
        code, out, _ = run_cli(capsys, "--cache-dir", cache_dir, "cache", "stats")
        assert "entries:    0" in out


class TestResilienceFlags:
    def test_continue_with_chaos_exits_1_and_writes_outcomes(
        self, capsys, cache_dir, tmp_path
    ):
        out_json = str(tmp_path / "outcomes.json")
        code, out, err = run_cli(
            capsys,
            "--cache-dir", cache_dir,
            "run-suite", "--size", "MINI", "--kernels", "gemm,atax,bicg",
            "--failure-policy", "continue",
            "--chaos", "seed=7,crash=1",
            "--outcomes-json", out_json,
        )
        assert code == 1
        assert "INCOMPLETE" in err
        assert "outcomes [continue]:" in out
        import json

        with open(out_json) as fh:
            doc = json.load(fh)
        assert doc["counts"]["ok"] == 2 and doc["counts"]["failed"] == 1
        assert len(doc["outcomes"]) == 3
        assert doc["counters"]["failures"] == 1

    def test_retry_with_chaos_recovers_and_exits_0(
        self, capsys, cache_dir, tmp_path
    ):
        out_json = str(tmp_path / "outcomes.json")
        code, out, err = run_cli(
            capsys,
            "--cache-dir", cache_dir,
            "run-suite", "--size", "MINI", "--kernels", "gemm,atax,bicg",
            "--failure-policy", "retry", "--max-attempts", "2",
            "--chaos", "seed=7,crash=1",
            "--outcomes-json", out_json,
        )
        assert code == 0
        assert "INCOMPLETE" not in err
        import json

        with open(out_json) as fh:
            doc = json.load(fh)
        assert doc["counts"]["retried-then-ok"] == 1
        assert doc["counters"]["retries"] == 1

    def test_bad_chaos_spec_exits_2(self, capsys, cache_dir):
        code, _, err = run_cli(
            capsys,
            "--cache-dir", cache_dir,
            "run-suite", "--size", "MINI", "--kernels", "gemm",
            "--chaos", "nonsense",
        )
        assert code == 2
        assert "chaos" in err

    def test_rejects_unknown_failure_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run-suite", "--failure-policy", "pray"]
            )

    def test_bad_repro_jobs_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        code = main(["cache", "stats"])
        err = capsys.readouterr().err
        assert code == 2
        assert "REPRO_JOBS" in err
