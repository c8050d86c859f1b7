"""``python -m repro`` trace/stats/diff/validate/hot subcommands."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.observability.schema import validate_chrome_trace

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GEMM_TRACE = os.path.join(FIXTURES, "gemm-optimized-trace.json")


class TestTrace:
    def test_trace_emits_valid_chrome_json(self, capsys):
        assert main(["trace", "gemm", "--no-equivalence"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_chrome_trace(document) == []
        names = {
            e["name"] for e in document["traceEvents"] if e.get("ph") == "X"
        }
        # Every flow stage shows up...
        for stage in ("lower", "cleanup", "adaptor", "synthesis",
                      "codegen", "c-frontend"):
            assert stage in names, stage
        # ...and so does every adaptor pass.
        for pass_name in ("intrinsic-legalize", "gep-canonicalize",
                          "pointer-retyping", "freeze-elim", "final-dce"):
            assert pass_name in names, pass_name

    def test_trace_out_writes_file(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", "gemm", "--no-equivalence", "-o", str(out)]) == 0
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        assert capsys.readouterr().out == ""  # JSON went to the file

    def test_trace_summary_flag(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(
            ["trace", "gemm", "--no-equivalence", "-o", str(out), "--summary"]
        ) == 0
        err = capsys.readouterr().err
        assert "adaptor-flow" in err and "cpp-flow" in err

    def test_unknown_kernel_is_a_config_error(self, capsys):
        assert main(["trace", "nope"]) == 2
        assert "nope" in capsys.readouterr().err


class TestStats:
    def test_stats_prints_nonzero_counters_for_many_passes(self, capsys):
        assert main(["stats", "gemm"]) == 0
        out = capsys.readouterr().out
        assert "=== Statistics Collected" in out
        groups = {
            line.split()[1]
            for line in out.splitlines()
            if line and not line.startswith("===") and int(line.split()[0]) > 0
        }
        pass_groups = groups - {"module", "interpreter", "cache"}
        # Acceptance bar: nonzero counters for at least 5 distinct passes.
        assert len(pass_groups) >= 5, sorted(groups)


class TestDiff:
    def test_diff_reports_config_delta(self, capsys):
        assert main(
            ["diff", "gemm", "--baseline", "baseline",
             "--optimized", "optimized", "--no-equivalence"]
        ) == 0
        out = capsys.readouterr().out
        assert "counter diff: gemm" in out
        assert "baseline" in out and "optimized" in out
        # The optimized config attaches pipeline directives the baseline
        # doesn't, so at least one counter must move.
        assert "+" in out or "-" in out


class TestValidate:
    def test_valid_file_passes(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0.0, "dur": 2.0,
                 "pid": 1, "tid": 1},
            ]
        }))
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_file_fails_with_problems(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0,
                 "pid": 1, "tid": 1},
                {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0,
                 "pid": 1, "tid": 1},
            ]
        }))
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_unreadable_file_fails(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["validate", str(path)]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestHot:
    """Golden-input hotspot ranking over the committed gemm span tree."""

    def test_ranking_over_committed_trace(self, capsys):
        assert main(["hot", GEMM_TRACE]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].startswith("hotspots:")
        # The golden ordering by self time: affine-to-scf (0.6 ms) leads,
        # the two cse runs (0.5 ms total) come second.
        rank1, rank2 = lines[2].split(), lines[3].split()
        assert rank1[0] == "1" and rank1[1] == "affine-to-scf"
        assert rank2[0] == "2" and rank2[1] == "cse"
        assert rank2[2] == "2"  # cse ran twice
        # dce ran three times (cleanup twice + adaptor once).
        dce = next(l.split() for l in lines if " dce " in f" {l} ")
        assert dce[2] == "3"
        # verify spans are a different category; never ranked as passes.
        assert "verify" not in out

    def test_golden_self_and_total_columns(self, capsys):
        assert main(["hot", GEMM_TRACE, "--top", "1"]) == 0
        out = capsys.readouterr().out
        top = next(l for l in out.splitlines() if l.strip().startswith("1 "))
        cols = top.split()
        # affine-to-scf: committed duration 0.0006 s = 0.600 ms; its only
        # child is a verify span, so self == total.
        assert cols[1] == "affine-to-scf"
        assert cols[3] == "0.600" and cols[4] == "0.600"
        assert "more)" in out  # truncation note for the other 17 rows

    def test_category_flag_ranks_other_span_kinds(self, capsys):
        assert main(["hot", GEMM_TRACE, "--category", "lint-rule"]) == 0
        out = capsys.readouterr().out
        assert "gep-canonical-shape" in out
        assert "affine-to-scf" not in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["hot", GEMM_TRACE, "--json", "--top", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in rows] == ["affine-to-scf", "cse"]
        assert rows[1]["count"] == 2
        assert rows[0]["self_s"] == pytest.approx(0.0006)
        assert 0.0 < rows[0]["share"] < 1.0

    def test_no_matching_category_exits_one(self, capsys):
        assert main(["hot", GEMM_TRACE, "--category", "nosuch"]) == 1
        assert "no 'nosuch'-category spans" in capsys.readouterr().out

    def test_unreadable_file_is_usage_error(self, tmp_path, capsys):
        assert main(["hot", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_chrome_trace_documents_also_load(self, tmp_path, capsys):
        """`hot` accepts the exporter's Chrome format, not just span trees."""
        path = tmp_path / "chrome.json"
        path.write_text(json.dumps({
            "traceEvents": [
                {"name": "m2r", "cat": "pass", "ph": "X",
                 "ts": 0.0, "dur": 1500.0, "pid": 1, "tid": 1},
                {"name": "sccp", "cat": "pass", "ph": "X",
                 "ts": 1500.0, "dur": 500.0, "pid": 1, "tid": 1},
                {"name": "meta", "ph": "M", "args": {"name": "lane"}},
            ]
        }))
        assert main(["hot", str(path)]) == 0
        out = capsys.readouterr().out
        first = next(l for l in out.splitlines() if l.strip().startswith("1 "))
        assert first.split()[1] == "m2r"
        assert "1.500" in first
