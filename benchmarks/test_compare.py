"""Unit tests for the ``--compare`` regression gate of run_benchmarks.

These run on synthetic result dicts only — no benchmarking — so they
are safe to include in any ``pytest benchmarks/`` invocation.
"""

import json
import subprocess
import sys
from pathlib import Path

import run_benchmarks

REPO_ROOT = Path(__file__).resolve().parent.parent


def sample_results():
    return {
        "mode": "quick",
        "single_edit": {"sections": 100, "speedup": 10.0,
                        "speedup_target": 2.0},
        "optimize_width": {"sections": 200, "speedup": 6.0},
        "full_tree": [
            {"nodes": 100, "speedup": 3.0},
            {"nodes": 1000, "speedup": 5.0},
        ],
    }


class TestCollectSpeedups:
    def test_collects_nested_and_list_paths(self):
        got = run_benchmarks.collect_speedups(sample_results())
        assert got == {
            "single_edit.speedup": 10.0,
            "optimize_width.speedup": 6.0,
            "full_tree.[0].speedup": 3.0,
            "full_tree.[1].speedup": 5.0,
        }

    def test_targets_are_not_speedups(self):
        got = run_benchmarks.collect_speedups(sample_results())
        assert not any("target" in path for path in got)


class TestCompareResults:
    def test_identical_results_pass(self):
        assert run_benchmarks.compare_results(
            sample_results(), sample_results()
        ) == []

    def test_within_allowed_drop_passes(self):
        new = sample_results()
        new["single_edit"]["speedup"] = 10.0 * run_benchmarks.COMPARE_RETAIN
        assert run_benchmarks.compare_results(new, sample_results()) == []

    def test_regression_past_floor_fails_with_path(self):
        new = sample_results()
        new["full_tree"][1]["speedup"] = 1.0
        failures = run_benchmarks.compare_results(new, sample_results())
        assert len(failures) == 1
        assert "full_tree.[1].speedup" in failures[0]
        assert "1.00x" in failures[0]

    def test_paths_on_one_side_only_are_ignored(self):
        new = sample_results()
        del new["optimize_width"]
        previous = sample_results()
        previous["extra"] = {"speedup": 50.0}
        assert run_benchmarks.compare_results(new, previous) == []


class TestResultKind:
    def test_marker_keys(self):
        assert run_benchmarks.result_kind({"full_tree": []}) == "engine"
        assert run_benchmarks.result_kind({"threaded_batch": {}}) == "sharded"
        assert run_benchmarks.result_kind(
            {"single_edit": {}}
        ) == "incremental"


class TestCompareExitCode:
    def test_mismatched_previous_file_exits_nonzero(self, tmp_path):
        """A previous JSON recording 1000x speedups must fail a quick
        run through the real CLI path (exit code, not exception)."""
        previous = {
            "mode": "quick",
            "single_edit": {"sections": 100, "speedup": 1000.0},
            "optimize_width": {"sections": 100, "speedup": 1000.0},
        }
        prev_path = tmp_path / "prev.json"
        prev_path.write_text(json.dumps(previous))
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "benchmarks" / "run_benchmarks.py"),
                "--quick",
                "--compare",
                str(prev_path),
                "--output", str(tmp_path / "out.json"),
                "--sharded-output", str(tmp_path / "sharded.json"),
                "--incremental-output", str(tmp_path / "inc.json"),
            ],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode != 0
        assert "speedup regression" in proc.stdout + proc.stderr
