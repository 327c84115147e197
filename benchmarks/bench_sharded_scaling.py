"""Threaded batch scaling — row tiles on a thread pool vs the serial engine.

Pytest front end for the threaded half of ``run_benchmarks.py``: the
``perf``-marked quick test is the CI smoke gate. Threaded results must
be bitwise identical to serial ``analyze_batch`` everywhere, at least
1.5x faster on a 2000-scenario block of a 1000-section random tree
(the shape of the ``batch`` workload) on machines with >= 2 *effective*
cores (affinity-aware, not ``os.cpu_count``), and a planner-routed
batch at the two-tile threading threshold must run at >= 0.8x of direct
serial speed on any box. The unmarked report test regenerates
``BENCH_sharded.json`` at the repository root. Run with::

    pytest benchmarks/bench_sharded_scaling.py -m perf -s        # quick
    pytest benchmarks/bench_sharded_scaling.py -m "not perf" -s  # full
"""

import json

import pytest

import run_benchmarks


@pytest.mark.perf
def test_threaded_batch_matches_serial_quick(tmp_path):
    """The --quick contract: bitwise equality, the speedup target where
    the core count makes it meaningful, and the routed floor."""
    results = run_benchmarks.run_sharded(quick=True)
    (tmp_path / "BENCH_sharded.json").write_text(
        json.dumps(results, indent=2)
    )
    print(json.dumps(results, indent=2))
    failures = run_benchmarks.check_sharded(results)
    assert not failures, failures


def test_sharded_scaling_report(report):
    """Full-scale run; writes BENCH_sharded.json at the repo root."""
    results = run_benchmarks.run_sharded(quick=False)
    run_benchmarks.RESULT_SHARDED_PATH.write_text(
        json.dumps(results, indent=2) + "\n"
    )
    batch, routed = results["threaded_batch"], results["routed"]
    report.table(
        ("workload", "serial_s", "threaded_s", "speedup", "bitwise"),
        [
            (
                f"{batch['scenarios']}x{batch['sections']} scen",
                batch["serial_s"], batch["threaded_s"], batch["speedup"],
                batch["bitwise"],
            ),
            (
                f"{routed['scenarios']}x{routed['sections']} routed",
                routed["serial_s"], routed["routed_s"],
                routed["ratio_vs_serial"], routed["bitwise"],
            ),
        ],
    )
    report.line(
        f"{results['cores']} effective cores, {results['workers']} threads; "
        f"{results['target_speedup']}x target "
        + ("asserted" if results["target_applies"] else "not asserted")
        + f"; routed floor {results['routed_floor']}x"
    )
    assert not run_benchmarks.check_sharded(results)
