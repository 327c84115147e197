"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0

It builds nothing: it imports ``src/repro`` of the checkout it sits in,
and exits with code 2 when that is missing. The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics. The line
before it is the full report (environment block, every sample summary
and, when traced, the layer breakdown); ``--out FILE`` also writes that
report to FILE for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Unattributed share above which the report names the missing boundary.
UNATTRIBUTED_LIMIT_PCT = 5.0

#: Where each workload's unattributed time sits when it is large: the
#: code between the root span and the first layer span.
MISSING_BOUNDARY = {
    "serve_mixed": "service.server request handling between _respond and "
                   "the protocol/coalesce spans (admission, routing, "
                   "socket writes)",
    "batch": "benchmark round glue between the three calls",
    "sweep_mc": "benchmark round glue between the sweep, sizing and "
                "tuning calls",
}


def _import_program():
    """Import ``repro`` from this checkout's ``src`` or exit with 2."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        print(f"error: imported repro from {repro.__file__}, not from this "
              "checkout", file=sys.stderr)
        raise SystemExit(2)


def _children() -> list:
    """Pids of this process's children, zombies included (Linux)."""
    pids = []
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in path.read_text().split()]
        except OSError:
            continue
    return pids


def _kill_and_reap(pids) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The workloads stop their pools and servers themselves. What is left
    is the multiprocessing resource tracker, which the first shared-memory
    arena starts and which would otherwise outlive the run. It exits once
    every holder of its pipe has closed it, so the other children go
    first; it then gets a clean stop, which also unlinks any segment a
    failed run leaked. Anything still left after that is killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    _kill_and_reap([pid for pid in _children() if pid != tracker._pid])
    try:
        tracker._stop()
    except (OSError, RuntimeError):
        pass
    _kill_and_reap(_children())


def _benchmark_spec() -> dict:
    """``BENCHMARK.json``, with its metric names and units checked."""
    from perfbench import summary

    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        print("error: BENCHMARK.json not found", file=sys.stderr)
        raise SystemExit(2)
    spec = json.loads(path.read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    bad = [m["name"] for m in metrics + spec["workloads"]
           if not summary.valid_name(m["name"])]
    bad += [m["unit"] for m in metrics if not summary.valid_unit(m["unit"])]
    if bad:
        print(f"error: BENCHMARK.json has invalid names or units: {bad}",
              file=sys.stderr)
        raise SystemExit(2)
    return spec


def environment(args, cores: int) -> dict:
    import numpy

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_revision": revision,
        "source_digest": digest.hexdigest(),
        "effective_cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _cpu_ticks():
    """``(steal, total)`` CPU ticks since boot from ``/proc/stat``, or
    None where it is missing. Steal is time the hypervisor gave this
    machine's vCPUs to other guests; it slows the runs that use every
    core most."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def _steal_pct(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


def _summaries(samples: dict) -> dict:
    from perfbench import summary

    out = {}
    for name, values in samples.items():
        q1, mid, q3 = summary.quartiles(values)
        out[name] = {"n": len(values), "median": mid, "q1": q1, "q3": q3}
        tail = summary.tail(values)
        if tail is not None:
            out[name]["tail"] = tail
    return out


def _metrics(spec_metrics, values: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value for metrics {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec_metrics}


def run(args, spec):
    """Run one workload; returns ``(report, result)``."""
    from perfbench import layers, summary
    from perfbench.workloads import WORKLOADS
    from repro.engine import effective_cpu_count

    cores = effective_cpu_count()
    workload = WORKLOADS[args.workload](ROOT, args.seed, cores)
    report = {"env": environment(args, cores)}
    workload.prepare()
    try:
        if not args.trace:
            setups = []
            for repeat in range(workload.setup_repeats):
                if repeat:
                    workload.teardown()
                setups.append(workload.setup())
            workload.prime()
            ticks = _cpu_ticks()
            window = workload.measure(args.seconds, None)
            report["env"]["steal_pct"] = _steal_pct(ticks, _cpu_ticks())
            peak = workload.peak_mb()
            workload.check()
            windows = [window]
        else:
            workload.setup()
            workload.prime()
            ticks = _cpu_ticks()
            plain = workload.measure(args.seconds / 2, None)
            window = workload.traced(args.seconds / 2)
            report["env"]["steal_pct"] = _steal_pct(ticks, _cpu_ticks())
            workload.check()
            windows = [plain, window]
    finally:
        workload.teardown()

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows) + workload.mismatches
    report["env"]["operations"] = attempted
    report["env"]["setup_repeats"] = 1 if args.trace else workload.setup_repeats
    figures = workload.figures(window)
    report["figures"] = figures
    report["samples"] = _summaries(window.samples)
    report["checked"] = workload.checked
    report["mismatches"] = workload.mismatches
    if not args.trace:
        values = {
            "setup_s": summary.median(setups),
            "success_rate": 1.0 - failed / attempted if attempted else 0.0,
            "p50_ms": figures["p50_ms"],
            "rate_per_s": figures["rate_per_s"],
            "peak_mb": peak,
        }
        report["setups_s"] = setups
        metrics = _metrics(spec["end_to_end"], values)
    else:
        plain_p50 = workload.figures(plain)["p50_ms"]
        overhead = (figures["p50_ms"] / plain_p50 - 1.0) * 100.0
        spans = window.tracer.spans
        values = layers.derive(spans, window.tracer.counts, window.before,
                               window.after, late=window.late,
                               overhead_pct=overhead)
        breakdown = layers.layer_breakdown(spans)
        share = values["root.unattributed_pct"]
        report["layers_self_s"] = dict(sorted(breakdown.items(),
                                              key=lambda kv: -kv[1]))
        report["unattributed"] = {
            "root_self_s": breakdown.get("root", 0.0),
            "share_pct": share,
            "missing_boundary": MISSING_BOUNDARY[args.workload]
            if share > UNATTRIBUTED_LIMIT_PCT else None,
        }
        report["untraced_p50_ms"] = plain_p50
        report["spans"] = len(spans)
        report["ops"] = len(layers.roots(spans))
        # Per-op figures divide by the root count; any stray parentless
        # span (work outside a round) would shrink every one of them.
        if "rounds" in figures and report["ops"] != figures["rounds"]:
            raise RuntimeError(f"traced window has {report['ops']} root spans "
                               f"for {figures['rounds']} rounds")
        metrics = _metrics(spec["per_layer"], values)
    report["metrics"] = metrics
    result = {
        "correct": failed == 0 and workload.checked > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full report to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(ROOT))
    spec = _benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    _import_program()
    # A terminated run still stops its server and pool (teardown runs in
    # ``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    try:
        report, result = run(args, spec)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        _stop_children()
    report["run_wall_s"] = time.monotonic() - started
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
