"""Compare two sets of benchmark runs, for example a parent and a change.

Usage::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 \\
        --trace 0 --out base/batch-1.json        # repeat per seed/workload
    python3 perfbench/compare.py base/ head/

Each argument is a directory of reports written by ``run.py --out``.
For every workload and metric it prints both medians with their
quartiles, the change of the median, and a verdict against the bound in
``BENCHMARK.json``:

* ``worse``: the head median is worse by more than the bound, and the
  spread of either side is within the bound (or every head run is worse
  than every base run);
* ``better``: the head median is better by more than the base's own
  quartile spread, and the head run beats the base run in at least nine
  of ten pairs (runs paired by seed, and runs of the same seed in the
  order of their report files; without common seeds, every head run
  beats every base run);
* ``same``: neither, and both spreads are within the bound;
* ``unresolved``: neither, and a spread is wider than the bound.

Each workload also gets a row, not judged, with the host's CPU steal
share during the runs of each side (see ``run.py``), which explains
most ``unresolved`` rows on a shared virtual machine. Traced reports
(``--trace 1``) add, per workload, the layer whose self time per
operation moved the most.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import summary  # noqa: E402

#: Share of pairs the head must win for ``better``.
WIN_SHARE = 0.9


def load_reports(directory: Path) -> List[dict]:
    reports = []
    for path in sorted(directory.glob("*.json")):
        report = json.loads(path.read_text())
        if "env" in report and "metrics" in report:
            reports.append(report)
    return reports


def _bounds(spec: dict) -> Dict[str, dict]:
    return {m["name"]: m for m in spec["end_to_end"]}


def _figure_meta(name: str, metrics: Dict[str, dict]) -> Optional[dict]:
    """Direction and bound of a named figure: those of the end-to-end
    metric of the same kind (a rate or a time). Rates are tested first,
    as ``_per_s`` also ends in ``_s``."""
    if name.endswith(("_per_s", "_rps")):
        return metrics.get("rate_per_s")
    if name.endswith(("_ms", "_s")):
        return metrics.get("p50_ms")
    return None


def verdict(base: List[float], head: List[float], better: str,
            bound: float, pairs: Optional[List[tuple]] = None) -> str:
    """One of ``better``, ``worse``, ``same`` or ``unresolved``."""
    sign = 1.0 if better == "higher" else -1.0
    base_mid = summary.median(base)
    head_mid = summary.median(head)
    gain = sign * (head_mid - base_mid) / abs(base_mid) if base_mid else 0.0
    base_spread = summary.spread(base) if len(base) > 1 else 0.0
    head_spread = summary.spread(head) if len(head) > 1 else 0.0
    noisy = max(base_spread, head_spread) > bound
    all_worse = max(sign * h for h in head) < min(sign * b for b in base)
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    if gain < -bound and (not noisy or all_worse):
        return "worse"
    if pairs:
        won = sum(1 for b, h in pairs if sign * h > sign * b) >= WIN_SHARE * len(pairs)
    else:
        won = all_better
    if gain > base_spread and gain > 0 and won:
        return "better"
    return "unresolved" if noisy else "same"


def _series(reports: List[dict], key: str, field: str) -> Dict[tuple, float]:
    """``{(seed, occurrence): value}``: every report counts, and the n-th
    run of a seed on one side pairs with the n-th run of it on the other."""
    out = {}
    seen: Dict[int, int] = defaultdict(int)
    for report in reports:
        source = report.get(field, {})
        value = source.get(key)
        if isinstance(value, dict):
            value = value.get("value")
        if isinstance(value, (int, float)):
            seed = report["env"]["seed"]
            out[(seed, seen[seed])] = float(value)
            seen[seed] += 1
    return out


def _describe(values: List[float]) -> str:
    q1, mid, q3 = summary.quartiles(values)
    return f"{mid:.4g} [{q1:.4g}, {q3:.4g}]"


def _per_op_layers(reports: List[dict]) -> Dict[str, List[float]]:
    layers: Dict[str, List[float]] = defaultdict(list)
    for report in reports:
        ops = max(1, report.get("ops", 1))
        for layer, seconds in report.get("layers_self_s", {}).items():
            layers[layer].append(seconds * 1e3 / ops)
    return layers


def compare(base_dir: Path, head_dir: Path, spec: dict, out=sys.stdout) -> int:
    metrics = _bounds(spec)
    base = load_reports(base_dir)
    head = load_reports(head_dir)
    by = defaultdict(lambda: ([], []))
    for side, reports in ((0, base), (1, head)):
        for report in reports:
            env = report["env"]
            by[(env["workload"], env["trace"])][side].append(report)
    revisions = {
        label: sorted({(r["env"].get("git_revision") or "?")[:12]
                       + "/" + r["env"]["source_digest"][:12] for r in reports})
        for label, reports in (("base", base), ("head", head))
    }
    print(f"base {revisions['base']} ({len(base)} reports)", file=out)
    print(f"head {revisions['head']} ({len(head)} reports)", file=out)
    header = f"{'workload':<12} {'metric':<26} {'base median [q1, q3]':<32} " \
             f"{'head median [q1, q3]':<32} {'change':>8}  verdict"
    print(header, file=out)
    worse = 0
    for (workload, trace), (b_reports, h_reports) in sorted(by.items()):
        if not b_reports or not h_reports:
            print(f"{workload:<12} (runs on one side only)", file=out)
            continue
        if trace:
            continue
        rows = [(name, "metrics", metrics[name]) for name in metrics]
        figures = sorted(set(b_reports[0].get("figures", {}))
                         - set(metrics))
        rows += [(name, "figures", _figure_meta(name, metrics)) for name in figures]
        for name, field, meta in rows:
            if meta is None:
                continue
            b = _series(b_reports, name, field)
            h = _series(h_reports, name, field)
            if not b or not h:
                continue
            pairs = [(b[k], h[k]) for k in sorted(set(b) & set(h))]
            b_vals, h_vals = list(b.values()), list(h.values())
            result = verdict(b_vals, h_vals, meta["better"], meta["bound"], pairs)
            worse += result == "worse"
            b_mid = summary.median(b_vals)
            change = (summary.median(h_vals) - b_mid) / abs(b_mid) * 100 if b_mid else 0.0
            print(f"{workload:<12} {name:<26} {_describe(b_vals):<32} "
                  f"{_describe(h_vals):<32} {change:>+7.1f}%  {result}", file=out)
        # Not judged: how much CPU the host took away while each side ran.
        b = list(_series(b_reports, "steal_pct", "env").values())
        h = list(_series(h_reports, "steal_pct", "env").values())
        if b and h:
            print(f"{workload:<12} {'host steal_pct':<26} {_describe(b):<32} "
                  f"{_describe(h):<32}", file=out)
    for (workload, trace), (b_reports, h_reports) in sorted(by.items()):
        if not trace or not b_reports or not h_reports:
            continue
        b_layers, h_layers = _per_op_layers(b_reports), _per_op_layers(h_reports)
        moves = {
            layer: summary.median(h_layers.get(layer, [0.0]))
            - summary.median(b_layers.get(layer, [0.0]))
            for layer in set(b_layers) | set(h_layers)
        }
        if moves:
            layer = max(moves, key=lambda k: abs(moves[k]))
            base_ms = summary.median(b_layers.get(layer, [0.0]))
            share = f" ({moves[layer] / base_ms * 100:+.1f}%)" if base_ms else ""
            print(f"{workload:<12} layer moved most: {layer} self "
                  f"{moves[layer]:+.4g} ms/op{share}", file=out)
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="directory of base reports")
    parser.add_argument("head", type=Path, help="directory of head reports")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(args.base, args.head, spec)


if __name__ == "__main__":
    sys.exit(main())
