"""Compare two end-to-end benchmark reports metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json [--benchmark FILE]

``A`` is the baseline and ``B`` the candidate, both written by
``run.py --json``.  Every (end-to-end metric, workload) pair is reported
as ``better``, ``worse``, ``unchanged`` or ``unresolved`` against the
metric's bound in ``BENCHMARK.json``:

* the pair is ``unresolved`` when the spread of either side's lifecycles
  (distance between quartiles over median) is wider than the bound,
  unless every lifecycle on one side beats every lifecycle on the other;
* otherwise it is ``worse`` when B's value is worse than A's by more
  than the bound, ``better`` when it is better by more than the bound,
  and ``unchanged`` in between.

Each pair is judged twice: on the figures at the reference host speed
and on the figures as measured (``raw`` in the reports).  The host
factor that rescales them is read while the program runs, so it moves a
little with the program's load; a pair whose two verdicts differ is
therefore ``unresolved``.

``fail_rate`` has an absolute bound of 0: any increase is ``worse``.
The exit code is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from percentiles import relative_iqr

HERE = Path(__file__).resolve().parent

#: metrics run.py reports that BENCHMARK.json does not list, with their
#: bounds: (bound, better, absolute, workloads or None for all)
EXTRA_BOUNDS = {
    "cold_call_p50_ms": (0.10, "lower", False, ("tenant_churn",)),
    "fail_rate": (0.0, "lower", True, None),
}


def _beats(x: float, y: float, better: str) -> bool:
    return x > y if better == "higher" else x < y


def classify(
    a: float,
    b: float,
    a_runs: Sequence[float],
    b_runs: Sequence[float],
    bound: float,
    better: str,
    absolute: bool = False,
) -> str:
    """The verdict on candidate ``b`` against baseline ``a``."""
    if absolute:
        if _beats(a, b, better) and abs(b - a) > bound:
            return "worse"
        if _beats(b, a, better) and abs(b - a) > bound:
            return "better"
        return "unchanged"
    spreads = [s for s in (relative_iqr(a_runs), relative_iqr(b_runs)) if s is not None]
    separated = bool(a_runs and b_runs) and (
        all(_beats(x, y, better) for x in b_runs for y in a_runs)
        or all(_beats(y, x, better) for x in b_runs for y in a_runs)
    )
    if spreads and max(spreads) > bound and not separated:
        return "unresolved"
    change = (b - a) / abs(a)
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "unchanged"


def load_bounds(path: Path) -> Dict[str, Dict[str, Any]]:
    """``{metric: {bound, better, absolute, workloads}}``."""
    spec = json.loads(path.read_text())
    bounds = {
        entry["name"]: {
            "bound": entry["bound"],
            "better": entry["better"],
            "absolute": False,
            "workloads": None,
        }
        for entry in spec["end_to_end"]
    }
    for name, (bound, better, absolute, workloads) in EXTRA_BOUNDS.items():
        bounds[name] = {
            "bound": bound,
            "better": better,
            "absolute": absolute,
            "workloads": workloads,
        }
    return bounds


def _judge(
    metric: str, rule: Dict[str, Any], side_a: Dict[str, Any], side_b: Dict[str, Any]
) -> Dict[str, Any]:
    """Values, change, spread and verdict of one pair, from two sides
    as :func:`_figures` gives them."""

    def runs(side: Dict[str, Any]) -> List[float]:
        return [values[metric] for values in side["lifecycles"] if metric in values]

    value_a, value_b = side_a["metrics"][metric], side_b["metrics"][metric]
    spreads = [relative_iqr(runs(side_a)), relative_iqr(runs(side_b))]
    return {
        "a": value_a,
        "b": value_b,
        "change": (value_b - value_a) / abs(value_a) if value_a else None,
        "spread": max((s for s in spreads if s is not None), default=None),
        "verdict": classify(
            value_a, value_b, runs(side_a), runs(side_b),
            rule["bound"], rule["better"], rule["absolute"],
        ),
    }


def _figures(summary: Dict[str, Any], raw: bool) -> Dict[str, Any]:
    """A workload's figures at the reference speed, or as measured."""
    untraced = [lc for lc in summary["lifecycles"] if not lc["traced"]]
    if raw:
        return {"metrics": summary["raw"], "lifecycles": [lc["raw"] for lc in untraced]}
    return {"metrics": summary["metrics"], "lifecycles": untraced}


def compare(
    a: Dict[str, Any], b: Dict[str, Any], bounds: Dict[str, Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """One row per (metric, workload) pair both reports carry: the
    judgement at the reference speed (``scaled``), the one as measured
    (``raw``), and the pair's ``verdict``."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for metric, rule in bounds.items():
            if rule["workloads"] is not None and workload not in rule["workloads"]:
                continue
            if metric not in side_a["metrics"] or metric not in side_b["metrics"]:
                continue
            scaled = _judge(metric, rule, _figures(side_a, False), _figures(side_b, False))
            raw = _judge(metric, rule, _figures(side_a, True), _figures(side_b, True))
            verdict = scaled["verdict"]
            if raw["verdict"] != verdict:
                verdict = "unresolved"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "scaled": scaled,
                    "raw": raw,
                    "bound": rule["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{100 * value:+.1f}%"


def _spread(value: Optional[float]) -> str:
    return "-" if value is None else f"{100 * value:.1f}%"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark reports.")
    parser.add_argument("a", help="baseline report (run.py --json)")
    parser.add_argument("b", help="candidate report")
    parser.add_argument("--benchmark", default=str(HERE.parent.parent / "BENCHMARK.json"),
                        help="the BENCHMARK.json holding the bounds")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    rows = compare(a, b, load_bounds(Path(args.benchmark)))
    print(f"{'':<39} {'at reference speed':^51} {'as measured':^27}")
    print(f"{'workload':<20} {'metric':<18} {'A':>11} {'B':>11} {'change':>8} "
          f"{'spread':>7} {'verdict':<10} {'change':>8} {'spread':>7} "
          f"{'verdict':<10} {'bound':>6}  pair")
    for row in rows:
        scaled, raw = row["scaled"], row["raw"]
        print(
            f"{row['workload']:<20} {row['metric']:<18} {scaled['a']:>11.4g} "
            f"{scaled['b']:>11.4g} {_pct(scaled['change']):>8} "
            f"{_spread(scaled['spread']):>7} {scaled['verdict']:<10} "
            f"{_pct(raw['change']):>8} {_spread(raw['spread']):>7} "
            f"{raw['verdict']:<10} {100 * row['bound']:>5.0f}%  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
