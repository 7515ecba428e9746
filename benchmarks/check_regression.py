"""Gate host-throughput regressions against the committed baseline.

Usage::

    python benchmarks/check_regression.py BENCH.json \
        [--baseline benchmarks/baseline.json] [--tolerance 0.2]

``BENCH.json`` is pytest-benchmark's ``--benchmark-json`` output from a
run of ``bench_host_throughput.py``.  The gate compares the *speedup
ratios* the benchmark records into ``extra_info`` — trace tier vs. fast
path vs. everything off — not absolute instructions/sec: ratios divide
out the host, so one committed baseline works on laptops and CI runners
alike.  A measured ratio more than ``tolerance`` (default 20%) below
its baseline fails the run; improvements print a hint to refresh the
baseline but never fail.

Exit status: 0 pass, 1 regression, 2 input problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def load_measured(bench_json: Path, name: str) -> dict:
    """The ``extra_info`` of the named benchmark in a results file."""
    data = json.loads(bench_json.read_text())
    for bench in data.get("benchmarks", []):
        if bench.get("name") == name:
            return bench.get("extra_info", {})
    raise KeyError(
        f"benchmark {name!r} not found in {bench_json} "
        f"(got: {[b.get('name') for b in data.get('benchmarks', [])]})"
    )


def check(measured: dict, ratios: dict, tolerance: float) -> list:
    """Failure messages for every gated ratio (empty = pass).

    Two kinds of missing key both fail: a baseline ratio absent from
    the benchmark output (the benchmark silently stopped recording
    it), and a measured speedup ratio absent from the baseline (a new
    tier landed without committing its gate — exactly how a regression
    in a new tier would slip through unnoticed).
    """
    failures = []
    for key in sorted(k for k in measured if "speedup" in k):
        if key not in ratios:
            failures.append(
                f"{key}: measured but has no baseline entry — add it to "
                "baseline.json so the new ratio is gated"
            )
    for key, baseline in ratios.items():
        value = measured.get(key)
        if value is None:
            failures.append(f"{key}: missing from the benchmark output")
            continue
        floor = baseline * (1.0 - tolerance)
        verdict = "ok"
        if value < floor:
            verdict = "REGRESSION"
            failures.append(
                f"{key}: {value:.2f} is more than {tolerance:.0%} below "
                f"the baseline {baseline:.2f} (floor {floor:.2f})"
            )
        elif value > baseline * (1.0 + tolerance):
            verdict = "improved — consider refreshing baseline.json"
        print(
            f"  {key}: measured {value:.2f}, baseline {baseline:.2f} "
            f"[{verdict}]"
        )
    return failures


def check_ceilings(measured: dict, ceilings: dict, tolerance: float) -> list:
    """Failure messages for every gated ceiling (empty = pass).

    Ceilings are upper bounds — a parked-delta size ratio, a
    hydrate-miss latency multiple — so the comparison runs the other
    way round from ``check``: a measured value more than ``tolerance``
    *above* its ceiling fails, values comfortably below it print a
    refresh hint.  Missing keys fail in both directions, same as
    ratios.
    """
    failures = []
    for key, ceiling in ceilings.items():
        value = measured.get(key)
        if value is None:
            failures.append(f"{key}: missing from the benchmark output")
            continue
        roof = ceiling * (1.0 + tolerance)
        verdict = "ok"
        if value > roof:
            verdict = "REGRESSION"
            failures.append(
                f"{key}: {value:.4f} is more than {tolerance:.0%} above "
                f"the ceiling {ceiling:.4f} (roof {roof:.4f})"
            )
        elif value < ceiling * (1.0 - tolerance):
            verdict = "improved — consider lowering the ceiling"
        print(
            f"  {key}: measured {value:.4f}, ceiling {ceiling:.4f} "
            f"[{verdict}]"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", type=Path)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional drop below baseline (default 0.2)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(args.baseline.read_text())
        measured = load_measured(args.bench_json, baseline["benchmark"])
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"checking {args.bench_json} against {args.baseline}:")
    failures = check(measured, baseline.get("ratios", {}), args.tolerance)
    failures += check_ceilings(
        measured, baseline.get("ceilings", {}), args.tolerance
    )
    if failures:
        print("host-throughput regression:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("host throughput within tolerance of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
