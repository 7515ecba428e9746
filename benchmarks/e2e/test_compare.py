"""compare.py verdicts, and BENCHMARK.json against run.py's tables."""

import json
from pathlib import Path

import compare
import run

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_within_bound_is_unchanged():
    assert compare.classify(100, 95, [99, 100, 101], [94, 95, 96], 0.10, "higher") == "unchanged"


def test_beyond_bound_is_worse_or_better():
    assert compare.classify(100, 85, [99, 100, 101], [84, 85, 86], 0.10, "higher") == "worse"
    assert compare.classify(100, 85, [99, 100, 101], [84, 85, 86], 0.10, "lower") == "better"
    assert compare.classify(1.0, 1.2, [1.0] * 3, [1.2] * 3, 0.10, "lower") == "worse"


def test_wide_spread_is_unresolved():
    noisy = [70, 100, 130, 85, 115]
    assert compare.classify(100, 80, noisy, [60, 80, 100, 70, 90], 0.10, "higher") == "unresolved"


def test_separated_sides_resolve_despite_spread():
    # every B run beats every A run although each side spreads widely
    a_runs = [60, 80, 100, 70, 90]
    b_runs = [110, 130, 150, 120, 140]
    assert compare.classify(80, 130, a_runs, b_runs, 0.10, "higher") == "better"
    assert compare.classify(130, 80, b_runs, a_runs, 0.10, "higher") == "worse"


def test_fail_rate_bound_is_absolute_zero():
    assert compare.classify(0.0, 0.001, [0.0], [0.001], 0.0, "lower", absolute=True) == "worse"
    assert compare.classify(0.0, 0.0, [0.0], [0.0], 0.0, "lower", absolute=True) == "unchanged"


def report(throughputs, fail_rate=0.0, raw_throughputs=None):
    """A one-workload report; the raw figures equal the rescaled ones
    unless ``raw_throughputs`` is given."""
    raw_throughputs = raw_throughputs or throughputs

    def figures(value, raw_value):
        raw = {"throughput_cps": raw_value, "fail_rate": fail_rate}
        return {"throughput_cps": value, "fail_rate": fail_rate, "raw": raw}

    def mid(values):
        return sorted(values)[len(values) // 2]

    lifecycles = [
        {"traced": False, **figures(value, raw_value)}
        for value, raw_value in zip(throughputs, raw_throughputs)
    ]
    summary = figures(mid(throughputs), mid(raw_throughputs))
    return {
        "workloads": {
            "warm_calls": {
                "metrics": {key: summary[key] for key in ("throughput_cps", "fail_rate")},
                "raw": summary["raw"],
                "lifecycles": lifecycles,
            }
        }
    }


def test_compare_reports():
    bounds = compare.load_bounds(BENCHMARK)
    rows = compare.compare(report([100, 101, 99]), report([70, 71, 69], 0.01), bounds)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"throughput_cps": "worse", "fail_rate": "worse"}
    # cold_call_p50_ms is compared on tenant_churn only
    assert all(row["workload"] == "warm_calls" for row in rows)


def test_raw_and_rescaled_verdicts_must_agree():
    bounds = compare.load_bounds(BENCHMARK)
    # rescaled, B is 30% slower; as measured, the host ran 30% faster
    # during B and the raw figures did not move
    a = report([100, 101, 99])
    b = report([70, 71, 69], raw_throughputs=[100, 101, 99])
    row = next(r for r in compare.compare(a, b, bounds) if r["metric"] == "throughput_cps")
    assert (row["scaled"]["verdict"], row["raw"]["verdict"]) == ("worse", "unchanged")
    assert row["verdict"] == "unresolved"


def test_benchmark_json_matches_run_py():
    spec = json.loads(BENCHMARK.read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS
    ]
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == {
            m.name: (m.unit, m.better) for m in table if m.listed
        }, section
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())
