"""Self time, the call-path rule and the round-trip arithmetic."""

import pytest

import ledger
from tracing import EXECUTE


def span(span_id, parent, name, start, end, call_id=None, tid=1):
    return (span_id, parent, name, tid, start, end, call_id)


def worker(pid, spans):
    return {"pid": pid, "role": "worker", "spans": spans, "samples": {}}


def gateway(spans, samples=None):
    return {"pid": 1, "role": "gateway", "spans": spans, "samples": samples or {}}


def metrics(payloads, ok=1, wire_us=20.0, server_us=15.0, t0=0, t1=10**9,
            instructions=22, samples=None):
    accs = ledger.aggregate(payloads, t0, t1)
    return ledger.span_metrics(accs, ok, wire_us, server_us, instructions,
                               samples or {})


def test_nested_self_time():
    # children finish first, so they precede their parents in the file
    out = metrics([
        worker(10, [
            span(4, 3, "cpu.run", 3000, 7000, "c1"),
            span(3, 2, "machine.run", 2000, 8000, "c1"),
            span(2, 1, "workers.run_job", 1000, 9000, "c1"),
            span(1, 0, EXECUTE, 0, 10000, "c1"),
        ]),
    ])
    assert out["cpu.run_us"] == pytest.approx(4.0)
    assert out["machine.run_us"] == pytest.approx(2.0)
    assert out["workers.run_job_us"] == pytest.approx(2.0)
    assert out["workers.execute_us"] == pytest.approx(2.0)
    assert out["workers.span_us"] == pytest.approx(10.0)


def test_spans_of_different_processes_do_not_nest():
    # both workers number their spans from 1; a parent id resolves
    # inside its own process only
    out = metrics(
        [
            worker(10, [span(2, 1, "cpu.run", 1000, 3000), span(1, 0, EXECUTE, 0, 4000)]),
            worker(11, [span(1, 0, EXECUTE, 5000, 6000)]),
        ],
        ok=2,
    )
    assert out["cpu.run_us"] == pytest.approx(1.0)
    assert out["workers.execute_us"] == pytest.approx(1.5)
    assert out["workers.span_us"] == pytest.approx(2.5)


def test_round_trip_arithmetic():
    # client round trip 20 us; the gateway answered 15 us after submit;
    # the worker span was 10 us and the gateway spans 3 us in all
    out = metrics([
        gateway([
            span(1, 0, "protocol.decode", 100, 1100),
            span(2, 0, "protocol.encode", 2000, 4000),
        ]),
        worker(10, [span(1, 0, EXECUTE, 0, 10000)]),
    ])
    assert out["client.round_trip_us"] == pytest.approx(20.0)
    assert out["gateway.front_us"] == pytest.approx(5.0)
    assert out["gateway.hop_us"] == pytest.approx(5.0)
    assert out["trace.unattributed_us"] == pytest.approx(2.0)
    assert (
        out["gateway.front_us"] + out["gateway.hop_us"] + out["workers.span_us"]
        == pytest.approx(out["client.round_trip_us"])
    )


def test_window_excludes_spans_outside():
    out = metrics(
        [worker(10, [span(1, 0, EXECUTE, 0, 1000), span(2, 0, EXECUTE, 5000, 7000)])],
        t0=4000,
    )
    assert out["workers.span_us"] == pytest.approx(2.0)


def test_off_path_work_is_charged_whole():
    out = metrics([
        gateway([
            # a replica applying a record re-runs the engine in a thread
            span(2, 1, "metrics.collect", 200, 700, tid=2),
            span(1, 0, "replication.apply", 0, 1000, tid=2),
            span(3, 0, "metrics.from_dict", 2000, 2500),
        ]),
        worker(10, [
            # a prefetch hydration runs outside any call
            span(2, 1, "snapshot.restore", 100, 600),
            span(1, 0, "sessions.hydrate", 0, 2000),
            span(3, 0, EXECUTE, 3000, 4000),
        ]),
    ])
    assert out["replication.apply_us"] == pytest.approx(1.0)
    assert out["metrics.gateway_us"] == pytest.approx(0.5)
    assert out["workers.other_us"] == 0.0
    assert out["sessions.hydrate_ms"] == pytest.approx(0.002)
    assert out["snapshot.restore_ms"] == pytest.approx(0.0005)


def test_counts_and_rates():
    out = metrics(
        [worker(10, [
            span(2, 1, "krnl.attach", 100, 200),
            span(3, 1, "cpu.compile", 300, 400),
            span(4, 1, "journal.sync", 500, 600),
            span(1, 0, EXECUTE, 0, 1000),
            span(5, 0, EXECUTE, 2000, 3000),
        ])],
        ok=2,
        instructions=2000,
        samples={"workers.job_bytes": [100, 140]},
    )
    assert out["krnl.attaches_per_call"] == 0.5
    assert out["cpu.compiles_per_call"] == 0.5
    assert out["journal.syncs_per_kcall"] == 500.0
    assert out["cpu.sim_mips"] == 0.0  # no cpu.run span
    assert out["workers.job_bytes"] == 120.0


def test_ledger_needs_calls():
    with pytest.raises(ValueError):
        metrics([], ok=0)
