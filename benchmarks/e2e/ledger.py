"""The per-layer ledger of a traced lifecycle.

Span files from every process are merged on one time axis (see
:mod:`tracing`).  A span's self time is its duration minus the
durations of its direct children.  Only spans that start inside the
measured window count.

A span is *on the call path* when it runs in the gateway process
outside the replication shippers, or in a pool worker under the
``workers.execute`` entry span.  Per-call figures (µs per OK call) sum
on-path self times.  Per-event figures (ms per hydration, per park,
per checkpoint, ...) average whole durations over every span of that
name, on the path or not.  The replication shippers and appliers run
beside the calls, inside the gateway process; they are charged as
whole durations per OK call.

The round trip a client sees splits into three parts:

* ``gateway.front_us``: client round trip minus the response's
  ``latency_ms``.  It covers the socket, the event loop, decode,
  validation, admission and encode.
* ``gateway.hop_us``: ``latency_ms`` minus the worker-side
  ``workers.execute`` span.  It covers executor queueing and pickling
  both ways.
* the worker-side span, split into the self times beneath it.

``trace.unattributed_us`` is the front minus the gateway-process spans
inside it: the socket and event-loop time no span covers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

from tracing import EXECUTE

#: spans that run beside the calls, not on any call's path
OFF_PATH = ("replication.apply", "replication.poll")

#: spans reported per event, as mean milliseconds of whole duration
PER_EVENT = {
    "sessions.hydrate_ms": "sessions.hydrate",
    "sessions.park_ms": "sessions.park",
    "snapshot.delta_ms": "snapshot.delta",
    "snapshot.apply_delta_ms": "snapshot.apply_delta",
    "snapshot.restore_ms": "snapshot.restore",
    "snapshot.checkpoint_ms": "snapshot.checkpoint",
}

#: per-call self times, as (metric, process role, span name)
PER_CALL_SELF = (
    ("protocol.decode_us", "gateway", "protocol.decode"),
    ("protocol.encode_us", "gateway", "protocol.encode"),
    ("catalog.build_program_us", "gateway", "catalog.build_program"),
    ("admission.admit_us", "gateway", "admission.admit"),
    ("workers.execute_us", "worker", EXECUTE),
    ("workers.entry_for_us", "worker", "workers.entry_for"),
    ("workers.run_job_us", "worker", "workers.run_job"),
    ("machine.run_us", "worker", "machine.run"),
    ("cpu.run_us", "worker", "cpu.run"),
    ("cpu.compile_us", "worker", "cpu.compile"),
    ("krnl.attach_us", "worker", "krnl.attach"),
    ("journal.append_us", "worker", "journal.append"),
    ("journal.sync_us", "worker", "journal.sync"),
)


@dataclass
class Acc:
    """Totals of one (process role, span name) pair."""

    count: int = 0
    total_ns: int = 0
    path_count: int = 0
    path_self_ns: int = 0


def aggregate(
    payloads: Iterable[Dict[str, Any]], t0_ns: int, t1_ns: int
) -> Dict[Tuple[str, str], Acc]:
    """Sum spans that start in ``[t0_ns, t1_ns)`` by (role, name)."""
    accs: Dict[Tuple[str, str], Acc] = defaultdict(Acc)
    for payload in payloads:
        role = payload["role"]
        spans = payload["spans"]
        by_id = {span[0]: span for span in spans}
        child_ns: Dict[int, int] = defaultdict(int)
        for span_id, parent, _, _, start, end, _ in spans:
            if parent:
                child_ns[parent] += end - start
        for span_id, parent, name, _, start, end, _ in spans:
            if not t0_ns <= start < t1_ns:
                continue
            root = name
            up = parent
            while up:
                root, up = by_id[up][2], by_id[up][1]
            acc = accs[(role, name)]
            acc.count += 1
            acc.total_ns += end - start
            if role == "worker" and root != EXECUTE:
                continue
            if root in OFF_PATH:
                continue
            acc.path_count += 1
            acc.path_self_ns += end - start - child_ns[span_id]
    return accs


def span_metrics(
    accs: Dict[Tuple[str, str], Acc],
    ok: int,
    wire_us: float,
    server_us: float,
    instructions: int,
    samples: Dict[str, List[int]],
) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced lifecycle.

    ``wire_us`` and ``server_us`` are the mean client round trip and
    the mean gateway ``latency_ms`` (in µs) over the ``ok`` calls;
    ``instructions`` is the simulated instruction count of the window.
    """
    if ok <= 0:
        raise ValueError("a ledger needs at least one OK call")

    def acc(role: str, name: str) -> Acc:
        return accs.get((role, name), Acc())

    def per_call_us(ns: float) -> float:
        return ns / 1e3 / ok

    out: Dict[str, float] = {}
    for metric, role, name in PER_CALL_SELF:
        out[metric] = per_call_us(acc(role, name).path_self_ns)
    for role, metric in (("worker", "metrics.worker_us"), ("gateway", "metrics.gateway_us")):
        out[metric] = per_call_us(
            sum(
                value.path_self_ns
                for (r, name), value in accs.items()
                if r == role and name.startswith("metrics.")
            )
        )
    for name in OFF_PATH:
        metric = name + "_us"
        out[metric] = per_call_us(acc("gateway", name).total_ns)
    for metric, name in PER_EVENT.items():
        events = acc("worker", name)
        out[metric] = events.total_ns / 1e6 / events.count if events.count else 0.0
    out["cpu.compiles_per_call"] = acc("worker", "cpu.compile").path_count / ok
    out["krnl.attaches_per_call"] = acc("worker", "krnl.attach").path_count / ok
    out["snapshot.checkpoints_per_kcall"] = (
        1e3 * acc("worker", "snapshot.checkpoint").count / ok
    )
    out["journal.syncs_per_kcall"] = 1e3 * acc("worker", "journal.sync").count / ok
    run_ns = acc("worker", "cpu.run").total_ns
    out["cpu.sim_mips"] = instructions / (run_ns / 1e3) if run_ns else 0.0
    listed = {name for _, role, name in PER_CALL_SELF if role == "worker"}
    out["workers.other_us"] = per_call_us(
        sum(
            value.path_self_ns
            for (role, name), value in accs.items()
            if role == "worker"
            and name not in listed
            and not name.startswith("metrics.")
        )
    )
    execute_us = per_call_us(acc("worker", EXECUTE).total_ns)
    out["client.round_trip_us"] = wire_us
    out["gateway.front_us"] = wire_us - server_us
    out["gateway.hop_us"] = server_us - execute_us
    out["workers.span_us"] = execute_us
    gateway_spans_us = per_call_us(
        sum(
            value.path_self_ns
            for (role, _), value in accs.items()
            if role == "gateway"
        )
    )
    out["trace.unattributed_us"] = wire_us - server_us - gateway_spans_us
    for name, values in samples.items():
        out[name] = sum(values) / len(values) if values else 0.0
    return out


#: the printed ledger: (indent, metric), from the round trip down
LEDGER_ROWS = (
    (0, "client.round_trip_us"),
    (1, "gateway.front_us"),
    (2, "protocol.decode_us"),
    (2, "catalog.build_program_us"),
    (2, "admission.admit_us"),
    (2, "metrics.gateway_us"),
    (2, "protocol.encode_us"),
    (2, "trace.unattributed_us"),
    (1, "gateway.hop_us"),
    (1, "workers.span_us"),
    (2, "workers.execute_us"),
    (2, "workers.entry_for_us"),
    (2, "workers.run_job_us"),
    (2, "metrics.worker_us"),
    (2, "machine.run_us"),
    (2, "krnl.attach_us"),
    (2, "cpu.run_us"),
    (2, "cpu.compile_us"),
    (2, "journal.append_us"),
    (2, "journal.sync_us"),
    (2, "workers.other_us"),
)
