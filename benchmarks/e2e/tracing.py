"""Span recording for the traced gateway run, from outside the program.

:func:`install` replaces the public functions each serving layer
exposes with timing wrappers.  Every name is patched where callers look
it up (``repro.serve.gateway.encode``, not only
``repro.serve.protocol.encode``), and nothing under ``src/`` changes.
The gateway process installs the wrappers before its worker pool forks,
so pool children inherit them.

The two executor entry points keep their ``__module__`` and
``__qualname__``: the pool pickles them by reference, and the lookup in
the forked child resolves to the wrapper.  The entry wrapper also puts
the job's ``call_id`` in scope for every span beneath it, and samples
the pickled sizes of jobs and results.

A span is ``(id, parent, name, tid, start_ns, end_ns, call_id)``.  The
parent comes from a per-thread stack; times come from
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), so spans of
different processes share one time axis.  Spans stay in memory; each
process writes ``spans-<pid>.pkl`` when it exits (pool children through
``multiprocessing.util.Finalize``, the gateway process explicitly).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import pickle
import threading
import time
from multiprocessing import util
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute) for every wrapped layer function
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("protocol.decode", "repro.serve.gateway", "decode_line"),
    ("protocol.encode", "repro.serve.gateway", "encode"),
    ("catalog.build_program", "repro.serve.catalog", "build_program"),
    ("admission.admit", "repro.serve.admission", "AdmissionController.admit"),
    ("workers.run_job", "repro.serve.workers", "GateCallEngine.run_job"),
    ("workers.entry_for", "repro.serve.workers", "GateCallEngine.entry_for"),
    ("metrics.collect", "repro.sim.metrics", "MetricsSnapshot.collect"),
    ("metrics.minus", "repro.sim.metrics", "MetricsSnapshot.minus"),
    ("metrics.plus", "repro.sim.metrics", "MetricsSnapshot.plus"),
    ("metrics.as_dict", "repro.sim.metrics", "MetricsSnapshot.as_dict"),
    ("metrics.from_dict", "repro.sim.metrics", "MetricsSnapshot.from_dict"),
    (
        "metrics.architectural",
        "repro.sim.metrics",
        "MetricsSnapshot.architectural",
    ),
    ("machine.run", "repro.sim.machine", "Machine.run"),
    ("cpu.run", "repro.cpu.processor", "Processor.run"),
    ("cpu.compile", "repro.cpu.jit", "TraceCache.record_and_compile"),
    ("krnl.attach", "repro.krnl.supervisor", "Supervisor.attach"),
    ("sessions.hydrate", "repro.serve.sessions", "SessionPool._hydrate"),
    ("sessions.park", "repro.serve.sessions", "SessionPool.park"),
    ("snapshot.delta", "repro.serve.sessions", "delta_snapshot"),
    ("snapshot.apply_delta", "repro.serve.sessions", "apply_delta"),
    ("snapshot.restore", "repro.state.snapshot", "restore_machine"),
    (
        "snapshot.checkpoint",
        "repro.serve.workers",
        "_WorkerState._checkpoint",
    ),
    ("journal.append", "repro.state.journal", "JournalWriter.append"),
    ("journal.sync", "repro.state.journal", "JournalWriter.sync"),
    ("replication.apply", "repro.state.replication", "ReplicaApplier.apply"),
    ("replication.poll", "repro.state.replication", "JournalTailer.poll"),
)

#: executor entry points: (defining module, function, modules that
#: imported the name and call it from there)
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.serve.workers", "execute_gate_call", ("repro.serve.gateway",)),
    ("repro.serve.sessions", "execute_session_call", ("repro.serve.gateway",)),
)

#: span name of both entry points: the worker side of one call
EXECUTE = "workers.execute"

#: every this-many executed calls a worker pickles the job and the
#: result once to sample their sizes
SIZE_SAMPLE_EVERY = 32

Span = Tuple[int, int, str, int, int, int, Optional[str]]


class Recorder:
    """The spans and size samples of one process."""

    def __init__(self, out_dir: str, role: str):
        self.out_dir = out_dir
        self.role = role
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.samples: Dict[str, List[int]] = {
            "workers.job_bytes": [],
            "workers.result_bytes": [],
        }
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.executed = 0

    def after_fork(self) -> None:
        """Runs in each forked pool child: start empty, flush at exit."""
        self.role = "worker"
        self._reset()
        util.Finalize(None, self.flush, exitpriority=10)

    def thread_state(self) -> threading.local:
        state = self.local
        if not hasattr(state, "stack"):
            state.stack = []
            state.call_id = None
            state.tid = threading.get_ident()
        return state

    def flush(self) -> str:
        """Write this process's spans; returns the file path."""
        path = os.path.join(self.out_dir, f"spans-{self.pid}.pkl")
        payload = {
            "pid": self.pid,
            "role": self.role,
            "spans": self.spans,
            "samples": self.samples,
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return path


def _timed(recorder: Recorder, name: str, fn: Callable) -> Callable:
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        state = recorder.thread_state()
        span_id = next(recorder.ids)
        parent = state.stack[-1] if state.stack else 0
        state.stack.append(span_id)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            state.stack.pop()
            recorder.spans.append(
                (span_id, parent, name, state.tid, start, end, state.call_id)
            )

    return wrapper


def _entry(recorder: Recorder, fn: Callable) -> Callable:
    timed = _timed(recorder, EXECUTE, fn)

    @functools.wraps(fn)
    def wrapper(job: Dict[str, Any]) -> Dict[str, Any]:
        state = recorder.thread_state()
        state.call_id = job.get("call_id")
        try:
            result = timed(job)
        finally:
            state.call_id = None
        recorder.executed += 1
        if recorder.executed % SIZE_SAMPLE_EVERY == 0:
            recorder.samples["workers.job_bytes"].append(len(pickle.dumps(job)))
            recorder.samples["workers.result_bytes"].append(
                len(pickle.dumps(result))
            )
        return result

    return wrapper


def _resolve(module_name: str, attr: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(out_dir: str) -> Recorder:
    """Wrap every target in this process and arrange the span files.

    Call before the worker pool forks.  Returns the gateway process's
    recorder; call its :meth:`Recorder.flush` after the gateway stops.
    """
    recorder = Recorder(out_dir, role="gateway")
    for name, module_name, attr in TARGETS:
        owner, leaf = _resolve(module_name, attr)
        raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(
            owner, leaf
        )
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(_timed(recorder, name, raw.__func__)))
        else:
            setattr(owner, leaf, _timed(recorder, name, raw))
    for module_name, attr, callers in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        wrapper = _entry(recorder, getattr(module, attr))
        setattr(module, attr, wrapper)
        for caller in callers:
            setattr(importlib.import_module(caller), attr, wrapper)
    util.register_after_fork(recorder, Recorder.after_fork)
    return recorder


def load_span_files(paths: List[str]) -> List[Dict[str, Any]]:
    """The per-process payloads written by :meth:`Recorder.flush`."""
    out = []
    for path in paths:
        with open(path, "rb") as handle:
            out.append(pickle.load(handle))
    return out
