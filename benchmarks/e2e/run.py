"""End-to-end gate-call benchmark for the ring gateway.

Usage::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--json OUT] [--smoke]

A run of one workload is :data:`LIFECYCLES` gateway lifecycles in a
row.  Each lifecycle starts a real
:class:`~repro.serve.gateway.RingGateway` in its own interpreter
(``gateway_main.py``) with two process workers, sets up the workload,
drives :data:`WARMUP` seconds of warm-up, then measures
``S / LIFECYCLES`` seconds from this process over at most two TCP
connections, checks every answer, and stops the gateway.  Each
end-to-end metric is the median over lifecycles, except latency
percentiles, which are taken over the pooled samples.  Several
workloads run as one invocation of this script each, one after the
other, and their reports are merged.

Times and rates are reported at a reference host speed.  Probes that
run whenever a CPU would idle time a fixed chunk of work throughout the
run, and each lifecycle's durations are divided by its *host factor*
(see :data:`PROBE` and :class:`HostSpeed`); the JSON report keeps the
figures as measured beside them, and ``compare.py`` judges both.

Per-layer figures are measured from outside the program.  Every
lifecycle reads per-process CPU and memory from ``/proc`` and takes the
gateway's ``stats`` before and after the measured phase.  ``--trace 1``
runs, per workload, one untraced lifecycle and one lifecycle whose
gateway wraps the layer functions (see ``tracing.py``), and reports the
per-layer metrics and ledger instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: scratch space for store directories and span files, inside the
#: checkout
WORK_ROOT = ROOT / ".bench_build" / "e2e"

# the program under test, from this checkout's sources
sys.path.insert(0, str(SRC))

import ledger  # noqa: E402
import load  # noqa: E402
import tracing  # noqa: E402
from load import Checker, Conn, Phase, call, closed_loop, open_loop, tenant_name  # noqa: E402
from load import visit_schedule  # noqa: E402
from percentiles import median, percentile, supported  # noqa: E402
from repro.serve.sessions import TENANT_MEMORY_WORDS  # noqa: E402
from repro.serve.workers import GateCallEngine  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402

#: the gateway's worker processes: one per core of the 2-core hosts
#: the benchmark was sized on
WORKERS = 2

#: gateway lifecycles per workload, and warm-up seconds before each
#: measured phase.  Four lifecycles of 1 + 5 seconds fit a 20-second
#: run of one workload into about half a minute.
LIFECYCLES = 4
WARMUP = 1.0

#: open loop: visit rate, tenant population, calls per visit
VISIT_RATE = 40.0
TENANTS = 256
CALLS_PER_VISIT = 4

#: ring of the open-loop visits; the closed loops use one connection
#: on each of these rings
OPEN_RING = 4
CLOSED_RINGS = (4, 5)

#: seconds a follower may take to apply the whole journal after the
#: load stops
CATCH_UP_SECONDS = 5.0

#: seconds the gateway may take to print its port, and to drain
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0

#: seconds a lifecycle may run beyond its warm-up and measured phase
#: before it is abandoned as hung
LIFECYCLE_SLACK = 60.0

#: idle seconds before each launch.  The probes' reading over them is
#: the set-up's host factor: during the set-up itself the gateway's own
#: start disturbs them, and the measured phase comes seconds later.
#: Rescaled this way, twenty launches spread by 9% instead of 22%.
SETUP_QUIET = 0.5

PROGRAM = "call_loop"

#: One host-speed probe per CPU.  It runs under SCHED_IDLE, so it only
#: gets CPU time the measured processes leave unused, and it does two
#: jobs.  It keeps idle virtual CPUs from halting: waking a halted one
#: waits on the hypervisor, whose latency drifts with other tenants'
#: load.  This deliberately hides that wake-up cost from every figure,
#: although a client on an idle host pays it.  And it times a fixed
#: chunk of interpreter work in thread CPU time, dropping chunks during
#: which it was preempted, and prints the mean every 50 ms as
#: ``perf_counter mean_ns chunks``.  The chunk is JSON and dict work
#: like the gateway's, from the standard library only, so a change to
#: the program does not change the chunk.  It can still move the
#: reading: the probes share the CPUs, their caches and their
#: hyperthread siblings with the measured processes, so a heavier or
#: lighter load reads a few percent slower or faster.  It exits when
#: its parent does.
PROBE = """
import json, os, resource, time
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
clock, wall = time.thread_time_ns, time.perf_counter
usage, THREAD = resource.getrusage, resource.RUSAGE_THREAD
doc = {f"k{i}": [i, str(i), {"v": i * 1.5}] for i in range(20)}
parent = os.getppid()
while os.getppid() == parent:
    total = chunks = 0
    end = wall() + 0.05
    while wall() < end:
        switches = usage(THREAD).ru_nivcsw
        start = clock()
        for _ in range(8):
            back = json.loads(json.dumps(doc))
            firsts = {key: value[0] for key, value in back.items()}
        spent = clock() - start
        if usage(THREAD).ru_nivcsw == switches:
            total += spent
            chunks += 1
    if chunks:
        print(wall(), total // chunks, chunks, flush=True)
"""

#: the probe chunk's CPU time at the reference host speed, in ns: a
#: host factor of 1.0 (see :class:`HostSpeed`).  About the chunk's time
#: on an idle 2.1 GHz Xeon vCPU.
PROBE_REF_NS = 250_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: Dict[str, Any]
    gateway: Dict[str, Any] = field(default_factory=dict)
    sessions: bool = False
    durable: bool = False
    #: closed loops: client connections, on the rings of CLOSED_RINGS
    connections: int = 2

    def config(self, workdir: Path) -> Dict[str, Any]:
        """The GatewayConfig keyword arguments of one lifecycle."""
        config = {
            "port": 0,
            "workers": WORKERS,
            "backend": "process",
            "call_timeout": 30.0,
            **self.gateway,
        }
        if self.sessions:
            config["session_store_dir"] = str(workdir / "store")
        if self.durable:
            config["durability_dir"] = str(workdir / "durable")
        return config


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "warm_calls",
        "closed loop of 22-instruction gate calls by one user on two "
        "rings: the simulator is under 10% of the round trip, so "
        "gateway, hop and accounting costs show",
        {"count": 4},
    ),
    Workload(
        "crossing_loop",
        "closed loop on one connection of 20,482-instruction calls with "
        "8,192 ring-0 crossings each: compiled traces do most of the "
        "work, so simulator changes show",
        {"count": 4096, "target_ring": 0},
        # one connection: with two, both workers compute at once and the
        # gateway and client queue for the two CPUs, so the executor hop
        # took a third of the round trip and the simulator under half
        connections=1,
    ),
    Workload(
        "tenant_churn",
        "open loop of 40 seeded visits/s over 256 parked tenants and 4 "
        "live slots: each visit's first call parks, hydrates, re-"
        "attaches and recompiles",
        {"count": 4},
        {"max_sessions": 4},
        sessions=True,
    ),
    Workload(
        "durable_replicated",
        "warm_calls traffic with a journal, checkpoints every 64 calls "
        "and one replica: a change that taxes the write path shows",
        {"count": 4},
        {"checkpoint_interval": 64, "fsync_every": 8, "replicas": 1, "ship_every": 8},
        durable=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: listed in BENCHMARK.json (and printed on the result line);
    #: other metrics appear in the report only
    listed: bool = True


#: end-to-end metrics; percentiles are over pooled samples, the rest
#: are medians over lifecycles
END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("throughput_cps", "calls/s", "higher"),
    Metric("latency_p50_ms", "ms", "lower"),
    Metric("latency_p99_ms", "ms", "lower"),
    Metric("rss_mb", "MB", "lower"),
    # tenant_churn only: the first call of each visit, from its due time
    Metric("cold_call_p50_ms", "ms", "lower", listed=False),
    # always 0 on a correct run; failures also set the result line's
    # "failed" and "correct"
    Metric("fail_rate", "share", "lower", listed=False),
)

#: per-layer metrics (µs per OK call unless the unit says otherwise).
#: Times that are 0 on any workload that never runs their layer are
#: reported but left out of BENCHMARK.json.
PER_LAYER = (
    Metric("loadgen.cpu_us", "us", "lower"),
    Metric("loadgen.lag_p99_ms", "ms", "lower", listed=False),
    Metric("host.cores_busy", "cores", "higher"),
    Metric("gateway.cpu_us", "us", "lower"),
    Metric("gateway.front_us", "us", "lower"),
    Metric("gateway.hop_us", "us", "lower"),
    Metric("protocol.decode_us", "us", "lower"),
    Metric("protocol.encode_us", "us", "lower"),
    Metric("catalog.build_program_us", "us", "lower"),
    Metric("admission.admit_us", "us", "lower"),
    Metric("admission.rejected", "1/kcall", "lower"),
    Metric("workers.cpu_us", "us", "lower"),
    Metric("workers.execute_us", "us", "lower"),
    Metric("workers.run_job_us", "us", "lower"),
    Metric("workers.entry_for_us", "us", "lower"),
    Metric("workers.job_bytes", "bytes", "lower"),
    Metric("workers.result_bytes", "bytes", "lower"),
    Metric("metrics.worker_us", "us", "lower"),
    Metric("metrics.gateway_us", "us", "lower"),
    Metric("machine.run_us", "us", "lower"),
    Metric("cpu.run_us", "us", "lower"),
    Metric("cpu.sim_mips", "MIPS", "higher"),
    Metric("cpu.jit_share", "share", "higher"),
    Metric("cpu.block_share", "share", "lower"),
    Metric("cpu.compile_us", "us", "lower", listed=False),
    Metric("cpu.compiles_per_call", "1/call", "lower"),
    Metric("cpu.jit_hit_rate", "share", "higher"),
    Metric("cpu.ptlb_hit_rate", "share", "higher"),
    Metric("cpu.sdw_hit_rate", "share", "higher"),
    Metric("krnl.attach_us", "us", "lower", listed=False),
    Metric("krnl.attaches_per_call", "1/call", "lower"),
    Metric("sessions.hydrate_ms", "ms", "lower", listed=False),
    Metric("sessions.park_ms", "ms", "lower", listed=False),
    Metric("sessions.park_bytes", "bytes", "lower"),
    Metric("sessions.hydrations_per_visit", "1/visit", "lower"),
    Metric("sessions.prefetch_hit_rate", "share", "higher"),
    Metric("snapshot.delta_ms", "ms", "lower", listed=False),
    Metric("snapshot.apply_delta_ms", "ms", "lower", listed=False),
    Metric("snapshot.restore_ms", "ms", "lower", listed=False),
    Metric("snapshot.checkpoint_ms", "ms", "lower", listed=False),
    Metric("snapshot.checkpoints_per_kcall", "1/kcall", "lower"),
    Metric("journal.append_us", "us", "lower", listed=False),
    Metric("journal.sync_us", "us", "lower", listed=False),
    Metric("journal.syncs_per_kcall", "1/kcall", "lower"),
    Metric("replication.apply_us", "us", "lower", listed=False),
    Metric("replication.poll_us", "us", "lower", listed=False),
    Metric("replication.lag_records", "count", "lower"),
    Metric("trace.overhead", "ratio", "higher"),
    Metric("trace.unattributed_us", "us", "lower"),
)

# -- /proc -------------------------------------------------------------------

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    # the command name may hold spaces; fields resume after its ')'
    return text[text.rindex(")") + 2 :].split()


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of every thread of ``pid``."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def children(pid: int) -> List[int]:
    """Direct children of ``pid`` (the gateway's pool processes)."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if int(_stat_fields(int(entry))[1]) == pid:
                    out.append(int(entry))
            except (OSError, ValueError):
                continue
    return sorted(out)


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


class HostSpeed:
    """The probes of :data:`PROBE` and the samples they print."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, int, int]] = []
        self.probes = [
            subprocess.Popen(
                [sys.executable, "-c", PROBE],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in os.sched_getaffinity(0)
        ]
        self.readers = [
            threading.Thread(target=self._read, args=(probe,), daemon=True)
            for probe in self.probes
        ]
        for reader in self.readers:
            reader.start()

    def _read(self, probe: subprocess.Popen) -> None:
        for line in probe.stdout:
            when, mean_ns, chunks = line.split()
            self.samples.append((float(when), int(mean_ns), int(chunks)))

    def factor(self, start: float, end: float) -> float:
        """Mean probe chunk time over ``[start, end]`` against
        :data:`PROBE_REF_NS`: 1.25 means the host ran 25% slower than
        the reference."""
        inside = [
            (mean_ns, chunks)
            for when, mean_ns, chunks in list(self.samples)
            if start <= when <= end
        ]
        if not inside:
            raise RuntimeError(f"no host-speed probe reported in [{start:.3f}, {end:.3f}]")
        total = sum(mean_ns * chunks for mean_ns, chunks in inside)
        return total / sum(chunks for _, chunks in inside) / PROBE_REF_NS

    def stop(self) -> None:
        for probe in self.probes:
            probe.kill()
            probe.wait()
        for reader in self.readers:
            reader.join(timeout=5)
        for probe in self.probes:
            probe.stdout.close()


# -- one lifecycle -------------------------------------------------------------


@dataclass
class Mark:
    """Counters sampled at one phase boundary."""

    wall: float
    loadgen_cpu: float
    gateway_cpu: float
    workers_cpu: float
    stats: Dict[str, Any]


async def _mark(conn, gateway_pid: int, workers: List[int], cpu_first: bool) -> Mark:
    async def stats() -> Dict[str, Any]:
        reply = await conn.request({"verb": "stats"})
        if not reply.get("ok"):
            raise RuntimeError(f"stats refused: {reply}")
        return reply

    reply = None if cpu_first else await stats()
    mark = Mark(
        wall=time.perf_counter(),
        loadgen_cpu=time.process_time(),
        gateway_cpu=cpu_seconds(gateway_pid),
        workers_cpu=sum(cpu_seconds(pid) for pid in workers),
        stats={},
    )
    mark.stats = reply if reply is not None else await stats()
    return mark


def _merged_delta(before: Mark, after: Mark) -> Dict[str, int]:
    old, new = before.stats["merged"], after.stats["merged"]
    return {name: new[name] - old.get(name, 0) for name in new}


def _rate(hits: int, misses: int) -> float:
    """Hit rate, 0 when the tier saw no lookups."""
    return hits / (hits + misses) if hits + misses else 0.0


def _stats_layers(before: Mark, after: Mark, ok: int, visits: int) -> Dict[str, float]:
    """Per-layer figures from the gateway's own counters and /proc."""
    merged = _merged_delta(before, after)
    wall = after.wall - before.wall
    gateway_cpu = after.gateway_cpu - before.gateway_cpu
    workers_cpu = after.workers_cpu - before.workers_cpu
    loadgen_cpu = after.loadgen_cpu - before.loadgen_cpu
    counters = {
        name: after.stats["gateway"][name] - before.stats["gateway"][name]
        for name in ("rejected_rate_limited", "rejected_queue_full")
    }
    instructions = merged["instructions"]
    out = {
        "loadgen.cpu_us": 1e6 * loadgen_cpu / ok,
        "host.cores_busy": (gateway_cpu + workers_cpu + loadgen_cpu) / wall,
        "gateway.cpu_us": 1e6 * gateway_cpu / ok,
        "workers.cpu_us": 1e6 * workers_cpu / ok,
        "admission.rejected": 1e3 * sum(counters.values()) / ok,
        "cpu.jit_share": merged["jit_instructions"] / instructions,
        "cpu.block_share": merged["block_instructions"] / instructions,
        "cpu.jit_hit_rate": _rate(merged["jit_hits"], merged["jit_misses"]),
        "cpu.ptlb_hit_rate": _rate(merged["ptlb_hits"], merged["ptlb_misses"]),
        "cpu.sdw_hit_rate": _rate(merged["sdw_hits"], merged["sdw_misses"]),
        "sessions.park_bytes": 0.0,
        "sessions.hydrations_per_visit": 0.0,
        "sessions.prefetch_hit_rate": 0.0,
        "replication.lag_records": 0.0,
    }
    sessions_before = before.stats.get("sessions")
    sessions_after = after.stats.get("sessions")
    if sessions_after:
        grew = {
            name: sessions_after[name] - sessions_before[name]
            for name in ("parks", "park_stored_bytes", "hydrated",
                         "prefetch_hydrated", "prefetch_hits")
        }
        if grew["parks"]:
            out["sessions.park_bytes"] = grew["park_stored_bytes"] / grew["parks"]
        if visits:
            out["sessions.hydrations_per_visit"] = grew["hydrated"] / visits
        if grew["prefetch_hydrated"]:
            out["sessions.prefetch_hit_rate"] = (
                grew["prefetch_hits"] / grew["prefetch_hydrated"]
            )
    followers = after.stats["replication"].get("followers", [])
    if followers:
        out["replication.lag_records"] = float(
            max(entry["lag_records"] for entry in followers)
        )
    return out


async def _wait_for_followers(conn, deadline: float) -> Optional[str]:
    """Poll until every follower applied its journal; a problem or None."""
    while True:
        reply = await conn.request({"verb": "stats"})
        followers = reply["replication"].get("followers", [])
        behind = [
            entry for entry in followers
            if entry["applied_seq"] != entry["journal_seq"] or entry["error"]
        ]
        if followers and not behind:
            return None
        if time.perf_counter() >= deadline:
            return f"followers not caught up after the load stopped: {behind or followers}"
        await asyncio.sleep(0.05)


def gateway_env() -> Dict[str, str]:
    """The gateway's environment: this checkout's sources, and a
    bytecode cache inside the checkout.  Set-up then times a start from
    compiled modules, as an installed program starts, instead of
    compiling every module on every launch (which took 0.16 to 0.23 s,
    against a steady 0.125 s from the cache)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    env["PYTHONPYCACHEPREFIX"] = str(WORK_ROOT / "pycache")
    return env


class Gateway:
    """One gateway subprocess and the pids it runs on."""

    def __init__(self, workdir: Path, config: Dict[str, Any], trace_dir: Optional[Path]):
        self.workdir = workdir
        self.config = config
        self.trace_dir = trace_dir
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.workers: List[int] = []

    async def start(self) -> None:
        command = [sys.executable, str(HERE / "gateway_main.py"), json.dumps(self.config)]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        with open(self.workdir / "gateway.log", "wb") as log:
            self.proc = await asyncio.create_subprocess_exec(
                *command,
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
                cwd=str(ROOT),
                env=gateway_env(),
            )
        line = await asyncio.wait_for(self.proc.stdout.readline(), START_TIMEOUT)
        if not line.startswith(b"PORT "):
            raise RuntimeError(f"gateway did not start: {self.log_tail()}")
        self.port = int(line.split()[1])

    def find_workers(self) -> None:
        self.workers = children(self.proc.pid)
        if len(self.workers) < WORKERS:
            raise RuntimeError(f"expected {WORKERS} pool processes, found {self.workers}")

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in [self.proc.pid] + self.workers)

    def log_tail(self) -> str:
        text = (self.workdir / "gateway.log").read_text(errors="replace")
        return text[-2000:]

    async def stop(self) -> None:
        """Drain the gateway (stdin EOF) and wait for it to exit."""
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.stdin.close()
        try:
            await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT)
        except asyncio.TimeoutError:
            for pid in [self.proc.pid] + self.workers:
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass
            await self.proc.wait()
            raise RuntimeError("gateway did not drain; killed it")
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"gateway exited with {self.proc.returncode}: {self.log_tail()}"
            )


#: rates of work, which a faster host raises; the open loop's
#: throughput is its schedule's rate and is never rescaled
SCALED_RATES = ("throughput_cps", "cpu.sim_mips")


def at_reference(name: str, value: float, factor: float) -> float:
    """``value`` of metric ``name`` rescaled to the reference host speed:
    durations are divided by the host factor, rates of work multiplied."""
    if name.endswith(("_s", "_ms", "_us")):
        return value / factor
    if name in SCALED_RATES:
        return value * factor
    return value


@dataclass
class Lifecycle:
    """What one lifecycle measured, as measured (see :meth:`metrics`
    for the figures at the reference host speed)."""

    workload: str
    traced: bool
    open_loop: bool
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    ok: int = 0
    measured_s: float = 0.0
    throughput_cps: float = 0.0
    rss_mb: float = 0.0
    rtt_ms: List[float] = field(default_factory=list)
    first_ms: List[float] = field(default_factory=list)
    #: host factors (see :class:`HostSpeed`) over the idle moment
    #: before the set-up (see :data:`SETUP_QUIET`) and over the measured
    #: phase
    setup_factor: float = 1.0
    factor: float = 1.0
    layers: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def latencies(self) -> List[float]:
        """Client latencies at the reference host speed, in ms."""
        return [value / self.factor for value in self.rtt_ms]

    def first_latencies(self) -> List[float]:
        return [value / self.factor for value in self.first_ms]

    def metrics(self, raw: bool = False) -> Dict[str, float]:
        """This lifecycle's end-to-end figures at the reference host
        speed, or as measured with ``raw``."""
        factor = 1.0 if raw else self.factor
        out = {
            "setup_s": self.setup_s / (1.0 if raw else self.setup_factor),
            "throughput_cps": self.throughput_cps * (1.0 if self.open_loop else factor),
            "rss_mb": self.rss_mb,
            "fail_rate": self.failed / self.attempted if self.attempted else 1.0,
        }
        if self.rtt_ms:
            out["latency_p50_ms"] = percentile(self.rtt_ms, 0.50) / factor
            out["latency_p99_ms"] = percentile(self.rtt_ms, 0.99) / factor
        if self.first_ms:
            out["cold_call_p50_ms"] = percentile(self.first_ms, 0.50) / factor
        return out

    def scaled_layers(self) -> Dict[str, float]:
        return {
            name: at_reference(name, value, self.factor)
            for name, value in self.layers.items()
        }

    def summary(self) -> Dict[str, Any]:
        """The JSON form: everything but the raw samples."""
        return {
            "traced": self.traced,
            **self.metrics(),
            "raw": self.metrics(raw=True),
            "setup_factor": self.setup_factor,
            "factor": self.factor,
            "attempted": self.attempted,
            "failed": self.failed,
            "ok": self.ok,
            "measured_s": self.measured_s,
            "samples": len(self.rtt_ms),
            "layers": self.scaled_layers(),
            "raw_layers": self.layers,
            "problems": self.problems,
        }


class LifecycleRun:
    """One gateway lifecycle: start, set up, warm up, measure, stop."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        index: int,
        vectors: Dict[str, Tuple],
        speed: HostSpeed,
        traced: bool,
    ):
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.workload = workload
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
        self.trace_dir = self.workdir / "spans" if traced else None
        if self.trace_dir is not None:
            self.trace_dir.mkdir()
        self.gateway = Gateway(self.workdir, workload.config(self.workdir), self.trace_dir)
        self.result = Lifecycle(workload.name, traced, open_loop=workload.sessions)
        self.checker = Checker(vectors, sessions=workload.sessions)
        self.speed = speed
        self.rng = random.Random(seed * 1000 + index)
        self.prep, self.warm, self.measured = Phase(), Phase(), Phase()
        self.conns: List[Any] = []
        self.before: Optional[Mark] = None
        self.after: Optional[Mark] = None

    async def run(self, warmup: float, measure: float) -> Lifecycle:
        try:
            await asyncio.wait_for(
                self._drive(warmup, measure), warmup + measure + LIFECYCLE_SLACK
            )
        except Exception as exc:  # the lifecycle fails; the run reports it
            self.checker.problem(f"lifecycle error: {type(exc).__name__}: {exc}")
        finally:
            for conn in list(self.conns):
                await self._close(conn)
            try:
                await self.gateway.stop()
            except Exception as exc:
                self.checker.problem(f"gateway stop: {exc}")
        self._finish()
        shutil.rmtree(self.workdir, ignore_errors=True)
        return self.result

    async def _open(self):
        conn = await Conn.open(self.gateway.port)
        self.conns.append(conn)
        return conn

    async def _close(self, conn) -> None:
        self.conns.remove(conn)
        await conn.close()

    async def _mark(self, conn, cpu_first: bool) -> Mark:
        return await _mark(conn, self.gateway.proc.pid, self.gateway.workers, cpu_first)

    async def _drive(self, warmup: float, measure: float) -> None:
        quiet = time.perf_counter()
        await asyncio.sleep(SETUP_QUIET)
        launched = time.perf_counter()
        await self.gateway.start()
        control = await self._open()
        await control.request({"verb": "stats"})
        self.result.setup_s = time.perf_counter() - launched
        self.result.setup_factor = self.speed.factor(quiet, launched)
        self.gateway.find_workers()
        if self.workload.sessions:
            await self._close(control)
            control = await self._drive_open(warmup, measure)
        else:
            await self._drive_closed(control, warmup, measure)
        self.result.rss_mb = self.gateway.peak_rss_mb()
        await self._check_final(control)

    async def _drive_closed(self, control, warmup: float, measure: float) -> None:
        pairs = [(control, CLOSED_RINGS[0])]
        for ring in CLOSED_RINGS[1 : self.workload.connections]:
            pairs.append((await self._open(), ring))
        for conn, ring in pairs:
            await conn.hello("bench", ring)
        args = self.workload.args
        await closed_loop(pairs, PROGRAM, args, warmup, self.warm, self.checker)
        self.before = await self._mark(control, cpu_first=False)
        await closed_loop(pairs, PROGRAM, args, measure, self.measured, self.checker)
        self.after = await self._mark(control, cpu_first=True)

    async def _drive_open(self, warmup: float, measure: float):
        """Set up the tenants, then replay the visit schedule; returns
        the control connection opened after the measured phase."""
        port = self.gateway.port
        await _create_tenants(port, self.workload, self.prep, self.checker)
        for phase, seconds in ((self.warm, warmup), (self.measured, measure)):
            if phase is self.measured:
                control = await self._open()
                self.before = await self._mark(control, cpu_first=False)
                await self._close(control)
            schedule = visit_schedule(self.rng, VISIT_RATE, seconds, TENANTS)
            await open_loop(port, schedule, OPEN_RING, CALLS_PER_VISIT, PROGRAM,
                            self.workload.args, phase, self.checker)
        control = await self._open()
        self.after = await self._mark(control, cpu_first=True)
        created = self.after.stats["sessions"]["created"]
        grew = created - self.before.stats["sessions"]["created"]
        if grew or created != TENANTS:
            self.checker.problem(
                f"{grew} tenant(s) created while measuring; {created} in all"
            )
        return control

    async def _check_final(self, control) -> None:
        final = self.after.stats
        if self.workload.durable:
            problem = await _wait_for_followers(
                control, time.perf_counter() + CATCH_UP_SECONDS
            )
            if problem:
                self.checker.problem(problem)
        if not final.get("consistent"):
            self.checker.problem("gateway stats are not consistent")
        if final["architectural"] != self.checker.sums:
            self.checker.problem(
                f"gateway counters {final['architectural']} != client sums "
                f"{self.checker.sums}"
            )
        if self.measured.ok == 0:
            self.checker.problem("no call completed in the measured phase")

    def _finish(self) -> None:
        """Copy the phases into the result, then the layer figures."""
        result, measured = self.result, self.measured
        result.attempted = self.prep.attempted + self.warm.attempted + measured.attempted
        result.ok = measured.ok
        result.measured_s = measured.seconds
        if measured.seconds > 0:
            result.throughput_cps = measured.ok / measured.seconds
            try:
                result.factor = self.speed.factor(measured.started, measured.ended)
            except RuntimeError as exc:
                self.checker.problem(str(exc))
        result.rtt_ms = measured.rtt_ms
        result.first_ms = measured.first_ms
        if measured.ok and self.after is not None:
            result.layers = _stats_layers(self.before, self.after, measured.ok, measured.visits)
            result.layers["gateway.front_us"] = (
                1e3 * (measured.wire_ms_total - measured.server_ms_total) / measured.ok
            )
            if measured.lag_ms:
                result.layers["loadgen.lag_p99_ms"] = percentile(measured.lag_ms, 0.99)
            if self.trace_dir is not None and not self.checker.problems:
                self._ledger()
        # each failed call and each failed check, lifecycle-level ones
        # included, counts once against fail_rate
        result.failed = self.checker.failed_checks
        result.problems = list(self.checker.problems)
        if self.checker.failed_checks > len(self.checker.problems):
            result.problems.append(f"{self.checker.failed_checks} failed checks in all")

    def _ledger(self) -> None:
        measured = self.measured
        payloads = tracing.load_span_files(
            sorted(str(path) for path in self.trace_dir.glob("spans-*.pkl"))
        )
        roles = sorted(payload["role"] for payload in payloads)
        if roles.count("gateway") != 1 or roles.count("worker") < WORKERS:
            self.checker.problem(f"span files from {roles}, expected a gateway and its workers")
            return
        samples: Dict[str, List[int]] = {}
        for payload in payloads:
            for name, values in payload["samples"].items():
                samples.setdefault(name, []).extend(values)
        accs = ledger.aggregate(
            payloads, int(measured.started * 1e9), int(measured.ended * 1e9)
        )
        self.result.layers.update(
            ledger.span_metrics(
                accs,
                measured.ok,
                1e3 * measured.wire_ms_total / measured.ok,
                1e3 * measured.server_ms_total / measured.ok,
                _merged_delta(self.before, self.after)["instructions"],
                samples,
            )
        )


async def _create_tenants(port: int, workload: Workload, phase, checker) -> None:
    """Create every tenant with one call each, then park them all.

    The first tenant is created and parked alone.  Its park elects the
    session store's base image; two shards that park their first tenants
    at the same moment race on that election:
    ``repro.serve.sessions.SessionStore.base_for_shape`` can read the
    base pointer file before its writer has filled it, which fails the
    loser's park and loses that tenant.
    """
    conns = [await Conn.open(port) for _ in range(2)]
    try:
        await conns[0].hello(tenant_name(0), OPEN_RING)
        await call(conns[0], OPEN_RING, PROGRAM, workload.args, phase, checker)
        reply = await conns[0].request({"verb": "park", "user": tenant_name(0)})
        if not reply.get("parked"):
            checker.problem(f"first tenant not parked: {reply}")
        pending = iter(range(1, TENANTS))

        async def drive(conn) -> None:
            for tenant in pending:
                await conn.hello(tenant_name(tenant), OPEN_RING)
                await call(conn, OPEN_RING, PROGRAM, workload.args, phase, checker)

        await asyncio.gather(*(drive(conn) for conn in conns))
        for tenant in range(TENANTS):
            reply = await conns[0].request({"verb": "park", "user": tenant_name(tenant)})
            if not reply.get("ok"):
                checker.problem(f"park refused: {reply}")
    finally:
        for conn in conns:
            await conn.close()


# -- a run ---------------------------------------------------------------------


def reference_vectors(workload: Workload) -> Dict[str, Tuple]:
    """Cold and warm answers of a fresh engine built like the workers."""
    if workload.sessions:
        engine = GateCallEngine(
            Machine(
                services=False,
                jit_tier_enabled=True,
                fast_gate=True,
                memory_words=TENANT_MEMORY_WORDS,
            )
        )
    else:
        engine = GateCallEngine()
    return load.reference_vectors(engine, PROGRAM, workload.args)


def summarize(workload: Workload, lifecycles: List[Lifecycle]) -> Dict[str, Any]:
    """A workload's metrics over its lifecycles."""
    untraced = [lc for lc in lifecycles if not lc.traced]
    traced = [lc for lc in lifecycles if lc.traced]
    attempted = sum(lc.attempted for lc in lifecycles)
    failed = sum(lc.failed for lc in lifecycles)

    def combine(raw: bool) -> Dict[str, float]:
        per = [lc.metrics(raw) for lc in untraced]
        pooled = [x for lc in untraced for x in (lc.rtt_ms if raw else lc.latencies())]
        first = [x for lc in untraced for x in (lc.first_ms if raw else lc.first_latencies())]
        out = {
            name: median([values[name] for values in per])
            for name in ("setup_s", "throughput_cps", "rss_mb")
        }
        out["fail_rate"] = failed / attempted if attempted else 1.0
        if pooled:
            out["latency_p50_ms"] = percentile(pooled, 0.50)
            out["latency_p99_ms"] = percentile(pooled, 0.99)
        if first:
            out["cold_call_p50_ms"] = percentile(first, 0.50)
        return out

    metrics = combine(raw=False)
    samples = sum(len(lc.rtt_ms) for lc in untraced)
    layers: Dict[str, float] = {}
    keys = {key for lc in untraced for key in lc.layers}
    for key in sorted(keys):
        values = [lc.scaled_layers()[key] for lc in untraced if key in lc.layers]
        layers[key] = median(values)
    for lc in traced:
        # span-derived figures come from the traced lifecycle; CPU,
        # memory and counters stay those of the untraced ones
        scaled = lc.scaled_layers()
        span_keys = set(scaled) - keys | {"gateway.front_us"}
        layers.update({key: scaled[key] for key in span_keys if key in scaled})
        if metrics["throughput_cps"]:
            layers["trace.overhead"] = (
                lc.metrics()["throughput_cps"] / metrics["throughput_cps"]
            )
    problems = [f"{lc.workload}: {p}" for lc in lifecycles for p in lc.problems]
    return {
        "why": workload.why,
        "metrics": metrics,
        "raw": combine(raw=True),
        "samples": {
            "latency": samples,
            "cold_call": sum(len(lc.first_ms) for lc in untraced),
        },
        "p99_supported": supported(samples, 0.99),
        "layers": layers,
        "lifecycles": [lc.summary() for lc in lifecycles],
        "attempted": attempted,
        "failed": failed,
        "correct": not problems and failed == 0,
        "problems": problems,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(name: str, summary: Dict[str, Any], trace: bool) -> None:
    lifecycles = summary["lifecycles"]
    factors = " ".join(f"{lc['factor']:.3f}" for lc in lifecycles)
    print(f"== {name}: {len(lifecycles)} lifecycle(s); {summary['why']}")
    print(f"  host factors: {factors}")
    print(f"  {'metric':<18} {'at ref. speed':>13} {'measured':>12} unit")
    for metric in END_TO_END:
        value = summary["metrics"].get(metric.name)
        if value is None:
            continue
        note = ""
        if metric.name.startswith("latency_"):
            note = f"  n={summary['samples']['latency']}"
            if metric.name == "latency_p99_ms" and not summary["p99_supported"]:
                note += ", fewer than 10 samples beyond p99"
        elif metric.name == "cold_call_p50_ms":
            note = f"  n={summary['samples']['cold_call']}"
        runs = [lc.get(metric.name) for lc in lifecycles if not lc["traced"]]
        runs_text = " ".join(_fmt(v) for v in runs if v is not None)
        print(f"  {metric.name:<18} {_fmt(value):>13} "
              f"{_fmt(summary['raw'][metric.name]):>12} {metric.unit}{note}"
              f"  lifecycles: {runs_text}")
    layers = summary["layers"]
    if trace:
        print("  ledger (us per OK call):")
        for indent, key in ledger.LEDGER_ROWS:
            if key in layers:
                print(f"    {'  ' * indent}{key:<28} {layers[key]:>10.2f}")
    print("  per layer:")
    for metric in PER_LAYER:
        if metric.name in layers:
            print(f"    {metric.name:<32} {_fmt(layers[metric.name]):>12} {metric.unit}")
    for problem in summary["problems"]:
        print(f"  PROBLEM {problem}")


def result_line(summaries: Dict[str, Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    """The one-line JSON result: end-to-end metrics, or with ``trace``
    the per-layer ones; keys carry a workload prefix when several
    workloads ran."""
    wanted = [m for m in (PER_LAYER if trace else END_TO_END) if m.listed]
    metrics = {}
    for name, summary in summaries.items():
        values = summary["layers"] if trace else summary["metrics"]
        prefix = f"{name}." if len(summaries) > 1 else ""
        for metric in wanted:
            if metric.name in values:
                metrics[prefix + metric.name] = {
                    "value": values[metric.name],
                    "unit": metric.unit,
                }
    return {
        "correct": all(summary["correct"] for summary in summaries.values()),
        "attempted": sum(summary["attempted"] for summary in summaries.values()),
        "failed": sum(summary["failed"] for summary in summaries.values()),
        "metrics": metrics,
    }


async def run(args: argparse.Namespace, workload: Workload) -> Dict[str, Any]:
    """One workload's lifecycles, in a row, and their report."""
    if args.trace:
        plan = [(0, traced) for traced in (False, True)]
        measure = args.seconds / 2
    else:
        plan = [(index, False) for index in range(args.lifecycles)]
        measure = args.seconds / args.lifecycles
    done: List[Lifecycle] = []
    # the probes start first, so they are past their own start-up by the
    # first lifecycle
    speed = HostSpeed()
    try:
        vectors = reference_vectors(workload)
        # fill the gateway's bytecode cache before the first set-up is timed
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
            env=gateway_env(), check=True, stdout=subprocess.DEVNULL,
        )
        for index, traced in plan:
            lifecycle = await LifecycleRun(
                workload, args.seed, index, vectors, speed, traced
            ).run(args.warmup, measure)
            done.append(lifecycle)
            print(
                f"# {workload.name} lifecycle {index}{' traced' if traced else ''}: "
                f"{lifecycle.throughput_cps:.1f} calls/s, "
                f"setup {lifecycle.setup_s:.3f} s, "
                f"{len(lifecycle.problems)} problem(s)",
                flush=True,
            )
    finally:
        speed.stop()
    return {
        "seed": args.seed,
        "settings": {
            "seconds": args.seconds,
            "lifecycles": 1 if args.trace else args.lifecycles,
            "warmup": args.warmup,
            "trace": args.trace,
            "workers": WORKERS,
        },
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": {workload.name: summarize(workload, done)},
    }


def run_each(args: argparse.Namespace) -> Dict[str, Any]:
    """Several workloads: one invocation of this script per workload,
    as ``BENCHMARK.json`` runs it, with the reports merged."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    report: Dict[str, Any] = {}
    for name in args.workload:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as scratch:
            out = Path(scratch) / "report.json"
            command = [
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--json", str(out),
            ]
            subprocess.run(command + (["--smoke"] if args.smoke else []))
            # a run that could not finish wrote no report: this fails too
            part = json.loads(out.read_text())
        if report:
            report["workloads"].update(part["workloads"])
        else:
            report = part
    return report


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="End-to-end gate-call benchmark.")
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the open-loop visit schedule")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per workload, split over lifecycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--json", help="write the full report here")
    parser.add_argument("--smoke", action="store_true",
                        help="1 lifecycle of 1 s per workload, every check")
    args = parser.parse_args(argv)
    args.workload = args.workload or [workload.name for workload in WORKLOADS]
    args.lifecycles, args.warmup = LIFECYCLES, WARMUP
    if args.smoke:
        args.lifecycles, args.seconds, args.warmup = 1, 1.0, 0.5
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if len(args.workload) > 1:
        report = run_each(args)
    else:
        report = asyncio.run(run(args, BY_NAME[args.workload[0]]))
        for name, summary in report["workloads"].items():
            print_workload(name, summary, bool(args.trace))
    line = result_line(report["workloads"], bool(args.trace))
    report.update({key: line[key] for key in ("correct", "attempted", "failed")})
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
