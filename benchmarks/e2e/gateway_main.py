"""Run one ring gateway in its own interpreter for the benchmark.

Usage::

    PYTHONPATH=src python benchmarks/e2e/gateway_main.py CONFIG_JSON \
        [--trace-dir DIR]

``CONFIG_JSON`` holds :class:`repro.serve.gateway.GatewayConfig` keyword
arguments.  The process prints ``PORT <n>`` once it serves, and drains
and exits when its standard input reaches end of file, so a benchmark
that dies takes its gateway with it.  With ``--trace-dir`` the layer
functions are wrapped before the worker pool forks (see
:mod:`tracing`) and every process writes its spans into ``DIR``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys


async def serve(config: dict) -> None:
    from repro.serve.gateway import GatewayConfig, RingGateway

    gateway = RingGateway(GatewayConfig(**config))
    await gateway.start()
    print(f"PORT {gateway.port}", flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.readline)
    await gateway.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="GatewayConfig keyword arguments as JSON")
    parser.add_argument("--trace-dir", help="record spans into this directory")
    args = parser.parse_args(argv)
    recorder = None
    if args.trace_dir:
        import tracing

        recorder = tracing.install(args.trace_dir)
    asyncio.run(serve(json.loads(args.config)))
    if recorder is not None:
        recorder.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
