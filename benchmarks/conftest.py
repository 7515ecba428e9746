"""Shared benchmark fixtures and workload builders.

Benchmarks serve two purposes at once: pytest-benchmark measures the
host-side throughput of the simulator, and each benchmark *prints and
records* the simulated-cycle figures that reproduce the paper's
artifact (stored in ``benchmark.extra_info`` so they land in the JSON
output too).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.core.acl import AclEntry, RingBracketSpec
from repro.sim.machine import Machine

USER_ACL = [AclEntry("*", RingBracketSpec.procedure(4))]


def build_call_loop_machine(
    hardware_rings: bool = True,
    target_ring: int = 0,
    count: int = 16,
    stack_rule: str = "dbr",
    sdw_cache_enabled: bool = True,
    paged: bool = False,
    fast_path_enabled: bool = True,
    jit_tier_enabled: bool | None = None,
    fast_gate: bool = False,
):
    """A machine whose ``caller$main`` performs ``count`` call/return
    pairs against a gated callee executing at ``target_ring``."""
    machine = Machine(
        hardware_rings=hardware_rings,
        services=False,
        stack_rule=stack_rule,
        sdw_cache_enabled=sdw_cache_enabled,
        paged=paged,
        fast_path_enabled=fast_path_enabled,
        jit_tier_enabled=jit_tier_enabled,
        fast_gate=fast_gate,
    )
    user = machine.add_user("bench")
    spec = (
        RingBracketSpec.procedure(4)
        if target_ring == 4
        else RingBracketSpec.procedure(target_ring, callable_from=5)
    )
    machine.store_program(
        ">bench>callee",
        """
        .seg    callee
        .gates  1
entry:: return  pr4|0
""",
        acl=[AclEntry("*", spec)],
    )
    machine.store_program(
        ">bench>caller",
        f"""
        .seg    caller
main::  lda     ={count}
loop:   eap4    back
        call    l_callee,*
back:   sba     =1
        tnz     loop
        halt
l_callee: .its  callee$entry
""",
        acl=USER_ACL,
    )
    process = machine.login(user)
    machine.initiate(process, ">bench>caller")
    machine.initiate(process, ">bench>callee")
    return machine, process


@pytest.fixture
def call_loop():
    return build_call_loop_machine
