"""Pointer-register rings across ring crossings, trace tier vs interpreter.

The trace compiler folds Figure 9's upward PR sweep against what the
recorded path itself loaded: constant stores for PRs loaded earlier in
the pass, inline compares for PRs loaded only later, and one entry
flag (``low``) that sends every upward RETURN through the full sweep
whenever a PR the path never loads sits below the trace's highest
return floor.  This generated differential test drives all three cases:
looping chains of gate calls whose caller and callees load random PRs
with EAP, before or after the crossing, at their own ring — including
a ring-0 ``eap3`` padded past ``MAX_TRACE_LEN`` so that a later trace
returns upward without loading PR3.  Every run is compared with the
per-step interpreter, warm (repeat runs with the fast-gate entry path,
so compiled traces carry the later runs).
"""

import sys

from hypothesis import example, given, settings, strategies as st

from repro.core.acl import AclEntry, RingBracketSpec
from repro.cpu.jit import MAX_TRACE_LEN
from repro.cpu.registers import RegisterFile
from repro.sim.machine import Machine

USER_ACL = [AclEntry("*", RingBracketSpec.procedure(4))]

#: repeat runs per machine: the first compiles, the later ones are warm
RUNS = 4

#: callee padding that pushes the callee's RETURN into a later trace
#: than its EAPs (a recording stops at MAX_TRACE_LEN instructions)
LONG_PAD = 2 * MAX_TRACE_LEN

#: one EAP: (target PR, source) where source None is a label in the
#: executing segment (effective ring = the current ring) and
#: ``(base, offset)`` is PR-relative, from the return pointer ("ret")
#: or from PR0, the stack pointer CALL loads (ring = max of the two)
eaps = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.one_of(
            st.none(),
            st.tuples(st.sampled_from(["ret", 0]), st.integers(0, 3)),
        ),
    ),
    max_size=3,
)

callees = st.lists(
    st.fixed_dictionaries(
        {
            "ring": st.integers(0, 4),
            "eaps": eaps,
            "pad": st.sampled_from([0, 0, 3, LONG_PAD]),
        }
    ),
    min_size=1,
    max_size=3,
)

programs = st.fixed_dictionaries(
    {
        "count": st.integers(8, 40),
        "ret_pr": st.sampled_from([1, 2, 3, 4, 5, 7]),
        "pre": eaps,
        "calls": st.lists(
            st.tuples(st.integers(0, 2), st.booleans(), eaps),
            min_size=1,
            max_size=3,
        ),
        "callees": callees,
    }
)

#: the unloaded-PR-below-the-floor shape: a ring-0 callee loads PR3 at
#: ring 0, then pads its RETURN past the trace that covers the load; the
#: caller's barrier ends the RETURN's trace before the next ``eap3``
LOW_SHAPE = {
    "count": 40,
    "ret_pr": 4,
    "pre": [],
    "calls": [(0, True, [])],
    "callees": [{"ring": 0, "eaps": [(3, None)], "pad": LONG_PAD}],
}


#: the loaded-later shape: without the barrier, traces whose heads lie
#: in the padding return upward first and reach the ``eap3`` only later
#: in the same pass, so the RETURN compares PR3 inline
LATER_SHAPE = {**LOW_SHAPE, "calls": [(0, False, [])]}


def _eap_lines(loads, ret_pr, avoid_ret):
    lines = []
    for n, source in loads:
        if avoid_ret and n == ret_pr:
            continue  # the callee must keep its return pointer
        if source is None:
            operand = "datum"
        else:
            base, offset = source
            operand = f"pr{ret_pr if base == 'ret' else base}|{offset}"
        lines.append(f"        eap{n}    {operand}")
    return lines


def build(machine, program):
    """Store and initiate the generated program; returns the process."""
    ret = program["ret_pr"]
    callees = program["callees"]
    user = machine.add_user("u")
    for index, callee in enumerate(callees):
        ring = callee["ring"]
        spec = (
            RingBracketSpec.procedure(4)
            if ring == 4
            else RingBracketSpec.procedure(ring, callable_from=5)
        )
        body = _eap_lines(callee["eaps"], ret, avoid_ret=True)
        body += ["        nop"] * callee["pad"]
        source = "\n".join(
            [
                f"        .seg    callee{index}",
                "        .gates  1",
                "entry:: nop",
                *body,
                f"        return  pr{ret}|0",
                "datum:  nop",
            ]
        )
        machine.store_program(
            f">t>callee{index}", source + "\n", acl=[AclEntry("*", spec)]
        )
    lines = [
        "        .seg    caller",
        f"main::  lda     ={program['count']}",
        "loop:   nop",
        *_eap_lines(program["pre"], ret, avoid_ret=False),
    ]
    for site, (target, barrier, post) in enumerate(program["calls"]):
        target %= len(callees)
        # A PR-relative transfer to the next word ends any recording
        # (traces refuse it), so the path back from the callee stops
        # before the caller's next EAPs.
        landing = f"tra     pr{ret}|1" if barrier else "nop"
        lines += [
            f"        eap{ret}    back{site}",
            f"        call    l_c{target},*",
            f"back{site}:  {landing}",
            *_eap_lines(post, ret, avoid_ret=False),
        ]
    lines += ["        sba     =1", "        tnz     loop", "        halt"]
    lines.append("datum:  nop")
    lines += [
        f"l_c{index}: .its  callee{index}$entry"
        for index in range(len(callees))
    ]
    machine.store_program(">t>caller", "\n".join(lines) + "\n", acl=USER_ACL)
    process = machine.login(user)
    machine.initiate(process, ">t>caller")
    for index in range(len(callees)):
        machine.initiate(process, f">t>callee{index}")
    return process


def observe(machine, result):
    """Every figure a folded sweep could get wrong."""
    regs = machine.processor.registers
    assert result.halted
    assert regs.check_ring_invariant()
    return (
        result.cycles,
        result.instructions,
        result.ring_crossings,
        tuple((pr.segno, pr.wordno, pr.ring) for pr in regs.prs),
        (regs.ipr.ring, regs.ipr.segno, regs.ipr.wordno),
        regs.a,
        regs.q,
    )


def warm_runs(program, **machine_kwargs):
    machine = Machine(services=False, fast_gate=True, **machine_kwargs)
    process = build(machine, program)
    return [
        observe(machine, machine.run(process, "caller$main", ring=4))
        for _ in range(RUNS)
    ]


def test_pr_rings_across_crossings_match_the_interpreter(monkeypatch):
    swept_from_traces = []
    original = RegisterFile.raise_pr_rings

    def observing(regs, floor):
        # A compiled trace calls the full sweep only when its ``low``
        # entry flag is set.
        if sys._getframe(1).f_code.co_filename.startswith("<jit"):
            swept_from_traces.append(floor)
        original(regs, floor)

    monkeypatch.setattr(RegisterFile, "raise_pr_rings", observing)

    @settings(max_examples=40, deadline=None)
    @given(programs)
    @example(LOW_SHAPE)
    @example(LATER_SHAPE)
    def check(program):
        jit = warm_runs(program, jit_tier_enabled=True)
        interpreted = warm_runs(program, fast_path_enabled=False)
        assert jit == interpreted

    check()
    assert swept_from_traces, "no trace ran with its low flag set"
