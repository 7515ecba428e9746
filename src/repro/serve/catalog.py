"""Named gate-call programs a gateway caller may invoke.

Callers never ship code across the wire — they name a program from this
catalog and pass small integer arguments.  Each entry builds assembly
source parameterised by those arguments; the worker assembles and
installs a variant once per distinct argument set (segment names encode
the variant, so installs are idempotent per machine) and reuses it for
every later call.

Programs:

``call_loop``
    the Figure 8 cross-ring call loop: ``count`` call/return pairs from
    the session's ring into a ``target_ring`` gate.  The service the
    paper is about, in its purest form.
``compute``
    a pure in-ring arithmetic loop of ``n`` iterations — traffic that
    exercises the interpreter without any ring crossings, for mixing
    with ``call_loop`` load.
``echo``
    load ``value`` into the A register and halt — the cheapest possible
    request, useful for measuring gateway overhead.

The paper's "use of rings" stories (pp. 34–37), ported from
``examples/`` so they are servable multi-tenant workloads (the examples
import these builders back, so the story text lives in exactly one
place):

``mutual_suspicion``
    two vendors' subsystems in rings 2 and 3; ``attacker_ring`` picks
    the direction — ring 3 spying on ring 2 faults, ring 2 spying on
    ring 3 succeeds (protection is one-directional by construction).
``proprietary``
    Alice's execute-only algorithm: calling the gate computes
    ``4*value + 7``; ``peek=1`` instead tries to read the code and
    faults (execute permission does not imply read).
``grading_sandbox``
    the grader calls a ring-6 student: ``variant`` 0 is honest
    (grade checked in-machine), 1 calls a guarded inner-ring gate from
    the sandbox, 2 scribbles on the grader's stack — both cheats fault.
``debug``
    the wild-pointer story: one binary whose ring-4 data write is
    caught when the *session ring* is 5 and permitted when it is ≤ 4 —
    the protection environment, not the program, decides.
``layered``
    the two-layer supervisor: ring-1 gates exported to users, ring-0
    gates reachable only from ring 1; ``direct=1`` skips the layer and
    faults on the ring-0 gate extension.

``attack``
    one ring-violation program from the adversary corpus
    (:mod:`repro.adversary.corpus`): ``family`` + ``seed`` + ``ring``
    name a deterministic attack whose only legal outcome is a
    ``machine_fault`` response carrying the oracle's fault code.  The
    caller's session ring must equal ``ring`` or the oracle does not
    apply.

Every builder validates its arguments and raises
:class:`~repro.errors.ConfigurationError` on misuse; the gateway maps
that to a ``bad_request`` response before any worker is involved.
Both the gateway's check and a worker's install go through
:func:`resolve`, one bounded memo of built images per process, so a
repeat call builds nothing.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from ..core.acl import AclEntry, RingBracketSpec
from ..errors import ConfigurationError

#: rings a session (and hence a catalog program) may execute in: the
#: caller segments carry execute bracket [1, 5]
MIN_RING = 1
MAX_RING = 5

#: bounds on integer arguments (immediates must fit the address field,
#: and a single call must stay comfortably inside the per-call step cap)
MAX_COUNT = 4096
MAX_ITER = 200000
MAX_VALUE = 65535

#: bound on :func:`resolve`'s memo: distinct (program, args) variants
#: kept; the least recently used one is rebuilt on its next call
RESOLVE_CACHE_SIZE = 1024

#: every caller segment is executable in rings 1..5 by every user
_CALLER_ACL = (AclEntry("*", RingBracketSpec.procedure(MIN_RING, top=MAX_RING)),)


@dataclass(frozen=True)
class ProgramImage:
    """What a worker installs for one program variant.

    ``key`` identifies the variant (program name + canonical args);
    ``segments`` is a tuple of ``(path, source, acl)`` to assemble and
    store; ``data_segments`` is a tuple of ``(path, values, acl)`` raw
    data segments (the ring stories bracket secrets and scratch areas
    below or beside the caller); ``entry`` is the ``segment$symbol``
    reference to run.  ``domains`` lists ``(segment name, domain)``
    bindings the worker applies before initiation — no-ops unless the
    serving machine runs the ``ring_domains`` extension.
    """

    key: str
    segments: Tuple[Tuple[str, str, Tuple[AclEntry, ...]], ...]
    entry: str
    data_segments: Tuple[
        Tuple[str, Tuple[int, ...], Tuple[AclEntry, ...]], ...
    ] = field(default=())
    domains: Tuple[Tuple[str, str], ...] = field(default=())


def _int_arg(args: Dict[str, Any], name: str, default: int, lo: int, hi: int) -> int:
    value = args.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"argument {name!r} must be an integer")
    if not lo <= value <= hi:
        raise ConfigurationError(
            f"argument {name!r} must be in [{lo}, {hi}], got {value}"
        )
    return value


def _build_call_loop(args: Dict[str, Any]) -> ProgramImage:
    count = _int_arg(args, "count", 4, 1, MAX_COUNT)
    target = _int_arg(args, "target_ring", 0, 0, 4)
    callee = f"gate{target}"
    caller = f"cl{count}r{target}"
    callee_source = f"""
        .seg    {callee}
        .gates  1
entry:: return  pr4|0
"""
    caller_source = f"""
        .seg    {caller}
main::  lda     ={count}
loop:   eap4    back
        call    l_callee,*
back:   sba     =1
        tnz     loop
        halt
l_callee: .its  {callee}$entry
"""
    callee_acl = (
        AclEntry("*", RingBracketSpec.procedure(target, callable_from=MAX_RING)),
    )
    return ProgramImage(
        key=caller,
        segments=(
            (f">serve>{callee}", callee_source, callee_acl),
            (f">serve>{caller}", caller_source, _CALLER_ACL),
        ),
        entry=f"{caller}$main",
    )


def _build_compute(args: Dict[str, Any]) -> ProgramImage:
    n = _int_arg(args, "n", 64, 1, MAX_ITER)
    name = f"cp{n}"
    source = f"""
        .seg    {name}
main::  ldq     ={n}
        lda     ={n}
loop:   sba     =1
        tnz     loop
        halt
"""
    return ProgramImage(
        key=name,
        segments=((f">serve>{name}", source, _CALLER_ACL),),
        entry=f"{name}$main",
    )


def _build_echo(args: Dict[str, Any]) -> ProgramImage:
    value = _int_arg(args, "value", 0, 0, MAX_VALUE)
    name = f"ec{value}"
    source = f"""
        .seg    {name}
main::  lda     ={value}
        halt
"""
    return ProgramImage(
        key=name,
        segments=((f">serve>{name}", source, _CALLER_ACL),),
        entry=f"{name}$main",
    )


# -- the paper's "use of rings" stories (pp. 34-37) -------------------------


def _build_mutual_suspicion(args: Dict[str, Any]) -> ProgramImage:
    attacker = _int_arg(args, "attacker_ring", 3, 2, 3)
    victim = 5 - attacker  # the other vendor: 2 <-> 3
    spy = f"ms_spy{attacker}"
    driver = f"ms_drv{attacker}"
    spy_source = f"""
        .seg    {spy}
        .gates  1
spy::   lda     l_v,*
        return  pr4|0
l_v:    .its    ms_sec{victim}
"""
    driver_source = f"""
        .seg    {driver}
main::  eap4    back
        call    l_spy,*
back:   halt
l_spy:  .its    {spy}$spy
"""
    spy_acl = (
        AclEntry("*", RingBracketSpec.procedure(attacker, callable_from=MAX_RING)),
    )
    return ProgramImage(
        key=driver,
        segments=(
            (f">serve>{spy}", spy_source, spy_acl),
            (f">serve>{driver}", driver_source, _CALLER_ACL),
        ),
        entry=f"{driver}$main",
        data_segments=(
            (
                ">serve>ms_sec2",
                (0o101,),
                (AclEntry("*", RingBracketSpec.data(2)),),
            ),
            (
                ">serve>ms_sec3",
                (0o102,),
                (AclEntry("*", RingBracketSpec.data(3)),),
            ),
        ),
    )


#: Alice's three-instruction trade secret: f(x) = 4x + 7, execute-only
_PROPRIETARY_GATE = """
        .seg    pp_magic
        .gates  1
compute:: als   2
        ada     =7
        return  pr4|0
"""

_PROPRIETARY_ACL = (
    AclEntry(
        "*",
        RingBracketSpec(
            r1=4, r2=4, r3=MAX_RING, read=False, execute=True, gate=1
        ),
    ),
)


def _build_proprietary(args: Dict[str, Any]) -> ProgramImage:
    value = _int_arg(args, "value", 5, 0, MAX_VALUE)
    peek = _int_arg(args, "peek", 0, 0, 1)
    if peek:
        name = "pp_peek"
        source = f"""
        .seg    {name}
main::  lda     l_code,*
        halt
l_code: .its    pp_magic
"""
    else:
        name = f"pp_cl{value}"
        source = f"""
        .seg    {name}
main::  lda     ={value}
        eap4    back
        call    l_magic,*
back:   halt
l_magic: .its   pp_magic$compute
"""
    return ProgramImage(
        key=name,
        segments=(
            (">serve>pp_magic", _PROPRIETARY_GATE, _PROPRIETARY_ACL),
            (f">serve>{name}", source, _CALLER_ACL),
        ),
        entry=f"{name}$main",
    )


#: grading-sandbox students, by variant: honest / calls a guarded
#: inner-ring gate from ring 6 / scribbles on the grader's stack.  The
#: original example's gate cheat targeted ``svc$write``; serving
#: machines run without the service segments, so the same escape is
#: attempted against an in-catalog guarded ring-1 gate whose extension
#: also stops at ring 5.
_STUDENTS = {
    0: """
        .seg    gs_stu0
        .gates  1
solve:: ada     =37
        return  pr4|0
""",
    1: """
        .seg    gs_stu1
        .gates  1
solve:: eap4    back
        call    l_svc,*
back:   return  pr4|0
l_svc:  .its    gs_guard$entry
""",
    2: """
        .seg    gs_stu2
        .gates  1
solve:: lda     =0
        sta     pr6|1
        return  pr4|0
""",
}

_GUARDED_GATE = """
        .seg    gs_guard
        .gates  1
entry:: return  pr4|0
"""


def _build_grading_sandbox(args: Dict[str, Any]) -> ProgramImage:
    variant = _int_arg(args, "variant", 0, 0, 2)
    student = f"gs_stu{variant}"
    grader = f"gs_gr{variant}"
    grader_source = f"""
        .seg    {grader}
main::  lda     =5
        eap4    back
        call    l_student,*
back:   sba     =42
        halt
l_student: .its {student}$solve
"""
    student_acl = (AclEntry("*", RingBracketSpec.procedure(6)),)
    guard_acl = (
        AclEntry("*", RingBracketSpec.procedure(1, callable_from=MAX_RING)),
    )
    return ProgramImage(
        key=grader,
        segments=(
            (">serve>gs_guard", _GUARDED_GATE, guard_acl),
            (f">serve>{student}", _STUDENTS[variant], student_acl),
            (f">serve>{grader}", grader_source, _CALLER_ACL),
        ),
        entry=f"{grader}$main",
    )


def _build_debug(args: Dict[str, Any]) -> ProgramImage:
    value = _int_arg(args, "value", 123, 0, MAX_VALUE)
    name = f"db_wr{value}"
    source = f"""
        .seg    {name}
main::  lda     ={value}
        sta     l_wild,*
        halt
l_wild: .its    db_prec
"""
    return ProgramImage(
        key=name,
        segments=((f">serve>{name}", source, _CALLER_ACL),),
        entry=f"{name}$main",
        data_segments=(
            (
                ">serve>db_prec",
                (7, 7, 7, 7),
                (AclEntry("*", RingBracketSpec.data(4)),),
            ),
        ),
    )


_LAYERED_CORE = """
        .seg    ls_core
        .gates  1
prim::  aos     l_calls,*
        ada     =1000
        return  pr4|0
l_calls: .its   ls_coredata
"""

_LAYERED_LAYER1 = """
        .seg    ls_layer1
        .gates  1
serve:: eap6    pr0|0
        spr4    pr6|1
        ada     =100
        eap4    back
        call    l_prim,*
back:   eap4    pr6|1,*
        return  pr4|0
l_prim: .its    ls_core$prim
"""


def _build_layered(args: Dict[str, Any]) -> ProgramImage:
    n = _int_arg(args, "n", 1, 0, MAX_VALUE)
    direct = _int_arg(args, "direct", 0, 0, 1)
    core_acl = (
        AclEntry("*", RingBracketSpec.procedure(0, callable_from=1)),
    )
    layer1_acl = (
        AclEntry("*", RingBracketSpec.procedure(1, callable_from=MAX_RING)),
    )
    layers = (
        (">serve>ls_core", _LAYERED_CORE, core_acl),
        (">serve>ls_layer1", _LAYERED_LAYER1, layer1_acl),
    )
    coredata = (
        (
            ">serve>ls_coredata",
            (0,),
            (AclEntry("*", RingBracketSpec.data(0)),),
        ),
    )
    if direct:
        name = "ls_dir"
        source = f"""
        .seg    {name}
main::  eap4    back
        call    l_prim,*
back:   halt
l_prim: .its    ls_core$prim
"""
    else:
        name = f"ls_app{n}"
        source = f"""
        .seg    {name}
main::  lda     ={n}
        eap4    back
        call    l_serve,*
back:   halt
l_serve: .its   ls_layer1$serve
"""
    return ProgramImage(
        key=name,
        segments=layers + ((f">serve>{name}", source, _CALLER_ACL),),
        entry=f"{name}$main",
        data_segments=coredata,
    )


def _build_attack(args: Dict[str, Any]) -> ProgramImage:
    from ..adversary.corpus import (
        DEFAULT_SEED,
        MAX_ATTACK_RING,
        MIN_ATTACK_RING,
        build_attack,
    )

    family = args.get("family")
    if not isinstance(family, str):
        raise ConfigurationError(
            "argument 'family' must be an attack-family name"
        )
    seed = _int_arg(args, "seed", DEFAULT_SEED, 0, 1 << 31)
    ring = _int_arg(args, "ring", 4, MIN_ATTACK_RING, MAX_ATTACK_RING)
    program = build_attack(family, seed, ring)
    return ProgramImage(
        key=f"adv_{program.name}",
        segments=program.segments,
        entry=program.entry,
        data_segments=program.data_segments,
        domains=program.domains,
    )


#: program name -> builder(args) -> ProgramImage
CATALOG: Dict[str, Callable[[Dict[str, Any]], ProgramImage]] = {
    "call_loop": _build_call_loop,
    "compute": _build_compute,
    "echo": _build_echo,
    "mutual_suspicion": _build_mutual_suspicion,
    "proprietary": _build_proprietary,
    "grading_sandbox": _build_grading_sandbox,
    "debug": _build_debug,
    "layered": _build_layered,
    "attack": _build_attack,
}

#: per-program accepted argument names; anything else is a bad request
KNOWN_ARGS: Dict[str, set] = {
    "call_loop": {"count", "target_ring"},
    "compute": {"n"},
    "echo": {"value"},
    "mutual_suspicion": {"attacker_ring"},
    "proprietary": {"value", "peek"},
    "grading_sandbox": {"variant"},
    "debug": {"value"},
    "layered": {"n", "direct"},
    "attack": {"family", "seed", "ring"},
}


def install_image(machine, process, image: ProgramImage) -> str:
    """Install one catalog variant on a standalone machine.

    The serving worker's equivalent lives in
    :meth:`repro.serve.workers.GateCallEngine.entry_for`; this is the
    examples' side of the same contract — store each segment at most
    once per machine, initiate each at most once per process — and it
    returns the ``segment$symbol`` entry reference to run.
    """
    for path, source, acl in image.segments:
        if not machine.fs.exists(path):
            machine.store_program(path, source, acl=list(acl))
    for path, values, acl in image.data_segments:
        if not machine.fs.exists(path):
            machine.store_data(path, list(values), acl=list(acl))
    for name, domain in image.domains:
        machine.assign_domain(name, domain)
    for path, _, _ in image.segments + image.data_segments:
        if path.split(">")[-1] not in process.known:
            machine.initiate(process, path)
    return image.entry


def build_program(name: str, args: Dict[str, Any]) -> ProgramImage:
    """Resolve a catalog name + args into an installable variant.

    Raises ``KeyError`` for an unknown name (the gateway answers
    ``unknown_program``) and ``ConfigurationError`` for bad arguments.
    """
    try:
        builder = CATALOG[name]
    except KeyError:
        raise KeyError(name) from None
    if not isinstance(args, dict):
        raise ConfigurationError("args must be a JSON object")
    unknown = set(args) - KNOWN_ARGS[name]
    if unknown:
        raise ConfigurationError(
            f"unknown argument(s) {sorted(unknown)} for program {name!r}"
        )
    return builder(args)


def resolve(name: str, args: Dict[str, Any]) -> ProgramImage:
    """:func:`build_program` through one bounded, process-wide memo.

    ``build_program`` is pure in ``(name, args)``, so the gateway's
    argument check and a worker's install share one image per variant.
    The memo is keyed on the canonical JSON of ``args``: ``1``, ``1.0``
    and ``true`` stay distinct keys, so an argument the builder rejects
    can never hit the image of one it accepted.  Errors are not
    memoized; they raise exactly as :func:`build_program` does.
    """
    return _resolve_canonical(name, json.dumps(args, sort_keys=True))


@functools.lru_cache(maxsize=RESOLVE_CACHE_SIZE)
def _resolve_canonical(name: str, canonical_args: str) -> ProgramImage:
    return build_program(name, json.loads(canonical_args))


resolve.cache_info = _resolve_canonical.cache_info  # type: ignore[attr-defined]
