"""Seeded generators of ring-violation attack programs.

Every generator builds a small assembled program that *attempts* one of
the violations the ring hardware exists to stop, and states the oracle:
the :class:`~repro.cpu.faults.FaultCode` the machine must raise, its
class, the validation ring in force at the fault, and the segment the
fault must name.  The attack families map onto the paper's decision
diagrams and onto the modern threat models in PAPERS.md:

=====================  ====================================================
family                 violation attempted
=====================  ====================================================
``read_bracket``       read data bracketed below the attacker's ring
``write_bracket``      write data bracketed below the attacker's ring
``execute_only_read``  read the text of an execute-only (proprietary)
                       procedure
``nongate_call``       downward CALL into a segment with no gate list
``gate_skip``          CALL a gated segment at a word past the gate list
``gate_extension``     CALL a gate from above its gate extension (R3)
``launder_read``       read through an indirect word whose RING field
                       was planted by a higher ring (the hardware must
                       *raise* the validation ring, never lower it)
``launder_call``       CALL through a ring-poisoned link word
                       (PACStack's forged-pointer family; p. 30 makes
                       this an access violation outright)
``launder_transfer``   plain transfer through a ring-poisoned pointer
``exec_bracket_tra``   plain transfer into a lower execute bracket
``exec_data``          transfer into a pure data segment
``return_forge_down``  RETURN through a forged pointer at a lower ring
                       (DeTRAP's corrupted-return-address family)
``return_forge_gate``  tamper with the software return gate's slot
                       pointer after an upward call, then RETURN
``privileged``         execute a privileged instruction outside ring 0
``bounds``             read past a segment's bound through a pointer
                       register
``auth_return_forge``  hijack an upward return through a sloppy gate
                       that returns through a caller-controlled pointer
                       — bracket-legal; only ``auth_return_stack``
                       (PACStack's MAC chain) refuses it
``domain_breach``      read another compartment's data at the same
                       privilege level — bracket-legal; only
                       ``ring_domains`` (LOTRx86) refuses it
``wx_execute``         execute code in a segment that is also writable
                       — bracket-legal; only ``nx_brackets`` (W^X)
                       refuses it
=====================  ====================================================

The last three families are the hardening ablation probes: each one
*succeeds* (halts normally) on the plain 1971 machine, on both ring
profiles and every host tier, and is defeated only by its matching
extension from :mod:`repro.hardening` — ``hardening`` on the program
names that flag, and the harness checks both directions.

Generation is deterministic: ``build_attack(family, seed, ring)`` draws
every free parameter (victim brackets, poison rings, warmup length,
secret values) from ``random.Random(f"{family}:{seed}")``, so a corpus
entry is reproducible from the three values a CI log prints.  Every
program begins with a seeded warmup loop that runs before the
violating instruction executes — the point is to attack the machine
with its host caches warm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.acl import AclEntry, RingBracketSpec
from ..cpu.faults import FaultClass, FaultCode
from ..errors import ConfigurationError

#: rings an attacker may execute in (the serving caller bracket is
#: [1, 5]; ring 1 is excluded so every attacker has rings below it)
MIN_ATTACK_RING = 2
MAX_ATTACK_RING = 5

#: default corpus seed — the paper's year
DEFAULT_SEED = 1971

#: attacker warmup-loop bounds: long enough to warm the host caches
#: (and, from ``jit.COLD_THRESHOLD`` iterations, compile the loop), short
#: enough that a corpus sweep stays fast
MIN_WARMUP = 24
MAX_WARMUP = 96

Segment = Tuple[str, str, Tuple[AclEntry, ...]]
DataSegment = Tuple[str, Tuple[int, ...], Tuple[AclEntry, ...]]


@dataclass(frozen=True)
class AttackProgram:
    """One corpus entry: the attack plus its expected-fault oracle."""

    name: str
    family: str
    seed: int
    #: ring the attacker executes in
    ring: int
    segments: Tuple[Segment, ...]
    data_segments: Tuple[DataSegment, ...]
    #: ``segment$symbol`` to run
    entry: str
    expect_code: FaultCode
    expect_class: FaultClass
    #: expected validation ring at the fault (``Fault.ring``), or None
    #: when the faulting path does not define one (e.g. privilege)
    expect_ring: Optional[int]
    #: expected name of the segment the fault targets, or None when the
    #: target is supervisor-private (the software return gate)
    expect_segment: Optional[str]
    description: str
    warmup: int
    #: hardening flag (repro.hardening.HARDENING_FLAGS) this attack is
    #: defeated by, or None for the classic families the 1971 brackets
    #: already stop
    hardening: Optional[str] = None
    #: (segment name, domain name) assignments the machine must carry
    #: for this attack (ring_domains families)
    domains: Tuple[Tuple[str, str], ...] = ()
    #: what the attack does when its hardening flag is off: "halts"
    #: (the attack runs to completion) — classic families fault instead
    unhardened_outcome: str = "faults"

    def program_words(self) -> int:
        """Total assembled words across all segments (for ``dump``)."""
        from ..asm import assemble

        total = sum(
            len(assemble(source, name=_segname(path)).words)
            for path, source, _ in self.segments
        )
        total += sum(len(values) for _, values, _ in self.data_segments)
        return total

    def summary(self) -> Dict[str, object]:
        """The JSON shape of ``repro adversary dump``."""
        return {
            "name": self.name,
            "family": self.family,
            "seed": self.seed,
            "ring": self.ring,
            "expect_code": self.expect_code.name,
            "expect_class": self.expect_class.name,
            "expect_ring": self.expect_ring,
            "expect_segment": self.expect_segment,
            "program_words": self.program_words(),
            "warmup": self.warmup,
            "description": self.description,
            "hardening": self.hardening,
            "domains": [list(pair) for pair in self.domains],
            "unhardened_outcome": self.unhardened_outcome,
        }


def _segname(path: str) -> str:
    return path.split(">")[-1]


def _attacker_acl() -> Tuple[AclEntry, ...]:
    """Attacker code executes in rings [1, 5], like serving callers."""
    return (AclEntry("*", RingBracketSpec.procedure(1, top=MAX_ATTACK_RING)),)


def _attacker_source(name: str, warmup: int, body: str) -> str:
    """The common shape: seeded warmup loop, then the attack body."""
    return f"""
        .seg    {name}
main::  lda     ={warmup}
warm:   sba     =1
        tnz     warm
{body}
"""


class _Draw:
    """The seeded parameter draws, in a fixed order.

    Every builder consumes the same prefix of the stream (warmup first,
    attacker ring second) so the drawn attacker ring can be overridden
    by an explicit ``ring`` argument without shifting later draws.
    """

    def __init__(self, family: str, seed: int, ring: Optional[int]):
        self.rng = random.Random(f"{family}:{seed}")
        self.warmup = self.rng.randrange(MIN_WARMUP, MAX_WARMUP + 1)
        drawn = self.rng.randrange(MIN_ATTACK_RING, MAX_ATTACK_RING + 1)
        self.ring = drawn if ring is None else ring

    def below(self, upper: int, low: int = 0) -> int:
        """A ring strictly below ``upper`` (victim brackets)."""
        return self.rng.randrange(low, upper)

    def at_or_below(self, upper: int, low: int = 0) -> int:
        return self.rng.randrange(low, upper + 1)

    def above(self, lower: int, high: int = 7) -> int:
        """A ring strictly above ``lower`` (poison rings, sandboxes)."""
        return self.rng.randrange(lower + 1, high + 1)

    def value(self) -> int:
        return self.rng.randrange(1, 4096)


def _names(code: str, seed: int, ring: int) -> Tuple[str, str, str]:
    base = f"{code}{seed}r{ring}"
    return f"atk_{base}", f"vic_{base}", base


def _entry(
    draw: _Draw,
    code: str,
    family: str,
    seed: int,
    body: str,
    expect_code: FaultCode,
    expect_ring: Optional[int],
    expect_segment: Optional[str],
    description: str,
    extra_segments: Tuple[Segment, ...] = (),
    data_segments: Tuple[DataSegment, ...] = (),
    hardening: Optional[str] = None,
    domains: Tuple[Tuple[str, str], ...] = (),
    unhardened_outcome: str = "faults",
) -> AttackProgram:
    atk, _, base = _names(code, seed, draw.ring)
    source = _attacker_source(atk, draw.warmup, body)
    return AttackProgram(
        name=base,
        family=family,
        seed=seed,
        ring=draw.ring,
        segments=((f">adv>{atk}", source, _attacker_acl()),) + extra_segments,
        data_segments=data_segments,
        entry=f"{atk}$main",
        expect_code=expect_code,
        expect_class=expect_code.fclass,
        expect_ring=expect_ring,
        expect_segment=expect_segment,
        description=description,
        warmup=draw.warmup,
        hardening=hardening,
        domains=domains,
        unhardened_outcome=unhardened_outcome,
    )


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


def _read_bracket(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("read_bracket", seed, ring)
    _, vic, _ = _names("rb", seed, draw.ring)
    victim_ring = draw.below(draw.ring)
    secret = draw.value()
    body = f"""        lda     l_sec,*
        halt
l_sec:  .its    {vic}
"""
    return _entry(
        draw,
        "rb",
        "read_bracket",
        seed,
        body,
        FaultCode.ACV_READ_BRACKET,
        draw.ring,
        vic,
        f"ring-{draw.ring} read of data bracketed to ring {victim_ring}",
        data_segments=(
            (
                f">adv>{vic}",
                (secret,),
                (AclEntry("*", RingBracketSpec.data(victim_ring)),),
            ),
        ),
    )


def _write_bracket(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("write_bracket", seed, ring)
    _, vic, _ = _names("wb", seed, draw.ring)
    victim_ring = draw.below(draw.ring)
    value = draw.value()
    body = f"""        lda     ={value}
        sta     l_sec,*
        halt
l_sec:  .its    {vic}
"""
    return _entry(
        draw,
        "wb",
        "write_bracket",
        seed,
        body,
        FaultCode.ACV_WRITE_BRACKET,
        draw.ring,
        vic,
        f"ring-{draw.ring} write into data bracketed to ring {victim_ring}",
        data_segments=(
            (
                f">adv>{vic}",
                (0, 0),
                (AclEntry("*", RingBracketSpec.data(victim_ring)),),
            ),
        ),
    )


def _execute_only_read(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("execute_only_read", seed, ring)
    _, vic, _ = _names("xo", seed, draw.ring)
    increment = draw.value() % 512
    victim_source = f"""
        .seg    {vic}
        .gates  1
f::     als     2
        ada     ={increment}
        return  pr4|0
"""
    victim_acl = (
        AclEntry(
            "*",
            RingBracketSpec(
                r1=1,
                r2=MAX_ATTACK_RING,
                r3=MAX_ATTACK_RING,
                read=False,
                execute=True,
                gate=1,
            ),
        ),
    )
    body = f"""        lda     l_code,*
        halt
l_code: .its    {vic}
"""
    return _entry(
        draw,
        "xo",
        "execute_only_read",
        seed,
        body,
        FaultCode.ACV_NO_READ,
        draw.ring,
        vic,
        "read the text of an execute-only proprietary procedure",
        extra_segments=((f">adv>{vic}", victim_source, victim_acl),),
    )


def _nongate_call(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("nongate_call", seed, ring)
    _, vic, _ = _names("ng", seed, draw.ring)
    victim_ring = draw.at_or_below(draw.ring, low=1)
    victim_source = f"""
        .seg    {vic}
entry:: return  pr4|0
"""
    victim_acl = (
        AclEntry(
            "*",
            RingBracketSpec.procedure(
                victim_ring, callable_from=MAX_ATTACK_RING
            ),
        ),
    )
    body = f"""        eap4    back
        call    l_t,*
back:   halt
l_t:    .its    {vic}$entry
"""
    return _entry(
        draw,
        "ng",
        "nongate_call",
        seed,
        body,
        FaultCode.ACV_NOT_GATE,
        draw.ring,
        vic,
        f"CALL into a gate-less ring-{victim_ring} segment",
        extra_segments=((f">adv>{vic}", victim_source, victim_acl),),
    )


def _gate_skip(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("gate_skip", seed, ring)
    _, vic, _ = _names("gs", seed, draw.ring)
    victim_ring = draw.at_or_below(draw.ring, low=1)
    victim_source = f"""
        .seg    {vic}
        .gates  1
entry:: return  pr4|0
back::  return  pr4|0
"""
    victim_acl = (
        AclEntry(
            "*",
            RingBracketSpec.procedure(
                victim_ring, callable_from=MAX_ATTACK_RING
            ),
        ),
    )
    body = f"""        eap4    back
        call    l_t,*
back:   halt
l_t:    .its    {vic}$back
"""
    return _entry(
        draw,
        "gs",
        "gate_skip",
        seed,
        body,
        FaultCode.ACV_NOT_GATE,
        draw.ring,
        vic,
        "CALL a gated segment at a word past its gate list",
        extra_segments=((f">adv>{vic}", victim_source, victim_acl),),
    )


def _gate_extension(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("gate_extension", seed, ring)
    _, vic, _ = _names("gx", seed, draw.ring)
    extension = draw.below(draw.ring)  # R3 strictly below the attacker
    victim_ring = draw.at_or_below(extension)
    victim_source = f"""
        .seg    {vic}
        .gates  1
entry:: return  pr4|0
"""
    victim_acl = (
        AclEntry(
            "*",
            RingBracketSpec.procedure(victim_ring, callable_from=extension),
        ),
    )
    body = f"""        eap4    back
        call    l_t,*
back:   halt
l_t:    .its    {vic}$entry
"""
    return _entry(
        draw,
        "gx",
        "gate_extension",
        seed,
        body,
        FaultCode.ACV_OUTSIDE_CALL_BRACKET,
        draw.ring,
        vic,
        f"CALL a ring-{victim_ring} gate whose extension stops at "
        f"ring {extension}",
        extra_segments=((f">adv>{vic}", victim_source, victim_acl),),
    )


def _launder_read(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("launder_read", seed, ring)
    _, vic, _ = _names("lr", seed, draw.ring)
    write_ring = draw.at_or_below(draw.ring)
    poison = draw.above(draw.ring)
    secret = draw.value()
    # readable at the attacker's own ring: only the planted RING field
    # makes the reference fault, proving the hardware raised (and never
    # lowered) the validation ring
    victim_acl = (
        AclEntry(
            "*", RingBracketSpec.data(write_ring, read_to=draw.ring)
        ),
    )
    body = f"""        lda     l_sec,*
        halt
l_sec:  .its    {vic}, {poison}
"""
    return _entry(
        draw,
        "lr",
        "launder_read",
        seed,
        body,
        FaultCode.ACV_READ_BRACKET,
        poison,
        vic,
        f"read through an indirect word ring-poisoned to {poison}; the "
        "validation ring is raised, never lowered",
        data_segments=((f">adv>{vic}", (secret,), victim_acl),),
    )


def _launder_call(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("launder_call", seed, ring)
    _, vic, _ = _names("lc", seed, draw.ring)
    victim_ring = draw.at_or_below(draw.ring, low=1)
    poison = draw.above(draw.ring)
    victim_source = f"""
        .seg    {vic}
        .gates  1
entry:: return  pr4|0
"""
    victim_acl = (
        AclEntry(
            "*",
            RingBracketSpec.procedure(victim_ring, callable_from=7),
        ),
    )
    body = f"""        eap4    back
        call    l_t,*
back:   halt
l_t:    .its    {vic}$entry, {poison}
"""
    return _entry(
        draw,
        "lc",
        "launder_call",
        seed,
        body,
        FaultCode.ACV_RING_RAISED,
        poison,
        vic,
        "CALL through a ring-poisoned link word (raised effective ring "
        "is an access violation on CALL, p. 30)",
        extra_segments=((f">adv>{vic}", victim_source, victim_acl),),
    )


def _launder_transfer(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("launder_transfer", seed, ring)
    atk, _, _ = _names("lt", seed, draw.ring)
    poison = draw.above(draw.ring)
    body = f"""        tra     l_t,*
        halt
l_t:    .ptr    main, {poison}
"""
    return _entry(
        draw,
        "lt",
        "launder_transfer",
        seed,
        body,
        FaultCode.ACV_TRANSFER_RING,
        poison,
        atk,
        "plain transfer through a ring-poisoned pointer (plain "
        "transfers may not change the ring)",
    )


def _exec_bracket_tra(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("exec_bracket_tra", seed, ring)
    _, vic, _ = _names("xt", seed, draw.ring)
    victim_ring = draw.below(draw.ring)
    victim_source = f"""
        .seg    {vic}
entry:: halt
"""
    victim_acl = (
        AclEntry("*", RingBracketSpec.procedure(victim_ring)),
    )
    body = f"""        tra     l_t,*
        halt
l_t:    .its    {vic}$entry
"""
    return _entry(
        draw,
        "xt",
        "exec_bracket_tra",
        seed,
        body,
        FaultCode.ACV_EXECUTE_BRACKET,
        draw.ring,
        vic,
        f"plain transfer into a procedure executable only in ring "
        f"{victim_ring}",
        extra_segments=((f">adv>{vic}", victim_source, victim_acl),),
    )


def _exec_data(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("exec_data", seed, ring)
    _, vic, _ = _names("xd", seed, draw.ring)
    victim_acl = (
        AclEntry("*", RingBracketSpec.data(MAX_ATTACK_RING)),
    )
    body = f"""        tra     l_t,*
        halt
l_t:    .its    {vic}
"""
    return _entry(
        draw,
        "xd",
        "exec_data",
        seed,
        body,
        FaultCode.ACV_NO_EXECUTE,
        draw.ring,
        vic,
        "transfer into a pure data segment (execute flag off)",
        data_segments=(
            (f">adv>{vic}", (draw.value(), draw.value()), victim_acl),
        ),
    )


def _return_forge_down(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("return_forge_down", seed, ring)
    _, vic, _ = _names("rf", seed, draw.ring)
    victim_ring = draw.below(draw.ring)
    victim_source = f"""
        .seg    {vic}
entry:: halt
"""
    victim_acl = (
        AclEntry("*", RingBracketSpec.procedure(victim_ring)),
    )
    body = f"""        eap4    l_t,*
        return  pr4|0
        halt
l_t:    .its    {vic}$entry
"""
    return _entry(
        draw,
        "rf",
        "return_forge_down",
        seed,
        body,
        FaultCode.ACV_EXECUTE_BRACKET,
        draw.ring,
        vic,
        f"forged RETURN into ring-{victim_ring} code with no matching "
        "call (refused by the Figure 9 advance check)",
        extra_segments=((f">adv>{vic}", victim_source, victim_acl),),
    )


def _return_forge_gate(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("return_forge_gate", seed, ring)
    _, vic, _ = _names("rg", seed, draw.ring)
    sandbox = draw.above(draw.ring, high=6)
    victim_source = f"""
        .seg    {vic}
        .gates  1
evil::  eap4    pr4|1
        return  pr4|0
"""
    victim_acl = (
        AclEntry("*", RingBracketSpec.procedure(sandbox)),
    )
    body = f"""        eap4    back
        call    l_t,*
back:   halt
l_t:    .its    {vic}$evil
"""
    return _entry(
        draw,
        "rg",
        "return_forge_gate",
        seed,
        body,
        FaultCode.ACV_NO_EXECUTE,
        sandbox,
        None,  # the software return gate is supervisor-private
        f"upward call into ring {sandbox}, then RETURN through a "
        "tampered return-gate slot (PACStack's forged upward return)",
        extra_segments=((f">adv>{vic}", victim_source, victim_acl),),
    )


def _privileged(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("privileged", seed, ring)
    body = """        cioc    =1
        halt
"""
    return _entry(
        draw,
        "pv",
        "privileged",
        seed,
        body,
        FaultCode.ACV_PRIVILEGED,
        None,
        None,
        f"privileged instruction (CIOC) executed in ring {draw.ring}",
    )


def _bounds(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("bounds", seed, ring)
    _, vic, _ = _names("ob", seed, draw.ring)
    length = 2 + draw.value() % 6
    offset = 2048 + draw.value()
    victim_acl = (
        AclEntry("*", RingBracketSpec.data(MAX_ATTACK_RING)),
    )
    body = f"""        eap1    l_v,*
        lda     pr1|{offset}
        halt
l_v:    .its    {vic}
"""
    return _entry(
        draw,
        "ob",
        "bounds",
        seed,
        body,
        FaultCode.ACV_OUT_OF_BOUNDS,
        draw.ring,
        vic,
        f"read word {offset} of a {length}-word segment",
        data_segments=(
            (f">adv>{vic}", tuple(range(1, length + 1)), victim_acl),
        ),
    )


def _auth_return_forge(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("auth_return_forge", seed, ring)
    atk, vic, _ = _names("ar", seed, draw.ring)
    victim_ring = draw.below(draw.ring, low=1)
    # The victim returns through PR1 — a register the *caller* loaded.
    # Bracket-wise this is a perfectly legal upward return; only the MAC
    # chain knows the caller's PR4 said ``back``, not ``win``.
    victim_source = f"""
        .seg    {vic}
        .gates  1
entry:: return  pr1|0
"""
    victim_acl = (
        AclEntry(
            "*",
            RingBracketSpec.procedure(
                victim_ring, callable_from=MAX_ATTACK_RING
            ),
        ),
    )
    body = f"""        eap1    win
        eap4    back
        call    l_t,*
back:   halt
win:    lda     =9
        halt
l_t:    .its    {vic}$entry
"""
    return _entry(
        draw,
        "ar",
        "auth_return_forge",
        seed,
        body,
        FaultCode.ACV_AUTH_RETURN,
        draw.ring,
        atk,  # the forged target is the attacker's own segment
        f"downward call into ring {victim_ring} whose return is steered "
        "through an attacker-loaded pointer register; brackets allow the "
        "hijacked upward return, the MAC chain does not",
        extra_segments=((f">adv>{vic}", victim_source, victim_acl),),
        hardening="auth_return_stack",
        unhardened_outcome="halts",
    )


def _domain_breach(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("domain_breach", seed, ring)
    _, vic, _ = _names("db", seed, draw.ring)
    secret = draw.value()
    # Bracket-legal on purpose: the vault is readable from every attack
    # ring, so the 1971 machine has no objection.  Only the domain wall
    # between common code and the ``vault`` domain stops the read.
    victim_acl = (
        AclEntry("*", RingBracketSpec.data(MAX_ATTACK_RING)),
    )
    body = f"""        lda     l_v,*
        halt
l_v:    .its    {vic}
"""
    return _entry(
        draw,
        "db",
        "domain_breach",
        seed,
        body,
        FaultCode.ACV_DOMAIN,
        draw.ring,
        vic,
        f"common (undomained) ring-{draw.ring} code reads a segment "
        "assigned to the 'vault' domain; the read bracket permits it",
        data_segments=((f">adv>{vic}", (secret,), victim_acl),),
        hardening="ring_domains",
        domains=((vic, "vault"),),
        unhardened_outcome="halts",
    )


def _wx_execute(seed: int, ring: Optional[int]) -> AttackProgram:
    draw = _Draw("wx_execute", seed, ring)
    _, vic, _ = _names("wx", seed, draw.ring)
    # A writable-and-executable grant: legal under the 1971 access
    # model, which treats the flags independently.
    victim_source = f"""
        .seg    {vic}
entry:: halt
"""
    victim_acl = (
        AclEntry(
            "*",
            RingBracketSpec(
                r1=1,
                r2=MAX_ATTACK_RING,
                r3=MAX_ATTACK_RING,
                read=True,
                write=True,
                execute=True,
            ),
        ),
    )
    body = f"""        tra     l_t,*
        halt
l_t:    .its    {vic}$entry
"""
    return _entry(
        draw,
        "wx",
        "wx_execute",
        seed,
        body,
        FaultCode.ACV_NX,
        draw.ring,
        vic,
        "transfer into a segment whose ACL grants both write and "
        "execute; the brackets line up, the NX rule does not",
        extra_segments=((f">adv>{vic}", victim_source, victim_acl),),
        hardening="nx_brackets",
        unhardened_outcome="halts",
    )


#: family name -> builder(seed, ring) — iteration order is the corpus
#: order and is part of the reproducibility contract
ATTACK_FAMILIES: Dict[
    str, Callable[[int, Optional[int]], AttackProgram]
] = {
    "read_bracket": _read_bracket,
    "write_bracket": _write_bracket,
    "execute_only_read": _execute_only_read,
    "nongate_call": _nongate_call,
    "gate_skip": _gate_skip,
    "gate_extension": _gate_extension,
    "launder_read": _launder_read,
    "launder_call": _launder_call,
    "launder_transfer": _launder_transfer,
    "exec_bracket_tra": _exec_bracket_tra,
    "exec_data": _exec_data,
    "return_forge_down": _return_forge_down,
    "return_forge_gate": _return_forge_gate,
    "privileged": _privileged,
    "bounds": _bounds,
    "auth_return_forge": _auth_return_forge,
    "domain_breach": _domain_breach,
    "wx_execute": _wx_execute,
}

#: the hardening ablation probes: family -> the machine flag that
#: defeats it.  Everything else in ATTACK_FAMILIES is defeated by the
#: plain 1971 machine.
HARDENED_FAMILIES: Dict[str, str] = {
    "auth_return_forge": "auth_return_stack",
    "domain_breach": "ring_domains",
    "wx_execute": "nx_brackets",
}


def build_attack(
    family: str, seed: int, ring: Optional[int] = None
) -> AttackProgram:
    """One deterministic corpus entry.

    ``ring`` overrides the drawn attacker ring (the serving catalog
    passes the session ring); it must lie in
    ``[MIN_ATTACK_RING, MAX_ATTACK_RING]``.
    """
    try:
        builder = ATTACK_FAMILIES[family]
    except KeyError:
        raise ConfigurationError(
            f"unknown attack family {family!r}; expected one of "
            f"{sorted(ATTACK_FAMILIES)}"
        ) from None
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigurationError("attack seed must be a non-negative integer")
    if ring is not None and not (
        MIN_ATTACK_RING <= ring <= MAX_ATTACK_RING
    ):
        raise ConfigurationError(
            f"attacker ring must be in [{MIN_ATTACK_RING}, "
            f"{MAX_ATTACK_RING}], got {ring}"
        )
    return builder(seed, ring)


def generate_corpus(
    seed: int = DEFAULT_SEED,
    per_family: int = 2,
    families: Optional[Tuple[str, ...]] = None,
    ring: Optional[int] = None,
) -> Tuple[AttackProgram, ...]:
    """The corpus: ``per_family`` seeded variants of each family."""
    if per_family <= 0:
        raise ConfigurationError("per_family must be positive")
    selected = tuple(families) if families else tuple(ATTACK_FAMILIES)
    for family in selected:
        if family not in ATTACK_FAMILIES:
            raise ConfigurationError(
                f"unknown attack family {family!r}; expected one of "
                f"{sorted(ATTACK_FAMILIES)}"
            )
    return tuple(
        build_attack(family, seed + index, ring)
        for family in selected
        for index in range(per_family)
    )
