"""Adversary subsystem: ring-violation attack corpus and fault oracle.

The paper's security argument is negative-space: what matters is not
that well-behaved programs run, but that *hostile* programs cannot do
anything except fault.  This package turns that argument into an
executable property:

:mod:`repro.adversary.corpus`
    seeded generators of assembled programs that attempt every ring
    violation the hardware is supposed to catch — cross-bracket reads
    and writes, non-gate downward transfers, indirect-word ring
    laundering, forged returns, gate entry off the gate list, execute
    bracket violations — each paired with an expected-fault oracle.

:mod:`repro.adversary.harness`
    runs the corpus through the full execution-tier matrix
    (interpreter / fast path / JIT / fast-gate /
    snapshot-restore-resume) and asserts each program faults with the
    expected figure bit-identically in every tier, with all host
    caches hot.

The serving catalog (:mod:`repro.serve.catalog`) exposes the same
attacks as servable workloads so the property also holds under
multi-tenant load, and the ``baseline645`` machine profile lets
``loadgen`` A/B the hardware-ring and software-ring crossing costs at
service scale.
"""

from .corpus import (  # noqa: F401
    ATTACK_FAMILIES,
    DEFAULT_SEED,
    AttackProgram,
    build_attack,
    generate_corpus,
)
from .harness import TIER_NAMES, run_corpus, run_entry  # noqa: F401
