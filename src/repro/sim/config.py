"""The machine shape: one validated value describing a machine.

The paper's design space is a machine shape — the new processor's
hardware rings or the Honeywell 645's trapped crossings, the stack
rule, paging that protection does not see — plus host tiers that no
simulated figure can see.  :class:`MachineConfig` is its only
description: ``Machine(config, **fields)`` builds from it and keeps it
as ``machine.config``; a snapshot's ``"config"`` block is
:meth:`MachineConfig.as_dict`, so a restored, hydrated, recovered or
replayed machine takes its shape from the image it came from; and the
gateway builds one value (:meth:`MachineConfig.with_profile`) and hands
it to every worker and session tenant.  :meth:`MachineConfig.validate`
rejects contradictions before any machine state is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Iterable, Optional

from ..cpu.processor import CostModel, resolve_tiers
from ..errors import ConfigurationError
from ..hardening import HardeningConfig

#: selectable processor profiles: ``ringed`` runs the paper's ring
#: hardware; ``baseline645`` runs the GE-645 trap machine, where every
#: ring crossing is completed by the software assist.  Protection
#: verdicts are identical (validation precedes the trap); only the
#: crossing cost differs, which is what the live A/B measures.
MACHINE_PROFILES = ("ringed", "baseline645")


@dataclass(frozen=True)
class MachineConfig:
    """Every construction knob of :class:`~repro.sim.machine.Machine`.

    ``hardware_rings``
        True builds the paper's new processor; False builds the
        Honeywell-645 baseline where every ring crossing traps to
        software.
    ``stack_rule``
        ``"dbr"`` (the footnote's refined stack-segment selection) or
        ``"simple"`` (stack segno = ring number).
    ``paged``
        activate segments through page tables, demonstrating that
        paging is transparent to protection.
    ``lazy_linking``
        snap links on first reference instead of at initiation.
    ``fast_path_enabled`` / ``block_tier_enabled`` / ``jit_tier_enabled``
        the host execution tiers (:mod:`repro.cpu.access_cache`,
        :mod:`repro.cpu.blockcache`, :mod:`repro.cpu.jit`), each built
        on the one below; ``None`` follows the tier below, and the
        trace tier's ``None`` is off unless the ``REPRO_JIT_PARITY``
        backstop asks for it.  Invisible to the simulated figures.
    ``fast_gate``
        skip the supervisor re-attach on a repeat start of the attached
        process (see :meth:`~repro.sim.machine.Machine.start`).
    ``services``
        install the system service segments into a fresh machine's file
        system.
    ``hardening``
        the hardening extensions (:mod:`repro.hardening`).
    """

    memory_words: int = 1 << 18
    hardware_rings: bool = True
    stack_rule: str = "dbr"
    paged: bool = False
    lazy_linking: bool = False
    cost: CostModel = field(default_factory=CostModel)
    sdw_cache_slots: int = 16
    sdw_cache_enabled: bool = True
    fast_path_enabled: bool = True
    block_tier_enabled: Optional[bool] = None
    jit_tier_enabled: Optional[bool] = None
    fast_gate: bool = False
    services: bool = True
    hardening: HardeningConfig = field(default_factory=HardeningConfig)

    def validate(self) -> "MachineConfig":
        """Reject contradictory knob combinations; returns self."""
        if self.memory_words <= 0:
            raise ConfigurationError(
                f"memory_words must be positive, got {self.memory_words}"
            )
        if self.sdw_cache_slots <= 0:
            raise ConfigurationError(
                f"sdw_cache_slots must be positive, got {self.sdw_cache_slots}"
            )
        if self.stack_rule not in ("simple", "dbr"):
            raise ConfigurationError(
                f"unknown stack rule {self.stack_rule!r}; "
                "expected 'simple' or 'dbr'"
            )
        resolve_tiers(
            self.fast_path_enabled,
            self.block_tier_enabled,
            self.jit_tier_enabled,
        )
        if not isinstance(self.cost, CostModel):
            raise ConfigurationError(
                f"cost must be a CostModel, got {type(self.cost).__name__}"
            )
        if not isinstance(self.hardening, HardeningConfig):
            raise ConfigurationError(
                "hardening must be a HardeningConfig, got "
                f"{type(self.hardening).__name__}"
            )
        return self

    @property
    def profile(self) -> str:
        """This shape's entry in :data:`MACHINE_PROFILES`."""
        return "ringed" if self.hardware_rings else "baseline645"

    def with_profile(
        self, profile: str, hardening: Iterable[str] = ()
    ) -> "MachineConfig":
        """This shape on ``profile``'s processor with the named
        hardening flags (the serving surface's two settings)."""
        if profile not in MACHINE_PROFILES:
            raise ConfigurationError(
                f"unknown machine profile {profile!r}; expected one of "
                f"{MACHINE_PROFILES}"
            )
        return replace(
            self,
            hardware_rings=profile == "ringed",
            hardening=HardeningConfig.from_flags(hardening),
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-shaped form: a snapshot's ``"config"`` block."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["cost"] = asdict(self.cost)
        out["hardening"] = self.hardening.as_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MachineConfig":
        """The inverse of :meth:`as_dict`, validated.

        Also reads older blocks: keys that are not fields (``nrings``)
        are ignored; a block written before the trace tier, the
        hardening extensions or ``services`` were recorded leaves them
        off, which is how such snapshots were always restored.
        """
        known = {f.name for f in fields(cls)}
        values = {"jit_tier_enabled": False, "services": False}
        values.update(
            (name, value) for name, value in data.items() if name in known
        )
        values["cost"] = CostModel(**values["cost"])
        values["hardening"] = HardeningConfig.from_dict(
            values.get("hardening", {})
        )
        return cls(**values).validate()
