"""MachineConfig: the one validated description of a machine's shape.

``MachineConfig.validate`` makes the tier matrix explicit and rejects
contradictions with a clear error before any machine state is built.
Pinned here:

* defaults mirror ``Machine()`` exactly (a default config builds a
  machine identical to ``Machine()``), and every field is a
  ``Machine(**fields)`` keyword;
* every contradictory knob combination is rejected, and every legal
  combination passes;
* the shape round-trips through a snapshot's ``"config"`` block, and a
  block in the older format (``nrings``, resolved tier booleans, no
  ``services``) still restores.
"""

import dataclasses

import pytest

from repro.cpu.processor import CostModel
from repro.errors import ConfigurationError
from repro.hardening import HardeningConfig
from repro.sim.config import MACHINE_PROFILES, MachineConfig
from repro.sim.machine import Machine
from repro.state.snapshot import restore_machine, snapshot_machine


class TestDefaults:
    def test_default_config_is_valid(self):
        MachineConfig().validate()

    def test_default_config_builds_a_default_machine(self):
        built = Machine(MachineConfig())
        plain = Machine()
        assert built.config == plain.config == MachineConfig()
        assert built.fast_gate == plain.fast_gate
        assert built.processor.hardware_rings == plain.processor.hardware_rings
        assert (
            built.processor.access_cache.enabled
            is plain.processor.access_cache.enabled
        )

    def test_every_field_is_a_machine_keyword(self):
        changed = {
            "memory_words": 1 << 15,
            "hardware_rings": False,
            "stack_rule": "simple",
            "paged": True,
            "lazy_linking": True,
            "cost": CostModel(trap_overhead=40),
            "sdw_cache_slots": 8,
            "sdw_cache_enabled": False,
            "fast_path_enabled": False,
            "jit_tier_enabled": False,
            "fast_gate": True,
            "services": False,
            "hardening": HardeningConfig.from_flags(["nx_brackets"]),
        }
        names = {f.name for f in dataclasses.fields(MachineConfig)}
        assert set(changed) == names
        for name, value in changed.items():
            machine = Machine(**{name: value})
            assert getattr(machine.config, name) == value, name
        assert Machine(**changed).config == MachineConfig(**changed)

    def test_keywords_override_a_config(self):
        base = MachineConfig(hardware_rings=False, fast_gate=True)
        machine = Machine(base, memory_words=1 << 15)
        assert machine.config == dataclasses.replace(
            base, memory_words=1 << 15
        )
        assert not machine.processor.hardware_rings
        assert machine.memory.size == 1 << 15


class TestRejections:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            ({"memory_words": 0}, "memory_words"),
            ({"memory_words": -5}, "memory_words"),
            ({"sdw_cache_slots": 0}, "sdw_cache_slots"),
            ({"stack_rule": "tower"}, "stack rule"),
            ({"cost": "free"}, "CostModel"),
            (
                {"jit_tier_enabled": True, "fast_path_enabled": False},
                "jit_tier_enabled",
            ),
            ({"sdw_cache_slots": -1}, "sdw_cache_slots"),
            ({"hardening": "auth_return_stack"}, "HardeningConfig"),
        ],
    )
    def test_contradiction_rejected_with_clear_error(self, kwargs, fragment):
        with pytest.raises(ConfigurationError) as excinfo:
            MachineConfig(**kwargs).validate()
        assert fragment in str(excinfo.value)

    def test_machine_validates_its_fields(self):
        with pytest.raises(ConfigurationError):
            Machine(jit_tier_enabled=True, fast_path_enabled=False)

    def test_machine_rejects_non_config(self):
        with pytest.raises(TypeError):
            Machine({"memory_words": 1024})

    def test_machine_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            Machine(nrings=4)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig().with_profile("ge635")

    def test_unknown_hardening_flag_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig().with_profile("ringed", ["shadow_stack"])


class TestLegalMatrix:
    #: every (fast_path, block, jit) combination that was legal while
    #: the superblock tier existed; a None trace tier is off unless the
    #: parity backstop asks for it
    LEGAL = [
        (False, None, None),
        (False, False, False),
        (False, False, None),
        (True, None, None),
        (True, False, False),
        (True, True, None),
        (True, True, True),
        (True, None, True),
    ]

    @pytest.mark.parametrize("fast_path,block,jit", LEGAL)
    def test_legal_tier_combinations_build(self, fast_path, block, jit):
        machine = Machine(fast_path_enabled=fast_path, jit_tier_enabled=jit)
        assert machine.processor.access_cache.enabled is fast_path
        if jit is not None:
            assert machine.processor.jit_cache.enabled is jit
        # a config block that still records the retired block knob
        # reads back as the same shape, the knob ignored
        data = machine.config.as_dict()
        data["block_tier_enabled"] = block
        assert MachineConfig.from_dict(data) == machine.config

    def test_hardened_config_builds_hardened_machine(self):
        machine = Machine(
            hardening=HardeningConfig.from_flags(
                ["auth_return_stack", "nx_brackets"]
            )
        )
        assert machine.processor.auth_stack is not None
        assert machine.processor.nx_brackets
        assert machine.processor.domains is None

    def test_jit_none_with_fast_path_off_is_legal(self):
        """A None trace tier follows the fast path — never a contradiction."""
        machine = Machine(fast_path_enabled=False)
        assert machine.processor.access_cache.enabled is False

    @pytest.mark.parametrize("profile", MACHINE_PROFILES)
    def test_profile_names_the_processor(self, profile):
        config = MachineConfig().with_profile(profile, ["ring_domains"])
        assert config.profile == profile
        assert config.hardening.enabled_flags() == ("ring_domains",)
        machine = Machine(config)
        assert machine.processor.hardware_rings is (profile == "ringed")


#: a snapshot "config" block in the format written before snapshots
#: stored MachineConfig.as_dict(): it records nrings and the resolved
#: tier booleans (the superblock tier's among them), and has no
#: "services" key
OLDER_BLOCK = {
    "memory_words": 65536,
    "hardware_rings": False,
    "stack_rule": "simple",
    "nrings": 8,
    "paged": True,
    "lazy_linking": False,
    "sdw_cache_slots": 16,
    "sdw_cache_enabled": True,
    "fast_path_enabled": True,
    "block_tier_enabled": True,
    "jit_tier_enabled": True,
    "fast_gate": True,
    "hardening": {
        "auth_return_stack": False,
        "ring_domains": False,
        "nx_brackets": True,
        "auth_key_seed": 1971,
        "domains": [],
    },
    "cost": {
        "memory_reference": 1,
        "instruction_base": 1,
        "trap_overhead": 30,
        "ring_crossing_extra": 1,
        "auth_mac_cycles": 1,
    },
}


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("profile", MACHINE_PROFILES)
    @pytest.mark.parametrize(
        "flags", [(), ("auth_return_stack",), ("ring_domains", "nx_brackets")]
    )
    @pytest.mark.parametrize("paged", [False, True])
    def test_config_round_trips(self, profile, flags, paged):
        config = MachineConfig(
            memory_words=1 << 16,
            paged=paged,
            cost=CostModel(trap_overhead=45, ring_crossing_extra=2),
            services=False,
        ).with_profile(profile, flags)
        machine = Machine(config)
        block = snapshot_machine(machine)["config"]
        assert MachineConfig.from_dict(block) == machine.config == config
        assert restore_machine(snapshot_machine(machine)).config == config

    def test_older_block_restores(self):
        machine = Machine(
            memory_words=1 << 16,
            hardware_rings=False,
            stack_rule="simple",
            paged=True,
            services=False,
            jit_tier_enabled=True,
            fast_gate=True,
            hardening=HardeningConfig.from_flags(["nx_brackets"]),
        )
        snap = snapshot_machine(machine)
        snap["config"] = dict(OLDER_BLOCK)
        restored = restore_machine(snap)
        assert restored.config == MachineConfig(
            memory_words=1 << 16,
            hardware_rings=False,
            stack_rule="simple",
            paged=True,
            jit_tier_enabled=True,
            fast_gate=True,
            services=False,
            hardening=HardeningConfig.from_flags(["nx_brackets"]),
        )
        assert not restored.processor.hardware_rings
        assert restored.processor.jit_cache.enabled
        assert restored.processor.nx_brackets

    def test_counters_with_superblock_fields_restore(self):
        """A snapshot's counters as builds with the superblock tier
        wrote them: the three block counters are dropped on restore,
        and any other unknown counter is still refused."""
        machine = Machine(memory_words=1 << 16, services=False)
        snap = snapshot_machine(machine)
        snap["counters"] = {
            "cycles": 90, "instructions": 22, "faults": 0,
            "traps_delivered": 0, "calls": 4, "returns": 4,
            "ring_crossings": 8, "memory_reads": 40, "memory_writes": 8,
            "sdw_hits": 30, "sdw_misses": 2, "ptlb_hits": 30,
            "ptlb_misses": 2, "icache_hits": 20, "icache_misses": 2,
            "block_hits": 3, "block_misses": 5, "block_invalidations": 1,
            "block_instructions": 9, "jit_hits": 1, "jit_misses": 0,
            "jit_invalidations": 0, "jit_instructions": 12,
        }
        restored = restore_machine(snap).processor
        assert (restored.cycles, restored.stats.calls) == (90, 4)
        assert restored.jit_cache.instructions == 12
        snap["counters"]["block_chains"] = 1
        with pytest.raises(ValueError, match="block_chains"):
            restore_machine(snap)
