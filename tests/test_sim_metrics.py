"""MetricsSnapshot arithmetic and collection against field-by-field references.

The snapshot's methods construct positionally and read counters straight
off the processor; these tests pin them to the obvious definitions —
a dict per field, each cache's ``stats()`` — so the fast forms can never
drift from what they stand for.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from tests.test_cpu_access_cache import build_call_loop
from repro.sim.metrics import MetricsSnapshot

FIELDS = [f.name for f in dataclasses.fields(MetricsSnapshot)]

counters = st.integers(min_value=-(2**40), max_value=2**40)
snapshots = st.builds(
    MetricsSnapshot, **{name: counters for name in FIELDS}
)


def reference(snapshot):
    return {name: getattr(snapshot, name) for name in FIELDS}


def combine(op, left, right):
    return {
        name: op(getattr(left, name), getattr(right, name)) for name in FIELDS
    }


class TestArithmetic:
    @given(snapshots, snapshots)
    def test_plus_minus_equal_fieldwise(self, a, b):
        assert reference(a.plus(b)) == combine(int.__add__, a, b)
        assert reference(a.minus(b)) == combine(int.__sub__, a, b)
        assert a.delta(b) == combine(int.__sub__, a, b)

    def test_zero_is_all_zero(self):
        assert reference(MetricsSnapshot.zero()) == dict.fromkeys(FIELDS, 0)

    @given(st.lists(snapshots, max_size=6))
    def test_sum_of_equals_fieldwise_sum(self, shards):
        assert reference(MetricsSnapshot.sum_of(shards)) == {
            name: sum(getattr(shard, name) for shard in shards)
            for name in FIELDS
        }

    @given(snapshots)
    def test_architectural_is_the_architectural_subset(self, snapshot):
        architectural = snapshot.architectural()
        assert list(architectural) == list(MetricsSnapshot.ARCHITECTURAL)
        assert architectural == {
            name: getattr(snapshot, name)
            for name in MetricsSnapshot.ARCHITECTURAL
        }


class TestDictForm:
    @given(snapshots)
    def test_as_dict_in_field_order_and_round_trips(self, snapshot):
        # snapshot bytes and base-image digests depend on this order
        as_dict = snapshot.as_dict()
        assert list(as_dict) == FIELDS
        assert as_dict == dataclasses.asdict(snapshot)
        assert MetricsSnapshot.from_dict(as_dict) == snapshot

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="bogus"):
            MetricsSnapshot.from_dict({"cycles": 1, "bogus": 2})

    @given(st.sets(st.sampled_from(FIELDS)), counters)
    def test_from_dict_defaults_missing_counters_to_zero(self, present, value):
        snapshot = MetricsSnapshot.from_dict(
            {name: value for name in present}
        )
        assert reference(snapshot) == {
            name: value if name in present else 0 for name in FIELDS
        }

    @given(st.dictionaries(st.sampled_from(FIELDS), counters))
    def test_from_dict_coerces_values_with_int(self, data):
        loose = {}
        for index, (name, value) in enumerate(data.items()):
            loose[name] = (str(value), float(value), value)[index % 3]
        snapshot = MetricsSnapshot.from_dict(loose)
        for name in FIELDS:
            assert type(getattr(snapshot, name)) is int
            assert getattr(snapshot, name) == int(loose.get(name, 0))


#: (label, Machine knobs) for every execution tier
TIERS = [
    ("interp", {"fast_path_enabled": False, "block_tier_enabled": False}),
    ("fast", {"block_tier_enabled": False}),
    ("block", {}),
    ("jit", {"jit_tier_enabled": True}),
]


def stats_reference(proc):
    """The counters as each component's own ``stats()`` reports them."""
    sdw = proc.sdw_cache.stats()
    ptlb = proc.access_cache.stats()
    icache = proc.inst_cache.stats()
    blocks = proc.block_cache.stats()
    traces = proc.jit_cache.stats()
    return {
        "cycles": proc.cycles,
        "instructions": proc.stats.instructions,
        "faults": proc.stats.faults,
        "traps_delivered": proc.stats.traps_delivered,
        "calls": proc.stats.calls,
        "returns": proc.stats.returns,
        "ring_crossings": proc.stats.ring_crossings,
        "memory_reads": proc.memory.reads,
        "memory_writes": proc.memory.writes,
        "sdw_hits": sdw["hits"],
        "sdw_misses": sdw["misses"],
        "ptlb_hits": ptlb["hits"],
        "ptlb_misses": ptlb["misses"],
        "icache_hits": icache["hits"],
        "icache_misses": icache["misses"],
        "block_hits": blocks["hits"],
        "block_misses": blocks["misses"],
        "block_invalidations": blocks["invalidations"],
        "block_instructions": blocks["block_instructions"],
        "jit_hits": traces["hits"],
        "jit_misses": traces["misses"],
        "jit_invalidations": traces["invalidations"],
        "jit_instructions": traces["jit_instructions"],
    }


@pytest.mark.parametrize("label,knobs", TIERS, ids=[t[0] for t in TIERS])
class TestCollection:
    def test_collect_equals_component_stats(self, label, knobs):
        machine, process = build_call_loop(count=2000, **knobs)
        machine.run(process, "caller$main", ring=4)
        proc = machine.processor
        collected = MetricsSnapshot.collect(proc)
        assert reference(collected) == stats_reference(proc)
        # the run exercised the tier under test
        tier_hits = {
            "interp": collected.instructions,
            "fast": collected.ptlb_hits,
            "block": collected.block_hits,
            "jit": collected.jit_hits,
        }
        assert tier_hits[label] > 0

    def test_run_metrics_with_and_without_reset(self, label, knobs):
        machine, process = build_call_loop(count=64, **knobs)
        reset = machine.run(process, "caller$main", ring=4)
        assert reset.run_metrics == reset.metrics

        # capture the counters at the instant the processor starts
        # running (after Machine.start's attach), which is what
        # run_metrics is measured against
        starts = []
        run = machine.processor.run

        def recording_run(*args, **kwargs):
            starts.append(MetricsSnapshot.collect(machine.processor))
            return run(*args, **kwargs)

        machine.processor.run = recording_run
        kept = machine.run(
            process, "caller$main", ring=4, reset_counters=False
        )
        assert kept.run_metrics == kept.metrics.minus(starts[-1])
        assert kept.metrics.instructions == 2 * reset.metrics.instructions
        assert kept.run_metrics.instructions == reset.metrics.instructions


@settings(max_examples=25)
@given(snapshots)
def test_snapshots_stay_frozen_values(snapshot):
    """Snapshots are shared, not copied (the gateway keeps a result's
    parsed delta as a worker's first sum), so they must stay frozen."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        snapshot.cycles = 0
    assert hash(snapshot) == hash(MetricsSnapshot(*reference(snapshot).values()))
