"""Checkpoint state: pinned bytes, per-component round trips, no
aliasing, the fresh-rig precondition of restore, and the encoding rules
of :class:`repro.sim.checkpoint.Stateful`.

``tests/golden/checkpoint_digests.json`` holds the sealed digest of the
seed-0 warm-up checkpoint of every rig in :data:`RIGS`.  A change to
how any component encodes its state shows up here as a digest
mismatch, so encoder refactors are proven byte-neutral.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.dist.shard import plan_fabric_shards
from repro.harness.fabric import (
    build_fabric_rig,
    fabric_config_for,
    fabric_warm_start,
    run_fabric,
)
from repro.harness.runner import (
    _fixed_load_plan,
    fixed_load_warm_start,
    memcached_warm_start,
    run_fixed_load,
    run_memcached,
)
from repro.harness.warmup_cache import WarmStart, WarmupCache, prewarm
from repro.loadgen.flowgen import FlowGenConfig
from repro.nic.drop_fsm import DropClassifier
from repro.sim.channel import ChannelGroup, InProcessCoupler
from repro.sim.checkpoint import (
    CheckpointError,
    Stateful,
    canonical_json,
    compute_digest,
    state_key,
)
from repro.sim.stats import Distribution, Histogram
from repro.sim.ticks import us_to_ticks
from repro.system.node import DpdkNode
from repro.system.presets import gem5_default

GOLDEN = Path(__file__).parent / "golden" / "checkpoint_digests.json"


def _pipeline_warm_start(config) -> WarmStart:
    """A pipeline-mode node (two cores and a ring) warmed by the loadgen
    with the 256 B fixed-load plan."""
    plan = _fixed_load_plan(config, 256, True, None)

    def build():
        node = DpdkNode(config, seed=0)
        node.install_pipeline_app(touch_payload=True)
        node.attach_loadgen()
        return node

    def warm(node) -> None:
        node.start()
        node.warmup_and_reset(plan)

    return WarmStart(build, "pipeline", warm,
                     {"phase": "warmup", "packet_size": 256})


#: name -> WarmStart of one seed-0 rig whose warm-up checkpoint is pinned.
RIGS = {
    "testpmd-256": lambda c: fixed_load_warm_start(c, "testpmd", 256),
    "rxptx-256": lambda c: fixed_load_warm_start(
        c, "rxptx", 256, app_options={"proc_time_ns": 100}),
    "iperf-1518": lambda c: fixed_load_warm_start(c, "iperf", 1518),
    "memcached-kernel": lambda c: memcached_warm_start(
        c, True, 200_000.0, 2000),
    "memcached-dpdk": lambda c: memcached_warm_start(
        c, False, 200_000.0, 2000),
    "pipeline-256": _pipeline_warm_start,
    "fat-tree-k4-dpdk": lambda c: fabric_warm_start(
        c, "fat-tree-k4", "dpdk"),
    "leaf-spine-kernel": lambda c: fabric_warm_start(
        c, "leaf-spine", "kernel"),
}


def warm_rig(name):
    """(spec, warmed rig) for one entry of :data:`RIGS`."""
    spec = RIGS[name](gem5_default())
    rig = spec.build()
    spec.warm(rig)
    return spec, rig


def warm_document(name) -> dict:
    spec, rig = warm_rig(name)
    return rig.checkpoint(extra_meta=spec.meta)


@pytest.fixture(scope="module")
def warmed():
    """Warmed rigs by name, each warmed once for the whole module."""
    rigs = {}

    def get(name):
        if name not in rigs:
            rigs[name] = warm_rig(name)
        return rigs[name]

    return get


@pytest.mark.parametrize("name", sorted(RIGS))
def test_warm_up_checkpoint_matches_golden(warmed, name):
    spec, rig = warmed(name)
    golden = json.loads(GOLDEN.read_text())
    assert rig.checkpoint(extra_meta=spec.meta)["digest"] == golden[name], \
        f"{name}: the warm-up checkpoint bytes changed"


def _measured_values(component, prefix):
    """(path, value) of every measured field of ``component``, with the
    measured fields of a nested :class:`Stateful` expanded in place."""
    for path in getattr(component, "measured_fields", ()):
        value = component
        for name in path.split("."):
            value = getattr(value, name)
        if isinstance(value, Stateful):
            yield from _measured_values(value, f"{prefix}.{path}")
        else:
            yield f"{prefix}.{path}", value


def _reads_zero(value) -> bool:
    if isinstance(value, (Distribution, Histogram)):
        return value.count == 0
    if isinstance(value, DropClassifier):
        return value.total_drops == 0 and value.transitions == 0
    return not value


@pytest.mark.parametrize("name", sorted(RIGS))
def test_warm_up_zeroes_every_measured_field(warmed, name):
    """The rig's one reset walk reaches every topology component: after
    warm-up no measured counter still holds warm-up traffic."""
    _spec, rig = warmed(name)
    values = [item for label, component in rig.topology.components()
              for item in _measured_values(component, label)]
    assert values, f"{name}: no component declares measured fields"
    assert [(path, value) for path, value in values
            if not _reads_zero(value)] == []


@pytest.mark.parametrize("name", sorted(RIGS))
def test_every_holder_blocks_checkpoint_and_laws(warmed, name, monkeypatch):
    """The rig's one quiescence walk sees every component that states
    ``held()``: one held item refuses the checkpoint, naming that
    component, and keeps the whole-rig laws out of a final check."""
    _spec, rig = warmed(name)
    monkeypatch.setattr(rig, "law_failures", lambda: ["law checked"])
    assert rig.invariant_failures(final=True) == ["law checked"]
    holders = [(label, component)
               for label, component in rig.topology.components()
               if callable(getattr(component, "held", None))]
    if hasattr(rig, "switches"):
        expected = {part.name for part in
                    rig.switches + rig.hosts + rig.links}
    else:
        expected = {"nic0", "link0", "app"}
    assert expected <= {label for label, _component in holders}
    for label, component in holders:
        with monkeypatch.context() as patch:
            patch.setattr(component, "held", lambda: 1)
            with pytest.raises(CheckpointError,
                               match="not checkpoint-ready") as refused:
                rig.checkpoint()
            assert f"(packets are still held: {label} 1)" \
                in str(refused.value)
            assert rig.invariant_failures(final=True) == []


@pytest.mark.parametrize("name", ["memcached-dpdk", "memcached-kernel"])
def test_warm_up_resets_requests_served(warmed, name):
    """Both memcached servers count the requests of the measured window,
    so the one name means one thing on either stack."""
    _spec, rig = warmed(name)
    assert rig.app.requests_served == 0


@pytest.mark.parametrize("name", ["iperf-1518", "memcached-kernel"])
def test_restore_carries_the_nic_interrupt_counters(warmed, name):
    """A node restored from its warm-up checkpoint reads the interrupt
    counters of the node that took it (both rigs post interrupts)."""
    spec, rig = warmed(name)
    twin = spec.build()
    twin.restore(rig.checkpoint(extra_meta=spec.meta))
    assert ((twin.nic.interrupts_posted, twin.nic.interrupts_suppressed)
            == (rig.nic.interrupts_posted, rig.nic.interrupts_suppressed))


# ----------------------------------------------------------------------
# Per-component round trips
# ----------------------------------------------------------------------

def _assert_components_round_trip(rig, twin) -> None:
    """Every component's state, through JSON into the twin's matching
    component, re-serializes to the same bytes."""
    twins = dict(twin.topology.components())
    labels = []
    for label, component in rig.topology.components():
        state = canonical_json(component.serialize_state())
        twins[label].deserialize_state(json.loads(state))
        assert canonical_json(twins[label].serialize_state()) == state, \
            f"{label} ({type(component).__name__}) did not round-trip"
        labels.append(label)
    assert labels == list(twins)


@pytest.mark.parametrize("name", sorted(RIGS))
def test_every_component_round_trips_into_a_fresh_twin(warmed, name):
    spec, rig = warmed(name)
    _assert_components_round_trip(rig, spec.build())


def _shard_slices(plan, config, preset, stack):
    return [build_fabric_rig(config, preset, stack, shard_plan=plan,
                             shard_id=i) for i in range(plan.n_shards)]


def test_shard_slice_components_round_trip():
    """A 2-shard fabric, coupled in one process and run to quiescence:
    each slice, channel halves included, round-trips into a fresh
    slice."""
    config = gem5_default()
    preset, stack = "fat-tree-k4", "dpdk"
    plan = plan_fabric_shards(fabric_config_for(config, preset, stack), 2)
    slices = _shard_slices(plan, config, preset, stack)
    coupler = InProcessCoupler({i: ChannelGroup(s.sim, s.channels)
                                for i, s in enumerate(slices)})
    for fabric in slices:
        fabric.generator.start(FlowGenConfig(load=0.3, n_flows=40))
    target = 0
    for _ in range(400):
        if all(not f.generator.active and f.quiescent() for f in slices):
            break
        target += us_to_ticks(50.0)
        coupler.advance(target)
    assert all(f.quiescent() for f in slices), "slices never drained"
    assert all(sum(c.frames_out for c in f.channels) for f in slices), \
        "no frame crossed the shard boundary"
    for fabric, twin in zip(slices,
                            _shard_slices(plan, config, preset, stack)):
        _assert_components_round_trip(fabric, twin)


# ----------------------------------------------------------------------
# Restore never aliases the cached document
# ----------------------------------------------------------------------

def _run_testpmd(config, cache):
    return run_fixed_load(config, "testpmd", 256, 8.0, n_packets=600,
                          warmup_cache=cache)


def _run_memcached(config, cache):
    return run_memcached(config, False, 200_000.0, 2000,
                         warmup_cache=cache)


def _run_fat_tree(config, cache):
    return run_fabric(config, "fat-tree-k4", "dpdk", load=0.5, n_flows=60,
                      warmup_cache=cache)


@pytest.mark.parametrize("rig,run", [
    ("testpmd-256", _run_testpmd),
    ("memcached-dpdk", _run_memcached),
    ("fat-tree-k4-dpdk", _run_fat_tree),
])
def test_restore_never_aliases_the_cached_document(tmp_path, rig, run):
    """The warm-up cache hands one in-memory document to every restore:
    two restores with a measured phase in between leave it intact."""
    config = gem5_default()
    cache = WarmupCache(tmp_path)
    spec = RIGS[rig](config)
    assert prewarm(spec, cache)     # stores it and memoizes the read-back
    first = run(config, cache)
    second = run(config, cache)
    assert cache.hits == 3 and cache.saves == 1
    assert dataclasses.asdict(first) == dataclasses.asdict(second)
    doc = cache.get(spec.key)
    assert compute_digest(doc) == doc["digest"], \
        "a restored run wrote into the cached checkpoint document"


# ----------------------------------------------------------------------
# Restore only into a fresh rig
# ----------------------------------------------------------------------

def test_restore_into_a_rig_that_has_run_is_refused_untouched():
    doc = warm_document("testpmd-256")
    spec = RIGS["testpmd-256"](gem5_default())
    node = spec.build()
    node.start()
    node.run_us(5.0)
    before = {label: canonical_json(c.serialize_state())
              for label, c in node.topology.components()}
    sim_before = canonical_json(node.sim.serialize_state())
    with pytest.raises(CheckpointError, match="freshly built"):
        node.restore(doc)
    assert {label: canonical_json(c.serialize_state())
            for label, c in node.topology.components()} == before
    assert canonical_json(node.sim.serialize_state()) == sim_before


def test_restore_into_a_started_rig_is_refused():
    """Scheduled events count as having run, even at tick 0."""
    doc = warm_document("testpmd-256")
    spec = RIGS["testpmd-256"](gem5_default())
    node = spec.build()
    node.start()
    assert node.sim.now == 0
    with pytest.raises(CheckpointError, match="freshly built"):
        node.restore(doc)


def _rig_state(rig):
    return ({label: canonical_json(c.serialize_state())
             for label, c in rig.topology.components()},
            canonical_json(rig.sim.serialize_state()))


def _resealed(doc, edit):
    doc = json.loads(canonical_json(doc))
    edit(doc)
    doc["digest"] = compute_digest(doc)
    return doc


@pytest.mark.parametrize("name", ["testpmd-256", "fat-tree-k4-dpdk"])
def test_restore_refuses_a_layout_mismatch_before_writing(warmed, name):
    """A document that lacks one key of the last component, or has one
    it does not write, is refused by the component's label and the key
    before any component is written: the fresh rig is left as built."""
    spec, rig = warmed(name)
    doc = rig.checkpoint(extra_meta=spec.meta)
    last = doc["meta"]["components"][-1]
    key = sorted(doc["objects"][last])[-1]

    def lose_key(d):
        del d["objects"][last][key]

    def add_key(d):
        d["objects"][last]["stale_counter"] = 0

    for edit, detail in ((lose_key, f"missing keys ['{key}']"),
                         (add_key, "extra keys ['stale_counter']")):
        fresh = spec.build()
        before = _rig_state(fresh)
        with pytest.raises(CheckpointError) as refused:
            fresh.restore(_resealed(doc, edit))
        assert f"{last!r} has {detail}" in str(refused.value)
        assert _rig_state(fresh) == before


def test_restore_names_a_nested_key_and_an_unknown_event(warmed):
    spec, rig = warmed("testpmd-256")
    doc = rig.checkpoint(extra_meta=spec.meta)
    nic = next(label for label, component in rig.topology.components()
               if "rx_fifo" in doc["objects"][label])

    def edit(d):
        del d["objects"][nic]["rx_fifo"]["enqueued"]
        d["sim"]["events"]["events"].append(
            {"name": "gone.event", "when": 1, "priority": 0})

    fresh = spec.build()
    before = _rig_state(fresh)
    with pytest.raises(CheckpointError) as refused:
        fresh.restore(_resealed(doc, edit))
    message = str(refused.value)
    assert f"{nic!r} has missing keys ['rx_fifo.enqueued']" in message
    assert "pending event 'gone.event' is not in" in message
    assert _rig_state(fresh) == before


# ----------------------------------------------------------------------
# The Stateful encoding rules
# ----------------------------------------------------------------------

class _Port(Stateful):
    state_fields = ("frames",)

    def __init__(self):
        self.frames = 0


class _Device(Stateful):
    state_fields = ("_cursor", "port.frames", "port", "ring", "table",
                    "label")

    def __init__(self):
        self._cursor = 0
        self.port = _Port()
        self.ring = [0, 0]
        self.table = {"a": [1]}
        self.label = None


def test_state_keys_drop_one_underscore_and_flatten_dots():
    assert state_key("_harvest_cursor") == "harvest_cursor"
    assert state_key("port.frames_sent") == "port_frames_sent"
    assert state_key("__x") == "_x"
    assert state_key("plain") == "plain"


def test_state_dict_follows_the_encoding_rules():
    device = _Device()
    device._cursor, device.port.frames, device.label = 7, 3, "n"
    assert device.serialize_state() == {
        "cursor": 7, "port_frames": 3, "port": {"frames": 3},
        "ring": [0, 0], "table": {"a": [1]}, "label": "n"}


def test_nested_objects_keep_their_identity():
    device, twin = _Device(), _Device()
    device.port.frames = 5
    port = twin.port
    twin.deserialize_state(device.serialize_state())
    assert twin.port is port and port.frames == 5


def test_lists_and_dicts_are_copied_both_ways():
    device = _Device()
    state = device.serialize_state()
    device.ring[0] = 9
    device.table["a"].append(2)
    assert state["ring"] == [0, 0] and state["table"] == {"a": [1]}

    twin = _Device()
    twin.deserialize_state(state)
    twin.ring[1] = 4
    twin.table["a"].append(3)
    assert state["ring"] == [0, 0] and state["table"] == {"a": [1]}
