"""Unit tests for the invariant-checker registry.

The registry is the enforcement core: the simulation and each rig
register conservation rules, the harness asserts them at the end of
every run (``final`` mode), and ``strict`` mode re-checks every rule
with ``final=False`` after every simulated event.  Mutation-style tests
that break *real* components and watch the checker fire live in
``test_invariants_mutation.py``.
"""

import pytest

from repro.sim.event_queue import Event, EventQueue
from repro.sim.invariants import (
    InvariantRegistry,
    InvariantViolation,
    mode_from_env,
)
from repro.sim.simobject import Simulation


class TestModeFromEnv:
    @pytest.mark.parametrize("raw", [None, "", "1", "final", "on",
                                     "default", "FINAL"])
    def test_final_spellings(self, raw):
        env = {} if raw is None else {"REPRO_CHECK_INVARIANTS": raw}
        assert mode_from_env(env) == "final"

    @pytest.mark.parametrize("raw", ["0", "off", "none", "disabled", "OFF"])
    def test_off_spellings(self, raw):
        assert mode_from_env({"REPRO_CHECK_INVARIANTS": raw}) == "off"

    def test_strict(self):
        assert mode_from_env({"REPRO_CHECK_INVARIANTS": "strict"}) == "strict"

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="REPRO_CHECK_INVARIANTS"):
            mode_from_env({"REPRO_CHECK_INVARIANTS": "pedantic"})


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = InvariantRegistry(mode="final")
        reg.register("x", lambda final: None)
        with pytest.raises(ValueError, match="x"):
            reg.register("x", lambda final: None)

    def test_clean_check_passes(self):
        reg = InvariantRegistry(mode="final")
        reg.register("ok-none", lambda final: None)
        reg.register("ok-empty", lambda final: [])
        reg.check(final=True)
        assert reg.final_checks_run == 1

    def test_failures_carry_names(self):
        reg = InvariantRegistry(mode="final")
        reg.register("good", lambda final: None)
        reg.register("bad-str", lambda final: "one message")
        reg.register("bad-list", lambda final: ["a", "b"])
        with pytest.raises(InvariantViolation) as info:
            reg.check(final=True)
        message = str(info.value)
        assert "bad-str" in message and "one message" in message
        assert "bad-list" in message and "a" in message and "b" in message
        assert "good" not in message
        assert len(info.value.failures) == 3

    def test_off_mode_never_raises(self):
        reg = InvariantRegistry(mode="off")
        reg.register("always-bad", lambda final: "broken")
        reg.check(final=True)
        assert reg.final_checks_run == 0

    def test_final_flag_reaches_checks(self):
        reg = InvariantRegistry(mode="final")
        seen = []
        reg.register("spy", lambda final: seen.append(final) and None)
        reg.check(final=True)
        reg.check(final=False)
        assert seen == [True, False]

    def test_violation_is_assertion_error(self):
        # Test suites that assert on simulation health catch it naturally.
        assert issubclass(InvariantViolation, AssertionError)


class TestStrictMode:
    def test_strict_installs_event_hook(self):
        queue = EventQueue()
        reg = InvariantRegistry(queue, mode="strict")
        assert queue.on_event is not None
        assert reg.mode == "strict"

    def test_final_mode_leaves_hot_path_alone(self):
        queue = EventQueue()
        InvariantRegistry(queue, mode="final")
        assert queue.on_event is None

    def test_strict_check_trips_mid_run(self):
        queue = EventQueue()
        reg = InvariantRegistry(queue, mode="strict")
        broken = {"flag": False}
        reg.register("tripwire",
                     lambda final: "tripped" if broken["flag"] else None)

        def breaker():
            broken["flag"] = True

        queue.schedule(Event(breaker), 100)
        queue.schedule(Event(lambda: None), 200)
        with pytest.raises(InvariantViolation) as info:
            queue.run()
        # The hook fires right after the breaking event's callback, not
        # at the end of the run.
        assert info.value.tick == 100
        assert info.value.phase == "strict"

    def test_every_rule_runs_per_event_with_final_false(self):
        queue = EventQueue()
        reg = InvariantRegistry(queue, mode="strict")
        seen = {"a": [], "b": []}
        reg.register("a", lambda final: seen["a"].append(final))
        reg.register("b", lambda final: seen["b"].append(final))
        for when in (10, 20, 30):
            queue.schedule(Event(lambda: None), when)
        queue.run()
        assert seen == {"a": [False] * 3, "b": [False] * 3}
        reg.check(final=True)
        assert seen == {"a": [False] * 3 + [True], "b": [False] * 3 + [True]}
        assert reg.events_checked == 3


class TestSimulationIntegration:
    def test_simulation_registers_core_invariants(self):
        sim = Simulation(invariant_mode="final")
        names = set(sim.invariants.names)
        assert "sim.tick-monotonic" in names
        assert "sim.event-queue-sane" in names
        sim.run(until=1000)
        sim.invariants.check(final=True)

    def test_a_node_registers_one_rule(self):
        """Components state their rules and the rig registers one rule
        that runs them all: a testpmd node with a load generator adds
        exactly one rule, under its label, to the simulation's two."""
        from repro.harness.runner import build_node
        from repro.system.presets import gem5_default

        node = build_node(gem5_default(), "testpmd")
        node.attach_loadgen()
        assert node.sim.invariants.names == [
            "sim.tick-monotonic", "sim.event-queue-sane", node.label]

    def test_strict_simulation_detects_time_rewind(self):
        sim = Simulation(invariant_mode="strict")

        def rewind():
            # Corrupt the clock the way a buggy event queue would.
            sim.events._now = 5

        sim.events.schedule(Event(lambda: None), 50)
        sim.events.schedule(Event(rewind), 100)
        with pytest.raises(InvariantViolation, match="tick-monotonic"):
            sim.run(until=1000)
