"""Structured event tracing: unit behaviour and the golden trace.

The golden half pins the *exact* JSONL byte stream a small testpmd run
produces: the trace is the simulation's behavioural fingerprint, so any
unintentional drift in event ordering, instrumentation sites, or record
shape shows up as a golden mismatch.  After an intentional change,
regenerate with ``REPRO_REGEN_GOLDEN=1 pytest tests/test_trace.py`` and
review the diff.
"""

import json
import os
import re
from pathlib import Path

import pytest

from repro.harness.runner import run_fixed_load
from repro.sim.simobject import Simulation
from repro.sim.trace import (
    TRACE_SCHEMA_VERSION,
    TraceOptions,
    Tracer,
    read_jsonl,
)
from repro.system.presets import gem5_default

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestTraceOptions:
    def test_disabled_by_default(self):
        assert TraceOptions.from_env({}).enabled is False
        assert TraceOptions.from_env({"REPRO_TRACE": ""}).enabled is False
        assert TraceOptions.from_env({"REPRO_TRACE": "0"}).enabled is False

    @pytest.mark.parametrize("spec", ["1", "all", "on"])
    def test_trace_everything_spellings(self, spec):
        opts = TraceOptions.from_env({"REPRO_TRACE": spec})
        assert opts.enabled and opts.categories is None

    def test_category_filter(self):
        opts = TraceOptions.from_env({"REPRO_TRACE": "nic, dma"})
        assert opts.categories == frozenset({"nic", "dma"})

    def test_buffer_override(self):
        opts = TraceOptions.from_env({"REPRO_TRACE": "1",
                                      "REPRO_TRACE_BUFFER": "64"})
        assert opts.buffer_size == 64

    @pytest.mark.parametrize("raw", ["x", "0", "-3"])
    def test_bad_buffer_env_names_the_variable(self, raw):
        with pytest.raises(ValueError, match=re.escape(
                f"REPRO_TRACE_BUFFER={raw!r}: expected a positive integer")):
            TraceOptions.from_env({"REPRO_TRACE": "1",
                                   "REPRO_TRACE_BUFFER": raw})

    def test_zero_buffer_rejected(self):
        with pytest.raises(ValueError, match="buffer"):
            TraceOptions(enabled=True, buffer_size=0)


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(TraceOptions(enabled=False))
        tracer.record(10, "obj", "nic", "ev", None)
        assert tracer.recorded == 0
        assert tracer.events() == []

    def test_records_in_tick_then_seq_order(self):
        tracer = Tracer(TraceOptions(enabled=True))
        tracer.record(200, "b", "nic", "late", None)
        tracer.record(100, "a", "nic", "early", None)
        tracer.record(100, "b", "nic", "early2", None)
        events = tracer.events()
        assert [e.tick for e in events] == [100, 100, 200]
        # Same-tick records keep global insertion order via seq.
        assert [e.event for e in events] == ["early", "early2", "late"]

    def test_category_and_object_filters(self):
        tracer = Tracer(TraceOptions(enabled=True,
                                     categories=frozenset({"nic"}),
                                     objects=frozenset({"nic0"})))
        tracer.record(1, "nic0", "nic", "keep", None)
        tracer.record(2, "nic0", "app", "wrong-cat", None)
        tracer.record(3, "app", "nic", "wrong-obj", None)
        assert [e.event for e in tracer.events()] == ["keep"]
        assert tracer.filtered == 2

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer(TraceOptions(enabled=True, buffer_size=8))
        for i in range(50):
            tracer.record(i, "obj", "nic", "ev", {"i": i})
        events = tracer.events()
        assert len(events) == 8
        # Oldest evicted, newest kept.
        assert [dict(e.fields)["i"] for e in events] == list(range(42, 50))
        assert tracer.evicted == 42

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(TraceOptions(enabled=True))
        tracer.record(5, "nic0", "nic", "wire_rx", {"bytes": 64})
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path)
        header, records = read_jsonl(path)
        assert header["trace_schema"] == TRACE_SCHEMA_VERSION
        assert header["records"] == 1
        assert records == [{"tick": 5, "seq": 0, "obj": "nic0",
                            "cat": "nic", "event": "wire_rx",
                            "fields": {"bytes": 64}}]

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"trace_schema": 999}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            read_jsonl(path)

    def test_digest_tracks_content(self):
        a, b = (Tracer(TraceOptions(enabled=True)) for _ in range(2))
        for t in (a, b):
            t.record(1, "x", "nic", "ev", {"v": 1})
        assert a.digest() == b.digest()
        b.record(2, "x", "nic", "ev", {"v": 2})
        assert a.digest() != b.digest()


class TestSimObjectIntegration:
    def test_untraced_simulation_has_no_buffers(self):
        sim = Simulation()
        assert sim.tracer.enabled is False

    def test_trace_options_flow_through_simulation(self):
        sim = Simulation(trace_options=TraceOptions(enabled=True))
        assert sim.tracer.enabled is True


class TestGoldenTrace:
    """The stored JSONL trace of one small testpmd point."""

    GOLDEN = GOLDEN_DIR / "testpmd_trace.jsonl"

    @pytest.fixture()
    def computed(self, monkeypatch, tmp_path):
        # loadgen-only + a small ring keeps the golden file reviewable;
        # eviction is deterministic, so the trailing window is stable.
        monkeypatch.setenv("REPRO_TRACE", "loadgen")
        monkeypatch.setenv("REPRO_TRACE_BUFFER", "64")
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "final")
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE_PATH", str(path))
        result = run_fixed_load(gem5_default(), "testpmd", 256, 5.0,
                                n_packets=120)
        return result, path.read_text()

    def test_matches_golden(self, computed):
        result, text = computed
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            self.GOLDEN.write_text(text)
        if not self.GOLDEN.exists():
            pytest.fail(f"golden file {self.GOLDEN} missing; generate it "
                        "with REPRO_REGEN_GOLDEN=1")
        assert text == self.GOLDEN.read_text(), (
            "trace drifted from golden; if intentional, regenerate with "
            "REPRO_REGEN_GOLDEN=1 and review the diff")
        assert result.trace_digest   # digest travels with the result

    def test_golden_is_well_formed(self, computed):
        _result, text = computed
        header, records = read_jsonl(self.GOLDEN) \
            if self.GOLDEN.exists() else (None, None)
        if header is None:
            pytest.skip("golden not generated yet")
        assert header["trace_schema"] == TRACE_SCHEMA_VERSION
        assert header["categories"] == ["loadgen"]
        assert records, "golden trace has no records"
        ordering = [(r["tick"], r["seq"]) for r in records]
        assert ordering == sorted(ordering)
        assert {r["cat"] for r in records} == {"loadgen"}
        assert {r["event"] for r in records} <= {"tx", "rx"}
