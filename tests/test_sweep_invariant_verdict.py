"""Invariant verdicts travelling through the sweep executor.

A sweep point whose simulation violates a conservation invariant must
fail the sweep with :class:`SweepInvariantError` *naming the offending
point* — not a generic worker traceback — on both the serial and the
parallel path.  The ``_poison_invariant`` kind (installed by the
``poison_kinds`` fixture in ``conftest.py``) injects the violation
without running a simulation; the end-to-end case corrupts a real
component inside a real run.
"""

import pytest

from repro.harness.parallel import (
    SweepExecutor,
    SweepInvariantError,
    SweepPoint,
    SweepPointError,
    fixed_load_point,
)
from repro.nic.fifo import PacketByteFifo
from repro.system.presets import gem5_default

pytestmark = pytest.mark.usefixtures("poison_kinds")


def _poison_points(n=1):
    return [SweepPoint(kind="_poison_invariant", app=f"p{i}")
            for i in range(n)]


class TestVerdictPropagation:
    def test_is_a_sweep_point_error(self):
        # Callers catching the generic failure still see invariant ones.
        assert issubclass(SweepInvariantError, SweepPointError)

    def test_serial_path_names_the_point(self):
        ex = SweepExecutor(jobs=1)
        with pytest.raises(SweepInvariantError) as info:
            ex.run(_poison_points())
        message = str(info.value)
        assert "_poison_invariant p0" in message
        assert "conservation failure" in message

    def test_parallel_path_names_the_point(self):
        ex = SweepExecutor(jobs=2, timeout_s=60.0)
        with pytest.raises(SweepInvariantError) as info:
            ex.run(_poison_points(3))
        assert "_poison_invariant" in str(info.value)
        assert "conservation failure" in str(info.value)

    def test_violation_is_not_retried(self):
        # A deterministic simulation re-violates on every retry; the
        # executor must fail fast instead of burning attempts.
        ex = SweepExecutor(jobs=2, timeout_s=60.0, max_retries=3)
        with pytest.raises(SweepInvariantError):
            ex.run(_poison_points(2))
        assert ex.stats.retries == 0


class TestEndToEndVerdict:
    @pytest.fixture()
    def _corrupt_fifo(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "final")
        orig = PacketByteFifo.try_enqueue
        corrupted = {"done": False}

        def mutant(self, packet):
            ok = orig(self, packet)
            if ok and not corrupted["done"]:
                corrupted["done"] = True
                self.enqueued += 1
            return ok

        monkeypatch.setattr(PacketByteFifo, "try_enqueue", mutant)

    def test_real_violation_fails_sweep_with_label(self, _corrupt_fifo):
        point = fixed_load_point(gem5_default(), "testpmd", 256, 5.0,
                                 n_packets=120)
        ex = SweepExecutor(jobs=1)
        with pytest.raises(SweepInvariantError) as info:
            ex.run([point])
        message = str(info.value)
        # The verdict names the point and the violated rule.
        assert point.describe() in message
        assert "fifo" in message
