"""Unit tests for the checkpoint format and Node checkpoint/restore.

The format layer (seal/verify/save/load) is exercised directly, with a
mutation sweep proving the digest catches every single-field tamper.
The node layer is exercised through the real warm-up flow: a warmed,
drained DpdkNode checkpoints, restores into a fresh node, and the
restored node re-checkpoints to the identical digest.  A fabric shares
the node's checkpoint surface (:class:`repro.sim.checkpoint.Rig`), so
its class repeats the refusal and identity cases on a fabric.
"""

import json
import re

import pytest

from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    assert_serializable,
    compute_digest,
    describe,
    is_serializable,
    load_checkpoint,
    save_checkpoint,
    seal,
    verify,
)


def _minimal_document():
    return seal({
        "meta": {"label": "t", "app": "A", "seed": 0, "components": []},
        "sim": {"events": {"now": 7, "seq": 3, "fired": 2, "events": []},
                "rng": {}, "trace": {}},
        "objects": {"x": {"count": 1}},
    })


class TestFormat:
    def test_seal_stamps_format_and_digest(self):
        doc = _minimal_document()
        assert doc["format"] == CHECKPOINT_FORMAT
        assert doc["digest"] == compute_digest(doc)

    def test_verify_accepts_sealed_document(self):
        assert verify(_minimal_document())["meta"]["label"] == "t"

    def test_verify_rejects_non_object(self):
        with pytest.raises(CheckpointError, match="JSON object"):
            verify([1, 2, 3])

    def test_verify_rejects_missing_keys(self):
        doc = _minimal_document()
        del doc["objects"]
        with pytest.raises(CheckpointError, match="objects"):
            verify(doc)

    def test_verify_rejects_future_format(self):
        doc = _minimal_document()
        doc["format"] = CHECKPOINT_FORMAT + 1
        doc["digest"] = compute_digest(doc)
        with pytest.raises(CheckpointError, match="format"):
            verify(doc)

    def test_verify_refuses_a_format_1_document(self):
        """Format 1 carried a ``sim.stats`` block this build no longer
        reads: an old file is refused by its format, not by a missing
        key deep in a restore."""
        doc = _minimal_document()
        doc["format"] = 1
        doc["digest"] = compute_digest(doc)
        with pytest.raises(CheckpointError, match="format 1 not supported"):
            verify(doc)

    def test_digest_is_deterministic_across_key_order(self):
        a = _minimal_document()
        b = json.loads(json.dumps(a, sort_keys=True))
        assert compute_digest(a) == compute_digest(b)


class TestTamperDetection:
    """Mutation sweep: flipping any leaf value breaks the digest."""

    def _mutations(self, doc):
        yield "meta.seed", lambda d: d["meta"].__setitem__("seed", 1)
        yield "sim.now", lambda d: d["sim"]["events"].__setitem__("now", 8)
        yield "sim.seq", lambda d: d["sim"]["events"].__setitem__("seq", 4)
        yield "objects.count", \
            lambda d: d["objects"]["x"].__setitem__("count", 2)
        yield "objects.extra", \
            lambda d: d["objects"].__setitem__("y", {})
        yield "meta.components", \
            lambda d: d["meta"]["components"].append("ghost")

    def test_every_single_field_tamper_is_detected(self):
        for name, mutate in self._mutations(_minimal_document()):
            doc = _minimal_document()
            mutate(doc)
            with pytest.raises(CheckpointError, match="digest"):
                verify(doc)
            # (failure here means the mutation named `name` slipped by)

    def test_tampered_digest_itself_is_detected(self):
        doc = _minimal_document()
        doc["digest"] = "0" * 64
        with pytest.raises(CheckpointError, match="digest"):
            verify(doc)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        doc = _minimal_document()
        path = tmp_path / "ckpt.json"
        save_checkpoint(doc, str(path))
        assert load_checkpoint(str(path)) == doc

    def test_save_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "ckpt.json"
        save_checkpoint(_minimal_document(), str(path))
        assert path.exists()

    def test_save_leaves_no_temp_files(self, tmp_path):
        save_checkpoint(_minimal_document(), str(tmp_path / "c.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_load_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(_minimal_document(), str(path))
        path.write_text(path.read_text()[:-30])
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(path))

    def test_load_rejects_bitflipped_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(_minimal_document(), str(path))
        text = path.read_text().replace('"now":7', '"now":9')
        path.write_text(text)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(str(path))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_file_bytes_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(_minimal_document(), str(a))
        save_checkpoint(_minimal_document(), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSerializableProtocol:
    def test_is_serializable(self):
        class Yes:
            def serialize_state(self):
                return {}

            def deserialize_state(self, state):
                pass

        class No:
            pass

        assert is_serializable(Yes())
        assert not is_serializable(No())
        assert_serializable("yes", Yes())
        with pytest.raises(CheckpointError, match="no"):
            assert_serializable("no", No())


class TestDescribe:
    def test_describe_summarises(self):
        text = describe(_minimal_document())
        assert "tick:    7" in text
        assert "objects: 1" in text
        assert "meta.label: t" in text


class TestNodeCheckpoint:
    """The real thing: warm, drain, checkpoint, restore, re-checkpoint."""

    @pytest.fixture(scope="class")
    def warm_checkpoint(self):
        from repro.harness.runner import _fixed_load_plan, build_node
        from repro.system.presets import gem5_default

        config = gem5_default()
        node = build_node(config, "testpmd", seed=3)
        node.attach_loadgen()
        node.start()
        node.warmup_and_reset(_fixed_load_plan(config, 256, True, None))
        return config, node.checkpoint(extra_meta={"phase": "warmup"})

    def test_checkpoint_is_sealed_and_carries_provenance(
            self, warm_checkpoint):
        _config, doc = warm_checkpoint
        verify(doc)
        assert doc["meta"]["seed"] == 3
        assert doc["meta"]["phase"] == "warmup"
        assert "nic0" in doc["objects"]
        assert "app" in doc["objects"]

    def test_restore_then_recheckpoint_is_bit_identical(
            self, warm_checkpoint):
        from repro.harness.runner import build_node

        config, doc = warm_checkpoint
        node = build_node(config, "testpmd", seed=3)
        node.attach_loadgen()
        node.restore(doc)
        replica = node.checkpoint(extra_meta={"phase": "warmup"})
        assert replica["digest"] == doc["digest"]

    def test_restore_rejects_wrong_seed(self, warm_checkpoint):
        from repro.harness.runner import build_node

        config, doc = warm_checkpoint
        node = build_node(config, "testpmd", seed=4)
        node.attach_loadgen()
        with pytest.raises(CheckpointError):
            node.restore(doc)

    def test_restore_rejects_wrong_topology(self, warm_checkpoint):
        from repro.harness.runner import build_node

        config, doc = warm_checkpoint
        node = build_node(config, "touchfwd", seed=3)
        node.attach_loadgen()
        with pytest.raises(CheckpointError):
            node.restore(doc)

    def test_checkpoint_refused_while_traffic_is_live(self):
        from repro.harness.runner import build_node
        from repro.loadgen.ether_load_gen import SyntheticConfig
        from repro.system.presets import gem5_default

        node = build_node(gem5_default(), "testpmd", seed=0)
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(
            packet_size=256, rate_gbps=5.0, count=None,
            expect_responses=True))
        node.run_us(50.0)
        with pytest.raises(CheckpointError, match="not checkpoint-ready"):
            node.checkpoint()

    def test_refusal_names_what_still_holds_packets(self):
        """With the load generator stopped mid-flight, the refusal names
        the components that still hold frames and how many."""
        from repro.harness.runner import build_node
        from repro.loadgen.ether_load_gen import SyntheticConfig
        from repro.system.presets import gem5_default

        node = build_node(gem5_default(), "testpmd", seed=0)
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(
            packet_size=256, rate_gbps=5.0, count=None,
            expect_responses=True))
        node.run_us(50.0)
        loadgen.stop()
        with pytest.raises(CheckpointError,
                           match="not checkpoint-ready") as refused:
            node.checkpoint()
        assert re.search(r"packets are still held: .*\b(nic0|link0) [1-9]",
                         str(refused.value))


class TestFabricCheckpoint:
    """The node's refusal and identity cases, on a fabric."""

    @pytest.fixture(scope="class")
    def warm_checkpoint(self):
        from repro.harness.fabric import fabric_warm_start
        from repro.system.presets import gem5_default

        config = gem5_default()
        spec = fabric_warm_start(config, "leaf-spine", "dpdk", seed=3)
        fabric = spec.build()
        spec.warm(fabric)
        return config, fabric.checkpoint(extra_meta=spec.meta)

    def test_restore_rejects_wrong_seed(self, warm_checkpoint):
        from repro.harness.fabric import build_fabric_rig

        config, doc = warm_checkpoint
        assert doc["meta"]["app"] == "fabric"
        fabric = build_fabric_rig(config, "leaf-spine", "dpdk", seed=4)
        with pytest.raises(CheckpointError, match="seed"):
            fabric.restore(doc)

    def test_checkpoint_refused_while_traffic_is_live(self):
        from repro.harness.fabric import build_fabric_rig
        from repro.loadgen.flowgen import FlowGenConfig
        from repro.system.presets import gem5_default

        fabric = build_fabric_rig(gem5_default(), "leaf-spine", "dpdk")
        fabric.generator.start(FlowGenConfig(load=0.3, n_flows=200))
        fabric.run_us(5.0)
        with pytest.raises(CheckpointError, match="not checkpoint-ready"):
            fabric.checkpoint()
