"""Unit tests for the content-addressed artifact cache."""

import json

import pytest

from repro.storage.artifacts import (
    ARTIFACTS_CONTAINER,
    ArtifactStore,
    artifact_key,
    canonical_json,
    content_digest,
    open_backing_store,
)
from repro.storage.documentdb import DocumentStore
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

from tests.helpers import count_cache_writes


def make_frame(values=(1.0, 2.0, 3.0), region="region-0", backup_start=0):
    frame = LoadFrame(5)
    metadata = ServerMetadata(
        server_id="srv-1", region=region, default_backup_start=backup_start
    )
    frame.add_server(metadata, LoadSeries.from_values(list(values)))
    return frame


class TestArtifactKey:
    def test_key_is_stable(self):
        key_a = artifact_key("features", "abc", {"bound": 10, "threshold": 0.9})
        key_b = artifact_key("features", "abc", {"threshold": 0.9, "bound": 10})
        assert key_a == key_b
        assert key_a.startswith("features-")

    def test_key_changes_with_stage_input_and_params(self):
        base = artifact_key("features", "abc", {"bound": 10})
        assert artifact_key("train", "abc", {"bound": 10}) != base
        assert artifact_key("features", "abd", {"bound": 10}) != base
        assert artifact_key("features", "abc", {"bound": 11}) != base


class TestFrameContentHash:
    def test_hash_is_deterministic_and_order_insensitive(self):
        frame_a = LoadFrame(5)
        frame_b = LoadFrame(5)
        meta_1 = ServerMetadata(server_id="a")
        meta_2 = ServerMetadata(server_id="b")
        series = LoadSeries.from_values([1.0, 2.0])
        frame_a.add_server(meta_1, series)
        frame_a.add_server(meta_2, series)
        frame_b.add_server(meta_2, series)
        frame_b.add_server(meta_1, series)
        assert frame_a.content_hash() == frame_b.content_hash()

    def test_hash_changes_on_value_change(self):
        assert make_frame((1.0, 2.0, 3.0)).content_hash() != make_frame(
            (1.0, 2.0, 3.5)
        ).content_hash()

    def test_hash_changes_on_metadata_change(self):
        assert make_frame(backup_start=0).content_hash() != make_frame(
            backup_start=60
        ).content_hash()


class TestArtifactStoreHitMiss:
    def test_miss_then_hit(self):
        store = ArtifactStore()
        key = artifact_key("features", "hash", {})
        assert store.get(key) is None
        store.put(key, {"value": [1, 2, 3]})
        assert store.get(key) == {"value": [1, 2, 3]}
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.puts == 1
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_content_change_misses(self):
        store = ArtifactStore()
        store.put(artifact_key("features", make_frame((1.0,)).content_hash(), {}), {"x": 1})
        changed_key = artifact_key("features", make_frame((2.0,)).content_hash(), {})
        assert store.get(changed_key) is None

    def test_per_stage_counters(self):
        store = ArtifactStore()
        store.put(artifact_key("a_stage", "h", {}), {"x": 1})
        store.get(artifact_key("a_stage", "h", {}))
        store.get(artifact_key("b_stage", "h", {}))
        assert store.stats.hits_by_stage == {"a_stage": 1}
        assert store.stats.misses_by_stage == {"b_stage": 1}

    def test_invalidate_and_clear(self):
        store = ArtifactStore()
        key = artifact_key("s", "h", {})
        store.put(key, {"x": 1})
        assert store.invalidate(key)
        assert not store.invalidate(key)
        store.put(key, {"x": 1})
        store.clear()
        assert len(store) == 0
        assert store.get(key) is None


class TestCorruptionFallback:
    def test_checksum_mismatch_is_a_miss_and_evicts(self):
        backing = DocumentStore()
        store = ArtifactStore(backing)
        key = artifact_key("features", "h", {})
        store.put(key, {"x": 1})
        # Tamper with the payload without updating the checksum.
        document = backing.get(ARTIFACTS_CONTAINER, key)
        body = dict(document.body)
        body["payload"] = {"x": 2}
        backing.upsert(ARTIFACTS_CONTAINER, key, body)
        assert store.get(key) is None
        assert store.stats.corrupt_entries == 1
        # The corrupt entry was evicted; a fresh put works again.
        store.put(key, {"x": 3})
        assert store.get(key) == {"x": 3}

    def test_garbage_envelope_is_a_miss(self):
        backing = DocumentStore()
        store = ArtifactStore(backing)
        key = artifact_key("features", "h", {})
        backing.upsert(ARTIFACTS_CONTAINER, key, {"not": "an envelope"})
        assert store.get(key) is None
        assert store.stats.corrupt_entries == 1

    def test_failed_eviction_is_recorded_not_swallowed(self):
        # A corrupt entry whose eviction itself fails must still read as a
        # miss, and the failure must be visible in stats rather than
        # silently dropped.
        class StubbornStore(DocumentStore):
            def delete(self, container, key):
                raise RuntimeError("backing store refused the delete")

        backing = StubbornStore()
        store = ArtifactStore(backing)
        key = artifact_key("features", "h", {})
        store.put(key, {"x": 1})
        document = backing.get(ARTIFACTS_CONTAINER, key)
        body = dict(document.body)
        body["payload"] = {"x": 2}
        backing.upsert(ARTIFACTS_CONTAINER, key, body)
        assert store.get(key) is None
        assert store.stats.corrupt_entries == 1
        assert store.stats.failed_evictions == 1
        assert store.stats.as_dict()["failed_evictions"] == 1

    def test_unreadable_persisted_file_recovers(self, tmp_path):
        path = tmp_path / "artifacts.json"
        store = ArtifactStore.at(path)
        key = artifact_key("features", "h", {})
        store.put(key, {"x": 1})
        # Corrupt the JSON file on disk; reopening must not crash -- the bad
        # file is quarantined, the cache starts empty and the caller simply
        # recomputes.
        path.write_text("{ this is not json")
        fresh = ArtifactStore.at(path)
        assert fresh.get(key) is None
        assert (tmp_path / "artifacts.json.corrupt").exists()
        fresh.put(key, {"x": 2})
        assert ArtifactStore.at(path).get(key) == {"x": 2}

    def test_persisted_roundtrip(self, tmp_path):
        path = tmp_path / "artifacts.json"
        ArtifactStore.at(path).put(artifact_key("s", "h", {"p": 1}), {"data": [1.5, 2.5]})
        reopened = ArtifactStore.at(path)
        assert reopened.get(artifact_key("s", "h", {"p": 1})) == {"data": [1.5, 2.5]}


class TestBatchedWrites:
    """One file write per batch; immediate writes outside one; writes that
    fail leave the previous file intact."""

    KEYS = [artifact_key(stage, "h", {}) for stage in ("features", "train_infer", "evaluation")]

    @pytest.fixture()
    def writes(self, monkeypatch):
        return count_cache_writes(monkeypatch)

    def test_batch_writes_once_and_reopens_with_every_entry(self, tmp_path, writes):
        path = tmp_path / "unit.json"
        documents = open_backing_store(path)
        assert writes["unit.json"] == 0 and not path.exists()  # opening writes nothing
        with documents.batch():
            store = ArtifactStore(documents)
            for index, key in enumerate(self.KEYS):
                store.put(key, {"x": index})
            assert writes["unit.json"] == 0 and not path.exists()
        assert writes["unit.json"] == 1
        reopened = ArtifactStore.at(path)
        assert len(reopened) == 3
        assert [reopened.get(key) for key in self.KEYS] == [{"x": 0}, {"x": 1}, {"x": 2}]

    def test_nested_batches_write_once_at_the_outermost_exit(self, tmp_path, writes):
        documents = open_backing_store(tmp_path / "unit.json")
        store = ArtifactStore(documents)
        writes.clear()
        with documents.batch():
            store.put(self.KEYS[0], {"x": 0})
            with documents.batch():
                store.put(self.KEYS[1], {"x": 1})
            assert writes["unit.json"] == 0
            store.put(self.KEYS[2], {"x": 2})
        assert writes["unit.json"] == 1
        assert len(ArtifactStore.at(tmp_path / "unit.json")) == 3

    def test_batch_without_mutations_writes_nothing(self, tmp_path, writes):
        path = tmp_path / "unit.json"
        ArtifactStore.at(path).put(self.KEYS[0], {"x": 0})
        writes.clear()
        documents = open_backing_store(path)
        with documents.batch():
            store = ArtifactStore(documents)  # the container already exists
            assert store.get(self.KEYS[0]) == {"x": 0}
        assert writes["unit.json"] == 0

    def test_exception_inside_batch_still_persists_puts(self, tmp_path):
        path = tmp_path / "unit.json"
        documents = open_backing_store(path)
        with pytest.raises(RuntimeError, match="stage failed"):
            with documents.batch():
                store = ArtifactStore(documents)
                store.put(self.KEYS[0], {"x": 0})
                raise RuntimeError("stage failed")
        assert ArtifactStore.at(path).get(self.KEYS[0]) == {"x": 0}

    def test_put_outside_batch_is_on_disk_immediately(self, tmp_path, writes):
        path = tmp_path / "unit.json"
        store = ArtifactStore.at(path)
        writes.clear()
        for index, key in enumerate(self.KEYS):
            store.put(key, {"x": index})
            assert writes["unit.json"] == index + 1
            assert ArtifactStore.at(path).get(key) == {"x": index}

    def test_persisted_file_is_compact_sorted_json(self, tmp_path):
        path = tmp_path / "unit.json"
        ArtifactStore.at(path).put(self.KEYS[0], {"b": 1, "a": 2})
        text = path.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, separators=(",", ":"), sort_keys=True)

    @pytest.mark.parametrize("stage", ["write", "replace"])
    def test_failed_write_leaves_previous_file_and_no_tmp(self, tmp_path, monkeypatch, stage):
        import os
        from pathlib import Path

        path = tmp_path / "unit.json"
        store = ArtifactStore.at(path)
        store.put(self.KEYS[0], {"x": 0})
        before = path.read_bytes()

        if stage == "write":
            real_write_text = Path.write_text

            def torn_write(self, data, *args, **kwargs):
                real_write_text(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError("disk full")

            monkeypatch.setattr(Path, "write_text", torn_write)
        else:

            def failing_replace(src, dst):
                raise OSError("rename failed")

            monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            store.put(self.KEYS[1], {"x": 1})
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["unit.json"]
        reopened = ArtifactStore.at(path)
        assert reopened.get(self.KEYS[0]) == {"x": 0}
        assert not (tmp_path / "unit.json.corrupt").exists()


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_roundtrip_exact(self):
        value = 0.1 + 0.2
        assert json.loads(canonical_json({"v": value}))["v"] == value

    def test_content_digest_str_bytes_agree(self):
        assert content_digest("abc") == content_digest(b"abc")
