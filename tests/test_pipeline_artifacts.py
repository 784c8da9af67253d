"""Tests for the on-disk content-addressed artifact store."""

import os
import pickle

import pytest

from repro.pipeline.artifacts import (
    CACHE_DIR_ENV,
    CACHE_LIMIT_ENV,
    ArtifactStore,
    resolve_store,
)


class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("abc", {"rows": [1, 2, 3]})
        assert "abc" in store
        assert store.get("abc") == {"rows": [1, 2, 3]}
        assert store.hits == 1

    def test_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("missing") is None
        assert store.misses == 1

    def test_corrupt_entry_self_heals(self, tmp_path):
        store = ArtifactStore(tmp_path)
        (tmp_path / "bad.pkl").write_bytes(b"not a pickle")
        assert store.get("bad") is None
        assert not (tmp_path / "bad.pkl").exists()

    def test_keys_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k1", 1)
        store.put("k2", 2)
        assert store.keys() == ["k1", "k2"]
        assert len(store) == 2
        store.clear()
        assert len(store) == 0

    def test_lru_eviction_by_size(self, tmp_path):
        payload = b"x" * 4096
        store = ArtifactStore(tmp_path, max_bytes=3 * 5000)
        for index in range(3):
            store.put(f"k{index}", payload)
            # Distinct, strictly increasing mtimes so LRU order is stable on
            # filesystems with coarse timestamp resolution.
            os.utime(tmp_path / f"k{index}.pkl", (1000 + index, 1000 + index))
        # Touch k0 (now most recent), then overflow: k1 must be evicted.
        os.utime(tmp_path / "k0.pkl", (2000, 2000))
        store.put("k3", payload)
        assert "k0" in store
        assert "k1" not in store
        assert "k2" in store
        assert "k3" in store

    def test_rejects_nonpositive_bound(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, max_bytes=0)

    def test_limit_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_LIMIT_ENV, "1")
        assert ArtifactStore(tmp_path).max_bytes == 1024 * 1024
        monkeypatch.setenv(CACHE_LIMIT_ENV, "bogus")
        assert ArtifactStore(tmp_path).max_bytes == 256 * 1024 * 1024

    @pytest.mark.parametrize("raw", ["inf", "nan", "0", "-5"])
    def test_limit_that_is_not_a_positive_number_means_default(
        self, tmp_path, monkeypatch, raw
    ):
        monkeypatch.setenv(CACHE_LIMIT_ENV, raw)
        assert ArtifactStore(tmp_path).max_bytes == 256 * 1024 * 1024
        store = resolve_store(tmp_path / raw)  # used to raise OverflowError on inf
        assert store is not None and store.max_bytes == 256 * 1024 * 1024

    def test_load_returns_the_stored_bytes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("abc", [1, 2], payload=pickle.dumps([1, 2]))
        value, payload = store.load("abc")
        assert value == [1, 2]
        assert payload == (tmp_path / "abc.pkl").read_bytes()
        assert store.load("missing") is None
        assert (store.hits, store.misses) == (1, 1)


class TestResolveStore:
    def test_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert resolve_store(enabled=False) is None

    def test_unset_environment_means_no_store(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert resolve_store() is None

    def test_empty_environment_means_no_store(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "")
        assert resolve_store() is None

    def test_explicit_directory_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        store = resolve_store(tmp_path / "explicit")
        assert store is not None
        assert store.root == tmp_path / "explicit"

    def test_environment_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        store = resolve_store()
        assert store is not None
        assert store.root == tmp_path / "env"
