"""LRU memory-tier invariants and the tiered (memory + disk) cache.

The hot tier is a bounded LRU over parsed payloads, sized as their
encoded bytes.  These tests pin
the hard invariants — capacity is never exceeded (entries *and* bytes),
eviction order matches recency, evicted entries are still served from
disk — and that the counters reconcile with the operations performed.
"""

import os

import pytest

from repro.diagnostics import DiagnosticEngine
from repro.observability import StatisticsRegistry, use_statistics
from repro.service.cache import encode_payload
from repro.service.tiers import MemoryTier, TieredCompilationCache

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62
KEY_C = "cc" + "0" * 62
KEY_D = "dd" + "0" * 62


def blob(size):
    return b"x" * size


class TestMemoryTierLRU:
    def test_get_returns_stored_bytes(self):
        tier = MemoryTier(max_entries=4)
        tier.put(KEY_A, b"payload")
        assert tier.get(KEY_A) == b"payload"

    def test_miss_returns_none(self):
        tier = MemoryTier(max_entries=4)
        assert tier.get(KEY_A) is None

    def test_entry_capacity_never_exceeded(self):
        tier = MemoryTier(max_entries=2)
        for i, key in enumerate([KEY_A, KEY_B, KEY_C, KEY_D]):
            tier.put(key, blob(8))
            assert tier.stats()["entries"] <= 2

    def test_byte_capacity_never_exceeded(self):
        tier = MemoryTier(max_entries=100, max_bytes=100)
        for key in [KEY_A, KEY_B, KEY_C, KEY_D]:
            tier.put(key, blob(40))
            assert tier.stats()["bytes"] <= 100

    def test_eviction_order_is_least_recently_used(self):
        tier = MemoryTier(max_entries=2)
        tier.put(KEY_A, blob(4))
        tier.put(KEY_B, blob(4))
        # Touch A so B becomes the LRU victim.
        tier.get(KEY_A)
        evicted = tier.put(KEY_C, blob(4))
        assert evicted == [KEY_B]
        assert tier.get(KEY_A) is not None
        assert tier.get(KEY_B) is None

    def test_keys_ordered_lru_to_mru(self):
        tier = MemoryTier(max_entries=4)
        tier.put(KEY_A, blob(4))
        tier.put(KEY_B, blob(4))
        tier.put(KEY_C, blob(4))
        tier.get(KEY_A)  # A becomes most-recent
        assert tier.keys() == [KEY_B, KEY_C, KEY_A]

    def test_byte_accounting_tracks_replacement(self):
        tier = MemoryTier(max_entries=4, max_bytes=1000)
        tier.put(KEY_A, blob(100))
        tier.put(KEY_A, blob(10))
        assert tier.stats()["bytes"] == 10
        assert tier.stats()["entries"] == 1

    def test_oversize_payload_refused(self):
        tier = MemoryTier(max_entries=4, max_bytes=10)
        tier.put(KEY_A, blob(4))
        evicted = tier.put(KEY_B, blob(100))
        assert evicted == []
        assert tier.get(KEY_B) is None
        # Refusal must not evict resident entries to make room.
        assert tier.get(KEY_A) is not None
        assert tier.stats()["refused"] == 1

    def test_eviction_counter_reconciles(self):
        tier = MemoryTier(max_entries=2)
        for key in [KEY_A, KEY_B, KEY_C, KEY_D]:
            tier.put(key, blob(4))
        stats = tier.stats()
        # 4 puts into 2 slots: exactly 2 evictions, 2 residents.
        assert stats["evictions"] == 2
        assert stats["entries"] == 2

    def test_invalidate_and_clear(self):
        tier = MemoryTier(max_entries=4)
        tier.put(KEY_A, blob(4))
        tier.put(KEY_B, blob(4))
        tier.invalidate(KEY_A)
        assert tier.get(KEY_A) is None
        tier.clear()
        assert tier.stats()["entries"] == 0
        assert tier.stats()["bytes"] == 0


class TestTieredCompilationCache:
    @pytest.fixture
    def cache(self, tmp_path):
        return TieredCompilationCache(
            str(tmp_path / "cache"),
            engine=DiagnosticEngine(),
            mem_entries=2,
            mem_bytes=1 << 20,
        )

    def test_store_then_load_hits_memory(self, cache):
        cache.store(KEY_A, {"latency": 9})
        assert cache.load(KEY_A) == {"latency": 9}
        assert cache.stats.mem_hits == 1
        assert cache.stats.hits == 1

    def test_memory_hit_returns_fresh_object(self, cache):
        cache.store(KEY_A, {"nested": [1, 2]})
        first = cache.load(KEY_A)
        first["nested"].append(99)
        # Mutating one hit must not poison the next.
        assert cache.load(KEY_A) == {"nested": [1, 2]}

    def test_evicted_entry_served_from_disk_and_repromoted(self, cache):
        cache.store(KEY_A, "a")
        cache.store(KEY_B, "b")
        cache.store(KEY_C, "c")  # evicts A from the 2-slot memory tier
        assert cache.mem.get(KEY_A) is None
        before = cache.stats.mem_hits
        assert cache.load(KEY_A) == "a"  # disk hit, promotes back
        assert cache.stats.mem_hits == before
        assert cache.mem.get(KEY_A) is not None
        assert cache.load(KEY_A) == "a"
        assert cache.stats.mem_hits == before + 1

    def test_counters_reconcile_with_operations(self, tmp_path):
        registry = StatisticsRegistry()
        with use_statistics(registry):
            cache = TieredCompilationCache(
                str(tmp_path / "cache"),
                engine=DiagnosticEngine(),
                mem_entries=2,
            )
            cache.store(KEY_A, "a")
            cache.store(KEY_B, "b")
            cache.load(KEY_A)  # mem hit
            cache.load(KEY_B)  # mem hit
            cache.store(KEY_C, "c")  # evicts the LRU resident
            cache.load(KEY_C)  # mem hit
            cache.load("ee" + "0" * 62)  # full miss
        counters = registry.group("cache")
        assert counters["mem_hits"] == 3
        assert counters["mem_stores"] == 3
        assert counters["mem_evictions"] == 1
        assert counters["misses"] == 1
        assert cache.stats.mem_hits == 3
        assert cache.stats.hits == 3
        assert cache.stats.misses == 1
        assert cache.mem.stats()["evictions"] == 1

    def test_memory_serves_when_disk_entry_corrupted(self, cache):
        cache.store(KEY_A, "resident")
        path = cache.disk.entry_path(KEY_A)
        with open(path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            fh.truncate(fh.tell() - 3)
        # Hot tier still answers; the torn disk entry is never touched.
        assert cache.load(KEY_A) == "resident"

    def test_disk_corruption_after_eviction_degrades_to_miss(self, cache):
        cache.store(KEY_A, "a")
        path = cache.disk.entry_path(KEY_A)
        cache.invalidate(KEY_A)  # drop the memory copy
        with open(path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            fh.truncate(fh.tell() - 3)
        assert cache.load(KEY_A) is None

    def test_clear_empties_both_tiers(self, cache):
        cache.store(KEY_A, "a")
        cache.clear()
        assert cache.load(KEY_A) is None
        assert cache.mem.stats()["entries"] == 0

    def test_contains_checks_either_tier(self, cache):
        cache.store(KEY_A, "a")
        assert cache.contains(KEY_A)
        cache.invalidate(KEY_A)  # memory only; disk copy remains
        assert cache.contains(KEY_A)
        assert not cache.contains(KEY_B)

    def test_shares_disk_stats_handle(self, cache):
        cache.store(KEY_A, "a")
        assert cache.stats is cache.disk.stats
        assert cache.stats.stores == 1

    def test_disk_stats_reports_memory_tier(self, cache):
        cache.store(KEY_A, "a")
        stats = cache.disk_stats()
        assert stats["memory"]["entries"] == 1
        assert stats["memory"]["bytes"] == len(encode_payload("a"))
