"""Cache maintenance (stats/prune) and concurrent-writer atomicity."""

import json
import multiprocessing
import os
import time

import pytest

from repro.study.cache import (
    CacheEntry,
    ResultCache,
    cache_key,
    code_fingerprint,
    prune,
    scan_entries,
    scan_strays,
    usage_stats,
)


def fill(root, n, *, t0=1_000_000.0, step=10.0, size=0):
    """n entries with mtimes t0, t0+step, ...; optional payload padding."""
    cache = ResultCache(root=root)
    keys = []
    for i in range(n):
        key = cache_key("maint-test", index=i)
        payload = {"index": i}
        if size:
            payload["pad"] = "x" * size
        cache.put(key, payload)
        path = cache._path(key)
        os.utime(path, (t0 + i * step, t0 + i * step))
        keys.append(key)
    return cache, keys


class TestScan:
    def test_empty_root(self, tmp_path):
        assert scan_entries(tmp_path / "nope") == []
        assert scan_strays(tmp_path / "nope") == []

    def test_entries_sorted_oldest_first(self, tmp_path):
        _, keys = fill(tmp_path, 5)
        entries = scan_entries(tmp_path)
        assert [e.key for e in entries] == keys
        assert all(isinstance(e, CacheEntry) for e in entries)

    def test_strays_found(self, tmp_path):
        fill(tmp_path, 1)
        shard = next(tmp_path.glob("??"))
        (shard / "deadbeef.tmp").write_text("partial")
        assert len(scan_strays(tmp_path)) == 1


class TestUsageStats:
    def test_empty(self, tmp_path):
        doc = usage_stats(tmp_path)
        assert doc["entries"] == 0
        assert doc["total_bytes"] == 0
        assert doc["current_fingerprint"] == code_fingerprint()
        assert "oldest_age_s" not in doc

    def test_populated(self, tmp_path):
        fill(tmp_path, 3, t0=1000.0, step=100.0)
        doc = usage_stats(tmp_path, now=2000.0)
        assert doc["entries"] == 3
        assert doc["total_bytes"] > 0
        assert doc["oldest_age_s"] == 1000.0
        assert doc["newest_age_s"] == 800.0
        assert doc["largest_bytes"] >= doc["total_bytes"] // 3

    def test_counts_strays(self, tmp_path):
        fill(tmp_path, 1)
        shard = next(tmp_path.glob("??"))
        (shard / "dead.tmp").write_text("x")
        assert usage_stats(tmp_path)["stray_tempfiles"] == 1


class TestPrune:
    def test_requires_a_criterion(self, tmp_path):
        with pytest.raises(ValueError):
            prune(tmp_path)

    def test_age_eviction(self, tmp_path):
        _, keys = fill(tmp_path, 4, t0=1000.0, step=100.0)
        # now=1500: ages are 500, 400, 300, 200 — cut at 350
        report = prune(tmp_path, max_age_s=350.0, now=1500.0)
        assert report["removed"] == 2
        assert report["kept"] == 2
        survivors = {e.key for e in scan_entries(tmp_path)}
        assert survivors == set(keys[2:])

    def test_size_cap_evicts_oldest_first(self, tmp_path):
        fill(tmp_path, 4, size=1000)
        entries = scan_entries(tmp_path)
        per_entry = entries[0].size
        # cap at ~2.5 entries: the two oldest must go
        report = prune(tmp_path,
                       max_total_bytes=int(per_entry * 2.5))
        assert report["removed"] == 2
        survivors = {e.key for e in scan_entries(tmp_path)}
        assert survivors == {e.key for e in entries[2:]}
        assert report["kept_bytes"] <= per_entry * 2.5

    def test_age_and_size_compose(self, tmp_path):
        fill(tmp_path, 6, t0=1000.0, step=100.0, size=500)
        per_entry = scan_entries(tmp_path)[0].size
        report = prune(tmp_path, max_age_s=350.0,
                       max_total_bytes=per_entry * 2, now=1600.0)
        # age pass removes the 3 older than 350s; the size cap then
        # trims the survivors to 2
        assert report["removed"] == 4
        assert report["kept"] == 2

    def test_dry_run_deletes_nothing(self, tmp_path):
        fill(tmp_path, 3)
        report = prune(tmp_path, max_age_s=0.0, dry_run=True)
        assert report["dry_run"] is True
        assert report["removed"] == 3
        assert len(scan_entries(tmp_path)) == 3

    def test_strays_always_removed(self, tmp_path):
        fill(tmp_path, 2)
        shard = next(tmp_path.glob("??"))
        (shard / "dead.tmp").write_text("x")
        report = prune(tmp_path, max_age_s=10**9, now=1_000_100.0)
        assert report["removed"] == 0
        assert report["removed_strays"] == 1
        assert scan_strays(tmp_path) == []

    def test_emptied_shards_are_removed(self, tmp_path):
        fill(tmp_path, 3)
        prune(tmp_path, max_age_s=0.0)
        assert list(tmp_path.glob("??")) == []

    def test_pruned_key_is_a_miss_then_recomputable(self, tmp_path):
        cache, keys = fill(tmp_path, 1)
        prune(tmp_path, max_age_s=0.0)
        fresh = ResultCache(root=tmp_path)
        assert fresh.get(keys[0]) is None
        fresh.put(keys[0], {"index": 0})
        assert fresh.get(keys[0]) == {"index": 0}


# -- concurrent same-key writers ----------------------------------------------
#
# ``ResultCache.put`` promises atomicity via tempfile + os.replace.  Two
# batch processes sharing one store (two ``study all`` runs started
# side by side) can race on one key.  Readers must only ever observe a
# complete payload from exactly one writer — never a torn or
# interleaved document.


def _hammer_writes(root, key, writer_id, rounds, barrier):
    """One writer process: rewrite ``key`` with a self-consistent doc.

    The payload encodes its writer in two redundant ways (the id and a
    blob whose length is derived from it); a torn write would break
    the correspondence.
    """
    cache = ResultCache(root=root)
    payload = {"writer": writer_id,
               "blob": chr(ord("a") + writer_id) * (2000 + writer_id)}
    barrier.wait()
    for _ in range(rounds):
        cache.put(key, payload)


def _consistent(payload, n_writers):
    writer = payload.get("writer")
    if not isinstance(writer, int) or not 0 <= writer < n_writers:
        return False
    expected = chr(ord("a") + writer) * (2000 + writer)
    return payload.get("blob") == expected


class TestConcurrentPruners:
    def test_vanished_entries_counted_as_already_gone(
            self, tmp_path, monkeypatch):
        # recreate the race deterministically: prune works from a
        # stale scan naming two files a concurrent sweep already
        # deleted — they are 'already_gone', not errors, not our work
        fill(tmp_path, 4)
        stale = scan_entries(tmp_path)
        stale[0].path.unlink()
        stale[1].path.unlink()
        monkeypatch.setattr("repro.study.cache.scan_entries",
                            lambda root: list(stale))
        report = prune(tmp_path, max_age_s=0.0, now=2_000_000.0)
        assert report["removed"] == 2
        assert report["already_gone"] == 2
        assert report["removed_bytes"] \
            == sum(e.size for e in stale[2:])

    def test_racing_prunes_both_exit_cleanly(self, tmp_path):
        fill(tmp_path, 30)

        results = multiprocessing.Queue()

        def sweep():
            try:
                doc = prune(tmp_path, max_age_s=0.0,
                            now=2_000_000.0)
            except Exception as exc:  # pragma: no cover — the bug
                results.put(("error", repr(exc)))
            else:
                results.put(("ok", doc))

        procs = [multiprocessing.Process(target=sweep)
                 for _ in range(3)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        reports = [results.get(timeout=10) for _ in procs]
        assert all(kind == "ok" for kind, _ in reports), reports
        removed = sum(doc["removed"] for _, doc in reports)
        gone = sum(doc["already_gone"] for _, doc in reports)
        # every entry deleted exactly once across the fleet; a file a
        # racer lost is 'already_gone', never double-counted work
        assert removed == 30
        assert removed + gone \
            == sum(doc["scanned"] for _, doc in reports)
        assert scan_entries(tmp_path) == []

    def test_already_gone_is_reported_in_the_document(self, tmp_path):
        fill(tmp_path, 1)
        report = prune(tmp_path, max_age_s=0.0, now=2_000_000.0)
        assert "already_gone" in report
        assert report["already_gone"] == 0
        report = prune(tmp_path, max_age_s=0.0, dry_run=True)
        assert report["already_gone"] == 0


class TestConcurrentWriters:
    def test_readers_never_see_torn_payloads(self, tmp_path):
        n_writers, rounds = 4, 150
        key = cache_key("maint-test", race=True)
        cache = ResultCache(root=tmp_path)
        # prime the key so readers always have something to observe
        cache.put(key, {"writer": 0, "blob": "a" * 2000})

        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(n_writers + 1)
        writers = [
            ctx.Process(target=_hammer_writes,
                        args=(str(tmp_path), key, i, rounds, barrier))
            for i in range(n_writers)]
        for proc in writers:
            proc.start()
        barrier.wait()  # release every writer at once

        observations = 0
        deadline = time.monotonic() + 60
        while any(p.is_alive() for p in writers):
            payload = cache.get(key)
            # the key was primed and put() is atomic: a reader can
            # never observe absence, let alone a torn document
            assert payload is not None
            assert _consistent(payload, n_writers), payload
            observations += 1
            if time.monotonic() > deadline:
                break
        for proc in writers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert observations > 0

        final = cache.get(key)
        assert _consistent(final, n_writers)
        # the winning file is byte-for-byte one writer's document
        raw = cache._path(key).read_text()
        assert json.loads(raw) == final

    def test_no_stray_tempfiles_after_race(self, tmp_path):
        n_writers, rounds = 3, 60
        key = cache_key("maint-test", race="strays")
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(n_writers)
        writers = [
            ctx.Process(target=_hammer_writes,
                        args=(str(tmp_path), key, i, rounds, barrier))
            for i in range(n_writers)]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        # every mkstemp file was either replaced into place or
        # unlinked; nothing leaks for prune to sweep
        assert scan_strays(tmp_path) == []
