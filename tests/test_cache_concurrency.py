"""Concurrency and crash-safety tests of the shared result cache.

``ResultCache`` is a genuinely shared store: pool workers, concurrent
CLI invocations and ``read-repro cache gc`` all read and write one
directory tree.  These tests pin the properties that make that safe:

* ``has()`` is a *validated* probe — a zero-byte or truncated entry (a
  writer killed mid-``store``, a full disk) reports as a miss, so
  campaign resume's recall count can never be inflated by a torn file;
* concurrent forked writers and readers never produce a torn read:
  every ``load`` returns either ``None`` or a bit-valid result;
* ``clear()`` racing live writers never raises;
* a SIGKILLed writer leaves only an orphaned ``.tmp`` file — invisible
  to ``__len__``/``load``/``has`` — which ``gc()`` sweeps; and ``gc``'s
  LRU eviction (recency = mtime, refreshed per hit) enforces an exact
  size bound.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.engine import ResultCache, SimJob, get_backend
from repro.hw.variations import PAPER_CORNERS

pytestmark = pytest.mark.concurrency

#: Fork, not spawn: the workers must inherit closures and the loaded
#: repro package; every target below runs on Linux CI.
_MP = multiprocessing.get_context("fork")


def tiny_job(seed=0):
    rng = np.random.default_rng(seed)
    return SimJob(
        acts=rng.integers(0, 64, size=(5, 8)),
        weights=rng.integers(-32, 32, size=(8, 4)),
        corners=PAPER_CORNERS[:1],
        group_size=2,
    )


@pytest.fixture(scope="module")
def computed():
    """Two (job, result) pairs computed once for the whole module."""
    backend = get_backend("reference")
    jobs = [tiny_job(seed) for seed in (1, 2)]
    return [(job, backend.run(job)) for job in jobs]


def assert_bit_valid(loaded, expected):
    assert set(loaded) == set(expected)
    for name in expected:
        assert loaded[name].ter == expected[name].ter
        assert np.array_equal(loaded[name].outputs, expected[name].outputs)


# ---------------------------------------------------------------------- #
# Validated has(): torn entries probe as misses
# ---------------------------------------------------------------------- #
class TestValidatedHas:
    def test_valid_entry_probes_as_hit(self, tmp_path, computed):
        cache = ResultCache(tmp_path)
        job, result = computed[0]
        cache.store(job.key(), job, result)
        assert cache.has(job.key())
        assert_bit_valid(cache.load(job.key(), job), result)

    def test_zero_byte_entry_is_a_miss(self, tmp_path, computed):
        # What a writer killed between open() and the first write — or a
        # full disk — leaves behind after a torn rename elsewhere.
        cache = ResultCache(tmp_path)
        job, result = computed[0]
        path = cache.store(job.key(), job, result)
        path.write_bytes(b"")
        assert not cache.has(job.key())
        assert cache.load(job.key(), job) is None

    def test_truncated_entry_is_a_miss(self, tmp_path, computed):
        cache = ResultCache(tmp_path)
        job, result = computed[0]
        path = cache.store(job.key(), job, result)
        path.write_bytes(b"\x00" * 10)  # right-sized garbage, wrong magic
        assert not cache.has(job.key())
        assert cache.load(job.key(), job) is None

    def test_header_only_entry_is_a_miss(self, tmp_path, computed):
        # Correct magic but nothing behind it: has() (a cheap probe) may
        # not detect this, but the full load must - and must clean up.
        cache = ResultCache(tmp_path)
        job, result = computed[0]
        path = cache.store(job.key(), job, result)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.load(job.key(), job) is None
        assert not path.exists()  # corrupt entry was discarded

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert not ResultCache(tmp_path).has("ab" * 32)


# ---------------------------------------------------------------------- #
# Cross-process contention
# ---------------------------------------------------------------------- #
class TestContention:
    N_WRITERS = 3
    ROUNDS = 20

    def test_forked_writers_tight_readers_no_torn_reads(self, tmp_path, computed):
        cache = ResultCache(tmp_path)

        def writer(worker_seed):
            rng = np.random.default_rng(worker_seed)
            store = ResultCache(tmp_path)
            for _ in range(self.ROUNDS):
                job, result = computed[int(rng.integers(len(computed)))]
                store.store(job.key(), job, result)

        writers = [
            _MP.Process(target=writer, args=(seed,)) for seed in range(self.N_WRITERS)
        ]
        for proc in writers:
            proc.start()
        # Tight reader loop in the parent while the writers hammer the
        # same two keys: every load is either a miss or bit-valid.
        observed_hit = False
        while any(proc.is_alive() for proc in writers):
            for job, expected in computed:
                loaded = cache.load(job.key(), job)
                if loaded is not None:
                    assert_bit_valid(loaded, expected)
                    observed_hit = True
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        assert observed_hit
        for job, expected in computed:
            assert_bit_valid(cache.load(job.key(), job), expected)

    def test_clear_under_concurrent_writers_never_raises(self, tmp_path, computed):
        cache = ResultCache(tmp_path)

        def writer():
            store = ResultCache(tmp_path)
            job, result = computed[0]
            for _ in range(self.ROUNDS):
                store.store(job.key(), job, result)

        writers = [_MP.Process(target=writer) for _ in range(self.N_WRITERS)]
        for proc in writers:
            proc.start()
        cleared = 0
        while any(proc.is_alive() for proc in writers):
            cleared += cache.clear()  # must never raise mid-write
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        assert cleared >= 1
        # the survivors (if any) are valid entries
        job, expected = computed[0]
        loaded = cache.load(job.key(), job)
        if loaded is not None:
            assert_bit_valid(loaded, expected)


# ---------------------------------------------------------------------- #
# Crash safety and garbage collection
# ---------------------------------------------------------------------- #
class TestCrashSafetyAndGc:
    def test_sigkilled_writer_leaves_only_an_orphan_tmp(self, tmp_path, computed):
        cache = ResultCache(tmp_path)
        job, result = computed[0]

        def victim():
            store = ResultCache(tmp_path)
            # Hook the tmp-write path: die at the atomic-rename moment,
            # after the temp file is fully written.
            os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)
            store.store(job.key(), job, result)

        proc = _MP.Process(target=victim)
        proc.start()
        proc.join(30)
        assert proc.exitcode == -signal.SIGKILL

        # The orphan is invisible to every read surface...
        assert len(cache) == 0
        assert not cache.has(job.key())
        assert cache.load(job.key(), job) is None
        orphans = list(cache.root.glob("*/.*.tmp"))
        assert len(orphans) == 1
        # ...the victim's shard lock died with it (gc must not hang),
        # and one gc pass sweeps the orphan.
        report = cache.gc()
        assert report.tmp_removed == 1
        assert report.evicted == 0
        assert not list(cache.root.glob("*/.*.tmp"))
        assert cache.stats().tmp_files == 0
        # the store still works after the crash
        cache.store(job.key(), job, result)
        assert_bit_valid(cache.load(job.key(), job), result)

    def test_gc_lru_eviction_is_size_bounded_and_oldest_first(
        self, tmp_path, computed
    ):
        cache = ResultCache(tmp_path)
        backend = get_backend("reference")
        jobs = [tiny_job(seed) for seed in range(10, 14)]
        sizes = {}
        for age, job in enumerate(jobs):
            path = cache.store(job.key(), job, backend.run(job))
            sizes[job.key()] = path.stat().st_size
            os.utime(path, (1_000_000 + age, 1_000_000 + age))  # oldest first
        # A load refreshes recency: touch the oldest entry so it becomes
        # the newest and survives the sweep.
        cache.load(jobs[0].key(), jobs[0])
        budget = sizes[jobs[0].key()] + sizes[jobs[3].key()]
        report = cache.gc(max_bytes=budget)
        assert report.tmp_removed == 0
        assert report.evicted == 2  # jobs[1] and jobs[2]: the LRU pair
        assert report.bytes <= budget
        assert report.entries == len(cache) == 2
        assert cache.has(jobs[0].key()) and cache.has(jobs[3].key())
        assert not cache.has(jobs[1].key()) and not cache.has(jobs[2].key())

    def test_gc_size_bound_from_environment(self, tmp_path, computed, monkeypatch):
        cache = ResultCache(tmp_path)
        job, result = computed[0]
        cache.store(job.key(), job, result)
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1")
        report = cache.gc()
        assert report.evicted == 1 and len(cache) == 0

    def test_gc_without_bound_only_sweeps_orphans(self, tmp_path, computed):
        cache = ResultCache(tmp_path)
        for job, result in computed:
            cache.store(job.key(), job, result)
        report = cache.gc()
        assert report.evicted == 0 and report.tmp_removed == 0
        assert report.entries == len(cache) == len(computed)
