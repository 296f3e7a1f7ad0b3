"""Tests of the shared-memory operand arena (``repro.engine.arena``).

The arena is an exactness-preserving optimization: everything it serves
must round-trip bit-identically, and every failure mode must degrade to
"caller rebuilds locally" rather than an exception.  The lifecycle tests
pin the lease protocol the SIGKILL-safety argument rests on: a segment
lives exactly as long as some *live* pid holds a lease file on it, and
``sweep`` — not the interpreter's resource tracker — reclaims the rest.

The cross-process tests fork (workers must inherit the loaded package)
and carry the ``concurrency`` marker so CI can run them in its isolated
concurrency job alongside the cache crash-safety suite.
"""

import json
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.engine.arena import (
    ARENA_DIR_ENV,
    ARENA_GATE_ENV,
    OperandArena,
    arena_enabled,
    arena_root,
    default_arena,
    reset_default_arena,
)

_MP = multiprocessing.get_context("fork")


@pytest.fixture
def arena(tmp_path):
    a = OperandArena(tmp_path / "arena")
    yield a
    a.release_all()
    a.sweep()


def bundle(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "acts": rng.integers(-128, 127, size=(3, 17, 9), dtype=np.int64),
        "scales": rng.normal(size=(5,)).astype(np.float32),
        "mask": rng.integers(0, 2, size=(4, 4)).astype(bool),
    }


class TestRoundTrip:
    def test_publish_attach_is_bit_identical(self, arena):
        arrays = bundle()
        assert arena.publish("k", arrays, meta={"n": 3}) is True
        entry = arena.attach("k")
        assert entry is not None
        assert entry.meta == {"n": 3}
        assert sorted(entry.arrays) == sorted(arrays)
        for name, arr in arrays.items():
            got = entry.arrays[name]
            assert got.dtype == arr.dtype
            assert got.shape == arr.shape
            np.testing.assert_array_equal(got, arr)

    def test_views_are_read_only(self, arena):
        arena.publish("k", bundle())
        entry = arena.attach("k")
        with pytest.raises(ValueError):
            entry.arrays["acts"][0, 0, 0] = 1

    def test_repeat_attach_is_memoized(self, arena):
        arena.publish("k", bundle())
        assert arena.attach("k") is arena.attach("k")

    def test_publish_is_first_writer_wins(self, arena):
        assert arena.publish("k", bundle(0)) is True
        assert arena.publish("k", bundle(1)) is False
        np.testing.assert_array_equal(
            arena.attach("k").arrays["acts"], bundle(0)["acts"]
        )

    def test_empty_bundle_round_trips(self, arena):
        assert arena.publish("empty", {}, meta={"why": "edge"}) is True
        entry = arena.attach("empty")
        assert entry.arrays == {}
        assert entry.meta == {"why": "edge"}


class TestDegradation:
    def test_attach_missing_key_is_none(self, arena):
        assert arena.attach("never-published") is None

    def test_attach_corrupt_descriptor_is_none(self, arena):
        arena.publish("k", bundle())
        for descriptor in arena.root.glob("*.json"):
            descriptor.write_text("{not json")
        fresh = OperandArena(arena.root)
        assert fresh.attach("k") is None

    def test_degradations_are_counted(self, arena):
        from repro.engine import arena as arena_mod
        from repro.faults.injection_job import drain_runtime_counters

        drain_runtime_counters()  # isolate this test's deltas
        before = arena_mod.arena_error_count()
        arena.publish("k", bundle())
        for descriptor in arena.root.glob("*.json"):
            descriptor.write_text("{not json")
        fresh = OperandArena(arena.root)
        assert fresh.attach("k") is None
        assert arena_mod.arena_error_count() == before + 1
        stats = fresh.stats()
        assert stats.errors == before + 1
        assert f"{before + 1} error(s)" in stats.describe()
        # the degradation rode the runtime-counter drain the engine folds
        assert drain_runtime_counters().get("arena_errors") == 1

    def test_missing_key_is_not_a_degradation(self, arena):
        from repro.engine.arena import arena_error_count

        before = arena_error_count()
        assert arena.attach("never-published") is None
        assert arena_error_count() == before

    def test_descriptor_without_segment_is_none(self, arena, tmp_path):
        # A descriptor naming a segment that no longer exists (host
        # reboot cleared /dev/shm but not the registry dir).
        (arena.root / "deadbeef.json").write_text(
            json.dumps({"key": "k", "segment": "repro-arena-gone", "nbytes": 1})
        )
        assert arena.attach("k") is None

    def test_gate_env_disables_default_arena(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ARENA_DIR_ENV, str(tmp_path / "gated"))
        reset_default_arena()
        monkeypatch.setenv(ARENA_GATE_ENV, "0")
        assert not arena_enabled()
        assert default_arena() is None
        monkeypatch.setenv(ARENA_GATE_ENV, "1")
        assert arena_enabled()
        assert default_arena() is not None
        assert default_arena().root == tmp_path / "gated"
        reset_default_arena()

    def test_arena_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ARENA_DIR_ENV, str(tmp_path / "rooted"))
        assert arena_root() == tmp_path / "rooted"


class TestLifecycle:
    def test_sweep_keeps_leased_segments(self, arena):
        arena.publish("k", bundle())
        arena.attach("k")
        report = arena.sweep()
        assert report.segments_removed == 0
        assert report.segments == 1
        assert arena.stats().segments == 1

    def test_release_then_sweep_reclaims(self, arena):
        arena.publish("k", bundle())
        arena.attach("k")
        arena.release("k")
        report = arena.sweep()
        assert report.segments_removed == 1
        stats = arena.stats()
        assert (stats.segments, stats.bytes, stats.leases) == (0, 0, 0)

    def test_released_views_stay_valid_for_process_life(self, arena):
        # A release_all (reset_default_arena) plus a sweep can run while the
        # memoized fault-free pass still holds views into attached
        # segments.  Releasing must drop the *lease* only: numpy views
        # over the shared buffer do not pin the mapping (no BufferError
        # from SharedMemory.close), so unmapping here would make the
        # next injection read a dangling pointer — this test segfaulted
        # before the mapping was parked until process exit.
        arena.publish("k", bundle())
        view = arena.attach("k").arrays["acts"]
        expected = view.copy()
        arena.release_all()
        arena.sweep()  # no lease left: the segment itself is reclaimed
        np.testing.assert_array_equal(view, expected)
        # the registry really is empty — a fresh attach rebuilds locally
        assert OperandArena(arena.root).attach("k") is None

    def test_release_all_drops_publish_lease_too(self, arena):
        # publish() takes a lease without attach(); release_all must
        # still find it (suffix match), or shutdown would strand it.
        arena.publish("k", bundle())
        arena.release_all()
        assert arena.sweep().segments_removed == 1

    def test_publish_reclaims_orphan_segment(self, arena):
        # A publisher that died mid-write leaves a segment with no
        # descriptor; the next publish of the same key must reclaim it
        # rather than fail on FileExistsError.
        from repro.engine.arena import _open_shm, _segment_name

        shm = _open_shm(_segment_name(arena.root, "k"), create=True, size=64)
        shm.close()
        assert arena.publish("k", bundle()) is True
        np.testing.assert_array_equal(
            arena.attach("k").arrays["acts"], bundle()["acts"]
        )

    def test_registries_sharing_a_key_do_not_share_a_segment(self, tmp_path):
        # Segment names are host-global: two registries publishing one
        # key must get two segments, or sweeping the first would unlink
        # the segment the second still serves.
        first = OperandArena(tmp_path / "first")
        second = OperandArena(tmp_path / "second")
        try:
            assert first.publish("k", bundle(1)) is True
            assert second.publish("k", bundle(2)) is True
            first.release_all()
            assert first.sweep().segments_removed == 1
            entry = OperandArena(second.root).attach("k")
            assert entry is not None
            for name, arr in bundle(2).items():
                np.testing.assert_array_equal(entry.arrays[name], arr)
                assert entry.arrays[name].dtype == arr.dtype
        finally:
            for a in (first, second):
                a.release_all()
                a.sweep()


def _attach_and_hang(root, ready):
    arena = OperandArena(root)
    entry = arena.attach("k")
    ready.put(entry is not None and arena.stats().leases >= 2)
    signal.pause()  # hold the mapping until SIGKILL


@pytest.mark.concurrency
class TestSigkillSafety:
    def test_sigkilled_worker_leaks_no_segments(self, arena):
        """ISSUE acceptance: arena survives worker SIGKILL without leaks.

        A forked worker attaches (taking its pid-named lease) and is
        SIGKILLed while holding the mapping — the worst case: no atexit,
        no release, nothing runs in the victim.  The next sweep must
        drop the dead pid's lease; once the parent releases too, the
        segment itself must be reclaimed from /dev/shm.
        """
        arrays = bundle()
        assert arena.publish("k", arrays) is True
        assert arena.attach("k") is not None

        ready = _MP.Queue()
        worker = _MP.Process(target=_attach_and_hang, args=(arena.root, ready))
        worker.start()
        try:
            assert ready.get(timeout=30) is True
            os.kill(worker.pid, signal.SIGKILL)
        finally:
            worker.join(timeout=30)
        assert worker.exitcode == -signal.SIGKILL

        # The dead worker's lease goes; the parent's keeps the segment
        # alive — a sweep must never pull a mapping out from under a
        # live process.
        report = arena.sweep()
        assert report.leases_removed >= 1
        assert report.segments_removed == 0
        np.testing.assert_array_equal(arena.attach("k").arrays["acts"], arrays["acts"])

        arena.release_all()
        report = arena.sweep()
        assert report.segments_removed == 1
        stats = arena.stats()
        assert (stats.segments, stats.bytes, stats.leases) == (0, 0, 0)
        # Nothing left in the kernel either: the segment name must be
        # re-creatable, which SharedMemory(create=True) proves.
        from repro.engine.arena import _segment_name, _unlink_segment, _open_shm

        probe = _open_shm(_segment_name(arena.root, "k"), create=True, size=16)
        probe.close()
        _unlink_segment(_segment_name(arena.root, "k"))
