"""Engine tests: backend equivalence, cache semantics, job hashing.

The heart of this module is the equivalence matrix required before the
``vector`` backend may substitute for the reference simulator anywhere:
across both dataflows, all paper PVTA corners and all three mapping
strategies, ``vector`` must reproduce the reference
``LayerReliabilityReport`` bit-exactly on functional outputs and
integer-valued statistics, and within 1e-9 on the TER.  Property tests
cover the planner's output-channel permutation (always a bijection) and
the result cache (hits are byte-identical to cold runs).
"""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import AcceleratorConfig, Dataflow
from repro.core import MappingStrategy, plan_layer
from repro.engine import (
    NetworkJob,
    ResultCache,
    SimEngine,
    SimJob,
    backend_names,
    get_backend,
    job_key,
    register_backend,
)
from repro.engine import cache as cache_module
from repro.engine.job import read_npz
from repro.engine.protocol import decode_result, encode_result
from repro.errors import ConfigurationError, MappingError, MappingFallbackWarning
from repro.hw.variations import PAPER_CORNERS, TER_EVAL_CORNER, corner_by_name


def make_case(seed=0, n_pixels=13, c_eff=24, k=8):
    rng = np.random.default_rng(seed)
    acts = rng.integers(0, 256, size=(n_pixels, c_eff))
    weights = rng.integers(-128, 128, size=(c_eff, k))
    return acts, weights


def make_job(seed=0, n_pixels=13, c_eff=24, k=8, **kwargs):
    acts, weights = make_case(seed, n_pixels, c_eff, k)
    kwargs.setdefault("corners", PAPER_CORNERS)
    kwargs.setdefault("group_size", 4)
    return SimJob(acts=acts, weights=weights, **kwargs)


def assert_reports_equivalent(ref, got, tol=1e-9):
    assert set(ref) == set(got)
    for name in ref:
        r, f = ref[name], got[name]
        assert np.array_equal(r.outputs, f.outputs)
        assert r.outputs.dtype == f.outputs.dtype
        assert abs(r.ter - f.ter) <= tol
        assert abs(r.sign_flip_rate - f.sign_flip_rate) <= tol
        assert abs(r.mean_chain_length - f.mean_chain_length) <= tol
        assert r.n_cycles == f.n_cycles
        assert r.n_macs_per_output == f.n_macs_per_output
        assert r.strategy == f.strategy
        assert r.corner_name == f.corner_name == name


class TestBackendEquivalence:
    """``vector`` must be indistinguishable from ``reference``."""

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    @pytest.mark.parametrize("strategy", list(MappingStrategy))
    def test_equivalence_matrix(self, dataflow, strategy):
        job = make_job(
            seed=hash(dataflow.value) % 100,
            strategy=strategy,
            config=AcceleratorConfig(dataflow=dataflow),
            pixel_chunk=5,  # 13 pixels -> chunks of 5, 5, 3
        )
        ref = get_backend("reference").run(job)
        got = get_backend("vector").run(job)
        assert len(ref) == len(PAPER_CORNERS)
        assert_reports_equivalent(ref, got)

    @pytest.mark.parametrize("n_pixels", [1, 4, 11])
    def test_weight_stationary_chunk_boundaries(self, n_pixels):
        # 11 pixels at chunk 5 ends in a singleton chunk; 1 pixel is all
        # boundary — the cases where WS flip bookkeeping can drift.
        job = make_job(
            seed=3,
            n_pixels=n_pixels,
            strategy=MappingStrategy.REORDER,
            config=AcceleratorConfig(dataflow=Dataflow.WEIGHT_STATIONARY),
            pixel_chunk=5,
        )
        assert_reports_equivalent(
            get_backend("reference").run(job), get_backend("vector").run(job)
        )

    def test_equivalence_with_indivisible_k(self):
        # K=10 at group 4 exercises the clustering fallback and a
        # narrower trailing group in both backends.
        with pytest.warns(MappingFallbackWarning):
            job = make_job(seed=5, k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
            ref = get_backend("reference").run(job)
        with pytest.warns(MappingFallbackWarning):
            got = get_backend("vector").run(job)
        assert_reports_equivalent(ref, got)

    def test_equivalence_under_pixel_blocking(self, monkeypatch):
        # Force the vector backend's tiles down to one pixel chunk so a
        # job spans several blocks; results must not move.
        from repro.engine import vector

        job = make_job(
            seed=21,
            n_pixels=23,
            strategy=MappingStrategy.REORDER,
            config=AcceleratorConfig(dataflow=Dataflow.WEIGHT_STATIONARY),
            pixel_chunk=4,
        )
        unblocked = get_backend("vector").run(job)
        monkeypatch.setattr(vector, "_MAX_BLOCK_ELEMENTS", 1)  # 1 chunk per block
        blocked = get_backend("vector").run(job)
        ref = get_backend("reference").run(job)
        assert_reports_equivalent(ref, blocked)
        assert_reports_equivalent(unblocked, blocked)

    def test_equivalence_with_out_of_range_operands(self):
        # Operands wider than the configured MAC datapath (SimJob does
        # not range-check, matching run_gemm_corners): the vector backend's
        # delay histogram must grow rather than crash.
        rng = np.random.default_rng(17)
        acts = rng.integers(0, 70000, size=(6, 8))
        weights = rng.integers(-3, 4, size=(8, 4))
        job = SimJob(acts=acts, weights=weights, corners=PAPER_CORNERS, group_size=2)
        assert_reports_equivalent(
            get_backend("reference").run(job), get_backend("vector").run(job)
        )

    def test_vector_matches_expected_ber_helper(self):
        job = make_job(seed=9)
        ref = get_backend("reference").run(job)[TER_EVAL_CORNER.name]
        got = get_backend("vector").run(job)[TER_EVAL_CORNER.name]
        assert abs(ref.expected_output_ber() - got.expected_output_ber()) < 1e-9


class TestPlanPermutationProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        c_eff=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=1, max_value=24),
        group_size=st.integers(min_value=1, max_value=8),
        strategy=st.sampled_from(list(MappingStrategy)),
        seed=st.integers(min_value=0, max_value=4),
    )
    def test_output_channel_permutation_is_bijection(
        self, c_eff, k, group_size, strategy, seed
    ):
        rng = np.random.default_rng(seed * 1009 + c_eff * 31 + k)
        weights = rng.integers(-128, 128, size=(c_eff, k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MappingFallbackWarning)
            plan = plan_layer(weights, group_size=group_size, strategy=strategy, seed=seed)
        perm = plan.output_channel_permutation()
        assert perm.shape == (k,)
        assert sorted(perm.tolist()) == list(range(k))


class TestResultCache:
    def test_cache_hit_is_byte_identical_to_cold_run(self, tmp_path):
        engine = SimEngine(backend="reference", cache_dir=tmp_path)
        job = make_job(seed=11, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
        cold = engine.run(job)
        assert engine.stats.misses == 1 and engine.stats.hits == 0
        warm = engine.run(job)
        assert engine.stats.hits == 1
        for name in cold:
            c, w = cold[name], warm[name]
            assert c.outputs.tobytes() == w.outputs.tobytes()
            assert c.outputs.dtype == w.outputs.dtype and c.outputs.shape == w.outputs.shape
            # exact float equality: npz round-trips float64 bit-for-bit
            assert c.ter == w.ter
            assert c.sign_flip_rate == w.sign_flip_rate
            assert c.mean_chain_length == w.mean_chain_length
            assert (c.n_cycles, c.n_macs_per_output) == (w.n_cycles, w.n_macs_per_output)
            assert (c.strategy, c.corner_name) == (w.strategy, w.corner_name)

    def test_cache_is_backend_agnostic(self, tmp_path):
        # Backends are interchangeable (equivalence suite above), so the
        # cache key deliberately excludes the backend name.
        job = make_job(seed=12)
        vector_engine = SimEngine(backend="vector", cache_dir=tmp_path)
        cold = vector_engine.run(job)
        ref_engine = SimEngine(backend="reference", cache_dir=tmp_path)
        warm = ref_engine.run(job)
        assert ref_engine.stats.hits == 1
        assert warm[TER_EVAL_CORNER.name].ter == cold[TER_EVAL_CORNER.name].ter

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job(seed=13)
        key = job.key()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz")
        assert cache.load(key, job) is None
        assert not path.exists()  # removed so it cannot keep missing

    def test_clear_and_len(self, tmp_path):
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        engine.run_many([make_job(seed=s) for s in (20, 21)])
        cache = engine.cache
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_in_flight_temp_files_invisible_to_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        orphan = cache.root / "ab" / ".abcd.12345.tmp"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"half-written entry")
        assert len(cache) == 0
        assert cache.clear() == 0
        assert orphan.exists()  # clear() must not race a concurrent store

    def test_strict_job_raises_even_on_cache_hit(self, tmp_path):
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        with pytest.warns(MappingFallbackWarning):
            relaxed = make_job(k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
            engine.run(relaxed)  # caches the degraded fallback result
        strict_twin = make_job(
            k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER, strict=True
        )
        with pytest.raises(MappingError):
            engine.run(strict_twin)

    def test_fallback_warning_survives_cache_hit(self, tmp_path):
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        with pytest.warns(MappingFallbackWarning):
            engine.run(make_job(k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER))
        with pytest.warns(MappingFallbackWarning):  # hit must stay loud
            engine.run(make_job(k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER))
        assert engine.stats.hits == 1

    def test_fallback_warning_fires_exactly_once_per_inline_miss(self):
        engine = SimEngine(backend="vector", use_cache=False)
        job = make_job(k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.run(job)
        fallbacks = [w for w in caught if issubclass(w.category, MappingFallbackWarning)]
        assert len(fallbacks) == 1  # scheduler warns; backend repeat suppressed


@pytest.fixture
def member_reads(monkeypatch):
    """Count ``NpzFile`` member reads by member name."""
    reads = Counter()
    original = np.lib.npyio.NpzFile.__getitem__

    def counting(self, name):
        reads[name] += 1
        return original(self, name)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting)
    return reads


def _assert_same_arrays(left, right):
    assert sorted(left) == sorted(right)
    for name in left:
        a, b = np.asarray(left[name]), np.asarray(right[name])
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def _no_disk_reads(handle):
    raise AssertionError("memo hit went to disk")


class TestOnePassDecode:
    """Every deserializer sees each npz member read exactly once."""

    def test_cache_load_reads_each_member_once(self, tmp_path, member_reads):
        job = make_job(seed=30)
        assert len(job.corners) == 6
        result = get_backend("vector").run(job)
        cache = ResultCache(tmp_path)
        cache.store(job.key(), job, result)
        member_reads.clear()
        assert cache.load(job.key(), job) is not None
        assert set(member_reads) == set(SimJob.serialize_result(result)) | {"__kind__"}
        assert set(member_reads.values()) == {1}

    def test_protocol_decode_reads_each_member_once(self, member_reads):
        job = make_job(seed=31)
        result = get_backend("vector").run(job)
        blob = encode_result(job, result)
        decoded = decode_result(job, blob)
        assert set(member_reads) == set(SimJob.serialize_result(result))
        assert set(member_reads.values()) == {1}
        _assert_same_arrays(
            SimJob.serialize_result(decoded), SimJob.serialize_result(result)
        )


class TestResultMemo:
    """``ResultCache.memo``: results served from memory inside one block."""

    def test_memo_hit_serializes_like_its_disk_entry(self, tmp_path, monkeypatch):
        job = make_job(seed=32)
        cache = ResultCache(tmp_path)
        with cache.memo():
            path = cache.store(job.key(), job, get_backend("vector").run(job))
            monkeypatch.setattr(cache_module, "read_npz", _no_disk_reads)
            served = cache.load(job.key(), job)
        monkeypatch.undo()
        disk = read_npz(path)
        assert str(disk.pop("__kind__")) == job.kind
        _assert_same_arrays(SimJob.serialize_result(served), disk)
        reloaded = cache.load(job.key(), job)  # memo closed: from disk
        _assert_same_arrays(
            SimJob.serialize_result(served), SimJob.serialize_result(reloaded)
        )

    def test_loaded_entry_is_read_from_disk_once(self, tmp_path, monkeypatch):
        job = make_job(seed=33)
        cache = ResultCache(tmp_path)
        cache.store(job.key(), job, get_backend("vector").run(job))
        reads = []
        monkeypatch.setattr(
            cache_module, "read_npz", lambda handle: reads.append(1) or read_npz(handle)
        )
        with cache.memo():
            first = cache.load(job.key(), job)
            assert cache.load(job.key(), job) is first
        assert len(reads) == 1
        assert cache.load(job.key(), job) is not first
        assert len(reads) == 2

    def test_memo_checks_the_kind_tag(self, tmp_path):
        job = make_job(seed=34)
        cache = ResultCache(tmp_path)
        with cache.memo():
            cache.store(job.key(), job, get_backend("vector").run(job))
            # Same key, other kind: the memo entry must not answer it.
            assert cache.load(job.key(), NetworkJob(jobs=(job,))) is None

    def test_memo_is_dropped_on_exit_and_on_error(self, tmp_path):
        job = make_job(seed=35)
        cache = ResultCache(tmp_path)
        with pytest.raises(RuntimeError):
            with cache.memo():
                cache.store(job.key(), job, get_backend("vector").run(job))
                assert cache._memo
                raise RuntimeError("boom")
        assert cache._memo is None

    def test_cleared_cache_stops_serving_memo_hits(self, tmp_path):
        job = make_job(seed=36)
        cache = ResultCache(tmp_path)
        with cache.memo():
            cache.store(job.key(), job, get_backend("vector").run(job))
            cache.clear()
            assert cache.load(job.key(), job) is None

    def test_hit_counts_match_without_memo(self, tmp_path):
        jobs = [make_job(seed=s) for s in (37, 38)]
        SimEngine(backend="vector", cache_dir=tmp_path).run_many(jobs)
        plain = SimEngine(backend="vector", cache_dir=tmp_path)
        memoized = SimEngine(backend="vector", cache_dir=tmp_path)
        for _ in range(2):
            plain.run_many(jobs)
        with memoized.cache.memo():
            for _ in range(2):
                memoized.run_many(jobs)
        assert (plain.stats.hits, plain.stats.misses) == (4, 0)
        assert (memoized.stats.hits, memoized.stats.misses) == (4, 0)



class TestJobKey:
    def test_key_is_content_addressed(self):
        a = make_job(seed=30, label="first")
        b = make_job(seed=30, label="relabelled")  # label excluded from key
        assert job_key(a) == job_key(b)

    @pytest.mark.parametrize(
        "variation",
        [
            dict(seed=31),
            dict(strategy=MappingStrategy.REORDER),
            dict(group_size=8),
            dict(criteria="mag_first"),
            dict(pixel_chunk=7),
            dict(corners=(TER_EVAL_CORNER,)),
            dict(config=AcceleratorConfig(dataflow=Dataflow.WEIGHT_STATIONARY)),
        ],
    )
    def test_key_changes_with_spec(self, variation):
        base = make_job(seed=30)
        assert job_key(base) != job_key(make_job(**{"seed": 30, **variation}))


class TestScheduler:
    def test_run_many_preserves_order_with_mixed_hits(self, tmp_path):
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        jobs = [make_job(seed=s, strategy=MappingStrategy.BASELINE) for s in range(3)]
        engine.run(jobs[1])  # pre-populate the middle job
        results = engine.run_many(jobs)
        for job, reports in zip(jobs, results):
            direct = get_backend("vector").run(job)
            assert np.array_equal(
                reports[TER_EVAL_CORNER.name].outputs, direct[TER_EVAL_CORNER.name].outputs
            )
        assert engine.stats.hits == 1

    def test_same_key_jobs_deduplicate_within_batch(self, tmp_path):
        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        job = make_job(seed=60)
        twin = make_job(seed=60, label="relabelled")  # same key, new label
        results = engine.run_many([job, twin, make_job(seed=61)])
        assert engine.stats.misses == 2  # the duplicate never simulates
        assert engine.stats.deduped == 1
        for name in results[0]:
            assert results[0][name].ter == results[1][name].ter
            assert np.array_equal(results[0][name].outputs, results[1][name].outputs)

    def test_no_dedup_without_cache(self):
        # With the cache off no keys are derived; every job executes.
        engine = SimEngine(backend="vector", use_cache=False)
        job = make_job(seed=62)
        engine.run_many([job, job])
        assert engine.stats.misses == 2
        assert engine.stats.deduped == 0

    def test_process_pool_matches_inline(self, tmp_path):
        jobs = [make_job(seed=s) for s in (40, 41, 42)]
        inline = SimEngine(backend="vector", use_cache=False).run_many(jobs)
        pooled = SimEngine(backend="vector", jobs=2, use_cache=False).run_many(jobs)
        for i, p in zip(inline, pooled):
            assert_reports_equivalent(i, p, tol=0.0)

    def test_fallback_warning_reaches_parent_with_process_pool(self):
        # Worker-process warnings never reach the caller; the scheduler
        # must diagnose degraded clustering in the submitting process.
        jobs = [
            make_job(seed=s, k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER)
            for s in (50, 51)
        ]
        engine = SimEngine(backend="vector", jobs=2, use_cache=False)
        with pytest.warns(MappingFallbackWarning):
            engine.run_many(jobs)

    def test_env_jobs_parsed_lazily(self, monkeypatch):
        from repro.engine import configure_default_engine, reset_default_engine

        monkeypatch.setenv("REPRO_JOBS", "four")
        try:
            # explicit argument wins without parsing the env value
            engine = configure_default_engine(jobs=2)
            assert engine.jobs == 2
            with pytest.raises(ConfigurationError):
                configure_default_engine()
        finally:
            reset_default_engine()

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SimEngine(backend="warp-drive")
        with pytest.raises(ConfigurationError):
            SimEngine(jobs=0)
        with pytest.raises(ConfigurationError):
            get_backend("nope")
        with pytest.raises(ConfigurationError):
            register_backend("vector", lambda: None)  # duplicate name

    def test_backend_names(self):
        assert {"reference", "vector"} <= set(backend_names())
        assert "fast" not in backend_names()


class TestSimJobValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(MappingError):
            SimJob(acts=np.ones(4), weights=np.ones((4, 2)), corners=PAPER_CORNERS)
        with pytest.raises(MappingError):
            SimJob(acts=np.ones((2, 5)), weights=np.ones((4, 2)), corners=PAPER_CORNERS)
        with pytest.raises(MappingError):
            SimJob(acts=np.ones((2, 4)), weights=np.ones((4, 2)), corners=())

    def test_accepts_strategy_string(self):
        job = make_job(strategy="cluster_then_reorder")
        assert job.strategy is MappingStrategy.CLUSTER_THEN_REORDER

    def test_group_size_defaults_to_config_cols(self):
        acts, weights = make_case()
        job = SimJob(acts=acts, weights=weights, corners=PAPER_CORNERS)
        assert job.resolved_group_size == job.config.cols


class TestNameLookups:
    """Satellite: lookup errors list valid names the same way everywhere."""

    def test_corner_lookup_is_case_insensitive(self):
        assert corner_by_name("aging&vt-5%") is TER_EVAL_CORNER
        assert corner_by_name("IDEAL").name == "Ideal"

    @pytest.mark.parametrize(
        "lookup, bad",
        [
            (MappingStrategy.from_name, "zigzag"),
            (Dataflow.from_name, "row_stationary"),
            (corner_by_name, "Aging-99y"),
            (get_backend, "gpu"),
        ],
    )
    def test_error_messages_list_valid_names(self, lookup, bad):
        with pytest.raises(ConfigurationError) as excinfo:
            lookup(bad)
        message = str(excinfo.value)
        assert message.startswith("unknown ")
        assert repr(bad) in message
        assert "expected one of: " in message


class TestStrictPlanning:
    """Satellite: the clustering fallback is loud, and strict raises."""

    def test_fallback_warns(self):
        rng = np.random.default_rng(0)
        with pytest.warns(MappingFallbackWarning, match="not divisible"):
            plan_layer(rng.integers(-5, 5, (8, 10)), 4, MappingStrategy.CLUSTER_THEN_REORDER)
        with pytest.warns(MappingFallbackWarning, match="single group"):
            plan_layer(rng.integers(-5, 5, (8, 4)), 4, MappingStrategy.CLUSTER_THEN_REORDER)

    def test_strict_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MappingError):
            plan_layer(
                rng.integers(-5, 5, (8, 10)),
                4,
                MappingStrategy.CLUSTER_THEN_REORDER,
                strict=True,
            )

    def test_strict_job_raises_at_plan_time(self):
        job = make_job(k=10, strategy=MappingStrategy.CLUSTER_THEN_REORDER, strict=True)
        with pytest.raises(MappingError):
            get_backend("vector").run(job)

    def test_no_warning_when_clustering_succeeds(self):
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", MappingFallbackWarning)
            plan = plan_layer(
                rng.integers(-5, 5, (8, 16)), 4, MappingStrategy.CLUSTER_THEN_REORDER
            )
        assert plan.clustering is not None
