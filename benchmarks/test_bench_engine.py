"""Bench: engine speedups — backends, result cache, batched sweep.

Records the wall-clock ratios the engine exists for, into the bench
trajectory *and* into a machine-readable ``BENCH_engine.json`` at the
repository root (CI uploads it as an artifact):

* per-backend wall clock of the canonical micro-scale batch —
  ``reference`` vs ``vector`` — with the asserted bound that ``vector``
  is at least 12x faster than ``reference``;
* warm (cache-hit) vs cold sweep — what re-running any figure costs now;
* the ``read-repro all --jobs N``-style engine sweep (vector backend,
  cached) vs the serial seed path (reference backend, no cache).

The backend comparison always runs the same micro-scale batch — the
conv-layer shapes of the ``micro`` bundle with their full operand
streams — regardless of ``REPRO_SCALE``, so successive
``BENCH_engine.json`` snapshots stay comparable.  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_engine.py -q -s

The asserted bounds are CPU-count independent (single-process wall-clock
ratios, interleaved best-of-N to damp shared-runner noise).
"""

import threading
from pathlib import Path

import numpy as np

from repro.core import MappingStrategy
from repro.engine import EngineClient, EngineServer, NetworkJob, SimEngine, SimJob
from repro.hw.variations import PAPER_CORNERS

from bench_util import BenchRecorder, env_float, run_once, timed, timed_interleaved

#: Machine-readable bench record, at the repository root.
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: The asserted floor on the vector backend's speedup over reference.
#: Overridable for noisy shared hosts via $REPRO_BENCH_MIN_SPEEDUP.
#: The honest interleaved best-of-N measurement on the 1-core reference
#: host lands at 16-18x with ±20 % wall-clock noise; the floor is pinned
#: below the noisiest observation, not at the mean.
MIN_VECTOR_SPEEDUP = env_float("REPRO_BENCH_MIN_SPEEDUP", 12.0)

#: Ceiling (seconds) on one stacked full-network TER pass at the
#: ``small``-scale network shape, vector backend.  Measured ~0.25s on
#: the 1-core reference host; the ceiling leaves 4x for host noise.
MAX_NETWORK_TER_SECONDS = env_float("REPRO_BENCH_MAX_NETWORK_TER_SECONDS", 1.0)

#: Ceiling (seconds) on one *warm* daemon round trip of the canonical
#: micro-scale batch — connect, submit, six cache-hit blobs back.
#: Measured ~0.05-0.15s on the 1-core reference host; the ceiling leaves
#: ample room for host noise while still catching a serve-path
#: regression (an accidental re-simulation lands at multiple seconds).
MAX_SERVE_WARM_SECONDS = env_float("REPRO_BENCH_MAX_SERVE_WARM_SECONDS", 1.0)

#: Floor on how much cheaper a cache hit is than a cold ``vector`` run
#: of the canonical batch.  On the 2-core reference host this measured
#: 5.0-5.6x while each deserializer indexed the lazy ``NpzFile`` (a
#: zip-member read per corner and field) and 10.5-14.8x once every
#: member is read once; the floor sits below the noisiest observation.
MIN_CACHE_HIT_SPEEDUP = 8.0

#: Conv-layer operand shapes of the ``micro`` bundle with full pixel
#: streams (no sub-sampling): the canonical backend-comparison workload.
MICRO_STREAM_SHAPES = (
    (1024, 27, 8),
    (1024, 72, 8),
    (256, 144, 16),
    (64, 288, 32),
    (48, 576, 64),
    (512, 96, 16),
)


#: Shared-layout writer (see :class:`bench_util.BenchRecorder`): the
#: three bench tests of a session merge into one record, and the first
#: write starts a fresh file.
_RECORDER = BenchRecorder(
    BENCH_JSON,
    "PYTHONPATH=src python -m pytest benchmarks/test_bench_engine.py -q -s",
)
record_bench = _RECORDER.write


def micro_stream_jobs(seed=7):
    """The canonical micro-scale batch, one job per layer shape."""
    rng = np.random.default_rng(seed)
    strategies = list(MappingStrategy)
    return [
        SimJob(
            acts=rng.integers(0, 256, size=(n_pixels, c_eff)),
            weights=rng.integers(-128, 128, size=(c_eff, k)),
            corners=PAPER_CORNERS,
            group_size=4,
            strategy=strategies[i % len(strategies)],
            label=f"bench:micro:{i}",
        )
        for i, (n_pixels, c_eff, k) in enumerate(MICRO_STREAM_SHAPES)
    ]


#: A ``small``-scale full-network TER workload: the VGG16-style stack at
#: the small scale's 0.125 width with its 48-row sampled GEMMs plus the
#: lowered classifier head — every layer the per-layer TER study walks,
#: shaped as the real ``read-repro`` small runs shape them, but with
#: synthetic operands so the bench is hermetic (no training, no dataset).
SMALL_NETWORK_SHAPES = (
    (48, 27, 8),
    (48, 72, 8),
    (48, 72, 16),
    (48, 144, 16),
    (48, 144, 32),
    (48, 288, 32),
    (48, 288, 32),
    (48, 288, 64),
    (48, 576, 64),
    (48, 576, 64),
    (48, 576, 64),
    (48, 576, 64),
    (48, 576, 64),
    (4, 64, 10),  # classifier head lowered to a 1x1 conv, one row/image
)


def small_network_job(seed=11):
    """One stacked NetworkJob covering every layer of the small network."""
    rng = np.random.default_rng(seed)
    strategies = list(MappingStrategy)
    jobs = [
        SimJob(
            acts=rng.integers(0, 256, size=(n_pixels, c_eff)),
            weights=rng.integers(-128, 128, size=(c_eff, k)),
            corners=PAPER_CORNERS,
            group_size=4,
            strategy=strategies[i % len(strategies)],
            label=f"bench:small-net:{i}",
        )
        for i, (n_pixels, c_eff, k) in enumerate(SMALL_NETWORK_SHAPES)
    ]
    return NetworkJob(jobs=tuple(jobs), label="bench:small-net")


def test_bench_engine_full_network_ter(benchmark):
    """One stacked full-network TER pass must stay interactive (~1s)."""
    network = small_network_job()
    engine = SimEngine(backend="vector", use_cache=False)
    engine.run_many([network])  # warm numpy paths and the plan memo
    t_first = timed(lambda: engine.run_many([network]), repeats=3)
    t_net = t_first
    retry = None
    if t_first > MAX_NETWORK_TER_SECONDS:
        retry = timed(lambda: engine.run_many([network]), repeats=5)
        t_net = min(t_first, retry)
    run_once(benchmark, engine.run_many, [network])
    payload = {
        "batch": f"{len(network.jobs)} layers x {len(PAPER_CORNERS)} corners, "
        "small-scale VGG16-style shapes, one stacked NetworkJob",
        "wall_clock_s": round(t_net, 4),
        "asserted_max_seconds": MAX_NETWORK_TER_SECONDS,
    }
    if retry is not None:
        payload["wall_clock_s_first_measure"] = round(t_first, 4)
        payload["wall_clock_s_retry_measure"] = round(retry, 4)
    record_bench("network_ter", payload)
    print()
    print(f"full-network TER ({len(network.jobs)} layers): {t_net:.3f}s")
    assert t_net <= MAX_NETWORK_TER_SECONDS, (
        f"full-network TER pass regressed: {t_net:.3f}s > "
        f"{MAX_NETWORK_TER_SECONDS}s ceiling (see BENCH_engine.json)"
    )


def make_jobs(n_jobs=6, n_pixels=64, c_eff=96, k=16, seed=7):
    """A synthetic multi-layer sweep: every job at all six paper corners."""
    rng = np.random.default_rng(seed)
    strategies = list(MappingStrategy)
    return [
        SimJob(
            acts=rng.integers(0, 256, size=(n_pixels, c_eff)),
            weights=rng.integers(-128, 128, size=(c_eff, k)),
            corners=PAPER_CORNERS,
            group_size=4,
            strategy=strategies[i % len(strategies)],
            label=f"bench:{i}",
        )
        for i in range(n_jobs)
    ]


def test_bench_engine_backends(benchmark):
    """reference vs vector on the canonical micro-scale batch."""
    jobs = micro_stream_jobs()
    engines = {
        name: SimEngine(backend=name, use_cache=False)
        for name in ("reference", "vector")
    }
    warm = {}
    for name, engine in engines.items():  # warm numpy paths and the plan memo
        warm[name] = engine.run_many(jobs)
    # The speedup only counts if the answers agree: vector matches the
    # reference oracle bit-exactly on outputs and within 1e-9 on TER.
    for ref_res, vec_res in zip(warm["reference"], warm["vector"]):
        for corner in ref_res:
            assert np.array_equal(ref_res[corner].outputs, vec_res[corner].outputs)
            assert abs(ref_res[corner].ter - vec_res[corner].ter) <= 1e-9
    contenders = [lambda e=e: e.run_many(jobs) for e in engines.values()]
    first = dict(zip(engines, timed_interleaved(contenders, repeats=5)))
    clocks = dict(first)
    retry = None
    if first["reference"] / first["vector"] < MIN_VECTOR_SPEEDUP:
        # One extended re-measure before declaring a regression: a single
        # noisy-neighbor blip on a shared runner can depress best-of-5.
        # Both measurements go into the bench record, so a floor trip in
        # CI shows whether the retry confirmed or refuted the first pass.
        retry = dict(zip(engines, timed_interleaved(contenders, repeats=7)))
        clocks = {name: min(first[name], retry[name]) for name in first}
    run_once(benchmark, engines["vector"].run_many, jobs)
    speedups = {name: clocks["reference"] / clocks[name] for name in clocks}
    payload = {
        "batch": "micro-scale conv shapes, full operand streams, "
        f"{len(jobs)} jobs x {len(PAPER_CORNERS)} corners",
        "measurement": "interleaved best-of-5 wall clock per backend "
        "(contenders alternate, damping shared-runner drift); best-of-7 "
        "retry folded in when a floor trips — both passes recorded",
        "wall_clock_s": {k: round(v, 4) for k, v in clocks.items()},
        "speedup_vs_reference": {k: round(v, 2) for k, v in speedups.items()},
        "asserted_min_vector_speedup": MIN_VECTOR_SPEEDUP,
    }
    if retry is not None:
        payload["wall_clock_s_first_measure"] = {
            k: round(v, 4) for k, v in first.items()
        }
        payload["wall_clock_s_retry_measure"] = {
            k: round(v, 4) for k, v in retry.items()
        }
    record_bench("backends", payload)
    print()
    print(
        "  ".join(
            f"{name}: {clocks[name]:.3f}s ({speedups[name]:.1f}x)" for name in clocks
        )
    )
    assert speedups["vector"] >= MIN_VECTOR_SPEEDUP, (
        f"vector backend regressed: {speedups['vector']:.1f}x < "
        f"{MIN_VECTOR_SPEEDUP}x over reference (see BENCH_engine.json)"
    )


def test_bench_engine_cache_hits(benchmark, tmp_path):
    # The canonical batch: on small synthetic jobs the vector backend
    # computes about as fast as the cache deserializes, which is a
    # statement about the backend, not the cache.
    jobs = micro_stream_jobs()
    engine = SimEngine(backend="vector", cache_dir=tmp_path)

    def measure():
        engine.cache.clear()
        cold = timed(engine.run_many, jobs, repeats=1)
        return cold, timed(engine.run_many, jobs, repeats=5)

    t_cold, t_warm = first = measure()
    assert engine.stats.misses == len(jobs)
    run_once(benchmark, engine.run_many, jobs)
    assert engine.stats.hits >= len(jobs)
    payload = {"asserted_min_hit_speedup": MIN_CACHE_HIT_SPEEDUP}
    if t_warm * MIN_CACHE_HIT_SPEEDUP >= t_cold:
        # One re-measure before declaring a regression, as for the
        # backend floors; both passes go into the bench record.
        retry = measure()
        t_cold, t_warm = min(first[0], retry[0]), min(first[1], retry[1])
        payload["first_measure_s"] = [round(v, 4) for v in first]
        payload["retry_measure_s"] = [round(v, 4) for v in retry]
    payload.update(
        cold_s=round(t_cold, 4),
        warm_s=round(t_warm, 4),
        hit_speedup=round(t_cold / t_warm, 1),
    )
    record_bench("cache", payload)
    print()
    print(
        f"cold: {t_cold:.3f}s  warm: {t_warm:.4f}s  "
        f"cache-hit speedup: {t_cold / t_warm:.1f}x"
    )
    assert t_warm * MIN_CACHE_HIT_SPEEDUP < t_cold, (
        f"cache hits regressed: {t_cold / t_warm:.1f}x < "
        f"{MIN_CACHE_HIT_SPEEDUP}x cheaper than a cold vector run"
    )


def test_bench_engine_serve_warm_latency(benchmark, tmp_path):
    """Warm request latency through a resident ``read-repro serve`` daemon.

    The serve-mode pitch is that a warm daemon answers a whole sweep
    batch at cache-deserialization speed plus one socket round trip; this
    pins that round trip.  Cold time (the daemon simulating) is recorded
    for context but not asserted — it is the backend bench's job.
    """
    jobs = micro_stream_jobs()
    server = EngineServer(
        str(tmp_path / "bench.sock"),
        backend="vector",
        jobs=1,
        cache_dir=tmp_path / "cache",
    )
    ready = threading.Event()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"ready": ready}, daemon=True
    )
    thread.start()
    assert ready.wait(10)
    try:
        client = EngineClient(str(server.socket_path))
        t_cold = timed(lambda: client.submit(jobs), repeats=1)
        t_warm = timed(lambda: client.submit(jobs), repeats=5)
        _, delta = client.submit(jobs)
        assert delta["hits"] == len(jobs) and delta["misses"] == 0
        run_once(benchmark, client.submit, jobs)
        daemon_latency = server.metrics.latency_seconds / server.metrics.requests
    finally:
        server.shutdown()
        thread.join(10)
    record_bench(
        "serve",
        {
            "batch": f"{len(jobs)} jobs x {len(PAPER_CORNERS)} corners, "
            "canonical micro-scale batch via the engine daemon",
            "cold_request_s": round(t_cold, 4),
            "warm_request_s": round(t_warm, 4),
            "daemon_mean_request_s": round(daemon_latency, 4),
            "asserted_max_warm_seconds": MAX_SERVE_WARM_SECONDS,
        },
    )
    print()
    print(
        f"serve: cold {t_cold:.3f}s  warm {t_warm:.4f}s  "
        f"daemon mean {daemon_latency:.4f}s/request"
    )
    assert t_warm <= MAX_SERVE_WARM_SECONDS, (
        f"warm daemon round trip regressed: {t_warm:.3f}s > "
        f"{MAX_SERVE_WARM_SECONDS}s ceiling (see BENCH_engine.json)"
    )


def test_bench_engine_sweep_vs_serial_seed_path(benchmark, tmp_path):
    """The 'read-repro all --jobs 4' shape vs the serial seed path."""
    jobs = make_jobs(n_jobs=8)
    t_serial = timed(
        SimEngine(backend="reference", use_cache=False).run_many, jobs, repeats=1
    )
    engine = SimEngine(backend="vector", jobs=4, cache_dir=tmp_path)
    t_cold = timed(engine.run_many, jobs, repeats=1)  # parallel, cache-filling
    t_warm = run_once(benchmark, lambda: timed(engine.run_many, jobs, repeats=1))
    record_bench(
        "sweep",
        {
            "serial_reference_s": round(t_serial, 4),
            "engine_cold_s": round(t_cold, 4),
            "engine_warm_s": round(t_warm, 4),
            "warm_speedup": round(t_serial / t_warm, 1),
        },
    )
    print()
    print(
        f"serial seed path: {t_serial:.3f}s  engine cold (jobs=4): {t_cold:.3f}s  "
        f"engine warm: {t_warm:.4f}s  warm speedup: {t_serial / t_warm:.1f}x"
    )
    # The cached engine sweep must beat the serial seed path outright; the
    # cold multi-process number is recorded above (core-count dependent).
    assert t_warm < t_serial
