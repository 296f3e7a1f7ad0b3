"""Batched multi-backend simulation engine with an on-disk result cache.

The engine turns the paper's serial per-figure simulation loops into one
schedulable workload: experiments describe their measurements as
:class:`SimJob`\\ s, and :class:`SimEngine` executes them on a selectable
backend (the ``reference`` oracle or the whole-network ``vector`` fold —
conformance-tested bit-compatible, with ``vector`` ≥12x over the
reference), stacks whole networks of layer jobs into single
:class:`NetworkJob` folds, fans cache-missing jobs out over worker
processes, and memoizes every result on disk keyed by a content hash of
the job spec.  A resident daemon (``read-repro serve`` /
:class:`EngineServer`) keeps one warm engine behind a Unix socket and
coalesces identical submissions across clients; setting
``$REPRO_ENGINE_SOCKET`` routes any engine's batches through it.
See ``docs/engine.md`` for the full tour.

Quickstart::

    from repro.engine import SimEngine, SimJob
    from repro.hw.variations import PAPER_CORNERS

    engine = SimEngine(backend="vector", jobs=4)
    reports = engine.run(SimJob(acts=acts, weights=weights,
                                corners=PAPER_CORNERS,
                                strategy="cluster_then_reorder"))
    reports["Aging&VT-5%"].ter
"""

from .arena import (
    ARENA_DIR_ENV,
    ARENA_GATE_ENV,
    ArenaEntry,
    ArenaStats,
    ArenaSweepReport,
    OperandArena,
    arena_enabled,
    arena_root,
    default_arena,
    reset_default_arena,
    shutdown_arena,
)
from .backends import (
    ReferenceBackend,
    SimulationBackend,
    VectorBackend,
    backend_factory,
    backend_names,
    get_backend,
    register_backend,
)
from .cache import (
    CACHE_ENV_VAR,
    CACHE_MAX_BYTES_ENV_VAR,
    CacheGcReport,
    CacheStats,
    ResultCache,
    cache_root,
)
from .client import EngineClient, EngineClientError
from .job import CACHE_SCHEMA_VERSION, EngineJob, NetworkJob, SimJob, feed_hash, job_key
from .protocol import ENGINE_SOCKET_ENV, PROTOCOL_VERSION, ProtocolError
from .scheduler import (
    EngineMetrics,
    EngineStats,
    SimEngine,
    configure_default_engine,
    default_engine,
    engine_context,
    reset_default_engine,
)
from .server import EngineServer, serve

__all__ = [
    "ARENA_DIR_ENV",
    "ARENA_GATE_ENV",
    "ArenaEntry",
    "ArenaStats",
    "ArenaSweepReport",
    "OperandArena",
    "arena_enabled",
    "arena_root",
    "default_arena",
    "reset_default_arena",
    "shutdown_arena",
    "CACHE_ENV_VAR",
    "CACHE_MAX_BYTES_ENV_VAR",
    "CACHE_SCHEMA_VERSION",
    "CacheGcReport",
    "CacheStats",
    "ENGINE_SOCKET_ENV",
    "EngineClient",
    "EngineClientError",
    "EngineJob",
    "EngineMetrics",
    "EngineServer",
    "EngineStats",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "NetworkJob",
    "ReferenceBackend",
    "ResultCache",
    "SimEngine",
    "SimJob",
    "SimulationBackend",
    "VectorBackend",
    "backend_factory",
    "backend_names",
    "cache_root",
    "configure_default_engine",
    "default_engine",
    "engine_context",
    "feed_hash",
    "get_backend",
    "job_key",
    "register_backend",
    "reset_default_engine",
    "serve",
]
