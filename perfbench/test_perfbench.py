"""Unit tests of the benchmark harness: its pure helpers (``harness.py``),
the metric names ``run.py`` emits, and its reaping of leftover processes."""

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import harness
from repro.engine import SimJob
from repro.hw.variations import TER_EVAL_CORNER


def _write_run(path, manifest, texts, npz=None):
    path.mkdir()
    (path / "manifest.json").write_text(json.dumps(manifest))
    for name, text in texts.items():
        (path / name).write_text(text)
    if npz is not None:
        with zipfile.ZipFile(path / "trials.npz", "w") as archive:
            for name, data in npz.items():
                archive.writestr(name, data)


def test_digest_strips_run_and_nothing_else(tmp_path):
    base = {"schema": 1, "jobs": {"a": 1}, "run": {"wall_clock_s": 1.0}}
    _write_run(tmp_path / "a", base, {"fig2.txt": "x"})
    _write_run(tmp_path / "b", dict(base, run={"wall_clock_s": 9.0}), {"fig2.txt": "x"})
    digest = harness.output_digest(tmp_path / "a")
    assert harness.output_digest(tmp_path / "b") == digest

    _write_run(tmp_path / "c", dict(base, jobs={"a": 2}), {"fig2.txt": "x"})
    _write_run(tmp_path / "d", base, {"fig2.txt": "y"})
    _write_run(tmp_path / "e", dict(base, extra={"run": 1}), {"fig2.txt": "x"})
    for other in "cde":
        assert harness.output_digest(tmp_path / other) != digest


def test_manifest_without_run_keeps_nested_run_keys():
    manifest = {"run": 1, "cells": {"run": 2}, "schema": 3}
    assert harness.manifest_without_run(manifest) == {"cells": {"run": 2}, "schema": 3}
    assert manifest["run"] == 1  # the input is not mutated


def test_digest_hashes_npz_members_not_zip_timestamps(tmp_path):
    members = {"cell/correct.npy": b"\x01\x02"}
    _write_run(tmp_path / "a", {"schema": 1}, {}, npz=members)
    _write_run(tmp_path / "b", {"schema": 1}, {}, npz=members)
    assert harness.output_digest(tmp_path / "a") == harness.output_digest(tmp_path / "b")
    _write_run(tmp_path / "c", {"schema": 1}, {}, npz={"cell/correct.npy": b"\x01\x03"})
    assert harness.output_digest(tmp_path / "c") != harness.output_digest(tmp_path / "a")


def test_parse_engine_summary():
    stdout = (
        "=== fig2 ===\n"
        "engine[vector, jobs=1, cache=on]: 1115 job(s): 748 cache hit(s), "
        "0 deduplicated, 367 simulated; 0 trial(s) pruned, 480 deduped; "
        "arena: 0 hit(s), 8 store(s)\n"
    )
    assert harness.parse_engine_summary(stdout) == {
        "jobs": 1115, "hits": 748, "simulated": 367, "cancelled": 0, "trials_deduped": 480,
    }
    campaign = (
        "engine[vector, jobs=1, cache=on]: 198 job(s): 0 cache hit(s), "
        "0 deduplicated, 108 simulated, 90 cancelled; arena: 0 hit(s), 1 store(s)"
    )
    assert harness.parse_engine_summary(campaign)["cancelled"] == 90
    assert harness.parse_engine_summary("no summary") is None


def test_self_time_subtracts_children_once():
    spans = [
        ("experiments.render", 0.0, 10.0, -1),
        ("nn.bundle", 1.0, 4.0, 0),
        ("nn.evaluate", 2.0, 3.0, 1),
        ("cache.load", 5.0, 6.0, 0),
        ("cache.load", 12.0, 13.0, -1),
    ]
    assert harness.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])
    assert harness.covered_seconds(spans) == pytest.approx(11.0)
    rollup = harness.layer_rollup(spans)
    assert rollup["cache.load"] == (pytest.approx(2.0), 2)
    assert rollup["experiments.render"] == (pytest.approx(6.0), 1)


def test_nested_same_layer_calls_count_once():
    spans = [("engine.key", 0.0, 2.0, -1), ("engine.key", 0.5, 1.5, 0)]
    assert harness.layer_rollup(spans) == {"engine.key": (pytest.approx(2.0), 1)}


def test_overlapping_children_are_not_double_subtracted():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 12.0, 0)]
    assert harness.self_times(spans)[0] == pytest.approx(1.0)


def test_job_macs_from_simjob_shapes():
    rng = np.random.default_rng(0)
    job = SimJob(
        acts=rng.integers(0, 255, size=(12, 27)),
        weights=rng.integers(-128, 127, size=(27, 8)),
        corners=(TER_EVAL_CORNER,),
    )
    assert harness.job_macs(job) == 12 * 27 * 8


def test_emitted_metric_names_match_benchmark_json():
    import run

    declared = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    engine = dict.fromkeys(
        ("hits", "misses", "deduped", "cancelled", "coalesced", "trials_deduped",
         "trials_pruned", "arena_hits", "arena_stores"), 0,
    )
    trace = {
        "process_start": 0.0, "end": 2.0,
        "spans": [["experiments.orchestrate", 0.5, 1.9, -1]],
        "counters": dict.fromkeys(
            ("vector_macs", "cache_bytes_read", "inject_trials", "inject_trial_layers"), 0
        ),
        "engine": engine,
    }
    layers = run.per_layer(trace, run.Sample(2.1, 80.0), 2.0)
    emitted = {"nn.train_s": {"value": 1.0, "unit": "s"}}
    for phase in ("cold", "warm"):
        emitted.update({f"{phase}.{name}": value for name, value in layers.items()})
    assert list(emitted) == [m["name"] for m in declared["per_layer"]]
    assert [m["unit"] for m in declared["per_layer"]] == [m["unit"] for m in emitted.values()]
    assert layers["cli.startup_s"]["value"] == pytest.approx(0.5)
    assert layers["trace.coverage"]["value"] == pytest.approx(0.95)

    cold = [run.Sample(10.0, 1500.0)]
    warm = [run.Sample(1.0, 80.0), run.Sample(3.0, 90.0)]
    e2e = run.end_to_end(cold, warm, [5.0, 7.0, 6.0])
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert e2e["cold_wall_s"]["value"] == 10.0 and e2e["warm_wall_s"]["value"] == 2.0
    assert e2e["setup_s"]["value"] == 6.0 and e2e["peak_rss_mb"]["value"] == 1500.0
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    expected = json.loads((run.HERE / "expected.json").read_text())
    assert sorted(expected) == sorted(f"{w}-{p}" for w in run.WORKLOADS for p in ("cold", "warm"))

_REAPER_PROBE = """
import subprocess, sys, time
import run
run.adopt_orphans()
# The child exits at once and leaves a grandchild: one that ends on its
# own within the grace period, and one that must be killed.
subprocess.run(["sh", "-c", "sleep 0.2 & sleep 60 & exit 0"], check=True)
start = time.monotonic()
killed = run.reap_children(grace_s=1.0)
print(len(killed), "sleep 60" in " ".join(killed), time.monotonic() - start < 10)
print(run._live_children() == {})
"""


def test_reap_children_waits_for_and_kills_orphaned_descendants():
    # In a subprocess, so the test session itself never becomes a subreaper.
    here = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c", _REAPER_PROBE], cwd=here, capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=str(here)),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "True", "True", "True"]
