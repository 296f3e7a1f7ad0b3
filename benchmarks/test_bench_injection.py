"""Bench: the trial-batched injection runtime vs the serial reference.

Measures the wall clock of a micro-scale fig10-shaped injection campaign
— both fig10 networks, one :class:`~repro.faults.InjectionJob` per
(strategy x corner) cell — executed twice through the same engine:

* ``serial`` — the per-trial reference loop (the paper's protocol, and
  the runtime's oracle);
* ``batched`` — the stacked trial forward with effective-flip dedup.

Both produce bit-identical results (asserted), so the ratio is a pure
runtime comparison.

The BER tables are corner-scaled the way a real fig10 campaign is: the
paper's Eq. 1 corners span ~100 orders of magnitude (Ideal ~1e-112,
VT-3% ~1e-10, VT-5% ~5e-5, Aging&VT-5% up to 0.24), so each bench corner
applies one decade factor to the drawn per-layer tables.  High-BER cells
keep every trial diverged; low-BER cells are where empty and duplicate
flip draws collapse onto the fault-free lane — exactly the regime that
dominates a production campaign's cell grid.

The asserted floor — batched vs serial, default 12x,
``$REPRO_BENCH_MIN_INJECTION_SPEEDUP`` — is measured with interleaved
best-of-N timing (this reference host is a 1-core runner with ±10 %
noise), with one extended re-measure before declaring a regression.

The measurement lands in ``BENCH_injection.json`` at the repository root
(shared layout with ``BENCH_engine.json`` — see
:class:`bench_util.BenchRecorder`), including the campaign's deduped
trial counter, which must be nonzero for the low-BER cells to exercise
the dedup path.

Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_injection.py -q -s
"""

import dataclasses
from pathlib import Path

import numpy as np

from repro.engine import SimEngine
from repro.experiments.common import SCALES, get_bundle
from repro.faults import injection_job_for_bundle

from bench_util import BenchRecorder, env_float, run_once, timed_interleaved

#: Machine-readable bench record, at the repository root.
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_injection.json"

_RECORDER = BenchRecorder(
    BENCH_JSON,
    "PYTHONPATH=src python -m pytest benchmarks/test_bench_injection.py -q -s",
)

#: Asserted floor on the batched runtime's speedup over the serial
#: reference.  Overridable for noisy shared hosts.
MIN_INJECTION_SPEEDUP = env_float("REPRO_BENCH_MIN_INJECTION_SPEEDUP", 12.0)

#: The two networks of Fig. 10.
RECIPES = ("vgg16_cifar10", "resnet18_cifar10")

#: Bench corners as (BER decade factor, strategy cells): each factor
#: scales the drawn per-layer BER tables — a compressed stand-in for the
#: Eq. 1 corner spread (see the module docstring).  The first corner
#: keeps every trial diverged; the others are the empty/duplicate-draw
#: regime dedup exists for (the paper's VT-3% corner sits at ~1e-10,
#: far below the last factor).  The cell weighting mirrors fig10's grid,
#: where the always-diverged Aging&VT corners are the minority.
CORNERS = ((1.0, 2), (1e-5, 3), (1e-9, 3))

#: Trials per cell.
N_TRIALS = 4


def campaign_jobs(runtime):
    """The fig10-shaped micro campaign with deterministic BER tables."""
    scale = SCALES["micro"]
    jobs = []
    for recipe in RECIPES:
        bundle = get_bundle(recipe, scale)
        layers = [qc.name for qc in bundle.qnet.qconvs()]
        rng = np.random.default_rng(5)
        for corner, (ber_scale, n_strategies) in enumerate(CORNERS):
            for strategy in range(n_strategies):
                bers = {
                    name: float(ber) * ber_scale
                    for name, ber in zip(layers, rng.uniform(1e-4, 3e-3, len(layers)))
                }
                jobs.append(
                    dataclasses.replace(
                        injection_job_for_bundle(
                            bundle, bers, base_seed=100 * corner + strategy
                        ),
                        runtime=runtime,
                        n_trials=N_TRIALS,
                        label=f"bench:{recipe}:s{strategy}:c{corner}",
                    )
                )
    return jobs


def test_bench_injection_batched_vs_serial(benchmark):
    engine = SimEngine(use_cache=False)
    serial_jobs = campaign_jobs("serial")
    batched_jobs = campaign_jobs("batched")
    # Warm both legs once: trains/loads the bundles, fills the
    # per-process operand caches, and proves bit-identity of the two
    # runtimes on the full corner-decade grid.
    with _RECORDER.phase("warm"):
        serial_results = engine.run_many(serial_jobs)
        batched_results = engine.run_many(batched_jobs)
    for s, b in zip(serial_results, batched_results):
        assert s.trial_accuracies == b.trial_accuracies
        assert s.flips_injected == b.flips_injected
        assert s.trial_correct == b.trial_correct

    # The low-BER cells must actually exercise dedup: re-run the
    # batched leg and check its counter.
    engine.stats.trials_deduped = 0
    engine.run_many(batched_jobs)
    trials_deduped = engine.stats.trials_deduped
    assert trials_deduped > 0, "the corner-decade grid produced no deduped trials"

    contenders = [
        lambda: engine.run_many(serial_jobs),
        lambda: engine.run_many(batched_jobs),
    ]
    with _RECORDER.phase("measure"):
        first = timed_interleaved(contenders, repeats=3)
    t_serial, t_batched = first
    retry = None
    if t_serial / t_batched < MIN_INJECTION_SPEEDUP:
        # One extended re-measure before declaring a regression: a single
        # noisy-neighbor blip on a shared runner can depress best-of-3.
        # Both measurements go into the bench record, so a floor trip in
        # CI shows whether the retry confirmed or refuted the first pass.
        with _RECORDER.phase("remeasure"):
            retry = timed_interleaved(contenders, repeats=4)
        t_serial = min(t_serial, retry[0])
        t_batched = min(t_batched, retry[1])
    run_once(benchmark, engine.run_many, batched_jobs)
    speedup = t_serial / t_batched

    payload = {
        "shape": (
            "fig10 micro: one InjectionJob per (strategy x corner) cell, "
            "full per-layer BER tables corner-scaled across decades, "
            f"{N_TRIALS} trials per cell"
        ),
        "recipes": list(RECIPES),
        "corners": [{"ber_scale": s, "cells": n} for s, n in CORNERS],
        "n_jobs": len(serial_jobs),
        "trials_deduped": int(trials_deduped),
        "wall_clock_s": {"serial": round(t_serial, 4), "batched": round(t_batched, 4)},
        "speedup_batched_vs_serial": round(speedup, 2),
        "asserted_min_speedup_vs_serial": MIN_INJECTION_SPEEDUP,
    }
    if retry is not None:
        payload["wall_clock_s_first_measure"] = {
            "serial": round(first[0], 4),
            "batched": round(first[1], 4),
        }
        payload["wall_clock_s_retry_measure"] = {
            "serial": round(retry[0], 4),
            "batched": round(retry[1], 4),
        }
    _RECORDER.write("campaign", payload)
    print()
    print(
        f"injection campaign ({len(serial_jobs)} jobs): serial {t_serial:.3f}s  "
        f"batched {t_batched:.3f}s  ({speedup:.1f}x vs serial; "
        f"{trials_deduped} deduped)"
    )
    assert speedup >= MIN_INJECTION_SPEEDUP, (
        f"batched injection runtime regressed: {speedup:.1f}x < "
        f"{MIN_INJECTION_SPEEDUP}x over the serial reference "
        "(see BENCH_injection.json)"
    )
