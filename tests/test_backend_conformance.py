"""Cross-backend conformance: every backend must match ``reference``.

The contract that licenses any backend to fill the shared result cache
(and to power the figures): on *any* job — seeded randomized operand
matrices across datapath widths, dataflows, mapping strategies, job
scales, corner subsets and chunk/tile geometries — its reports must be

* bit-exact against ``reference`` on functional ``outputs`` and every
  integer-valued statistic, and
* within 1e-9 on the float statistics (TER, sign-flip rate, mean chain
  length), float summation order being the only permitted freedom.

By default every registered backend except ``reference`` is screened;
``pytest tests/test_backend_conformance.py --backend vector`` (the
option is repeatable) restricts the run to the named candidate(s).

The reference result of each case is computed once per session and
shared across candidate backends.

On top of the fixed case catalog, a hypothesis-driven harness draws
random :mod:`repro.scenarios`-shaped cells of the opened workload space
— grouped/depthwise layers (one job per group GEMM), the classifier
head lowered to a 1x1 conv, per-layer mixed-precision operand widths —
and asserts, per drawn scenario, (a) ``vector``'s conformance to
``reference`` on every group job *and* on the cycle-weighted layer
aggregate, with its fused network fold bit-equal to per-job runs, and (b)
bit-identical per-trial accuracies from the serial and trial-batched
injection runtimes on a quantized network built from the same draw.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.arch import AcceleratorConfig, Dataflow
from repro.core import MappingStrategy
from repro.engine import NetworkJob, SimEngine, SimJob, backend_names, get_backend
from repro.engine import vector as vector_module
from repro.errors import MappingFallbackWarning
from repro.hw.mac import MacConfig
from repro.hw.variations import (
    AGING_VT_5,
    IDEAL,
    PAPER_CORNERS,
    TER_EVAL_CORNER,
    VT_3,
)

#: Float tolerance of the conformance contract.
TOL = 1e-9


def candidate_backends(config) -> list:
    requested = config.getoption("--backend")
    if requested:
        for name in requested:
            get_backend(name)  # fail fast on typos, listing valid names
        return list(dict.fromkeys(requested))
    return [name for name in backend_names() if name != "reference"]


def pytest_generate_tests(metafunc):
    if "backend" in metafunc.fixturenames:
        metafunc.parametrize("backend", candidate_backends(metafunc.config))


def _case(
    seed,
    n_pixels=13,
    c_eff=24,
    k=8,
    act_width=8,
    weight_width=8,
    psum_width=24,
    act_signed=False,
    dataflow=Dataflow.OUTPUT_STATIONARY,
    strategy=MappingStrategy.BASELINE,
    criteria="sign_first",
    group_size=4,
    pixel_chunk=5,
    corners=PAPER_CORNERS,
    act_range=None,
    weight_range=None,
):
    """One seeded randomized job spec (operands drawn inside the datapath)."""
    rng = np.random.default_rng(seed)
    if act_range is None:
        act_range = (
            (-(1 << (act_width - 1)), 1 << (act_width - 1))
            if act_signed
            else (0, 1 << act_width)
        )
    if weight_range is None:
        weight_range = (-(1 << (weight_width - 1)), 1 << (weight_width - 1))
    acts = rng.integers(*act_range, size=(n_pixels, c_eff))
    weights = rng.integers(*weight_range, size=(c_eff, k))
    config = AcceleratorConfig(
        mac=MacConfig(
            act_width=act_width,
            weight_width=weight_width,
            psum_width=psum_width,
            act_signed=act_signed,
        ),
        dataflow=dataflow,
    )
    return SimJob(
        acts=acts,
        weights=weights,
        corners=corners,
        group_size=group_size,
        strategy=strategy,
        criteria=criteria,
        config=config,
        pixel_chunk=pixel_chunk,
    )


#: The conformance catalog: every axis the backends must agree on.
CASES = {
    # strategies x dataflows
    **{
        f"{df.value}:{s.value}": _case(
            seed=31 * i + j, dataflow=df, strategy=s
        )
        for i, df in enumerate(Dataflow)
        for j, s in enumerate(MappingStrategy)
    },
    # mag-first reorder criteria
    "criteria:mag_first": _case(seed=40, strategy=MappingStrategy.REORDER, criteria="mag_first"),
    # operand widths: narrow, asymmetric, signed activations, wide PSUM
    "width:4x4x9": _case(seed=41, act_width=4, weight_width=4, psum_width=9, act_signed=True),
    "width:6x3x10": _case(seed=42, act_width=6, weight_width=3, psum_width=10),
    "width:12x12x32": _case(seed=43, act_width=12, weight_width=12, psum_width=32, act_signed=True),
    "width:8x8x25": _case(seed=44, psum_width=25),
    "width:16x8x31": _case(seed=45, act_width=16, weight_width=8, psum_width=31),
    # scales: single pixel, single output channel, chunk-straddling pixel
    # counts, wide layers that exercise group-axis tiling
    "scale:1px": _case(seed=50, n_pixels=1, dataflow=Dataflow.WEIGHT_STATIONARY,
                       strategy=MappingStrategy.REORDER),
    "scale:1col": _case(seed=51, k=1, group_size=1),
    "scale:chunk-straddle": _case(seed=52, n_pixels=11, pixel_chunk=4,
                                  dataflow=Dataflow.WEIGHT_STATIONARY),
    "scale:wide": _case(seed=53, n_pixels=6, c_eff=96, k=40, group_size=4),
    "scale:whole-layer-group": _case(seed=54, k=6, group_size=6,
                                     strategy=MappingStrategy.REORDER),
    # corner subsets (single corner, reordered subset)
    "corners:eval-only": _case(seed=60, corners=(TER_EVAL_CORNER,)),
    "corners:subset": _case(seed=61, corners=(AGING_VT_5, IDEAL, VT_3)),
    # operands beyond the nominal datapath (SimJob does not range-check)
    "operands:beyond-datapath": _case(
        seed=62, c_eff=8, k=4, group_size=2,
        act_range=(0, 70000), weight_range=(-3, 4),
    ),
    # int64 escape hatch: running sums too wide for the int32 fast path
    "operands:int64-path": _case(
        seed=63, c_eff=40, k=4, group_size=2, psum_width=32,
        act_width=16, weight_width=16,
        act_range=(0, 1 << 16), weight_range=(-(1 << 15), 1 << 15),
    ),
}


@pytest.fixture(scope="session")
def reference_reports():
    cache = {}

    def compute(name):
        if name not in cache:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MappingFallbackWarning)
                cache[name] = get_backend("reference").run(CASES[name])
        return cache[name]

    return compute


def assert_conformant(ref, got, backend):
    assert set(ref) == set(got)
    for corner_name in ref:
        r, g = ref[corner_name], got[corner_name]
        assert np.array_equal(r.outputs, g.outputs), (backend, corner_name)
        assert r.outputs.dtype == g.outputs.dtype
        assert r.n_cycles == g.n_cycles
        assert r.n_macs_per_output == g.n_macs_per_output
        assert r.strategy == g.strategy
        assert r.corner_name == g.corner_name == corner_name
        assert abs(r.ter - g.ter) <= TOL, (backend, corner_name, r.ter, g.ter)
        assert abs(r.sign_flip_rate - g.sign_flip_rate) <= TOL
        assert abs(r.mean_chain_length - g.mean_chain_length) <= TOL


@pytest.mark.parametrize("case", sorted(CASES))
def test_conformance(case, backend, reference_reports):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MappingFallbackWarning)
        got = get_backend(backend).run(CASES[case])
    assert_conformant(reference_reports(case), got, backend)


def test_conformance_under_tiling(backend, reference_reports, monkeypatch):
    """Results must not move when tiles shrink to a single pixel chunk."""
    monkeypatch.setattr(vector_module, "_MAX_BLOCK_ELEMENTS", 1)
    for case in ("scale:wide", "scale:chunk-straddle", "output_stationary:reorder"):
        got = get_backend(backend).run(CASES[case])
        assert_conformant(reference_reports(case), got, backend)


def test_backend_option_validates_names(pytestconfig):
    requested = pytestconfig.getoption("--backend")
    if requested:
        assert set(requested) <= set(backend_names())


# ---------------------------------------------------------------------- #
# Hypothesis-driven scenario conformance
# ---------------------------------------------------------------------- #
#: Deterministic, CI-friendly settings: derandomized draws, no deadline
#: (simulation wall-clock varies with the drawn shapes), no example DB.
SCENARIO_SETTINGS = settings(
    max_examples=12, deadline=None, derandomize=True, database=None
)

#: Corners every drawn scenario simulates (one stressed + ideal keeps
#: each draw cheap while covering the zero-TER edge case).
SCENARIO_CORNERS = (TER_EVAL_CORNER, IDEAL)


@hst.composite
def layer_scenarios(draw):
    """One drawn layer cell: grouping x precision x mapping x dataflow.

    Mirrors the axes of :class:`repro.scenarios.Scenario` at the layer
    level — a grouped layer is ``groups`` independent group GEMMs, the
    ``head`` flag shapes the draw like a lowered classifier ``Linear``
    (1x1 kernel, one GEMM row per image), and ``n_bits`` narrows both
    operand ranges the way mixed-precision quantization does.
    """
    head = draw(hst.booleans())
    groups = 1 if head else draw(hst.sampled_from([1, 2, 4]))
    c_per_group = draw(hst.integers(1, 6 if groups == 1 else 3))
    k_per_group = draw(hst.integers(1, 3))
    kernel = 1 if head else draw(hst.sampled_from([1, 3]))
    return {
        "head": head,
        "groups": groups,
        "c_eff": c_per_group * kernel * kernel,
        "k_per_group": k_per_group,
        "act_bits": draw(hst.sampled_from([4, 6, 8])),
        "weight_bits": draw(hst.sampled_from([2, 4, 8])),
        "strategy": draw(hst.sampled_from(list(MappingStrategy))),
        "dataflow": draw(hst.sampled_from(list(Dataflow))),
        "group_size": draw(hst.integers(1, 4)),
        "pixel_chunk": draw(hst.integers(1, 5)),
        "n_pixels": 1 if head else draw(hst.integers(1, 8)),
        "seed": draw(hst.integers(0, 2**31 - 1)),
    }


def _scenario_group_jobs(cell):
    """Materialize one SimJob per group GEMM of a drawn layer cell."""
    rng = np.random.default_rng(cell["seed"])
    config = AcceleratorConfig(dataflow=cell["dataflow"])
    jobs = []
    for _ in range(cell["groups"]):
        acts = rng.integers(0, 1 << cell["act_bits"], size=(cell["n_pixels"], cell["c_eff"]))
        q_max = 1 << (cell["weight_bits"] - 1)
        weights = rng.integers(-q_max, q_max, size=(cell["c_eff"], cell["k_per_group"]))
        jobs.append(
            SimJob(
                acts=acts,
                weights=weights,
                corners=SCENARIO_CORNERS,
                group_size=cell["group_size"],
                strategy=cell["strategy"],
                config=config,
                pixel_chunk=cell["pixel_chunk"],
            )
        )
    return jobs


@SCENARIO_SETTINGS
@given(cell=layer_scenarios())
def test_scenario_conformance_across_backends(cell):
    """Per drawn scenario: ``vector`` matches ``reference`` on every group.

    Within the 1e-9 float contract on each group job *and* on the
    cycle-weighted layer aggregate (the number the per-layer reports
    print); the fused network fold over all group GEMMs at once is
    bit-equal to the per-job runs.
    """
    from repro.experiments.common import aggregate_group_reports

    jobs = _scenario_group_jobs(cell)
    vector = get_backend("vector")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MappingFallbackWarning)
        ref = [get_backend("reference").run(job) for job in jobs]
        solo = [vector.run(job) for job in jobs]
        fused = vector.run_network(jobs)
    for r, got, stacked in zip(ref, solo, fused):
        assert_conformant(r, got, "vector")
        assert_reports_identical(stacked, got, "fused")
    ref_agg = aggregate_group_reports("layer", cell["strategy"], ref)
    got_agg = aggregate_group_reports("layer", cell["strategy"], solo)
    for corner in SCENARIO_CORNERS:
        want = ref_agg.ter_by_corner[corner.name]
        got = got_agg.ter_by_corner[corner.name]
        assert abs(want - got) <= TOL, (corner.name, want, got)


@hst.composite
def matmul_scenarios(draw):
    """One drawn QuantizedMatmul cell: a token-shaped GEMM.

    Mirrors what :func:`repro.experiments.common.gemm_sim_units` emits
    for transformer GEMMs — signed moving operands (the attention /
    LayerNorm regime, ``act_signed`` MAC configs) or unsigned post-ReLU
    and post-softmax streams, against a signed stationary matrix.
    """
    return {
        "a_signed": draw(hst.booleans()),
        "n_tokens": draw(hst.integers(1, 8)),
        "c_eff": draw(hst.integers(2, 16)),
        "k": draw(hst.integers(1, 8)),
        "a_bits": draw(hst.sampled_from([4, 8])),
        "b_bits": draw(hst.sampled_from([4, 8])),
        "strategy": draw(hst.sampled_from(list(MappingStrategy))),
        "group_size": draw(hst.integers(1, 4)),
        "seed": draw(hst.integers(0, 2**31 - 1)),
    }


def _matmul_job(cell):
    rng = np.random.default_rng(cell["seed"])
    if cell["a_signed"]:
        a_range = (-(1 << (cell["a_bits"] - 1)), 1 << (cell["a_bits"] - 1))
    else:
        a_range = (0, 1 << cell["a_bits"])
    q_max = 1 << (cell["b_bits"] - 1)
    acts = rng.integers(*a_range, size=(cell["n_tokens"], cell["c_eff"]))
    weights = rng.integers(-q_max, q_max, size=(cell["c_eff"], cell["k"]))
    config = AcceleratorConfig(
        mac=MacConfig(
            act_width=cell["a_bits"],
            weight_width=cell["b_bits"],
            act_signed=cell["a_signed"],
        )
    )
    return SimJob(
        acts=acts,
        weights=weights,
        corners=SCENARIO_CORNERS,
        group_size=cell["group_size"],
        strategy=cell["strategy"],
        config=config,
    )


@SCENARIO_SETTINGS
@given(cell=matmul_scenarios())
def test_matmul_conformance_across_backends(cell):
    """Signed-operand matmul cells honor the same contract as conv GEMMs:
    ``vector`` within 1e-9 of ``reference``."""
    job = _matmul_job(cell)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MappingFallbackWarning)
        ref = get_backend("reference").run(job)
        got = get_backend("vector").run(job)
    assert_conformant(ref, got, "vector")


@hst.composite
def network_scenarios(draw):
    """A drawn tiny network: depthwise block x mixed bits x injected set."""
    c1 = draw(hst.sampled_from([4, 6]))
    c2 = draw(hst.sampled_from([4, 8]))
    depthwise = draw(hst.booleans())
    bits = {
        "conv0": draw(hst.sampled_from([6, 8])),
        "mid": draw(hst.sampled_from([4, 8])),
        "fc": draw(hst.sampled_from([6, 8])),
    }
    inject = draw(
        hst.sets(hst.sampled_from(["conv0", "mid", "pw", "fc"]), min_size=1)
    )
    return {
        "c1": c1,
        "c2": c2,
        "depthwise": depthwise,
        "bits": bits,
        "inject": sorted(inject),
        "seed": draw(hst.integers(0, 2**31 - 1)),
        "batch_size": draw(hst.sampled_from([3, 5, 16])),
    }


def _build_scenario_network(cell):
    from repro.nn.layers import Conv2d, GlobalAvgPool, Linear, ReLU, Sequential
    from repro.nn.models import ClassifierNetwork
    from repro.nn.quantize import QuantizedNetwork

    rng = np.random.default_rng(cell["seed"])
    c1, c2 = cell["c1"], cell["c2"]
    features = Sequential(
        [
            Conv2d(3, c1, 3, padding=1, rng=rng, name="conv0"),
            ReLU(),
            Conv2d(
                c1, c1, 3, padding=1,
                groups=c1 if cell["depthwise"] else 1, rng=rng, name="mid",
            ),
            ReLU(),
            Conv2d(c1, c2, 1, rng=rng, name="pw"),
            ReLU(),
        ]
    )
    head = Sequential([GlobalAvgPool(), Linear(c2, 4, rng=rng, name="fc")])
    model = ClassifierNetwork("hyp", features, head)
    qnet = QuantizedNetwork(model, bits_per_layer=cell["bits"])
    x = rng.random((12, 3, 10, 10))
    y = rng.integers(0, 4, size=12)
    qnet.calibrate(x[:6])
    return qnet, x, y


@SCENARIO_SETTINGS
@given(cell=network_scenarios())
def test_scenario_injection_runtimes_bit_identical(cell):
    """Per drawn scenario: serial and batched runtimes agree bit-for-bit.

    The network realizes the draw's axes (depthwise mid layer, head as
    1x1 conv, per-layer bits) and the campaign injects into the drawn
    layer subset — including head-only campaigns, which the seed repro
    could not express at all.
    """
    from repro.faults.injection_job import run_injection_trials

    qnet, x, y = _build_scenario_network(cell)
    bers = {name: 0.02 for name in cell["inject"]}
    serial = run_injection_trials(
        qnet, x, y, bers, n_trials=2, base_seed=cell["seed"] % 1000,
        runtime="serial", batch_size=cell["batch_size"],
    )
    batched = run_injection_trials(
        qnet, x, y, bers, n_trials=2, base_seed=cell["seed"] % 1000,
        runtime="batched", batch_size=cell["batch_size"],
    )
    assert serial.trial_accuracies == batched.trial_accuracies
    assert serial.flips_injected == batched.flips_injected


# ---------------------------------------------------------------------- #
# Corner fusion and NetworkJob stacking (the fused vector kernel)
# ---------------------------------------------------------------------- #
def assert_reports_identical(a, b, context=""):
    """Bit-equality between two report dicts from the *same* backend."""
    assert set(a) == set(b), context
    for corner_name in a:
        r, g = a[corner_name], b[corner_name]
        assert np.array_equal(r.outputs, g.outputs), (context, corner_name)
        assert r.n_cycles == g.n_cycles, (context, corner_name)
        assert r.n_macs_per_output == g.n_macs_per_output
        assert r.ter == g.ter, (context, corner_name, r.ter, g.ter)
        assert r.sign_flip_rate == g.sign_flip_rate, (context, corner_name)
        assert r.mean_chain_length == g.mean_chain_length, (context, corner_name)


@SCENARIO_SETTINGS
@given(cell=layer_scenarios())
def test_corner_fused_pricing_matches_single_corner_jobs(cell):
    """Fused multi-corner pricing == one-corner-at-a-time, bit for bit.

    The fused kernel builds each job's delay histogram once and prices
    every corner against it; a job narrowed to any single corner must
    yield the exact same report for that corner — outputs, cycle
    counts, and every float statistic with zero tolerance.
    """
    job = dataclasses.replace(
        _scenario_group_jobs(cell)[0], corners=PAPER_CORNERS
    )
    vector = get_backend("vector")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MappingFallbackWarning)
        fused = vector.run(job)
        for corner in PAPER_CORNERS:
            single = vector.run(dataclasses.replace(job, corners=(corner,)))
            assert_reports_identical({corner.name: fused[corner.name]}, single)


#: Distinct-key member jobs spanning dataflows, widths and scales.
NETWORK_JOB_MEMBERS = (
    "output_stationary:baseline",
    "weight_stationary:reorder",
    "width:4x4x9",
    "width:6x3x10",
    "scale:wide",
    "scale:1col",
)


def test_network_job_equals_per_layer_jobs_with_cache_fanout(
    tmp_path, reference_reports
):
    """A stacked NetworkJob == its member SimJobs, through the cache.

    Entry-for-entry bit-equality against direct per-job backend runs
    (and conformance to ``reference``), plus the cache fan-out contract:
    a cold stacked submission misses once per *member* key, a warm
    per-layer cache fully satisfies a later stacked submission, and a
    stacked run warms the per-layer cache for solo submissions — across
    engine instances.
    """
    jobs = [CASES[name] for name in NETWORK_JOB_MEMBERS]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MappingFallbackWarning)
        direct = [get_backend("vector").run(job) for job in jobs]

        engine = SimEngine(backend="vector", cache_dir=tmp_path)
        before = engine.stats.snapshot()
        stacked = engine.run(NetworkJob(jobs=tuple(jobs), label="conformance"))
        delta = engine.stats.since(before)
    assert delta.misses == len(jobs) and delta.hits == 0
    assert isinstance(stacked, list) and len(stacked) == len(jobs)
    for i, (got, want) in enumerate(zip(stacked, direct)):
        assert_reports_identical(got, want, f"stacked[{i}]")
        assert_conformant(reference_reports(NETWORK_JOB_MEMBERS[i]), got, "vector")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MappingFallbackWarning)
        # The stacked run warmed the per-member cache: solo submissions
        # on a *fresh* engine over the same cache dir are all hits.
        solo_engine = SimEngine(backend="vector", cache_dir=tmp_path)
        before = solo_engine.stats.snapshot()
        solo = solo_engine.run_many(jobs)
        delta = solo_engine.stats.since(before)
    assert delta.hits == len(jobs) and delta.misses == 0
    for i, (got, want) in enumerate(zip(solo, direct)):
        assert_reports_identical(got, want, f"solo[{i}]")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MappingFallbackWarning)
        # And the warm per-layer cache fully satisfies a stacked resubmit.
        before = solo_engine.stats.snapshot()
        restacked = solo_engine.run(NetworkJob(jobs=tuple(jobs)))
        delta = solo_engine.stats.since(before)
    assert delta.hits == len(jobs) and delta.misses == 0
    for i, (got, want) in enumerate(zip(restacked, direct)):
        assert_reports_identical(got, want, f"restacked[{i}]")
