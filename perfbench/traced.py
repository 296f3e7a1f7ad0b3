"""Run one CLI command (or the model training) in-process under a tracer.

Usage (``src`` on ``PYTHONPATH``)::

    python perfbench/traced.py --out spans.json cli all --scale micro --jobs 1
    python perfbench/traced.py --out spans.json train vgg16_cifar10 resnet18_cifar10

Without ``--out`` the command runs untraced (``run.py`` trains its
models that way).

Before the command runs, every ``repro`` module is imported and each
public function in :data:`LAYERS` is replaced by a timing wrapper at
*every* module that binds it: the figure modules import ``get_bundle``
by name, so patching ``repro.experiments.common`` alone would miss their
calls.  Each call becomes a span ``(layer, start, end, parent)`` kept in
memory; when the command ends the spans, the process start, the end
time and the engine/work counters are written to ``--out`` as JSON.
``run.py`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Optional

from harness import job_macs


def process_start() -> float:
    """``perf_counter`` reading of this process's start (kernel clock).

    Falls back to "now" where ``/proc`` is unavailable.
    """
    now = time.perf_counter()
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return now
    return now - max(0.0, age)


#: Layer -> "module:qualname" of every public function timed into it.
LAYERS: Dict[str, List[str]] = {
    "experiments.orchestrate": ["repro.experiments.orchestrator:run_all"],
    "experiments.campaign": ["repro.experiments.campaign:run_campaign"],
    "experiments.render": ["repro.experiments.campaign:render"],
    "nn.bundle": ["repro.experiments.common:get_bundle"],
    "nn.streams": ["repro.experiments.common:record_operand_streams"],
    "nn.train": ["repro.nn.training:Trainer.fit"],
    "nn.evaluate": [
        "repro.nn.quantize:QuantizedNetwork.evaluate",
        "repro.nn.quantize:QuantizedTokenNetwork.evaluate",
    ],
    "nn.trials": [
        "repro.nn.quantize:QuantizedNetwork.evaluate_trials",
        "repro.nn.quantize:QuantizedTokenNetwork.evaluate_trials",
    ],
    "engine.run": [
        "repro.engine.scheduler:SimEngine.run_many",
        "repro.engine.scheduler:SimEngine.run_stream",
    ],
    "engine.key": [
        "repro.engine.job:SimJob.key",
        "repro.engine.job:job_key",
        "repro.faults.injection_job:InjectionJob.key",
        "repro.faults.injection_job:InjectionShard.key",
    ],
    "cache.load": ["repro.engine.cache:ResultCache.load"],
    "cache.store": ["repro.engine.cache:ResultCache.store"],
    "vector.run": [
        "repro.engine.vector:VectorBackend.run",
        "repro.engine.vector:VectorBackend.run_network",
    ],
    "inject.trials": ["repro.faults.injection_job:run_injection_trials"],
    "arena": [
        "repro.engine.arena:OperandArena.publish",
        "repro.engine.arena:OperandArena.attach",
    ],
}

#: Figure-runner entry points, timed on every module in ``RUNNERS``.
RUNNER_LAYERS = {
    "plan": "experiments.plan",
    "plan_injections": "experiments.plan",
    "run": "experiments.render",
    "render": "experiments.render",
}

class Tracer:
    """In-memory span recorder plus the work counters the spans carry."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {
            "vector_macs": 0,
            "cache_bytes_read": 0,
            "inject_trials": 0,
            "inject_trial_layers": 0,
        }

    def wrap(
        self,
        layer: str,
        fn: Callable,
        on_exit: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append([layer, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return traced

    # ---- counters fed from call arguments ---------------------------- #
    def count_macs(self, args, kwargs, result) -> None:
        self.counters["vector_macs"] += sum(job_macs(job) for job in args[1])

    def count_bytes(self, args, kwargs, result) -> None:
        if result is not None:
            cache, key = args[0], args[1]
            try:
                self.counters["cache_bytes_read"] += cache.path_for(key).stat().st_size
            except OSError:
                pass

    def count_trials(self, args, kwargs, result) -> None:
        # Dedup is counted per (trial, GEMM layer) event.
        n_trials = int(kwargs["n_trials"])
        self.counters["inject_trials"] += n_trials
        self.counters["inject_trial_layers"] += n_trials * len(args[0].gemm_ops())


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":  # runs the CLI on import
            importlib.import_module(info.name)


def _rebind(original: Callable, wrapper: Callable) -> int:
    """Replace ``original`` by ``wrapper`` at every ``repro`` module binding it."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                bound += 1
    return bound


def install(tracer: Tracer) -> None:
    """Wrap every function of :data:`LAYERS` and every figure runner."""
    _import_all()
    hooks = {
        "repro.engine.vector:VectorBackend.run_network": tracer.count_macs,
        "repro.engine.cache:ResultCache.load": tracer.count_bytes,
        "repro.faults.injection_job:run_injection_trials": tracer.count_trials,
    }
    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, qualname = target.split(":")
            module = sys.modules[module_name]
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, tracer.wrap(layer, original, hooks.get(target)))
            else:
                original = getattr(module, qualname)
                wrapper = tracer.wrap(layer, original, hooks.get(target))
                if not _rebind(original, wrapper):
                    raise RuntimeError(f"{target} is bound nowhere")
    from repro.experiments import RUNNERS

    for runner in RUNNERS.values():
        for attr, layer in RUNNER_LAYERS.items():
            fn = getattr(runner, attr, None)
            if fn is not None:
                _rebind(fn, tracer.wrap(layer, fn))


def main(argv: Optional[List[str]] = None) -> int:
    started = process_start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="span/counter JSON to write (omit: run untraced)")
    parser.add_argument("mode", choices=("cli", "train"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    tracer = Tracer()
    if opts.out:
        install(tracer)
    if opts.mode == "cli":
        from repro.cli import main as cli_main

        code = cli_main(opts.args)
    else:
        from repro.experiments import get_bundle, get_scale

        for recipe in opts.args:
            get_bundle(recipe, get_scale("micro"))
        code = 0
    if opts.out:
        from repro.engine import default_engine

        record = {
            "process_start": started,
            "end": time.perf_counter(),
            "spans": tracer.spans,
            "counters": tracer.counters,
            "engine": default_engine().stats.as_dict() if opts.mode == "cli" else {},
        }
        with open(opts.out, "w") as handle:
            json.dump(record, handle)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
