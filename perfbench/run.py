"""End-to-end benchmark of the ``read-repro`` commands.

Usage, from the repository root::

    python3 perfbench/run.py --workload all-micro --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Each workload runs one real CLI command (``python -m repro ...``) as a
subprocess, after a set-up that trains the workload's models into a
fresh model cache: first cold (empty result cache), then warm (on a
copy of the result cache the first cold command filled), each a fixed
number of times, adding warm commands until ``--seconds`` have passed:

* ``all-micro`` — ``all --scale micro``;
* ``campaign-mixer`` — a ``mixer_cifar10`` injection campaign.

Every command gets its own result cache and ``$REPRO_ARENA_DIR``, runs
with ``--jobs 1`` and without ``$REPRO_ENGINE_SOCKET``; afterwards its
arena registry is swept and ``/dev/shm`` must hold no new
``repro-arena-*`` segment.  The benchmark is the child subreaper of
everything it starts: helpers that outlive a command (multiprocessing's
resource tracker) are waited for, and killed after a grace period,
before the next command starts and before the benchmark exits.  Its
output must match ``expected.json``: the digest of the manifest minus
its ``run`` block plus the artifacts, and the engine summary counts.

``--trace 0`` prints the end-to-end metrics (``cold_wall_s``,
``warm_wall_s``, ``setup_s``, ``peak_rss_mb``) and every command's wall
clock.  ``--trace 1`` also runs one cold and one warm command under
``traced.py`` and prints the per-layer metrics of each (``cold.*``,
``warm.*``): self time and calls of each layer, work counters, trace
coverage and tracing overhead.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import harness

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Seconds after start by which every command of a run must have ended;
#: a command still running then is killed and counted as failed.
RUN_DEADLINE_S = 170.0

#: Seconds a command's leftover descendants get to end on their own
#: before they are killed (and the command counted as failed).
DESCENDANT_GRACE_S = 3.0

#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36

ALL_RECIPES = ("vgg16_cifar10", "resnet18_cifar10", "vgg16_cifar100", "resnet34_imagenet32")
ALL_ARGV = ("all", "--scale", "micro", "--jobs", "1")
CAMPAIGN_ARGV = (
    "campaign", "--recipe", "mixer_cifar10", "--scale", "micro",
    "--max-trials", "64", "--jobs", "1",
)


@dataclass(frozen=True)
class Workload:
    argv: Tuple[str, ...]
    recipes: Tuple[str, ...]
    #: Set-ups per run; ``setup_s`` is their median.  Training the four
    #: ``all`` models takes 15-22 s, so that set-up runs once.
    setups: int
    #: Cold and warm commands measured per run: as many as let a schedule
    #: of 48 runs end within the hour on a 2-core host in its slow phases,
    #: when one ``all-micro`` run takes ~67 s and one ``campaign-mixer``
    #: run ~44 s.
    cold: int
    warm: int


WORKLOADS: Dict[str, Workload] = {
    "all-micro": Workload(ALL_ARGV, ALL_RECIPES, setups=1, cold=1, warm=2),
    "campaign-mixer": Workload(CAMPAIGN_ARGV, ("mixer_cifar10",), setups=3, cold=5, warm=6),
}


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    problems: List[str] = field(default_factory=list)


def adopt_orphans() -> None:
    """Become the child subreaper of every process the benchmark starts.

    A command's helpers can outlive it by a moment; re-parented to this
    process instead of init, :func:`reap_children` can wait for them.
    Without ``prctl`` (not Linux) orphans go to init as usual.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _live_children() -> Dict[int, str]:
    """Pid -> command line of every child of this process that has not exited."""
    me = os.getpid()
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
            if int(ppid) != me or state == "Z":
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, ValueError):
            continue
        children[int(entry)] = cmdline.strip() or f"pid {entry}"
    return children


def reap_children(grace_s: float = DESCENDANT_GRACE_S) -> List[str]:
    """Wait until every child process has ended and been reaped.

    Children still running after ``grace_s`` seconds are killed; their
    command lines are returned.
    """
    deadline = time.monotonic() + grace_s
    killed: Dict[int, str] = {}
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return sorted(killed.values())
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child, cmdline in _live_children().items():
                killed.setdefault(child, cmdline)
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def _stop_resource_tracker() -> None:
    """End the resource tracker this process may have started.

    Unlinking a segment through ``multiprocessing.shared_memory`` starts
    a tracker child that otherwise lives until this process exits.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, OSError, ChildProcessError):
        pass


def _arena_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-arena-")}
    except OSError:
        return set()


def _sweep_arena(registry: Path) -> None:
    """Unlink every segment the run's private arena registry describes."""
    from repro.engine.arena import OperandArena

    OperandArena(registry).sweep()
    _stop_resource_tracker()


def stamp() -> str:
    """Commit (or source digest), CPU count, BLAS library and threads."""
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    if not commit:
        commit = "source-sha256:" + harness.tree_digest(SRC)[:16]
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')}-{blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    threads = next(
        (f"{var}={os.environ[var]}" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
         if var in os.environ),
        f"default({os.cpu_count()})",
    )
    return (
        f"stamp: commit={commit} cpus={os.cpu_count()} blas={blas_name} "
        f"blas_threads={threads} numpy={numpy.__version__} "
        f"python={sys.version.split()[0]}"
    )


class Bench:
    """One benchmark invocation: set-up, measured commands, checks."""

    def __init__(self, name: str, work: Path, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = work
        self.expected = json.loads((HERE / "expected.json").read_text())
        self._counter = 0
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(SRC)

    def _dir(self, label: str) -> Path:
        self._counter += 1
        path = self.work / f"{self._counter:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def _spawn(
        self, cmd: Sequence[str], env: Dict[str, str], log: Path
    ) -> Tuple[int, float, float, List[str]]:
        """Run ``cmd`` and every process it leaves behind to completion.

        Returns (exit code, wall s, peak RSS MB, command lines of the
        leftover processes that had to be killed).
        """
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
            killer = threading.Timer(max(0.0, self.deadline - time.perf_counter()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        grace = min(DESCENDANT_GRACE_S, max(0.0, self.deadline - time.perf_counter()))
        killed = reap_children(grace)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, killed

    def _isolated(self, run_dir: Path, models: Path, prefill: Optional[Path]) -> Dict[str, str]:
        cache = run_dir / "cache"
        cache.mkdir()
        for model in models.glob("*.npz"):
            shutil.copyfile(model, cache / model.name)
        if prefill is not None:
            shutil.copytree(prefill, cache / "sim-results")
        (run_dir / "arena").mkdir()
        return dict(self.env, REPRO_CACHE=str(cache), REPRO_ARENA_DIR=str(run_dir / "arena"))

    # ------------------------------------------------------------------ #
    def train(self, trace_out: Optional[Path] = None) -> Tuple[float, Path]:
        """Train the workload's models into a fresh model cache."""
        run_dir = self._dir("train")
        models = run_dir / "models"
        models.mkdir()
        (run_dir / "arena").mkdir()
        env = dict(self.env, REPRO_CACHE=str(models), REPRO_ARENA_DIR=str(run_dir / "arena"))
        cmd = [sys.executable, str(HERE / "traced.py")]
        if trace_out is not None:
            cmd += ["--out", str(trace_out)]
        cmd += ["train", *self.workload.recipes]
        try:
            code, wall, _, killed = self._spawn(cmd, env, run_dir / "train.log")
        finally:
            _sweep_arena(run_dir / "arena")
        if killed:
            raise RuntimeError(f"training left processes running: {killed}")
        if code != 0:
            log = (run_dir / "train.log").read_text().splitlines()[-20:]
            raise RuntimeError(f"training failed (exit {code}):\n" + "\n".join(log))
        shutil.rmtree(models / "sim-results", ignore_errors=True)
        return wall, models

    def command(
        self,
        models: Path,
        phase: str,
        prefill: Optional[Path] = None,
        trace_out: Optional[Path] = None,
        keep_results: Optional[Path] = None,
    ) -> Sample:
        """One isolated run of the workload's CLI command, checked against
        the ``<workload>-<phase>`` entry of ``expected.json``."""
        run_dir = self._dir("cmd")
        env = self._isolated(run_dir, models, prefill)
        artifacts = run_dir / "artifacts"
        argv = [*self.workload.argv, "--artifacts", str(artifacts)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced.py"), "--out", str(trace_out), "cli", *argv]
        before = _arena_segments()
        try:
            code, wall, rss, killed = self._spawn(cmd, env, run_dir / "stdout.log")
        finally:
            _sweep_arena(run_dir / "arena")
        sample = Sample(wall, rss)
        if killed:
            sample.problems.append(f"processes outlived the command and were killed: {killed}")
        leaked = _arena_segments() - before
        if leaked:
            sample.problems.append(f"arena segments outlived the run: {sorted(leaked)}")
            for name in leaked:
                os.unlink(f"/dev/shm/{name}")
        if code != 0:
            sample.problems.append(f"exit code {code}")
        else:
            sample.problems += self.check(
                f"{self.name}-{phase}", artifacts, (run_dir / "stdout.log").read_text()
            )
        if keep_results is not None:
            results = run_dir / "cache" / "sim-results"
            if results.is_dir():
                shutil.move(str(results), str(keep_results))
            else:  # the command failed early; warm commands then fail their check
                keep_results.mkdir()
        shutil.rmtree(run_dir)
        return sample

    def check(self, workload: str, artifacts: Path, stdout: str) -> List[str]:
        expected = self.expected[workload]
        problems = []
        try:
            digest = harness.output_digest(artifacts)
        except (OSError, ValueError) as exc:
            digest = f"unreadable ({exc})"
        if digest != expected["digest"]:
            problems.append(f"output digest {digest} != recorded {expected['digest']}")
        counts = harness.parse_engine_summary(stdout)
        if counts != expected["engine"]:
            problems.append(f"engine counts {counts} != recorded {expected['engine']}")
        return problems

    # ------------------------------------------------------------------ #
    def setup(self, trace_out: Optional[Path]) -> Tuple[List[float], Path]:
        """Set-up times and the trained model cache."""
        times: List[float] = []
        models = None
        for _ in range(1 if trace_out is not None else self.workload.setups):
            wall, fresh = self.train(trace_out)
            times.append(wall)
            if models is not None:
                shutil.rmtree(models.parent)
            models = fresh
        return times, models

    def measure(self, seconds: float, models: Path) -> Tuple[List[Sample], List[Sample], Path]:
        """Cold commands, then warm ones on the result cache the first cold one filled."""
        start = time.perf_counter()
        prefill = self.work / "prefill"
        cold = [self.command(models, "cold", keep_results=prefill)]
        while len(cold) < self.workload.cold:
            cold.append(self.command(models, "cold"))
        warm: List[Sample] = []
        while len(warm) < self.workload.warm or time.perf_counter() - start < seconds:
            warm.append(self.command(models, "warm", prefill))
        return cold, warm, prefill


def _median_wall(samples: List[Sample]) -> float:
    return statistics.median(s.wall_s for s in samples)


def end_to_end(cold: List[Sample], warm: List[Sample], setup_times: List[float]) -> Dict[str, dict]:
    for phase, samples in (("cold", cold), ("warm", warm)):
        walls = " ".join(f"{s.wall_s:.3f}" for s in samples)
        print(f"{phase}_wall_s samples (n={len(samples)}): {walls}")
    return {
        "cold_wall_s": {"value": _median_wall(cold), "unit": "s"},
        "warm_wall_s": {"value": _median_wall(warm), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": max(s.rss_mb for s in cold + warm), "unit": "MB"},
    }


def per_layer(trace: dict, traced: Sample, untraced_median: float) -> Dict[str, dict]:
    """Per-layer metrics of one traced command."""
    spans = [tuple(span) for span in trace["spans"]]
    rollup = harness.layer_rollup(spans)
    start, end = trace["process_start"], trace["end"]
    first = min(
        (s[1] for s in spans if s[0].startswith("experiments.") and s[3] < 0), default=end
    )
    covered = harness.covered_seconds(spans + [("cli.startup", start, first, -1)])
    engine = trace["engine"]
    counters = trace["counters"]

    def secs(layer: str) -> float:
        return rollup.get(layer, (0.0, 0))[0]

    def calls(layer: str) -> int:
        return rollup.get(layer, (0.0, 0))[1]

    total_jobs = sum(engine[k] for k in ("hits", "misses", "deduped", "cancelled", "coalesced"))
    campaign = "experiments.campaign" in rollup
    executed = engine["misses"] if campaign else 0
    cancelled = engine["cancelled"] if campaign else 0
    values = {
        "cli.startup_s": (first - start, "s"),
        "experiments.plan_s": (secs("experiments.plan"), "s"),
        "experiments.render_s": (secs("experiments.render"), "s"),
        "experiments.orchestrate_s": (secs("experiments.orchestrate"), "s"),
        "experiments.campaign_s": (secs("experiments.campaign"), "s"),
        "campaign.shards_executed": (executed, "count"),
        "campaign.shards_cancelled": (cancelled, "count"),
        "campaign.cancel_ratio": (harness.ratio(cancelled, executed + cancelled), "ratio"),
        "nn.bundle_s": (secs("nn.bundle"), "s"),
        "nn.bundle_calls": (calls("nn.bundle"), "count"),
        "nn.streams_s": (secs("nn.streams"), "s"),
        "nn.evaluate_s": (secs("nn.evaluate"), "s"),
        "nn.evaluate_calls": (calls("nn.evaluate"), "count"),
        "nn.trials_s": (secs("nn.trials"), "s"),
        "nn.trials_calls": (calls("nn.trials"), "count"),
        "engine.run_s": (secs("engine.run"), "s"),
        "engine.jobs_submitted": (total_jobs, "count"),
        "engine.jobs_simulated": (engine["misses"], "count"),
        "engine.hit_ratio": (harness.ratio(engine["hits"], total_jobs), "ratio"),
        "engine.key_s": (secs("engine.key"), "s"),
        "engine.key_calls": (calls("engine.key"), "count"),
        "cache.load_s": (secs("cache.load"), "s"),
        "cache.load_calls": (calls("cache.load"), "count"),
        "cache.load_ms_per_entry": (
            1000.0 * harness.ratio(secs("cache.load"), calls("cache.load")), "ms"
        ),
        "cache.bytes_read": (counters["cache_bytes_read"], "B"),
        "cache.store_s": (secs("cache.store"), "s"),
        "cache.store_calls": (calls("cache.store"), "count"),
        "vector.run_s": (secs("vector.run"), "s"),
        "vector.macs": (counters["vector_macs"], "MAC"),
        "vector.macs_per_s": (harness.ratio(counters["vector_macs"], secs("vector.run")), "MAC/s"),
        "inject.trials_s": (secs("inject.trials"), "s"),
        "inject.trials": (counters["inject_trials"], "count"),
        "inject.trial_layers": (counters["inject_trial_layers"], "count"),
        "inject.trials_deduped": (engine["trials_deduped"], "count"),
        "inject.trials_pruned": (engine["trials_pruned"], "count"),
        "inject.dedup_ratio": (
            harness.ratio(engine["trials_deduped"], counters["inject_trial_layers"]), "ratio"
        ),
        "arena.s": (secs("arena"), "s"),
        "arena.stores": (engine["arena_stores"], "count"),
        "arena.hits": (engine["arena_hits"], "count"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - untraced_median, "s"),
        "trace.coverage": (harness.ratio(covered, end - start), "ratio"),
        "trace.uncovered_s": ((end - start) - covered, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_all_workloads(opts: argparse.Namespace) -> int:
    """``--workload all``: every workload in turn, one process each.

    Prints each workload's output prefixed by its name, then one JSON
    line merging the results (metrics keyed ``<workload>.<metric>``).
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(opts.seed),
             "--seconds", str(opts.seconds), "--trace", str(opts.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.workload == "all":
        return run_all_workloads(opts)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'repro'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    adopt_orphans()
    # SIGTERM unwinds like an exception: the running command is killed
    # and every child reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(stamp())
    print(f"workload {opts.workload}, seed {opts.seed}: the CLI takes no seed, "
          "so the inputs are fixed by the command")

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(opts.workload, work, deadline=time.perf_counter() + RUN_DEADLINE_S)
        train_trace = work / "train-trace.json" if opts.trace else None
        setup_times, models = bench.setup(train_trace)
        cold, warm, prefill = bench.measure(opts.seconds, models)
        attempted = cold + warm
        if opts.trace:
            train_spans = [tuple(s) for s in json.loads(train_trace.read_text())["spans"]]
            train_s = harness.layer_rollup(train_spans).get("nn.train", (0.0, 0))[0]
            metrics = {"nn.train_s": {"value": train_s, "unit": "s"}}
            for phase, samples, cache in (("cold", cold, None), ("warm", warm, prefill)):
                cmd_trace = work / f"{phase}-trace.json"
                traced = bench.command(models, phase, cache, trace_out=cmd_trace)
                attempted.append(traced)
                layers = per_layer(
                    json.loads(cmd_trace.read_text()), traced, _median_wall(samples)
                )
                metrics.update({f"{phase}.{name}": value for name, value in layers.items()})
        else:
            metrics = end_to_end(cold, warm, setup_times)
    finally:
        _stop_resource_tracker()
        reap_children()
        shutil.rmtree(work, ignore_errors=True)

    failed = [s for s in attempted if s.problems]
    for sample in failed:
        print("FAILED: " + "; ".join(sample.problems))
    print(f"fail_rate: {len(failed)}/{len(attempted)}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
