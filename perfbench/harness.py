"""Pure helpers of the end-to-end benchmark (see ``run.py``).

Nothing here starts a process or touches the program under test, so the
unit tests in ``test_perfbench.py`` import it directly:

* :func:`output_digest` — what "the same output" means for a run: the
  manifest with only its volatile ``run`` block removed, plus the
  artifact contents;
* :func:`parse_engine_summary` — the engine counters the CLI prints on
  its last ``engine[...]`` line;
* :func:`self_times` / :func:`covered_seconds` — span arithmetic of the
  traced run;
* :func:`job_macs` — the MAC count of a ``SimJob`` from its operand
  shapes.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import zipfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------- #
# Output check
# ---------------------------------------------------------------------- #
def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every ``*.py`` under ``root``."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest_without_run(manifest: Dict[str, object]) -> Dict[str, object]:
    """A copy of ``manifest`` minus its top-level ``run`` block only."""
    return {key: value for key, value in manifest.items() if key != "run"}


def _npz_members(data: bytes) -> List[Tuple[str, bytes]]:
    """Member name and uncompressed bytes of an ``.npz`` archive.

    Hashing members rather than the file keeps zip timestamps out of
    the digest.
    """
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        return [(name, archive.read(name)) for name in sorted(archive.namelist())]


def output_digest(artifacts_dir: Path) -> str:
    """sha256 of a run's artifacts, deterministic across repeated runs.

    Covers ``manifest.json`` with its ``run`` block (wall clocks, cache
    counters) removed, every ``*.txt`` rendering, and the members of
    every ``*.npz`` artifact, in name order.
    """
    h = hashlib.sha256()
    manifest = json.loads((artifacts_dir / "manifest.json").read_text())
    h.update(json.dumps(manifest_without_run(manifest), sort_keys=True).encode())
    for path in sorted(artifacts_dir.iterdir()):
        if path.suffix == ".txt":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        elif path.suffix == ".npz":
            for name, member in _npz_members(path.read_bytes()):
                h.update(f"{path.name}/{name}".encode() + b"\0" + member)
    return h.hexdigest()


_SUMMARY_FIELDS = {
    "jobs": r"(\d+) job\(s\)",
    "hits": r"(\d+) cache hit\(s\)",
    "simulated": r"(\d+) simulated",
    "cancelled": r"(\d+) cancelled",
    "trials_deduped": r"(\d+) deduped",
}


def parse_engine_summary(stdout: str) -> Optional[Dict[str, int]]:
    """Counters of the last ``engine[...]`` summary line, or None.

    Counters the CLI omits when zero (cancelled jobs, deduped trials)
    read as 0.
    """
    lines = [line for line in stdout.splitlines() if line.startswith("engine[")]
    if not lines:
        return None
    counts = {}
    for name, pattern in _SUMMARY_FIELDS.items():
        match = re.search(pattern, lines[-1])
        counts[name] = int(match.group(1)) if match else 0
    return counts


# ---------------------------------------------------------------------- #
# Span arithmetic
# ---------------------------------------------------------------------- #
#: A span: (layer, start, end, parent index or -1).
Span = Tuple[str, float, float, int]


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for layer, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (layer, start, end, parent) in enumerate(spans):
        clipped = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(i, [])
            if min(hi, end) > max(lo, start)
        ]
        out.append((end - start) - _union_length(clipped))
    return out


def covered_seconds(spans: Sequence[Span]) -> float:
    """Wall time covered by root spans (overlaps counted once)."""
    return _union_length((start, end) for _, start, end, parent in spans if parent < 0)


def layer_rollup(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """Layer -> (summed self time, calls into the layer).

    A call counts when its parent span belongs to another layer, so a
    layer function calling another function of the same layer (e.g.
    ``SimJob.key`` -> ``job_key``) is one call.
    """
    selfs = self_times(spans)
    rollup: Dict[str, List[float]] = {}
    for (layer, _, _, parent), own in zip(spans, selfs):
        entry = rollup.setdefault(layer, [0.0, 0])
        entry[0] += own
        if parent < 0 or spans[parent][0] != layer:
            entry[1] += 1
    return {layer: (total, int(calls)) for layer, (total, calls) in rollup.items()}


# ---------------------------------------------------------------------- #
# Work counts
# ---------------------------------------------------------------------- #
def job_macs(job) -> int:
    """MACs of one ``SimJob``: GEMM rows x reduction length x outputs.

    ``acts`` is ``(n_pixels, C_eff)`` and ``weights`` ``(C_eff, K)``;
    every corner of the job shares the one simulated pass, so corners do
    not multiply the count.
    """
    n_pixels, c_eff = job.acts.shape
    return int(n_pixels) * int(c_eff) * int(job.weights.shape[1])


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted."""
    return float(num) / float(den) if den else 0.0
