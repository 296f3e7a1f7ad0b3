"""Compare two manifests modulo their volatile ``run`` block.

Works on any manifest whose only volatile block is ``run``: the
campaign's (``repro.experiments.campaign.VOLATILE_MANIFEST_FIELDS``) and
``read-repro all``'s (``repro.experiments.orchestrator.
VOLATILE_MANIFEST_FIELDS = ("run",)``).  Everything outside ``run``
(wall clocks, hit/miss counters, resume flag, engine shape) is a pure
function of the inputs, so a campaign killed mid-flight and resumed must
produce the manifest of an uninterrupted run, and a warm ``all`` the
manifest of a cold one.  CI enforces both contracts with this tool:

    python tools/compare_manifests.py A/manifest.json B/manifest.json

Exit status 0 when the stable blocks match; 1 with a pointed diff (the
mismatching top-level keys, then the first differing leaf paths) when
they do not.
"""

from __future__ import annotations

import json
import sys
from typing import Iterator, Tuple

#: Keys excluded from the comparison — must stay in sync with the
#: ``VOLATILE_MANIFEST_FIELDS`` of ``repro.experiments.campaign`` and
#: ``repro.experiments.orchestrator``.
VOLATILE_FIELDS = ("run",)

MAX_LEAF_DIFFS = 10


def stable(manifest: dict) -> dict:
    return {k: v for k, v in manifest.items() if k not in VOLATILE_FIELDS}


def leaf_diffs(a: object, b: object, path: str = "$") -> Iterator[Tuple[str, object, object]]:
    """Yield (path, left, right) for every differing leaf, depth-first."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                yield f"{path}.{key}", "<missing>", b[key]
            elif key not in b:
                yield f"{path}.{key}", a[key], "<missing>"
            else:
                yield from leaf_diffs(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path}.length", len(a), len(b)
        for i, (x, y) in enumerate(zip(a, b)):
            yield from leaf_diffs(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, a, b


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print(
            "usage: python tools/compare_manifests.py A.json B.json",
            file=sys.stderr,
        )
        return 2
    left_path, right_path = argv
    with open(left_path) as handle:
        left = stable(json.load(handle))
    with open(right_path) as handle:
        right = stable(json.load(handle))
    if left == right:
        print(f"manifests match modulo {VOLATILE_FIELDS}: {left_path} == {right_path}")
        return 0
    diffs = list(leaf_diffs(left, right))
    print(
        f"manifests DIFFER in {len(diffs)} leaf value(s) "
        f"(volatile fields {VOLATILE_FIELDS} already excluded):",
        file=sys.stderr,
    )
    for path, a, b in diffs[:MAX_LEAF_DIFFS]:
        print(f"  {path}: {a!r} != {b!r}", file=sys.stderr)
    if len(diffs) > MAX_LEAF_DIFFS:
        print(f"  ... and {len(diffs) - MAX_LEAF_DIFFS} more", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
