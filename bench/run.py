#!/usr/bin/env python3
"""Run one rollmix benchmark workload and print its metrics.

    python3 bench/run.py --workload mix-wide --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the benchmark imports ``rollmix``
from ``src/`` next to this directory and nowhere else.  Readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  A full report, and
with tracing the spans, go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    package = ROOT / "src" / "rollmix"
    if not (package / "__init__.py").is_file():
        print(f"bench: no rollmix sources at {package}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import rollmix

    if Path(rollmix.__file__).resolve().parent != package.resolve():
        print(f"bench: imported rollmix from {rollmix.__file__}, expected {package}", file=sys.stderr)
        return 2

    from harness import run, summary
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size == "tiny", ROOT)
    print("\n".join(summary(report)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
