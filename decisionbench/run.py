"""Fixed-work end-to-end benchmark of DAG-SFC embedding decisions.

Usage, from the repository root::

    python3 decisionbench/run.py --workload contended_40 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays the
same inputs untraced and then traced, and reports the per-layer split. The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the host reference
probe and the run's sizes. Exit codes: 0 measured and correct, 1 the gate
found a mismatch, 2 the repository or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Fixed-work end-to-end decision benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"decisionbench: no src/repro under {ROOT}; run it from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("decisionbench: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from decisionbench.bench import run
    from decisionbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"decisionbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".decisionbench", f"{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result, side = run(workload, args.seed, args.seconds, bool(args.trace), work)
    for problem in side["problems"]:
        print(f"decisionbench: {problem}", file=sys.stderr)
    print(json.dumps(side))
    print(json.dumps(result))
    if not result["correct"]:
        print(f"decisionbench: gate failed; scratch files kept in {work}", file=sys.stderr)
        return 1
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
