"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-products --seed 1 --seconds 10 --trace 0

Runs from the repository root (it imports the program from ``src/``).  The
human-readable lines name every metric with its unit and the op counts;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced copy of the timed region (spans are written to
``.bench_build/perfbench/``).  Scratch files (feature slabs) live under
``.bench_build/perfbench/`` and are removed on exit.

Exit status: 0 with a result line; 1 when the run itself broke; 2 when the
program source is missing or the arguments are invalid (no result line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="perfbench: end-to-end Trainer benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the benchmark's own tests")
    return parser.parse_args(argv)


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process multiprocessing starts to track
    shared memory, so the run leaves no process behind.  Every segment is
    already unlinked by ``Trainer.shutdown`` at this point."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Spawned prepare workers inherit sys.path from this process.
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench import harness, spec

    workload = spec.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # Keep every temporary file (feature slabs, worker scratch) inside the
    # checkout; the directory goes away with the run.
    SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        sizing = harness.SMOKE if args.smoke else harness.Sizing()
        outcome = harness.run(workload, args.seed, args.seconds, bool(args.trace), sizing)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
        _stop_resource_tracker()

    names = spec.PER_LAYER_NAMES if args.trace else spec.E2E_NAMES
    missing = [n for n in names if n not in outcome.metrics]
    if missing:
        print(f"perfbench: run produced no value for {missing}", file=sys.stderr)
        for note in outcome.notes:
            print(f"  {note}", file=sys.stderr)
        return 1
    if outcome.spans is not None:
        outcome.spans.write(SCRATCH / f"spans-{workload.name}-seed{args.seed}.json")

    metrics = {}
    for name in names:
        value = float(outcome.metrics[name])
        if not math.isfinite(value):
            outcome.notes.append(f"{name} was not finite; reported as 0")
            value = 0.0
        metrics[name] = {"value": value, "unit": spec.UNITS[name]}
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for note in outcome.notes:
        print(f"  {note}")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:16.6f} {entry['unit']}")
    print(f"  {'ops_attempted':32s} {outcome.attempted:16d} count")
    print(f"  {'ops_failed':32s} {outcome.failed:16d} count")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
