"""Run every registered workload over several seeds and summarise.

    python3 perfbench/suite.py --seeds 1 2 3 4 5 [--trace] [--workloads NAME ...]

Regenerates ``BENCHMARK.json`` and ``perfbench/PROVENANCE.json`` from
:mod:`perfbench.spec`, then runs ``perfbench/run.py`` once per workload and
seed (one at a time, so runs do not share the cores) and prints, per
workload and metric, the median, the quartile spread as a share of the
median (``statistics.quantiles(values, n=4)``) next to the metric's bound,
and the op counts.  Exit status 1 if any run failed or any op failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402


def spread(values: list) -> float:
    """Inter-quartile distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(median)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workloads", nargs="+", default=[w.name for w in spec.REGISTERED])
    args = parser.parse_args(argv)
    spec.main(["--write"])

    bounds = {m.name: m.bound for m in spec.E2E}
    bad = False
    for name in args.workloads:
        values: dict[str, list] = {}
        attempted = failed = 0
        walls = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", f"{args.seconds:g}",
                 "--trace", "1" if args.trace else "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                bad = True
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        bad |= failed > 0
        print(f"{name}: {len(walls)} runs, {max(walls):.1f} s longest; "
              f"ops_attempted {attempted} ops_failed {failed}")
        for metric, vals in values.items():
            bound = bounds.get(metric)
            limit = f"  bound {bound:.2f}" if bound is not None else ""
            print(f"  {metric:32s} median {statistics.median(vals):14.6f} "
                  f"{spec.UNITS[metric]:9s} spread {spread(vals):6.3f}{limit}  "
                  f"range {min(vals):.6g}..{max(vals):.6g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
