"""End-to-end benchmark of the public ``Trainer`` path.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.spec`) and prints its metrics; the
last line of standard output is the JSON result.  ``BENCHMARK.json`` at the
repository root is generated from :mod:`perfbench.spec`.
"""
