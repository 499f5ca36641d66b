"""The benchmark's own tests: smoke runs, the correctness gate, the manifest.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import harness, spec  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
        text=True, timeout=timeout,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = spec.PER_LAYER_NAMES if trace else spec.E2E_NAMES
    assert list(result["metrics"]) == names
    for name, entry in result["metrics"].items():
        assert entry == {"value": entry["value"], "unit": spec.UNITS[name]}
        assert isinstance(entry["value"], float)
        assert f"  {name} " in proc.stdout  # printed with its unit too
    assert result["attempted"] >= 1
    assert "ops_attempted" in proc.stdout and "ops_failed" in proc.stdout
    if spec.WORKLOADS[workload].unregistered_reason is None:
        assert result["correct"] and result["failed"] == 0, proc.stdout
    if trace:
        assert "closure holds" in proc.stdout, proc.stdout
    else:
        for name in spec.E2E_NAMES:  # end-to-end metrics are never 0
            assert result["metrics"][name]["value"] > 0, name


def test_gate_counts_a_perturbed_loss():
    ref = {0: [2.5, 2.25, 2.125], 1: [2.0, 1.5]}
    got = {ep: list(v) for ep, v in ref.items()}
    expected = {0: 3, 1: 2}
    assert harness.gate_losses(got, ref, expected) == (5, 0)
    perturbed = {ep: list(v) for ep, v in ref.items()}
    perturbed[1][0] = float(np.nextafter(perturbed[1][0], np.inf))
    assert harness.gate_losses(got, perturbed, expected) == (5, 1)
    # Missing and non-finite losses fail too.
    assert harness.gate_losses({0: [2.5, float("nan")]}, ref, expected) == (5, 4)


def test_gate_counts_a_perturbed_row_block():
    ref = np.linspace(-3, 0, 40, dtype=np.float32).reshape(10, 4)
    assert harness.gate_rows(ref.copy(), ref, 10, 4) == (3, 0)
    perturbed = ref.copy()
    perturbed[9, 0] = np.nextafter(perturbed[9, 0], np.float32(1))
    assert harness.gate_rows(ref.copy(), perturbed, 10, 4) == (3, 1)
    assert harness.gate_rows(None, ref, 10, 4) == (3, 3)


def test_run_counts_failures_against_a_perturbed_serial_reference(monkeypatch):
    """The wiring, end to end: a reference that disagrees on one batch
    makes exactly that batch a failed op."""
    make = harness.make_trainer

    def make_trainer(wl, dataset, seed, executor=None):
        trainer = make(wl, dataset, seed, executor)
        if executor == "serial":
            train_epoch = trainer.train_epoch

            def perturbed(epoch=0):
                stats = train_epoch(epoch)
                if epoch == 0:
                    stats.losses[0] = float(np.nextafter(stats.losses[0], np.inf))
                return stats

            trainer.train_epoch = perturbed
        return trainer

    monkeypatch.setattr(harness, "make_trainer", make_trainer)
    outcome = harness.run(spec.WORKLOADS["train-products"], seed=3, seconds=1,
                         trace=False, sizing=harness.SMOKE)
    assert outcome.attempted > 1
    assert outcome.failed == 1


def test_missing_program_source_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-products",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_current_and_well_formed():
    assert spec.main(["--check"]) == 0, "run python3 perfbench/spec.py --write"
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]] + [
        m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    for path in doc["paths"]:
        assert (ROOT / path).is_dir()
