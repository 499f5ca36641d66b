"""Bottleneck attribution: verdicts, report analysis, rendering."""

import pytest

from repro.telemetry.attribution import (
    Attribution,
    attribute_breakdown,
    attribute_report,
    attribute_trace,
    render_attribution,
)


class TestAttributeBreakdown:
    def test_prep_bound(self):
        attr = attribute_breakdown(
            {"batch_prep": 0.7, "transfer": 0.05, "train": 0.2, "prep_wait": 0.0}
        )
        assert attr.verdict == "prep-bound"
        assert attr.bound_stage == "prep"
        assert attr.shares["prep"] == pytest.approx(0.7)
        assert attr.gpu_idle_fraction == pytest.approx(0.8)
        assert "prep-bound" in attr.detail
        assert "gpu idle 80%" in attr.detail

    def test_prep_wait_counts_toward_prep(self):
        # Overlapped run: batch_prep blocking is ~0, starvation is the
        # visible prep cost.
        attr = attribute_breakdown(
            {"batch_prep": 0.0, "transfer": 0.1, "train": 0.3, "prep_wait": 0.5}
        )
        assert attr.verdict == "prep-bound"
        assert attr.shares["prep"] == pytest.approx(0.5)

    def test_compute_bound(self):
        attr = attribute_breakdown(
            {"batch_prep": 0.1, "transfer": 0.1, "train": 0.7, "prep_wait": 0.05}
        )
        assert attr.verdict == "compute-bound"
        assert attr.gpu_idle_fraction == pytest.approx(0.3)

    def test_transfer_bound(self):
        attr = attribute_breakdown(
            {"batch_prep": 0.1, "transfer": 0.6, "train": 0.25, "prep_wait": 0.0}
        )
        assert attr.verdict == "transfer-bound"

    def test_plan_build_excluded_from_blocking_shares(self):
        attr = attribute_breakdown(
            {
                "batch_prep": 0.2,
                "transfer": 0.1,
                "train": 0.4,
                "prep_wait": 0.0,
                "plan_build": 0.9,  # busy-time view, not blocking
            }
        )
        assert attr.verdict == "compute-bound"
        assert "plan_build" not in attr.shares

    def test_prep_bound_names_busiest_cpu_lane(self):
        attr = attribute_breakdown(
            {"batch_prep": 0.8, "transfer": 0.05, "train": 0.1, "prep_wait": 0.0},
            lanes={"cpu:0": 0.9, "cpu:1": 0.4, "gpu": 0.1},
        )
        assert "on cpu:0" in attr.detail

    def test_storage_bound_when_mmap_waits_dominate_prep(self):
        # 10 s epoch, 7 s of it prep-blocked, 5 s of that faulting slab
        # pages: the fix is tier sizing, not more prepare workers.
        attr = attribute_breakdown(
            {"batch_prep": 0.7, "transfer": 0.05, "train": 0.2, "prep_wait": 0.0},
            stalls={"mmap_wait_s": 5.0},
            total_s=10.0,
        )
        assert attr.verdict == "storage-bound"
        assert attr.bound_stage == "prep"  # still the prep stage at fault
        assert "storage-bound" in attr.detail
        assert "mmap waits" in attr.detail

    def test_prep_bound_when_mmap_waits_are_minor(self):
        attr = attribute_breakdown(
            {"batch_prep": 0.7, "transfer": 0.05, "train": 0.2, "prep_wait": 0.0},
            stalls={"mmap_wait_s": 0.5},
            total_s=10.0,
        )
        assert attr.verdict == "prep-bound"

    def test_no_storage_verdict_without_epoch_seconds(self):
        # Stall seconds can't be compared to shares without total_s.
        attr = attribute_breakdown(
            {"batch_prep": 0.7, "transfer": 0.05, "train": 0.2, "prep_wait": 0.0},
            stalls={"mmap_wait_s": 5.0},
        )
        assert attr.verdict == "prep-bound"

    def test_compute_bound_never_refines_to_storage(self):
        attr = attribute_breakdown(
            {"batch_prep": 0.1, "transfer": 0.1, "train": 0.7, "prep_wait": 0.05},
            stalls={"mmap_wait_s": 9.0},
            total_s=10.0,
        )
        assert attr.verdict == "compute-bound"

    def test_to_doc_round_trip(self):
        import json

        attr = attribute_breakdown(
            {"batch_prep": 0.5, "transfer": 0.2, "train": 0.3, "prep_wait": 0.0},
            stalls={"prep_wait_s": 0.01},
        )
        doc = json.loads(json.dumps(attr.to_doc()))
        assert doc["verdict"] == "prep-bound"
        assert doc["stalls"]["prep_wait_s"] == pytest.approx(0.01)


class TestAttributeTrace:
    def test_lane_utilization_fractions(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        tracer.record("sample", "cpu:0", 0, 0.0, 0.8)
        tracer.record("train", "gpu", 0, 0.0, 0.4)
        lanes = attribute_trace(tracer)
        assert lanes["cpu:0"] == pytest.approx(1.0)
        assert lanes["gpu"] == pytest.approx(0.5)

    def test_empty_trace_gives_no_lanes(self):
        from repro.telemetry import Tracer

        assert attribute_trace(Tracer()) == {}


#: One epoch per configuration in a child process.  The tiny serial
#: compute must not depend on BLAS thread scheduling: with a multi-threaded
#: BLAS on a loaded host it can run several times slower and flip the
#: verdict, so the child pins every BLAS pool to one thread (only effective
#: before numpy is imported, hence the fresh interpreter).
_VERDICT_SCRIPT = """
import json
from dataclasses import replace

from repro.datasets import get_dataset
from repro.telemetry import Tracer
from repro.train import Trainer, get_config

out = {}
for executor, sampler in (("serial", "pyg"), ("staged", "fast")):
    dataset = get_dataset("arxiv", scale=0.08, seed=0)
    config = replace(get_config("arxiv", "sage"), batch_size=48)
    tracer = Tracer()
    trainer = Trainer(
        dataset, config, executor=executor, sampler=sampler, tracer=tracer
    )
    stats = trainer.train_epoch(0)
    trainer.shutdown()
    attr = stats.attribution(tracer)
    out[executor + "-" + sampler] = {
        "verdict": attr.verdict,
        "prep_share": attr.shares["prep"],
        "stats_verdict": stats.verdict(),
    }
print(json.dumps(out))
"""


class TestVerdictFlip:
    """ISSUE acceptance: the verdict flips prep-bound -> compute-bound
    between the standard workflow and the overlapped configuration."""

    @pytest.fixture(scope="class")
    def verdicts(self):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", _VERDICT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=600, check=True,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_serial_pyg_is_prep_bound(self, verdicts):
        result = verdicts["serial-pyg"]
        assert result["verdict"] == "prep-bound"
        assert result["stats_verdict"] == "prep-bound"

    def test_staged_fast_is_not_prep_bound(self, verdicts):
        result = verdicts["staged-fast"]
        assert result["verdict"] == "compute-bound"
        # Overlap hides preparation: the gpu idles less than the serial
        # workflow's >60%.
        assert result["prep_share"] < 0.4


class TestAttributeReport:
    def _report_doc(self, breakdowns, epoch_s=None):
        epoch_s = epoch_s or [1.0] * len(breakdowns)
        return {
            "bench": "run_report",
            "epochs": [
                {"epoch": i, "epoch_s": s, "breakdown": b}
                for i, (b, s) in enumerate(zip(breakdowns, epoch_s))
            ],
            "metrics": [],
        }

    def test_weighted_combination(self):
        # A long prep-bound epoch outweighs a short compute-bound one.
        doc = self._report_doc(
            [
                {"batch_prep": 0.8, "transfer": 0.1, "train": 0.1, "prep_wait": 0.0},
                {"batch_prep": 0.1, "transfer": 0.1, "train": 0.8, "prep_wait": 0.0},
            ],
            epoch_s=[9.0, 1.0],
        )
        attr = attribute_report(doc)
        assert attr.verdict == "prep-bound"
        assert attr.shares["prep"] == pytest.approx(0.9 * 0.8 + 0.1 * 0.1)

    def test_stalls_from_metrics_snapshot(self):
        doc = self._report_doc(
            [{"batch_prep": 0.1, "transfer": 0.1, "train": 0.7, "prep_wait": 0.1}]
        )
        doc["metrics"] = [
            {
                "name": "caller_seconds",
                "labels": {"stage": "prep_wait"},
                "sum": 0.25,
            },
            {"name": "queue_wait_seconds", "labels": {"stage": "slice"}, "sum": 0.5},
            {"name": "pinned_acquire_wait_seconds", "labels": {}, "sum": 0.125},
        ]
        attr = attribute_report(doc)
        assert attr.stalls["prep_wait_s"] == pytest.approx(0.25)
        assert attr.stalls["queue_wait_s[slice]"] == pytest.approx(0.5)
        assert attr.stalls["pinned_acquire_wait_s"] == pytest.approx(0.125)

    def test_empty_report_raises(self):
        with pytest.raises(ValueError):
            attribute_report({"epochs": []})


class TestRender:
    def test_render_includes_verdict_shares_and_epoch_table(self):
        attr = Attribution(
            verdict="prep-bound",
            bound_stage="prep",
            shares={"prep": 0.7, "transfer": 0.1, "train": 0.2},
            gpu_idle_fraction=0.8,
            detail="prep-bound on cpu:0 (prep blocks 70% of epoch time), gpu idle 80%",
            lanes={"cpu:0": 0.9},
            stalls={"prep_wait_s": 0.01},
        )
        epochs = [
            {
                "epoch": 0,
                "breakdown": {
                    "batch_prep": 0.7,
                    "transfer": 0.1,
                    "train": 0.2,
                    "prep_wait": 0.0,
                },
                "verdict": "prep-bound",
            }
        ]
        text = render_attribution(attr, epochs=epochs)
        assert "verdict: prep-bound on cpu:0" in text
        assert "prep=70.0%" in text
        assert "cpu:0=90%" in text
        assert "prep_wait_s=10.0ms" in text
        assert "epoch  prep%" in text
        assert "prep-bound" in text.splitlines()[-1]

    def test_render_without_optional_sections(self):
        attr = attribute_breakdown(
            {"batch_prep": 0.1, "transfer": 0.1, "train": 0.7, "prep_wait": 0.0}
        )
        text = render_attribution(attr)
        assert "lane utilization" not in text
        assert "stalls" not in text
