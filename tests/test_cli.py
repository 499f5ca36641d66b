"""Command-line interface smoke tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "products"
        assert args.executor == "pipelined"

    def test_fanout_override(self):
        args = build_parser().parse_args(["train", "--fanouts", "10", "5"])
        assert args.fanouts == [10, 5]


class TestCommands:
    def test_info_all(self, capsys):
        assert main(["info", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "arxiv" in out and "products" in out and "papers" in out

    def test_info_single(self, capsys):
        assert main(["info", "--dataset", "arxiv", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "arxiv" in out and "products" not in out

    def test_simulate_single_gpu(self, capsys):
        assert main(["simulate", "--dataset", "products", "--gpus", "1"]) == 0
        out = capsys.readouterr().out
        assert "gpu_util" in out

    def test_simulate_scaling(self, capsys):
        assert main(["simulate", "--dataset", "papers", "--gpus", "16"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_train_tiny(self, capsys):
        code = main(
            [
                "train",
                "--dataset",
                "arxiv",
                "--scale",
                "0.1",
                "--epochs",
                "1",
                "--batch-size",
                "32",
                "--hidden",
                "8",
                "--fanouts",
                "4",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out

    def test_timeline(self, capsys):
        assert main(
            ["timeline", "--dataset", "arxiv", "--scale", "0.25", "--batches", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "SALIENT" in out and "legend" in out

    def test_report_records_chosen_executor(self, tmp_path, capsys):
        """The report's config names the executor and sampler the user
        chose, and its flat counters come from the trainer's registry."""
        import json

        report = tmp_path / "report.json"
        code = main(
            [
                "train", "--dataset", "arxiv", "--scale", "0.1", "--epochs", "1",
                "--batch-size", "32", "--hidden", "8", "--fanouts", "4", "3",
                "--executor", "pipelined", "--report-out", str(report),
            ]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["config"]["executor"] == "pipelined"
        assert doc["config"]["sampler"] == "fast"
        assert doc["counters"]["pipeline_batches"] == doc["totals"]["num_batches"]
