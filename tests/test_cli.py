"""CLI smoke tests (direct invocation of the argument-parsing entry point)."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.seed == 42
        assert args.txs_per_block == 132

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("command", ["proposer", "validator", "pipeline", "hotspot"])
    def test_figure_sweeps_are_not_subcommands(self, command, capsys):
        """The figure sweeps run as manifest experiments (python -m benchmarks)."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.mode == "round"
        assert args.rounds == 2
        assert args.out == "trace.json"

    def test_scenario_flag(self):
        args = build_parser().parse_args(["--scenario", "mev-bundles", "demo"])
        assert args.scenario == "mev-bundles"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scenario", "nonsense", "demo"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--data-dir", "/tmp/x"])
        assert args.data_dir == "/tmp/x"
        assert args.blocks == 0  # run until signalled
        assert args.block_interval == 12
        assert args.snapshot_interval == 64
        assert args.no_compact is False
        assert args.no_fsync is False
        assert args.report_every == 0

    def test_serve_requires_data_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])


class TestCommands:
    """Run each command on a tiny workload; assert exit code and output."""

    ARGS = ["--txs-per-block", "25", "--blocks-per-point", "1"]

    def test_demo(self, capsys):
        assert main([*self.ARGS, "demo"]) == 0
        out = capsys.readouterr().out
        assert "round trip" in out
        assert "True" in out

    def test_trace_round(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        argv = [*self.ARGS, "trace", "--rounds", "1", "--out", str(out_path)]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "flame summary" in printed
        assert "metrics:" in printed
        doc = json.loads(out_path.read_text())
        events = doc["traceEvents"]
        assert events
        for event in events:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in event
        assert (tmp_path / "trace_flame.txt").read_text().startswith("flame")

    def test_trace_network(self, tmp_path):
        out_path = tmp_path / "net.json"
        argv = [
            *self.ARGS, "trace", "--mode", "network",
            "--rounds", "1", "--out", str(out_path),
        ]
        assert main(argv) == 0
        assert out_path.exists()

    def test_serve_bounded_run(self, capsys, tmp_path):
        data_dir = tmp_path / "node"
        argv = [
            *self.ARGS, "serve", "--data-dir", str(data_dir),
            "--blocks", "2", "--snapshot-interval", "0", "--no-fsync",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "height=2" in out
        assert "sealed=True" in out
        assert (data_dir / "manifest.json").exists()
        # a second invocation resumes, produces nothing, same head
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "produced=0" in out
        assert "recovery:" in out
