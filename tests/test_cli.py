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

    def test_lane_lists(self):
        args = build_parser().parse_args(["proposer", "--lanes", "2", "8"])
        assert args.lanes == [2, 8]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

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

    def test_proposer_sweep(self, capsys):
        assert main([*self.ARGS, "proposer", "--lanes", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert out.count("\n") >= 4

    def test_proposer_sweep_on_a_backend_is_simulated_on_both_sides(self, capsys):
        """sim serial µs / sim makespan µs: the table replays exactly and a
        wave of 4 beats serial (a wall-clock denominator gives ~0.05x)."""
        argv = [*self.ARGS, "--backend", "serial", "proposer", "--lanes", "1", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        speedup_at_4 = float(first.strip().splitlines()[-1].split()[-1])
        assert speedup_at_4 > 1.0

    def test_validator_sweep(self, capsys):
        assert main([*self.ARGS, "validator", "--lanes", "1", "4"]) == 0
        assert "Fig. 7a" in capsys.readouterr().out

    def test_pipeline_sweep(self, capsys):
        assert main([*self.ARGS, "pipeline", "--blocks", "1", "2"]) == 0
        assert "Fig. 9" in capsys.readouterr().out

    def test_hotspot_sweep(self, capsys):
        assert main([*self.ARGS, "hotspot"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out
        assert "%" in out

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
