"""Tests for the operational CLI tools and the repo's lint scripts."""

import importlib.util
from pathlib import Path

import pytest

from repro.tools.calibration_report import main as calibration_main
from repro.tools.inspect_profile import format_profile, main as inspect_main
from repro.tools.loadgen import main as loadgen_main, run_load


class TestLoadgen:
    def test_run_load_summary_shape(self):
        summary = run_load(
            requests=500, nodes=2, users=100, seed=1, isolation=True
        )
        assert summary["ops_per_second"] > 0
        assert summary["read_p50_ms"] >= 0
        assert summary["write_p50_ms"] >= 0
        assert "cluster @" in summary["report"]

    def test_cli_entrypoint(self, capsys):
        code = loadgen_main(["--requests", "300", "--nodes", "1", "--users", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reads:" in out and "writes:" in out

    def test_no_isolation_flag(self, capsys):
        code = loadgen_main(
            ["--requests", "200", "--nodes", "1", "--users", "50", "--no-isolation"]
        )
        assert code == 0
        assert "isolation=off" in capsys.readouterr().out


class TestCalibrationReport:
    def test_cli_entrypoint(self, capsys):
        code = calibration_main(["--repeats", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "top-K query" in out
        assert "miss penalty" in out


class TestSnapshotTool:
    def test_cli_round_trip(self, capsys, tmp_path):
        from repro.tools.snapshot_tool import main as snapshot_main

        out_path = tmp_path / "demo.snapshot"
        code = snapshot_main(["--profiles", "30", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "exported 30 profiles" in out
        assert "snapshot round trip OK" in out
        assert out_path.exists()


class TestFiguresToolImportable:
    def test_module_has_figure_builders(self):
        from repro.tools import figures

        for name in ("figure16", "figure17", "figure18", "figure19"):
            assert callable(getattr(figures, name))


class TestInspectProfile:
    def test_cli_entrypoint_plain(self, capsys):
        assert inspect_main([]) == 0
        out = capsys.readouterr().out
        assert "before maintenance" in out
        assert "slices" in out

    def test_cli_entrypoint_with_maintenance(self, capsys):
        assert inspect_main(["--maintain"]) == 0
        out = capsys.readouterr().out
        assert "after maintenance" in out
        assert "compaction:" in out

    def test_format_profile_truncates_long_lists(self):
        from repro.clock import SimulatedClock
        from repro.config import TableConfig
        from repro.core.engine import ProfileEngine

        clock = SimulatedClock(10**9)
        engine = ProfileEngine(TableConfig(name="t", attributes=("c",)), clock)
        for index in range(100):
            engine.add_profile(1, 10**9 - index * 10_000, 1, 0, index, [1])
        text = format_profile(engine.table.get(1), 10**9, limit=5)
        assert "more slices" in text


def _load_clock_lint():
    path = Path(__file__).resolve().parents[1] / "tools" / "check_clock_usage.py"
    spec = importlib.util.spec_from_file_location("check_clock_usage", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestClockLint:
    def test_tree_passes(self, capsys):
        assert _load_clock_lint().main() == 0
        assert "clock usage OK" in capsys.readouterr().out

    def test_asyncio_fails_even_under_net(self, tmp_path, monkeypatch, capsys):
        lint = _load_clock_lint()
        (tmp_path / "net").mkdir()
        (tmp_path / "net" / "x.py").write_text("import asyncio\n")
        # x.py is a rostered net/ module, so only the asyncio rule can fail it.
        monkeypatch.setattr(lint, "SCAN_DIRS", (tmp_path,))
        monkeypatch.setattr(lint, "ROOT", tmp_path)
        monkeypatch.setattr(lint, "NET_REAL_TIME", tmp_path / "net")
        monkeypatch.setattr(lint, "NET_MODULES", frozenset({"x.py"}))
        assert lint.main() == 1
        assert "net/x.py:1 (asyncio" in capsys.readouterr().err
