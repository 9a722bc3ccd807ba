"""Smoke tests: every shipped example runs and prints its tables.

The examples are part of the public surface; these tests keep them
working against library changes.  Long-running sweeps are exercised
with reduced parameters where the example exposes them.
"""

import importlib
import sys

import pytest

sys.path.insert(0, "examples")


def run_module_main(name: str, capsys) -> str:
    module = importlib.import_module(name)
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_module_main("quickstart", capsys)
        assert "Table I protocol" in out
        assert "72.4%" in out
        assert "bti-active-recovery" in out

    def test_iot_implant_lifetime(self, capsys):
        out = run_module_main("iot_implant_lifetime", capsys)
        assert "worst-case (no recovery)" in out
        assert "deep healing in sleep" in out
        assert "unbounded" in out

    def test_manycore_dark_silicon(self, capsys):
        module = importlib.import_module("manycore_dark_silicon")
        module.run(24)
        out = capsys.readouterr().out
        assert "dark-silicon rotation" in out
        assert "guardband" in out

    def test_lifetime_sweep(self, capsys):
        module = importlib.import_module("lifetime_sweep")
        module.run(48)
        out = capsys.readouterr().out
        assert "lifetime sweep: 6 cells" in out
        assert "best worst-case guardband" in out
        assert "rr heal" in out

    def test_compensation_vs_healing(self, capsys):
        out = run_module_main("compensation_vs_healing", capsys)
        assert "derating" in out
        assert "deep-healing" in out
        assert "rebalance signal probability" in out

    def test_fleet_study(self, capsys):
        module = importlib.import_module("fleet_study")
        module.run(256, 24)
        out = capsys.readouterr().out
        assert "fleet study: 256 chips x 24 epochs" in out
        assert "guardband p50" in out
        assert "rr deep healing" in out
        assert "p99 shipping guardband" in out

    def test_mission_planning(self, capsys):
        out = run_module_main("mission_planning", capsys)
        assert "deep-healing plan:" in out
        assert "margin" in out

    @pytest.mark.slow
    def test_pdn_em_protection(self, capsys):
        out = run_module_main("pdn_em_protection", capsys)
        assert "Most EM-exposed grid segments" in out
        assert "PDE verification" in out

    def test_assist_sweep(self, capsys):
        module = importlib.import_module("assist_sweep")
        module.run(2)
        out = capsys.readouterr().out
        assert "Fig. 10 load-size sweep (2 batched points)" in out
        assert "delay rises with load size" in out
        assert "Fig. 9 mode-switch matrix" in out
        assert "BTI_RECOVERY" in out

    def test_batched_design_space(self, capsys):
        module = importlib.import_module("batched_design_space")
        module.run(4, 32)
        out = capsys.readouterr().out
        assert "batched Fig. 10 grid: 4 points" in out
        assert "pareto" in out
        assert "batched Korhonen TTF sampling: 32 wires" in out
        assert "rows/solve" in out
