"""Smoke test: every demo script runs to completion and prints."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize(
    "script",
    [
        "01_log_derivative_basics.py",
        "02_flow_pairing_and_density.py",
        "03_action_weight_assembly.py",
        "04_cauchy_problem_four_ways.py",
        "05_trace_anomaly_scan.py",
    ],
)
def test_demo_runs(script, capsys):
    runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
    assert capsys.readouterr().out.strip()
