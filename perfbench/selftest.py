"""Self-test of the benchmark runner at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

It checks that every workload emits exactly the metrics BENCHMARK.json names,
with their units, traced and untraced; that traced and untraced passes give
the same result digest; and that an oracle set deliberately wrong shows up as
failed checks and a passed_ratio below 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import partial

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def test_benchmark_json_matches_the_runner():
    import run
    from layers import LAYER_METRICS

    assert WORKLOADS == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(n, u) for n, u, _, _ in LAYER_METRICS]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, digest = _run(workload, trace)
        digests.append(digest)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert digests[0] == digests[1]


def test_a_wrong_oracle_counts_as_failed(monkeypatch, capsys):
    import run

    run.load_program()
    import workloads

    wrong = workloads.Oracles(mc_se=0.0)  # no MC estimate can sit within 0 standard errors
    monkeypatch.setattr(workloads, "build", partial(workloads.build, oracles=wrong))
    assert run.main(["--workload", "mc_ibp", "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 10
    assert result["metrics"]["passed_ratio"]["value"] == pytest.approx(1 - result["failed"] / result["attempted"])
    assert result["metrics"]["passed_ratio"]["value"] < 1.0
