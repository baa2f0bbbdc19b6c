"""Command line interface: config validation, experiment runs, output formats."""

import csv
import json
import os

import pytest
from jsonschema import Draft202012Validator

from logmeasure import feynman, measures
from logmeasure.action import DiscreteAction
from logmeasure.cli import _EXPERIMENTS, _TOP_SCHEMA, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")
CSV_SCHEMA_PATH = os.path.join(REPO_ROOT, "docs", "csv_schema.json")


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _ibp_config():
    return {
        "schema": 1,
        "experiment": "ibp-check",
        "seed": 3,
        "output_path": "ibp",
        "parameters": {
            "measures": [
                {"kind": "standard", "dim": 3},
                {"kind": "wiener", "lattice": {"n_steps": 2, "t_final": 1.0, "dim_q": 1}},
            ],
            "pairs": {"count": 4, "seed": 1},
            "quadrature": {"kind": "gauss_hermite", "order": 6},
            "tolerance": 1e-10,
        },
    }


def _read_rows(csv_path):
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# list-builtins


def test_list_builtins_names_and_stability(capsys):
    assert main(["list-builtins"]) == 0
    first = capsys.readouterr().out
    for name in ("free", "harmonic", "scaling", "translation", "sine_flow"):
        assert name in first
    assert main(["list-builtins"]) == 0
    assert capsys.readouterr().out == first


def test_list_builtins_json_is_machine_readable(capsys):
    assert main(["list-builtins", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {"lagrangians", "families", "test_function_libraries"} <= set(data)


# ---------------------------------------------------------------------------
# config validation


def test_missing_required_key_exits_2_without_outputs(tmp_path, capsys):
    payload = _ibp_config()
    del payload["parameters"]["measures"][1]["lattice"]["t_final"]
    path = _write_config(tmp_path, payload)
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert "t_final" in capsys.readouterr().err
    assert not (tmp_path / "ibp.json").exists()
    assert not (tmp_path / "ibp.csv").exists()


def test_unknown_key_exits_2(tmp_path, capsys):
    payload = _ibp_config()
    payload["parameters"]["typo_key"] = 1
    assert main(["run", _write_config(tmp_path, payload), "--out", str(tmp_path)]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_wrong_schema_version_exits_2(tmp_path, capsys):
    payload = _ibp_config()
    payload["schema"] = 2
    assert main(["run", _write_config(tmp_path, payload), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_unreadable_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", missing, "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# running experiments


def test_ibp_check_run_outputs_and_pass_lines(tmp_path, capsys):
    path = _write_config(tmp_path, _ibp_config())
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    rows = _read_rows(tmp_path / "ibp.csv")
    assert len(rows) == 8
    assert all(abs(float(r["residual"])) <= 1e-10 for r in rows)
    assert all(r["pass"] == "true" for r in rows)
    record = json.loads((tmp_path / "ibp.json").read_text())
    for key in ("experiment", "config", "columns", "rows", "assertions", "passed",
                "seed", "workers", "versions", "wall_time_s"):
        assert key in record
    assert record["passed"] is True
    assert record["versions"]["logmeasure"]


def test_csv_uses_crlf_and_repr_floats(tmp_path):
    path = _write_config(tmp_path, _ibp_config())
    main(["run", path, "--out", str(tmp_path)])
    raw = (tmp_path / "ibp.csv").read_bytes()
    assert b"\r\n" in raw
    body = raw.decode("utf-8")
    first_residual = body.split("\r\n")[1].split(",")[3]
    assert float(first_residual) == float(repr(float(first_residual)))
    assert "wall_time" not in body.split("\r\n")[0]


def test_failing_assertion_exits_1_with_stderr(tmp_path, capsys):
    payload = _ibp_config()
    payload["parameters"]["tolerance"] = 1e-30
    path = _write_config(tmp_path, payload)
    assert main(["run", path, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out
    assert "[FAIL]" in captured.err
    # outputs are still written so the failure can be inspected
    assert (tmp_path / "ibp.json").exists()


def test_set_override_changes_effective_config(tmp_path):
    path = _write_config(tmp_path, _ibp_config())
    assert (
        main(
            [
                "run", path, "--out", str(tmp_path),
                "--set", "parameters.pairs.count=2",
                "--set", 'output_path="ibp2"',
            ]
        )
        == 0
    )
    rows = _read_rows(tmp_path / "ibp2.csv")
    assert len(rows) == 4
    record = json.loads((tmp_path / "ibp2.json").read_text())
    assert record["config"]["parameters"]["pairs"]["count"] == 2


def test_seed_flag_overrides_config_seed(tmp_path):
    config = {
        "schema": 1,
        "experiment": "anomaly-scan",
        "seed": 1,
        "output_path": "anom",
        "parameters": {
            "lattice": {"n_steps": 4, "t_final": 1.0, "dim_q": 1},
            "family": {"name": "scaling"},
            "lagrangians": [{"name": "free"}, {"name": "harmonic"}],
            "n_paths": 2,
            "n_alpha": 2,
            "duality_grid": 32,
            "density_grid": 16,
        },
    }
    path = _write_config(tmp_path, config)
    assert main(["run", path, "--out", str(tmp_path), "--seed", "99"]) == 0
    record = json.loads((tmp_path / "anom.json").read_text())
    assert record["seed"] == 99
    assert record["config"]["seed"] == 99


def test_run_is_bitwise_reproducible_from_the_config_echo(tmp_path):
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    path = _write_config(tmp_path, _ibp_config())
    assert main(["run", path, "--out", str(first_dir)]) == 0
    record = json.loads((first_dir / "ibp.json").read_text())
    echo_path = _write_config(tmp_path, record["config"], name="echo.json")
    assert main(["run", echo_path, "--out", str(second_dir)]) == 0
    assert (first_dir / "ibp.csv").read_bytes() == (second_dir / "ibp.csv").read_bytes()


# ---------------------------------------------------------------------------
# shipped configs and the documented CSV layout


def _csv_schema():
    with open(CSV_SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "config_name",
    [
        "ibp_check.json",
        "theorem1_check.json",
        "prop1_check.json",
        "flow_density.json",
        "anomaly_scan.json",
        "oscillatory_check.json",
    ],
)
def test_shipped_configs_run_green(tmp_path, config_name, capsys):
    config_path = os.path.join(CONFIG_DIR, config_name)
    assert main(["run", config_path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    config = json.load(open(config_path, encoding="utf-8"))
    prefix = config["output_path"]
    header = (tmp_path / f"{prefix}.csv").read_bytes().decode("utf-8").split("\r\n")[0]
    documented = _csv_schema()["experiments"][config["experiment"]]["columns"]
    assert header.split(",") == documented


def test_config_schemas_are_valid_against_the_metaschema():
    Draft202012Validator.check_schema(_TOP_SCHEMA)
    for entry in _EXPERIMENTS.values():
        Draft202012Validator.check_schema(entry.schema)


@pytest.mark.parametrize("family", ["translation", "scaling", "rotation", "shear", "sine_flow"])
@pytest.mark.parametrize("dim", [2, 3])
def test_flow_density_checks_every_builtin_against_the_oracle(tmp_path, capsys, family, dim):
    payload = {
        "schema": 1,
        "experiment": "flow-density",
        "output_path": "density",
        "parameters": {
            "measure": {"kind": "standard", "dim": dim},
            "family": {"name": family},
            "alpha_max": 0.5,
            "n_grid": 64,
            "probe": [0.5, -0.4, 0.3][:dim],
        },
    }
    assert main(["run", _write_config(tmp_path, payload), "--out", str(tmp_path)]) == 0
    assert "[PASS] density_matches_closed_form" in capsys.readouterr().out
    rows = _read_rows(tmp_path / "density.csv")
    assert len(rows) == 65
    assert all(r["reference"] != "" and r["abs_error"] != "" for r in rows)


def test_every_experiment_declares_the_documented_columns():
    documented = _csv_schema()["experiments"]
    assert set(_EXPERIMENTS) == set(documented)
    for name, entry in _EXPERIMENTS.items():
        assert entry.columns == documented[name]["columns"], name
        assert entry.columns == list(documented[name]["description"]), name


@pytest.mark.parametrize(
    "config_name, probes",
    [("solve_pde.json", [[1.0, 2.0], [1.0]]), ("compare_methods.json", [[0.0], [0.5, 0.5]])],
)
def test_probe_of_the_wrong_dimension_exits_2_without_outputs(tmp_path, capsys, config_name, probes):
    config_path = os.path.join(CONFIG_DIR, config_name)
    args = ["run", config_path, "--out", str(tmp_path), "--set", f"parameters.probes={probes}"]
    assert main(args) == 2
    assert "every probe must have 1 coordinate(s)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_oscillatory_check_beyond_the_quadrature_guard_exits_2_without_outputs(tmp_path, capsys):
    config_path = os.path.join(CONFIG_DIR, "oscillatory_check.json")
    args = ["run", config_path, "--out", str(tmp_path), "--set", "parameters.n_steps=7"]
    assert main(args) == 2
    assert "dim <= 6" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_singular_jacobian_exits_2_without_outputs(tmp_path, capsys):
    config_path = os.path.join(CONFIG_DIR, "flow_density.json")
    args = ["run", config_path, "--out", str(tmp_path),
            "--set", "parameters.alpha_max=800", "--set", "parameters.n_grid=8"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "singular or orientation-reversing" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_shipped_anomaly_scan_reports_the_split(tmp_path, capsys):
    config_path = os.path.join(CONFIG_DIR, "anomaly_scan.json")
    assert main(["run", config_path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = _read_rows(tmp_path / "anomaly_scan.csv")
    trace_values = {r["trace_term"] for r in rows}
    assert trace_values == {"16.0"}
    free_rows = [r for r in rows if r["lagrangian"] == "free"]
    assert all(float(r["eta_term_real"]) == 0.0 for r in free_rows)
    assert all(float(r["eta_term_imag"]) == 0.0 for r in free_rows)
    assert all(float(r["duality_gap"]) <= 1e-6 for r in rows)
    assert all(float(r["density_deviation"]) > 1e-3 for r in rows)


def test_solve_and_compare_configs_run_green(tmp_path, capsys):
    for name in ("solve_pde.json", "compare_methods.json"):
        config_path = os.path.join(CONFIG_DIR, name)
        assert main(["run", config_path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    solve_rows = _read_rows(tmp_path / "solve_pde.csv")
    assert all(r["method"] == "pde" for r in solve_rows)
    compare_rows = _read_rows(tmp_path / "compare_methods.csv")
    assert {r["method"] for r in compare_rows} == {"exact_gaussian", "mc"}
    assert all(r["pass"] == "true" for r in compare_rows)


def test_duplicate_lagrangian_labels_exit_2_without_outputs(tmp_path, capsys):
    config_path = os.path.join(CONFIG_DIR, "anomaly_scan.json")
    lagrangians = '[{"name": "harmonic"}, {"name": "harmonic"}]'
    args = ["run", config_path, "--out", str(tmp_path),
            "--set", f"parameters.lagrangians={lagrangians}",
            "--set", "parameters.invariant_flags=[false, false]"]
    assert main(args) == 2
    assert "labels must be distinct" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())




def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; returns the call list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _run_small_compare(tmp_path, capsys):
    config_path = os.path.join(CONFIG_DIR, "compare_methods.json")
    args = ["run", config_path, "--out", str(tmp_path), "--workers", "2",
            "--set", "parameters.candidates.mc.n_samples=4000",
            "--set", "parameters.candidates.mc.n_steps=8"]
    assert main(args) == 0
    capsys.readouterr()
    assert len(_read_rows(tmp_path / "compare_methods.csv")) == 2 * 5


def test_compare_draws_the_paths_once_for_all_probes(tmp_path, capsys, monkeypatch):
    calls = _counting(monkeypatch, measures, "_transform")
    _run_small_compare(tmp_path, capsys)
    assert [len(z) for _, z in calls] == [2000, 2000]  # one chunk per worker stream, not one per probe


def test_compare_lays_out_each_batch_once_for_all_probes(tmp_path, capsys, monkeypatch):
    calls = _counting(monkeypatch, DiscreteAction, "_slices")
    _run_small_compare(tmp_path, capsys)
    assert len(calls) == 2  # one per worker stream's chunk, not one per probe


def test_compare_factors_the_exact_propagator_once(tmp_path, capsys, monkeypatch):
    calls = _counting(monkeypatch, feynman, "cho_factor")
    _run_small_compare(tmp_path, capsys)
    assert len(calls) == 1  # one factorization for the 5 probes


@pytest.mark.parametrize(
    "config_name, overrides, box",
    [
        ("solve_pde.json", ["parameters.probes=[[9.5],[0.0]]"], "[-8, 8]^1"),
        ("solve_pde.json", ["parameters.problem.dim_q=2", "parameters.probes=[[9.0,0.0]]"], "[-8, 8]^2"),
        ("compare_methods.json", ["parameters.probes=[[9.0]]"], "[-8, 8]^1"),
        (
            "oscillatory_check.json",
            ["parameters.reference=pde", 'parameters.grid={"extent":4.0,"n_points":65}',
             "parameters.q_points=[0.0,4.5]"],
            "[-4, 4]^1",
        ),
    ],
    ids=["solve_1d", "solve_2d", "compare", "oscillatory_pde_reference"],
)
def test_probe_outside_the_pde_box_exits_2_without_outputs(tmp_path, capsys, config_name, overrides, box):
    args = ["run", os.path.join(CONFIG_DIR, config_name), "--out", str(tmp_path)]
    for assignment in overrides:
        args += ["--set", assignment]
    assert main(args) == 2
    assert f"every probe must lie in the PDE grid box {box}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
