"""Command line interface: config validation, experiment runs, output formats."""

import csv
import glob
import json
import os

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from logmeasure import cli, feynman, measures
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
                "seed", "workers", "mc_threads", "versions", "wall_time_s"):
        assert key in record
    assert record["passed"] is True
    assert record["mc_threads"] == measures._mc_threads()
    assert record["mc_threads"] in (1, 2)
    assert record["versions"]["logmeasure"]


def test_record_counts_the_minor_page_faults_of_the_experiment_outside_the_csv(tmp_path, capsys, monkeypatch):
    path = _write_config(tmp_path, _ibp_config())
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    faults = json.loads((tmp_path / "ibp.json").read_text())["minor_page_faults"]
    assert isinstance(faults, int) and faults >= 0
    csv_bytes = (tmp_path / "ibp.csv").read_bytes()
    assert b"fault" not in csv_bytes
    monkeypatch.setattr(cli, "resource", None)
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "ibp.json").read_text())["minor_page_faults"] is None
    assert (tmp_path / "ibp.csv").read_bytes() == csv_bytes
    capsys.readouterr()


def test_ibp_check_with_monte_carlo_reports_its_tolerance_and_se_multiplier(tmp_path, capsys):
    payload = _ibp_config()
    payload["parameters"]["quadrature"] = {"kind": "monte_carlo", "n_samples": 20000}
    payload["parameters"]["tolerance"] = 1e-9
    payload["parameters"]["se_multiplier"] = 4.0
    assert main(["run", _write_config(tmp_path, payload), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    (entry,) = json.loads((tmp_path / "ibp.json").read_text())["assertions"]
    assert entry["tolerance"] == 1e-9
    assert entry["detail"] == "8/8 rows within 4 SE + tolerance (need fraction >= 1.0)"
    assert "[PASS] ibp_residuals_within_bounds: 8/8 rows within 4 SE + tolerance" in out
    assert "(tolerance 1e-09)" in out and "(tolerance 4)" not in out


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


# smaller runs of the slower shipped configs, enough to write their CSV headers
_QUICK_SETS = {
    "compare_methods.json": ["parameters.candidates.mc.n_samples=4000",
                             "parameters.candidates.mc.n_steps=8"],
    "anomaly_scan.json": ["parameters.n_paths=2"],
}


def test_every_experiment_declares_the_documented_columns(tmp_path, capsys):
    documented = _csv_schema()["experiments"]
    assert set(_EXPERIMENTS) == set(documented)
    headers = {}
    for config_path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        args = ["run", config_path, "--out", str(tmp_path)]
        for assignment in _QUICK_SETS.get(os.path.basename(config_path), []):
            args += ["--set", assignment]
        assert main(args) == 0, config_path
        config = json.load(open(config_path, encoding="utf-8"))
        prefix = tmp_path / config["output_path"]
        header = prefix.with_suffix(".csv").read_bytes().decode("utf-8").split("\r\n")[0]
        assert json.loads(prefix.with_suffix(".json").read_text())["columns"] == header.split(",")
        headers[config["experiment"]] = header.split(",")
    capsys.readouterr()
    assert set(headers) == set(documented)  # every experiment has a shipped config
    for name, entry in documented.items():
        assert headers[name] == entry["columns"], name
        assert entry["columns"] == list(entry["description"]), name


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


def _shipped(config_name):
    with open(os.path.join(CONFIG_DIR, config_name), encoding="utf-8") as fh:
        return json.load(fh)


def _run_shipped(tmp_path, capsys, config_name, *assignments, edits=None):
    """Run a shipped config, first edited as _edited_config does when edits are given, with
    --set assignments; returns stdout, the CSV rows and the record."""
    path = os.path.join(CONFIG_DIR, config_name)
    if edits:
        path = _write_config(tmp_path, _edited_config(config_name, edits))
    args = ["run", path, "--out", str(tmp_path)]
    for assignment in assignments:
        args += ["--set", assignment]
    assert main(args) == 0
    out = capsys.readouterr().out
    prefix = _shipped(config_name)["output_path"]
    return out, _read_rows(tmp_path / f"{prefix}.csv"), json.loads((tmp_path / f"{prefix}.json").read_text())


def _shipped_pde_values(dim_q, grid, n_steps):
    """pde_solve's grid values for solve_pde.json's problem in dim_q."""
    problem = cli._build_problem({**_shipped("solve_pde.json")["parameters"]["problem"], "dim_q": dim_q})
    lattice = cli.make_lattice(n_steps, problem.t_final, dim_q)
    return feynman.pde_solve(problem, grid, lattice, feynman.WLogDerivativeMode.EUCLIDEAN).values


@pytest.mark.parametrize(
    "method, assignments",
    [
        ("mc", ["parameters.n_samples=4000", "parameters.n_steps=8"]),
        ("exact_gaussian", []),
        ("oscillatory", ["parameters.mode=real_time", "parameters.n_steps=2"]),
    ],
)
def test_solve_reports_finite_values_for_every_path_method(tmp_path, capsys, method, assignments):
    out, rows, record = _run_shipped(
        tmp_path, capsys, "solve_pde.json", f"parameters.method={method}", *assignments, edits={"grid": _DELETE}
    )
    assert "[PASS] values_finite: all computed values finite" in out
    assert [a["name"] for a in record["assertions"]] == ["values_finite"]
    assert [r["method"] for r in rows] == [method] * 3
    params = record["config"]["parameters"]
    problem = cli._build_problem(params["problem"])
    lattice = cli.make_lattice(params["n_steps"], problem.t_final, 1)
    points = np.array([[-1.0], [0.0], [1.0]])
    if method == "mc":
        assert all(float(r["std_error"]) > 0.0 for r in rows)
        mc = measures.QuadratureSpec("monte_carlo", 4000, seed=0, workers=1)
        expected = [e.value for e in feynman.feynman_mc(problem, points, lattice, mc)]
    elif method == "exact_gaussian":
        expected = feynman.exact_gaussian_propagator(problem, points, lattice)
    else:
        expected = feynman.oscillatory_check(problem, points, lattice)
    assert [complex(float(r["value_real"]), float(r["value_imag"])) for r in rows] == list(expected)


def test_solve_reads_a_2d_pde_at_off_node_probes_bilinearly(tmp_path, capsys):
    grid = feynman.SpaceGrid(2, 8.0, 41)
    node = [float(grid.axis[21]), float(grid.axis[22])]
    probes = [[0.3, -0.7], [1.1, 0.45], [-2.05, 0.8], [7.9, -7.95], node]
    out, rows, _ = _run_shipped(
        tmp_path, capsys, "solve_pde.json", "parameters.problem.dim_q=2", "parameters.n_steps=16",
        'parameters.grid={"extent": 8.0, "n_points": 41}', f"parameters.probes={probes}",
    )
    assert "[PASS] boundary_mass_small" in out
    assert [[float(r["q0"]), float(r["q1"])] for r in rows] == probes
    values = _shipped_pde_values(2, grid, 16)
    got = np.array([float(r["value_real"]) for r in rows])
    for (x, y), value in zip(probes[:-1], got):
        i, j = int((x + 8.0) // grid.spacing), int((y + 8.0) // grid.spacing)
        fx, fy = (x - grid.axis[i]) / grid.spacing, (y - grid.axis[j]) / grid.spacing
        cell = values[i : i + 2, j : j + 2]
        bilinear = ((1 - fx) * (1 - fy) * cell[0, 0] + (1 - fx) * fy * cell[0, 1]
                    + fx * (1 - fy) * cell[1, 0] + fx * fy * cell[1, 1])
        # rounding is relative to the cell's values: near the box corner u falls steeply per cell
        assert abs(value - bilinear) <= 1e-15 * np.abs(cell).max()
    assert got[-1] == values[21, 22]
    assert all(float(r["value_imag"]) == 0.0 for r in rows)


def test_solve_reads_a_1d_pde_at_off_node_probes_as_np_interp_does(tmp_path, capsys):
    grid = feynman.SpaceGrid(1, 8.0, 257)
    rng = np.random.default_rng(3)
    # off-node probes where u is at least 1e-3 of its peak, across the whole box, then 33 grid nodes
    bulk, box, nodes = rng.uniform(-3.0, 3.0, 40), rng.uniform(-8.0, 8.0, 200), grid.axis[80:177:3]
    probes = np.concatenate([bulk, box, nodes])
    assignment = f"parameters.probes={[[q] for q in probes.tolist()]}"
    _, rows, _ = _run_shipped(tmp_path, capsys, "solve_pde.json", assignment)
    got = np.array([float(r["value_real"]) for r in rows])
    values = _shipped_pde_values(1, grid, 64)
    ref = np.interp(probes, grid.axis, values)
    assert np.max(np.abs(got - ref)[:40] / np.abs(ref[:40])) <= 4.5e-16
    # near the box edge u falls steeply from node to node, and np.interp's rounding relative to u
    # grows there; relative to the cell's larger value the two agree to rounding
    i = np.clip(np.searchsorted(grid.axis, box, side="right") - 1, 0, grid.n_points - 2)
    cell_scale = np.maximum(np.abs(values[i]), np.abs(values[i + 1]))
    assert np.all(np.abs(got - ref)[40:240] <= 4.5e-16 * cell_scale)
    assert got[240:].tobytes() == ref[240:].tobytes()


def test_anomaly_scan_lifts_a_pointwise_family_onto_the_path(tmp_path, capsys):
    # the pointwise lift of the 1-D scaling is the scaling of the whole path: trace n_steps * dim_q
    _, rows, record = _run_shipped(
        tmp_path, capsys, "anomaly_scan.json", "parameters.family.pointwise=true", "parameters.n_paths=2"
    )
    assert record["passed"]
    _, whole, _ = _run_shipped(tmp_path / "whole", capsys, "anomaly_scan.json", "parameters.n_paths=2")
    assert {r["trace_term"] for r in rows} == {"16.0"}
    assert len(rows) == len(whole) == 3 * 2 * 5
    for lifted, direct in zip(rows, whole):
        for key in ("eta_term_real", "log_det", "trace_integral", "density_deviation"):
            assert float(lifted[key]) == pytest.approx(float(direct[key]), rel=1e-9, abs=1e-12), key


def test_oscillatory_check_without_a_reference_reports_values_alone(tmp_path, capsys):
    out, rows, record = _run_shipped(
        tmp_path, capsys, "oscillatory_check.json", "parameters.reference=none", edits={"tolerance": _DELETE}
    )
    assert "[PASS] oscillatory_matches_reference: 3/3 points within tolerance of none\n" in out
    assert record["assertions"][0]["tolerance"] is None
    assert all(r["ref_real"] == r["ref_imag"] == r["abs_error"] == "" and r["pass"] == "true" for r in rows)
    _, checked, _ = _run_shipped(tmp_path / "checked", capsys, "oscillatory_check.json")
    assert [(r["value_real"], r["value_imag"]) for r in rows] == [
        (r["value_real"], r["value_imag"]) for r in checked
    ]


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
    calls = _counting(monkeypatch, DiscreteAction, "_velocities")
    _run_small_compare(tmp_path, capsys)
    assert len(calls) == 2  # one per worker stream's chunk, not one per probe


def test_compare_reports_its_configured_se_multiplier(tmp_path, capsys):
    config_path = os.path.join(CONFIG_DIR, "compare_methods.json")
    args = ["run", config_path, "--out", str(tmp_path), "--set", "parameters.se_multiplier=2"]
    for assignment in _QUICK_SETS["compare_methods.json"]:
        args += ["--set", assignment]
    assert main(args) in (0, 1)
    assert "rows within 2 SE + tolerance of the PDE oracle" in capsys.readouterr().out


def test_one_pass_rule_adds_the_standard_errors_to_the_tolerance():
    assert cli._within(-1e-10, None, 3.0, 1e-10) and not cli._within(2e-10, None, 3.0, 1e-10)
    # 2 SE of 0.25 is 0.5 exactly: a diff just past it passes on the tolerance alone
    assert cli._within(-0.5, 0.25, 2.0, 0.0) and not cli._within(0.5 + 1e-11, 0.25, 2.0, 0.0)
    assert cli._within(0.5 + 1e-11, 0.25, 2.0, 1e-10)


def test_compare_factors_the_exact_propagator_once(tmp_path, capsys, monkeypatch):
    feynman._gaussian_form.cache_clear()
    calls = _counting(monkeypatch, feynman, "dpbtrf")
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


# ---------------------------------------------------------------------------
# every config rule is checked before any computation

_DELETE = object()

# the library calls through which the runners compute
_COMPUTATIONS = ("ibp_residual", "ibp_terms", "proposition1_check", "solve_density_ode",
                 "pde_solve", "feynman_mc", "exact_gaussian_propagator", "oscillatory_check",
                 "anomaly_experiment")


def _edited_config(config_name, edits):
    """A shipped config with each dotted parameter path set to a value, or deleted."""
    with open(os.path.join(CONFIG_DIR, config_name), encoding="utf-8") as fh:
        config = json.load(fh)
    for dotted, value in edits.items():
        *parents, last = dotted.split(".")
        node = config["parameters"]
        for key in parents:
            node = node[key]
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
    return config


def _run_rejected(tmp_path, capsys, monkeypatch, config):
    """Run config, expecting exit 2 with no outputs and no computation; returns stderr."""
    calls = {name: _counting(monkeypatch, cli, name) for name in _COMPUTATIONS}
    out = tmp_path / "out"
    assert main(["run", _write_config(tmp_path, config), "--out", str(out)]) == 2
    assert {name: len(c) for name, c in calls.items() if c} == {}
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "config_name, edits, message",
    [
        ("ibp_check.json",
         {"measures": [{"kind": "standard", "dim": 2}, {"kind": "standard"}]},
         "measures/1: 'dim' is a required property"),
        ("theorem1_check.json", {"measure": {"kind": "wiener"}},
         "measure: 'lattice' is a required property"),
        ("ibp_check.json", {"quadrature": {"kind": "gauss_hermite"}},
         "quadrature: 'order' is a required property"),
        ("prop1_check.json", {"quadrature": {"kind": "monte_carlo"}},
         "quadrature: 'n_samples' is a required property"),
        ("solve_pde.json", {"grid": _DELETE}, "'grid' is a required property"),
        ("solve_pde.json", {"method": "mc"}, "'n_samples' is a required property"),
        ("solve_pde.json", {"grid": _DELETE, "method": "mc", "n_samples": 100, "mode": "real_time"},
         "mode: 'euclidean' was expected"),
        ("solve_pde.json", {"grid": _DELETE, "method": "exact_gaussian", "mode": "real_time"},
         "mode: 'euclidean' was expected"),
        ("solve_pde.json", {"grid": _DELETE, "method": "oscillatory"}, "mode: 'real_time' was expected"),
        ("solve_pde.json", {"n_samples": 100},
         "Additional properties are not allowed ('n_samples' was unexpected)"),
        ("solve_pde.json", {"method": "mc", "n_samples": 100},
         "Additional properties are not allowed ('grid' was unexpected)"),
        ("solve_pde.json", {"grid": _DELETE, "method": "exact_gaussian", "n_samples": 5},
         "Additional properties are not allowed ('n_samples' was unexpected)"),
        ("solve_pde.json", {"grid": _DELETE, "method": "exact_gaussian", "boundary_tolerance": 1e-9},
         "Additional properties are not allowed ('boundary_tolerance' was unexpected)"),
        ("oscillatory_check.json", {"grid": {"extent": 4.0, "n_points": 65}},
         "Additional properties are not allowed ('grid' was unexpected)"),
        ("oscillatory_check.json", {"pde_steps": 64},
         "Additional properties are not allowed ('pde_steps' was unexpected)"),
        ("oscillatory_check.json",
         {"reference": "none", "grid": {"extent": 4.0, "n_points": 65}, "tolerance": _DELETE},
         "Additional properties are not allowed ('grid' was unexpected)"),
        ("oscillatory_check.json", {"reference": "none"},
         "Additional properties are not allowed ('tolerance' was unexpected)"),
        ("compare_methods.json", {"candidates": {}}, "candidates: {} should be non-empty"),
        ("compare_methods.json", {"candidates": _DELETE}, "'candidates' is a required property"),
        ("oscillatory_check.json", {"problem.dim_q": 2}, "problem/dim_q: 1 was expected"),
        ("oscillatory_check.json", {"reference": "pde"}, "'grid' is a required property"),
        ("oscillatory_check.json", {"problem.lagrangian": {"name": "harmonic"}},
         "problem/lagrangian/name: 'free' was expected"),
        ("oscillatory_check.json", {"problem.f0": {"type": "constant"}},
         "problem/f0/type: 'gaussian_bump' was expected"),
        ("solve_pde.json", {"problem.f0": {"type": "constant", "sigma": 0.1, "value": 1.0}},
         "problem/f0: Additional properties are not allowed ('sigma' was unexpected)"),
        ("solve_pde.json", {"problem.f0": {"type": "gaussian_bump", "value": 1.0}},
         "problem/f0: Additional properties are not allowed ('value' was unexpected)"),
        ("theorem1_check.json",
         {"measure": {"kind": "wiener", "lattice": {"n_steps": 3, "t_final": 1.0, "dim_q": 1},
                      "dim": 3}},
         "measure: Additional properties are not allowed ('dim' was unexpected)"),
        ("ibp_check.json",
         {"measures": [{"kind": "standard", "dim": 1,
                        "lattice": {"n_steps": 3, "t_final": 1.0, "dim_q": 1}}]},
         "measures/0: Additional properties are not allowed ('lattice' was unexpected)"),
        ("prop1_check.json", {"measure": {"kind": "standard", "dim": 3, "kinetic_scale": 2.0}},
         "measure: Additional properties are not allowed ('kinetic_scale' was unexpected)"),
        ("ibp_check.json", {"quadrature": {"kind": "monte_carlo", "n_samples": 1000, "order": 6}},
         "quadrature: Additional properties are not allowed ('order' was unexpected)"),
        ("prop1_check.json", {"quadrature": {"kind": "gauss_hermite", "order": 8, "n_samples": 10}},
         "quadrature: Additional properties are not allowed ('n_samples' was unexpected)"),
        ("theorem1_check.json", {"quadrature": {"kind": "monte_carlo", "n_samples": 200000}},
         "quadrature/kind: 'gauss_hermite' was expected"),
    ],
    ids=["standard_needs_dim", "wiener_needs_lattice", "gauss_hermite_needs_order",
         "monte_carlo_needs_n_samples", "solve_pde_needs_grid", "solve_mc_needs_n_samples",
         "solve_mc_is_euclidean", "solve_exact_is_euclidean", "solve_oscillatory_is_real_time",
         "solve_pde_takes_no_n_samples", "solve_mc_takes_no_grid", "solve_exact_takes_no_n_samples",
         "solve_exact_takes_no_boundary_tolerance", "closed_form_free_takes_no_grid",
         "closed_form_free_takes_no_pde_steps", "no_reference_takes_no_grid",
         "no_reference_takes_no_tolerance",
         "compare_needs_a_candidate", "compare_needs_candidates", "oscillatory_needs_dim_q_1",
         "oscillatory_pde_reference_needs_grid", "closed_form_free_needs_free",
         "closed_form_free_needs_a_bump", "constant_takes_no_sigma", "bump_takes_no_value",
         "wiener_takes_no_dim", "standard_takes_no_lattice", "standard_takes_no_kinetic_scale",
         "monte_carlo_takes_no_order", "gauss_hermite_takes_no_n_samples",
         "theorem1_needs_gauss_hermite"],
)
def test_every_schema_rule_exits_2_before_any_computation(
    tmp_path, capsys, monkeypatch, config_name, edits, message
):
    err = _run_rejected(tmp_path, capsys, monkeypatch, _edited_config(config_name, edits))
    assert message in err


@pytest.mark.parametrize(
    "config_name, edits, message",
    [
        ("anomaly_scan.json",
         {"lagrangians": [{"name": "free"}, {"name": "harmonic", "params": {"omegaa": 1.0}}],
          "invariant_flags": [True, False]},
         "Lagrangian 'harmonic' (parameters: omega, kinetic_scale): unknown parameter 'omegaa'"),
        ("anomaly_scan.json",
         {"lagrangians": [{"name": "free"}, {"name": "harmonic", "params": {"omega": "x"}}],
          "invariant_flags": [True, False]},
         "Lagrangian 'harmonic' (parameters: omega, kinetic_scale): "
         "parameter 'omega' must be a number, not 'x'"),
        ("anomaly_scan.json", {"family.params": {"foo": 1}},
         "family 'scaling' (no parameters): unknown parameter 'foo'"),
        ("prop1_check.json",
         {"families": [{"name": "scaling"}, {"name": "shear", "params": {"strenght": 0.5}}]},
         "family 'shear' (parameters: strength): unknown parameter 'strenght'"),
        ("flow_density.json", {"family": {"name": "sine_flow", "params": {"amplitude": "0.1"}}},
         "family 'sine_flow' (parameters: amplitude, wavenumber): "
         "parameter 'amplitude' must be a number, not '0.1'"),
        ("solve_pde.json", {"problem.lagrangian.params": {"omega": [1.0]}},
         "parameter 'omega' must be a number, not [1.0]"),
        ("flow_density.json", {"family": {"name": "sine_flow", "params": {"wavenumber": 0}}},
         "config error: family 'sine_flow' (parameters: amplitude, wavenumber): wavenumber must be non-zero"),
        ("solve_pde.json", {"problem.lagrangian.params": {"omega": 0}},
         "config error: Lagrangian 'harmonic' (parameters: omega, kinetic_scale): omega must be positive"),
    ],
    ids=["unknown_lagrangian_parameter", "non_number_lagrangian_parameter",
         "unknown_family_parameter", "second_family_of_prop1", "non_number_sine_flow_amplitude",
         "lagrangian_of_a_problem", "zero_sine_flow_wavenumber", "zero_harmonic_omega"],
)
def test_bad_builtin_parameter_exits_2_before_any_computation(
    tmp_path, capsys, monkeypatch, config_name, edits, message
):
    err = _run_rejected(tmp_path, capsys, monkeypatch, _edited_config(config_name, edits))
    assert message in err


# ---------------------------------------------------------------------------
# every discriminated object rejects the keys its branch does not take


def _discriminated_objects(schema, path=()):
    """(path, key, schema) of every object schema under schema whose rules branch on the
    value of key; path is the object's place in the parameters, "0" standing for an item."""
    if schema.get("type") == "array":
        yield from _discriminated_objects(schema["items"], path + ("0",))
        return
    if schema.get("type") != "object":
        return
    keys = {next(iter(rule["if"]["properties"])) for rule in schema.get("allOf", []) if "if" in rule}
    for key in sorted(keys):
        yield path, key, schema
    for name, sub in schema.get("properties", {}).items():
        yield from _discriminated_objects(sub, path + (name,))


def _branch_rule(schema, key, value):
    """The one _kind rule of the branch: the keys it takes and the ones it needs."""
    rules = [rule["then"] for rule in schema["allOf"] if "if" in rule
             and rule["if"]["properties"][key]["const"] == value
             and rule["then"].get("additionalProperties") is False]
    assert len(rules) == 1, f"branch {key}={value!r} needs one rule naming the keys it takes"
    return set(rules[0]["properties"]), rules[0]["required"]


# a value for every optional key of a discriminated object
_SAMPLE_VALUES = {
    "dim": 2, "lattice": {"n_steps": 2, "t_final": 1.0, "dim_q": 1}, "kinetic_scale": 1.5,
    "n_samples": 1000, "order": 4,
    "amplitude": 1.0, "center": 0.0, "sigma": 1.0, "value": 1.0,
    "grid": {"extent": 8.0, "n_points": 65}, "probes": [[0.0]], "boundary_tolerance": 1e-6,
    "pde_steps": 64, "tolerance": 1e-6,
}

# a branch that no valid config of the experiment can take, and the edits other branches need
_UNREACHABLE_BRANCHES = {("theorem1-check", ("quadrature",), "monte_carlo")}
_BRANCH_EDITS = {
    ("solve", (), "oscillatory"): {"mode": "real_time"},
    ("oscillatory-check", ("problem", "f0"), "constant"): {
        "reference": "pde", "grid": _SAMPLE_VALUES["grid"]
    },
}


def _node(params, path):
    for key in path:
        params = params[int(key) if isinstance(params, list) else key]
    return params


def test_every_branch_rejects_each_optional_key_it_does_not_take(tmp_path, capsys, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("a config with a key its branch does not take was computed")

    for name in _COMPUTATIONS:
        monkeypatch.setattr(cli, name, computed)
    shipped = {}
    for config_path in glob.glob(os.path.join(CONFIG_DIR, "*.json")):
        config = _shipped(os.path.basename(config_path))
        shipped[config["experiment"]] = config
    found, rejected = set(), 0
    for experiment, entry in sorted(_EXPERIMENTS.items()):
        for path, key, schema in _discriminated_objects(entry.schema):
            found.add((experiment, ".".join(path), key))
            optional = set(schema["properties"]) - set(schema["required"]) - {key}
            for value in schema["properties"][key]["enum"]:
                takes, required = _branch_rule(schema, key, value)
                config = json.loads(json.dumps(shipped[experiment]))
                params = config["parameters"]
                params.update(_BRANCH_EDITS.get((experiment, path, value), {}))
                obj = _node(params, path)
                for k in set(obj) - takes:
                    del obj[k]
                obj[key] = value
                obj.update({k: _SAMPLE_VALUES[k] for k in required if k not in obj})
                try:
                    cli._validate(params, entry.schema)
                except cli.ValidationError:
                    assert (experiment, path, value) in _UNREACHABLE_BRANCHES, (experiment, path, value)
                    continue
                for extra in sorted(optional - takes):
                    obj[extra] = _SAMPLE_VALUES[extra]
                    out = tmp_path / "out"
                    assert main(["run", _write_config(tmp_path, config), "--out", str(out)]) == 2, (
                        experiment, path, value, extra)
                    assert f"'{extra}' was unexpected" in capsys.readouterr().err
                    assert not out.exists()
                    del obj[extra]
                    rejected += 1
    assert found == {
        ("ibp-check", "measures.0", "kind"), ("ibp-check", "quadrature", "kind"),
        ("theorem1-check", "measure", "kind"), ("theorem1-check", "quadrature", "kind"),
        ("prop1-check", "measure", "kind"), ("prop1-check", "quadrature", "kind"),
        ("flow-density", "measure", "kind"),
        ("solve", "", "method"), ("solve", "problem.f0", "type"),
        ("compare", "problem.f0", "type"),
        ("oscillatory-check", "", "reference"), ("oscillatory-check", "problem.f0", "type"),
    }
    assert rejected == 43
