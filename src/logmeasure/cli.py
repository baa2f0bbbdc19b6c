"""Batch experiment runner.

Usage:
    logmeasure run <config.json> [--set key=value]... [--seed N] [--workers N] [--out DIR]
    logmeasure list-builtins [--json]

Configs are JSON with a top-level ``"schema": 1`` marker and are validated
(unknown keys rejected) before any computation; validation problems exit 2
with no output files.  A run writes one JSON result record and one CSV table,
prints one line per declared assertion, and exits 0 only if every assertion
passed (1 otherwise).  Identical config + seed + workers reproduces every
numeric column bitwise; wall time lives only in the JSON record.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import os
import platform
import sys
import time
from typing import Any, Callable, Optional

import jsonschema
import numpy as np
import scipy

from . import __version__
from .action import WLogDerivativeMode
from .fields import TestFunction, TransformationFamily
from .feynman import (
    SchrodingerProblem,
    SpaceGrid,
    anomaly_experiment,
    constant_initial_condition,
    exact_gaussian_propagator,
    feynman_mc,
    free_evolution_closed_form,
    gaussian_bump,
    oscillatory_check,
    pde_solve,
)
from .flows import proposition1_check, solve_density_ode
from .lattice import make_lattice
from .library import (
    list_builtins_data,
    make_family,
    make_lagrangian,
    pointwise_family,
    polynomial_pairs,
)
from .measures import (
    GaussianMeasure,
    QuadratureKind,
    QuadratureSpec,
    ibp_residual,
    ibp_terms,
    standard_normal,
    wiener_measure,
)


class ConfigError(Exception):
    """Anything wrong with the config file; maps to exit status 2."""


# ---------------------------------------------------------------------------
# config schemas

_LATTICE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n_steps", "t_final", "dim_q"],
    "properties": {
        "n_steps": {"type": "integer", "minimum": 1},
        "t_final": {"type": "number", "exclusiveMinimum": 0},
        "dim_q": {"type": "integer", "minimum": 1},
    },
}

_MEASURE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["standard", "wiener"]},
        "dim": {"type": "integer", "minimum": 1},
        "lattice": _LATTICE_SCHEMA,
        "kinetic_scale": {"type": "number", "exclusiveMinimum": 0},
    },
}

_QUADRATURE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["monte_carlo", "gauss_hermite"]},
        "n_samples": {"type": "integer", "minimum": 1},
        "order": {"type": "integer", "minimum": 1},
    },
}

_NAMED_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name"],
    "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
}

_FAMILY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name"],
    "properties": {
        "name": {"type": "string"},
        "params": {"type": "object"},
        "pointwise": {"type": "boolean"},
    },
}

_PAIRS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["count"],
    "properties": {
        "count": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
    },
}

_F0_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["type"],
    "properties": {
        "type": {"enum": ["gaussian_bump", "constant"]},
        "amplitude": {"type": "number", "exclusiveMinimum": 0},
        "center": {"type": "number"},
        "sigma": {"type": "number", "exclusiveMinimum": 0},
        "value": {"type": "number"},
    },
}

_PROBLEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dim_q", "t_final", "lagrangian", "f0"],
    "properties": {
        "dim_q": {"enum": [1, 2]},
        "t_final": {"type": "number", "exclusiveMinimum": 0},
        "lagrangian": _NAMED_SCHEMA,
        "f0": _F0_SCHEMA,
    },
}

_GRID_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["extent", "n_points"],
    "properties": {
        "extent": {"type": "number", "exclusiveMinimum": 0},
        "n_points": {"type": "integer", "minimum": 3},
    },
}

_MODE_SCHEMA = {"enum": ["euclidean", "real_time"]}

_PROBES_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "items": {"type": "number"}, "minItems": 1},
}

_PARAMETER_SCHEMAS: dict[str, dict] = {
    "ibp-check": {
        "type": "object",
        "additionalProperties": False,
        "required": ["measures", "pairs", "quadrature"],
        "properties": {
            "measures": {"type": "array", "minItems": 1, "items": _MEASURE_SCHEMA},
            "pairs": _PAIRS_SCHEMA,
            "quadrature": _QUADRATURE_SCHEMA,
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
            "se_multiplier": {"type": "number", "exclusiveMinimum": 0},
            "min_pass_fraction": {"type": "number", "minimum": 0, "maximum": 1},
        },
    },
    "theorem1-check": {
        "type": "object",
        "additionalProperties": False,
        "required": ["measure", "pairs", "quadrature"],
        "properties": {
            "measure": _MEASURE_SCHEMA,
            "pairs": _PAIRS_SCHEMA,
            "quadrature": _QUADRATURE_SCHEMA,
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
            "trace_floor": {"type": "number", "minimum": 0},
        },
    },
    "prop1-check": {
        "type": "object",
        "additionalProperties": False,
        "required": ["measure", "families", "pairs", "quadrature"],
        "properties": {
            "measure": _MEASURE_SCHEMA,
            "families": {"type": "array", "minItems": 1, "items": _NAMED_SCHEMA},
            "pairs": _PAIRS_SCHEMA,
            "quadrature": _QUADRATURE_SCHEMA,
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
            "se_multiplier": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "flow-density": {
        "type": "object",
        "additionalProperties": False,
        "required": ["measure", "family", "alpha_max", "n_grid", "probe"],
        "properties": {
            "measure": _MEASURE_SCHEMA,
            "family": _NAMED_SCHEMA,
            "alpha_max": {"type": "number", "exclusiveMinimum": 0},
            "n_grid": {"type": "integer", "minimum": 1},
            "probe": {"type": "array", "minItems": 1, "items": {"type": "number"}},
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "solve": {
        "type": "object",
        "additionalProperties": False,
        "required": ["problem", "mode", "method", "n_steps"],
        "properties": {
            "problem": _PROBLEM_SCHEMA,
            "mode": _MODE_SCHEMA,
            "method": {"enum": ["pde", "mc", "exact_gaussian", "oscillatory"]},
            "n_steps": {"type": "integer", "minimum": 1},
            "grid": _GRID_SCHEMA,
            "n_samples": {"type": "integer", "minimum": 1},
            "probes": _PROBES_SCHEMA,
            "boundary_tolerance": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "compare": {
        "type": "object",
        "additionalProperties": False,
        "required": ["problem", "reference", "probes"],
        "properties": {
            "problem": _PROBLEM_SCHEMA,
            "reference": {
                "type": "object",
                "additionalProperties": False,
                "required": ["grid", "n_steps"],
                "properties": {"grid": _GRID_SCHEMA, "n_steps": {"type": "integer", "minimum": 1}},
            },
            "candidates": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "mc": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["n_steps", "n_samples"],
                        "properties": {
                            "n_steps": {"type": "integer", "minimum": 1},
                            "n_samples": {"type": "integer", "minimum": 1},
                        },
                    },
                    "exact_gaussian": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["n_steps"],
                        "properties": {"n_steps": {"type": "integer", "minimum": 1}},
                    },
                },
            },
            "probes": _PROBES_SCHEMA,
            "tolerance_abs": {"type": "number", "exclusiveMinimum": 0},
            "se_multiplier": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "anomaly-scan": {
        "type": "object",
        "additionalProperties": False,
        "required": ["lattice", "family", "lagrangians", "n_paths"],
        "properties": {
            "lattice": _LATTICE_SCHEMA,
            "family": _FAMILY_SCHEMA,
            "lagrangians": {"type": "array", "minItems": 2, "items": _NAMED_SCHEMA},
            "invariant_flags": {"type": "array", "items": {"type": "boolean"}},
            "expect_nonzero_trace": {"type": "boolean"},
            "n_paths": {"type": "integer", "minimum": 1},
            "alpha_max": {"type": "number", "exclusiveMinimum": 0},
            "n_alpha": {"type": "integer", "minimum": 1},
            "mode": _MODE_SCHEMA,
            "eta_zero_tolerance": {"type": "number", "exclusiveMinimum": 0},
            "duality_tolerance": {"type": "number", "exclusiveMinimum": 0},
            "duality_grid": {"type": "integer", "minimum": 1},
            "density_grid": {"type": "integer", "minimum": 1},
            "density_floor": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "oscillatory-check": {
        "type": "object",
        "additionalProperties": False,
        "required": ["problem", "n_steps", "q_points", "reference"],
        "properties": {
            "problem": _PROBLEM_SCHEMA,
            "n_steps": {"type": "integer", "minimum": 1},
            "q_points": {"type": "array", "minItems": 1, "items": {"type": "number"}},
            "reference": {"enum": ["closed_form_free", "pde", "none"]},
            "grid": _GRID_SCHEMA,
            "pde_steps": {"type": "integer", "minimum": 1},
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
        },
    },
}

_TOP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "experiment", "parameters"],
    "properties": {
        "schema": {"const": 1},
        "experiment": {"enum": sorted(_PARAMETER_SCHEMAS)},
        "seed": {"type": "integer", "minimum": 0},
        "workers": {"type": "integer", "minimum": 1},
        "output_path": {"type": "string", "minLength": 1},
        "parameters": {"type": "object"},
    },
}


# ---------------------------------------------------------------------------
# builders from validated config fragments


def _build_measure(spec: dict) -> tuple[GaussianMeasure, str]:
    if spec["kind"] == "standard":
        if "dim" not in spec:
            raise ConfigError("standard measure needs a dim")
        return standard_normal(spec["dim"]), f"standard(dim={spec['dim']})"
    if "lattice" not in spec:
        raise ConfigError("wiener measure needs a lattice")
    lat = spec["lattice"]
    lattice = make_lattice(lat["n_steps"], lat["t_final"], lat["dim_q"])
    kinetic = spec.get("kinetic_scale", 1.0) * np.eye(lattice.dim_q)
    label = f"wiener(n={lat['n_steps']},t={lat['t_final']},d={lat['dim_q']})"
    return wiener_measure(lattice, kinetic), label


def _build_quadrature(spec: dict, seed: int, workers: int) -> QuadratureSpec:
    if spec["kind"] == "gauss_hermite":
        if "order" not in spec:
            raise ConfigError("gauss_hermite quadrature needs an order")
        return QuadratureSpec(QuadratureKind.GAUSS_HERMITE, spec["order"])
    if "n_samples" not in spec:
        raise ConfigError("monte_carlo quadrature needs n_samples")
    return QuadratureSpec(QuadratureKind.MONTE_CARLO, spec["n_samples"], seed, workers)


def _build_problem(spec: dict) -> SchrodingerProblem:
    dim_q = spec["dim_q"]
    lag_spec = spec["lagrangian"]
    lagrangian = make_lagrangian(lag_spec["name"], dim_q, lag_spec.get("params"))
    f0_spec = spec["f0"]
    if f0_spec["type"] == "gaussian_bump":
        f0 = gaussian_bump(
            dim_q,
            amplitude=f0_spec.get("amplitude", 1.0),
            center=f0_spec.get("center", 0.0),
            sigma=f0_spec.get("sigma", 1.0),
        )
    else:
        f0 = constant_initial_condition(dim_q, f0_spec.get("value", 1.0))
    return SchrodingerProblem(
        dim_q=dim_q,
        lagrangian=lagrangian,
        f0=f0,
        t_final=spec["t_final"],
        label=lag_spec["name"],
    )


def _mode(params: dict, default: str = "euclidean") -> WLogDerivativeMode:
    return WLogDerivativeMode(params.get("mode", default))


def _grid_values_at(values: np.ndarray, grid: SpaceGrid, probes: list) -> list[complex]:
    """Linear interpolation of a PDE grid solution at probe points."""
    out = []
    if grid.dim_q == 1:
        for probe in probes:
            q = float(probe[0])
            re = np.interp(q, grid.axis, values.real)
            im = np.interp(q, grid.axis, values.imag) if np.iscomplexobj(values) else 0.0
            out.append(complex(re, im))
        return out
    from scipy.interpolate import RegularGridInterpolator

    interp_re = RegularGridInterpolator((grid.axis, grid.axis), values.real)
    if np.iscomplexobj(values):
        interp_im = RegularGridInterpolator((grid.axis, grid.axis), values.imag)
    else:
        interp_im = None
    for probe in probes:
        pt = np.asarray(probe, dtype=float).reshape(1, 2)
        re = float(interp_re(pt)[0])
        im = float(interp_im(pt)[0]) if interp_im is not None else 0.0
        out.append(complex(re, im))
    return out


# ---------------------------------------------------------------------------
# experiments: each returns (columns, rows, assertions)

Assertion = dict
Row = dict


def _assert_entry(name: str, passed: bool, tolerance: Optional[float], detail: str) -> Assertion:
    return {"name": name, "passed": bool(passed), "tolerance": tolerance, "detail": detail}


def _run_ibp_check(params: dict, seed: int, workers: int):
    quad = _build_quadrature(params["quadrature"], seed, workers)
    tolerance = params.get("tolerance", 1e-10)
    se_multiplier = params.get("se_multiplier", 3.0)
    min_fraction = params.get("min_pass_fraction", 1.0)
    pair_count = params["pairs"]["count"]
    pair_seed = params["pairs"].get("seed", 0)

    rows: list[Row] = []
    for measure_spec in params["measures"]:
        m, label = _build_measure(measure_spec)
        pairs = polynomial_pairs(m.dim, pair_count, pair_seed)
        for idx, (phi, h) in enumerate(pairs):
            est = ibp_residual(m, phi, h, quad)
            if est.std_error is None:
                ok = abs(est.value) <= tolerance
            else:
                ok = abs(est.value) <= se_multiplier * est.std_error
            rows.append(
                {
                    "measure": label,
                    "dim": m.dim,
                    "pair": idx,
                    "residual": est.value,
                    "std_error": est.std_error,
                    "pass": ok,
                }
            )
    n_ok = sum(1 for r in rows if r["pass"])
    fraction = n_ok / len(rows)
    bound = tolerance if quad.kind is QuadratureKind.GAUSS_HERMITE else se_multiplier
    assertions = [
        _assert_entry(
            "ibp_residuals_within_bounds",
            fraction >= min_fraction,
            bound,
            f"{n_ok}/{len(rows)} rows within bounds (need fraction >= {min_fraction})",
        )
    ]
    columns = ["measure", "dim", "pair", "residual", "std_error", "pass"]
    return columns, rows, assertions


def _run_theorem1_check(params: dict, seed: int, workers: int):
    m, label = _build_measure(params["measure"])
    quad = _build_quadrature(params["quadrature"], seed, workers)
    tolerance = params.get("tolerance", 1e-10)
    trace_floor = params.get("trace_floor", 1e-6)
    pairs = polynomial_pairs(m.dim, params["pairs"]["count"], params["pairs"].get("seed", 0))

    rows: list[Row] = []
    for idx, (phi, h) in enumerate(pairs):
        grad_term, vector_term, trace_term = (e.value for e in ibp_terms(m, phi, h, quad))
        residual = grad_term + vector_term + trace_term
        residual_no_trace = grad_term + vector_term
        rows.append(
            {
                "measure": label,
                "pair": idx,
                "grad_term": grad_term,
                "vector_term": vector_term,
                "trace_term": trace_term,
                "residual": residual,
                "residual_no_trace": residual_no_trace,
                "pass": abs(residual) <= tolerance,
            }
        )
    max_residual = max(abs(r["residual"]) for r in rows)
    max_no_trace = max(abs(r["residual_no_trace"]) for r in rows)
    assertions = [
        _assert_entry(
            "decomposition_residual_zero",
            max_residual <= tolerance,
            tolerance,
            f"max |residual| = {max_residual:.3e}",
        ),
        _assert_entry(
            "trace_term_load_bearing",
            max_no_trace > trace_floor,
            trace_floor,
            f"max |residual without trace| = {max_no_trace:.3e} (must exceed floor)",
        ),
    ]
    columns = [
        "measure",
        "pair",
        "grad_term",
        "vector_term",
        "trace_term",
        "residual",
        "residual_no_trace",
        "pass",
    ]
    return columns, rows, assertions


def _run_prop1_check(params: dict, seed: int, workers: int):
    m, label = _build_measure(params["measure"])
    quad = _build_quadrature(params["quadrature"], seed, workers)
    tolerance = params.get("tolerance", 1e-8)
    se_multiplier = params.get("se_multiplier", 3.0)
    pairs = polynomial_pairs(m.dim, params["pairs"]["count"], params["pairs"].get("seed", 0))

    rows: list[Row] = []
    for fam_spec in params["families"]:
        family = make_family(fam_spec["name"], m.dim, fam_spec.get("params"))
        for idx, (phi, _) in enumerate(pairs):
            result = proposition1_check(m, family, phi, quad)
            if result.std_error is None:
                ok = abs(result.residual) <= tolerance
            else:
                ok = abs(result.residual) <= se_multiplier * result.std_error + tolerance
            rows.append(
                {
                    "measure": label,
                    "family": fam_spec["name"],
                    "phi": idx,
                    "lhs": result.lhs,
                    "rhs": result.rhs,
                    "residual": result.residual,
                    "std_error": result.std_error,
                    "pass": ok,
                }
            )
    n_ok = sum(1 for r in rows if r["pass"])
    assertions = [
        _assert_entry(
            "pushforward_matches_generator_pairing",
            n_ok == len(rows),
            tolerance,
            f"{n_ok}/{len(rows)} rows within tolerance",
        )
    ]
    columns = ["measure", "family", "phi", "lhs", "rhs", "residual", "std_error", "pass"]
    return columns, rows, assertions


def _density_reference(
    family_name: str, m: GaussianMeasure, family: TransformationFamily, probe: np.ndarray, alphas: np.ndarray
) -> Optional[np.ndarray]:
    """Closed-form pushforward density along the flow for the affine builtins."""
    if family_name == "translation":
        k = family.generator_field.eval_at(np.zeros(m.dim))
        pk = m.precision @ k
        return np.exp(-alphas * ((probe - m.mean) @ pk) + 0.5 * alphas**2 * (k @ pk))
    if family_name == "scaling":
        if np.any(m.mean):
            return None
        quad = probe @ m.precision @ probe
        return np.exp(-m.dim * alphas + 0.5 * quad * (np.exp(2.0 * alphas) - 1.0))
    return None


def _run_flow_density(params: dict, seed: int, workers: int):
    m, label = _build_measure(params["measure"])
    fam_spec = params["family"]
    family = make_family(fam_spec["name"], m.dim, fam_spec.get("params"))
    probe = np.asarray(params["probe"], dtype=float)
    if probe.shape != (m.dim,):
        raise ConfigError(f"probe must have dimension {m.dim}")
    tolerance = params.get("tolerance", 1e-6)

    curve = solve_density_ode(m, family, params["alpha_max"], params["n_grid"], probe)
    reference = _density_reference(fam_spec["name"], m, family, probe, curve.alphas)

    rows: list[Row] = []
    for i, alpha in enumerate(curve.alphas):
        ref = None if reference is None else float(reference[i])
        err = None if ref is None else abs(curve.values[i] - ref)
        rows.append(
            {
                "measure": label,
                "family": fam_spec["name"],
                "alpha": float(alpha),
                "density": float(curve.values[i]),
                "reference": ref,
                "abs_error": err,
            }
        )
    if reference is None:
        assertions = [
            _assert_entry(
                "density_curve_finite",
                bool(np.all(np.isfinite(curve.values))),
                None,
                "no closed form declared for this family; checked finiteness only",
            )
        ]
    else:
        max_err = max(r["abs_error"] for r in rows)
        assertions = [
            _assert_entry(
                "density_matches_closed_form",
                max_err <= tolerance,
                tolerance,
                f"max |density - closed form| = {max_err:.3e}",
            )
        ]
    columns = ["measure", "family", "alpha", "density", "reference", "abs_error"]
    return columns, rows, assertions


def _run_solve(params: dict, seed: int, workers: int):
    problem = _build_problem(params["problem"])
    mode = _mode(params)
    method = params["method"]
    lattice = make_lattice(params["n_steps"], problem.t_final, problem.dim_q)
    probes = params.get("probes", [[0.0] * problem.dim_q])
    boundary_tol = params.get("boundary_tolerance", 1e-6)

    rows: list[Row] = []
    assertions: list[Assertion] = []
    if method == "pde":
        if "grid" not in params:
            raise ConfigError("pde method needs a grid")
        grid = SpaceGrid(problem.dim_q, params["grid"]["extent"], params["grid"]["n_points"])
        result = pde_solve(problem, grid, lattice, mode)
        values = _grid_values_at(result.values, grid, probes)
        for probe, value in zip(probes, values):
            rows.append(_solve_row(method, probe, value, None))
        assertions.append(
            _assert_entry(
                "boundary_mass_small",
                result.error_estimate <= boundary_tol,
                boundary_tol,
                f"boundary mass fraction = {result.error_estimate:.3e}",
            )
        )
    elif method == "mc":
        if mode is not WLogDerivativeMode.EUCLIDEAN:
            raise ConfigError("mc method is defined in the euclidean mode only")
        n_samples = params.get("n_samples")
        if n_samples is None:
            raise ConfigError("mc method needs n_samples")
        quad = QuadratureSpec(QuadratureKind.MONTE_CARLO, n_samples, seed, workers)
        for probe in probes:
            est = feynman_mc(problem, np.asarray(probe, dtype=float), lattice, quad)
            rows.append(_solve_row(method, probe, complex(est.value), est.std_error))
    elif method == "exact_gaussian":
        if mode is not WLogDerivativeMode.EUCLIDEAN:
            raise ConfigError("exact_gaussian is defined in the euclidean mode only")
        for probe in probes:
            value = exact_gaussian_propagator(problem, np.asarray(probe, dtype=float), lattice)
            rows.append(_solve_row(method, probe, value, None))
    else:
        if mode is not WLogDerivativeMode.REAL_TIME:
            raise ConfigError("oscillatory method runs in real_time mode")
        for probe in probes:
            value = oscillatory_check(problem, np.asarray(probe, dtype=float), lattice)
            rows.append(_solve_row(method, probe, value, None))

    if not assertions:
        finite = all(np.isfinite([r["value_real"], r["value_imag"]]).all() for r in rows)
        assertions.append(
            _assert_entry("values_finite", finite, None, "all computed values finite")
        )
    columns = ["method", "q0", "q1", "value_real", "value_imag", "std_error"]
    return columns, rows, assertions


def _solve_row(method: str, probe, value: complex, std_error: Optional[float]) -> Row:
    probe = list(np.asarray(probe, dtype=float).reshape(-1))
    return {
        "method": method,
        "q0": probe[0],
        "q1": probe[1] if len(probe) > 1 else None,
        "value_real": float(np.real(value)),
        "value_imag": float(np.imag(value)),
        "std_error": std_error,
    }


def _run_compare(params: dict, seed: int, workers: int):
    problem = _build_problem(params["problem"])
    probes = params["probes"]
    tolerance_abs = params.get("tolerance_abs", 1e-3)
    se_multiplier = params.get("se_multiplier", 3.0)

    ref_spec = params["reference"]
    grid = SpaceGrid(problem.dim_q, ref_spec["grid"]["extent"], ref_spec["grid"]["n_points"])
    ref_lattice = make_lattice(ref_spec["n_steps"], problem.t_final, problem.dim_q)
    ref_result = pde_solve(problem, grid, ref_lattice, WLogDerivativeMode.EUCLIDEAN)
    ref_values = _grid_values_at(ref_result.values, grid, probes)

    rows: list[Row] = []
    candidates = params.get("candidates", {})
    if "mc" in candidates:
        mc_spec = candidates["mc"]
        lattice = make_lattice(mc_spec["n_steps"], problem.t_final, problem.dim_q)
        quad = QuadratureSpec(QuadratureKind.MONTE_CARLO, mc_spec["n_samples"], seed, workers)
        for probe, ref in zip(probes, ref_values):
            est = feynman_mc(problem, np.asarray(probe, dtype=float), lattice, quad)
            diff = abs(est.value - ref.real)
            ok = diff <= se_multiplier * est.std_error + tolerance_abs
            rows.append(_compare_row("mc", probe, est.value, ref.real, diff, est.std_error, ok))
    if "exact_gaussian" in candidates:
        eg_spec = candidates["exact_gaussian"]
        lattice = make_lattice(eg_spec["n_steps"], problem.t_final, problem.dim_q)
        for probe, ref in zip(probes, ref_values):
            value = exact_gaussian_propagator(problem, np.asarray(probe, dtype=float), lattice)
            diff = abs(value.real - ref.real)
            ok = diff <= tolerance_abs
            rows.append(_compare_row("exact_gaussian", probe, value.real, ref.real, diff, None, ok))
    if not rows:
        raise ConfigError("compare needs at least one candidate method")

    n_ok = sum(1 for r in rows if r["pass"])
    assertions = [
        _assert_entry(
            "methods_agree_with_pde",
            n_ok == len(rows),
            tolerance_abs,
            f"{n_ok}/{len(rows)} rows within 3 SE + tolerance of the PDE oracle",
        )
    ]
    columns = ["method", "q0", "q1", "value", "reference", "abs_diff", "std_error", "pass"]
    return columns, rows, assertions


def _compare_row(method, probe, value, reference, diff, std_error, ok) -> Row:
    probe = list(np.asarray(probe, dtype=float).reshape(-1))
    return {
        "method": method,
        "q0": probe[0],
        "q1": probe[1] if len(probe) > 1 else None,
        "value": float(value),
        "reference": float(reference),
        "abs_diff": float(diff),
        "std_error": std_error,
        "pass": ok,
    }


def _run_anomaly_scan(params: dict, seed: int, workers: int):
    lat = params["lattice"]
    lattice = make_lattice(lat["n_steps"], lat["t_final"], lat["dim_q"])
    fam_spec = params["family"]
    if fam_spec.get("pointwise", False):
        base = make_family(fam_spec["name"], lattice.dim_q, fam_spec.get("params"))
        family = pointwise_family(base, lattice)
    else:
        family = make_family(fam_spec["name"], lattice.dim, fam_spec.get("params"))
    lagrangians = [
        make_lagrangian(spec["name"], lattice.dim_q, spec.get("params"))
        for spec in params["lagrangians"]
    ]
    labels = [lag.label for lag in lagrangians]
    invariant_flags = params.get("invariant_flags", [False] * len(lagrangians))
    if len(invariant_flags) != len(lagrangians):
        raise ConfigError("invariant_flags must align with lagrangians")

    report = anomaly_experiment(
        family,
        lagrangians,
        lattice,
        n_paths=params["n_paths"],
        seed=seed,
        mode=_mode(params),
        invariant_flags=invariant_flags,
        expect_nonzero_trace=params.get("expect_nonzero_trace", True),
        alpha_max=params.get("alpha_max", 0.25),
        n_alpha=params.get("n_alpha", 5),
        eta_zero_tol=params.get("eta_zero_tolerance", 1e-10),
        duality_tol=params.get("duality_tolerance", 1e-6),
        duality_grid=params.get("duality_grid", 256),
        density_grid=params.get("density_grid", 64),
        density_floor=params.get("density_floor", 1e-3),
        strict=False,
    )

    summands = {(r.lagrangian_label, r.path_index): r for r in report.summand_rows}
    duality = {(r.path_index, r.alpha): r for r in report.duality_rows}
    alphas = sorted({r.alpha for r in report.duality_rows})
    rows: list[Row] = []
    for label in labels:
        for path_index in range(report.n_paths):
            srow = summands[(label, path_index)]
            for alpha in alphas:
                drow = duality[(path_index, alpha)]
                rows.append(
                    {
                        "lagrangian": label,
                        "path": path_index,
                        "alpha": alpha,
                        "eta_term_real": float(np.real(srow.eta_term)),
                        "eta_term_imag": float(np.imag(srow.eta_term)),
                        "trace_term": srow.trace_term,
                        "log_det": drow.log_det,
                        "trace_integral": drow.trace_integral,
                        "duality_gap": drow.gap,
                        "density_deviation": report.density_deviation[label],
                    }
                )

    tolerance_by_name = {
        "trace_identical_across_lagrangians": 0.0,
        "trace_term_nonzero": 1e-8,
        "trace_term_zero_control": params.get("eta_zero_tolerance", 1e-10),
        "determinant_trace_duality": params.get("duality_tolerance", 1e-6),
        "weighted_density_noninvariant": params.get("density_floor", 1e-3),
    }
    assertions = []
    for a in report.assertions:
        tol = tolerance_by_name.get(a.name, params.get("eta_zero_tolerance", 1e-10))
        assertions.append(_assert_entry(a.name, a.passed, tol, a.detail))
    columns = [
        "lagrangian",
        "path",
        "alpha",
        "eta_term_real",
        "eta_term_imag",
        "trace_term",
        "log_det",
        "trace_integral",
        "duality_gap",
        "density_deviation",
    ]
    return columns, rows, assertions


def _run_oscillatory_check(params: dict, seed: int, workers: int):
    problem = _build_problem(params["problem"])
    if problem.dim_q != 1:
        raise ConfigError("oscillatory-check supports dim_q = 1 only")
    lattice = make_lattice(params["n_steps"], problem.t_final, 1)
    tolerance = params.get("tolerance", 1e-6)
    reference_kind = params["reference"]

    ref_values: list[Optional[complex]] = []
    if reference_kind == "closed_form_free":
        qe = problem.lagrangian.quadratic_eta
        if qe is None or np.any(qe.matrix) or np.any(qe.linear) or qe.constant != 0.0:
            raise ConfigError("closed_form_free reference requires the free Lagrangian")
        data = problem.f0.gaussian_data
        if data is None or data.dim_q != 1 or np.any(data.poly1) or np.any(data.poly2):
            raise ConfigError("closed_form_free reference requires a plain Gaussian f0")
        sigma = 1.0 / np.sqrt(data.quad[0, 0])
        center = float(data.lin[0] * sigma**2)
        amplitude = float(np.exp(data.const + center**2 / (2.0 * sigma**2)) * data.poly0)
        for q in params["q_points"]:
            ref_values.append(
                free_evolution_closed_form(
                    amplitude,
                    center,
                    sigma,
                    float(problem.kinetic_matrix[0, 0]),
                    problem.t_final,
                    float(q),
                    WLogDerivativeMode.REAL_TIME,
                )
            )
    elif reference_kind == "pde":
        if "grid" not in params:
            raise ConfigError("pde reference needs a grid")
        grid = SpaceGrid(1, params["grid"]["extent"], params["grid"]["n_points"])
        pde_lattice = make_lattice(params.get("pde_steps", 512), problem.t_final, 1)
        result = pde_solve(problem, grid, pde_lattice, WLogDerivativeMode.REAL_TIME)
        ref_values = _grid_values_at(result.values, grid, [[q] for q in params["q_points"]])
    else:
        ref_values = [None] * len(params["q_points"])

    rows: list[Row] = []
    for q, ref in zip(params["q_points"], ref_values):
        value = oscillatory_check(problem, float(q), lattice)
        err = None if ref is None else abs(value - ref)
        rows.append(
            {
                "q": float(q),
                "value_real": value.real,
                "value_imag": value.imag,
                "ref_real": None if ref is None else ref.real,
                "ref_imag": None if ref is None else ref.imag,
                "abs_error": err,
                "pass": True if err is None else err <= tolerance,
            }
        )
    n_ok = sum(1 for r in rows if r["pass"])
    assertions = [
        _assert_entry(
            "oscillatory_matches_reference",
            n_ok == len(rows),
            tolerance if reference_kind != "none" else None,
            f"{n_ok}/{len(rows)} points within tolerance of {reference_kind}",
        )
    ]
    columns = ["q", "value_real", "value_imag", "ref_real", "ref_imag", "abs_error", "pass"]
    return columns, rows, assertions


_EXPERIMENTS: dict[str, Callable] = {
    "ibp-check": _run_ibp_check,
    "theorem1-check": _run_theorem1_check,
    "prop1-check": _run_prop1_check,
    "flow-density": _run_flow_density,
    "solve": _run_solve,
    "compare": _run_compare,
    "anomaly-scan": _run_anomaly_scan,
    "oscillatory-check": _run_oscillatory_check,
}


# ---------------------------------------------------------------------------
# config handling and output writing


def _apply_override(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def _load_config(path: str, overrides: list[str], seed_arg, workers_arg) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    for assignment in overrides:
        _apply_override(config, assignment)
    if seed_arg is not None:
        config["seed"] = seed_arg
    if workers_arg is not None:
        config["workers"] = workers_arg
    config.setdefault("seed", 0)
    config.setdefault("workers", 1)

    try:
        jsonschema.validate(config, _TOP_SCHEMA)
        jsonschema.validate(config["parameters"], _PARAMETER_SCHEMAS[config["experiment"]])
    except jsonschema.ValidationError as exc:
        location = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigError(f"config invalid at {location}: {exc.message}") from None
    return config


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _json_ready(value: Any) -> Any:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _write_outputs(
    out_dir: str, prefix: str, record: dict, columns: list[str], rows: list[Row]
) -> tuple[str, str]:
    json_path = os.path.join(out_dir, prefix + ".json")
    csv_path = os.path.join(out_dir, prefix + ".csv")
    os.makedirs(os.path.dirname(json_path) or ".", exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in columns])
    return json_path, csv_path


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = _load_config(args.config, args.set or [], args.seed, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    experiment = config["experiment"]
    seed = config["seed"]
    workers = config["workers"]
    start = time.perf_counter()
    try:
        columns, rows, assertions = _EXPERIMENTS[experiment](config["parameters"], seed, workers)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    wall_time = time.perf_counter() - start

    passed = all(a["passed"] for a in assertions)
    record = {
        "experiment": experiment,
        "config": config,
        "columns": columns,
        "rows": [{k: _json_ready(v) for k, v in row.items()} for row in rows],
        "assertions": assertions,
        "passed": passed,
        "seed": seed,
        "workers": workers,
        "versions": {
            "logmeasure": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "jsonschema": importlib.metadata.version("jsonschema"),
            "python": platform.python_version(),
        },
        "wall_time_s": wall_time,
    }
    prefix = config.get("output_path", experiment.replace("-", "_") + "_result")
    json_path, csv_path = _write_outputs(args.out, prefix, record, columns, rows)

    for a in assertions:
        status = "PASS" if a["passed"] else "FAIL"
        tol = "" if a["tolerance"] is None else f" (tolerance {a['tolerance']:g})"
        line = f"[{status}] {a['name']}: {a['detail']}{tol}"
        print(line)
        if not a["passed"]:
            print(line, file=sys.stderr)
    print(f"wrote {json_path} and {csv_path}")
    return 0 if passed else 1


def _cmd_list_builtins(args: argparse.Namespace) -> int:
    data = list_builtins_data()
    if args.json:
        print(json.dumps(data, indent=2))
        return 0
    for section, entries in data.items():
        print(f"{section}:")
        for entry in entries:
            if entry["parameters"]:
                print(f"  {entry['name']} (parameters: {', '.join(entry['parameters'])})")
            else:
                print(f"  {entry['name']}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="logmeasure", description="measure-differentiation experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment config")
    run_parser.add_argument("config", help="path to a JSON experiment config")
    run_parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config entry by dotted path, value parsed as JSON",
    )
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument(
        "--workers", type=int, default=None, help="override the config worker count"
    )
    run_parser.add_argument("--out", default=".", help="directory for result files")

    list_parser = sub.add_parser("list-builtins", help="list named building blocks")
    list_parser.add_argument("--json", action="store_true", help="machine-readable output")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_list_builtins(args)


if __name__ == "__main__":
    sys.exit(main())
