"""Batch experiment runner.

Usage:
    logmeasure run <config.json> [--set key=value]... [--seed N] [--workers N] [--out DIR]
    logmeasure list-builtins [--json]

Configs are JSON with a top-level ``"schema": 1`` marker.  An experiment's
schema holds every rule on which keys a config must or may set and which
values go together; a key left out takes the default of the library function
it is passed to.  The schema, the builtin names and parameters and the probe
dimensions are checked before any computation; any problem exits 2 with no
output files.  A run writes one JSON result record and one CSV table (its
columns are the rows' keys, documented in ``docs/csv_schema.json``), prints
one line per declared assertion, and exits 0 only if every assertion passed
(1 otherwise).  Identical config + seed + workers reproduces every numeric
column bitwise; wall time, the minor page faults of the experiment
(``minor_page_faults``) and the number of threads that evaluate the
batches of a call of more than one batch, Monte Carlo and Gauss-Hermite
alike (``mc_threads``), live only in the JSON record.

jsonschema, scipy.linalg and scipy.sparse are imported on first use, inside
the functions that call them: ``list-builtins`` loads none of them, and
``run`` loads jsonschema to validate the config, plain ``scipy`` for the
record's version, and a scipy submodule only when its experiment needs one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import platform
import sys
import time
from typing import Any, Callable, NamedTuple, Optional

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import __version__
from .action import WLogDerivativeMode
from .errors import SingularJacobianError
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
from .flows import _pushforward_density, proposition1_check, solve_density_ode
from .lattice import make_lattice
from .library import (
    _parameters,
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
    _mc_threads,
    ibp_residual,
    ibp_terms,
    standard_normal,
    wiener_measure,
)


class ConfigError(Exception):
    """Anything wrong with the config file; maps to exit status 2."""


# ---------------------------------------------------------------------------
# config schema fragments shared by the experiments


def _object(properties: dict, required: tuple[str, ...] = (), *rules: dict) -> dict:
    """Schema of a JSON object with the given properties that rejects unknown keys.

    Each rule is a further schema the object must match (see _when, _kind and _at).
    The keyword order decides which error jsonschema reports first; keep it.
    """
    schema = {
        "type": "object",
        "additionalProperties": False,
        "required": list(required),
        "properties": properties,
    }
    if rules:
        schema["allOf"] = list(rules)
    return schema


def _at(path: str, schema: dict) -> dict:
    """Schema that applies schema to the value at a dotted path of object keys, where present."""
    for key in reversed(path.split(".")):
        schema = {"properties": {key: schema}}
    return schema


def _when(key: str, value: Any, then: dict) -> dict:
    """Rule: an object whose key is value must also match then."""
    return {"if": {"properties": {key: {"const": value}}, "required": [key]}, "then": then}


def _kind(key: str, value: Any, takes: list[str], required: tuple[str, ...] = ()) -> dict:
    """Rule: an object whose key is value has no keys but key and takes, and has the required ones."""
    allowed = {name: True for name in [key, *takes]}
    then = {"required": list(required), "properties": allowed, "additionalProperties": False}
    return _when(key, value, then)


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_COUNT = {"type": "integer", "minimum": 1}

_LATTICE_SCHEMA = _object(
    {"n_steps": _COUNT, "t_final": _POSITIVE, "dim_q": _COUNT}, ("n_steps", "t_final", "dim_q")
)

_MEASURE_SCHEMA = _object(
    {
        "kind": {"enum": ["standard", "wiener"]},
        "dim": _COUNT,
        "lattice": _LATTICE_SCHEMA,
        "kinetic_scale": _POSITIVE,
    },
    ("kind",),
    _kind("kind", "standard", ["dim"], ("dim",)),
    _kind("kind", "wiener", ["lattice", "kinetic_scale"], ("lattice",)),
)

_QUADRATURE_SCHEMA = _object(
    {"kind": {"enum": ["monte_carlo", "gauss_hermite"]}, "n_samples": _COUNT, "order": _COUNT},
    ("kind",),
    _kind("kind", "gauss_hermite", ["order"], ("order",)),
    _kind("kind", "monte_carlo", ["n_samples"], ("n_samples",)),
)

_NAMED_SCHEMA = _object({"name": {"type": "string"}, "params": {"type": "object"}}, ("name",))

_FAMILY_SCHEMA = _object(
    {"name": {"type": "string"}, "params": {"type": "object"}, "pointwise": {"type": "boolean"}},
    ("name",),
)

_PAIRS_SCHEMA = _object({"count": _COUNT, "seed": {"type": "integer", "minimum": 0}}, ("count",))

# f0 types; a type takes the f0 keys its factory has a parameter of
_F0_FACTORIES = {"gaussian_bump": gaussian_bump, "constant": constant_initial_condition}

_F0_SCHEMA = _object(
    {
        "type": {"enum": list(_F0_FACTORIES)},
        "amplitude": _POSITIVE,
        "center": {"type": "number"},
        "sigma": _POSITIVE,
        "value": {"type": "number"},
    },
    ("type",),
    *(_kind("type", name, _parameters(factory)) for name, factory in _F0_FACTORIES.items()),
)

_PROBLEM_SCHEMA = _object(
    {
        "dim_q": {"enum": [1, 2]},
        "t_final": _POSITIVE,
        "lagrangian": _NAMED_SCHEMA,
        "f0": _F0_SCHEMA,
    },
    ("dim_q", "t_final", "lagrangian", "f0"),
)

_GRID_SCHEMA = _object(
    {"extent": _POSITIVE, "n_points": {"type": "integer", "minimum": 3}}, ("extent", "n_points")
)

_MODE_SCHEMA = {"enum": ["euclidean", "real_time"]}

# the one mode each method is defined in; pde runs in both
_METHOD_MODES = {"mc": "euclidean", "exact_gaussian": "euclidean", "oscillatory": "real_time"}

# the keys every solve method takes
_SOLVE_KEYS = ["problem", "mode", "n_steps", "probes"]

# the keys every oscillatory-check reference takes; a reference also takes a tolerance
_OSCILLATORY_KEYS = ["problem", "n_steps", "q_points"]

_PROBES_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "items": {"type": "number"}, "minItems": 1},
}


# ---------------------------------------------------------------------------
# builders from validated config fragments


def _build_measure(spec: dict) -> tuple[GaussianMeasure, str]:
    if spec["kind"] == "standard":
        return standard_normal(spec["dim"]), f"standard(dim={spec['dim']})"
    lat = spec["lattice"]
    lattice = make_lattice(lat["n_steps"], lat["t_final"], lat["dim_q"])
    kinetic = spec["kinetic_scale"] * np.eye(lattice.dim_q) if "kinetic_scale" in spec else None
    label = f"wiener(n={lat['n_steps']},t={lat['t_final']},d={lat['dim_q']})"
    return wiener_measure(lattice, kinetic), label


def _build_quadrature(spec: dict, seed: int, workers: int) -> QuadratureSpec:
    if spec["kind"] == "gauss_hermite":
        return QuadratureSpec(QuadratureKind.GAUSS_HERMITE, spec["order"])
    return QuadratureSpec(QuadratureKind.MONTE_CARLO, spec["n_samples"], seed, workers)


def _build_problem(spec: dict) -> SchrodingerProblem:
    dim_q = spec["dim_q"]
    lag_spec = spec["lagrangian"]
    lagrangian = make_lagrangian(lag_spec["name"], dim_q, lag_spec.get("params"))
    f0_spec = spec["f0"]
    f0 = _F0_FACTORIES[f0_spec["type"]](dim_q, **{k: v for k, v in f0_spec.items() if k != "type"})
    return SchrodingerProblem(
        dim_q=dim_q,
        lagrangian=lagrangian,
        f0=f0,
        t_final=spec["t_final"],
        label=lag_spec["name"],
    )


def _probes(probes: list, dim_q: int) -> tuple[np.ndarray, list[dict]]:
    """Probe points and their q0/q1 CSV cells; every probe must have dim_q coordinates."""
    if any(len(probe) != dim_q for probe in probes):
        raise ConfigError(f"every probe must have {dim_q} coordinate(s)")
    cells = [{"q0": float(p[0]), "q1": float(p[1]) if dim_q > 1 else None} for p in probes]
    return np.asarray(probes, dtype=float), cells


def _multilinear(axis: np.ndarray, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolant of values on the grid axis^d at (k, d) points in its box, exact at
    nodes: bitwise scipy's linear RegularGridInterpolator, without importing scipy.interpolate."""
    cell = np.clip(np.searchsorted(axis, points, side="right") - 1, 0, axis.size - 2)
    t = (points - axis[cell]) / (axis[cell + 1] - axis[cell])
    corners = itertools.product((0, 1), repeat=points.shape[1])
    return sum(
        functools.reduce(np.multiply, np.where(c, t, 1 - t).T, values[tuple((cell + c).T)])
        for c in corners
    )


def _method_at_probes(
    method: str, spec: dict, problem: SchrodingerProblem, mode: WLogDerivativeMode,
    points: np.ndarray, seed: int, workers: int,
) -> tuple[np.ndarray, list[Optional[float]], Optional[float]]:
    """One method's values, standard errors and PDE boundary mass at all probe rows of points.

    spec holds the method's n_steps and, for pde, its grid or, for mc, its
    n_samples.  A PDE solution is interpolated multilinearly at the probes,
    which must lie in its grid box.
    """
    lattice = make_lattice(spec["n_steps"], problem.t_final, problem.dim_q)
    no_errors = [None] * len(points)
    if method == "pde":
        grid = SpaceGrid(problem.dim_q, spec["grid"]["extent"], spec["grid"]["n_points"])
        if np.any(np.abs(points) > grid.extent):
            box = f"[-{grid.extent:g}, {grid.extent:g}]^{grid.dim_q}"
            raise ConfigError(f"every probe must lie in the PDE grid box {box}")
        result = pde_solve(problem, grid, lattice, mode)
        return _multilinear(grid.axis, result.values, points), no_errors, result.error_estimate
    if method == "mc":
        quad = QuadratureSpec(QuadratureKind.MONTE_CARLO, spec["n_samples"], seed, workers)
        estimates = feynman_mc(problem, points, lattice, quad)
        return np.array([e.value for e in estimates]), [e.std_error for e in estimates], None
    if method == "exact_gaussian":
        return exact_gaussian_propagator(problem, points, lattice), no_errors, None
    return oscillatory_check(problem, points, lattice), no_errors, None


# ---------------------------------------------------------------------------
# experiments: each returns (rows, assertions)

Assertion = dict
Row = dict


def _assert_entry(name: str, passed: bool, tolerance: Optional[float], detail: str) -> Assertion:
    return {"name": name, "passed": bool(passed), "tolerance": tolerance, "detail": detail}


def _within(diff: float, std_error: Optional[float], se_multiplier: float, tolerance: float) -> bool:
    """The one pass rule of a row: |diff| <= tolerance, plus se_multiplier standard errors
    when the estimate has one."""
    allowed = tolerance if std_error is None else se_multiplier * std_error + tolerance
    return abs(diff) <= allowed


def _pass_count(
    name: str, rows: list[Row], tolerance: Optional[float], what: str, min_fraction: float = 1.0
) -> Assertion:
    """Passes when at least min_fraction of the rows have a true "pass" cell."""
    n_ok = sum(1 for r in rows if r["pass"])
    passed = n_ok / len(rows) >= min_fraction
    return _assert_entry(name, passed, tolerance, f"{n_ok}/{len(rows)} {what}")


def _run_ibp_check(params: dict, seed: int, workers: int):
    quad = _build_quadrature(params["quadrature"], seed, workers)
    tolerance = params.get("tolerance", 1e-10)
    se_multiplier = params.get("se_multiplier", 3.0)
    min_fraction = params.get("min_pass_fraction", 1.0)

    rows: list[Row] = []
    for measure_spec in params["measures"]:
        m, label = _build_measure(measure_spec)
        pairs = polynomial_pairs(m.dim, **params["pairs"])
        for idx, (phi, h) in enumerate(pairs):
            est = ibp_residual(m, phi, h, quad)
            rows.append(
                {
                    "measure": label,
                    "dim": m.dim,
                    "pair": idx,
                    "residual": est.value,
                    "std_error": est.std_error,
                    "pass": _within(est.value, est.std_error, se_multiplier, tolerance),
                }
            )
    within = "bounds" if quad.kind is QuadratureKind.GAUSS_HERMITE else f"{se_multiplier:g} SE + tolerance"
    what = f"rows within {within} (need fraction >= {min_fraction})"
    return rows, [_pass_count("ibp_residuals_within_bounds", rows, tolerance, what, min_fraction)]


def _run_theorem1_check(params: dict, seed: int, workers: int):
    m, label = _build_measure(params["measure"])
    quad = _build_quadrature(params["quadrature"], seed, workers)
    tolerance = params.get("tolerance", 1e-10)
    trace_floor = params.get("trace_floor", 1e-6)
    pairs = polynomial_pairs(m.dim, **params["pairs"])

    rows: list[Row] = []
    for idx, (phi, h) in enumerate(pairs):
        grad_term, vector_term, trace_term = (e.value for e in ibp_terms(m, phi, h, quad))
        residual = grad_term + vector_term + trace_term
        rows.append(
            {
                "measure": label,
                "pair": idx,
                "grad_term": grad_term,
                "vector_term": vector_term,
                "trace_term": trace_term,
                "residual": residual,
                "residual_no_trace": grad_term + vector_term,
                "pass": _within(residual, None, 0.0, tolerance),
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
    return rows, assertions


def _run_prop1_check(params: dict, seed: int, workers: int):
    m, label = _build_measure(params["measure"])
    quad = _build_quadrature(params["quadrature"], seed, workers)
    tolerance = params.get("tolerance", 1e-8)
    se_multiplier = params.get("se_multiplier", 3.0)
    pairs = polynomial_pairs(m.dim, **params["pairs"])

    families = [
        (spec["name"], make_family(spec["name"], m.dim, spec.get("params")))
        for spec in params["families"]
    ]

    rows: list[Row] = []
    for name, family in families:
        for idx, (phi, _) in enumerate(pairs):
            result = proposition1_check(m, family, phi, quad)
            rows.append(
                {
                    "measure": label,
                    "family": name,
                    "phi": idx,
                    "lhs": result.lhs,
                    "rhs": result.rhs,
                    "residual": result.residual,
                    "std_error": result.std_error,
                    "pass": _within(result.residual, result.std_error, se_multiplier, tolerance),
                }
            )
    what = "rows within tolerance"
    return rows, [_pass_count("pushforward_matches_generator_pairing", rows, tolerance, what)]


def _run_flow_density(params: dict, seed: int, workers: int):
    m, label = _build_measure(params["measure"])
    fam_spec = params["family"]
    family = make_family(fam_spec["name"], m.dim, fam_spec.get("params"))
    probe = np.asarray(params["probe"], dtype=float)
    if probe.shape != (m.dim,):
        raise ConfigError(f"probe must have dimension {m.dim}")
    tolerance = params.get("tolerance", 1e-6)

    curve = solve_density_ode(m, family, params["alpha_max"], params["n_grid"], probe)
    reference = _pushforward_density(m, family, curve.alphas, probe)

    rows: list[Row] = []
    for i, alpha in enumerate(curve.alphas):
        rows.append(
            {
                "measure": label,
                "family": fam_spec["name"],
                "alpha": float(alpha),
                "density": float(curve.values[i]),
                "reference": float(reference[i]),
                "abs_error": abs(curve.values[i] - reference[i]),
            }
        )
    max_err = max(r["abs_error"] for r in rows)
    assertion = _assert_entry(
        "density_matches_closed_form",
        max_err <= tolerance,
        tolerance,
        f"max |density - closed form| = {max_err:.3e}",
    )
    return rows, [assertion]


def _run_solve(params: dict, seed: int, workers: int):
    problem = _build_problem(params["problem"])
    method = params["method"]
    points, cells = _probes(params.get("probes", [[0.0] * problem.dim_q]), problem.dim_q)
    values, std_errors, boundary_mass = _method_at_probes(
        method, params, problem, WLogDerivativeMode(params["mode"]), points, seed, workers
    )

    rows = [
        {
            "method": method,
            **cell,
            "value_real": float(np.real(value)),
            "value_imag": float(np.imag(value)),
            "std_error": std_error,
        }
        for cell, value, std_error in zip(cells, values, std_errors)
    ]
    if method == "pde":
        boundary_tol = params.get("boundary_tolerance", 1e-6)
        assertion = _assert_entry(
            "boundary_mass_small",
            boundary_mass <= boundary_tol,
            boundary_tol,
            f"boundary mass fraction = {boundary_mass:.3e}",
        )
    else:
        finite = bool(np.all(np.isfinite(values)))
        assertion = _assert_entry("values_finite", finite, None, "all computed values finite")
    return rows, [assertion]


def _run_compare(params: dict, seed: int, workers: int):
    problem = _build_problem(params["problem"])
    points, cells = _probes(params["probes"], problem.dim_q)
    tolerance_abs = params.get("tolerance_abs", 1e-3)
    se_multiplier = params.get("se_multiplier", 3.0)
    candidates = params["candidates"]

    euclidean = WLogDerivativeMode.EUCLIDEAN
    ref = _method_at_probes("pde", params["reference"], problem, euclidean, points, seed, workers)
    references = ref[0].real

    rows: list[Row] = []
    for method in ("mc", "exact_gaussian"):
        if method not in candidates:
            continue
        values, std_errors, _ = _method_at_probes(
            method, candidates[method], problem, euclidean, points, seed, workers
        )
        for cell, value, reference, std_error in zip(cells, values.real, references, std_errors):
            diff = abs(value - reference)
            rows.append(
                {
                    "method": method,
                    **cell,
                    "value": float(value),
                    "reference": float(reference),
                    "abs_diff": float(diff),
                    "std_error": std_error,
                    "pass": _within(diff, std_error, se_multiplier, tolerance_abs),
                }
            )
    what = f"rows within {se_multiplier:g} SE + tolerance of the PDE oracle"
    return rows, [_pass_count("methods_agree_with_pde", rows, tolerance_abs, what)]


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
    # every other parameter is a keyword of anomaly_experiment, forwarded only when set
    options = {k: v for k, v in params.items() if k not in ("lattice", "family", "lagrangians")}
    if "mode" in options:
        options["mode"] = WLogDerivativeMode(options["mode"])

    report = anomaly_experiment(family, lagrangians, lattice, seed=seed, strict=False, **options)

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
    assertions = [_assert_entry(a.name, a.passed, a.tolerance, a.detail) for a in report.assertions]
    return rows, assertions


def _run_oscillatory_check(params: dict, seed: int, workers: int):
    problem = _build_problem(params["problem"])
    points = np.asarray(params["q_points"], dtype=float)[:, None]
    tolerance = params.get("tolerance", 1e-6)
    reference_kind = params["reference"]
    real_time = WLogDerivativeMode.REAL_TIME

    if reference_kind == "closed_form_free":
        data = problem.f0.gaussian_data
        sigma = 1.0 / np.sqrt(data.quad[0, 0])
        center = float(data.lin[0] * sigma**2)
        amplitude = float(np.exp(data.const + center**2 / (2.0 * sigma**2)) * data.poly0)
        kinetic = float(problem.kinetic_matrix[0, 0])
        ref_values = [
            free_evolution_closed_form(
                amplitude, center, sigma, kinetic, problem.t_final, float(q), real_time
            )
            for q in params["q_points"]
        ]
    elif reference_kind == "pde":
        pde_spec = {"grid": params["grid"], "n_steps": params.get("pde_steps", 512)}
        ref_values = _method_at_probes("pde", pde_spec, problem, real_time, points, seed, workers)[0]
    else:
        ref_values = [None] * len(points)

    values = _method_at_probes("oscillatory", params, problem, real_time, points, seed, workers)[0]
    rows: list[Row] = []
    for q, value, ref in zip(params["q_points"], values, ref_values):
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
    bound = tolerance if reference_kind != "none" else None
    what = f"points within tolerance of {reference_kind}"
    return rows, [_pass_count("oscillatory_matches_reference", rows, bound, what)]


class _Experiment(NamedTuple):
    """One experiment: its parameters' schema and its runner, whose row keys are its CSV columns."""

    schema: dict
    run: Callable[[dict, int, int], tuple[list[Row], list[Assertion]]]


_EXPERIMENTS: dict[str, _Experiment] = {
    "ibp-check": _Experiment(
        _object(
            {
                "measures": {"type": "array", "minItems": 1, "items": _MEASURE_SCHEMA},
                "pairs": _PAIRS_SCHEMA,
                "quadrature": _QUADRATURE_SCHEMA,
                "tolerance": _POSITIVE,
                "se_multiplier": _POSITIVE,
                "min_pass_fraction": {"type": "number", "minimum": 0, "maximum": 1},
            },
            ("measures", "pairs", "quadrature"),
        ),
        _run_ibp_check,
    ),
    "theorem1-check": _Experiment(
        _object(
            {
                "measure": _MEASURE_SCHEMA,
                "pairs": _PAIRS_SCHEMA,
                "quadrature": _QUADRATURE_SCHEMA,
                "tolerance": _POSITIVE,
                "trace_floor": {"type": "number", "minimum": 0},
            },
            ("measure", "pairs", "quadrature"),
            _at("quadrature.kind", {"const": "gauss_hermite"}),
        ),
        _run_theorem1_check,
    ),
    "prop1-check": _Experiment(
        _object(
            {
                "measure": _MEASURE_SCHEMA,
                "families": {"type": "array", "minItems": 1, "items": _NAMED_SCHEMA},
                "pairs": _PAIRS_SCHEMA,
                "quadrature": _QUADRATURE_SCHEMA,
                "tolerance": _POSITIVE,
                "se_multiplier": _POSITIVE,
            },
            ("measure", "families", "pairs", "quadrature"),
        ),
        _run_prop1_check,
    ),
    "flow-density": _Experiment(
        _object(
            {
                "measure": _MEASURE_SCHEMA,
                "family": _NAMED_SCHEMA,
                "alpha_max": _POSITIVE,
                "n_grid": _COUNT,
                "probe": {"type": "array", "minItems": 1, "items": {"type": "number"}},
                "tolerance": _POSITIVE,
            },
            ("measure", "family", "alpha_max", "n_grid", "probe"),
        ),
        _run_flow_density,
    ),
    "solve": _Experiment(
        _object(
            {
                "problem": _PROBLEM_SCHEMA,
                "mode": _MODE_SCHEMA,
                "method": {"enum": ["pde", "mc", "exact_gaussian", "oscillatory"]},
                "n_steps": _COUNT,
                "grid": _GRID_SCHEMA,
                "n_samples": _COUNT,
                "probes": _PROBES_SCHEMA,
                "boundary_tolerance": _POSITIVE,
            },
            ("problem", "mode", "method", "n_steps"),
            _kind("method", "pde", [*_SOLVE_KEYS, "grid", "boundary_tolerance"], ("grid",)),
            _kind("method", "mc", [*_SOLVE_KEYS, "n_samples"], ("n_samples",)),
            _kind("method", "exact_gaussian", _SOLVE_KEYS),
            _kind("method", "oscillatory", _SOLVE_KEYS),
            *(_when("method", m, _at("mode", {"const": mode})) for m, mode in _METHOD_MODES.items()),
        ),
        _run_solve,
    ),
    "compare": _Experiment(
        _object(
            {
                "problem": _PROBLEM_SCHEMA,
                "reference": _object(
                    {"grid": _GRID_SCHEMA, "n_steps": _COUNT}, ("grid", "n_steps")
                ),
                "candidates": _object(
                    {
                        "mc": _object(
                            {"n_steps": _COUNT, "n_samples": _COUNT}, ("n_steps", "n_samples")
                        ),
                        "exact_gaussian": _object({"n_steps": _COUNT}, ("n_steps",)),
                    }
                ),
                "probes": _PROBES_SCHEMA,
                "tolerance_abs": _POSITIVE,
                "se_multiplier": _POSITIVE,
            },
            ("problem", "reference", "candidates", "probes"),
            _at("candidates", {"minProperties": 1}),
        ),
        _run_compare,
    ),
    "anomaly-scan": _Experiment(
        _object(
            {
                "lattice": _LATTICE_SCHEMA,
                "family": _FAMILY_SCHEMA,
                "lagrangians": {"type": "array", "minItems": 2, "items": _NAMED_SCHEMA},
                "invariant_flags": {"type": "array", "items": {"type": "boolean"}},
                "expect_nonzero_trace": {"type": "boolean"},
                "n_paths": _COUNT,
                "alpha_max": _POSITIVE,
                "n_alpha": _COUNT,
                "mode": _MODE_SCHEMA,
                "eta_zero_tol": _POSITIVE,
                "duality_tol": _POSITIVE,
                "duality_grid": _COUNT,
                "density_grid": _COUNT,
                "density_floor": _POSITIVE,
            },
            ("lattice", "family", "lagrangians", "n_paths"),
        ),
        _run_anomaly_scan,
    ),
    "oscillatory-check": _Experiment(
        _object(
            {
                "problem": _PROBLEM_SCHEMA,
                "n_steps": _COUNT,
                "q_points": {"type": "array", "minItems": 1, "items": {"type": "number"}},
                "reference": {"enum": ["closed_form_free", "pde", "none"]},
                "grid": _GRID_SCHEMA,
                "pde_steps": _COUNT,
                "tolerance": _POSITIVE,
            },
            ("problem", "n_steps", "q_points", "reference"),
            _at("problem.dim_q", {"const": 1}),
            _kind("reference", "pde", [*_OSCILLATORY_KEYS, "tolerance", "grid", "pde_steps"], ("grid",)),
            _kind("reference", "closed_form_free", [*_OSCILLATORY_KEYS, "tolerance"]),
            _kind("reference", "none", _OSCILLATORY_KEYS),
            _when(
                "reference",
                "closed_form_free",
                {
                    "allOf": [
                        _at("problem.lagrangian.name", {"const": "free"}),
                        _at("problem.f0.type", {"const": "gaussian_bump"}),
                    ]
                },
            ),
        ),
        _run_oscillatory_check,
    ),
}

_TOP_SCHEMA = _object(
    {
        "schema": {"const": 1},
        "experiment": {"enum": sorted(_EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
        "workers": _COUNT,
        "output_path": {"type": "string", "minLength": 1},
        "parameters": {"type": "object"},
    },
    ("schema", "experiment", "parameters"),
)


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


def _validate(instance: Any, schema: dict) -> None:
    """jsonschema.validate without re-checking the constant schema against the metaschema."""
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    error = best_match(Draft202012Validator(schema).iter_errors(instance))
    if error is not None:
        raise error


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

    from jsonschema import ValidationError

    try:
        _validate(config, _TOP_SCHEMA)
        _validate(config["parameters"], _EXPERIMENTS[config["experiment"]].schema)
    except ValidationError as exc:
        location = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigError(f"config invalid at {location}: {exc.message}") from None
    return config


def _json_ready(value: Any) -> Any:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _csv_cell(value: Any) -> str:
    value = _json_ready(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


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


@functools.cache
def _jsonschema_version() -> str:
    """The installed jsonschema's version, read from its package metadata once per process."""
    import importlib.metadata

    return importlib.metadata.version("jsonschema")


def _minor_page_faults() -> Optional[int]:
    """This process's minor page faults so far, all threads; None where `resource` is missing."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _cmd_run(args: argparse.Namespace) -> int:
    import scipy

    try:
        config = _load_config(args.config, args.set or [], args.seed, args.workers)
        experiment = config["experiment"]
        seed = config["seed"]
        workers = config["workers"]
        faults, start = _minor_page_faults(), time.perf_counter()
        rows, assertions = _EXPERIMENTS[experiment].run(config["parameters"], seed, workers)
    except (ConfigError, ValueError, SingularJacobianError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    wall_time = time.perf_counter() - start
    if faults is not None:
        faults = _minor_page_faults() - faults

    passed = all(a["passed"] for a in assertions)
    columns = list(rows[0])
    record = {
        "experiment": experiment,
        "config": config,
        "columns": columns,
        "rows": [{k: _json_ready(v) for k, v in row.items()} for row in rows],
        "assertions": assertions,
        "passed": passed,
        "seed": seed,
        "workers": workers,
        "mc_threads": _mc_threads(),
        "versions": {
            "logmeasure": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "jsonschema": _jsonschema_version(),
            "python": platform.python_version(),
        },
        "wall_time_s": wall_time,
        "minor_page_faults": faults,
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
