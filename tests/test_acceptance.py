"""Acceptance gate for the package.

One test per acceptance criterion, run in numeric order.  Each test
prints a single ``[PASS] k/9`` line with its measured figure of merit
once all of its assertions hold, so ``pytest -v -s tests/test_acceptance.py``
reads as a checklist.  Criteria with a wall-time budget assert it.
"""

import filecmp
import json
import os
import time

import numpy as np
import pytest

from logmeasure import (
    QuadratureSpec,
    SchrodingerProblem,
    SpaceGrid,
    WLogDerivativeMode,
    exact_gaussian_propagator,
    feynman_mc,
    free_lagrangian,
    gaussian_bump,
    harmonic_lagrangian,
    ibp_residual,
    jacobian_log_det,
    make_lattice,
    oscillatory_check,
    pde_solve,
    polynomial_pairs,
    proposition1_check,
    rotation_family,
    scaling_family,
    shear_family,
    sine_flow_family,
    solve_density_ode,
    standard_normal,
    trace_integral_along_flow,
    translation_family,
    wiener_measure,
)
from logmeasure.cli import main

from _oracles import (
    fresnel_evolved_gaussian,
    scaling_density_ratio,
    translation_density_ratio,
)

EUCLID = WLogDerivativeMode.EUCLIDEAN
GH6 = QuadratureSpec("gauss_hermite", 6)
GH8 = QuadratureSpec("gauss_hermite", 8)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(REPO_ROOT, "configs", "anomaly_scan.json")


def _report(index, name, detail):
    print(f"[PASS] {index}/9 {name}: {detail}")


def test_01_integration_by_parts_quadrature_battery():
    """Residuals vanish to 1e-10 under tensor quadrature, dims 1-3."""
    start = time.perf_counter()
    measures = [
        ("standard-1", standard_normal(1)),
        ("standard-2", standard_normal(2)),
        ("standard-3", standard_normal(3)),
        ("wiener-2", wiener_measure(make_lattice(2, 1.0, 1))),
        ("wiener-3", wiener_measure(make_lattice(3, 1.0, 1))),
    ]
    worst = 0.0
    n_pairs = 0
    for _, m in measures:
        for phi, h in polynomial_pairs(m.dim, count=4, seed=0):
            res = ibp_residual(m, phi, h, GH6)
            worst = max(worst, abs(res.value))
            n_pairs += 1
    elapsed = time.perf_counter() - start
    assert n_pairs >= 20
    assert worst <= 1e-10
    assert elapsed < 10.0
    _report(1, "quadrature IBP battery",
            f"{n_pairs} pairs, max residual {worst:.2e} (tol 1e-10), {elapsed:.1f}s")


@pytest.mark.slow
def test_02_integration_by_parts_monte_carlo_battery():
    """In dims 8-32 with a million samples, residuals sit within 3 SE."""
    start = time.perf_counter()
    cases = [
        (standard_normal(8), polynomial_pairs(8, count=4, seed=0)),
        (wiener_measure(make_lattice(16, 1.0, 1)), polynomial_pairs(16, count=4, seed=0)),
        (standard_normal(32), polynomial_pairs(32, count=2, seed=0)),
    ]
    total = 0
    hits = 0
    worst_z = 0.0
    for seed in range(20):
        for m, pairs in cases:
            for phi, h in pairs:
                spec = QuadratureSpec("monte_carlo", 1_000_000, seed=seed)
                res = ibp_residual(m, phi, h, spec)
                z = abs(res.value) / res.std_error
                worst_z = max(worst_z, z)
                hits += z <= 3.0
                total += 1
    elapsed = time.perf_counter() - start
    rate = hits / total
    assert rate >= 0.95
    assert elapsed < 300.0
    _report(2, "Monte Carlo IBP battery",
            f"{hits}/{total} within 3 SE ({rate:.1%}), worst z {worst_z:.2f}, {elapsed:.0f}s")


def test_03_flow_derivative_pairing():
    """Pushforward derivative equals the log-derivative pairing."""
    m3 = standard_normal(3)
    families3 = [
        translation_family(3, [1.0, -0.5, 2.0]),
        scaling_family(3),
        rotation_family(3, plane=(0, 2)),
        shear_family(3, strength=0.5),
    ]
    phis = [phi for phi, _ in polynomial_pairs(3, count=2, seed=5)]
    worst_gh = 0.0
    for fam in families3:
        for phi in phis:
            out = proposition1_check(m3, fam, phi, GH8)
            worst_gh = max(worst_gh, abs(out.residual))
    assert worst_gh <= 1e-8

    m32 = standard_normal(32)
    phi32 = polynomial_pairs(32, count=1, seed=7)[0][0]
    worst_mc = 0.0
    for fam in (translation_family(32), scaling_family(32)):
        out = proposition1_check(m32, fam, phi32, QuadratureSpec("monte_carlo", 200_000, seed=11))
        assert abs(out.residual) <= 3.0 * out.std_error + 1e-6
        worst_mc = max(worst_mc, abs(out.residual))
    _report(3, "flow derivative pairing",
            f"4 families GH residual {worst_gh:.2e} (tol 1e-8), dim-32 MC residual {worst_mc:.2e}")


def test_04_density_ode_matches_closed_form():
    """The transported-density ODE reproduces pushforward ratios to 1e-6."""
    m1 = standard_normal(1)
    curve = solve_density_ode(m1, scaling_family(1), 0.5, 64, [1.2])
    oracle = scaling_density_ratio(np.eye(1), [1.2], curve.alphas)
    err_scaling = np.max(np.abs(curve.values - oracle))
    assert err_scaling <= 1e-6

    m2 = standard_normal(2)
    k = np.array([0.8, -0.6])
    curve = solve_density_ode(m2, translation_family(2, k), 0.5, 64, [0.2, 0.4])
    oracle = translation_density_ratio(np.zeros(2), np.eye(2), k, [0.2, 0.4], curve.alphas)
    err_translation = np.max(np.abs(curve.values - oracle))
    assert err_translation <= 1e-6

    exact = scaling_density_ratio(np.eye(1), [1.2], [0.5])[0]
    errors = []
    for n_grid in (8, 16):
        coarse = solve_density_ode(m1, scaling_family(1), 0.5, n_grid, [1.2])
        errors.append(abs(coarse.values[-1] - exact))
    order = np.log2(errors[0] / errors[1])
    assert order >= 3.5
    _report(4, "density ODE vs closed form",
            f"scaling {err_scaling:.2e}, translation {err_translation:.2e} "
            f"(tol 1e-6), convergence order {order:.2f}")


def test_05_determinant_trace_duality():
    """log det of the flow Jacobian equals the integrated divergence."""
    probes = {
        "scaling": (scaling_family(3), np.array([0.4, -1.1, 0.7])),
        "rotation": (rotation_family(3, plane=(0, 2)), np.array([0.4, -1.1, 0.7])),
        "shear": (shear_family(3, strength=0.5), np.array([0.4, -1.1, 0.7])),
        "sine_flow": (sine_flow_family(2, amplitude=0.1), np.array([0.3, 0.7])),
    }
    worst = 0.0
    for fam, x in probes.values():
        for alpha in (0.1, 0.25):
            log_det = jacobian_log_det(fam, alpha, x)
            trace = trace_integral_along_flow(fam, alpha, x, n_grid=256)
            worst = max(worst, abs(log_det - trace))
    assert worst <= 1e-6
    _report(5, "determinant-trace duality",
            f"4 families at alpha<=0.25, worst gap {worst:.2e} (tol 1e-6)")


@pytest.mark.slow
def test_06_cauchy_problem_three_ways():
    """Grid PDE, exact Gaussian reduction and path-integral MC agree."""
    start = time.perf_counter()
    grid = SpaceGrid(1, 8.0, 257)
    lat = make_lattice(64, 0.5, 1)
    probes = [-2.0, -1.0, 0.0, 1.0, 2.0]
    pde_errs = {}
    mc_gaps = {}
    for lag in (free_lagrangian(1), harmonic_lagrangian(1)):
        p = SchrodingerProblem(1, lag, gaussian_bump(1, sigma=1.0), 0.5)
        pde = pde_solve(p, grid, lat, EUCLID)
        exact = np.array([exact_gaussian_propagator(p, [q], lat) for q in grid.axis])
        rel = np.linalg.norm(pde.values - exact) / np.linalg.norm(exact)
        assert rel <= 1e-3
        pde_errs[lag.label] = rel
        gap = 0.0
        for i, q in enumerate(probes):
            ref = exact_gaussian_propagator(p, [q], lat)
            est = feynman_mc(p, [q], lat, QuadratureSpec("monte_carlo", 1_000_000, seed=3 + i))
            assert abs(est.value - ref) <= 3.0 * est.std_error + 1e-3
            gap = max(gap, abs(est.value - ref))
        mc_gaps[lag.label] = gap
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    pde_part = ", ".join(f"{k} {v:.1e}" for k, v in pde_errs.items())
    mc_part = ", ".join(f"{k} {v:.1e}" for k, v in mc_gaps.items())
    _report(6, "Cauchy problem three ways",
            f"PDE L2 rel [{pde_part}] (tol 1e-3), MC gap [{mc_part}], {elapsed:.0f}s")


def test_07_oscillatory_real_time_short_lattice():
    """Direct oscillatory quadrature matches the Fresnel closed form."""
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1, sigma=1.0), 0.5)
    worst = 0.0
    for n_steps in (1, 2):
        lat = make_lattice(n_steps, 0.5, 1)
        for q in (0.0, 0.4):
            value = oscillatory_check(p, [q], lat)
            ref = fresnel_evolved_gaussian(1.0, 0.0, 1.0, 1.0, 0.5, q)
            worst = max(worst, abs(value - ref))
    assert worst <= 1e-6
    _report(7, "oscillatory real-time check",
            f"n_steps 1-2, worst gap to closed form {worst:.2e} (tol 1e-6)")


def test_08_anomaly_scan_shipped_config(tmp_path):
    """The shipped anomaly scan passes and shows the advertised structure."""
    out = tmp_path / "run"
    code = main(["run", CONFIG, "--out", str(out)])
    assert code == 0
    record = json.loads((out / "anomaly_scan.json").read_text())
    assert record["passed"] is True
    names = {a["name"] for a in record["assertions"]}
    assert "trace_identical_across_lagrangians" in names
    assert "determinant_trace_duality" in names
    assert "weighted_density_noninvariant" in names
    assert any(n.startswith("eta_term_vanishes") for n in names)
    rows = record["rows"]
    free_rows = [r for r in rows if r["lagrangian"] == "free"]
    assert free_rows
    assert all(r["eta_term_real"] == 0.0 and r["eta_term_imag"] == 0.0 for r in free_rows)
    trace_values = {r["trace_term"] for r in rows}
    assert trace_values == {16.0}
    assert all(abs(r["duality_gap"]) <= 1e-6 for r in rows)
    assert all(r["density_deviation"] > 1e-3 for r in rows)
    n_lagrangians = len({r["lagrangian"] for r in rows})
    _report(8, "anomaly scan (shipped config)",
            f"trace term 16.0 across {n_lagrangians} Lagrangians, "
            f"free eta term identically 0, density deviation > 1e-3")


def test_09_shipped_config_reruns_bit_for_bit(tmp_path):
    """Re-running the shipped config reproduces the CSV byte for byte."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", CONFIG, "--out", str(out_a)]) == 0
    assert main(["run", CONFIG, "--out", str(out_b)]) == 0
    csv_a = out_a / "anomaly_scan.csv"
    csv_b = out_b / "anomaly_scan.csv"
    assert filecmp.cmp(csv_a, csv_b, shallow=False)
    rec_a = json.loads((out_a / "anomaly_scan.json").read_text())
    rec_b = json.loads((out_b / "anomaly_scan.json").read_text())
    assert rec_a["rows"] == rec_b["rows"]
    assert rec_a["assertions"] == rec_b["assertions"]
    _report(9, "reproducibility",
            f"two runs, {csv_a.stat().st_size} CSV bytes identical")
