"""Cauchy-problem solvers: grid PDE, path Monte Carlo, closed forms, and the
oscillatory quadrature check, plus the anomaly experiment built on top."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from logmeasure import (
    GaussianInitialData,
    InitialCondition,
    QuadratureSpec,
    SchrodingerProblem,
    SpaceGrid,
    WLogDerivativeMode,
    anomaly_experiment,
    constant_initial_condition,
    exact_gaussian_propagator,
    feynman_mc,
    free_evolution_closed_form,
    gaussian_bump,
    make_lattice,
    oscillatory_check,
    pde_solve,
    sample,
    solve_density_ode,
    wiener_measure,
)
from logmeasure.feynman import _OSCILLATORY_GH_ORDER, _sliced_kernel
from logmeasure.library import (
    free_lagrangian,
    harmonic_lagrangian,
    pointwise_family,
    quartic_lagrangian,
    rotation_family,
    scaling_family,
    sine_flow_family,
)

from _oracles import (
    discrete_ground_state,
    fresnel_evolved_gaussian,
    heat_evolved_gaussian,
    oscillator_kernel_value,
)

EUCLID = WLogDerivativeMode.EUCLIDEAN
REAL = WLogDerivativeMode.REAL_TIME


def _l2_rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# ---------------------------------------------------------------------------
# problem and grid construction


def test_problem_validation():
    with pytest.raises(ValueError):
        SchrodingerProblem(3, free_lagrangian(3), gaussian_bump(3), 1.0)
    with pytest.raises(ValueError):
        SchrodingerProblem(1, free_lagrangian(2), gaussian_bump(1), 1.0)
    with pytest.raises(ValueError):
        SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1), -1.0)


def test_grid_validation_and_geometry():
    with pytest.raises(ValueError):
        SpaceGrid(1, 8.0, 256)  # even point count
    with pytest.raises(ValueError):
        SpaceGrid(1, -1.0, 257)
    grid = SpaceGrid(1, 2.0, 5)
    np.testing.assert_allclose(grid.axis, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert grid.spacing == 1.0
    grid2 = SpaceGrid(2, 1.0, 3)
    assert grid2.points().shape == (9, 2)


def test_gaussian_bump_evaluates_as_advertised():
    f0 = gaussian_bump(1, amplitude=2.0, center=0.5, sigma=0.7)
    x = np.array([[0.1], [0.9]])
    expected = 2.0 * np.exp(-((x[:, 0] - 0.5) ** 2) / (2 * 0.49))
    np.testing.assert_allclose(f0.evaluator(x), expected, rtol=1e-12)
    assert f0.gaussian_data is not None


def test_gaussian_initial_data_validation():
    with pytest.raises(ValueError):
        GaussianInitialData(quad=np.array([[1.0, 0.3], [0.0, 1.0]]), lin=np.zeros(2))
    with pytest.raises(ValueError):
        GaussianInitialData(quad=np.eye(2), lin=np.zeros(3))


# ---------------------------------------------------------------------------
# PDE reference solver


def test_pde_free_euclidean_matches_heat_convolution():
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1, sigma=0.5), 0.25)
    grid = SpaceGrid(1, 8.0, 257)
    res = pde_solve(p, grid, make_lattice(256, 0.25, 1), EUCLID)
    ref = heat_evolved_gaussian(1.0, 0.0, 0.5, 1.0, 0.25, grid.axis)
    assert _l2_rel(res.values, ref) <= 1e-3
    assert res.error_estimate <= 1e-6


def test_pde_constant_initial_data_stays_one_in_the_interior():
    p = SchrodingerProblem(1, free_lagrangian(1), constant_initial_condition(1), 0.25)
    grid = SpaceGrid(1, 8.0, 257)
    with pytest.warns(UserWarning):
        res = pde_solve(p, grid, make_lattice(128, 0.25, 1), EUCLID)
    interior = np.abs(grid.axis) <= 4.0
    assert np.max(np.abs(res.values[interior] - 1.0)) <= 1e-6


def test_pde_harmonic_ground_state_decays_at_its_eigenvalue():
    grid = SpaceGrid(1, 8.0, 257)
    axis = grid.axis
    energy, vec = discrete_ground_state(axis[1:-1], grid.spacing, 1.0, 0.5 * axis[1:-1] ** 2)
    full = np.zeros(axis.size)
    full[1:-1] = vec
    f0 = InitialCondition(
        evaluator=lambda x: np.interp(np.real(np.atleast_2d(x)[:, 0]), axis, full),
        label="discrete ground state",
    )
    p = SchrodingerProblem(1, harmonic_lagrangian(1), f0, 0.5)
    res = pde_solve(p, grid, make_lattice(256, 0.5, 1), EUCLID)
    assert energy == pytest.approx(0.5, abs=2e-3)
    np.testing.assert_allclose(res.values, np.exp(-energy * 0.5) * full, atol=1e-4)


def test_pde_two_dimensional_free_evolution():
    p = SchrodingerProblem(2, free_lagrangian(2), gaussian_bump(2, sigma=1.0), 0.2)
    grid = SpaceGrid(2, 6.0, 81)
    res = pde_solve(p, grid, make_lattice(64, 0.2, 2), EUCLID)
    pts = grid.points()
    ref = heat_evolved_gaussian(1.0, 0.0, 1.0, 1.0, 0.2, pts[:, 0]) * heat_evolved_gaussian(
        1.0, 0.0, 1.0, 1.0, 0.2, pts[:, 1]
    )
    assert _l2_rel(res.values.reshape(-1), ref) <= 2e-3


def test_pde_real_time_free_matches_dispersive_closed_form():
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1, sigma=1.0), 0.5)
    grid = SpaceGrid(1, 10.0, 401)
    res = pde_solve(p, grid, make_lattice(256, 0.5, 1), REAL)
    ref = fresnel_evolved_gaussian(1.0, 0.0, 1.0, 1.0, 0.5, grid.axis)
    assert _l2_rel(res.values, ref) <= 1e-3


def test_pde_guards():
    p2 = SchrodingerProblem(2, free_lagrangian(2), gaussian_bump(2), 0.2)
    with pytest.raises(ValueError):
        pde_solve(p2, SpaceGrid(2, 6.0, 41), make_lattice(16, 0.2, 2), REAL)
    p1 = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1), 0.2)
    with pytest.raises(ValueError):
        pde_solve(p1, SpaceGrid(1, 6.0, 41), make_lattice(16, 0.3, 1), EUCLID)


# ---------------------------------------------------------------------------
# path-integral Monte Carlo


def test_mc_free_matches_heat_closed_form():
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1, sigma=0.5), 0.25)
    lat = make_lattice(8, 0.25, 1)
    est = feynman_mc(p, [0.3], lat, QuadratureSpec("monte_carlo", 200_000, seed=2))
    ref = heat_evolved_gaussian(1.0, 0.0, 0.5, 1.0, 0.25, 0.3)
    assert abs(est.value - ref) <= 3.0 * est.std_error


def test_mc_constant_data_free_weight_is_exactly_one():
    p = SchrodingerProblem(1, free_lagrangian(1), constant_initial_condition(1), 0.5)
    est = feynman_mc(p, [0.0], make_lattice(4, 0.5, 1), QuadratureSpec("monte_carlo", 1000, seed=0))
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_mc_harmonic_agrees_with_pde():
    p = SchrodingerProblem(1, harmonic_lagrangian(1), gaussian_bump(1, sigma=1.0), 0.5)
    grid = SpaceGrid(1, 8.0, 257)
    pde = pde_solve(p, grid, make_lattice(64, 0.5, 1), EUCLID)
    ref = np.interp(0.0, grid.axis, np.real(pde.values))
    est = feynman_mc(p, [0.0], make_lattice(64, 0.5, 1), QuadratureSpec("monte_carlo", 200_000, seed=3))
    assert abs(est.value - ref) <= 3.0 * est.std_error + 1e-3


def test_mc_is_deterministic_per_seed_and_workers():
    p = SchrodingerProblem(1, harmonic_lagrangian(1), gaussian_bump(1), 0.5)
    lat = make_lattice(16, 0.5, 1)
    mc = QuadratureSpec("monte_carlo", 20_000, seed=5, workers=3)
    a = feynman_mc(p, [0.2], lat, mc)
    b = feynman_mc(p, [0.2], lat, mc)
    assert a.value == b.value and a.std_error == b.std_error


@pytest.mark.parametrize("dim_q", [1, 2])
def test_each_probe_column_of_the_kernel_is_a_one_probe_call(dim_q):
    p = SchrodingerProblem(dim_q, quartic_lagrangian(dim_q), gaussian_bump(dim_q, sigma=0.8), 0.5)
    lat = make_lattice(8, 0.5, dim_q)
    points = [np.full(dim_q, q) for q in (-1.0, 0.0, 0.4)]
    mc = QuadratureSpec("monte_carlo", 3000, seed=4, workers=2)
    columns = _sliced_kernel(p, lat, points, EUCLID, mc)
    assert columns == [feynman_mc(p, q, lat, mc) for q in points]
    if dim_q == 1:
        p = replace(p, lagrangian=harmonic_lagrangian(1))
        lat = make_lattice(2, 0.5, 1)
        gh = QuadratureSpec("gauss_hermite", _OSCILLATORY_GH_ORDER)
        pairs = _sliced_kernel(p, lat, points, REAL, gh)
        values = [complex(re.value, im.value) for re, im in zip(pairs[::2], pairs[1::2])]
        assert values == [oscillatory_check(p, q, lat) for q in points]


def test_mc_guards():
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1), 0.5)
    with pytest.raises(ValueError):
        feynman_mc(p, [0.0], make_lattice(8, 0.5, 1), QuadratureSpec("gauss_hermite", 6))
    with pytest.raises(ValueError):
        feynman_mc(p, [0.0], make_lattice(8, 0.4, 1), QuadratureSpec("monte_carlo", 100))


# ---------------------------------------------------------------------------
# Gaussian closed form


def test_exact_gaussian_free_matches_heat_convolution():
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1, sigma=0.5), 0.25)
    value = exact_gaussian_propagator(p, [0.3], make_lattice(64, 0.25, 1))
    ref = heat_evolved_gaussian(1.0, 0.0, 0.5, 1.0, 0.25, 0.3)
    assert abs(value - ref) <= 1e-10
    assert abs(np.imag(value)) <= 1e-14


def test_exact_gaussian_free_matches_heat_convolution_with_a_kinetic_matrix():
    # dim_q = 2 and B != I exercise the closed-form log det of the path precision
    b = np.array([[2.0, 0.3], [0.3, 1.0]])
    lag = replace(free_lagrangian(2), kinetic_matrix=b)
    p = SchrodingerProblem(2, lag, gaussian_bump(2, sigma=0.7), 0.4)
    q = np.array([0.3, -0.2])
    value = exact_gaussian_propagator(p, q, make_lattice(16, 0.4, 2))
    cov = 0.49 * np.eye(2) + 0.4 * np.linalg.inv(b)
    ref = 0.49 * np.exp(-0.5 * q @ np.linalg.solve(cov, q)) / np.sqrt(np.linalg.det(cov))
    assert abs(value - ref) <= 1e-12


def test_exact_gaussian_polynomial_factor_against_quadrature():
    data = GaussianInitialData(
        quad=np.array([[1.0]]),
        lin=np.array([0.2]),
        const=-0.1,
        poly0=0.5,
        poly1=np.array([0.3]),
        poly2=np.array([[0.2]]),
    )
    f0 = InitialCondition(evaluator=data.evaluate, gaussian_data=data)
    p = SchrodingerProblem(1, free_lagrangian(1), f0, 0.4)
    value = exact_gaussian_propagator(p, [0.3], make_lattice(64, 0.4, 1))

    def integrand(y):
        kernel = np.exp(-y * y / 0.8) / np.sqrt(0.8 * np.pi)
        return kernel * np.real(data.evaluate(np.array([[0.3 + y]]))[0])

    ref = quad(integrand, -30.0, 30.0, epsabs=1e-13)[0]
    assert abs(value - ref) <= 1e-10


@pytest.mark.parametrize("q_point", [0.0, 0.3, 1.0])
def test_exact_gaussian_harmonic_richardson_in_step_count(q_point):
    p = SchrodingerProblem(1, harmonic_lagrangian(1), gaussian_bump(1, sigma=1.0), 0.5)
    u64 = exact_gaussian_propagator(p, [q_point], make_lattice(64, 0.5, 1))
    u128 = exact_gaussian_propagator(p, [q_point], make_lattice(128, 0.5, 1))
    extrapolated = 2.0 * u128 - u64
    ref = oscillator_kernel_value(q_point, 0.5, lambda y: np.exp(-0.5 * y * y))
    assert abs(extrapolated - ref) <= 1e-4
    # the extrapolation must actually beat the finer plain value
    assert abs(extrapolated - ref) < abs(u128 - ref)


def test_exact_gaussian_agrees_with_mc_for_tilted_harmonic():
    from logmeasure import Lagrangian, QuadraticEta

    quad_eta = QuadraticEta(matrix=np.array([[0.8]]), linear=np.array([0.3]), constant=0.1)
    lag = Lagrangian(
        dim_q=1,
        eta=lambda q, v: 0.4 * np.atleast_2d(q)[:, 0] ** 2 + 0.3 * np.atleast_2d(q)[:, 0] + 0.1,
        eta_d1=lambda q, v: 0.8 * np.atleast_2d(q) + 0.3,
        quadratic_eta=quad_eta,
        label="tilted",
    )
    p = SchrodingerProblem(1, lag, gaussian_bump(1, sigma=0.8), 0.5)
    lat = make_lattice(48, 0.5, 1)
    closed = exact_gaussian_propagator(p, [0.2], lat)
    est = feynman_mc(p, [0.2], lat, QuadratureSpec("monte_carlo", 400_000, seed=7))
    assert abs(np.real(closed) - est.value) <= 3.0 * est.std_error + 1e-4


def test_exact_gaussian_guards():
    p = SchrodingerProblem(1, quartic_lagrangian(1), gaussian_bump(1), 0.5)
    with pytest.raises(ValueError):
        exact_gaussian_propagator(p, [0.0], make_lattice(8, 0.5, 1))
    p2 = SchrodingerProblem(1, free_lagrangian(1), constant_initial_condition(1), 0.5)
    with pytest.raises(ValueError):
        exact_gaussian_propagator(p2, [0.0], make_lattice(8, 0.5, 1))


def _polynomial_bump(dim_q):
    data = GaussianInitialData(
        quad=np.eye(dim_q) / 0.64,
        lin=np.full(dim_q, 0.2),
        const=-0.1,
        poly0=0.5,
        poly1=np.full(dim_q, 0.3),
        poly2=0.2 * np.eye(dim_q),
    )
    return InitialCondition(evaluator=data.evaluate, gaussian_data=data)


@pytest.mark.parametrize(
    "dim_q, f0",
    [(1, gaussian_bump(1, sigma=0.8)), (2, gaussian_bump(2, sigma=0.8)), (2, _polynomial_bump(2))],
    ids=["1d", "2d", "2d_poly2"],
)
def test_exact_gaussian_batch_is_bitwise_the_one_point_calls(dim_q, f0):
    p = SchrodingerProblem(dim_q, harmonic_lagrangian(dim_q, kinetic_scale=1.5), f0, 0.5)
    lat = make_lattice(16, 0.5, dim_q)
    points = np.random.default_rng(3).normal(size=(6, dim_q))
    batch = exact_gaussian_propagator(p, points, lat)
    assert batch.shape == (6,) and batch.dtype == complex
    assert batch.tobytes() == np.array([exact_gaussian_propagator(p, q, lat) for q in points]).tobytes()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    omega=st.floats(0.1, 3.0),
    kinetic_scale=st.floats(0.2, 5.0),
    n_steps=st.integers(1, 24),
    points=arrays(float, st.tuples(st.integers(1, 5), st.just(1)), elements=st.floats(-3.0, 3.0)),
)
def test_exact_gaussian_batch_matches_points_for_random_problems(omega, kinetic_scale, n_steps, points):
    lag = harmonic_lagrangian(1, omega=omega, kinetic_scale=kinetic_scale)
    p = SchrodingerProblem(1, lag, gaussian_bump(1, sigma=0.8), 0.5)
    lat = make_lattice(n_steps, 0.5, 1)
    batch = exact_gaussian_propagator(p, points, lat)
    assert batch.tobytes() == np.array([exact_gaussian_propagator(p, q, lat) for q in points]).tobytes()


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4])
def test_oscillatory_batch_is_bitwise_the_one_point_calls(n_steps):
    p = SchrodingerProblem(1, harmonic_lagrangian(1), gaussian_bump(1, sigma=0.8), 0.5)
    lat = make_lattice(n_steps, 0.5, 1)
    points = np.array([[-1.0], [0.0], [0.4], [0.9]])
    batch = oscillatory_check(p, points, lat)
    assert batch.tobytes() == np.array([oscillatory_check(p, q, lat) for q in points]).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_feynman_mc_batch_is_bitwise_the_one_point_calls(workers):
    p = SchrodingerProblem(2, quartic_lagrangian(2), gaussian_bump(2, sigma=0.8), 0.5)
    lat = make_lattice(8, 0.5, 2)
    points = np.array([[-1.0, 0.5], [0.0, 0.0], [0.4, -0.3]])
    mc = QuadratureSpec("monte_carlo", 3000, seed=4, workers=workers)
    assert feynman_mc(p, points, lat, mc) == [feynman_mc(p, q, lat, mc) for q in points]


def test_a_probe_batch_of_the_wrong_width_raises():
    p = SchrodingerProblem(2, harmonic_lagrangian(2), gaussian_bump(2), 0.5)
    lat = make_lattice(4, 0.5, 2)
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        exact_gaussian_propagator(p, np.zeros((3, 1)), lat)
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        feynman_mc(p, np.zeros((3, 3)), lat, QuadratureSpec("monte_carlo", 100))
    p1 = SchrodingerProblem(1, harmonic_lagrangian(1), gaussian_bump(1), 0.5)
    with pytest.raises(ValueError, match=r"shape \(n, 1\)"):
        oscillatory_check(p1, np.zeros((3, 2)), make_lattice(2, 0.5, 1))


def test_free_evolution_closed_form_both_modes():
    assert free_evolution_closed_form(1.0, 0.0, 0.5, 1.0, 0.25, 0.7, EUCLID) == pytest.approx(
        heat_evolved_gaussian(1.0, 0.0, 0.5, 1.0, 0.25, 0.7), rel=1e-13
    )
    value = free_evolution_closed_form(1.0, 0.0, 1.0, 1.0, 0.5, 0.3, REAL)
    ref = fresnel_evolved_gaussian(1.0, 0.0, 1.0, 1.0, 0.5, 0.3)
    assert abs(value - ref) <= 1e-13


# ---------------------------------------------------------------------------
# oscillatory quadrature


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4])
def test_oscillatory_free_matches_closed_form(n_steps):
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1, sigma=1.0), 0.5)
    for q_point in (0.0, 0.4):
        value = oscillatory_check(p, [q_point], make_lattice(n_steps, 0.5, 1))
        ref = fresnel_evolved_gaussian(1.0, 0.0, 1.0, 1.0, 0.5, q_point)
        assert abs(value - ref) <= 1e-10


def test_oscillatory_even_symmetry():
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1, sigma=1.0), 0.5)
    lat = make_lattice(1, 0.5, 1)
    plus = oscillatory_check(p, [0.6], lat)
    minus = oscillatory_check(p, [-0.6], lat)
    assert abs(plus - minus) <= 1e-8


def test_oscillatory_two_steps_compose_the_free_semigroup():
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1, sigma=1.0), 0.5)
    two = oscillatory_check(p, [0.3], make_lattice(2, 0.5, 1))
    one = oscillatory_check(p, [0.3], make_lattice(1, 0.5, 1))
    ref = fresnel_evolved_gaussian(1.0, 0.0, 1.0, 1.0, 0.5, 0.3)
    assert abs(two - ref) <= 1e-6
    assert abs(two - one) <= 1e-6


def test_oscillatory_guards():
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1), 0.5)
    with pytest.raises(ValueError):
        oscillatory_check(p, [0.0], make_lattice(7, 0.5, 1))


def test_oscillatory_rejects_non_quadratic_eta():
    # the rotated quartic integral diverges, so no quadrature order converges
    p = SchrodingerProblem(1, quartic_lagrangian(1), gaussian_bump(1), 0.5)
    with pytest.raises(ValueError, match="quadratic eta"):
        oscillatory_check(p, [0.5], make_lattice(2, 0.5, 1))


def test_import_does_not_load_scipy_integrate():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, logmeasure; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# anomaly experiment


def _scan_lattice():
    return make_lattice(16, 1.0, 1)


def test_anomaly_scaling_free_versus_harmonic():
    harmonic = harmonic_lagrangian(1)
    report = anomaly_experiment(
        family=scaling_family(16),
        lagrangians=[free_lagrangian(1), harmonic],
        lattice=_scan_lattice(),
        n_paths=4,
        seed=11,
        invariant_flags=[True, False],
    )
    assert report.passed
    for row in report.summand_rows:
        assert row.trace_term == 16.0
        if row.lagrangian_label == "free":
            assert row.eta_term == 0.0
    assert max(r.gap for r in report.duality_rows) <= 1e-6
    assert report.density_deviation["free"] > 1e-3
    assert report.density_deviation[harmonic.label] > 1e-3
    assert {a.name: a.tolerance for a in report.assertions} == {
        "trace_identical_across_lagrangians": 0.0,
        "eta_term_vanishes[free]": 1e-10,
        "trace_term_nonzero": 1e-8,
        "determinant_trace_duality": 1e-6,
        "weighted_density_noninvariant": 1e-3,
    }


def test_anomaly_trace_column_is_lagrangian_independent():
    report = anomaly_experiment(
        family=scaling_family(16),
        lagrangians=[harmonic_lagrangian(1), quartic_lagrangian(1)],
        lattice=_scan_lattice(),
        n_paths=3,
        seed=21,
    )
    by_label = {}
    for row in report.summand_rows:
        by_label.setdefault(row.lagrangian_label, []).append(row.trace_term)
    traces = list(by_label.values())
    assert traces[0] == traces[1]


def test_anomaly_rotation_control_has_no_trace_and_no_eta():
    lat = make_lattice(6, 1.0, 2)
    report = anomaly_experiment(
        family=pointwise_family(rotation_family(2), lat),
        lagrangians=[free_lagrangian(2), harmonic_lagrangian(2)],
        lattice=lat,
        n_paths=3,
        seed=5,
        invariant_flags=[True, True],
        expect_nonzero_trace=False,
        n_alpha=3,
        duality_grid=64,
    )
    assert report.passed
    names = [a.name for a in report.assertions]
    assert "trace_term_zero_control" in names
    assert "weighted_density_noninvariant" not in names


def test_anomaly_strict_raises_on_false_invariance_claim():
    with pytest.raises(AssertionError):
        anomaly_experiment(
            family=scaling_family(16),
            lagrangians=[free_lagrangian(1), harmonic_lagrangian(1)],
            lattice=_scan_lattice(),
            n_paths=2,
            seed=1,
            invariant_flags=[True, True],  # harmonic is not invariant
        )
    report = anomaly_experiment(
        family=scaling_family(16),
        lagrangians=[free_lagrangian(1), harmonic_lagrangian(1)],
        lattice=_scan_lattice(),
        n_paths=2,
        seed=1,
        invariant_flags=[True, True],
        strict=False,
    )
    assert not report.passed


def test_anomaly_real_time_mode_rotates_the_eta_term():
    harmonic = harmonic_lagrangian(1)
    report = anomaly_experiment(
        family=scaling_family(16),
        lagrangians=[free_lagrangian(1), harmonic],
        lattice=_scan_lattice(),
        n_paths=2,
        seed=2,
        mode=REAL,
        invariant_flags=[True, False],
    )
    assert report.passed
    harmonic_rows = [r for r in report.summand_rows if r.lagrangian_label == harmonic.label]
    assert all(np.real(r.eta_term) == 0.0 for r in harmonic_rows)
    assert any(np.imag(r.eta_term) != 0.0 for r in harmonic_rows)


def test_anomaly_requires_shared_kinetic_matrix_and_two_lagrangians():
    with pytest.raises(ValueError):
        anomaly_experiment(
            family=scaling_family(16),
            lagrangians=[free_lagrangian(1)],
            lattice=_scan_lattice(),
            n_paths=2,
            seed=0,
        )
    with pytest.raises(ValueError):
        anomaly_experiment(
            family=scaling_family(16),
            lagrangians=[free_lagrangian(1), free_lagrangian(1, kinetic_scale=2.0)],
            lattice=_scan_lattice(),
            n_paths=2,
            seed=0,
        )


def test_anomaly_rejects_duplicate_lagrangian_labels():
    with pytest.raises(ValueError, match="distinct"):
        anomaly_experiment(
            family=scaling_family(16),
            lagrangians=[harmonic_lagrangian(1), harmonic_lagrangian(1)],
            lattice=_scan_lattice(),
            n_paths=2,
            seed=0,
        )


def test_anomaly_is_deterministic():
    kwargs = dict(
        family=scaling_family(16),
        lagrangians=[free_lagrangian(1), harmonic_lagrangian(1)],
        lattice=_scan_lattice(),
        n_paths=3,
        seed=9,
        invariant_flags=[True, False],
    )
    a = anomaly_experiment(**kwargs)
    b = anomaly_experiment(**kwargs)
    assert a.summand_rows == b.summand_rows
    assert a.duality_rows == b.duality_rows
    assert a.density_deviation == b.density_deviation


def test_anomaly_scan_walks_each_trajectory_once():
    lat = _scan_lattice()
    base = scaling_family(16)
    calls = []

    def counted_eval(alpha, x):
        calls.append(alpha)
        return base.eval(alpha, x)

    n_alpha, duality_grid, density_grid = 3, 8, 5
    anomaly_experiment(
        family=replace(base, eval=counted_eval),
        lagrangians=[free_lagrangian(1), harmonic_lagrangian(1), quartic_lagrangian(1)],
        lattice=lat,
        n_paths=4,
        seed=3,
        invariant_flags=[True, False, False],
        n_alpha=n_alpha,
        duality_grid=duality_grid,
        density_grid=density_grid,
    )
    n_fine = n_alpha * -(-duality_grid // n_alpha)
    assert len(calls) == (2 * n_fine + 1) + (2 * density_grid + 1)


@pytest.mark.parametrize("mode", [EUCLID, REAL], ids=["euclidean", "real_time"])
@pytest.mark.parametrize(
    "builder",
    [
        lambda lat: scaling_family(lat.dim),
        lambda lat: pointwise_family(sine_flow_family(1, amplitude=0.3), lat),
    ],
    ids=["scaling", "pointwise_sine_flow"],
)
def test_free_lagrangian_density_is_the_gaussian_density_ode(builder, mode):
    lat = make_lattice(8, 1.0, 1)
    family = builder(lat)
    alpha_max, density_grid, n_paths, seed = 0.25, 16, 2, 4
    free = free_lagrangian(1)
    report = anomaly_experiment(
        family=family,
        lagrangians=[free, harmonic_lagrangian(1)],
        lattice=lat,
        n_paths=n_paths,
        seed=seed,
        mode=mode,
        alpha_max=alpha_max,
        n_alpha=2,
        duality_grid=16,
        density_grid=density_grid,
        strict=False,
    )
    m = wiener_measure(lat, free.kinetic_matrix)
    probe = sample(m, n_paths, seed)[0]
    curve = solve_density_ode(m, family, alpha_max, density_grid, probe)
    assert report.density_deviation[free.label] == abs(curve.values[-1] - 1.0)
