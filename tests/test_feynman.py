"""Cauchy-problem solvers: grid PDE, path Monte Carlo, closed forms, and the
oscillatory quadrature check, plus the anomaly experiment built on top."""

import functools
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad
from scipy.sparse.linalg import splu

from logmeasure import (
    GaussianInitialData,
    InitialCondition,
    Lagrangian,
    QuadraticEta,
    QuadratureSpec,
    SchrodingerProblem,
    SpaceGrid,
    WLogDerivativeMode,
    anomaly_experiment,
    cm_gram,
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
from logmeasure import feynman, measures
from logmeasure.feynman import (
    _OSCILLATORY_GH_ORDER,
    _boundary_mass_fraction,
    _check_lattice,
    _is_kronecker_sum,
    _isclose,
    _sliced_kernel,
    _spatial_operator,
)
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
    crank_nicolson_reference,
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


def test_lattice_horizon_check_is_numpys_isclose_at_the_boundary():
    t = 0.5
    edge = t + (1e-8 + 1e-5 * t)
    above = [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    below = [2.0 * t - v for v in above]
    values = [t, *above, *below, 0.0, -0.0, 1e-300, np.inf, -np.inf, np.nan]
    for a in values:
        for b in values:
            assert _isclose(float(a), float(b)) == bool(np.isclose(a, b)), (a, b)
    assert _isclose(np.inf, np.inf) and not _isclose(1.0, np.inf) and not _isclose(np.nan, np.nan)
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1), t)
    for inside in (above[0], below[0]):
        _check_lattice(p, make_lattice(4, inside, 1))
    for outside in (above[2], below[2]):
        with pytest.raises(ValueError, match="horizon"):
            _check_lattice(p, make_lattice(4, outside, 1))


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


_MIXED_KINETIC = np.array([[2.0, 0.3], [0.3, 1.0]])


def _radial_quartic():
    """eta(q) = |q|^4 in 2-D: quartic, and not a sum of one-axis terms."""

    def eta(q, v):
        q = np.atleast_2d(q)
        r2 = np.einsum("ij,ij->i", q, q)
        return r2 * r2

    def eta_d1(q, v):
        q = np.atleast_2d(q)
        return 4.0 * np.einsum("ij,ij->i", q, q)[:, None] * q

    return replace(quartic_lagrangian(2), eta=eta, eta_d1=eta_d1, label="radial quartic")


def _counted_splu(monkeypatch, allowed=True):
    """Route the splu that pde_solve imports through a list of its factors; allowed=False
    makes a call fail."""
    factors = []

    def counting_splu(*args, **kwargs):
        assert allowed, "splu called on the diagonalized route"
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return factors


def _counted_lapack(monkeypatch, *names):
    """Route the named LAPACK routines that feynman calls, numpy's bundled ones or scipy's where
    numpy bundles none, through a list of their names, one entry per call."""
    calls = []
    load = feynman._lapack

    def counted(name, routine):
        def call(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)

        return call

    def counting_load(name):
        routine = load(name)
        return counted(name, routine) if name in names and routine is not None else routine

    monkeypatch.setattr(feynman, "_lapack", counting_load)
    for name in names:
        monkeypatch.setattr(scipy.linalg.lapack, name, counted(name, getattr(scipy.linalg.lapack, name)))
    return calls


_ANISOTROPIC_KINETIC = np.diag([1.7, 0.6])


@pytest.mark.parametrize(
    "lagrangian, grid, n_steps, t_final, mode, factored",
    [
        (lambda: harmonic_lagrangian(1), SpaceGrid(1, 8.0, 257), 64, 0.5, EUCLID, True),
        (lambda: harmonic_lagrangian(1), SpaceGrid(1, 10.0, 2049), 1024, 0.5, REAL, True),
        (lambda: harmonic_lagrangian(2), SpaceGrid(2, 6.0, 81), 64, 0.5, EUCLID, False),
        (lambda: _quadratic_lagrangian(np.diag([1.0, 0.49]), np.array([0.3, -0.2]), 0.1, _ANISOTROPIC_KINETIC),
         SpaceGrid(2, 6.0, 81), 64, 0.5, EUCLID, False),
        (_radial_quartic, SpaceGrid(2, 6.0, 81), 64, 0.5, EUCLID, True),
        (lambda: quartic_lagrangian(2), SpaceGrid(2, 6.0, 81), 64, 0.5, EUCLID, True),
        (lambda: replace(free_lagrangian(2), kinetic_matrix=_MIXED_KINETIC), SpaceGrid(2, 6.0, 81), 64, 0.2,
         EUCLID, True),
        (lambda: _quadratic_lagrangian(np.array([[1.0, 0.2], [0.2, 0.49]]), np.array([0.3, -0.2]), 0.1,
                                       _ANISOTROPIC_KINETIC), SpaceGrid(2, 6.0, 81), 64, 0.5, EUCLID, True),
    ],
    ids=["1d_euclidean", "1d_real_time", "2d_harmonic", "2d_anisotropic_certified", "2d_quartic",
         "2d_separable_quartic", "2d_mixed_kinetic", "2d_offdiagonal_certificate"],
)
def test_pde_steps_match_the_two_matrix_crank_nicolson_loop(
    monkeypatch, lagrangian, grid, n_steps, t_final, mode, factored
):
    """Every route is the same scheme; a damped 2-D Kronecker sum (diagonal C, certified eta with a
    diagonal matrix) never factors, and every other problem factors exactly once: a 1-D one by
    numpy's bundled tridiagonal LU, a coupled 2-D one by the sparse LU."""
    lag = lagrangian()
    p = SchrodingerProblem(lag.dim_q, lag, gaussian_bump(lag.dim_q, sigma=1.0), t_final)
    lattice = make_lattice(n_steps, t_final, lag.dim_q)
    op, points = _spatial_operator(p, grid, mode)
    u0 = np.asarray(p.f0.evaluator(points), dtype=complex if mode is REAL else float)
    ref = crank_nicolson_reference(op, u0, lattice.dt, n_steps)
    bundled = lag.dim_q == 1 and feynman._lapack("dgttrf") is not None
    factors = _counted_splu(monkeypatch, allowed=factored and not bundled)
    tridiagonal = _counted_lapack(monkeypatch, "dgttrf", "zgttrf")
    values = pde_solve(p, grid, lattice, mode).values
    assert len(factors) + len(tridiagonal) == factored
    interior = values[(slice(1, -1),) * lag.dim_q].reshape(-1)
    assert np.max(np.abs(interior - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_pde_rejects_an_eta_that_disagrees_with_its_certificate():
    lag = replace(harmonic_lagrangian(2), quadratic_eta=QuadraticEta(np.diag([1.0, 1.0 + 1e-9]), np.zeros(2)))
    p = SchrodingerProblem(2, lag, gaussian_bump(2), 0.5)
    with pytest.raises(ValueError, match="certificate"):
        pde_solve(p, SpaceGrid(2, 6.0, 41), make_lattice(16, 0.5, 2), EUCLID)


@pytest.mark.parametrize("dim_q, t_final", [(1, 0.4), (2, 0.5)], ids=["1d_factored", "2d_diagonalized"])
def test_pde_diagonalized_route_rejects_a_singular_step_matrix(dim_q, t_final):
    """eta = -6 on the one interior node of a 3-point grid with h = 1 puts an eigenvalue of
    (dt/2) A at exactly 1 (A = -1 + 6 with dt = 0.4 in 1-D, -2 + 6 with dt = 1/2 in 2-D), so
    I - (dt/2) A is singular; both routes raise ValueError."""
    lag = _quadratic_lagrangian(np.zeros((dim_q, dim_q)), np.zeros(dim_q), -6.0, np.eye(dim_q))
    p = SchrodingerProblem(dim_q, lag, gaussian_bump(dim_q), t_final)
    assert _is_kronecker_sum(p, EUCLID) == (dim_q == 2)
    with pytest.raises(ValueError, match=r"I - \(dt/2\) A is singular on this grid and lattice"):
        pde_solve(p, SpaceGrid(dim_q, 1.0, 3), make_lattice(1, t_final, dim_q), EUCLID)


@pytest.mark.parametrize("dim_q, factored", [(1, True), (2, False)], ids=["1d_factored", "2d_diagonalized"])
def test_pde_rejects_non_finite_initial_data_with_the_count(dim_q, factored):
    bump = gaussian_bump(dim_q)

    def f0(x):
        x = np.atleast_2d(x)
        return np.where(np.all(x == 0.0, axis=1), np.nan, bump.evaluator(x))

    p = SchrodingerProblem(dim_q, harmonic_lagrangian(dim_q), InitialCondition(f0), 0.5)
    assert _is_kronecker_sum(p, EUCLID) == (not factored)
    with pytest.raises(ValueError, match="has 1 non-finite values"):
        pde_solve(p, SpaceGrid(dim_q, 6.0, 41), make_lattice(16, 0.5, dim_q), EUCLID)


def _explicit_operator(p, grid, mode):
    """The operator and interior mesh from per-dimension stencils: 0.5 c00 d2 in 1-D, and
    the three Kronecker terms c00 d2 x I + c11 I x d2 + 2 c01 d1 x d1 in 2-D."""
    c = np.linalg.inv(p.kinetic_matrix)
    n, h = grid.n_points - 2, grid.spacing
    off = np.ones(n - 1)
    d2 = sp.diags([off, np.full(n, -2.0), off], [-1, 0, 1], format="csr") / h**2
    d1 = sp.diags([-off, off], [-1, 1], format="csr") / (2.0 * h)
    eye = sp.identity(n, format="csr")
    axis = grid.axis[1:-1]
    if p.dim_q == 1:
        lap = 0.5 * c[0, 0] * d2
        points = axis.reshape(-1, 1)
    else:
        lap = 0.5 * (c[0, 0] * sp.kron(d2, eye) + c[1, 1] * sp.kron(eye, d2) + 2.0 * c[0, 1] * sp.kron(d1, d1))
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        points = np.stack([xx.reshape(-1), yy.reshape(-1)], axis=1)
    eta = sp.diags(p.eta_values(points))
    return (lap - eta if mode is EUCLID else 1j * (lap + eta)).tocsc(), points


@pytest.mark.parametrize("mode", [EUCLID, REAL], ids=["euclidean", "real_time"])
@pytest.mark.parametrize(
    "lagrangian, grid",
    [
        (lambda: harmonic_lagrangian(1, omega=0.7, kinetic_scale=1.7), SpaceGrid(1, 5.0, 41)),
        (lambda: replace(harmonic_lagrangian(2, omega=0.7), kinetic_matrix=_MIXED_KINETIC), SpaceGrid(2, 4.0, 17)),
    ],
    ids=["1d", "2d_mixed_kinetic"],
)
def test_spatial_operator_is_bitwise_the_explicit_stencils(lagrangian, grid, mode):
    lag = lagrangian()
    p = SchrodingerProblem(lag.dim_q, lag, gaussian_bump(lag.dim_q), 0.5)
    op, points = _spatial_operator(p, grid, mode)
    ref, ref_points = _explicit_operator(p, grid, mode)
    assert op.format == "csc" and op.dtype == ref.dtype
    for name in ("data", "indices", "indptr"):
        assert getattr(op, name).tobytes() == getattr(ref, name).tobytes(), name
    assert points.tobytes() == ref_points.tobytes()
    axis = grid.axis
    every = axis.reshape(-1, 1) if lag.dim_q == 1 else np.array([[x, y] for x in axis for y in axis])
    assert grid.points().tobytes() == every.tobytes()


def test_pde_factors_once_with_a_symmetric_ordering_that_halves_the_fill(monkeypatch):
    p = SchrodingerProblem(2, quartic_lagrangian(2), gaussian_bump(2, sigma=1.0), 0.5)
    grid = SpaceGrid(2, 8.0, 129)
    lattice = make_lattice(64, 0.5, 2)
    factors = _counted_splu(monkeypatch)
    pde_solve(p, grid, lattice, EUCLID)
    assert len(factors) == 1
    op, _ = _spatial_operator(p, grid, EUCLID)
    colamd = splu((sp.identity(op.shape[0], format="csc") - 0.5 * lattice.dt * op).tocsc())
    fill = factors[0].L.nnz + factors[0].U.nnz
    assert fill <= 0.6 * (colamd.L.nnz + colamd.U.nnz)


def test_pde_mixed_derivative_term_matches_the_gaussian_closed_form():
    """Free heat flow with C = B^{-1} non-diagonal: u(t, x) = det(S)^{-1/2}
    exp(-x^T S^{-1} x / 2), S = I + t C, for the unit Gaussian bump."""
    t = 0.2
    p = SchrodingerProblem(2, replace(free_lagrangian(2), kinetic_matrix=_MIXED_KINETIC),
                           gaussian_bump(2, sigma=1.0), t)
    grid = SpaceGrid(2, 6.0, 81)
    res = pde_solve(p, grid, make_lattice(64, t, 2), EUCLID)
    s_mat = np.eye(2) + t * np.linalg.inv(_MIXED_KINETIC)
    x = grid.points()
    ref = np.exp(-0.5 * np.einsum("ij,ij->i", x, x @ np.linalg.inv(s_mat))) / np.sqrt(np.linalg.det(s_mat))
    assert _l2_rel(res.values.reshape(-1), ref) <= 2e-3


@pytest.mark.parametrize("dim_q", [1, 2])
@pytest.mark.parametrize("n_points", [3, 5, 9])
def test_boundary_mass_counts_each_ring_point_once(dim_q, n_points):
    values = np.zeros((n_points,) * dim_q)
    values[(slice(1, -1),) * dim_q] = 1.0
    n_int = n_points - 2
    ring = n_int**dim_q - max(n_int - 2, 0) ** dim_q
    assert _boundary_mass_fraction(values, dim_q) == ring / n_int**dim_q

    p = SchrodingerProblem(dim_q, free_lagrangian(dim_q), gaussian_bump(dim_q), 0.2)
    with pytest.warns(UserWarning, match="boundary mass"):
        res = pde_solve(p, SpaceGrid(dim_q, 1.0, n_points), make_lattice(4, 0.2, dim_q), EUCLID)
    assert 0.0 <= res.error_estimate <= 1.0


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


def _quadratic_lagrangian(matrix, linear, constant, kinetic_matrix):
    qe = QuadraticEta(matrix=matrix, linear=linear, constant=constant)

    def eta(q, v):
        q = np.atleast_2d(q)
        return 0.5 * np.einsum("ij,ij->i", q, q @ qe.matrix) + q @ qe.linear + qe.constant

    return Lagrangian(
        dim_q=len(qe.linear),
        eta=eta,
        eta_d1=lambda q, v: np.atleast_2d(q) @ qe.matrix + qe.linear,
        kinetic_matrix=kinetic_matrix,
        quadratic_eta=qe,
        label="quadratic",
    )


def _dense_exact_reference(p, q, lat):
    """The exact route's Gaussian integral, built on the dense (n d)^2 path precision."""
    qe, data = p.lagrangian.quadratic_eta, p.f0.gaussian_data
    n, d, dt = lat.n_steps, lat.dim_q, lat.dt
    gram = cm_gram(lat, p.kinetic_matrix).matrix
    eta_slots = np.diag(np.r_[np.full(n - 1, dt), 0.0])
    last_slot = np.diag(np.r_[np.zeros(n - 1), 1.0])
    prec = gram + np.kron(eta_slots, qe.matrix) + np.kron(last_slot, data.quad)
    rhs = np.concatenate([np.tile(-dt * (qe.matrix @ q + qe.linear), n - 1), data.lin - data.quad @ q])
    const = (
        -n * dt * (0.5 * q @ qe.matrix @ q + qe.linear @ q + qe.constant)
        - 0.5 * q @ data.quad @ q
        + data.lin @ q
        + data.const
    )
    mu = np.linalg.solve(prec, rhs)
    cov_last = np.linalg.solve(prec, np.eye(n * d)[:, -d:])[-d:]
    mean_last = mu[-d:] + q
    poly = data.poly0 + data.poly1 @ mean_last + mean_last @ data.poly2 @ mean_last
    log_ratio = np.linalg.slogdet(gram)[1] - np.linalg.slogdet(prec)[1]
    return np.exp(0.5 * log_ratio + const + 0.5 * rhs @ mu) * (poly + np.sum(data.poly2 * cov_last))


@pytest.mark.parametrize("n_steps", [1, 2, 3, 16, 64])
@pytest.mark.parametrize("poly2", [False, True], ids=["bump", "poly2"])
@pytest.mark.parametrize("dim_q", [1, 2])
def test_exact_gaussian_matches_the_dense_path_precision(dim_q, poly2, n_steps):
    b = np.array([[1.5]]) if dim_q == 1 else np.array([[2.0, 0.3], [0.3, 1.0]])
    m = np.array([[0.8]]) if dim_q == 1 else np.array([[0.8, -0.2], [-0.2, 0.5]])
    lag = _quadratic_lagrangian(m, np.full(dim_q, 0.3), 0.1, b)
    f0 = _polynomial_bump(dim_q) if poly2 else gaussian_bump(dim_q, amplitude=1.3, center=0.2, sigma=0.8)
    p = SchrodingerProblem(dim_q, lag, f0, 0.5)
    lat = make_lattice(n_steps, 0.5, dim_q)
    points = np.random.default_rng(n_steps).normal(size=(4, dim_q))
    values = exact_gaussian_propagator(p, points, lat)
    ref = np.array([_dense_exact_reference(p, q, lat) for q in points])
    np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)


@st.composite
def _spd_2x2(draw, floor):
    a = draw(arrays(float, (2, 2), elements=st.floats(-1.5, 1.5)))
    return a @ a.T + floor * np.eye(2)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    b=_spd_2x2(0.2),
    m=_spd_2x2(0.0),
    n_steps=st.integers(1, 32),
    points=arrays(float, st.tuples(st.integers(1, 4), st.just(2)), elements=st.floats(-2.0, 2.0)),
)
def test_exact_gaussian_matches_the_dense_path_precision_for_random_problems(b, m, n_steps, points):
    lag = _quadratic_lagrangian(m, np.array([0.3, -0.1]), 0.1, b)
    p = SchrodingerProblem(2, lag, _polynomial_bump(2), 0.5)
    lat = make_lattice(n_steps, 0.5, 2)
    values = exact_gaussian_propagator(p, points, lat)
    ref = np.array([_dense_exact_reference(p, q, lat) for q in points])
    np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)


def test_exact_gaussian_at_4096_steps_matches_the_continuum_closed_form():
    p = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1, sigma=0.5), 0.25)
    value = exact_gaussian_propagator(p, [0.3], make_lattice(4096, 0.25, 1))
    ref = free_evolution_closed_form(1.0, 0.0, 0.5, 1.0, 0.25, 0.3, EUCLID)
    assert abs(value - ref) <= 1e-10 * abs(ref)


def test_exact_gaussian_at_4096_steps_never_forms_the_dense_matrix():
    # the band of a d = 2, 4096-step path precision is 4 x 8192 doubles (256 kB);
    # the dense matrix would be 8192^2 doubles (512 MB)
    p = SchrodingerProblem(2, harmonic_lagrangian(2), _polynomial_bump(2), 0.5)
    lat = make_lattice(4096, 0.5, 2)
    tracemalloc.start()
    try:
        value = exact_gaussian_propagator(p, np.array([[0.3, -0.2], [0.0, 0.1]]), lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(value))
    assert peak < 8 * 2**20


def test_exact_gaussian_raises_when_the_path_integral_diverges():
    # eta = -20 q^2 makes the path precision indefinite on this lattice
    lag = _quadratic_lagrangian(np.array([[-40.0]]), np.zeros(1), 0.0, np.eye(1))
    p = SchrodingerProblem(1, lag, gaussian_bump(1), 1.0)
    with pytest.raises(ValueError, match="path integral diverges"):
        exact_gaussian_propagator(p, np.array([[0.0], [0.5]]), make_lattice(16, 1.0, 1))


def test_exact_gaussian_raises_on_a_non_finite_precision_or_probe():
    lat = make_lattice(16, 0.5, 1)
    diverging = SchrodingerProblem(1, harmonic_lagrangian(1, omega=np.inf), gaussian_bump(1), 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        exact_gaussian_propagator(diverging, [0.0], lat)
    p = SchrodingerProblem(1, harmonic_lagrangian(1), gaussian_bump(1), 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        exact_gaussian_propagator(p, np.array([[0.0], [np.nan]]), lat)


def test_a_one_point_sweep_factors_once_and_its_warm_values_are_the_cold_values(monkeypatch):
    p = SchrodingerProblem(2, harmonic_lagrangian(2, kinetic_scale=1.5), _polynomial_bump(2), 0.5)
    lat = make_lattice(32, 0.5, 2)
    points = np.random.default_rng(5).normal(size=(16, 2))
    cold = []
    for q in points:
        feynman._gaussian_form.cache_clear()
        cold.append(exact_gaussian_propagator(p, q, lat))
    feynman._gaussian_form.cache_clear()
    calls = _counted_lapack(monkeypatch, "dpbtrf")
    warm = [exact_gaussian_propagator(p, q, lat) for q in points]
    assert len(calls) == 1
    assert np.array(warm).tobytes() == np.array(cold).tobytes()


def test_editing_the_problem_in_place_is_seen_by_the_next_call():
    # the cached forms are keyed by the arrays' values, not by the objects holding them
    p = SchrodingerProblem(2, harmonic_lagrangian(2), _polynomial_bump(2), 0.5)
    lat = make_lattice(16, 0.5, 2)
    q = np.array([0.3, -0.2])
    before = exact_gaussian_propagator(p, q, lat)
    p.f0.gaussian_data.quad[0, 1] = p.f0.gaussian_data.quad[1, 0] = 0.4
    p.kinetic_matrix[0, 0] = 2.0
    edited = exact_gaussian_propagator(p, q, lat)
    data = replace(_polynomial_bump(2).gaussian_data, quad=np.array([[1 / 0.64, 0.4], [0.4, 1 / 0.64]]))
    lag = replace(harmonic_lagrangian(2), kinetic_matrix=np.array([[2.0, 0.0], [0.0, 1.0]]))
    fresh = SchrodingerProblem(2, lag, InitialCondition(data.evaluate, data), 0.5)
    feynman._gaussian_form.cache_clear()
    assert edited != before
    assert np.array(edited).tobytes() == np.array(exact_gaussian_propagator(fresh, q, lat)).tobytes()


def test_a_diverging_path_integral_raises_on_every_call():
    lag = _quadratic_lagrangian(np.array([[-40.0]]), np.zeros(1), 0.0, np.eye(1))
    p = SchrodingerProblem(1, lag, gaussian_bump(1), 1.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="path integral diverges"):
            exact_gaussian_propagator(p, [0.0], make_lattice(16, 1.0, 1))


_BANDED_KINETIC = {1: np.array([[1.5]]), 2: np.array([[2.0, 0.3], [0.3, 0.5]])}  # a non-diagonal B in 2-D


@pytest.mark.parametrize("n_steps", [1, 2, 7, 64, 1024, 4096])
@pytest.mark.parametrize("dim_q", [1, 2])
def test_bundled_banded_cholesky_and_solve_are_bytewise_scipys(dim_q, n_steps):
    lat = make_lattice(n_steps, 0.5, dim_q)
    m_mat = np.array([[1.0, 0.2], [0.2, 0.49]])[:dim_q, :dim_q]
    band = feynman._path_precision_band(lat, _BANDED_KINETIC[dim_q], m_mat, np.eye(dim_q) / 0.64)
    rhs = np.random.default_rng(n_steps).normal(size=(n_steps * dim_q, 2 * dim_q + 1))
    chol, info = feynman._banded_cholesky(band)
    ref, ref_info = scipy.linalg.lapack.dpbtrf(band, lower=1)
    assert info == ref_info == 0
    assert chol.tobytes() == ref.tobytes() and chol.flags.f_contiguous == ref.flags.f_contiguous
    sol, ref_sol = feynman._banded_solve(chol, rhs), scipy.linalg.lapack.dpbtrs(ref, rhs, lower=1)[0]
    assert sol.tobytes() == ref_sol.tobytes() and sol.flags.f_contiguous == ref_sol.flags.f_contiguous


def test_the_bundled_banded_and_tridiagonal_routines_are_found_with_the_library():
    for name in ("dpbtrf", "dpbtrs", "dgttrf", "dgttrs", "zgttrf", "zgttrs"):
        assert (measures._openblas() is None) == (feynman._lapack(name) is None), name


@pytest.mark.parametrize("dim_q", [1, 2])
def test_without_the_bundled_lapack_the_exact_propagator_is_bytewise_the_same(monkeypatch, dim_q):
    lag = replace(harmonic_lagrangian(dim_q), kinetic_matrix=_BANDED_KINETIC[dim_q])
    p = SchrodingerProblem(dim_q, lag, _polynomial_bump(dim_q), 0.5)
    lat = make_lattice(64, 0.5, dim_q)
    points = np.random.default_rng(dim_q).normal(size=(8, dim_q))
    feynman._gaussian_form.cache_clear()
    bundled = exact_gaussian_propagator(p, points, lat)
    feynman._gaussian_form.cache_clear()
    monkeypatch.setattr(feynman, "_lapack", lambda name: None)
    calls = _counted_lapack(monkeypatch, "dpbtrf", "dpbtrs")
    fallback = exact_gaussian_propagator(p, points, lat)
    feynman._gaussian_form.cache_clear()
    assert calls == ["dpbtrf", "dpbtrs"]  # scipy's, once each
    assert fallback.tobytes() == bundled.tobytes()


@pytest.mark.parametrize("mode, grid, n_steps", [(EUCLID, SpaceGrid(1, 8.0, 257), 64),
                                                 (REAL, SpaceGrid(1, 10.0, 1025), 512)], ids=["euclidean", "real_time"])
def test_without_the_bundled_lapack_a_1d_solve_is_the_sparse_lu_loop(monkeypatch, mode, grid, n_steps):
    """The fallback is the sparse LU route, 2 M^-1 u - u per step, M = I - (dt/2) A; the bundled
    tridiagonal LU moves its values by rounding only."""
    p = SchrodingerProblem(1, harmonic_lagrangian(1), gaussian_bump(1, sigma=1.0), 0.5)
    lattice = make_lattice(n_steps, 0.5, 1)
    bundled = pde_solve(p, grid, lattice, mode).values
    monkeypatch.setattr(feynman, "_lapack", lambda name: None)
    factors = _counted_splu(monkeypatch)
    values = pde_solve(p, grid, lattice, mode).values
    assert len(factors) == 1
    op, points = _spatial_operator(p, grid, mode)
    u = np.asarray(p.f0.evaluator(points)).astype(float if mode is EUCLID else complex)
    backward = splu((sp.identity(op.shape[0], format="csc") - 0.5 * lattice.dt * op).tocsc(),
                    permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    for _ in range(n_steps):
        u = 2.0 * backward.solve(u) - u
    assert values[1:-1].tobytes() == u.tobytes()
    assert np.max(np.abs(bundled - values)) <= 1e-13 * np.max(np.abs(values))


def test_a_non_finite_probe_raises_when_the_coefficients_are_cached():
    p = SchrodingerProblem(1, harmonic_lagrangian(1), gaussian_bump(1), 0.5)
    lat = make_lattice(16, 0.5, 1)
    assert np.isfinite(exact_gaussian_propagator(p, [0.0], lat))
    with pytest.raises(ValueError, match="non-finite"):
        exact_gaussian_propagator(p, [np.nan], lat)
    with pytest.raises(ValueError, match="non-finite"):
        exact_gaussian_propagator(p, np.array([[0.0], [np.inf]]), lat)


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


# ---------------------------------------------------------------------------
# import graph: scipy.linalg, scipy.sparse and jsonschema load on first use

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DEFERRED = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "jsonschema")


@functools.cache
def _imported(*args: str) -> frozenset:
    """Every module a fresh interpreter imports while running args, read from -X importtime."""
    src = os.path.join(_REPO, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True, check=True
    )
    lines = out.stderr.splitlines()
    return frozenset(line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:"))


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.special", *_DEFERRED])
def test_import_does_not_load(module):
    assert module not in _imported("-c", "import logmeasure, logmeasure.cli")


def test_list_builtins_and_a_standard_normal_load_no_deferred_module():
    assert sorted(_imported("-m", "logmeasure", "list-builtins") & set(_DEFERRED)) == []
    code = ("import numpy as np, logmeasure as lm; "
            "assert lm.standard_normal(32)._chol_inv.tobytes() == np.eye(32).tobytes()")
    assert sorted(_imported("-c", code) & set(_DEFERRED)) == []


@pytest.mark.parametrize("call, module", [
    ("lat = lm.make_lattice(4, 0.2, 2); "
     "lag = dataclasses.replace(lm.free_lagrangian(2), kinetic_matrix=np.array([[2.0, 0.3], [0.3, 1.0]])); "
     "p = lm.SchrodingerProblem(2, lag, lm.gaussian_bump(2), 0.2); "
     "lm.pde_solve(p, lm.SpaceGrid(2, 4.0, 17), lat, lm.WLogDerivativeMode.EUCLIDEAN)", "scipy.sparse.linalg"),
], ids=["2d_mixed_kinetic_pde_solve"])
def test_each_deferred_import_runs_on_first_use(call, module):
    assert module in _imported("-c", f"import dataclasses, numpy as np, logmeasure as lm; {call}")


def _scipy_modules(modules: frozenset) -> list:
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


def test_one_dimensional_and_separable_solves_and_the_exact_propagator_load_no_scipy():
    # numpy's bundled LAPACK serves the tridiagonal LU, the banded Cholesky and the per-axis eigh
    code = (
        "import logmeasure as lm; E, R = lm.WLogDerivativeMode.EUCLIDEAN, lm.WLogDerivativeMode.REAL_TIME; "
        "p1 = lm.SchrodingerProblem(1, lm.harmonic_lagrangian(1), lm.gaussian_bump(1), 0.5); "
        "p2 = lm.SchrodingerProblem(2, lm.harmonic_lagrangian(2), lm.gaussian_bump(2), 0.5); "
        "lat1, lat2 = lm.make_lattice(8, 0.5, 1), lm.make_lattice(8, 0.5, 2); "
        "lm.pde_solve(p1, lm.SpaceGrid(1, 6.0, 41), lat1, E); lm.pde_solve(p1, lm.SpaceGrid(1, 6.0, 41), lat1, R); "
        "lm.pde_solve(p2, lm.SpaceGrid(2, 6.0, 17), lat2, E); "
        "lm.exact_gaussian_propagator(p1, [0.0], lat1); lm.exact_gaussian_propagator(p2, [0.0, 0.1], lat2)"
    )
    assert _scipy_modules(_imported("-c", code)) == []


def test_wiener_monte_carlo_gauss_hermite_and_anomaly_routes_load_no_scipy_linalg():
    # the field's Jacobian is given as diagonal blocks alone, so its divergence is their dense trace
    code = (
        "import numpy as np, logmeasure as lm; lat = lm.make_lattice(2, 1.0, 2); "
        "m = lm.wiener_measure(lat, np.array([[2.0, 0.3], [0.3, 0.5]])); lm.sample(m, 100, seed=1); "
        "phi = lm.TestFunction(lambda x: np.sin(x).sum(axis=1), np.cos); "
        "fam = lm.pointwise_family(lm.rotation_family(2), lat); "
        "h = lm.VectorField(4, fam.generator_field.eval, jacobian=fam.generator_field.jacobian); "
        "lm.ibp_residual(m, phi, h, lm.QuadratureSpec('monte_carlo', 2000)); "
        "lm.ibp_residual(m, phi, h, lm.QuadratureSpec('gauss_hermite', 4)); "
        "lm.anomaly_experiment(family=fam, lagrangians=[lm.free_lagrangian(2), lm.harmonic_lagrangian(2)], "
        "lattice=lat, n_paths=2, seed=1, expect_nonzero_trace=False, n_alpha=3, duality_grid=64)"
    )
    assert "scipy.linalg" not in _imported("-c", code)


@pytest.mark.parametrize("config", sorted(os.path.splitext(name)[0] for name in os.listdir(os.path.join(_REPO, "configs"))))
def test_no_shipped_config_run_loads_scipy(tmp_path, config):
    path = os.path.join(_REPO, "configs", f"{config}.json")
    assert _scipy_modules(_imported("-m", "logmeasure", "run", path, "--out", str(tmp_path))) == []


def test_a_run_loads_jsonschema(tmp_path):
    config = os.path.join(_REPO, "configs", "flow_density.json")
    assert "jsonschema" in _imported("-m", "logmeasure", "run", config, "--out", str(tmp_path))


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


def test_a_32_path_pointwise_sine_scan_at_1024_steps_passes_in_under_10_s():
    lat = make_lattice(1024, 1.0, 1)
    start = time.perf_counter()
    report = anomaly_experiment(
        family=pointwise_family(sine_flow_family(1), lat),
        lagrangians=[free_lagrangian(1), harmonic_lagrangian(1), quartic_lagrangian(1, coupling=0.5)],
        lattice=lat,
        n_paths=32,
        seed=0,
        invariant_flags=[True, False, False],
    )
    elapsed = time.perf_counter() - start
    assert report.assertions and all(a.passed for a in report.assertions)
    assert len(report.duality_rows) == 32 * 5
    assert elapsed < 10.0


@pytest.mark.parametrize("name, value", [("n_alpha", 0), ("duality_grid", 0), ("density_grid", -3)])
def test_anomaly_scan_rejects_a_grid_count_below_one(name, value):
    lat = _scan_lattice()
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        anomaly_experiment(
            family=scaling_family(lat.dim),
            lagrangians=[free_lagrangian(1), harmonic_lagrangian(1)],
            lattice=lat,
            n_paths=2,
            seed=0,
            **{name: value},
        )


def test_anomaly_scan_takes_one_log_det_call_per_path_and_no_jacobian():
    lat = _scan_lattice()
    base = pointwise_family(sine_flow_family(1, amplitude=0.3), lat)
    calls = {"eval": 0, "log_det": [], "alpha_jacobian": 0}

    def counted_eval(alpha, x):
        calls["eval"] += 1
        return base.eval(alpha, x)

    def counted_log_det(alphas, x):
        calls["log_det"].append(len(alphas))
        return base.log_det(alphas, x)

    def counted_alpha_jacobian(alpha, x):
        calls["alpha_jacobian"] += 1
        return base.alpha_jacobian(alpha, x)

    n_paths, n_alpha, duality_grid, density_grid = 3, 3, 8, 5
    anomaly_experiment(
        family=replace(
            base, eval=counted_eval, log_det=counted_log_det, alpha_jacobian=counted_alpha_jacobian
        ),
        lagrangians=[free_lagrangian(1), harmonic_lagrangian(1), quartic_lagrangian(1)],
        lattice=lat,
        n_paths=n_paths,
        seed=3,
        invariant_flags=[True, False, False],
        n_alpha=n_alpha,
        duality_grid=duality_grid,
        density_grid=density_grid,
    )
    n_fine = n_alpha * -(-duality_grid // n_alpha)
    # one eval per node of the trace trajectory and of the density trajectory
    assert calls["eval"] == (2 * n_fine + 1) + (2 * density_grid + 1)
    assert calls["log_det"] == [n_alpha] * n_paths
    assert calls["alpha_jacobian"] == 0


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
