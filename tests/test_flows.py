"""Transformation flows: generators, Jacobians, pushforward derivatives, densities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from logmeasure import (
    GaussianMeasure,
    QuadratureSpec,
    SingularJacobianError,
    TestFunction,
    TransformationFamily,
    family_generator,
    family_velocity,
    generator,
    jacobian_log_det,
    make_lattice,
    proposition1_check,
    pushforward_derivative,
    solve_density_ode,
    standard_normal,
    trace_integral_along_flow,
    wiener_measure,
)
from logmeasure.flows import _cumulative_trace_integral, _pushforward_density
from logmeasure.library import (
    pointwise_family,
    polynomial_pairs,
    rotation_family,
    scaling_family,
    shear_family,
    sine_flow_family,
    translation_family,
)

from _oracles import fd_jacobian, scaling_density_ratio, translation_density_ratio

GH = QuadratureSpec("gauss_hermite", 8)


def _linear_flow(a_mat):
    """S(alpha) = expm(alpha A), a genuine flow with analytic spatial Jacobian."""
    dim = a_mat.shape[0]
    return TransformationFamily(
        dim=dim,
        eval=lambda alpha, x: np.atleast_2d(x) @ expm(alpha * a_mat).T,
        alpha_jacobian=lambda alpha, x: expm(alpha * a_mat),
        label="linear flow",
    )


def _identity_family(dim):
    return translation_family(dim, np.zeros(dim))


def _coordinate_tf():
    return TestFunction(
        evaluator=lambda x: np.atleast_2d(x)[:, 0],
        gradient=lambda x: np.tile([1.0] + [0.0] * (np.atleast_2d(x).shape[1] - 1),
                                   (np.atleast_2d(x).shape[0], 1)),
        label="x0",
    )


# ---------------------------------------------------------------------------
# generators


def test_generator_of_translation_is_the_direction():
    k = np.array([2.0, -1.0])
    fam = translation_family(2, k)
    h = generator(fam)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(5, 2))
    np.testing.assert_allclose(h.eval(pts), np.tile(k, (5, 1)), atol=1e-9)
    np.testing.assert_allclose(h.jacobian_at(pts[0]), np.zeros((2, 2)), atol=1e-6)


def test_generator_of_scaling_is_minus_x():
    fam = scaling_family(2)
    h_fd = generator(fam)
    x = np.array([0.8, -0.3])
    np.testing.assert_allclose(h_fd.eval_at(x), -x, atol=1e-9)
    np.testing.assert_allclose(h_fd.jacobian_at(x), -np.eye(2), atol=1e-7)
    # the analytic generator shipped with the family is exact
    h = family_generator(fam)
    np.testing.assert_array_equal(h.eval_at(x), -x)
    np.testing.assert_array_equal(h.jacobian_at(x), -np.eye(2))


@pytest.mark.parametrize("fam", [scaling_family(2), rotation_family(2)], ids=["scaling", "rotation"])
def test_fd_generator_row_does_not_depend_on_its_batch(fam):
    h = generator(fam)
    row = np.array([[0.3, -0.2]])
    batch = np.array([[0.3, -0.2], [50.0, 40.0]])
    assert h.eval(row)[0].tobytes() == h.eval(batch)[0].tobytes()


def test_generator_of_identity_family_is_zero():
    h = generator(_identity_family(3))
    np.testing.assert_allclose(h.eval_at(np.array([1.0, 2.0, 3.0])), np.zeros(3), atol=1e-10)


def test_velocity_is_negated_generator():
    fam = scaling_family(2)
    x = np.array([0.5, 1.5])
    np.testing.assert_allclose(family_velocity(fam).eval_at(x), x, atol=1e-12)
    np.testing.assert_allclose(
        family_velocity(fam).eval_at(x), -family_generator(fam).eval_at(x), atol=1e-12
    )


# ---------------------------------------------------------------------------
# Jacobian log determinants


def test_jacobian_log_det_of_linear_flow_is_alpha_trace():
    a_mat = np.array([[0.3, 0.7], [-0.2, 0.5]])
    fam = _linear_flow(a_mat)
    x = np.array([0.4, -1.1])
    for alpha in (0.0, 0.2, -0.35, 1.0):
        assert jacobian_log_det(fam, alpha, x) == pytest.approx(
            alpha * np.trace(a_mat), abs=1e-10
        )


def test_jacobian_log_det_of_translation_is_zero():
    fam = translation_family(3)
    assert jacobian_log_det(fam, 0.4, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)


def test_jacobian_log_det_sine_perturbation_against_fd_oracle():
    # S(alpha) x = x + alpha sin(x): not a flow, Jacobian obtained by differencing
    fam = TransformationFamily(dim=2, eval=lambda a, x: np.atleast_2d(x) + a * np.sin(np.atleast_2d(x)))
    alpha, x = 0.1, np.array([0.3, 0.7])
    value = jacobian_log_det(fam, alpha, x)
    oracle_jac = fd_jacobian(lambda p: fam.apply(alpha, p), x, step=3e-6)
    _, oracle = np.linalg.slogdet(oracle_jac)
    assert value == pytest.approx(oracle, abs=1e-8)
    analytic = np.sum(np.log1p(alpha * np.cos(x)))
    assert value == pytest.approx(analytic, abs=1e-8)


def test_jacobian_log_det_raises_on_singular_map():
    collapse = TransformationFamily(
        dim=2,
        eval=lambda a, x: (1.0 - a) * np.atleast_2d(x),
        alpha_jacobian=lambda a, x: (1.0 - a) * np.eye(2),
    )
    with pytest.raises(SingularJacobianError):
        jacobian_log_det(collapse, 1.0, np.array([1.0, 1.0]))
    flip = TransformationFamily(
        dim=2,
        eval=lambda a, x: np.atleast_2d(x) * np.array([1.0 - 2.0 * a, 1.0]),
        alpha_jacobian=lambda a, x: np.diag([1.0 - 2.0 * a, 1.0]),
    )
    with pytest.raises(SingularJacobianError):
        jacobian_log_det(flip, 1.0, np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# pushforward derivatives


def test_pushforward_derivative_translation_of_coordinate():
    m = standard_normal(1)
    est = pushforward_derivative(m, translation_family(1, [1.0]), _coordinate_tf(), GH)
    assert est.value == pytest.approx(-1.0, abs=1e-9)


def test_pushforward_derivative_identity_family_is_zero():
    m = standard_normal(2)
    phi, _ = polynomial_pairs(2, count=1, seed=0)[0]
    est = pushforward_derivative(m, _identity_family(2), phi, GH)
    assert est.value == pytest.approx(0.0, abs=1e-10)


def test_pushforward_derivative_scaling_of_square():
    m = standard_normal(1)
    phi = TestFunction(
        evaluator=lambda x: np.atleast_2d(x)[:, 0] ** 2,
        gradient=lambda x: 2.0 * np.atleast_2d(x),
    )
    est = pushforward_derivative(m, scaling_family(1), phi, GH)
    assert est.value == pytest.approx(2.0, abs=1e-8)


def test_pushforward_derivative_depends_only_on_generator():
    # two parametrizations with equal generators but different curvature in alpha
    k = np.array([1.0, -0.5])
    w = np.array([0.3, 0.8])
    first = translation_family(2, k)
    second = TransformationFamily(
        dim=2, eval=lambda a, x: np.atleast_2d(x) - a * k + a * a * w
    )
    m = standard_normal(2)
    phi, _ = polynomial_pairs(2, count=1, seed=5)[0]
    one = pushforward_derivative(m, first, phi, GH)
    two = pushforward_derivative(m, second, phi, GH)
    assert one.value == pytest.approx(two.value, abs=1e-8)


# ---------------------------------------------------------------------------
# derivative versus generator pairing


def test_proposition1_translation_coordinate_sides():
    m = standard_normal(1)
    res = proposition1_check(m, translation_family(1, [1.0]), _coordinate_tf(), GH)
    assert res.lhs == pytest.approx(-1.0, abs=1e-9)
    assert res.rhs == pytest.approx(1.0, abs=1e-12)
    assert abs(res.residual) <= 1e-9
    assert res.std_error is None


def test_proposition1_identity_family_both_sides_vanish():
    m = standard_normal(2)
    phi, _ = polynomial_pairs(2, count=1, seed=6)[0]
    res = proposition1_check(m, _identity_family(2), phi, GH)
    assert res.lhs == pytest.approx(0.0, abs=1e-10)
    assert res.rhs == pytest.approx(0.0, abs=1e-12)


def test_proposition1_linear_flow_quadratic_observable():
    a_mat = np.array([[0.2, 0.6], [-0.4, 0.1]])
    fam = _linear_flow(a_mat)
    m = standard_normal(2)
    phi = TestFunction(
        evaluator=lambda x: np.einsum("ij,ij->i", np.atleast_2d(x), np.atleast_2d(x)),
        gradient=lambda x: 2.0 * np.atleast_2d(x),
    )
    res = proposition1_check(m, fam, phi, GH)
    assert abs(res.residual) <= 1e-8


@pytest.mark.parametrize(
    "family_builder",
    [translation_family, scaling_family],
    ids=["translation", "scaling"],
)
def test_proposition1_monte_carlo_high_dimension(family_builder):
    dim = 16
    m = standard_normal(dim)
    fam = family_builder(dim)
    phi, _ = polynomial_pairs(dim, count=1, seed=7)[0]
    mc = QuadratureSpec("monte_carlo", 200_000, seed=13, workers=2)
    res = proposition1_check(m, fam, phi, mc)
    assert res.std_error is not None
    assert abs(res.residual) <= 3.0 * res.std_error + 1e-6


# ---------------------------------------------------------------------------
# flow density ODE


def test_density_ode_scaling_matches_pushforward_ratio():
    m = standard_normal(1)
    curve = solve_density_ode(m, scaling_family(1), 0.5, 64, [1.0])
    oracle = scaling_density_ratio(np.eye(1), [1.0], curve.alphas)
    assert np.max(np.abs(curve.values - oracle)) <= 1e-6
    assert curve.values[0] == 1.0


def test_density_ode_translation_matches_pushforward_ratio():
    m = standard_normal(2)
    k = np.array([1.0, -0.5]) / np.sqrt(1.25)
    curve = solve_density_ode(m, translation_family(2, k), 0.5, 64, [0.2, 0.4])
    oracle = translation_density_ratio(np.zeros(2), np.eye(2), k, [0.2, 0.4], curve.alphas)
    assert np.max(np.abs(curve.values - oracle)) <= 1e-8


def test_density_ode_translation_on_wiener_measure():
    lat = make_lattice(3, 1.0, 1)
    m = wiener_measure(lat)
    k = np.array([0.5, 1.0, 1.5])
    probe = np.array([0.3, -0.2, 0.6])
    curve = solve_density_ode(m, translation_family(3, k), 0.4, 64, probe)
    oracle = translation_density_ratio(m.mean, m.covariance(), k, probe, curve.alphas)
    assert np.max(np.abs(curve.values - oracle)) <= 1e-8


def test_density_ode_identity_family_stays_one():
    m = standard_normal(2)
    curve = solve_density_ode(m, _identity_family(2), 0.5, 16, [0.3, 0.3])
    np.testing.assert_array_equal(curve.values, np.ones(17))


def test_density_ode_rotation_invariance():
    m = standard_normal(2)
    curve = solve_density_ode(m, rotation_family(2), 0.5, 32, [0.7, -0.2])
    assert np.max(np.abs(curve.values - 1.0)) <= 1e-8


def test_density_ode_convergence_order():
    m = standard_normal(1)
    exact = scaling_density_ratio(np.eye(1), [1.0], [0.5])[0]
    errors = []
    for n_grid in (8, 16):
        curve = solve_density_ode(m, scaling_family(1), 0.5, n_grid, [1.0])
        errors.append(abs(curve.values[-1] - exact))
    order = np.log2(errors[0] / errors[1])
    assert order >= 3.5


@st.composite
def _affine_flow_cases(draw):
    """A with ||A||_2 <= 1, SPD precision with eigenvalues in [0.5, 2], mean and probe in [-1, 1]."""
    dim = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    raw = draw(arrays(float, (dim, dim), elements=unit))
    a_mat = raw / max(1.0, float(np.linalg.norm(raw, 2)))
    basis, _ = np.linalg.qr(draw(arrays(float, (dim, dim), elements=unit)) + 2.0 * np.eye(dim))
    eigenvalues = draw(arrays(float, dim, elements=st.floats(0.5, 2.0)))
    precision = basis @ np.diag(eigenvalues) @ basis.T
    mean = draw(arrays(float, dim, elements=unit))
    probe = draw(arrays(float, dim, elements=unit))
    return a_mat, GaussianMeasure(dim, mean, 0.5 * (precision + precision.T)), probe


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(_affine_flow_cases())
def test_density_ode_matches_the_pushforward_oracle_for_affine_flows(case):
    a_mat, m, probe = case
    fam = _linear_flow(a_mat)
    curve = solve_density_ode(m, fam, 0.25, 64, probe)
    oracle = _pushforward_density(m, fam, curve.alphas, probe)
    np.testing.assert_allclose(curve.values, oracle, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize(
    "builder", [lambda: scaling_family(3), lambda: shear_family(3)], ids=["scaling", "shear"]
)
def test_pushforward_oracle_matches_the_density_ode_for_builtins(builder):
    fam = builder()
    m = GaussianMeasure(3, [0.2, -0.1, 0.3], [[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    probe = np.array([0.4, -0.6, 0.5])
    curve = solve_density_ode(m, fam, 0.5, 64, probe)
    oracle = _pushforward_density(m, fam, curve.alphas, probe)
    assert oracle[0] == 1.0
    np.testing.assert_allclose(curve.values, oracle, rtol=1e-6, atol=0.0)


# ---------------------------------------------------------------------------
# determinant-trace duality


def test_trace_integral_matches_log_det_for_scaling():
    fam = scaling_family(3)
    x = np.array([0.4, -0.6, 1.2])
    alpha = 0.25
    lhs = jacobian_log_det(fam, alpha, x)
    rhs = trace_integral_along_flow(fam, alpha, x)
    assert lhs == pytest.approx(3.0 * alpha, abs=1e-12)
    assert abs(lhs - rhs) <= 1e-10


def test_trace_integral_matches_log_det_for_sine_flow():
    fam = sine_flow_family(2, amplitude=0.1, wavenumber=1.0)
    x = np.array([0.3, 0.7])
    alpha = 0.25
    gap = abs(jacobian_log_det(fam, alpha, x) - trace_integral_along_flow(fam, alpha, x))
    assert gap <= 1e-8


@pytest.mark.parametrize(
    "builder",
    [
        lambda lat: scaling_family(lat.dim),
        lambda lat: shear_family(lat.dim),
        lambda lat: pointwise_family(sine_flow_family(1, amplitude=0.3), lat),
        lambda lat: _linear_flow(np.diag(np.linspace(-1.0, 1.0, lat.dim))),
    ],
    ids=["scaling", "shear", "pointwise_sine_flow", "fd_generator"],
)
def test_trace_integral_of_a_batch_is_bitwise_the_per_point_values(builder):
    lat = make_lattice(6, 1.0, 1)
    fam = builder(lat)
    paths = np.random.default_rng(4).normal(size=(5, lat.dim))
    batch = trace_integral_along_flow(fam, 0.25, paths, n_grid=32)
    assert batch.shape == (5,)
    for i, x in enumerate(paths):
        single = trace_integral_along_flow(fam, 0.25, x, n_grid=32)
        assert isinstance(single, float)
        assert batch[i] == single


@pytest.mark.parametrize(
    "builder",
    [
        lambda lat: scaling_family(lat.dim),
        lambda lat: pointwise_family(sine_flow_family(1, amplitude=0.3), lat),
    ],
    ids=["scaling", "pointwise_sine_flow"],
)
def test_cumulative_trace_integral_matches_a_per_alpha_call_at_every_grid_point(builder):
    lat = make_lattice(6, 1.0, 1)
    fam = builder(lat)
    paths = np.random.default_rng(7).normal(size=(3, lat.dim))
    step, n_grid = 0.3 / 12, 12
    cumulative = _cumulative_trace_integral(fam, step, n_grid, paths)
    assert cumulative.shape == (n_grid + 1, 3)
    for j in range(1, n_grid + 1):
        per_alpha = trace_integral_along_flow(fam, j * step, paths, n_grid=j)
        np.testing.assert_allclose(cumulative[j], per_alpha, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "builder",
    [
        lambda lat: scaling_family(lat.dim),
        lambda lat: pointwise_family(sine_flow_family(1, amplitude=0.3), lat),
        lambda lat: translation_family(lat.dim),
    ],
    ids=["scaling", "pointwise_sine_flow", "translation"],
)
def test_trace_integral_is_bitwise_the_interval_by_interval_simpson_loop(builder):
    lat = make_lattice(6, 1.0, 1)
    fam = builder(lat)
    paths = np.random.default_rng(8).normal(size=(3, lat.dim))
    alpha, n_grid = 0.25, 16
    step = alpha / n_grid
    nodes = [0.0] + [s for i in range(n_grid) for s in (i * step + 0.5 * step, i * step + step)]
    trace = [-family_generator(fam).divergence_batch(fam.apply(s, paths)) for s in nodes]
    total = np.zeros(len(paths))
    for i in range(n_grid):
        total += step / 6.0 * (trace[2 * i] + 4.0 * trace[2 * i + 1] + trace[2 * i + 2])
    # the sign bit too: a zero integral is +0.0
    assert trace_integral_along_flow(fam, alpha, paths, n_grid).tobytes() == total.tobytes()
