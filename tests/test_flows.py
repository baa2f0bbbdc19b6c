"""Transformation flows: generators, Jacobians, pushforward derivatives, densities."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import block_diag, expm

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
    sample,
    solve_density_ode,
    standard_normal,
    trace_integral_along_flow,
    wiener_measure,
)
from logmeasure.flows import _cumulative_trace_integral, _flow_points, _log_dets, _pushforward_density
from logmeasure.library import (
    pointwise_family,
    polynomial_pairs,
    rotation_family,
    scaling_family,
    shear_family,
    sine_flow_family,
    translation_family,
)

from _oracles import fd_jacobian, scaling_density_ratio, sine_flow_rk4, translation_density_ratio

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


def test_fd_generator_jacobian_without_alpha_jacobian_is_nested_differencing():
    # S(alpha) x = x + alpha sin x has no alpha_jacobian: h = -sin x and h' = -diag(cos x)
    fam = TransformationFamily(dim=3, eval=lambda alpha, x: x + alpha * np.sin(x), label="sine")
    h = generator(fam)
    pts = np.random.default_rng(4).normal(size=(6, 3))
    for x in pts:
        np.testing.assert_allclose(h.jacobian_at(x), -np.diag(np.cos(x)), rtol=0, atol=1e-4)
    np.testing.assert_allclose(h.divergence_batch(pts), -np.cos(pts).sum(axis=1), rtol=0, atol=1e-4)


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


# ---------------------------------------------------------------------------
# the sine flow against its ODE, and log dets over many alphas at once

# small, zero and negative alphas next to moderate ones
_SWEEP_ALPHAS = np.array([0.25, -0.3, 4.0 / 256.0, -0.01, 0.0, 0.1])


def _sine_case(name):
    """A flow-defined family, points to move, and its per-alpha oracle (points, Jacobians):
    the sine flow's ODE by RK4 at 4096 steps per unit alpha."""
    if name == "pointwise_sine_flow":
        lat = make_lattice(5, 1.0, 2)
        fam = pointwise_family(sine_flow_family(2, amplitude=0.3, wavenumber=1.5), lat)
        points = sample(wiener_measure(lat), 4, 9)

        def oracle(alpha, x):
            y, jac = sine_flow_rk4(alpha, np.reshape(x, (-1, 2)), 0.3, 1.5, steps_per_unit=4096)
            return y.reshape(np.shape(x)), np.stack([np.diag(j) for j in jac])

        return fam, points, oracle
    dim = {"sine_flow_1d": 1, "sine_flow_2d": 2}[name]
    fam = sine_flow_family(dim, amplitude=0.2, wavenumber=1.5)
    points = np.random.default_rng(dim).normal(scale=2.0, size=(4, dim))

    def oracle(alpha, x):
        y, jac = sine_flow_rk4(alpha, x, 0.2, 1.5, steps_per_unit=4096)
        return y, np.diag(jac)

    return fam, points, oracle


@pytest.mark.parametrize("n_points", [1, 4], ids=["one_point", "batch"])
@pytest.mark.parametrize("name", ["sine_flow_1d", "sine_flow_2d", "pointwise_sine_flow"])
def test_sweep_is_bytewise_the_per_alpha_calls(name, n_points):
    fam, points, oracle = _sine_case(name)
    xb = points[:n_points]
    moved = _flow_points(fam, _SWEEP_ALPHAS, xb)
    assert moved.shape == (len(_SWEEP_ALPHAS), n_points, fam.dim)
    # a pointwise family's Jacobian is its stack of (n_steps, dim_q, dim_q) diagonal blocks
    blocks = (5, 2, 2) if name == "pointwise_sine_flow" else (fam.dim, fam.dim)
    for i, alpha in enumerate(_SWEEP_ALPHAS):
        for j, x in enumerate(xb):
            reference_point, reference_jac = oracle(alpha, x)
            np.testing.assert_allclose(moved[i, j], reference_point, rtol=0.0, atol=1e-12)
            jac = fam.alpha_jacobian(alpha, x)
            assert jac.shape == blocks
            np.testing.assert_allclose(jac, reference_jac, rtol=1e-12, atol=0.0)
    for x in xb:
        per_alpha = np.array([jacobian_log_det(fam, alpha, x) for alpha in _SWEEP_ALPHAS])
        assert _log_dets(fam, _SWEEP_ALPHAS, x).tobytes() == per_alpha.tobytes()


def _reversing_family():
    """S(alpha) x = (1 + 2 alpha) x in 1-D: its Jacobian is negative at alpha -1 and -2
    (not at 0.1)."""
    return TransformationFamily(
        dim=1,
        eval=lambda alpha, x: (1.0 + 2.0 * alpha) * np.atleast_2d(x),
        alpha_jacobian=lambda alpha, x: np.array([[1.0 + 2.0 * alpha]]),
        label="reversing",
    )


def _collapsing_family():
    """S(alpha) x = (1 + alpha) x in 1-D with a closed-form log_det: -inf at alpha -1,
    NaN at -2 (finite at 0.1)."""

    def log_det(alphas, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(1.0 + np.asarray(alphas, dtype=float))[:, None] * np.ones(len(x))

    return TransformationFamily(
        dim=1, eval=lambda alpha, x: (1.0 + alpha) * np.atleast_2d(x), label="collapsing", log_det=log_det
    )


@pytest.mark.parametrize("builder", [_reversing_family, _collapsing_family], ids=["jacobian", "log_det"])
def test_log_dets_of_many_alphas_raise_at_the_first_singular_alpha(builder):
    fam = builder()
    x = np.array([3.0])
    with pytest.raises(SingularJacobianError) as per_alpha:
        [jacobian_log_det(fam, a, x) for a in (0.1, -1.0, -2.0)]
    with pytest.raises(SingularJacobianError) as at_once:
        _log_dets(fam, [0.1, -1.0, -2.0], x)
    assert "alpha=-1.0 " in str(at_once.value)
    assert str(at_once.value) == str(per_alpha.value)


@pytest.mark.parametrize("shape", [(3,), (2, 2)], ids=["wrong_length", "batch"])
@pytest.mark.parametrize(
    "fam",
    [scaling_family(2), sine_flow_family(2), pointwise_family(sine_flow_family(1), make_lattice(2, 1.0, 1))],
    ids=["scaling", "sine_flow", "pointwise_sine_flow"],
)
def test_log_dets_take_exactly_one_point(fam, shape):
    x = np.zeros(shape)
    with pytest.raises(ValueError, match=r"\(2,\)"):
        jacobian_log_det(fam, 0.1, x)
    with pytest.raises(ValueError, match=r"\(2,\)"):
        _log_dets(fam, [0.1, 0.2], x)


# ---------------------------------------------------------------------------
# block-diagonal Jacobians of path-lifted families


def test_a_lift_raises_at_a_reversing_node_block_though_the_dense_det_is_positive():
    # both node blocks reverse orientation at alpha -1 (the family of the test above),
    # so the dense determinant of the two-node lift is positive: only the blocks show it
    base = _reversing_family()
    fam = pointwise_family(base, make_lattice(2, 1.0, 1))
    x = np.array([3.0, 3.0])
    assert base.alpha_jacobian(-1.0, x[:1])[0, 0] < 0.0
    with pytest.raises(SingularJacobianError, match=r"alpha=-1\.0 "):
        jacobian_log_det(fam, -1.0, x)
    with pytest.raises(SingularJacobianError, match=r"alpha=-1\.0 "):
        _log_dets(fam, [0.1, -1.0, -2.0], x)


def _lift_case(name, n_steps):
    """A dim_q family to lift node by node, its lattice and a path point."""
    if name == "sine":
        base, dim_q = sine_flow_family(1, amplitude=0.3, wavenumber=1.5), 1
    elif name == "rotation":
        base, dim_q = rotation_family(2), 2
    else:  # non-diagonal 2 x 2 blocks with a non-zero log-det, and no analytic generator
        base, dim_q = _linear_flow(np.array([[0.3, 0.7], [-0.2, 0.5]])), 2
    lat = make_lattice(n_steps, 1.0, dim_q)
    return base, lat, np.random.default_rng(n_steps).normal(size=lat.dim)


_LIFT_CASES = [("sine", 64), ("sine", 256), ("rotation", 32), ("linear", 32)]


@pytest.mark.parametrize("name, n_steps", _LIFT_CASES)
def test_block_log_dets_match_the_dense_block_diagonal(name, n_steps):
    base, lat, x = _lift_case(name, n_steps)
    fam = pointwise_family(base, lat)
    alphas = [0.2, -0.35, 0.5]
    blocks = np.stack([fam.alpha_jacobian(a, x) for a in alphas])
    assert blocks.shape == (3, lat.n_steps, lat.dim_q, lat.dim_q)
    signs, reference = np.array([np.linalg.slogdet(block_diag(*b)) for b in blocks]).T
    assert np.all(signs == 1.0)
    # a rotation's log-det is 0, so its entries are held to the rounding of n_steps blocks
    tolerances = {"rtol": 1e-13, "atol": 1e-15 * n_steps}
    np.testing.assert_allclose(_log_dets(fam, alphas, x), reference, **tolerances)
    per_alpha = [jacobian_log_det(fam, a, x) for a in alphas]
    np.testing.assert_allclose(per_alpha, reference, **tolerances)


@pytest.mark.parametrize("name, n_steps", _LIFT_CASES)
def test_lifted_generator_jacobians_are_the_dense_block_diagonal(name, n_steps):
    base, lat, x = _lift_case(name, n_steps)
    # the finite-difference generator of a lift without an analytic one: the central
    # difference of the dense alpha Jacobians, and its trace as the divergence
    fam = pointwise_family(replace(base, generator_field=None), lat)
    h = generator(fam)
    step = 1e-5 * (1.0 + np.linalg.norm(x))
    hi, lo = (block_diag(*fam.alpha_jacobian(a, x)) for a in (step, -step))
    dense = -(hi - lo) / (2.0 * step)
    np.testing.assert_array_equal(h.jacobian_at(x), dense)
    np.testing.assert_array_equal(h.divergence_batch(x), [np.trace(dense)])
    if base.generator_field is not None:
        analytic = family_generator(pointwise_family(base, lat))
        nodes = x.reshape(lat.n_steps, lat.dim_q)
        dense = block_diag(*(base.generator_field.jacobian_at(node) for node in nodes))
        np.testing.assert_array_equal(analytic.jacobian_at(x), dense)
        np.testing.assert_allclose(h.divergence_batch(x), analytic.divergence_batch(x), atol=1e-6)


def test_log_dets_of_a_long_lifted_path_hold_no_dense_jacobian():
    lat = make_lattice(1024, 1.0, 1)
    fam = pointwise_family(sine_flow_family(1), lat)
    x = np.random.default_rng(0).normal(size=lat.dim)
    alphas = np.linspace(0.0, 0.5, 6)[1:]
    tracemalloc.start()
    try:
        log_dets = _log_dets(fam, alphas, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(log_dets))
    # one dense (1024, 1024) Jacobian alone is 8 MiB
    assert peak < 2**20


def test_jacobian_log_det_of_a_lift_takes_one_base_sweep():
    # one base log_det call over every node, and no Jacobian
    base = sine_flow_family(1)
    calls = {"log_det": 0, "alpha_jacobian": 0}

    def counted(name):
        inner = getattr(base, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    counted_base = replace(base, log_det=counted("log_det"), alpha_jacobian=counted("alpha_jacobian"))
    fam = pointwise_family(counted_base, make_lattice(64, 1.0, 1))
    jacobian_log_det(fam, 0.3, np.random.default_rng(1).normal(size=64))
    assert calls == {"log_det": 1, "alpha_jacobian": 0}


def test_alpha_jacobian_of_a_lift_is_bytewise_the_per_node_blocks():
    base = sine_flow_family(1)
    fam = pointwise_family(base, make_lattice(64, 1.0, 1))
    x = np.random.default_rng(2).normal(size=64)
    blocks = fam.alpha_jacobian(0.3, x)
    per_node = np.stack([base.alpha_jacobian(0.3, node) for node in x.reshape(64, 1)])
    assert blocks.shape == per_node.shape and blocks.tobytes() == per_node.tobytes()


def test_a_large_sweep_holds_its_temporaries_in_blocks():
    fam = sine_flow_family(1)
    x = np.random.default_rng(0).normal(size=(32768, 1))
    for n_alphas in (16, 64):
        alphas = np.linspace(-4.0 / 256.0, 4.0 / 256.0, n_alphas)
        output = n_alphas * x.size * 8
        tracemalloc.start()
        try:
            points = _flow_points(fam, alphas, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points.shape == (n_alphas, 32768, 1)
        # the output is 4 or 16 MiB; one alpha at a time, the temporaries are those of one
        # eval call, where every (alpha, row) pair at once would take several times the output
        assert peak < output + 24 * 2**20
