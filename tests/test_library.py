"""Builtin Lagrangians, transformation families, and the registry lookups."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag

from logmeasure import family_generator, family_velocity, jacobian_log_det, make_lattice
from logmeasure.flows import _log_dets
from logmeasure.library import (
    free_lagrangian,
    harmonic_lagrangian,
    list_builtins_data,
    make_family,
    make_lagrangian,
    pointwise_family,
    polynomial_pairs,
    quartic_lagrangian,
    rotation_family,
    scaling_family,
    shear_family,
    sine_flow_family,
    translation_family,
)


def test_free_lagrangian_has_zero_eta_and_scaled_kinetic():
    lag = free_lagrangian(2, kinetic_scale=2.0)
    q = np.array([[1.0, 2.0]])
    assert lag.eta(q, q)[0] == 0.0
    np.testing.assert_array_equal(lag.kinetic_matrix, 2.0 * np.eye(2))
    assert lag.quadratic_eta is not None


def test_harmonic_lagrangian_values_and_gradient():
    lag = harmonic_lagrangian(2, omega=2.0)
    q = np.array([[1.0, -1.0]])
    assert lag.eta(q, np.zeros_like(q))[0] == pytest.approx(0.5 * 4.0 * 2.0)
    np.testing.assert_allclose(lag.eta_d1(q, np.zeros_like(q)), 4.0 * q)
    np.testing.assert_array_equal(lag.quadratic_eta.matrix, 4.0 * np.eye(2))


def test_quartic_lagrangian_has_no_gaussian_certificate():
    lag = quartic_lagrangian(1, coupling=0.3)
    q = np.array([[2.0]])
    assert lag.eta(q, q)[0] == pytest.approx(0.3 * 16.0)
    np.testing.assert_allclose(lag.eta_d1(q, q), [[0.3 * 32.0]])
    assert lag.quadratic_eta is None


def test_translation_family_default_direction_is_unit():
    fam = translation_family(4)
    h = family_generator(fam)
    k = h.eval_at(np.zeros(4))
    assert np.linalg.norm(k) == pytest.approx(1.0, rel=1e-12)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(fam.apply(0.5, x), x - 0.5 * k)


def test_scaling_family_is_exponential():
    fam = scaling_family(2)
    x = np.array([1.0, -2.0])
    np.testing.assert_allclose(fam.apply(0.3, x), np.exp(0.3) * x, rtol=1e-14)


def test_rotation_family_preserves_norms_and_plane_parameter():
    fam = rotation_family(3, plane=(0, 2))
    x = np.array([1.0, 0.5, -1.0])
    y = fam.apply(0.7, x)
    assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-12)
    assert y[1] == x[1]
    gen = family_generator(fam).jacobian_at(x)
    np.testing.assert_allclose(gen, -gen.T, atol=1e-12)
    assert np.trace(gen) == 0.0


def test_shear_family_is_affine_with_zero_divergence():
    fam = shear_family(3, strength=0.5)
    x = np.array([1.0, 2.0, 3.0])
    y = fam.apply(0.4, x)
    # S(alpha) = exp(alpha N) = I + alpha N + alpha^2 N^2 / 2 with N = strength * superdiagonal
    nx = 0.5 * np.array([2.0, 3.0, 0.0])
    n2x = 0.25 * np.array([3.0, 0.0, 0.0])
    np.testing.assert_allclose(y, x + 0.4 * nx + 0.4**2 * n2x / 2.0)
    vel = family_velocity(fam)
    assert vel.divergence_at(x) == 0.0


_FLOW_LAW_FAMILIES = {
    "translation": lambda: translation_family(3, [1.0, -0.5, 2.0]),
    "scaling": lambda: scaling_family(3),
    "rotation": lambda: rotation_family(3, (0, 2)),
    "shear_3": lambda: shear_family(3, strength=0.8),
    "shear_4": lambda: shear_family(4, strength=0.8),
    "sine_flow": lambda: sine_flow_family(2, amplitude=0.2, wavenumber=1.5),
    "pointwise_sine_flow": lambda: pointwise_family(sine_flow_family(1, 0.3, 1.5), make_lattice(6, 1.0, 1)),
}


@pytest.mark.parametrize("name", list(_FLOW_LAW_FAMILIES))
def test_builtin_flows_satisfy_the_group_property_and_the_log_det_cocycle(name):
    # S(a + b) = S(b) S(a), and log det S(a + b)(x) = log det S(b)(S(a) x) + log det S(a)(x),
    # on the Jacobian route (translation to shear) and the log_det route (sine)
    fam = _FLOW_LAW_FAMILIES[name]()
    x = np.linspace(-1.0, 1.5, fam.dim)
    for a, b in [(0.15, 0.1), (1.3, -2.0), (-1.7, 0.6)]:
        moved = fam.apply(a, x)
        np.testing.assert_allclose(fam.apply(b, moved), fam.apply(a + b, x), atol=1e-10)
        cocycle = _log_dets(fam, [b], moved)[0] + _log_dets(fam, [a], x)[0]
        np.testing.assert_allclose(_log_dets(fam, [a + b], x)[0], cocycle, rtol=1e-12, atol=1e-12)


def test_sine_flow_log_det_is_exact_at_a_large_amplitude():
    # c = amplitude * wavenumber * alpha = 300: log det = c at x = 0 and
    # -c - 2 log sin(x / 2) + O(e^-2c) away from the zeros of the velocity
    fam = sine_flow_family(1, amplitude=300.0, wavenumber=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_zero = jacobian_log_det(fam, 1.0, np.array([0.0]))
        at_half = jacobian_log_det(fam, 1.0, np.array([0.5]))
    assert at_zero == pytest.approx(300.0, rel=1e-12)
    assert at_half == pytest.approx(-300.0 - 2.0 * math.log(math.sin(0.25)), rel=1e-12)


def test_sine_flow_log_det_is_finite_past_the_jacobian_overflow():
    # c = 800: alpha_jacobian's e^c overflows, the log-space log_det does not
    fam = sine_flow_family(1, amplitude=800.0, wavenumber=1.0)
    nodes = np.linspace(-3.0, 3.0, 64)
    lift = pointwise_family(fam, make_lattice(64, 1.0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_zero = jacobian_log_det(fam, 1.0, np.array([0.0]))
        at_half = jacobian_log_det(fam, 1.0, np.array([0.5]))
        per_node = [jacobian_log_det(fam, 1.0, node) for node in nodes.reshape(64, 1)]
        lifted = jacobian_log_det(lift, 1.0, nodes)
    assert at_zero == pytest.approx(800.0, rel=1e-12)
    assert at_half == pytest.approx(-800.0 - 2.0 * math.log(math.sin(0.25)), rel=1e-12)
    assert lifted == pytest.approx(math.fsum(per_node), rel=1e-12)


_HOOK_ALPHAS = [0.0, 0.3, -0.45, 1.2, -2.0, 6.0]


@pytest.mark.parametrize(
    "fam",
    [
        sine_flow_family(1, amplitude=0.1),
        sine_flow_family(2, amplitude=3.0, wavenumber=-0.7),
        sine_flow_family(3, amplitude=40.0, wavenumber=1.5),
        pointwise_family(sine_flow_family(2, amplitude=0.3, wavenumber=1.5), make_lattice(5, 1.0, 2)),
    ],
    ids=["dim_1", "dim_2", "dim_3", "pointwise"],
)
def test_sine_log_det_matches_the_slogdet_of_its_jacobian(fam):
    x = np.random.default_rng(fam.dim).normal(scale=2.0, size=(3, fam.dim))
    hooked = fam.log_det(np.array(_HOOK_ALPHAS), x)
    assert hooked.shape == (len(_HOOK_ALPHAS), 3)
    for i, alpha in enumerate(_HOOK_ALPHAS):
        for j, point in enumerate(x):
            jac = fam.alpha_jacobian(alpha, point)
            sign, reference = np.linalg.slogdet(block_diag(*jac) if jac.ndim == 3 else jac)
            assert sign == 1.0
            np.testing.assert_allclose(hooked[i, j], reference, rtol=1e-13, atol=1e-13)


def test_sine_flow_rejects_a_zero_wavenumber():
    with pytest.raises(ValueError, match="wavenumber must be non-zero"):
        sine_flow_family(2, amplitude=0.1, wavenumber=0.0)


def test_sine_flow_generator_matches_velocity_sign():
    fam = sine_flow_family(1, amplitude=0.3, wavenumber=2.0)
    x = np.array([0.5])
    gen = family_generator(fam).eval_at(x)
    np.testing.assert_allclose(gen, -0.3 * np.sin(2.0 * x), rtol=1e-12)


def test_pointwise_family_acts_slotwise():
    lat = make_lattice(3, 1.0, 1)
    fam = pointwise_family(scaling_family(1), lat)
    assert fam.dim == 3
    flat = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(fam.apply(0.2, flat), np.exp(0.2) * flat, rtol=1e-14)
    vel = family_velocity(fam)
    assert vel.divergence_at(flat) == pytest.approx(3.0)
    jac = vel.jacobian_at(flat)
    np.testing.assert_allclose(jac, np.eye(3), atol=1e-12)


def test_pointwise_family_requires_matching_base_dimension():
    lat = make_lattice(3, 1.0, 2)
    with pytest.raises(ValueError):
        pointwise_family(scaling_family(1), lat)


def test_polynomial_pairs_count_and_determinism():
    a = polynomial_pairs(2, count=5, seed=3)
    b = polynomial_pairs(2, count=5, seed=3)
    assert len(a) == 5
    x = np.random.default_rng(0).normal(size=(4, 2))
    for (phi1, h1), (phi2, h2) in zip(a, b):
        np.testing.assert_array_equal(phi1.evaluator(x), phi2.evaluator(x))
        np.testing.assert_array_equal(h1.eval(x), h2.eval(x))
    c = polynomial_pairs(2, count=2, seed=4)
    assert not np.array_equal(a[0][0].evaluator(x), c[0][0].evaluator(x))


def test_polynomial_pairs_match_their_documented_formulas():
    # reference: the docstring's formulas point by point, coefficients drawn in the same order
    dim, seed = 5, 2
    rng = np.random.default_rng(seed)

    def unit():
        v = rng.normal(size=dim)
        return v / np.linalg.norm(v)

    x = np.random.default_rng(9).normal(size=(40, dim))
    for phi, h in polynomial_pairs(dim, count=3, seed=seed):
        c0 = rng.uniform(-1.0, 1.0)
        g = rng.uniform(-1.0, 1.0, dim)
        raw = rng.uniform(-1.0, 1.0, (dim, dim))
        quad = (raw + raw.T) / (2.0 * np.sqrt(dim))
        a3, a4 = unit(), unit()
        w3 = rng.uniform(-0.5, 0.5)
        w4 = rng.uniform(-0.25, 0.25)
        u = rng.uniform(-1.0, 1.0, dim)
        a_mat = rng.uniform(-1.0, 1.0, (dim, dim)) / np.sqrt(dim)
        w_dir = unit()
        s_vec = rng.uniform(-0.5, 0.5, dim)
        phi_ref = [c0 + g @ p + 0.5 * p @ quad @ p + w3 * (a3 @ p) ** 3 + w4 * (a4 @ p) ** 4 for p in x]
        grad_ref = [
            g + quad @ p + 3.0 * w3 * (a3 @ p) ** 2 * a3 + 4.0 * w4 * (a4 @ p) ** 3 * a4 for p in x
        ]
        h_ref = [u + a_mat @ p + (w_dir @ p) ** 2 * s_vec for p in x]
        div_ref = [np.trace(a_mat) + 2.0 * (w_dir @ p) * (s_vec @ w_dir) for p in x]
        np.testing.assert_allclose(phi.evaluator(x), phi_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(phi.gradient(x), grad_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(h.eval(x), h_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(h.divergence_batch(x), div_ref, rtol=1e-12, atol=1e-12)
        jac_ref = a_mat + 2.0 * (w_dir @ x[0]) * np.outer(s_vec, w_dir)
        np.testing.assert_allclose(h.jacobian_at(x[0]), jac_ref, rtol=1e-12, atol=1e-12)


def test_registries_build_named_objects():
    lag = make_lagrangian("harmonic", 2, {"omega": 1.5})
    assert lag.dim_q == 2
    fam = make_family("rotation", 3, {"plane": [0, 2]})
    assert fam.dim == 3
    fam2 = make_family("translation", 2, {"direction": [1.0, 0.0]})
    np.testing.assert_allclose(fam2.apply(1.0, np.zeros(2)), [-1.0, 0.0])


def test_registries_reject_unknown_names():
    with pytest.raises(ValueError):
        make_lagrangian("cubic", 1)
    with pytest.raises(ValueError):
        make_family("spiral", 2)


@pytest.mark.parametrize(
    "make, kind, name, params, fault",
    [
        (make_lagrangian, "lagrangians", "harmonic", {"omegaa": 1.0}, "unknown parameter 'omegaa'"),
        (make_lagrangian, "lagrangians", "harmonic", {"omega": "x"},
         "parameter 'omega' must be a number, not 'x'"),
        (make_lagrangian, "lagrangians", "free", {"kinetic_scale": True},
         "parameter 'kinetic_scale' must be a number, not True"),
        (make_family, "families", "scaling", {"foo": 1}, "unknown parameter 'foo'"),
        (make_family, "families", "sine_flow", {"wavenumber": None},
         "parameter 'wavenumber' must be a number, not None"),
        (make_family, "families", "rotation", {"plane": 5}, "cannot unpack non-iterable int object"),
    ],
)
def test_registries_name_the_accepted_parameters_of_a_bad_call(make, kind, name, params, fault):
    entry = next(e for e in list_builtins_data()[kind] if e["name"] == name)
    takes = f"parameters: {', '.join(entry['parameters'])}" if entry["parameters"] else "no parameters"
    with pytest.raises(ValueError) as info:
        make(name, 3, params)
    assert str(info.value).endswith(f"{name!r} ({takes}): {fault}")


@pytest.mark.parametrize("plane", [[0, 1.5], [0, 3], [1, 1]])
def test_rotation_rejects_a_plane_that_is_not_two_distinct_integer_axes(plane):
    with pytest.raises(ValueError, match="two distinct integer axes"):
        make_family("rotation", 3, {"plane": plane})


def test_list_builtins_data_is_complete_and_stable():
    data = list_builtins_data()
    lag_names = {entry["name"] for entry in data["lagrangians"]}
    fam_names = {entry["name"] for entry in data["families"]}
    assert {"free", "harmonic", "quartic"} <= lag_names
    assert {"translation", "scaling", "rotation", "shear", "sine_flow"} <= fam_names
    assert data == list_builtins_data()
