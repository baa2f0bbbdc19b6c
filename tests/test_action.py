"""Discretized actions, their variations, and the weighted log derivative."""

import numpy as np
import pytest

from logmeasure import (
    DiscreteAction,
    Lagrangian,
    Path,
    QuadraticEta,
    VectorField,
    WLogDerivativeMode,
    cm_inner,
    log_derivative_along_vector,
    make_lattice,
    path_from_flat,
    wiener_measure,
)
from logmeasure.library import free_lagrangian, harmonic_lagrangian, quartic_lagrangian

EUCLID = WLogDerivativeMode.EUCLIDEAN
REAL = WLogDerivativeMode.REAL_TIME


def _linear_path(lat, v):
    return Path(lat, np.outer(lat.times, np.atleast_1d(v)))


def _identity_lattice_field(lat):
    return VectorField(
        dim=lat.dim,
        eval=lambda x: np.atleast_2d(x).copy(),
        jacobian=lambda x: np.eye(lat.dim),
        divergence=lambda x: np.full(np.atleast_2d(x).shape[0], float(lat.dim)),
        label="psi",
    )


def test_mode_factors():
    assert REAL.factor == 1j
    assert EUCLID.factor == -1.0


def test_quadratic_eta_validation():
    with pytest.raises(ValueError):
        QuadraticEta(matrix=np.array([[1.0, 0.5], [0.0, 1.0]]), linear=np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticEta(matrix=np.eye(2), linear=np.zeros(3))


def test_lagrangian_rejects_indefinite_kinetic_matrix():
    with pytest.raises(ValueError):
        Lagrangian(
            dim_q=1,
            eta=lambda q, v: np.zeros(np.atleast_2d(q).shape[0]),
            eta_d1=lambda q, v: np.zeros_like(np.atleast_2d(q)),
            kinetic_matrix=np.array([[-1.0]]),
        )


def test_velocity_coupled_requires_velocity_gradient():
    with pytest.raises(ValueError):
        Lagrangian(
            dim_q=1,
            eta=lambda q, v: np.zeros(np.atleast_2d(q).shape[0]),
            eta_d1=lambda q, v: np.zeros_like(np.atleast_2d(q)),
            velocity_coupled=True,
        )


# ---------------------------------------------------------------------------
# action values


@pytest.mark.parametrize("n_steps", [1, 2, 8, 33])
def test_free_action_of_linear_path(n_steps):
    lat = make_lattice(n_steps, 2.0, 1)
    action = DiscreteAction(free_lagrangian(1), lat)
    v = 1.3
    assert action.action_value(_linear_path(lat, v)) == pytest.approx(
        0.5 * v * v * lat.t_final, rel=1e-13
    )


def test_free_action_weighted_kinetic_matrix():
    lat = make_lattice(6, 1.5, 2)
    b_mat = np.array([[2.0, 0.4], [0.4, 1.0]])
    lag = Lagrangian(
        dim_q=2,
        eta=lambda q, v: np.zeros(np.atleast_2d(q).shape[0]),
        eta_d1=lambda q, v: np.zeros_like(np.atleast_2d(q)),
        kinetic_matrix=b_mat,
    )
    v = np.array([0.7, -0.4])
    action = DiscreteAction(lag, lat)
    assert action.action_value(_linear_path(lat, v)) == pytest.approx(
        0.5 * v @ b_mat @ v * lat.t_final, rel=1e-13
    )


def test_action_of_zero_path_is_zero():
    lat = make_lattice(4, 1.0, 2)
    action = DiscreteAction(harmonic_lagrangian(2), lat)
    assert action.action_value(Path(lat, np.zeros((4, 2)))) == 0.0


def test_action_two_step_hand_sum():
    # eta(q) = -q^2/2, linear path of slope 1 on two steps of dt = 0.5:
    # left endpoints 0 and 0.5, velocities 1 and 1
    # rows: (0 + 0.5) and (-0.125 + 0.5); action = 0.875 * 0.5 = 0.4375
    lat = make_lattice(2, 1.0, 1)
    lag = Lagrangian(
        dim_q=1,
        eta=lambda q, v: -0.5 * np.atleast_2d(q)[:, 0] ** 2,
        eta_d1=lambda q, v: -np.atleast_2d(q),
    )
    action = DiscreteAction(lag, lat)
    assert action.action_value(_linear_path(lat, 1.0)) == pytest.approx(0.4375, rel=1e-14)


def test_q_offset_shifts_eta_positions():
    lat = make_lattice(2, 1.0, 1)
    lag = harmonic_lagrangian(1)
    offset = np.array([0.7])
    shifted = DiscreteAction(lag, lat, q_offset=offset)
    path = _linear_path(lat, 1.0)
    # left endpoints become 0.7 and 1.2; kinetic part is unchanged
    expected = (0.5 * 0.7**2 + 0.5 * 1.2**2 + 0.5 + 0.5) * 0.5
    assert shifted.action_value(path) == pytest.approx(expected, rel=1e-13)


def test_action_rejects_mismatched_inputs():
    lat = make_lattice(2, 1.0, 1)
    with pytest.raises(ValueError):
        DiscreteAction(harmonic_lagrangian(2), lat)
    action = DiscreteAction(harmonic_lagrangian(1), lat)
    other = _linear_path(make_lattice(2, 2.0, 1), 1.0)
    with pytest.raises(ValueError):
        action.action_value(other)


# ---------------------------------------------------------------------------
# first variations


@pytest.mark.parametrize(
    "lag",
    [harmonic_lagrangian(2, omega=1.3), quartic_lagrangian(2, coupling=0.4)],
    ids=["harmonic", "quartic"],
)
def test_first_variation_matches_finite_difference(lag):
    lat = make_lattice(16, 1.0, 2)
    rng = np.random.default_rng(0)
    action = DiscreteAction(lag, lat)
    path = Path(lat, rng.normal(size=(16, 2)))
    direction = Path(lat, rng.normal(size=(16, 2)))
    eps = 1e-5
    fd = (
        action.action_value(path + eps * direction)
        - action.action_value(path - eps * direction)
    ) / (2 * eps)
    assert action.first_variation(path, direction) == pytest.approx(fd, abs=1e-8)


def test_first_variation_zero_direction():
    lat = make_lattice(8, 1.0, 1)
    action = DiscreteAction(harmonic_lagrangian(1), lat)
    rng = np.random.default_rng(1)
    path = Path(lat, rng.normal(size=(8, 1)))
    assert action.first_variation(path, Path(lat, np.zeros((8, 1)))) == 0.0


def test_free_variation_is_the_kinetic_pairing():
    lat = make_lattice(12, 1.0, 1)
    action = DiscreteAction(free_lagrangian(1), lat)
    rng = np.random.default_rng(2)
    path = Path(lat, rng.normal(size=(12, 1)))
    direction = Path(lat, rng.normal(size=(12, 1)))
    assert action.first_variation(path, direction) == pytest.approx(
        cm_inner(path, direction), rel=1e-12
    )
    assert action.eta_variation(path, direction) == 0.0


def test_velocity_coupled_variation_matches_finite_difference():
    gamma = 0.8

    def eta(q, v):
        q, v = np.atleast_2d(q), np.atleast_2d(v)
        return 0.5 * gamma * np.einsum("ij,ij->i", q, v) ** 2

    lag = Lagrangian(
        dim_q=2,
        eta=eta,
        eta_d1=lambda q, v: gamma
        * np.einsum("ij,ij->i", np.atleast_2d(q), np.atleast_2d(v))[:, None]
        * np.atleast_2d(v),
        eta_d2=lambda q, v: gamma
        * np.einsum("ij,ij->i", np.atleast_2d(q), np.atleast_2d(v))[:, None]
        * np.atleast_2d(q),
        velocity_coupled=True,
    )
    lat = make_lattice(10, 1.0, 2)
    action = DiscreteAction(lag, lat)
    rng = np.random.default_rng(3)
    path = Path(lat, rng.normal(size=(10, 2)))
    direction = Path(lat, rng.normal(size=(10, 2)))
    eps = 1e-5
    fd = (
        action.action_value(path + eps * direction)
        - action.action_value(path - eps * direction)
    ) / (2 * eps)
    assert action.first_variation(path, direction) == pytest.approx(fd, abs=1e-7)


# ---------------------------------------------------------------------------
# weighted log derivative, vector direction


def test_w_vector_vanishes_for_free_lagrangian():
    lat = make_lattice(8, 1.0, 1)
    action = DiscreteAction(free_lagrangian(1), lat)
    rng = np.random.default_rng(4)
    path = Path(lat, rng.normal(size=(8, 1)))
    direction = Path(lat, rng.normal(size=(8, 1)))
    assert action.w_log_derivative_vector(EUCLID, direction, path) == 0.0
    assert action.w_log_derivative_vector(REAL, direction, path) == 0.0


def test_w_vector_mode_orientation():
    lat = make_lattice(8, 1.0, 1)
    action = DiscreteAction(harmonic_lagrangian(1), lat)
    rng = np.random.default_rng(5)
    path = Path(lat, rng.normal(size=(8, 1)))
    direction = Path(lat, rng.normal(size=(8, 1)))
    osc = action.w_log_derivative_vector(REAL, direction, path)
    damped = action.w_log_derivative_vector(EUCLID, direction, path)
    assert np.real(osc) == 0.0
    assert np.imag(damped) == 0.0
    assert abs(osc) == pytest.approx(abs(damped), rel=1e-14)


def test_w_vector_two_step_hand_sum():
    # harmonic eta = q^2/2; path (0.6, 1.0), direction (1, 1), dt = 0.5:
    # left path endpoints (0, 0.6), left direction endpoints (0, 1)
    # eta variation = (0 * 0 + 0.6 * 1) * 0.5 = 0.3
    lat = make_lattice(2, 1.0, 1)
    action = DiscreteAction(harmonic_lagrangian(1), lat)
    path = Path(lat, np.array([[0.6], [1.0]]))
    direction = Path(lat, np.array([[1.0], [1.0]]))
    assert action.eta_variation(path, direction) == pytest.approx(0.3, rel=1e-14)
    assert action.w_log_derivative_vector(EUCLID, direction, path) == pytest.approx(-0.3)
    assert action.w_log_derivative_vector(REAL, direction, path) == pytest.approx(0.3j)


def test_gaussian_and_weight_parts_assemble_the_full_variation():
    # beta of the kinetic-weighted path measure along k plus the euclidean
    # weight derivative equals minus the full first variation of the action
    lat = make_lattice(12, 1.5, 2)
    b_mat = np.array([[1.5, 0.3], [0.3, 1.0]])
    lag = harmonic_lagrangian(2, omega=0.9)
    lag = Lagrangian(
        dim_q=2,
        eta=lag.eta,
        eta_d1=lag.eta_d1,
        kinetic_matrix=b_mat,
        quadratic_eta=lag.quadratic_eta,
    )
    m = wiener_measure(lat, b_mat)
    action = DiscreteAction(lag, lat)
    rng = np.random.default_rng(6)
    path = Path(lat, rng.normal(size=(12, 2)))
    direction = Path(lat, rng.normal(size=(12, 2)))
    gauss = log_derivative_along_vector(m, direction.flat, path.flat)
    weight = action.w_log_derivative_vector(EUCLID, direction, path)
    total = gauss + weight
    assert total == pytest.approx(-action.first_variation(path, direction), rel=1e-10)


# ---------------------------------------------------------------------------
# weighted log derivative, field direction


def test_w_field_zero_field():
    lat = make_lattice(4, 1.0, 1)
    action = DiscreteAction(harmonic_lagrangian(1), lat)
    rng = np.random.default_rng(7)
    path = Path(lat, rng.normal(size=(4, 1)))
    zero = VectorField(
        dim=lat.dim,
        eval=lambda x: np.zeros_like(np.atleast_2d(x)),
        jacobian=lambda x: np.zeros((lat.dim, lat.dim)),
        divergence=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
    )
    piece = action.w_log_derivative_field(EUCLID, zero, path)
    assert piece.eta_term == 0.0
    assert piece.trace_term == 0.0
    assert piece.total == 0.0


def test_w_field_identity_trace_is_lattice_dimension():
    lat = make_lattice(8, 1.0, 2)
    rng = np.random.default_rng(8)
    path = Path(lat, rng.normal(size=(8, 2)))
    h = _identity_lattice_field(lat)
    traces = []
    for lag in (free_lagrangian(2), harmonic_lagrangian(2), quartic_lagrangian(2)):
        piece = DiscreteAction(lag, lat).w_log_derivative_field(EUCLID, h, path)
        traces.append(piece.trace_term)
    assert traces[0] == traces[1] == traces[2] == float(lat.dim)
    free_piece = DiscreteAction(free_lagrangian(2), lat).w_log_derivative_field(EUCLID, h, path)
    assert free_piece.eta_term == 0.0
    assert free_piece.total == float(lat.dim)


def test_w_field_rotation_invariant_eta_has_no_eta_term():
    # pointwise rotation velocity on a dim_q = 2 lattice; |q|^2 eta is invariant
    from logmeasure import family_velocity
    from logmeasure.library import pointwise_family, rotation_family

    lat = make_lattice(6, 1.0, 2)
    fam = pointwise_family(rotation_family(2), lat)
    vel = family_velocity(fam)
    action = DiscreteAction(harmonic_lagrangian(2), lat)
    rng = np.random.default_rng(9)
    path = Path(lat, rng.normal(size=(6, 2)))
    piece = action.w_log_derivative_field(EUCLID, vel, path)
    assert abs(piece.eta_term) <= 1e-10
    assert abs(piece.trace_term) <= 1e-12


def test_w_field_rejects_wrong_dimension():
    lat = make_lattice(4, 1.0, 1)
    action = DiscreteAction(harmonic_lagrangian(1), lat)
    path = Path(lat, np.zeros((4, 1)))
    bad = VectorField(dim=3, eval=lambda x: np.atleast_2d(x).copy())
    with pytest.raises(ValueError):
        action.w_log_derivative_field(EUCLID, bad, path)


# ---------------------------------------------------------------------------
# batched rows: the Path methods are their one-row case


def _coupled_lagrangian():
    def eta(q, v):
        return 0.5 * np.einsum("ij,ij->i", q, v) ** 2 + np.einsum("ij,ij->i", q, q)

    return Lagrangian(
        dim_q=2,
        eta=eta,
        eta_d1=lambda q, v: np.einsum("ij,ij->i", q, v)[:, None] * v + 2.0 * q,
        eta_d2=lambda q, v: np.einsum("ij,ij->i", q, v)[:, None] * q,
        kinetic_matrix=np.array([[1.5, 0.3], [0.3, 1.0]]),
        velocity_coupled=True,
    )


@pytest.mark.parametrize(
    "lag",
    [harmonic_lagrangian(2), quartic_lagrangian(2), _coupled_lagrangian()],
    ids=["harmonic", "quartic", "velocity_coupled"],
)
@pytest.mark.parametrize("q_offset", [None, [0.3, -0.4]], ids=["no_offset", "offset"])
def test_batched_rows_are_bitwise_the_path_methods(lag, q_offset):
    lat = make_lattice(7, 0.9, 2)
    action = DiscreteAction(lag, lat, q_offset)
    rng = np.random.default_rng(12)
    x, k = rng.normal(size=(2, 5, lat.dim))
    rows = {
        "action": action._action_rows(x, kinetic=True),
        "first": action._variation_rows(x, k, kinetic=True),
        "eta": action._variation_rows(x, k, kinetic=False),
    }
    for i in range(len(x)):
        path, direction = path_from_flat(lat, x[i]), path_from_flat(lat, k[i])
        assert rows["action"][i] == action.action_value(path)
        assert rows["first"][i] == action.first_variation(path, direction)
        assert rows["eta"][i] == action.eta_variation(path, direction)

    # several offsets in one call: each column is bitwise the action at that q_offset
    offsets = np.array([[0.3, -0.4], [-1.0, 0.5], [0.0, 0.0]])
    columns = action._action_rows(x, kinetic=True, offsets=offsets)
    for j, q in enumerate(offsets):
        alone = DiscreteAction(lag, lat, q)._action_rows(x, kinetic=True)
        assert columns[:, j].tobytes() == alone.tobytes()

    # e^{i pi/4}-rotated complex rows: each row of a batch equals its one-row call
    rot = np.exp(1j * np.pi / 4.0)
    z, kz = rot * x, rot * k
    batched = [
        action._action_rows(z, kinetic=False),
        action._action_rows(z, kinetic=True),
        action._variation_rows(z, kz, kinetic=False),
        action._variation_rows(z, kz, kinetic=True),
    ]
    assert all(np.iscomplexobj(b) and np.any(b.imag != 0.0) for b in batched)
    for i in range(len(x)):
        one = [
            action._action_rows(z[i : i + 1], kinetic=False),
            action._action_rows(z[i : i + 1], kinetic=True),
            action._variation_rows(z[i : i + 1], kz[i : i + 1], kinetic=False),
            action._variation_rows(z[i : i + 1], kz[i : i + 1], kinetic=True),
        ]
        for b, o in zip(batched, one):
            assert b[i].tobytes() == o[0].tobytes()
