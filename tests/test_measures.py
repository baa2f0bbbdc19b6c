"""Gaussian measures, sampling, quadrature, and logarithmic derivatives."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from logmeasure import (
    Estimate,
    GaussianMeasure,
    QuadratureSpec,
    TestFunction,
    VectorField,
    expectation,
    ibp_residual,
    log_derivative_along_field,
    log_derivative_along_vector,
    make_lattice,
    sample,
    standard_normal,
    wiener_measure,
)
from logmeasure.lattice import cm_gram
from logmeasure.library import polynomial_pairs
from logmeasure.measures import _CHUNK_ROWS, _integrate_columns, _transform, ibp_terms

from _oracles import shift_log_derivative_fd

GH6 = QuadratureSpec("gauss_hermite", 6)


def _identity_field(dim):
    return VectorField(
        dim=dim,
        eval=lambda x: np.atleast_2d(x).copy(),
        jacobian=lambda x: np.eye(dim),
        divergence=lambda x: np.full(np.atleast_2d(x).shape[0], float(dim)),
        label="x",
    )


def _zero_field(dim):
    return VectorField(
        dim=dim,
        eval=lambda x: np.zeros_like(np.atleast_2d(x)),
        jacobian=lambda x: np.zeros((dim, dim)),
        divergence=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        label="0",
    )


# ---------------------------------------------------------------------------
# measure construction


def test_gaussian_measure_rejects_bad_precision():
    with pytest.raises(ValueError):
        GaussianMeasure(2, np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GaussianMeasure(2, np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        GaussianMeasure(2, np.zeros(3), np.eye(2))


def test_wiener_measure_precision_is_the_gram_matrix():
    lat = make_lattice(3, 1.5, 2)
    b_mat = np.array([[2.0, 0.2], [0.2, 1.0]])
    m = wiener_measure(lat, b_mat)
    assert m.dim == lat.dim
    np.testing.assert_array_equal(m.precision, cm_gram(lat, b_mat).matrix)
    assert np.all(m.mean == 0.0)


def test_logpdf_matches_scipy():
    from scipy.stats import multivariate_normal

    prec = np.array([[2.0, 0.5], [0.5, 1.0]])
    m = GaussianMeasure(2, np.array([0.3, -0.1]), prec)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(5, 2))
    ref = multivariate_normal(m.mean, np.linalg.inv(prec)).logpdf(pts)
    np.testing.assert_allclose(m.logpdf(pts), ref, atol=1e-12)


def test_covariance_inverts_precision():
    prec = np.array([[4.0, -2.0], [-2.0, 2.0]])
    m = GaussianMeasure(2, np.zeros(2), prec)
    np.testing.assert_allclose(m.covariance() @ prec, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# sampling


def test_sample_covariance_close_to_identity():
    m = standard_normal(2)
    x = sample(m, 1_000_000, seed=42)
    np.testing.assert_allclose(np.cov(x.T), np.eye(2), atol=0.01)
    np.testing.assert_allclose(x.mean(axis=0), np.zeros(2), atol=0.005)


def test_sample_covariance_matches_wiener_covariance():
    lat = make_lattice(2, 1.0, 1)
    m = wiener_measure(lat)
    x = sample(m, 400_000, seed=1)
    np.testing.assert_allclose(np.cov(x.T), m.covariance(), atol=0.01)


def test_sample_is_deterministic_per_seed_and_workers():
    m = standard_normal(3)
    a = sample(m, 1000, seed=7)
    b = sample(m, 1000, seed=7)
    np.testing.assert_array_equal(a, b)
    c = sample(m, 1000, seed=7, workers=4)
    d = sample(m, 1000, seed=7, workers=4)
    np.testing.assert_array_equal(c, d)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, sample(m, 1000, seed=8))


def test_sample_single_draw():
    x = sample(standard_normal(2), 1, seed=0)
    assert x.shape == (1, 2)
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("with_mean", [False, True])
def test_sample_map_matches_triangular_solve(with_mean):
    prec = wiener_measure(make_lattice(16, 1.0, 1)).precision
    mean = np.linspace(-1.0, 2.0, 16) if with_mean else np.zeros(16)
    m = GaussianMeasure(16, mean, prec)
    z = np.random.default_rng(6).standard_normal((5000, 16))
    z_before = z.copy()
    ref = m.mean + solve_triangular(m.chol_lower, z.T, lower=True, trans="T").T
    x = _transform(m, z)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    np.testing.assert_array_equal(z, z_before)


@pytest.mark.parametrize("workers", [1, 2])
def test_standard_normal_sample_is_the_raw_draw(workers):
    n, dim, seed = 2 * _CHUNK_ROWS + 7, 3, 13
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(workers)]
    shares = [n // workers + (w < n % workers) for w in range(workers)]
    raw = np.concatenate([rng.standard_normal((share, dim)) for rng, share in zip(rngs, shares)])
    np.testing.assert_array_equal(sample(standard_normal(dim), n, seed, workers), raw)


# ---------------------------------------------------------------------------
# expectation


def test_gauss_hermite_moments_are_exact():
    m = standard_normal(1)
    q5 = QuadratureSpec("gauss_hermite", 5)
    x2 = expectation(m, lambda x: np.atleast_2d(x)[:, 0] ** 2, q5)
    x4 = expectation(m, lambda x: np.atleast_2d(x)[:, 0] ** 4, q5)
    assert x2.value == pytest.approx(1.0, abs=1e-12)
    assert x4.value == pytest.approx(3.0, abs=1e-12)
    assert x2.std_error is None


def test_expectation_of_one_is_one():
    m = wiener_measure(make_lattice(2, 1.0, 1))
    est = expectation(m, lambda x: np.ones(np.atleast_2d(x).shape[0]), GH6)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_monte_carlo_expectation_attaches_standard_error():
    m = standard_normal(1)
    est = expectation(m, lambda x: np.atleast_2d(x)[:, 0] ** 2, QuadratureSpec("monte_carlo", 200_000, seed=3))
    assert isinstance(est, Estimate)
    assert est.std_error is not None and est.std_error > 0
    assert abs(est.value - 1.0) < 3 * est.std_error + 1e-3


def test_monte_carlo_error_shrinks_like_root_n():
    m = standard_normal(1)
    f = lambda x: np.atleast_2d(x)[:, 0] ** 2
    se_small = expectation(m, f, QuadratureSpec("monte_carlo", 50_000, seed=9)).std_error
    se_large = expectation(m, f, QuadratureSpec("monte_carlo", 200_000, seed=9)).std_error
    assert se_large == pytest.approx(se_small / 2.0, rel=0.2)


def test_monte_carlo_standard_error_survives_a_large_offset():
    # E[f^2] - E[f]^2 cancels every digit of a 1e-3 spread riding on 1e6
    f = lambda x: 1e6 + 1e-3 * x[:, 0]
    est = expectation(standard_normal(1), f, QuadratureSpec("monte_carlo", 1_000_000, seed=0))
    assert est.std_error == pytest.approx(1e-6, rel=0.01)


@pytest.mark.parametrize("workers", [1, 3])
def test_monte_carlo_standard_error_is_the_sample_standard_error(workers):
    n = 2 * _CHUNK_ROWS + 11
    m = wiener_measure(make_lattice(3, 1.0, 1))
    f = lambda x: np.exp(0.3 * x[:, 0]) + x[:, 1] * x[:, 2]
    est = expectation(m, f, QuadratureSpec("monte_carlo", n, seed=4, workers=workers))
    vals = f(sample(m, n, seed=4, workers=workers))
    assert est.value == pytest.approx(vals.mean(), rel=1e-12)
    assert est.std_error == pytest.approx(vals.std(ddof=1) / np.sqrt(n), rel=1e-10)


def test_monte_carlo_column_sums_are_pairwise():
    # a strided axis-0 sum of a (c, 3) batch carries about 5e-15 relative rounding
    data = np.random.default_rng(2).normal(1.0, 1.0, (_CHUNK_ROWS, 3))
    ests = _integrate_columns(
        standard_normal(1), QuadratureSpec("monte_carlo", _CHUNK_ROWS), lambda x: data, 3
    )
    for est, col in zip(ests, data.T):
        exact = math.fsum(col)
        assert abs(est.value * _CHUNK_ROWS - exact) <= 1e-15 * abs(exact)


def test_gauss_hermite_rule_streams_in_chunks():
    dim, order = 6, 8  # 8**6 = 262144 nodes, more than one chunk
    m = GaussianMeasure(dim, np.linspace(-0.5, 0.5, dim), wiener_measure(make_lattice(dim, 1.0, 1)).precision)
    f = lambda x: np.sum(x * x, axis=1) + np.exp(0.2 * x[:, 0])
    batches = []

    def counted(x):
        batches.append(len(x))
        return f(x)

    est = expectation(m, counted, QuadratureSpec("gauss_hermite", order))
    xi, w = np.polynomial.hermite.hermgauss(order)
    z = np.stack([g.reshape(-1) for g in np.meshgrid(*([np.sqrt(2.0) * xi] * dim), indexing="ij")], axis=1)
    weights = np.prod([g.reshape(-1) for g in np.meshgrid(*([w] * dim), indexing="ij")], axis=0)
    x = m.mean + solve_triangular(m.chol_lower, z.T, lower=True, trans="T").T
    ref = weights @ f(x) / np.pi ** (dim / 2.0)
    assert max(batches) <= _CHUNK_ROWS and sum(batches) == order**dim
    assert est.value == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize(
    "quad", [QuadratureSpec("monte_carlo", 1000, seed=1), GH6], ids=["monte_carlo", "gauss_hermite"]
)
def test_non_finite_rows_raise_with_their_count(quad):
    # three NaN rows in one column and one infinite row in the other
    def rows(x):
        cols = np.ones((len(x), 2))
        cols[:3, 1] = np.nan
        cols[-1, 0] = np.inf
        return cols

    with pytest.raises(ValueError, match=r"^4 of \d+ rows in a batch have a non-finite value"):
        _integrate_columns(standard_normal(2), quad, rows, 2)


def test_gauss_hermite_column_does_not_depend_on_its_neighbours():
    m = standard_normal(3)
    gh = QuadratureSpec("gauss_hermite", 10)

    def f(x):
        return np.cos(x @ np.array([0.7, -0.3, 0.5]))

    def four(x):
        return np.stack([np.sin(x[:, 0]), f(x), x[:, 1] ** 2, np.exp(0.1 * x[:, 2])], axis=1)

    alone = _integrate_columns(m, gh, lambda x: f(x)[:, None], 1)[0]
    among = _integrate_columns(m, gh, four, 4)[1]
    assert alone.value.hex() == among.value.hex()


def test_monte_carlo_with_one_sample_raises_instead_of_a_zero_standard_error():
    with pytest.raises(ValueError, match="at least 2 samples"):
        expectation(standard_normal(2), lambda x: x[:, 0], QuadratureSpec("monte_carlo", 1))
    est = expectation(standard_normal(2), lambda x: x[:, 0], QuadratureSpec("monte_carlo", 2))
    assert est.std_error > 0.0


def test_gauss_hermite_dimension_guard():
    m = standard_normal(7)
    with pytest.raises(ValueError):
        expectation(m, lambda x: np.ones(np.atleast_2d(x).shape[0]), GH6)


# ---------------------------------------------------------------------------
# logarithmic derivatives


def test_vector_log_derivative_standard_1d():
    m = standard_normal(1)
    assert log_derivative_along_vector(m, [1.0], [2.0]) == -2.0
    assert log_derivative_along_vector(m, [0.0], [2.0]) == 0.0


def test_vector_log_derivative_is_linear_in_k():
    m = GaussianMeasure(2, np.array([0.1, -0.2]), np.array([[2.0, 0.5], [0.5, 1.0]]))
    x = np.array([0.7, 0.3])
    k1, k2 = np.array([1.0, 0.0]), np.array([0.5, -1.5])
    combined = log_derivative_along_vector(m, 2.0 * k1 + 3.0 * k2, x)
    parts = 2.0 * log_derivative_along_vector(m, k1, x) + 3.0 * log_derivative_along_vector(m, k2, x)
    assert combined == pytest.approx(parts, rel=1e-14)


def test_vector_log_derivative_matches_density_differentiation():
    # independent oracle: differentiate the log density of the shifted measure
    lat = make_lattice(2, 1.0, 1)
    m = wiener_measure(lat)
    k = np.array([1.0, 1.0])
    x = np.array([0.5, 1.0])
    value = log_derivative_along_vector(m, k, x)
    assert value == pytest.approx(-1.0, abs=1e-12)
    oracle = shift_log_derivative_fd(m.mean, m.covariance(), k, x)
    assert value == pytest.approx(oracle, abs=1e-8)


def test_field_log_derivative_identity_field_1d():
    m = standard_normal(1)
    at_zero = log_derivative_along_field(m, _identity_field(1), [0.0])
    assert at_zero.total == pytest.approx(1.0, abs=1e-14)
    at_two = log_derivative_along_field(m, _identity_field(1), [2.0])
    assert at_two.total == pytest.approx(-3.0, abs=1e-14)
    assert at_two.vector_term == pytest.approx(-4.0, abs=1e-14)
    assert at_two.trace_term == 1.0


def test_field_log_derivative_splits_exactly():
    m = GaussianMeasure(2, np.zeros(2), np.array([[2.0, 0.5], [0.5, 1.0]]))
    rng = np.random.default_rng(10)
    for phi, h in polynomial_pairs(2, count=3, seed=1):
        x = rng.normal(size=2)
        fld = log_derivative_along_field(m, h, x)
        assert fld.total == fld.vector_term + fld.trace_term
        assert fld.vector_term == log_derivative_along_vector(m, h.eval_at(x), x)
        assert fld.trace_term == h.divergence_at(x)
        assert fld.trace_term == pytest.approx(np.trace(h.jacobian_at(x)), rel=1e-12)


def test_constant_field_adds_no_trace():
    m = standard_normal(2)
    k = np.array([0.4, -0.9])
    h = VectorField(dim=2, eval=lambda x: np.tile(k, (np.atleast_2d(x).shape[0], 1)))
    x = np.array([1.0, 2.0])
    fld = log_derivative_along_field(m, h, x)
    assert fld.trace_term == pytest.approx(0.0, abs=1e-9)
    assert fld.total == pytest.approx(log_derivative_along_vector(m, k, x), abs=1e-9)


def test_field_log_derivative_checks_dimensions():
    with pytest.raises(ValueError):
        log_derivative_along_field(standard_normal(2), _identity_field(3), [0.0, 0.0])


# ---------------------------------------------------------------------------
# integration by parts


def test_ibp_terms_for_square_and_identity():
    # E[phi' . h] = E[2 x^2] = 2 and E[phi beta_h] = E[x^2 (1 - x^2)] = -2
    m = standard_normal(1)
    phi = TestFunction(
        evaluator=lambda x: np.atleast_2d(x)[:, 0] ** 2,
        gradient=lambda x: 2.0 * np.atleast_2d(x),
    )
    h = _identity_field(1)
    grad_term = expectation(
        m, lambda x: 2.0 * np.atleast_2d(x)[:, 0] ** 2, GH6
    )
    beta_term = expectation(
        m,
        lambda x: np.atleast_2d(x)[:, 0] ** 2 * (1.0 - np.atleast_2d(x)[:, 0] ** 2),
        GH6,
    )
    assert grad_term.value == pytest.approx(2.0, abs=1e-12)
    assert beta_term.value == pytest.approx(-2.0, abs=1e-12)
    assert ibp_residual(m, phi, h, GH6).value == pytest.approx(0.0, abs=1e-12)


def test_ibp_residual_constant_test_function():
    m = standard_normal(1)
    phi = TestFunction(
        evaluator=lambda x: np.full(np.atleast_2d(x).shape[0], 2.5),
        gradient=lambda x: np.zeros_like(np.atleast_2d(x)),
    )
    assert ibp_residual(m, phi, _identity_field(1), GH6).value == pytest.approx(0.0, abs=1e-12)


def test_ibp_residual_zero_field_is_exact_zero():
    m = standard_normal(2)
    phi, _ = polynomial_pairs(2, count=1, seed=2)[0]
    assert ibp_residual(m, phi, _zero_field(2), GH6).value == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ibp_gauss_hermite_polynomial_battery(dim):
    measures = [standard_normal(dim), wiener_measure(make_lattice(dim, 1.0, 1))]
    for m in measures:
        for phi, h in polynomial_pairs(dim, count=4, seed=dim):
            res = ibp_residual(m, phi, h, GH6)
            assert abs(res.value) <= 1e-10


def test_ibp_monte_carlo_within_three_standard_errors():
    m = standard_normal(4)
    mc = QuadratureSpec("monte_carlo", 200_000, seed=5, workers=2)
    for phi, h in polynomial_pairs(4, count=3, seed=3):
        res = ibp_residual(m, phi, h, mc)
        assert res.std_error is not None
        assert abs(res.value) <= 3.0 * res.std_error


def test_ibp_monte_carlo_evaluates_the_field_once_per_chunk():
    dim = 3
    phi, h = polynomial_pairs(dim, count=1, seed=0)[0]
    batches = []

    def counted_eval(x):
        batches.append(np.shape(x)[0])
        return h.eval(x)

    counted = VectorField(dim=dim, eval=counted_eval, jacobian=h.jacobian, divergence=h.divergence)
    n = 2 * _CHUNK_ROWS + 5
    ibp_residual(standard_normal(dim), phi, counted, QuadratureSpec("monte_carlo", n, seed=1))
    assert batches == [_CHUNK_ROWS, _CHUNK_ROWS, 5]


def test_ibp_terms_evaluate_the_field_once_per_chunk_and_sum_to_the_residual():
    dim = 3
    m = wiener_measure(make_lattice(dim, 1.0, 1))
    phi, h = polynomial_pairs(dim, count=1, seed=0)[0]
    batches = []

    def counted_eval(x):
        batches.append(np.shape(x)[0])
        return h.eval(x)

    counted = VectorField(dim=dim, eval=counted_eval, jacobian=h.jacobian, divergence=h.divergence)
    mc = QuadratureSpec("monte_carlo", 2 * _CHUNK_ROWS + 5, seed=1)
    terms = ibp_terms(m, phi, counted, mc)
    assert batches == [_CHUNK_ROWS, _CHUNK_ROWS, 5]
    scale = max(abs(t.value) for t in terms)
    assert sum(t.value for t in terms) == pytest.approx(ibp_residual(m, phi, h, mc).value, abs=1e-12 * scale)


def test_ibp_monte_carlo_is_deterministic():
    m = standard_normal(2)
    phi, h = polynomial_pairs(2, count=1, seed=4)[0]
    mc = QuadratureSpec("monte_carlo", 10_000, seed=11, workers=3)
    a = ibp_residual(m, phi, h, mc)
    b = ibp_residual(m, phi, h, mc)
    assert a.value == b.value and a.std_error == b.std_error
