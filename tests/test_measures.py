"""Gaussian measures, sampling, quadrature, and logarithmic derivatives."""

import math
import os
import platform
import subprocess
import sys
from types import SimpleNamespace
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from logmeasure import (
    Estimate,
    GaussianMeasure,
    QuadratureSpec,
    SchrodingerProblem,
    TestFunction,
    VectorField,
    expectation,
    feynman_mc,
    gaussian_bump,
    harmonic_lagrangian,
    ibp_residual,
    log_derivative_along_field,
    log_derivative_along_vector,
    make_lattice,
    proposition1_check,
    sample,
    scaling_family,
    standard_normal,
    wiener_measure,
)
from logmeasure import measures
from logmeasure.lattice import cm_gram
from logmeasure.library import polynomial_pairs
from logmeasure.measures import (
    _BATCH_ROWS,
    _CHUNK_ROWS,
    _MALLOC_TUNABLES,
    _integrate_columns,
    _transform,
    ibp_terms,
)

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


def _wiener_precision(n_steps, dim_q):
    kinetic = None if dim_q == 1 else np.array([[2.0, 0.3], [0.3, 0.5]])  # non-diagonal B
    return wiener_measure(make_lattice(n_steps, 1.0, dim_q), kinetic).precision


def _random_spd(dim):
    a = np.random.default_rng(dim).standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


_PRECISIONS = [
    *[pytest.param(_wiener_precision, (n, q), id=f"wiener-{n}x{q}") for q in (1, 2) for n in (1, 2, 7, 64, 1024)],
    *[pytest.param(_random_spd, (d,), id=f"spd-{d}") for d in (1, 2, 3, 17, 64, 300)],
]


def _assert_scipys_inverse_factor(m):
    ref = solve_triangular(m.chol_lower, np.eye(m.dim), lower=True)
    assert m._chol_inv.tobytes() == ref.tobytes()
    assert m._chol_inv.flags.f_contiguous == ref.flags.f_contiguous


@pytest.mark.parametrize("build, args", _PRECISIONS)
def test_inverse_factor_is_bytewise_scipys_triangular_solve(build, args):
    prec = build(*args)
    _assert_scipys_inverse_factor(GaussianMeasure(len(prec), np.zeros(len(prec)), prec))


@pytest.fixture
def no_bundled_openblas(monkeypatch):
    """numpy's bundled OpenBLAS reads as missing; the helpers' caches are cleared around the test."""
    cached = (measures._openblas_dtrtrs, measures._openblas_threads)
    for helper in cached:
        helper.cache_clear()
    monkeypatch.setattr(measures, "_openblas", lambda: None)
    yield
    for helper in cached:
        helper.cache_clear()


@pytest.mark.parametrize("build, args", _PRECISIONS[::3])
def test_without_the_bundled_openblas_scipy_gives_the_same_inverse_factor(no_bundled_openblas, build, args):
    assert measures._openblas_dtrtrs() is None and measures._openblas_threads() is None
    prec = build(*args)
    _assert_scipys_inverse_factor(GaussianMeasure(len(prec), np.zeros(len(prec)), prec))


def test_the_bundled_dtrtrs_is_found_with_the_library():
    assert (measures._openblas() is None) == (measures._openblas_dtrtrs() is None)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's warnings on the infinite entries
@pytest.mark.parametrize("bundled", [True, False])
@pytest.mark.parametrize("entries, message", [
    ({(0, 0): np.inf}, "must not contain infs or NaNs"),
    ({(0, 0): np.nan}, "not symmetric"),
    ({(0, 1): np.inf, (1, 0): np.inf}, "not positive definite"),
], ids=["inf_diagonal", "nan", "inf_off_diagonal"])
def test_a_non_finite_precision_raises(request, bundled, entries, message):
    if not bundled:
        request.getfixturevalue("no_bundled_openblas")
    prec = _wiener_precision(3, 1).copy()
    for index, value in entries.items():
        prec[index] = value
    with pytest.raises(ValueError, match=message):
        GaussianMeasure(3, np.zeros(3), prec)


def test_identity_precision_takes_the_identity_as_its_inverse_factor():
    # bytewise what the triangular solve gives for L = cholesky(I), which it skips
    for dim in range(1, 201):
        eye = np.eye(dim)
        assert solve_triangular(np.linalg.cholesky(eye), eye, lower=True).tobytes() == eye.tobytes()
    for mean in (np.zeros(32), np.ones(32)):
        assert GaussianMeasure(32, mean, np.eye(32))._chol_inv.tobytes() == np.eye(32).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_standard_normal_sample_is_the_raw_draw(workers):
    # three batches a stream, drawn from [rng, rng jumped once, rng jumped twice]
    dim, seed, rows = 3, 13, _BATCH_ROWS - 5
    raw = []
    for s in np.random.SeedSequence(seed).spawn(workers):
        rng = np.random.default_rng(s)
        jumped = [np.random.Generator(rng.bit_generator.jumped(i)) for i in (1, 2)]
        raw += [g.standard_normal((rows, dim)) for g in [rng, *jumped]]
    got = sample(standard_normal(dim), 3 * rows * workers, seed, workers)
    np.testing.assert_array_equal(got, np.concatenate(raw))


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
    m = standard_normal(3)
    rows = lambda x: 1.0 + x  # N(1, 1) columns, one row per sample as the row contract asks
    ests = _integrate_columns(m, QuadratureSpec("monte_carlo", _CHUNK_ROWS, seed=2), rows, 3)
    data = rows(sample(m, _CHUNK_ROWS, seed=2))
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
    assert max(batches) <= _BATCH_ROWS and sum(batches) == order**dim
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


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        ("seed", -1, ValueError, "seed must be non-negative, got -1"),
        ("seed", 1.5, TypeError, "seed must be an integer, got 1.5"),
        ("seed", True, TypeError, "seed must be an integer, got True"),
        ("n_samples", 1000.0, TypeError, "n_samples must be an integer, got 1000.0"),
        ("n_samples", 0, ValueError, "n_samples must be positive, got 0"),
        ("workers", 1.5, TypeError, "workers must be an integer, got 1.5"),
        ("workers", 0, ValueError, "workers must be positive, got 0"),
    ],
)
def test_quadrature_spec_rejects_a_bad_field_when_built(field, value, error, message):
    fields = {"n_samples": 1000, "seed": 0, "workers": 1, field: value}
    with pytest.raises(error, match=f"^{message}$"):
        QuadratureSpec("monte_carlo", **fields)


def test_quadrature_spec_takes_numpy_integers():
    q = QuadratureSpec("monte_carlo", np.int64(1000), seed=np.uint32(2**32 - 1), workers=np.int32(2))
    assert expectation(standard_normal(1), lambda x: x[:, 0], q).std_error > 0.0


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


def _reduced_batches(monkeypatch):
    """Record the row count of every batch summary the fold sees, in its order; returns the list."""
    sizes = []
    merge = measures._merge

    def counted(summaries, n_cols):
        sizes.extend(summary[0] for summary in summaries)
        return merge(summaries, n_cols)

    monkeypatch.setattr(measures, "_merge", counted)
    return sizes


def test_ibp_monte_carlo_evaluates_the_field_once_per_chunk(monkeypatch):
    dim = 3
    phi, h = polynomial_pairs(dim, count=1, seed=0)[0]
    batches = []

    def counted_eval(x):
        batches.append(np.shape(x)[0])
        return h.eval(x)

    counted = VectorField(dim=dim, eval=counted_eval, jacobian=h.jacobian, divergence=h.divergence)
    n = 2 * _CHUNK_ROWS + 5
    reduced = _reduced_batches(monkeypatch)
    ibp_residual(standard_normal(dim), phi, counted, QuadratureSpec("monte_carlo", n, seed=1))
    # h sees each sample once, one call per reducer batch (twice would sum to 2n)
    assert sum(batches) == n and max(batches) <= _BATCH_ROWS
    assert reduced == [7944] * 30 + [7943] * 3  # the fewest near-equal batches of at most 8192 rows
    assert sorted(batches) == sorted(reduced)


def test_ibp_terms_evaluate_the_field_once_per_chunk_and_sum_to_the_residual(monkeypatch):
    dim = 3
    m = wiener_measure(make_lattice(dim, 1.0, 1))
    phi, h = polynomial_pairs(dim, count=1, seed=0)[0]
    batches = []

    def counted_eval(x):
        batches.append(np.shape(x)[0])
        return h.eval(x)

    counted = VectorField(dim=dim, eval=counted_eval, jacobian=h.jacobian, divergence=h.divergence)
    mc = QuadratureSpec("monte_carlo", 2 * _CHUNK_ROWS + 5, seed=1)
    reduced = _reduced_batches(monkeypatch)
    terms = ibp_terms(m, phi, counted, mc)
    assert sum(batches) == mc.n_samples and max(batches) <= _BATCH_ROWS
    assert reduced == _batch_sizes(mc) and sorted(batches) == sorted(reduced)
    scale = max(abs(t.value) for t in terms)
    assert sum(t.value for t in terms) == pytest.approx(ibp_residual(m, phi, h, mc).value, abs=1e-12 * scale)


def test_ibp_monte_carlo_is_deterministic():
    m = standard_normal(2)
    phi, h = polynomial_pairs(2, count=1, seed=4)[0]
    mc = QuadratureSpec("monte_carlo", 10_000, seed=11, workers=3)
    a = ibp_residual(m, phi, h, mc)
    b = ibp_residual(m, phi, h, mc)
    assert a.value == b.value and a.std_error == b.std_error


# ---------------------------------------------------------------------------
# the two-thread Monte Carlo pipeline against a sequential reference reducer


def _batch_sizes(q):
    """Rows of every Monte Carlo batch: each worker stream's share cut into the fewest
    near-equal batches of at most _BATCH_ROWS rows."""
    base, rem = divmod(q.n_samples, q.workers)
    sizes = []
    for share in [base + (w < rem) for w in range(q.workers)]:
        count = -(-share // _BATCH_ROWS)
        sizes += [share // count + (i < share % count) for i in range(count)]
    return sizes


def _sequential_reference(m, q, row_fn, n_cols):
    """(value, std_error) per column from a plain loop: sample()'s rows cut into the
    stream-and-batch layout, one row_fn call per batch, merged in order."""
    x = sample(m, q.n_samples, q.seed, q.workers)
    sizes = _batch_sizes(q)
    sums, total, mean, m2 = np.zeros(n_cols), 0, np.zeros(n_cols), np.zeros(n_cols)
    pos = 0
    for c in sizes:
        cols = np.asarray(row_fn(x[pos : pos + c]), dtype=float).reshape(c, n_cols)
        cols = np.ascontiguousarray(cols.T)
        pos += c
        col_sums = cols.sum(axis=1)
        sums += col_sums
        c_mean = col_sums / c
        delta = c_mean - mean
        merged = total + c
        mean += delta * (c / merged)
        m2 += ((cols - c_mean[:, None]) ** 2).sum(axis=1) + delta * delta * (total * c / merged)
        total = merged
    return [(v.hex(), se.hex()) for v, se in zip(sums / total, np.sqrt(m2 / total / (total - 1)))]


def _capture_pipeline(monkeypatch):
    """Record [m, q, row_fn, n_cols, sizes] of every Monte Carlo run, where sizes are the
    row counts of its row_fn calls; returns the list."""
    seen = []
    batches, run = measures._mc_batches, measures._run_batches

    def spy_batches(m, q):
        seen.append([m, q])
        return batches(m, q)

    def spy_run(points, row_fn, n_cols):
        sizes = []
        seen[-1] += [row_fn, n_cols, sizes]
        return run(points, _recorded_rows(row_fn, sizes), n_cols)

    monkeypatch.setattr(measures, "_mc_batches", spy_batches)
    monkeypatch.setattr(measures, "_run_batches", spy_run)
    return seen


def _estimates(ests):
    return [(e.value.hex(), None if e.std_error is None else e.std_error.hex()) for e in ests]


def _pipeline_call(name, q):
    """Run one public MC function; returns its (value, se) pairs in reducer column order
    (proposition1_check reports the residual's standard error alone)."""
    wiener = wiener_measure(make_lattice(3, 1.0, 1))
    phi, h = polynomial_pairs(3, count=1, seed=0)[0]
    if name == "ibp_residual":
        return _estimates([ibp_residual(wiener, phi, h, q)])
    if name == "ibp_terms":
        return _estimates(ibp_terms(wiener, phi, h, q))
    if name == "proposition1_check":
        res = proposition1_check(wiener, scaling_family(3), phi, q)
        return [res.lhs.hex(), res.rhs.hex(), (res.residual.hex(), res.std_error.hex())]
    if name == "expectation":
        return _estimates([expectation(wiener, lambda x: np.exp(0.3 * x[:, 0]) + x[:, 1] * x[:, 2], q)])
    p = SchrodingerProblem(1, harmonic_lagrangian(1), gaussian_bump(1, sigma=1.0), 0.5)
    probes = np.array([[-1.0], [0.0], [0.7]])
    return _estimates(feynman_mc(p, probes, make_lattice(8, 0.5, 1), q))


@pytest.mark.parametrize("n", [2, 2047, 2048, 8191, 8192, 8193, 3 * 8192 + 1, 2 * _CHUNK_ROWS + 5, 300001])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "name", ["ibp_residual", "ibp_terms", "proposition1_check", "expectation", "feynman_mc"]
)
def test_pipeline_is_bitwise_the_sequential_reducer(monkeypatch, name, workers, n):
    seen = _capture_pipeline(monkeypatch)
    got = _pipeline_call(name, QuadratureSpec("monte_carlo", n, seed=7, workers=workers))
    (m, q, row_fn, n_cols, sizes), = seen
    ref = _sequential_reference(m, q, row_fn, n_cols)
    if name == "proposition1_check":
        ref = [ref[0][0], ref[1][0], ref[2]]
    assert got == ref
    _assert_cache_sized(sizes, _batch_sizes(q))
    assert sorted(sizes) == sorted(_batch_sizes(q))  # one row_fn call per batch


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=32 * _BATCH_ROWS + 4096),
    workers=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pipeline_matches_the_sequential_reducer_for_any_layout(n, workers, seed):
    m = wiener_measure(make_lattice(2, 1.0, 1))
    q = QuadratureSpec("monte_carlo", n, seed=seed, workers=workers)

    def rows(x):
        return np.stack([np.sin(x[:, 0]) * x[:, 1], x[:, 0] ** 2], axis=1)

    assert _estimates(_integrate_columns(m, q, rows, 2)) == _sequential_reference(m, q, rows, 2)


class _FirstDrawHook:
    """A stream generator that runs hook() before its first draw: batch 0's draw, since
    the stream's later batches draw from its bit generator's jumps."""

    def __init__(self, rng, hook):
        self.rng, self.hook, self.draws = rng, hook, 0
        self.bit_generator = rng.bit_generator

    def standard_normal(self, size):
        self.draws += 1
        if self.draws == 1:
            self.hook()
        return self.rng.standard_normal(size)


def _hook_first_draws(monkeypatch, hook):
    rngs = measures._worker_rngs
    monkeypatch.setattr(
        measures, "_worker_rngs", lambda seed, workers: [_FirstDrawHook(r, hook) for r in rngs(seed, workers)]
    )


def test_a_slow_first_draw_does_not_move_the_values(monkeypatch):
    # five streams of two batches each; each stream's second batch draws while its first sleeps
    m = wiener_measure(make_lattice(3, 1.0, 1))
    q = QuadratureSpec("monte_carlo", 5 * (_BATCH_ROWS + 3048), seed=3, workers=5)
    rows = lambda x: x * x
    ref = _sequential_reference(m, q, rows, 3)
    _hook_first_draws(monkeypatch, lambda: time.sleep(0.02))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [_estimates(_integrate_columns(m, q, rows, 3)) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [ref] * 3


def test_both_streams_draw_at_once(monkeypatch):
    # one batch a stream: stream 0's draw waits for stream 1's draw to start
    if measures._mc_threads() == 1:
        pytest.skip("without the BLAS thread setter every batch runs on the calling thread")
    m = wiener_measure(make_lattice(3, 1.0, 1))
    q = QuadratureSpec("monte_carlo", 2 * _BATCH_ROWS, seed=9, workers=2)
    rows = lambda x: np.stack([x[:, 0] * x[:, 1], np.cos(x[:, 2])], axis=1)
    ref = _sequential_reference(m, q, rows, 2)
    stream_1_draws, waited, got = threading.Event(), [], []
    rngs = measures._worker_rngs
    hooks = (lambda: waited.append(stream_1_draws.wait(10.0)), stream_1_draws.set)
    monkeypatch.setattr(
        measures, "_worker_rngs",
        lambda seed, workers: [_FirstDrawHook(r, hook) for r, hook in zip(rngs(seed, workers), hooks)],
    )
    assert _finishes(lambda: got.append(_estimates(_integrate_columns(m, q, rows, 2)))) is None
    assert waited == [True] and got == [ref]


def test_two_batches_of_one_stream_draw_at_once(monkeypatch):
    # one stream of two batches: batch 0's draw waits until batch 1 has drawn
    if measures._mc_threads() == 1:
        pytest.skip("without the BLAS thread setter every batch runs on the calling thread")
    m = wiener_measure(make_lattice(3, 1.0, 1))
    q = QuadratureSpec("monte_carlo", 2 * _BATCH_ROWS, seed=9)
    rows = lambda x: np.stack([x[:, 0] * x[:, 1], np.cos(x[:, 2])], axis=1)
    ref = _sequential_reference(m, q, rows, 2)
    batch_1_drawn, waited, got = threading.Event(), [], []
    _hook_first_draws(monkeypatch, lambda: waited.append(batch_1_drawn.wait(10.0)))
    transform = measures._transform

    def mapped(m, z):
        batch_1_drawn.set()  # batch 0 maps only after its hook has returned
        return transform(m, z)

    monkeypatch.setattr(measures, "_transform", mapped)
    assert _finishes(lambda: got.append(_estimates(_integrate_columns(m, q, rows, 2)))) is None
    assert waited == [True] and got == [ref]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sample_is_the_sequential_whole_batch_draw(workers):
    # each batch drawn whole from its jump of its stream and mapped on its own, in slot order
    m = wiener_measure(make_lattice(4, 1.0, 1))
    q = QuadratureSpec("monte_carlo", 2 * _CHUNK_ROWS + 7, seed=5, workers=workers)
    sizes, shares, ref = iter(_batch_sizes(q)), measures._worker_shares(q.n_samples, workers), []
    for s, share in zip(np.random.SeedSequence(q.seed).spawn(workers), shares):
        rng = np.random.default_rng(s)
        count = -(-share // _BATCH_ROWS)
        gens = [rng] + [np.random.Generator(rng.bit_generator.jumped(i)) for i in range(1, count)]
        ref += [_transform(m, g.standard_normal((next(sizes), m.dim))) for g in gens]
    assert sample(m, q.n_samples, q.seed, workers).tobytes() == np.concatenate(ref).tobytes()


def test_pipeline_holds_blas_to_one_thread_and_restores_it():
    blas = measures._openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS thread setter is not available here")
    get, put = blas
    before = get()
    seen = []

    def rows(x):
        seen.append(get())
        return x[:, 0]

    def broken(x):
        raise RuntimeError("row function failed")

    mc = QuadratureSpec("monte_carlo", 10_000, seed=1)
    put(2)
    try:
        expectation(standard_normal(2), rows, mc)
        assert set(seen) == {1} and get() == 2
        with pytest.raises(RuntimeError, match="row function failed"):
            expectation(standard_normal(2), broken, mc)
        assert get() == 2
    finally:
        put(before)


def _finishes(fn, timeout=60.0):
    """Run fn in a thread joined with a timeout; returns the exception it raised, or None."""
    out = {}

    def target():
        try:
            fn()
        except Exception as exc:
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the Monte Carlo pipeline did not return"
    return out.get("error")


def _calls_until_a_failure(m, q, first_row, failure):
    """Row counts of the row_fn calls of an integral whose batch starting at first_row
    fails, under a short switch interval; the failure must reach the caller."""
    calls = []
    lock = threading.Lock()

    def rows(x):
        with lock:
            calls.append(len(x))
        out = x[:, :1].copy()
        if np.array_equal(x[0], first_row):
            if failure == "raises":
                raise RuntimeError("batch failed")
            out[0] = np.nan
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        error = _finishes(lambda: _integrate_columns(m, q, rows, 1))
    finally:
        sys.setswitchinterval(interval)
    assert isinstance(error, RuntimeError if failure == "raises" else ValueError)
    return calls


@pytest.mark.parametrize("failure", ["raises", "non_finite"])
def test_a_failing_part_stops_the_pipeline_promptly(failure):
    # 8 batches; batch 2 in stream order fails, found by its first row
    m, mc = standard_normal(2), QuadratureSpec("monte_carlo", 8 * _BATCH_ROWS, seed=1)
    calls = _calls_until_a_failure(m, mc, sample(m, mc.n_samples, mc.seed)[_BATCH_ROWS], failure)
    assert len(calls) <= 4  # batches 1 to 4: batch 5 is submitted only after batch 2's result


def test_a_failed_draw_reaches_the_caller(monkeypatch):
    def fail():
        raise RuntimeError("draw failed")

    _hook_first_draws(monkeypatch, fail)
    mc = QuadratureSpec("monte_carlo", 2 * _CHUNK_ROWS, seed=1, workers=2)
    error = _finishes(lambda: _integrate_columns(standard_normal(2), mc, lambda x: x, 2))
    assert isinstance(error, RuntimeError) and str(error) == "draw failed"


def test_no_batch_draws_after_a_batch_fails(monkeypatch):
    # four batches of one stream; the first row_fn call fails once both threads' batches have
    # drawn, and the other batch returns well after the failure: neither batch left may draw
    if measures._mc_threads() == 1:
        pytest.skip("without the BLAS thread setter every batch runs on the calling thread")
    drawn, calls, failing, lock = [], [], threading.Event(), threading.Lock()
    transform = measures._transform

    def counted(m, z):
        with lock:
            drawn.append(len(z))
        return transform(m, z)

    def rows(x):
        with lock:
            calls.append(len(x))
            first = len(calls) == 1
        if first:
            deadline = time.monotonic() + 10.0
            while len(drawn) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            failing.set()
            raise RuntimeError("batch failed")
        failing.wait(10.0)
        time.sleep(0.2)  # time for the failing batch to flag its failure
        return x[:, :1]

    monkeypatch.setattr(measures, "_transform", counted)
    mc = QuadratureSpec("monte_carlo", 4 * _BATCH_ROWS, seed=1)
    error = _finishes(lambda: _integrate_columns(standard_normal(2), mc, rows, 1))
    assert isinstance(error, RuntimeError) and str(error) == "batch failed"
    assert drawn == [_BATCH_ROWS] * 2


def test_the_callers_floating_point_state_reaches_the_parts():
    # arctan(1 / 0) is finite, but the division warns, and pytest turns the warning into an error;
    # 20000 samples are three batches, so the pool evaluates them
    f = lambda x: np.arctan(1.0 / (0.0 * x[:, 0]))
    mc = QuadratureSpec("monte_carlo", 20_000, seed=1)
    with np.errstate(divide="ignore"):
        assert expectation(standard_normal(1), f, mc).value == pytest.approx(0.0, abs=0.1)


# ---------------------------------------------------------------------------
# cache-sized batches: both rules evaluated on the pool, bitwise the sequential loops


def _gauss_hermite_reference(m, order, row_fn, n_cols):
    """Column values of the tensor rule from a plain loop: every node by meshgrid, the
    weight products taken axis by axis, one row_fn call per _BATCH_ROWS batch."""
    xi, w = np.polynomial.hermite.hermgauss(order)
    idx = [g.reshape(-1) for g in np.meshgrid(*([np.arange(order)] * m.dim), indexing="ij")]
    z = np.sqrt(2.0) * np.stack([xi[i] for i in idx], axis=1)
    weights = np.ones(len(z))
    for i in idx:
        weights = weights * w[i]
    weights = weights / np.pi ** (m.dim / 2.0)
    sums = np.zeros(n_cols)
    for start in range(0, len(z), _BATCH_ROWS):
        x = _transform(m, z[start : start + _BATCH_ROWS])
        cols = np.ascontiguousarray(np.asarray(row_fn(x), dtype=float).reshape(len(x), n_cols).T)
        sums += (cols * weights[start : start + _BATCH_ROWS]).sum(axis=1)
    return [v.hex() for v in sums]


def _recorded_rows(row_fn, sizes):
    """row_fn that records the row count of every call in sizes (from any thread)."""

    def rows(x):
        sizes.append(len(x))
        return row_fn(x)

    return rows


def _assert_cache_sized(sizes, batches):
    """Every call is at most _BATCH_ROWS rows."""
    assert sum(sizes) == sum(batches) and max(sizes) <= _BATCH_ROWS


# order**dim: 20, 8281 (a tail of 89 rows), 9261, 10000, 16807 (a tail of 423) and 262144 (32 batches)
@pytest.mark.parametrize("dim, order", [(1, 20), (2, 91), (3, 21), (4, 10), (5, 7), (6, 8)])
@pytest.mark.parametrize("shifted", [False, True], ids=["standard", "shifted_wiener"])
def test_gauss_hermite_parts_are_bitwise_the_whole_batch_rule(dim, order, shifted):
    m = standard_normal(dim)
    if shifted:
        m = GaussianMeasure(dim, np.linspace(-0.5, 0.5, dim), wiener_measure(make_lattice(dim, 1.0, 1)).precision)
    mix = np.linspace(0.5, 1.5, dim * dim).reshape(dim, dim)

    def f(x):
        return np.stack([np.cos(x @ mix).sum(axis=1), np.sum(x * x, axis=1), np.exp(0.2 * x[:, 0])], axis=1)

    sizes = []
    got = _integrate_columns(m, QuadratureSpec("gauss_hermite", order), _recorded_rows(f, sizes), 3)
    assert [e.value.hex() for e in got] == _gauss_hermite_reference(m, order, f, 3)
    assert all(e.std_error is None for e in got)
    n_nodes = order**dim
    _assert_cache_sized(sizes, [min(_BATCH_ROWS, n_nodes - s) for s in range(0, n_nodes, _BATCH_ROWS)])


def _traced_peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_is_bounded_by_parts_not_batches():
    # a (131072, 32) temporary alone is 32 MiB
    phi, h = polynomial_pairs(32, count=1, seed=0)[0]
    mc = QuadratureSpec("monte_carlo", 2 * _CHUNK_ROWS, seed=1)
    assert _traced_peak_mib(lambda: ibp_residual(standard_normal(32), phi, h, mc)) < 32.0


def test_gauss_hermite_memory_is_bounded_by_parts_not_batches():
    # the dim-6, order-8 rule is two full batches of 131072 nodes
    phi, h = polynomial_pairs(6, count=1, seed=0)[0]
    m = wiener_measure(make_lattice(6, 1.0, 1))
    assert _traced_peak_mib(lambda: ibp_residual(m, phi, h, QuadratureSpec("gauss_hermite", 8))) < 16.0


def test_gauss_hermite_holds_blas_to_one_thread_and_restores_it():
    blas = measures._openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS thread setter is not available here")
    get, put = blas
    before = get()
    seen = []

    def rows(x):
        seen.append(get())
        return x[:, 0]

    def broken(x):
        raise RuntimeError("row function failed")

    gh = QuadratureSpec("gauss_hermite", 12)  # 12**4 = 20736 nodes, three batches
    put(2)
    try:
        expectation(standard_normal(4), rows, gh)
        assert len(seen) == 3 and set(seen) == {1} and get() == 2
        with pytest.raises(RuntimeError, match="row function failed"):
            expectation(standard_normal(4), broken, gh)
        assert get() == 2
    finally:
        put(before)


@pytest.mark.parametrize("failure", ["raises", "non_finite"])
def test_a_failing_gauss_hermite_part_stops_the_rule_promptly(failure):
    # the dim-6, order-8 rule is 32 batches; batch 2 fails, found by its first node, rule index 8192
    xi = np.polynomial.hermite.hermgauss(8)[0]
    first_row = np.sqrt(2.0) * xi[list(np.unravel_index(_BATCH_ROWS, (8,) * 6))]
    calls = _calls_until_a_failure(standard_normal(6), QuadratureSpec("gauss_hermite", 8), first_row, failure)
    assert len(calls) <= 4  # batches 1 to 4: batch 5 is submitted only after batch 2's result


def test_at_most_one_batch_more_than_the_pool_has_threads_is_submitted_ahead():
    threads = measures._mc_threads()
    if threads == 1:
        pytest.skip("without the BLAS thread setter every batch runs on the calling thread")
    started, lock = [], threading.Lock()
    started_while_batch_0_is_awaited = []

    def batch(i):
        def points():
            with lock:
                started.append(i)
            return np.full((4, 1), float(i)), None

        return points

    def rows(x):
        if x[0, 0] == 0.0:
            # hold batch 0 until the other thread has drawn what it was given, then give it time for more
            deadline = time.monotonic() + 10.0
            while len(started) < threads + 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.2)
            # the caller is blocked on batch 0's result: every batch started so far was submitted ahead of it
            started_while_batch_0_is_awaited.append(len(started))
        return x

    summaries = []
    run = lambda: summaries.extend(measures._run_batches([batch(i) for i in range(32)], rows, 1))
    assert _finishes(run) is None
    assert started_while_batch_0_is_awaited[0] <= threads + 1
    assert sorted(started) == list(range(32)) and [s[0] for s in summaries] == [4] * 32


def test_the_callers_floating_point_state_reaches_the_gauss_hermite_parts():
    # 40**3 = 64000 nodes in eight batches; the division by zero warns in every one of them
    f = lambda x: np.arctan(1.0 / (0.0 * x[:, 0]))
    with np.errstate(divide="ignore"):
        assert np.isfinite(expectation(standard_normal(3), f, QuadratureSpec("gauss_hermite", 40)).value)


def _no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was started")


def test_a_call_of_one_batch_runs_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(measures, "ThreadPoolExecutor", _no_pool)
    blas = measures._openblas_threads()
    m = wiener_measure(make_lattice(2, 1.0, 1))
    seen = []

    def f(x):
        return np.stack([np.cos(x).sum(axis=1), x[:, 0] ** 2], axis=1)

    def rows(x):
        seen.append((threading.get_ident(), blas[0]() if blas else 1))
        return f(x)

    gh = _integrate_columns(m, QuadratureSpec("gauss_hermite", 6), rows, 2)  # 36 nodes
    assert [e.value.hex() for e in gh] == _gauss_hermite_reference(m, 6, f, 2)
    mc = QuadratureSpec("monte_carlo", 5000, seed=3)
    assert _estimates(_integrate_columns(m, mc, rows, 2)) == _sequential_reference(m, mc, f, 2)
    # both ran on this thread, with OpenBLAS held to one thread
    assert seen == [(threading.get_ident(), 1)] * 2


@pytest.mark.parametrize(
    "quad",
    [QuadratureSpec("monte_carlo", 30_000, seed=2), QuadratureSpec("monte_carlo", 30_000, seed=2, workers=3),
     QuadratureSpec("gauss_hermite", 30)],
    ids=["monte_carlo_1", "monte_carlo_3", "gauss_hermite"],
)
def test_without_the_blas_thread_setter_one_thread_gives_the_same_bits(monkeypatch, quad):
    # 30000 samples or 30**3 = 27000 nodes: four batches, or two per stream
    m = GaussianMeasure(3, np.linspace(-0.5, 0.5, 3), wiener_measure(make_lattice(3, 1.0, 1)).precision)
    rows = lambda x: np.stack([np.sin(x[:, 0]) * x[:, 1], np.exp(0.2 * x[:, 2])], axis=1)
    two = _estimates(_integrate_columns(m, quad, rows, 2))
    monkeypatch.setattr(measures, "_openblas_threads", lambda: None)
    monkeypatch.setattr(measures, "ThreadPoolExecutor", _no_pool)
    assert measures._mc_threads() == 1
    assert _estimates(_integrate_columns(m, quad, rows, 2)) == two


# ---------------------------------------------------------------------------
# glibc's malloc thresholds, set once per process so batches reuse freed pages

_MIB = 1 << 20
_SET = [(-3, 32 * _MIB), (-1, 64 * _MIB), (-8, 1)]  # mmap threshold, trim threshold, arena max
_BATCHED = [QuadratureSpec("monte_carlo", 30_000, seed=4), QuadratureSpec("gauss_hermite", 30)]


def _batched_expectations():
    # 30000 samples or 30**3 = 27000 nodes: four batches each, on the pool
    m = GaussianMeasure(3, np.linspace(-0.5, 0.5, 3), wiener_measure(make_lattice(3, 1.0, 1)).precision)
    f = lambda x: np.sin(x[:, 0]) * x[:, 1] + np.exp(0.2 * x[:, 2])
    return [_estimates([expectation(m, f, q)]) for q in _BATCHED]


@pytest.fixture
def fake_libc(monkeypatch):
    """Point the helper at a fake libc handle whose mallopt records its calls; the
    helper's cache is cleared around the test, so the real libc is asked again after it."""
    for name in _MALLOC_TUNABLES + ("GLIBC_TUNABLES",):
        monkeypatch.delenv(name, raising=False)
    calls, handle = [], SimpleNamespace(result=1, error=None)

    def mallopt(param, value):
        calls.append((param, value))
        return handle.result

    handle.mallopt = mallopt
    real_cdll = measures.ctypes.CDLL

    def cdll(name):
        # only the process's own handle is faked: a cold _openblas_threads must still find OpenBLAS
        if name is not None:
            return real_cdll(name)
        if handle.error:
            raise handle.error
        return handle

    monkeypatch.setattr(measures.ctypes, "CDLL", cdll)
    measures._keep_batch_heap.cache_clear()
    yield handle, calls
    measures._keep_batch_heap.cache_clear()


def test_batches_set_the_malloc_thresholds_and_one_arena_once_per_process(fake_libc):
    handle, calls = fake_libc
    ref = _batched_expectations()
    assert calls == _SET
    assert measures._keep_batch_heap() is True
    assert _batched_expectations() == ref
    assert calls == _SET


def _refused(handle, monkeypatch):
    handle.result = 0


def _no_symbol(handle, monkeypatch):
    del handle.mallopt


def _no_handle(handle, monkeypatch):
    handle.error = TypeError("no default library")  # as ctypes.CDLL(None) raises on Windows


def _tunable(name, value):
    return lambda handle, monkeypatch: monkeypatch.setenv(name, value)


@pytest.mark.parametrize(
    "case, asked",
    [(_refused, [(-3, 32 * _MIB)]), (_no_symbol, []), (_no_handle, [])]
    + [(_tunable(name, "1048576"), []) for name in _MALLOC_TUNABLES]
    + [(_tunable("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=1048576"), [])],
    ids=["mallopt_returns_0", "no_mallopt_symbol", "no_libc_handle"]
    + [f"env_{name}" for name in _MALLOC_TUNABLES] + ["env_GLIBC_TUNABLES_malloc"],
)
def test_the_thresholds_are_left_alone_without_mallopt_or_under_user_tunables(
    fake_libc, monkeypatch, case, asked
):
    ref = _batched_expectations()
    handle, calls = fake_libc
    measures._keep_batch_heap.cache_clear()
    calls.clear()
    case(handle, monkeypatch)
    assert _batched_expectations() == ref
    assert measures._keep_batch_heap() is False
    assert calls == asked


def test_a_tunable_outside_malloc_does_not_stop_the_thresholds(fake_libc, monkeypatch):
    handle, calls = fake_libc
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.pthread.rseq=0")
    assert measures._keep_batch_heap() is True
    assert calls == _SET


_FAULTS_CHILD = """
import resource
import logmeasure as lm
p = lm.SchrodingerProblem(1, lm.harmonic_lagrangian(1), lm.gaussian_bump(1, sigma=1.0), 0.5)
lattice = lm.make_lattice(64, 0.5, 1)
specs = [lm.QuadratureSpec("monte_carlo", 131072, seed=seed, workers=2) for seed in range(21)]
lm.feynman_mc(p, [0.0], lattice, specs[0])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for spec in specs[1:]:
    lm.feynman_mc(p, [0.0], lattice, spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_mc_batches_reuse_freed_pages_in_a_fresh_process():
    # twenty 131072-sample, 64-step feynman_mc calls on two streams after one warm-up call:
    # 160-705 minor faults in 22 fresh processes with the settings (8 a call, about 520 more
    # in the odd call), 22k-482k in 22 without them; ten calls would leave too little
    # margin, since without the settings a process now and then faults only ~2.6k in ten
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in _MALLOC_TUNABLES + ("GLIBC_TUNABLES",)}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS_CHILD], env=env, capture_output=True, text=True, check=True
    )
    assert int(out.stdout) < 5_000
