"""Gaussian measures and their logarithmic derivatives.

The logarithmic derivative along a vector k follows the subtraction
convention for the shift family S(t)(x) = x - t k, which for a Gaussian with
precision P and mean m gives

    beta(k, x) = -(x - m)^T P k = grad log p(x) . k.

Differentiating along a vector field h adds the divergence of h:

    beta_h(x) = beta(h(x), x) + trace h'(x),

and the integration-by-parts identity E[phi' . h] + E[phi * beta_h] = 0 is the
primary consistency check (ibp_residual).

Precision is the primary parameterization; covariance is derived on demand.

Every integral in the package runs on one engine: _chunks yields batches of
at most _CHUNK_ROWS points (Monte Carlo draws or Gauss-Hermite tensor-rule
nodes with their weights) and _integrate_columns reduces the columns a row
function returns for each batch; sample() fills its output from the same
batches.  Monte Carlo work is split across `workers` deterministic RNG
streams derived from SeedSequence(seed).spawn(workers), so results are
bitwise reproducible for a fixed (seed, workers) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

import numpy as np
from scipy.linalg import solve_triangular

from .fields import TestFunction, VectorField
from .lattice import TimeLattice, cm_gram

_LOG_2PI = float(np.log(2.0 * np.pi))
_MAX_GH_DIM = 6
_CHUNK_ROWS = 131072


class QuadratureKind(str, Enum):
    MONTE_CARLO = "monte_carlo"
    GAUSS_HERMITE = "gauss_hermite"


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: MC sample count or Gauss-Hermite nodes per axis.

    For kind = gauss_hermite, ``n_samples`` is the node count per dimension
    (exact for polynomials of degree <= 2 * n_samples - 1); the tensor rule is
    guarded to dim <= 6.
    """

    kind: QuadratureKind
    n_samples: int
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kind", QuadratureKind(self.kind))
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.workers <= 0:
            raise ValueError("workers must be positive")


@dataclass(frozen=True)
class Estimate:
    """A real number with its standard error (None for deterministic rules)."""

    value: float
    std_error: Optional[float] = None


@dataclass(frozen=True)
class FieldLogDerivative:
    """beta_h(x) split into its frozen-vector part and the divergence part."""

    vector_term: float
    trace_term: float
    total: float


@dataclass(frozen=True)
class GaussianMeasure:
    """Gaussian measure on R^dim given by mean and SPD precision matrix."""

    dim: int
    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        prec = np.array(self.precision, dtype=float)
        if mean.shape != (self.dim,):
            raise ValueError(f"mean must have shape ({self.dim},), got {mean.shape}")
        if prec.shape != (self.dim, self.dim):
            raise ValueError("precision must be a square matrix matching dim")
        scale = max(1.0, float(np.abs(prec).max()))
        if not np.allclose(prec, prec.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("precision matrix is not symmetric")
        prec = 0.5 * (prec + prec.T)
        try:
            chol = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError as exc:
            raise ValueError("precision matrix is not positive definite") from exc
        # x = mean + L^{-T} z, taken row-wise as z @ L^{-1}, maps N(0, I) onto the measure
        chol_inv = solve_triangular(chol, np.eye(self.dim), lower=True)
        for arr in (mean, prec, chol, chol_inv):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", prec)
        object.__setattr__(self, "_chol_lower", chol)
        object.__setattr__(self, "_chol_inv", chol_inv)
        object.__setattr__(self, "_standard", not mean.any() and np.array_equal(prec, np.eye(self.dim)))

    @property
    def chol_lower(self) -> np.ndarray:
        """Lower-triangular L with precision = L L^T."""
        return self._chol_lower

    @property
    def log_norm_const(self) -> float:
        """log of the normalization Z = (2 pi)^{d/2} det(P)^{-1/2}."""
        half_logdet = float(np.sum(np.log(np.diag(self._chol_lower))))
        return 0.5 * self.dim * _LOG_2PI - half_logdet

    def covariance(self) -> np.ndarray:
        return self._chol_inv.T @ self._chol_inv

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density, vectorized over rows of x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        delta = x - self.mean
        quad = np.einsum("ij,ij->i", delta @ self.precision, delta)
        out = -0.5 * quad - self.log_norm_const
        return out if out.size > 1 else float(out[0])


def standard_normal(dim: int) -> GaussianMeasure:
    return GaussianMeasure(dim, np.zeros(dim), np.eye(dim))


def wiener_measure(
    lattice: TimeLattice, kinetic_matrix: np.ndarray | None = None
) -> GaussianMeasure:
    """Discretized Wiener measure: mean zero, precision = Cameron-Martin Gram.

    With a kinetic weighting B the energy of the sampled measure is exactly
    sum_j 0.5 (dpsi_j/dt)^T B (dpsi_j/dt) dt.
    """
    gram = cm_gram(lattice, kinetic_matrix)
    return GaussianMeasure(lattice.dim, np.zeros(lattice.dim), gram.matrix)


# ---------------------------------------------------------------------------
# sampling and quadrature engines


def _worker_rngs(seed: int, workers: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(workers)]


def _worker_shares(n: int, workers: int) -> list[int]:
    base, rem = divmod(n, workers)
    return [base + (1 if w < rem else 0) for w in range(workers)]


def _transform(m: GaussianMeasure, z: np.ndarray) -> np.ndarray:
    """Map standard normal rows z onto m; z itself is returned for N(0, I).

    x = mean + L^{-T} z has covariance (L L^T)^{-1} = P^{-1}.
    """
    if m._standard:
        return z
    x = z @ m._chol_inv
    if m.mean.any():
        x += m.mean
    return x


@lru_cache(maxsize=32)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(order)


def _chunks(
    m: GaussianMeasure, q: QuadratureSpec
) -> Iterator[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Yield (points, weights) batches of at most _CHUNK_ROWS rows mapped onto m.

    Monte Carlo batches are the worker streams' draws in stream order, with
    weights None (each row counts 1/n).  Gauss-Hermite batches are
    consecutive index ranges of the tensor rule in C order, with weights that
    sum to 1 over the whole rule; only one batch of the order**dim nodes is
    ever held.
    """
    if q.kind is QuadratureKind.MONTE_CARLO:
        for rng, share in zip(_worker_rngs(q.seed, q.workers), _worker_shares(q.n_samples, q.workers)):
            for done in range(0, share, _CHUNK_ROWS):
                take = min(_CHUNK_ROWS, share - done)
                yield _transform(m, rng.standard_normal((take, m.dim))), None
        return
    if m.dim > _MAX_GH_DIM:
        raise ValueError(
            f"gauss_hermite quadrature is guarded to dim <= {_MAX_GH_DIM}, got dim {m.dim}"
        )
    xi, w = _hermite_rule(q.n_samples)
    shape = (len(xi),) * m.dim
    n_nodes = len(xi) ** m.dim
    for start in range(0, n_nodes, _CHUNK_ROWS):
        idx = np.unravel_index(np.arange(start, min(start + _CHUNK_ROWS, n_nodes)), shape)
        nodes_std = np.stack([xi[i] for i in idx], axis=1)
        weights = np.ones(nodes_std.shape[0])
        for i in idx:
            weights = weights * w[i]
        yield _transform(m, np.sqrt(2.0) * nodes_std), weights / np.pi ** (m.dim / 2.0)


def sample(m: GaussianMeasure, n: int, seed: int, workers: int = 1) -> np.ndarray:
    """Draw n iid samples; deterministic for fixed (seed, workers)."""
    if n <= 0:
        raise ValueError("n must be positive")
    out = np.empty((n, m.dim))
    pos = 0
    for x, _ in _chunks(m, QuadratureSpec(QuadratureKind.MONTE_CARLO, n, seed, workers)):
        out[pos : pos + len(x)] = x
        pos += len(x)
    return out


def _integrate_columns(
    m: GaussianMeasure, q: QuadratureSpec, row_fn: Callable[[np.ndarray], np.ndarray], n_cols: int
) -> list[Estimate]:
    """Integrate each column of row_fn against m, one batch of _chunks at a time.

    row_fn maps a batch (c, dim) to (c, n_cols).  A Monte Carlo value is the
    plain column sum over n; its standard error comes from per-batch
    (count, mean, M2) merged by the Chan-Golub-LeVeque update, which keeps
    its digits when the column's mean dwarfs its spread.  Gauss-Hermite
    values are weighted sums and carry std_error None.  A batch with a
    non-finite row raises ValueError rather than returning a NaN estimate,
    and so does a Monte Carlo spec of fewer than 2 samples, whose standard
    error is undefined.
    """
    if q.kind is QuadratureKind.MONTE_CARLO and q.n_samples < 2:
        raise ValueError("a Monte Carlo estimate needs at least 2 samples for its standard error")
    sums = np.zeros(n_cols)
    total, mean, m2 = 0, np.zeros(n_cols), np.zeros(n_cols)
    for x, weights in _chunks(m, q):
        cols = np.asarray(row_fn(x), dtype=float).reshape(len(x), n_cols)
        bad = np.count_nonzero(~np.isfinite(cols).all(axis=1))
        if bad:
            raise ValueError(f"{bad} of {len(x)} rows in a batch have a non-finite value")
        # one contiguous row per column: numpy sums each pairwise, whatever the column count
        cols = np.ascontiguousarray(cols.T)
        if weights is not None:
            sums += (cols * weights).sum(axis=1)
            continue
        c = len(x)
        col_sums = cols.sum(axis=1)
        sums += col_sums
        c_mean = col_sums / c
        delta = c_mean - mean
        merged = total + c
        mean += delta * (c / merged)
        m2 += ((cols - c_mean[:, None]) ** 2).sum(axis=1) + delta * delta * (total * c / merged)
        total = merged
    if q.kind is QuadratureKind.GAUSS_HERMITE:
        return [Estimate(float(v)) for v in sums]
    ses = np.sqrt(m2 / total / (total - 1))
    return [Estimate(float(v), float(se)) for v, se in zip(sums / total, ses)]


def expectation(
    m: GaussianMeasure,
    f: Union[TestFunction, Callable[[np.ndarray], np.ndarray]],
    q: QuadratureSpec,
) -> Estimate:
    """Integrate a scalar observable against the measure.

    Gauss-Hermite is exact for polynomials of degree <= 2 * order - 1; Monte
    Carlo attaches a standard error.
    """
    fn = f.evaluator if isinstance(f, TestFunction) else f
    return _integrate_columns(m, q, lambda x: np.asarray(fn(x)).reshape(-1, 1), 1)[0]


# ---------------------------------------------------------------------------
# logarithmic derivatives


def log_derivative_along_vector(m: GaussianMeasure, k: np.ndarray, x: np.ndarray) -> float:
    """beta(k, x) = -(x - mean)^T P k under the shift convention S(t)x = x - t k."""
    k = np.asarray(k, dtype=float).reshape(m.dim)
    x = np.asarray(x, dtype=float).reshape(m.dim)
    return float(-(x - m.mean) @ (m.precision @ k))


def _vector_log_derivative_batch(m: GaussianMeasure, kk: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Row-wise beta(k_i, x_i) for stacked vectors and points."""
    if m._standard:
        return -np.einsum("ij,ij->i", xx, kk)
    delta = xx - m.mean if m.mean.any() else xx
    return -np.einsum("ij,ij->i", delta @ m.precision, kk)


def _check_field_dim(m: GaussianMeasure, h: VectorField) -> None:
    if h.dim != m.dim:
        raise ValueError(f"field dimension {h.dim} does not match measure dimension {m.dim}")


def log_derivative_along_field(
    m: GaussianMeasure, h: VectorField, x: np.ndarray
) -> FieldLogDerivative:
    """beta_h(x) = beta(h(x), x) + trace h'(x), with the summands kept apart.

    The difference between the field derivative and the derivative along the
    frozen vector k = h(x) is exactly the trace term.
    """
    _check_field_dim(m, h)
    x = np.asarray(x, dtype=float).reshape(m.dim)
    vector_term = log_derivative_along_vector(m, h.eval_at(x), x)
    trace_term = h.divergence_at(x)
    return FieldLogDerivative(vector_term, trace_term, vector_term + trace_term)


def _field_log_derivative_rows(
    m: GaussianMeasure, h: VectorField, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise h(x), beta(h(x), x) and div h(x) on a batch; h is evaluated once."""
    hx = np.asarray(h.eval(x), dtype=float)
    return hx, _vector_log_derivative_batch(m, hx, x), h.divergence_batch(x)


def _ibp_integrand(
    m: GaussianMeasure, phi: TestFunction, h: VectorField, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise phi' . h, phi, beta(h(x), x) and div h on a batch."""
    # phi.gradient runs before h: holding hx, beta and div through it raised the MC peak RSS
    grad = np.asarray(phi.gradient(x), dtype=float)
    hx, beta, div = _field_log_derivative_rows(m, h, x)
    grad_dot_h = np.einsum("ij,ij->i", grad, hx)
    return grad_dot_h, np.asarray(phi.evaluator(x), dtype=float), beta, div


def ibp_residual(
    m: GaussianMeasure, phi: TestFunction, h: VectorField, q: QuadratureSpec
) -> Estimate:
    """Integration-by-parts residual E[phi' . h] + E[phi * beta_h]; zero in exact arithmetic.

    Monte Carlo evaluates the residual as a single per-sample column so the
    returned standard error is the standard error of the residual itself.
    """
    _check_field_dim(m, h)

    def rows(x: np.ndarray) -> np.ndarray:
        grad_dot_h, phi_x, beta, div = _ibp_integrand(m, phi, h, x)
        return (grad_dot_h + phi_x * (beta + div)).reshape(-1, 1)

    return _integrate_columns(m, q, rows, 1)[0]


def ibp_terms(
    m: GaussianMeasure, phi: TestFunction, h: VectorField, q: QuadratureSpec
) -> tuple[Estimate, Estimate, Estimate]:
    """The three summands E[phi' . h], E[phi beta(h(x), x)] and E[phi div h] in one pass.

    They sum to ibp_residual up to rounding; the last is the trace term that
    the frozen-vector derivative misses.
    """
    _check_field_dim(m, h)

    def rows(x: np.ndarray) -> np.ndarray:
        grad_dot_h, phi_x, beta, div = _ibp_integrand(m, phi, h, x)
        return np.stack([grad_dot_h, phi_x * beta, phi_x * div], axis=1)

    return tuple(_integrate_columns(m, q, rows, 3))
