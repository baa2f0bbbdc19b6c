"""Flows of transformations: generators, Jacobians, pushforward derivatives.

Sign conventions, fixed once for the whole package:

* The generator of a family uses the subtraction convention
  h_S(x) = -d/dalpha S(alpha)(x)|_0, so the shift family S(alpha)x = x - alpha k
  has generator k, matching the vector convention in :mod:`logmeasure.measures`.
* The flow velocity is V = -h_S.  Along a flow, the spatial Jacobian satisfies
  log det dS(alpha)/dx = + integral_0^alpha trace V'(y(s)) ds, which is the
  orientation used by trace_integral_along_flow and the anomaly bookkeeping.
* proposition1_check reports lhs = d/dalpha E[phi(S(alpha, X))]|_0 and
  rhs = E[phi' . h_S]; with the subtraction convention these satisfy
  lhs + rhs = 0, so the residual is their sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SingularJacobianError
from .fields import DensityCurve, TestFunction, TransformationFamily, VectorField, _as_batch, negated
from .measures import (
    Estimate,
    GaussianMeasure,
    QuadratureSpec,
    _integrate_columns,
    log_derivative_along_field,
)


def generator(family: TransformationFamily, fd_step: float = 1e-5) -> VectorField:
    """Finite-difference generator h_S(x) = -d/dalpha S(alpha)(x)|_0.

    Central differences with step fd_step * (1 + |x|); batched calls share the
    largest step in the batch.  The Jacobian differentiates alpha_jacobian in
    alpha when the family supplies it, else falls back to nested differencing
    of the generator itself with an outer step of sqrt(fd_step) scale.
    """

    def h_eval(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        step = fd_step * (1.0 + float(np.max(np.linalg.norm(x, axis=1))))
        return -(family.eval(step, x) - family.eval(-step, x)) / (2.0 * step)

    def h_jac(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if family.alpha_jacobian is None:
            return VectorField(family.dim, h_eval).jacobian_at(x, np.sqrt(fd_step))
        step = fd_step * (1.0 + float(np.linalg.norm(x)))
        jp = np.asarray(family.alpha_jacobian(step, x), dtype=float)
        jm = np.asarray(family.alpha_jacobian(-step, x), dtype=float)
        return -(jp - jm) / (2.0 * step)

    return VectorField(
        dim=family.dim, eval=h_eval, jacobian=h_jac, label=f"generator({family.label})"
    )


def family_generator(family: TransformationFamily, fd_step: float = 1e-5) -> VectorField:
    """The family's analytic generator when available, else the FD generator."""
    if family.generator_field is not None:
        return family.generator_field
    return generator(family, fd_step)


def family_velocity(family: TransformationFamily, fd_step: float = 1e-5) -> VectorField:
    """Flow velocity V = -h_S = +d/dalpha S(alpha)(x)|_0."""
    return negated(family_generator(family, fd_step), label=f"velocity({family.label})")


def jacobian_log_det(
    family: TransformationFamily, alpha: float, x: np.ndarray, fd_step: float = 1e-6
) -> float:
    """log |det dS(alpha)(x)/dx|, raising SingularJacobianError when degenerate."""
    x = np.asarray(x, dtype=float)
    if family.alpha_jacobian is not None:
        jac = np.asarray(family.alpha_jacobian(float(alpha), x), dtype=float)
    else:
        jac = VectorField(family.dim, lambda y: family.eval(float(alpha), y)).jacobian_at(x, fd_step)
    sign, logdet = np.linalg.slogdet(jac)
    if sign <= 0.0 or not np.isfinite(logdet):
        raise SingularJacobianError(
            f"Jacobian of {family.label or 'family'} at alpha={alpha} is singular or orientation-reversing"
        )
    return float(logdet)


def pushforward_derivative(
    m: GaussianMeasure,
    family: TransformationFamily,
    phi: TestFunction,
    q: QuadratureSpec,
    fd_alpha: float = 1e-5,
) -> Estimate:
    """d/dalpha of E[phi(S(alpha, X))] at alpha = 0 by central differences.

    The same nodes or samples are used at +-fd_alpha (common random numbers),
    so the Monte Carlo standard error reflects the difference estimator.
    """

    def rows(x: np.ndarray) -> np.ndarray:
        hi = np.asarray(phi.evaluator(family.eval(fd_alpha, x)), dtype=float)
        lo = np.asarray(phi.evaluator(family.eval(-fd_alpha, x)), dtype=float)
        return ((hi - lo) / (2.0 * fd_alpha)).reshape(-1, 1)

    return _integrate_columns(m, q, rows, 1)[0]


@dataclass(frozen=True)
class Proposition1Result:
    """Pushforward derivative versus the generator pairing.

    With h_S = -dS/dalpha|_0 the two sides satisfy lhs = -E[phi' . h_S], so
    residual = lhs + rhs vanishes for exact arithmetic.
    """

    lhs: float
    rhs: float
    residual: float
    std_error: Optional[float] = None


def proposition1_check(
    m: GaussianMeasure,
    family: TransformationFamily,
    phi: TestFunction,
    q: QuadratureSpec,
    fd_alpha: float = 1e-5,
) -> Proposition1Result:
    """Check d/dalpha E[phi(S(alpha, X))]|_0 against E[phi' . h_S].

    Monte Carlo evaluates both sides on common samples and returns the
    standard error of the per-sample residual.
    """
    h = family_generator(family)

    def rows(x: np.ndarray) -> np.ndarray:
        hi = np.asarray(phi.evaluator(family.eval(fd_alpha, x)), dtype=float)
        lo = np.asarray(phi.evaluator(family.eval(-fd_alpha, x)), dtype=float)
        lhs_rows = (hi - lo) / (2.0 * fd_alpha)
        rhs_rows = np.einsum(
            "ij,ij->i", np.asarray(phi.gradient(x), dtype=float), np.asarray(h.eval(x), dtype=float)
        )
        return np.stack([lhs_rows, rhs_rows, lhs_rows + rhs_rows], axis=1)

    lhs, rhs, residual = _integrate_columns(m, q, rows, 3)
    return Proposition1Result(lhs.value, rhs.value, residual.value, residual.std_error)


def _rk4_growth(rate: Callable[[float], complex], step: float, n_grid: int, dtype: type) -> np.ndarray:
    """Classical RK4 for g'(alpha) = rate(alpha) g(alpha), g(0) = 1, at alpha = i * step.

    The stages evaluate rate at (i + 0.5) * step and (i + 1) * step; dtype is
    float, or complex when the rate is complex.
    """
    values = np.empty(n_grid + 1, dtype=dtype)
    values[0] = 1.0
    rate_lo = rate(0.0)
    for i in range(n_grid):
        g = values[i]
        rate_mid = rate((i + 0.5) * step)
        rate_hi = rate((i + 1.0) * step)
        k1 = rate_lo * g
        k2 = rate_mid * (g + 0.5 * step * k1)
        k3 = rate_mid * (g + 0.5 * step * k2)
        k4 = rate_hi * (g + step * k3)
        values[i + 1] = g + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rate_lo = rate_hi
    return values


def solve_density_ode(
    m: GaussianMeasure,
    family: TransformationFamily,
    alpha_max: float,
    n_grid: int,
    x_probe: np.ndarray,
) -> DensityCurve:
    """Integrate dg/dalpha = beta_{S}(y(alpha)) g(alpha) along the probe's trajectory.

    y(alpha) = S(alpha, x_probe) is evaluated through the family itself and
    beta_S is the logarithmic derivative of the base measure along the
    family's generator, evaluated at the transported point (the
    characteristics reading).  Classical RK4 with n_grid steps from g(0) = 1.
    For actual flows g(alpha) is the density of the pushforward measure
    relative to the base measure at y(alpha).
    """
    if n_grid <= 0:
        raise ValueError("n_grid must be positive")
    x_probe = np.asarray(x_probe, dtype=float).reshape(m.dim)
    h = family_generator(family)

    def beta_at(alpha: float) -> float:
        y = family.apply(alpha, x_probe)
        return log_derivative_along_field(m, h, y).total

    values = _rk4_growth(beta_at, alpha_max / n_grid, n_grid, float)
    alphas = np.linspace(0.0, alpha_max, n_grid + 1)
    return DensityCurve(alphas, values, x_probe.copy())


def _pushforward_density(
    m: GaussianMeasure, family: TransformationFamily, alphas: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Radon-Nikodym density rho(x) / rho(S(alpha, x)) * |det dS(alpha)(x)|^{-1} at each alpha.

    For a flow this is solve_density_ode's g(alpha) in closed form, rho the density of m.
    """
    x = np.asarray(x, dtype=float).reshape(m.dim)
    alphas = np.asarray(alphas, dtype=float)
    moved = np.array([family.apply(a, x) for a in alphas])
    log_det = np.array([jacobian_log_det(family, a, x) for a in alphas])
    return np.exp(m.logpdf(x) - m.logpdf(moved) - log_det)


def trace_integral_along_flow(
    family: TransformationFamily, alpha: float, x: np.ndarray, n_grid: int = 128
) -> float | np.ndarray:
    """integral_0^alpha trace V'(y(s)) ds along y(s) = S(s, x), V the flow velocity.

    The integrand is the velocity divergence -div h_S, taken in one call over
    every Simpson node; composite Simpson on n_grid intervals (order 4).  x is
    one point (returns a float) or a batch of points (returns one value per
    row).  For a flow this equals log det dS(alpha)(x)/dx, which is the
    determinant-trace duality asserted by the anomaly experiment.
    """
    if n_grid <= 0:
        raise ValueError("n_grid must be positive")
    xb, single = _as_batch(x, family.dim)
    step = alpha / n_grid
    nodes = [0.0]
    for i in range(n_grid):
        nodes += [i * step + 0.5 * step, i * step + step]
    points = np.stack([family.apply(s, xb) for s in nodes]).reshape(-1, family.dim)
    trace = -family_generator(family).divergence_batch(points).reshape(len(nodes), -1)
    total = np.zeros(xb.shape[0])
    for i in range(n_grid):
        total += step / 6.0 * (trace[2 * i] + 4.0 * trace[2 * i + 1] + trace[2 * i + 2])
    return float(total[0]) if single else total
