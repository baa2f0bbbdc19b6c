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
from typing import Optional

import numpy as np

from .errors import SingularJacobianError
from .fields import DensityCurve, TestFunction, TransformationFamily, VectorField, _as_batch, negated
from .measures import (
    _CHUNK_ROWS,
    Estimate,
    GaussianMeasure,
    QuadratureSpec,
    _field_log_derivative_rows,
    _integrate_columns,
)


def generator(family: TransformationFamily, fd_step: float = 1e-5) -> VectorField:
    """Finite-difference generator h_S(x) = -d/dalpha S(alpha)(x)|_0.

    h is a central difference in alpha with step fd_step at every point, so a
    row's h(x) does not depend on the other rows of its batch.  The Jacobian
    differentiates alpha_jacobian in alpha with step fd_step * (1 + |x|) when
    the family supplies it (a block stack when alpha_jacobian gives one), else
    falls back to nested differencing of the generator itself with an outer
    step of sqrt(fd_step) scale.
    """

    def h_eval(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return -(family.eval(fd_step, x) - family.eval(-fd_step, x)) / (2.0 * fd_step)

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
    return float(_log_dets(family, [alpha], x, fd_step)[0])


def _block_log_dets(jacs: np.ndarray) -> np.ndarray:
    """log det of each alpha's block-diagonal Jacobian, given as its blocks jacs[i] (..., b, b).

    A dense (k, dim, dim) stack is the one-block case.  NaN where a block is
    singular or reverses orientation.
    """
    sign, logdet = (a.reshape(len(jacs), -1) for a in np.linalg.slogdet(jacs))
    return np.where(sign > 0.0, logdet, np.nan).sum(axis=1)


def _log_dets(family: TransformationFamily, alphas, x: np.ndarray, fd_step: float = 1e-6):
    """log |det dS(alpha)(x)/dx| at each alpha for one point x, raising SingularJacobianError.

    The family's log_det gives every alpha in one call.  Without it, Jacobians
    (dense or block stacks) come from alpha_jacobian, else central differences,
    for as many alphas at a time as a dense (k, dim, dim) stack holds within
    _CHUNK_ROWS entries.  The error names the first alpha whose log det is not finite.
    """
    xb, single = _as_batch(x, family.dim)
    if not single:
        raise ValueError(f"expected one point of shape ({family.dim},), got a batch of shape {xb.shape}")
    alphas = np.asarray(alphas, dtype=float)
    if family.log_det is not None:
        log_dets = np.asarray(family.log_det(alphas, xb), dtype=float)[:, 0]
    else:
        per_chunk = max(1, _CHUNK_ROWS // family.dim**2)
        chunks = []
        for chunk in np.split(alphas, range(per_chunk, len(alphas), per_chunk)):
            if family.alpha_jacobian is not None:
                jacs = np.stack([family.alpha_jacobian(a, xb[0]) for a in chunk.tolist()])
            else:
                maps = [VectorField(family.dim, lambda y, a=a: family.eval(a, y)) for a in chunk.tolist()]
                jacs = np.stack([s.jacobian_at(xb[0], fd_step) for s in maps])
            chunks.append(_block_log_dets(np.asarray(jacs, dtype=float)))
        log_dets = np.concatenate(chunks)
    bad = np.flatnonzero(~np.isfinite(log_dets))
    if bad.size:
        raise SingularJacobianError(
            f"Jacobian of {family.label or 'family'} at alpha={alphas[bad[0]]} "
            "is singular or orientation-reversing"
        )
    return log_dets


def _alpha_difference_rows(
    family: TransformationFamily, phi: TestFunction, fd_alpha: float, x: np.ndarray
) -> np.ndarray:
    """Row-wise central difference of phi(S(alpha, x)) in alpha at 0 with step fd_alpha."""
    hi = np.asarray(phi.evaluator(family.eval(fd_alpha, x)), dtype=float)
    lo = np.asarray(phi.evaluator(family.eval(-fd_alpha, x)), dtype=float)
    return (hi - lo) / (2.0 * fd_alpha)


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

    return _integrate_columns(
        m, q, lambda x: _alpha_difference_rows(family, phi, fd_alpha, x).reshape(-1, 1), 1
    )[0]


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
        lhs_rows = _alpha_difference_rows(family, phi, fd_alpha, x)
        rhs_rows = np.einsum(
            "ij,ij->i", np.asarray(phi.gradient(x), dtype=float), np.asarray(h.eval(x), dtype=float)
        )
        return np.stack([lhs_rows, rhs_rows, lhs_rows + rhs_rows], axis=1)

    lhs, rhs, residual = _integrate_columns(m, q, rows, 3)
    return Proposition1Result(lhs.value, rhs.value, residual.value, residual.std_error)


def _flow_nodes(family: TransformationFamily, step: float, n: int, x: np.ndarray) -> np.ndarray:
    """S(s, x), node index first, at s = 0 and s = i * step + 0.5 * step, i * step + step, i < n.

    x is a point or a batch.  Nodes 2i, 2i + 1 and 2i + 2 serve as the RK4
    stages and as the Simpson nodes of step i.
    """
    nodes = [0.0]
    for i in range(n):
        nodes += [i * step + 0.5 * step, i * step + step]
    return _flow_points(family, nodes, x)


def _flow_points(family: TransformationFamily, alphas, x: np.ndarray) -> np.ndarray:
    """S(alpha, x) at each alpha, alpha index first; x is a point or a batch."""
    xb, single = _as_batch(x, family.dim)
    points = np.stack([np.asarray(family.eval(float(a), xb), dtype=float) for a in alphas])
    return points[:, 0] if single else points


def _rk4_growth(rates: np.ndarray, step: float) -> np.ndarray:
    """Classical RK4 for g'(alpha) = rate(alpha) g(alpha), g(0) = 1, at alpha = i * step.

    rates holds the rate at the nodes of _flow_nodes, node index first, with
    any trailing shape (one curve per entry); the curves take its dtype.
    """
    n_grid = (len(rates) - 1) // 2
    values = np.empty((n_grid + 1,) + rates.shape[1:], dtype=rates.dtype)
    values[0] = 1.0
    for i in range(n_grid):
        g = values[i]
        rate_lo, rate_mid, rate_hi = rates[2 * i], rates[2 * i + 1], rates[2 * i + 2]
        k1 = rate_lo * g
        k2 = rate_mid * (g + 0.5 * step * k1)
        k3 = rate_mid * (g + 0.5 * step * k2)
        k4 = rate_hi * (g + step * k3)
        values[i + 1] = g + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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
    step = alpha_max / n_grid
    ys = _flow_nodes(family, step, n_grid, x_probe)
    _, beta, div = _field_log_derivative_rows(m, family_generator(family), ys)
    alphas = np.linspace(0.0, alpha_max, n_grid + 1)
    return DensityCurve(alphas, _rk4_growth(beta + div, step), x_probe.copy())


def _pushforward_density(
    m: GaussianMeasure, family: TransformationFamily, alphas: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Radon-Nikodym density rho(x) / rho(S(alpha, x)) * |det dS(alpha)(x)|^{-1} at each alpha.

    For a flow this is solve_density_ode's g(alpha) in closed form, rho the density of m.
    """
    x = np.asarray(x, dtype=float).reshape(m.dim)
    alphas = np.asarray(alphas, dtype=float)
    moved = _flow_points(family, alphas, x)
    return np.exp(m.logpdf(x) - m.logpdf(moved) - _log_dets(family, alphas, x))


def _cumulative_trace_integral(
    family: TransformationFamily, step: float, n_grid: int, xb: np.ndarray
) -> np.ndarray:
    """Simpson integral of trace V' = -div h_S along S(s, x) from 0 to each s = i * step.

    One row per grid point (row 0 is +0.0), one column per row of xb: a
    cumsum of the per-interval terms over the nodes of _flow_nodes.
    """
    points = _flow_nodes(family, step, n_grid, xb).reshape(-1, family.dim)
    trace = -family_generator(family).divergence_batch(points).reshape(2 * n_grid + 1, -1)
    terms = step / 6.0 * (trace[:-1:2] + 4.0 * trace[1::2] + trace[2::2])
    return np.cumsum(np.concatenate([np.zeros((1, xb.shape[0])), terms]), axis=0)


def trace_integral_along_flow(
    family: TransformationFamily, alpha: float, x: np.ndarray, n_grid: int = 128
) -> float | np.ndarray:
    """integral_0^alpha trace V'(y(s)) ds along y(s) = S(s, x), V the flow velocity.

    Composite Simpson on n_grid intervals (order 4): the last entry of
    _cumulative_trace_integral.  x is one point (returns a float) or a batch
    of points (returns one value per row).  For a flow this equals
    log det dS(alpha)(x)/dx, which is the determinant-trace duality asserted
    by the anomaly experiment.
    """
    if n_grid <= 0:
        raise ValueError("n_grid must be positive")
    xb, single = _as_batch(x, family.dim)
    total = _cumulative_trace_integral(family, alpha / n_grid, n_grid, xb)[-1]
    return float(total[0]) if single else total
