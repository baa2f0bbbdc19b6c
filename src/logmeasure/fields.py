"""Function-valued building blocks: test functions, vector fields, families.

Batch convention used throughout the package: evaluators take an
(n_points, dim) array and return (n_points,) for scalars or (n_points, dim)
for vectors.  Jacobian callables work on a single point of shape (dim,).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _as_batch(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim == 1:
        if x.shape != (dim,):
            raise ValueError(f"point has dimension {x.shape}, expected ({dim},)")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"batch must have shape (n, {dim}), got {x.shape}")
    return x, False


@dataclass(frozen=True)
class TestFunction:
    """Scalar observable with a user-supplied gradient.

    evaluator : (n, dim) -> (n,)
    gradient  : (n, dim) -> (n, dim)
    """

    __test__ = False  # keep pytest from collecting this despite the name

    evaluator: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    label: str = ""


def gradient_check(
    tf: TestFunction, points: np.ndarray, step: float = 1e-6
) -> float:
    """Max relative error of the supplied gradient against central differences."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    grad = np.asarray(tf.gradient(points), dtype=float)
    fd = np.empty_like(grad)
    for j in range(d):
        h = step * (1.0 + np.linalg.norm(points, axis=1))
        shift = np.zeros_like(points)
        shift[:, j] = h
        fd[:, j] = (tf.evaluator(points + shift) - tf.evaluator(points - shift)) / (2 * h)
    scale = np.maximum(np.abs(grad), 1.0)
    return float(np.max(np.abs(fd - grad) / scale))


@dataclass(frozen=True)
class VectorField:
    """Vector field on R^dim with optional analytic Jacobian and divergence.

    eval       : (n, dim) -> (n, dim)
    jacobian   : (dim,) -> (dim, dim), entry (i, j) = d h_i / d x_j, or its diagonal blocks
    divergence : (n, dim) -> (n,), trace of the Jacobian at each row
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    divergence: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    def eval_at(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at a single point of shape (dim,)."""
        xb, _ = _as_batch(x, self.dim)
        return np.asarray(self.eval(xb), dtype=float)[0]

    def jacobian_at(self, x: np.ndarray, fd_step: float = 1e-6) -> np.ndarray:
        """Dense Jacobian at a single point (blocks expanded), analytic when supplied, else FD."""
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            jac = np.asarray(self.jacobian(x), dtype=float)
            if jac.ndim == 3:  # (nodes, d, d) diagonal blocks, laid on the diagonal of a zero matrix
                nodes, d, _ = jac.shape
                dense = np.zeros((nodes, d, nodes, d))
                dense[np.arange(nodes), :, np.arange(nodes)] = jac
                return dense.reshape(nodes * d, nodes * d)
            return jac
        h = fd_step * (1.0 + np.linalg.norm(x))
        jac = np.empty((self.dim, self.dim))
        for j in range(self.dim):
            e = np.zeros(self.dim)
            e[j] = h
            jac[:, j] = (self.eval_at(x + e) - self.eval_at(x - e)) / (2 * h)
        return jac

    def divergence_batch(self, x: np.ndarray, fd_step: float = 1e-6) -> np.ndarray:
        """Divergence over a batch: analytic, else the Jacobian's trace, else vectorized FD."""
        xb, _ = _as_batch(x, self.dim)
        if self.divergence is not None:
            out = np.asarray(self.divergence(xb), dtype=float)
        elif self.jacobian is not None:
            out = np.array([np.trace(self.jacobian_at(row)) for row in xb])
        else:
            h = fd_step * (1.0 + np.linalg.norm(xb, axis=1))
            out = np.zeros(xb.shape[0])
            for j in range(self.dim):
                shift = np.zeros_like(xb)
                shift[:, j] = h
                hi = np.asarray(self.eval(xb + shift), dtype=float)[:, j]
                lo = np.asarray(self.eval(xb - shift), dtype=float)[:, j]
                out += (hi - lo) / (2 * h)
        return out

    def divergence_at(self, x: np.ndarray) -> float:
        return float(self.divergence_batch(np.asarray(x, dtype=float))[0])


def negated(field: VectorField, label: str = "") -> VectorField:
    """The field -h, with Jacobian and divergence negated alongside."""
    jac = None if field.jacobian is None else (lambda x: -np.asarray(field.jacobian(x)))
    div = None if field.divergence is None else (lambda x: -np.asarray(field.divergence(x)))
    return VectorField(
        dim=field.dim,
        eval=lambda x: -np.asarray(field.eval(x)),
        jacobian=jac,
        divergence=div,
        label=label or f"-({field.label})",
    )


@dataclass(frozen=True)
class TransformationFamily:
    """One-parameter family of maps S(alpha) on R^dim with S(0) = identity.

    eval           : (alpha, (n, dim)) -> (n, dim)
    alpha_jacobian : (alpha, (dim,)) -> (dim, dim), the spatial Jacobian
                     dS(alpha)(x)/dx or its (nodes, d, d) diagonal blocks, optional
    generator_field: analytic generator h_S(x) = -d/dalpha S(alpha)(x)|_0
                     when known in closed form, optional
    log_det        : (alphas (k,), (n, dim)) -> (k, n), log det dS(alpha)(x)/dx
                     at every alpha and row in closed form, non-finite where
                     the Jacobian is singular or reverses orientation,
                     optional; without it, log dets are taken from Jacobian
                     matrices (alpha_jacobian, else central differences)
    """

    dim: int
    eval: Callable[[float, np.ndarray], np.ndarray]
    alpha_jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    generator_field: Optional[VectorField] = None
    label: str = ""
    log_det: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def apply(self, alpha: float, x: np.ndarray) -> np.ndarray:
        """Evaluate S(alpha) at a single point or a batch."""
        xb, single = _as_batch(x, self.dim)
        out = np.asarray(self.eval(float(alpha), xb), dtype=float)
        return out[0] if single else out


@dataclass(frozen=True)
class DensityCurve:
    """Radon-Nikodym density g(alpha) along a probe's flow trajectory."""

    alphas: np.ndarray
    values: np.ndarray
    probe: np.ndarray
