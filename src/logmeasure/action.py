"""Discretized actions and the action-weighted pseudo-measure's log derivative.

A Lagrangian here is split as L(q, v) = eta(q, v) + (1/2) v^T B v with B the
same symmetric positive definite kinetic matrix that builds the path measure.
DiscreteAction is the one place the time slicing is written: left-endpoint
positions and forward-difference velocities,

    A(psi) = sum_j [ eta(psi_{j-1} + q0, dpsi_j / dt) + (1/2) |dpsi_j / dt|_B^2 ] dt

with psi_{-1} = 0 and q0 a spatial offset (the probe point in propagator
work).  Its row methods take a batch of flat paths, real or complex; the
Path methods are their one-row case.

The action-weighted pseudo-measure W has logarithmic derivatives composed of
three pieces: the Gaussian part (carried by the path measure itself), the
eta part of the first variation scaled by a mode factor (i for real time,
-1 for the damped/Euclidean weight), and the divergence trace for field
directions.  Only the eta part is scaled: the kinetic part of the variation
is exactly the Gaussian logarithmic derivative and is reported separately by
:mod:`logmeasure.measures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .fields import VectorField
from .lattice import Path, TimeLattice

Array = np.ndarray


class WLogDerivativeMode(str, Enum):
    """Weight orientation: exp(iA) oscillatory or exp(-A) damped."""

    REAL_TIME = "real_time"
    EUCLIDEAN = "euclidean"

    @property
    def factor(self) -> complex:
        return 1j if self is WLogDerivativeMode.REAL_TIME else -1.0


@dataclass(frozen=True)
class QuadraticEta:
    """eta(q) = (1/2) q^T M q + g^T q + c, enabling closed-form propagators."""

    matrix: Array
    linear: Array
    constant: float = 0.0

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        g = np.asarray(self.linear, dtype=float).reshape(-1)
        if m.shape != (g.size, g.size):
            raise ValueError("quadratic matrix and linear term disagree on dimension")
        if not np.allclose(m, m.T):
            raise ValueError("quadratic matrix must be symmetric")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "linear", g)


@dataclass(frozen=True)
class Lagrangian:
    """L(q, v) = eta(q, v) + (1/2) v^T kinetic_matrix v.

    eta and its partial derivatives take batches: eta(Q, V) -> (n,),
    eta_d1(Q, V) -> (n, d) in q, eta_d2(Q, V) -> (n, d) in v.  Most builtins
    have eta independent of v; velocity_coupled marks the exceptions.
    quadratic_eta, when present, certifies eta(q) = (1/2) q^T M q + g^T q + c
    so Gaussian closed forms apply.
    """

    dim_q: int
    eta: Callable[[Array, Array], Array]
    eta_d1: Callable[[Array, Array], Array]
    eta_d2: Optional[Callable[[Array, Array], Array]] = None
    kinetic_matrix: Optional[Array] = None
    label: str = ""
    quadratic_eta: Optional[QuadraticEta] = None
    velocity_coupled: bool = False

    def __post_init__(self) -> None:
        if self.dim_q <= 0:
            raise ValueError("dim_q must be positive")
        b = self.kinetic_matrix
        if b is None:
            b = np.eye(self.dim_q)
        b = np.asarray(b, dtype=float)
        if b.shape != (self.dim_q, self.dim_q):
            raise ValueError("kinetic_matrix shape mismatch")
        if not np.allclose(b, b.T):
            raise ValueError("kinetic_matrix must be symmetric")
        try:
            np.linalg.cholesky(b)
        except np.linalg.LinAlgError as exc:
            raise ValueError("kinetic_matrix must be positive definite") from exc
        object.__setattr__(self, "kinetic_matrix", b)
        if self.velocity_coupled and self.eta_d2 is None:
            raise ValueError("velocity_coupled Lagrangians must supply eta_d2")

    def eta_velocity_gradient(self, Q: Array, V: Array) -> Array:
        if self.eta_d2 is None:
            return np.zeros_like(Q)
        return np.asarray(self.eta_d2(Q, V))


@dataclass(frozen=True)
class WFieldLogDerivative:
    """eta part (mode-scaled), divergence trace, and their sum."""

    eta_term: complex
    trace_term: float
    total: complex


@dataclass(frozen=True)
class DiscreteAction:
    """Left-endpoint discretization of the action of a Lagrangian on a lattice.

    q_offset shifts every sampled position: positions fed to eta are
    psi_{j-1} + q_offset.  Velocities are forward differences of psi alone.
    """

    lagrangian: Lagrangian
    lattice: TimeLattice
    q_offset: Array = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.lagrangian.dim_q != self.lattice.dim_q:
            raise ValueError("Lagrangian and lattice disagree on spatial dimension")
        q0 = self.q_offset
        if q0 is None:
            q0 = np.zeros(self.lattice.dim_q)
        q0 = np.asarray(q0, dtype=float).reshape(self.lattice.dim_q)
        object.__setattr__(self, "q_offset", q0)

    def _positions(self, x: Array, q: Optional[Array] = None, out: Optional[Array] = None) -> Array:
        """Left-endpoint positions psi_{j-1} + q (psi_{-1} = 0) of flat paths (rows, dim), real
        or complex, as (rows * n_steps, dim_q), written into out when it is given.

        With q None the positions are psi_{j-1} exactly: adding a zero offset would turn a
        -0.0 into +0.0.
        """
        lat = self.lattice
        paths = x.reshape(len(x), lat.n_steps, lat.dim_q)
        left = np.empty(paths.shape, paths.dtype) if out is None else out.reshape(paths.shape)
        if q is None:
            left[:, 0] = 0
            left[:, 1:] = paths[:, :-1]
        else:
            left[:, 0] = 0 + q
            np.add(paths[:, :-1], q, out=left[:, 1:])
        return left.reshape(-1, lat.dim_q)

    def _velocities(self, x: Array, needed: bool) -> Array:
        """Velocities (psi_j - psi_{j-1}) / dt of flat paths, shaped as _positions; a read-only
        zero view of that shape when no term needs them."""
        lat = self.lattice
        shape = (len(x) * lat.n_steps, lat.dim_q)
        if not needed:
            return np.broadcast_to(np.zeros((), dtype=x.dtype), shape)
        paths = x.reshape(len(x), lat.n_steps, lat.dim_q)
        v = np.empty(paths.shape, paths.dtype)
        v[:, 0] = paths[:, 0]
        np.subtract(paths[:, 1:], paths[:, :-1], out=v[:, 1:])
        v /= lat.dt
        return v.reshape(shape)

    def _action_rows(self, x: Array, kinetic: bool, offsets: Optional[Array] = None) -> Array:
        """A(psi) per row of a batch of flat paths; the eta part alone unless kinetic.

        offsets, a (k, dim_q) array, stands in for q_offset: the velocities are
        built once, the positions of each offset overwrite one buffer, and the
        result has one column per offset, shape (rows, k).
        """
        lag = self.lagrangian
        V = self._velocities(x, kinetic or lag.velocity_coupled)
        kin = 0.5 * np.einsum("ij,ij->i", V, V @ lag.kinetic_matrix) if kinetic else None
        positions = np.empty(x.shape, x.dtype)

        def column(q: Array) -> Array:
            rows = np.asarray(lag.eta(self._positions(x, q, positions), V))
            if kinetic:
                rows = rows + kin
            return rows.reshape(len(x), -1).sum(axis=1) * self.lattice.dt

        if offsets is None:
            return column(self.q_offset)
        return np.stack([column(q) for q in offsets], axis=1)

    def _variation_rows(self, x: Array, k: Array, kinetic: bool) -> Array:
        """d/ds A(psi + s k)|_0 per row pair of two path batches; eta part alone unless kinetic."""
        lag = self.lagrangian
        v_part = kinetic or lag.eta_d2 is not None  # every velocity_coupled eta has eta_d2
        Q, V = self._positions(x, self.q_offset), self._velocities(x, v_part)
        rows = np.einsum("ij,ij->i", np.asarray(lag.eta_d1(Q, V)), self._positions(k))
        if v_part:
            v_grad = lag.eta_velocity_gradient(Q, V)
            if kinetic:
                v_grad = v_grad + V @ lag.kinetic_matrix
            rows = rows + np.einsum("ij,ij->i", v_grad, self._velocities(k, True))
        return rows.reshape(len(x), -1).sum(axis=1) * self.lattice.dt

    def _row(self, path: Path) -> Array:
        if path.lattice != self.lattice:
            raise ValueError("path lattice does not match the action's lattice")
        return path.values.reshape(1, -1)

    def action_value(self, path: Path) -> float:
        """A(psi): eta plus kinetic quadratic, summed with weight dt."""
        return float(self._action_rows(self._row(path), kinetic=True)[0])

    def first_variation(self, path: Path, direction: Path) -> float:
        """d/ds A(psi + s k)|_0 for a lattice direction k, eta and kinetic parts."""
        return float(self._variation_rows(self._row(path), self._row(direction), kinetic=True)[0])

    def eta_variation(self, path: Path, direction: Path) -> float:
        """The eta-only part of the first variation (kinetic part excluded)."""
        return float(self._variation_rows(self._row(path), self._row(direction), kinetic=False)[0])

    def w_log_derivative_vector(
        self, mode: WLogDerivativeMode, direction: Path, path: Path
    ) -> complex:
        """Weight part of the W log derivative along a constant lattice direction.

        Returns factor(mode) * (eta part of the first variation).  The
        Gaussian part of the full W log derivative lives in the path measure
        and is not included here.
        """
        return mode.factor * self.eta_variation(path, direction)

    def w_log_derivative_field(
        self, mode: WLogDerivativeMode, h: VectorField, path: Path
    ) -> WFieldLogDerivative:
        """W log derivative pieces along a lattice vector field h.

        eta_term is the mode-scaled eta variation in the direction h(psi);
        trace_term is div h(psi), entering with coefficient one regardless of
        mode.  total is their sum.  As with the vector version, the Gaussian
        part is carried by the path measure.
        """
        if h.dim != self.lattice.dim:
            raise ValueError("vector field dimension does not match the lattice")
        x = self._row(path)
        eta_term = mode.factor * float(self._variation_rows(x, h.eval(x), kinetic=False)[0])
        trace_term = float(h.divergence_batch(x)[0])
        return WFieldLogDerivative(eta_term, trace_term, eta_term + trace_term)
