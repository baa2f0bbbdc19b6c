"""Path-integral solutions of the heat/Schrodinger Cauchy problem, plus the
anomaly experiment separating the action variation from the trace term.

Four evaluation routes for u(t, q):

* pde_solve: implicit-midpoint (Crank-Nicolson) finite differences, the
  reference oracle.  Damped mode solves du/dt = (1/2) Delta_C u - eta u,
  oscillatory mode solves du/dt = i ((1/2) Delta_C u + eta u), C = B^{-1}.
  A 1-D problem, damped or oscillatory, takes one tridiagonal LU per call
  and one tridiagonal solve per time step.  A damped 2-D operator that is a
  Kronecker sum (C diagonal, eta certified quadratic with a diagonal matrix)
  is diagonalized axis by axis: one symmetric eigendecomposition per
  distinct axis and four dense products of the axis size, whatever the step
  count.  Every other (coupled) 2-D problem takes one symmetric-ordered
  (minimum degree on A + A^T) sparse LU per call and one triangular solve
  per time step, so a step costs time proportional to the factor's nnz.
* feynman_mc: Feynman-Kac Monte Carlo of E_W[exp(-A_eta) f0] over discretized
  Wiener paths psi, A_eta the eta part of DiscreteAction's action.
* exact_gaussian_propagator: closed-form Gaussian integral for quadratic eta
  and Gaussian-times-polynomial initial data; no sampling error.  One banded
  Cholesky of the path precision (O(n d^3) for n steps in dim_q = d) per (problem,
  lattice), cached by value for every later call and probe; a probe costs O(d^2).
* oscillatory_check: the same kernel with weight exp(i A_eta) on the contour
  e^{i pi/4} psi, by Gauss-Hermite quadrature (quadratic eta, Gaussian f0).

The last three take one point or a (k, dim_q) batch of probes; a batch shares
one set of paths or one Gauss-Hermite pass.

anomaly_experiment samples paths, evaluates the two summands of the weighted
measure's logarithmic derivative (action variation and Jacobian trace) for
several Lagrangians, and checks the determinant-trace duality plus the
pushforward non-invariance of the weighted measure via the density ODE.

The tridiagonal LU and solve (dgttrf/dgttrs, zgttrf/zgttrs in real time)
and the banded Cholesky and solve (dpbtrf/dpbtrs) are LAPACK's, called in
the OpenBLAS that numpy bundles (measures._lapack), and the per-axis
eigendecomposition is numpy's eigh, so only a coupled 2-D PDE solve loads
scipy, through scipy.sparse.linalg's splu.  Where numpy bundles no such
routine, the 1-D solve takes the sparse LU and the banded Cholesky takes
scipy.linalg.lapack's, imported on first use like scipy.sparse; importing
this module loads neither.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
import time
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .action import DiscreteAction, Lagrangian, WLogDerivativeMode
from .fields import TransformationFamily, _as_batch
from .flows import (
    _cumulative_trace_integral,
    _flow_nodes,
    _log_dets,
    _rk4_growth,
    family_generator,
    family_velocity,
)
from .lattice import TimeLattice
from .measures import (
    Estimate,
    GaussianMeasure,
    QuadratureKind,
    QuadratureSpec,
    _field_log_derivative_rows,
    _integrate_columns,
    _lapack,
    sample,
    wiener_measure,
)

Array = np.ndarray


class PropagatorMethod(str, Enum):
    PDE = "pde"
    MC_EUCLIDEAN = "mc_euclidean"
    EXACT_GAUSSIAN = "exact_gaussian"
    OSCILLATORY_QUADRATURE = "oscillatory_quadrature"


@dataclass(frozen=True)
class GaussianInitialData:
    """f0(x) = exp(-(1/2) x^T quad x + lin^T x + const) * (poly0 + poly1^T x + x^T poly2 x).

    quad must be symmetric positive definite; poly2 symmetric.  The quadratic
    polynomial factor is a plain form, not halved.
    """

    quad: Array
    lin: Array
    const: float = 0.0
    poly0: float = 1.0
    poly1: Optional[Array] = None
    poly2: Optional[Array] = None

    def __post_init__(self) -> None:
        quad = np.asarray(self.quad, dtype=float)
        lin = np.asarray(self.lin, dtype=float).reshape(-1)
        d = lin.size
        if quad.shape != (d, d):
            raise ValueError("quad and lin disagree on dimension")
        if not np.allclose(quad, quad.T):
            raise ValueError("quad must be symmetric")
        np.linalg.cholesky(quad)
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        p1 = np.zeros(d) if self.poly1 is None else np.asarray(self.poly1, dtype=float).reshape(d)
        p2 = np.zeros((d, d)) if self.poly2 is None else np.asarray(self.poly2, dtype=float)
        if p2.shape != (d, d) or not np.allclose(p2, p2.T):
            raise ValueError("poly2 must be a symmetric (d, d) matrix")
        object.__setattr__(self, "poly1", p1)
        object.__setattr__(self, "poly2", p2)

    @property
    def dim_q(self) -> int:
        return self.lin.size

    def evaluate(self, x: Array) -> Array:
        """Batched evaluation; accepts complex positions (analytic continuation)."""
        x = np.atleast_2d(np.asarray(x))
        expo = -0.5 * np.einsum("ij,ij->i", x, x @ self.quad) + x @ self.lin + self.const
        poly = self.poly0 + x @ self.poly1 + np.einsum("ij,ij->i", x, x @ self.poly2)
        return np.exp(expo) * poly


@dataclass(frozen=True)
class InitialCondition:
    """Initial data for the Cauchy problem.

    evaluator maps a batch of positions (possibly complex) to values.
    gaussian_data, when present, certifies the closed Gaussian-polynomial
    form required by exact_gaussian_propagator and oscillatory_check.
    """

    evaluator: Callable[[Array], Array]
    gaussian_data: Optional[GaussianInitialData] = None
    label: str = ""


def gaussian_bump(
    dim_q: int, amplitude: float = 1.0, center=0.0, sigma: float = 1.0
) -> InitialCondition:
    """Isotropic Gaussian bump a * exp(-|x - c|^2 / (2 sigma^2))."""
    if sigma <= 0 or amplitude <= 0:
        raise ValueError("amplitude and sigma must be positive")
    c = np.broadcast_to(np.asarray(center, dtype=float), (dim_q,)).copy()
    data = GaussianInitialData(
        quad=np.eye(dim_q) / sigma**2,
        lin=c / sigma**2,
        const=float(-c @ c / (2.0 * sigma**2) + np.log(amplitude)),
    )
    return InitialCondition(
        evaluator=data.evaluate,
        gaussian_data=data,
        label=f"gaussian_bump(a={amplitude}, sigma={sigma})",
    )


def constant_initial_condition(dim_q: int, value: float = 1.0) -> InitialCondition:
    def evaluator(x: Array) -> Array:
        x = np.atleast_2d(np.asarray(x))
        return np.full(x.shape[0], value, dtype=x.dtype if np.iscomplexobj(x) else float)

    return InitialCondition(evaluator=evaluator, gaussian_data=None, label=f"constant({value})")


@dataclass(frozen=True)
class SchrodingerProblem:
    """Cauchy problem data: Lagrangian split, initial condition, final time.

    The potential-like part eta and the kinetic matrix come from the
    Lagrangian; dim_q of 1 or 2 is supported by the PDE oracle.
    """

    dim_q: int
    lagrangian: Lagrangian
    f0: InitialCondition
    t_final: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.dim_q not in (1, 2):
            raise ValueError("dim_q must be 1 or 2")
        if self.lagrangian.dim_q != self.dim_q:
            raise ValueError("Lagrangian dimension does not match dim_q")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")

    @property
    def kinetic_matrix(self) -> Array:
        return self.lagrangian.kinetic_matrix

    def eta_values(self, positions: Array) -> Array:
        """eta at rest (zero velocity argument), batched."""
        positions = np.atleast_2d(positions)
        zeros = np.zeros_like(positions)
        return np.asarray(self.lagrangian.eta(positions, zeros))


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform box [-extent, extent]^dim_q with an odd point count per axis."""

    dim_q: int
    extent: float
    n_points: int

    def __post_init__(self) -> None:
        if self.dim_q not in (1, 2):
            raise ValueError("dim_q must be 1 or 2")
        if self.extent <= 0:
            raise ValueError("extent must be positive")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError("n_points must be an odd integer >= 3")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.n_points - 1)

    @property
    def axis(self) -> Array:
        return np.linspace(-self.extent, self.extent, self.n_points)

    def points(self) -> Array:
        """All grid points as a (n_points^dim_q, dim_q) array, row-major in axes."""
        return _mesh(self.axis, self.dim_q)


def _mesh(axis: Array, dim_q: int) -> Array:
    """Every point of the product grid axis^dim_q as a (len(axis)^dim_q, dim_q) array, row-major."""
    return np.stack([g.reshape(-1) for g in np.meshgrid(*(axis,) * dim_q, indexing="ij")], axis=1)


def _check_lattice(p: SchrodingerProblem, lattice: TimeLattice, grid: Optional[SpaceGrid] = None) -> None:
    """Raise ValueError unless lattice (and grid, if given) match the problem's dim_q and t_final."""
    if lattice.dim_q != p.dim_q or (grid is not None and grid.dim_q != p.dim_q):
        parties = "lattice and problem" if grid is None else "problem, grid, and lattice"
        raise ValueError(f"{parties} disagree on spatial dimension")
    if not _isclose(lattice.t_final, p.t_final):
        raise ValueError("lattice horizon does not match the problem's t_final")


def _isclose(a: float, b: float) -> bool:
    """np.isclose(a, b) for two floats: |a - b| <= 1e-8 + 1e-5 |b| with b finite, or a == b.

    Equal infinities are close and NaN is close to nothing, as in numpy.
    """
    return a == b or (math.isfinite(b) and abs(a - b) <= 1e-8 + 1e-5 * abs(b))


@dataclass(frozen=True)
class PropagatorResult:
    """Grid solution carrying its method tag and the boundary-mass diagnostic."""

    values: Array
    method: PropagatorMethod
    error_estimate: float
    wall_time: float
    seed: int = 0


def _spatial_operator(
    p: SchrodingerProblem, grid: SpaceGrid, mode: WLogDerivativeMode
) -> tuple[scipy.sparse.csc_matrix, Array]:
    """Generator of the semigroup on interior points, plus the interior mesh.

    (1/2) Delta_C = (1/2) sum_{a<=b} (2 - delta_ab) C_ab d_a d_b; a term is the Kronecker
    product over the axes of the stencil for the number of times each axis is differentiated.
    """
    import scipy.sparse as sp

    c_matrix = np.linalg.inv(p.kinetic_matrix)
    n_int, h, d = grid.n_points - 2, grid.spacing, p.dim_q
    off = np.ones(n_int - 1)
    stencil_makers = (  # identity, central first difference, second difference
        lambda: sp.identity(n_int, format="csr"),
        lambda: sp.diags([-off, off], [-1, 1], format="csr") / (2.0 * h),
        lambda: sp.diags([off, np.full(n_int, -2.0), off], [-1, 0, 1], format="csr") / h**2,
    )
    terms = {(a, b): [(k == a) + (k == b) for k in range(d)] for a in range(d) for b in range(a, d)}
    stencils = {order: stencil_makers[order]() for order in set().union(*terms.values())}  # only those used
    lap = 0.5 * functools.reduce(operator.add, (
        (2 - (a == b)) * c_matrix[a, b] * functools.reduce(sp.kron, [stencils[order] for order in orders])
        for (a, b), orders in terms.items()
    ))
    points = _mesh(grid.axis[1:-1], d)
    eta_diag = sp.diags(p.eta_values(points))
    op = lap - eta_diag if mode is WLogDerivativeMode.EUCLIDEAN else 1j * (lap + eta_diag)
    return op.tocsc(), points


def _boundary_mass_fraction(values: Array, dim_q: int) -> float:
    """Share of |u| on the interior points next to the box edge, each counted once."""
    mag = np.abs(values)
    total = float(mag.sum())
    if total == 0.0:
        return 0.0
    inner = mag[(slice(1, -1),) * dim_q]
    ring = np.ones(inner.shape, dtype=bool)
    ring[(slice(1, -1),) * dim_q] = False
    return float(inner[ring].sum()) / total


def _is_kronecker_sum(p: SchrodingerProblem, mode: WLogDerivativeMode) -> bool:
    """True when the damped 2-D operator is K_0 (x) I + I (x) K_1: C = B^{-1} has no
    coupling term and eta is certified quadratic with a diagonal matrix."""
    qe = p.lagrangian.quadratic_eta
    if p.dim_q != 2 or mode is not WLogDerivativeMode.EUCLIDEAN or qe is None:
        return False
    c_matrix = np.linalg.inv(p.kinetic_matrix)
    return bool(c_matrix[0, 1] == c_matrix[1, 0] == qe.matrix[0, 1] == qe.matrix[1, 0] == 0.0)


_SINGULAR_STEP = "I - (dt/2) A is singular on this grid and lattice"


def _diagonalized_steps(p: SchrodingerProblem, grid: SpaceGrid, lattice: TimeLattice, points: Array,
                        u: Array) -> Array:
    """n Crank-Nicolson steps of u' = (K_0 (x) I + I (x) K_1) u by per-axis diagonalization.

    K_a = (1/2) C_aa d_a^2 - diag(eta_a) on the interior axis, with eta_a the certificate's
    one-axis part (its constant on axis 0).  With K_a = V_a diag(lam_a) V_a^T the scheme's
    n steps are u = V_0 [(V_0^T U V_1) * r(z)^n] V_1^T, r(z) = (1 + z) / (1 - z) and
    z_ij = (dt/2) (lam_0i + lam_1j), the same rational function of the same operator as
    the factored route.  eta itself is read on the mesh and must match the certificate.
    """
    qe = p.lagrangian.quadratic_eta
    axis, h, n_int = grid.axis[1:-1], grid.spacing, grid.n_points - 2
    etas = [0.5 * qe.matrix[a, a] * axis**2 + qe.linear[a] * axis for a in range(2)]
    etas[0] = etas[0] + qe.constant
    eta = p.eta_values(points)
    gap = np.abs(eta - (etas[0][:, None] + etas[1][None, :]).reshape(-1))
    if not np.all(gap <= 1e-12 * max(1.0, float(np.max(np.abs(eta))))):
        raise ValueError("eta does not match its quadratic certificate on the PDE grid")
    c_diag = np.diag(np.linalg.inv(p.kinetic_matrix))
    k0, k1 = (np.diag(-c_diag[a] / h**2 - etas[a]) + np.diag(np.full(n_int - 1, 0.5 * c_diag[a] / h**2), -1)
              for a in range(2))  # the lower triangles, which eigh reads
    lam0, v0 = np.linalg.eigh(k0)
    lam1, v1 = (lam0, v0) if np.array_equal(k0, k1) else np.linalg.eigh(k1)
    z = 0.5 * lattice.dt * (lam0[:, None] + lam1[None, :])
    if np.any(z == 1.0):
        raise ValueError(_SINGULAR_STEP)
    gain = ((1.0 + z) / (1.0 - z)) ** lattice.n_steps
    return (v0 @ ((v0.T @ u.reshape(n_int, n_int) @ v1) * gain) @ v1.T).reshape(-1)


def _tridiagonal_steps(p: SchrodingerProblem, grid: SpaceGrid, lattice: TimeLattice, mode: WLogDerivativeMode,
                       points: Array, u: Array, gttrf: Callable[..., None], gttrs: Callable[..., None]) -> Array:
    """n Crank-Nicolson steps of a 1-D u' = A u: LAPACK's tridiagonal LU (gttrf, partial pivoting)
    of I - (dt/2) A once, then one gttrs per step, in place, on one buffer.

    The diagonals are the entries of _spatial_operator's I - (dt/2) A, computed in the same
    order; u is real (dgttrf/dgttrs) in Euclidean time and complex (zgttrf/zgttrs) in real time.
    A step is u <- M^-1 (2 u) - u, M = I - (dt/2) A, the factored route's 2 M^-1 u - u.
    """
    n, h, scale = grid.n_points - 2, grid.spacing, 0.5 * lattice.dt
    u = u.reshape(n)
    c00 = np.linalg.inv(p.kinetic_matrix)[0, 0]
    lap_main, lap_off = 0.5 * (c00 * (-2.0 / h**2)), 0.5 * (c00 * (1.0 / h**2))
    eta = p.eta_values(points).reshape(n)
    if mode is WLogDerivativeMode.EUCLIDEAN:
        main, off = lap_main - eta, lap_off
    else:
        main, off = 1j * (lap_main + eta), 1j * lap_off
    diag = np.asarray(1.0 - scale * main, dtype=u.dtype)
    sub, sup = (np.full(n - 1, -(scale * off), dtype=u.dtype) for _ in range(2))
    sup2, pivots = np.empty(max(n - 2, 1), dtype=u.dtype), np.empty(n, dtype=np.int64)
    factors = [x.ctypes.data for x in (sub, diag, sup, sup2, pivots)]
    size, info = ctypes.c_int64(n), ctypes.c_int64()
    gttrf(size, *factors, info)
    if info.value:
        raise ValueError(_SINGULAR_STEP)
    step = np.empty_like(u)
    args = (b"N", size, ctypes.c_int64(1), *factors, step.ctypes.data, size, info)
    for _ in range(lattice.n_steps):
        np.multiply(u, 2.0, out=step)
        gttrs(*args)
        np.subtract(step, u, out=u)
    return u


def _require_finite(values: Array, what: str) -> None:
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ValueError(f"{what} has {bad} non-finite values")


def pde_solve(
    p: SchrodingerProblem, grid: SpaceGrid, lattice: TimeLattice, mode: WLogDerivativeMode
) -> PropagatorResult:
    """Implicit-midpoint finite-difference reference solution on the grid.

    Crank-Nicolson for u' = A u, u_n = r((dt/2) A)^n u_0 with r(z) = (1 + z) / (1 - z),
    by one of three routes that give the same values up to rounding:

    * tridiagonal, for every 1-D problem, damped or real time: one LU with partial
      pivoting of the tridiagonal I - (dt/2) A per call, LAPACK's dgttrf (zgttrf in
      real time) in numpy's bundled OpenBLAS, then one dgttrs (zgttrs) per step,
      u <- (I - (dt/2) A)^{-1} (2 u) - u, in place on one buffer: O(n_points) per step.
    * diagonalized, for a damped 2-D A that is a Kronecker sum K_0 (x) I + I (x) K_1
      (C = B^{-1} diagonal, eta certified quadratic with a diagonal matrix): one
      symmetric eigendecomposition per axis (numpy's eigh; one for both axes when
      K_0 = K_1) and four dense products of the axis size, a cost that does not grow
      with n_steps.  eta is still read on the mesh, and a ValueError is raised when it
      differs from the certificate by more than 1e-12 max(1, max |eta|).
    * sparse LU, for a coupled 2-D problem (a mixed C, an uncertified eta or a
      non-diagonal eta matrix), and for a 1-D one where numpy bundles no dgttrf: one
      sparse LU of I - (dt/2) A per call, with a minimum-degree ordering on A + A^T
      (the stencil is structurally symmetric), then one triangular solve per step (a
      forward and a back substitution) through (I - (dt/2) A)^{-1} (I + (dt/2) A) =
      2 (I - (dt/2) A)^{-1} - I.  A step costs time proportional to the nnz of the L
      and U factors.

    Zero boundary values at the box edge; the returned error_estimate is the
    fraction of |u| mass sitting on the interior ring next to the boundary at
    the final time, and a warning fires when it exceeds 1e-6 (grid too small).
    A non-finite f0 value on the interior mesh, or a non-finite solution, raises
    ValueError with the count; a singular I - (dt/2) A raises ValueError on every route.
    Oscillatory mode supports dim_q = 1 only.
    """
    start = time.perf_counter()
    _check_lattice(p, lattice, grid)
    if mode is WLogDerivativeMode.REAL_TIME and p.dim_q != 1:
        raise ValueError("oscillatory-mode PDE solves support dim_q = 1 only")
    if p.lagrangian.velocity_coupled:
        raise ValueError("velocity-coupled eta has no PDE form here")

    points = _mesh(grid.axis[1:-1], p.dim_q)
    u = np.asarray(p.f0.evaluator(points)).astype(float if mode is WLogDerivativeMode.EUCLIDEAN else complex)
    _require_finite(u, "f0 on the interior mesh")
    kind = "d" if mode is WLogDerivativeMode.EUCLIDEAN else "z"
    gttrf, gttrs = _lapack(kind + "gttrf"), _lapack(kind + "gttrs")
    if _is_kronecker_sum(p, mode):
        u = _diagonalized_steps(p, grid, lattice, points, u)
    elif p.dim_q == 1 and gttrf is not None and gttrs is not None:
        u = _tridiagonal_steps(p, grid, lattice, mode, points, u, gttrf, gttrs)
    else:
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        op, _ = _spatial_operator(p, grid, mode)
        # SymmetricMode prefers diagonal pivots; the default pivot threshold still
        # pivots off the diagonal when an indefinite eta needs it.
        eye = sp.identity(op.shape[0], format="csc")
        try:
            backward = splu(
                (eye - 0.5 * lattice.dt * op).tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
            if "singular" not in str(exc):
                raise
            raise ValueError(_SINGULAR_STEP) from exc
        for _ in range(lattice.n_steps):
            u = 2.0 * backward.solve(u) - u
    _require_finite(u, "the PDE solution")

    full = np.zeros((grid.n_points,) * p.dim_q, dtype=u.dtype)
    full[(slice(1, -1),) * p.dim_q] = u.reshape((grid.n_points - 2,) * p.dim_q)
    fraction = _boundary_mass_fraction(full, p.dim_q)
    if fraction > 1e-6:
        warnings.warn(
            f"boundary mass fraction {fraction:.3e} exceeds 1e-6; grid extent likely too small",
            stacklevel=2,
        )
    return PropagatorResult(
        full, PropagatorMethod.PDE, error_estimate=fraction, wall_time=time.perf_counter() - start
    )


def _sliced_kernel(
    p: SchrodingerProblem, lattice: TimeLattice, points: Array, mode: WLogDerivativeMode,
    quad: QuadratureSpec,
) -> list[Estimate]:
    """E_W[exp(mode.factor * A_eta(z; q)) * f0(z_n + q)] at every probe row q of points.

    W = wiener_measure(lattice, B), A_eta the eta part of DiscreteAction(q_offset=q),
    z = psi (Euclidean) or e^{i pi/4} psi (real time).  Each batch is drawn and laid out
    once for all probes; a probe gets one reducer column, or two (real, imag) in real time.
    """
    _check_lattice(p, lattice)
    euclidean = mode is WLogDerivativeMode.EUCLIDEAN
    action = DiscreteAction(p.lagrangian, lattice)

    def rows(x: Array) -> Array:
        z = x if euclidean else np.exp(1j * np.pi / 4.0) * x
        weights = np.exp(mode.factor * action._action_rows(z, kinetic=False, offsets=points))
        cols = []
        for q, weight in zip(points, weights.T):
            f0_vals = np.asarray(p.f0.evaluator(z[:, -lattice.dim_q :] + q))
            if euclidean and np.iscomplexobj(f0_vals):
                raise ValueError("feynman_mc evaluates the damped regime; f0 must be real-valued")
            vals = weight * f0_vals
            cols += [vals] if euclidean else [vals.real, vals.imag]
        return np.stack(cols, axis=1)

    m = wiener_measure(lattice, p.kinetic_matrix)
    return _integrate_columns(m, quad, rows, len(points) * (1 if euclidean else 2))


def feynman_mc(
    p: SchrodingerProblem, q_point, lattice: TimeLattice, mc: QuadratureSpec
) -> Estimate | list[Estimate]:
    """Feynman-Kac Monte Carlo value of u(t_final, q), damped weight.

    Samples discretized Wiener paths psi under the kinetic-weighted Gaussian
    measure and averages exp(-sum_j eta(psi_{j-1}+q, dpsi_j/dt) dt) *
    f0(psi_n + q).  Deterministic for fixed (seed, workers).  q_point is one
    point (returns an Estimate) or a (k, dim_q) batch (one each, same paths).
    """
    if mc.kind is not QuadratureKind.MONTE_CARLO:
        raise ValueError("feynman_mc requires a Monte Carlo quadrature spec")
    points, single = _as_batch(q_point, p.dim_q)
    estimates = _sliced_kernel(p, lattice, points, WLogDerivativeMode.EUCLIDEAN, mc)
    return estimates[0] if single else estimates


def _path_precision_band(lattice: TimeLattice, b_mat: Array, m_mat: Array, quad: Array) -> Array:
    """The path precision P in LAPACK lower band storage, ab[k, j] = P[j + k, j], shape (2 d, n d).

    P is block tridiagonal: cm_gram's (1/dt) Dtilde^T Dtilde kron B plus dt M on the
    first n - 1 diagonal blocks and quad on the last.  It is written through the view
    band[k, slot, c] = ab[k, slot * d + c].
    """
    n, d, dt = lattice.n_steps, lattice.dim_q, lattice.dt
    diag = np.empty((n, d, d))
    diag[:-1] = (2.0 / dt) * b_mat + dt * m_mat
    diag[-1] = (1.0 / dt) * b_mat + quad
    sub = (-1.0 / dt) * b_mat
    band = np.zeros((2 * d, n, d))
    for r in range(d):
        for c in range(r + 1):
            band[r - c, :, c] = diag[:, r, c]
        for c in range(d):
            band[d + r - c, :-1, c] = sub[r, c]
    return band.reshape(2 * d, n * d)


# LAPACK's banded Cholesky and solve, called as cholesky_banded and cho_solve_banded call them:
# in numpy's bundled OpenBLAS, bytewise scipy.linalg.lapack's, which serves only where it is missing.
def _banded_cholesky(band: Array) -> tuple[Array, int]:
    """dpbtrf of a lower band: the Fortran-ordered factor and info, as scipy's dpbtrf(band, lower=1)."""
    dpbtrf = _lapack("dpbtrf")
    if dpbtrf is None:
        from scipy.linalg.lapack import dpbtrf

        return dpbtrf(band, lower=1)
    chol = np.array(band, dtype=float, order="F")
    (ldab, n), info = chol.shape, ctypes.c_int64()
    dpbtrf(b"L", ctypes.c_int64(n), ctypes.c_int64(ldab - 1), chol.ctypes.data, ctypes.c_int64(ldab), info)
    return chol, info.value


def _banded_solve(chol: Array, rhs: Array) -> Array:
    """dpbtrs on a lower band factor: P^-1 rhs, Fortran-ordered, as scipy's dpbtrs(chol, rhs, lower=1)[0]."""
    dpbtrs = _lapack("dpbtrs")
    if dpbtrs is None:
        from scipy.linalg.lapack import dpbtrs

        return dpbtrs(chol, rhs, lower=1)[0]
    chol, sol = np.asfortranarray(chol, dtype=float), np.array(rhs, dtype=float, order="F")
    (ldab, n), (ldb, nrhs), info = chol.shape, sol.shape, ctypes.c_int64()
    dpbtrs(b"L", ctypes.c_int64(n), ctypes.c_int64(ldab - 1), ctypes.c_int64(nrhs), chol.ctypes.data,
           ctypes.c_int64(ldab), sol.ctypes.data, ctypes.c_int64(ldb), info)
    if info.value:  # an argument LAPACK rejects, such as fewer rows in rhs than in P
        raise ValueError(f"dpbtrs returned info {info.value}")
    return sol


@functools.lru_cache(maxsize=32)  # an entry is 2 (d + 1)^2 read-only floats, not the band or factor
def _gaussian_form(lattice: TimeLattice, c_val: float, const: float, poly0: float, *arrays: bytes) -> Array:
    """Forms (E, Q) of exact_gaussian_propagator; arrays: the bytes of B, M, quad, poly2, g, lin, poly1."""
    n, d, dt = lattice.n_steps, lattice.dim_q, lattice.dt
    b_mat, m_mat, quad, poly2, g_vec, lin, poly1 = (np.frombuffer(x).reshape(d, -1) for x in arrays)
    band = _path_precision_band(lattice, b_mat, m_mat, quad)
    if not np.isfinite(band).all():
        raise ValueError("the path precision has a non-finite entry")
    chol, info = _banded_cholesky(band)
    if info > 0:
        raise ValueError(
            "the damped Gaussian path integral diverges for this eta and lattice:"
            f" the path precision is not positive definite ({info}-th leading minor not positive definite)"
        )
    rhs = np.vstack([np.tile(-dt * np.hstack([g_vec, m_mat, np.zeros((d, d))]), (n - 1, 1)),
                     np.hstack([lin, -quad, np.eye(d)])])  # r0, R (rhs(q) = r0 + R q), last-slot units
    if not np.isfinite(rhs).all():
        raise ValueError("the right-hand side of the path precision's solve has a non-finite entry")
    sol = _banded_solve(chol, rhs)
    # with mu0 = P^-1 r0 and K = P^-1 R, rhs(q) . mu(q) = r0 . mu0 + 2 mu0 . R q + q^T R^T K q (P symmetric)
    inner = rhs[:, : d + 1].T @ sol[:, : d + 1]
    # det Dtilde = 1, so log det gram = n log det B - n d log dt (see cm_gram)
    log_det_ratio = n * (np.linalg.slogdet(b_mat)[1] - d * np.log(dt)) - 2.0 * np.sum(np.log(chol[0]))
    forms = np.zeros((2, d + 1, d + 1))
    forms[0, 0, 0] = 0.5 * (log_det_ratio + inner[0, 0]) - n * dt * c_val + const
    forms[0, 0, 1:] = inner[1:, 0] - n * dt * g_vec[:, 0] + lin[:, 0]
    forms[0, 1:, 1:] = 0.5 * (inner[1:, 1:] - n * dt * m_mat - quad)
    # the last slot's mean is y x; the polynomial factor's expectation is poly at it plus tr(poly2 cov)
    y = sol[-d:, : d + 1] + np.eye(d, d + 1, 1)
    forms[1] = y.T @ poly2 @ y
    forms[1, 0] += poly1[:, 0] @ y
    forms[1, 0, 0] += poly0 + np.sum(poly2 * sol[-d:, d + 1 :])
    forms.flags.writeable = False
    return forms


def exact_gaussian_propagator(p: SchrodingerProblem, q_point, lattice: TimeLattice) -> complex | Array:
    """Closed-form damped-regime value for quadratic eta and Gaussian f0.

    exp(-A(psi)) times the path density is a Gaussian in the stacked path with a
    block-tridiagonal precision P free of the probe q and a linear term affine in q,
    so u(q) = exp(x^T E x) x^T Q x at x = (1, q): E is the completed square, Q the
    polynomial factor's expectation.  One banded Cholesky of P and one solve for
    2 d + 1 right-hand sides (O(n d^3) time, O(n d^2) memory) give E and Q, cached by
    value: one factorization per (problem, lattice) serves every later call and probe,
    and a probe costs O(d^2).  q_point is one point (a complex) or a (k, dim_q) batch
    (a complex array, each value bitwise the one-point call's).  Raises ValueError on
    a non-finite P or probe entry, or on a P not positive definite (divergent integral).
    """
    qe = p.lagrangian.quadratic_eta
    if qe is None:
        raise ValueError("exact_gaussian_propagator requires a certified quadratic eta")
    data = p.f0.gaussian_data
    if data is None:
        raise ValueError("exact_gaussian_propagator requires Gaussian-polynomial initial data")
    _check_lattice(p, lattice)
    points, single = _as_batch(q_point, p.dim_q)
    arrays = (p.kinetic_matrix, qe.matrix, data.quad, data.poly2, qe.linear, data.lin, data.poly1)
    keys = (np.ascontiguousarray(x, float).tobytes() for x in arrays)
    forms = _gaussian_form(lattice, float(qe.constant), float(data.const), float(data.poly0), *keys)
    if not np.isfinite(points).all():
        raise ValueError("a probe has a non-finite entry")
    x = np.hstack([np.ones((len(points), 1)), points])
    expo, poly = np.einsum("ki,fij,kj->fk", x, forms, x)
    values = (np.exp(expo) * poly).astype(complex)
    return complex(values[0]) if single else values


def free_evolution_closed_form(
    amplitude: float,
    center: float,
    sigma: float,
    kinetic_scalar: float,
    t_final: float,
    q: float,
    mode: WLogDerivativeMode,
) -> complex:
    """eta = 0 evolution of a one-dimensional Gaussian bump, both modes.

    Convolution with the (possibly Fresnel) kernel of variance t/b: the bump
    a exp(-(x-c)^2 / (2 sigma^2)) evolves to
    a sqrt(sigma^2 / (sigma^2 + v)) exp(-(q-c)^2 / (2 (sigma^2 + v))) where
    v = t/b in the damped mode and v = i t/b in the oscillatory mode.
    """
    v = t_final / kinetic_scalar
    spread = sigma**2 + (1j * v if mode is WLogDerivativeMode.REAL_TIME else v)
    return complex(
        amplitude * np.sqrt(sigma**2 / spread) * np.exp(-((q - center) ** 2) / (2.0 * spread))
    )


_OSCILLATORY_GH_ORDER = 24


def oscillatory_check(p: SchrodingerProblem, q_point, lattice: TimeLattice) -> complex | Array:
    """Gauss-Hermite quadrature of the oscillatory time-sliced kernel.

    Integrates over the contour x_j = e^{i pi/4} u_j, u real: the Fresnel
    prefactor becomes real and the kinetic phase becomes the Gaussian damping
    exp(-sum b (du)^2 / (2 dt)), which together are the density of
    wiener_measure(lattice, B).  The value is the expectation under that
    measure of exp(i dt sum eta) * f0, with eta and f0 continued analytically
    to the rotated points.  Jordan-arc contributions vanish for the Gaussian
    data required here (quadratic eta, Gaussian f0), so the rotated integral
    equals the original one.  A fixed tensor Gauss-Hermite rule of order
    _OSCILLATORY_GH_ORDER evaluates it; the rule's dim <= 6 guard bounds
    n_steps.  q_point is one point (returns a complex) or a (k, 1) batch
    (returns a complex array from one pass over the rule's nodes).
    """
    if p.dim_q != 1 or lattice.dim_q != 1:
        raise ValueError("oscillatory_check supports dim_q = 1 only")
    if p.f0.gaussian_data is None:
        raise ValueError("oscillatory_check requires Gaussian initial data for damping")
    if p.lagrangian.quadratic_eta is None:
        raise ValueError("oscillatory_check requires a certified quadratic eta")
    if p.lagrangian.velocity_coupled:
        raise ValueError("velocity-coupled eta is not supported in the sliced kernel")
    gh = QuadratureSpec(QuadratureKind.GAUSS_HERMITE, _OSCILLATORY_GH_ORDER)
    points, single = _as_batch(q_point, 1)
    pairs = _sliced_kernel(p, lattice, points, WLogDerivativeMode.REAL_TIME, gh)
    values = np.array([complex(re.value, im.value) for re, im in zip(pairs[::2], pairs[1::2])])
    return complex(values[0]) if single else values


@dataclass(frozen=True)
class AnomalySummandRow:
    """Per-(Lagrangian, path) values of the two logarithmic-derivative summands."""

    lagrangian_label: str
    path_index: int
    eta_term: complex
    trace_term: float


@dataclass(frozen=True)
class AnomalyDualityRow:
    """Determinant column versus trace integral along the flow at one (path, alpha)."""

    path_index: int
    alpha: float
    log_det: float
    trace_integral: float
    gap: float


@dataclass(frozen=True)
class AnomalyAssertion:
    """One machine-checked claim; tolerance is the bound its check compares against."""

    name: str
    passed: bool
    tolerance: float
    detail: str


@dataclass(frozen=True)
class AnomalyReport:
    """Output of anomaly_experiment; assertions carry the machine-checked claims."""

    family_label: str
    mode: WLogDerivativeMode
    seed: int
    n_paths: int
    summand_rows: tuple[AnomalySummandRow, ...]
    duality_rows: tuple[AnomalyDualityRow, ...]
    density_deviation: dict[str, float]
    assertions: tuple[AnomalyAssertion, ...]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


_NONZERO_TRACE_FLOOR = 1e-8


def anomaly_experiment(
    family: TransformationFamily,
    lagrangians: Sequence[Lagrangian],
    lattice: TimeLattice,
    n_paths: int,
    seed: int,
    mode: WLogDerivativeMode = WLogDerivativeMode.EUCLIDEAN,
    invariant_flags: Optional[Sequence[bool]] = None,
    expect_nonzero_trace: bool = True,
    alpha_max: float = 0.25,
    n_alpha: int = 5,
    eta_zero_tol: float = 1e-10,
    duality_tol: float = 1e-6,
    duality_grid: int = 256,
    density_grid: int = 64,
    density_floor: float = 1e-3,
    strict: bool = True,
) -> AnomalyReport:
    """Separate the action-variation and trace summands across Lagrangians.

    For each Lagrangian and each path sampled from the kinetic-weighted
    Gaussian measure, records the two summands of the weighted measure's
    logarithmic derivative along the family, both oriented along the flow
    velocity V = dS/dalpha (so the scaling family reports trace
    n_steps * dim_q).  On an alpha grid it records log det dS/dx against the
    trace integral along the flow.  Assertions:

    * trace columns bitwise identical across Lagrangians;
    * for Lagrangians flagged invariant, |eta term| <= eta_zero_tol, while
      the trace column is nonzero when expect_nonzero_trace (and zero
      otherwise, the no-anomaly control);
    * |log_det - trace integral| <= duality_tol at every (path, alpha);
    * the weighted measure's density along the flow deviates from 1 by more
      than density_floor at alpha_max when expect_nonzero_trace (pushforward
      non-invariance).

    The alpha grid is k * alpha_max / n_alpha, k = 1..n_alpha.  duality_grid
    is the number of Simpson intervals on [0, alpha_max], rounded up to a
    multiple of n_alpha: one trajectory per path on that grid gives the
    trace integral up to every alpha in one cumulative pass.  density_grid
    is the number of RK4 steps of the weighted density ODE on [0, alpha_max]
    along the first path, one shared trajectory for every Lagrangian.  Each
    of the three counts must be at least 1, else ValueError names it.

    strict raises AssertionError on the first failed claim; strict=False
    returns the report with failures recorded for the caller to surface.
    """
    if len(lagrangians) < 2:
        raise ValueError("anomaly_experiment compares at least two Lagrangians")
    if invariant_flags is None:
        invariant_flags = [False] * len(lagrangians)
    if len(invariant_flags) != len(lagrangians):
        raise ValueError("invariant_flags must align with lagrangians")
    if family.dim != lattice.dim:
        raise ValueError("family must act on stacked path coordinates")
    counts = {"n_alpha": n_alpha, "duality_grid": duality_grid, "density_grid": density_grid}
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    kinetic = lagrangians[0].kinetic_matrix
    for lag in lagrangians[1:]:
        if not np.array_equal(lag.kinetic_matrix, kinetic):
            raise ValueError("all Lagrangians in one scan must share the kinetic matrix")

    labels = [lag.label or f"lagrangian{i}" for i, lag in enumerate(lagrangians)]
    if len(set(labels)) != len(labels):
        raise ValueError(f"Lagrangian labels must be distinct, got {labels}")

    m = wiener_measure(lattice, kinetic)
    paths_flat = sample(m, n_paths, seed)
    velocity = family_velocity(family)
    actions = [DiscreteAction(lag, lattice) for lag in lagrangians]

    directions = velocity.eval(paths_flat)
    traces = velocity.divergence_batch(paths_flat)
    variations = [action._variation_rows(paths_flat, directions, kinetic=False) for action in actions]
    summand_rows = [
        AnomalySummandRow(label, idx, mode.factor * float(eta), float(trace))
        for label, etas in zip(labels, variations)
        for idx, (eta, trace) in enumerate(zip(etas, traces))
    ]

    alphas = np.linspace(0.0, alpha_max, n_alpha + 1)[1:]
    per_alpha = -(-duality_grid // n_alpha)
    n_fine = per_alpha * n_alpha
    trace_ints = _cumulative_trace_integral(family, alpha_max / n_fine, n_fine, paths_flat)
    duality_rows: list[AnomalyDualityRow] = []
    for idx in range(n_paths):
        log_dets = _log_dets(family, alphas, paths_flat[idx])
        for k, (alpha, log_det) in enumerate(zip(alphas, log_dets), start=1):
            log_det = float(log_det)
            trace_int = float(trace_ints[k * per_alpha, idx])
            duality_rows.append(
                AnomalyDualityRow(
                    path_index=idx,
                    alpha=float(alpha),
                    log_det=log_det,
                    trace_integral=trace_int,
                    gap=abs(log_det - trace_int),
                )
            )

    # the weighted density ODE along the first path: the Gaussian rate is
    # shared, each Lagrangian adds its mode-scaled eta variation as a column
    step = alpha_max / density_grid
    ys = _flow_nodes(family, step, density_grid, paths_flat[0])
    hy, beta, div = _field_log_derivative_rows(m, family_generator(family), ys)
    eta = np.stack([action._variation_rows(ys, hy, kinetic=False) for action in actions], axis=1)
    curves = _rk4_growth((beta + div)[:, None] + mode.factor * eta, step)
    density_deviation = {label: float(abs(g - 1.0)) for label, g in zip(labels, curves[-1])}

    assertions: list[AnomalyAssertion] = []

    base_traces = [r.trace_term for r in summand_rows if r.lagrangian_label == labels[0]]
    trace_identical = all(
        [r.trace_term for r in summand_rows if r.lagrangian_label == label] == base_traces
        for label in labels[1:]
    )
    assertions.append(
        AnomalyAssertion(
            name="trace_identical_across_lagrangians",
            passed=trace_identical,
            tolerance=0.0,
            detail="trace column bitwise equal for every Lagrangian"
            if trace_identical
            else "trace columns differ between Lagrangians",
        )
    )

    max_trace = max(abs(t) for t in base_traces)
    for label, flag in zip(labels, invariant_flags):
        if not flag:
            continue
        max_eta = max(
            abs(r.eta_term) for r in summand_rows if r.lagrangian_label == label
        )
        assertions.append(
            AnomalyAssertion(
                name=f"eta_term_vanishes[{label}]",
                passed=max_eta <= eta_zero_tol,
                tolerance=eta_zero_tol,
                detail=f"max |eta term| = {max_eta:.3e} (tol {eta_zero_tol:.1e})",
            )
        )
    if expect_nonzero_trace:
        assertions.append(
            AnomalyAssertion(
                name="trace_term_nonzero",
                passed=max_trace > _NONZERO_TRACE_FLOOR,
                tolerance=_NONZERO_TRACE_FLOOR,
                detail=f"max |trace term| = {max_trace:.3e}",
            )
        )
    else:
        assertions.append(
            AnomalyAssertion(
                name="trace_term_zero_control",
                passed=max_trace <= eta_zero_tol,
                tolerance=eta_zero_tol,
                detail=f"max |trace term| = {max_trace:.3e} (control family)",
            )
        )

    max_gap = max(r.gap for r in duality_rows)
    assertions.append(
        AnomalyAssertion(
            name="determinant_trace_duality",
            passed=max_gap <= duality_tol,
            tolerance=duality_tol,
            detail=f"max |log_det - trace integral| = {max_gap:.3e} (tol {duality_tol:.1e})",
        )
    )

    if expect_nonzero_trace:
        min_dev = min(density_deviation.values())
        assertions.append(
            AnomalyAssertion(
                name="weighted_density_noninvariant",
                passed=min_dev > density_floor,
                tolerance=density_floor,
                detail=f"min |g(alpha_max) - 1| = {min_dev:.3e} (floor {density_floor:.1e})",
            )
        )

    report = AnomalyReport(
        family_label=family.label or "family",
        mode=mode,
        seed=seed,
        n_paths=n_paths,
        summand_rows=tuple(summand_rows),
        duality_rows=tuple(duality_rows),
        density_deviation=density_deviation,
        assertions=tuple(assertions),
    )
    if strict:
        for a in report.assertions:
            if not a.passed:
                raise AssertionError(f"anomaly experiment failed {a.name}: {a.detail}")
    return report
