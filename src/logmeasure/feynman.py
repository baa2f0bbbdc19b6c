"""Path-integral solutions of the heat/Schrodinger Cauchy problem, plus the
anomaly experiment separating the action variation from the trace term.

Four evaluation routes for u(t, q):

* pde_solve: implicit-midpoint (Crank-Nicolson) finite differences, the
  reference oracle.  Damped mode solves du/dt = (1/2) Delta_C u - eta u,
  oscillatory mode solves du/dt = i ((1/2) Delta_C u + eta u), C = B^{-1}.
* feynman_mc: Feynman-Kac Monte Carlo of E_W[exp(-A_eta) f0] over discretized
  Wiener paths psi, A_eta the eta part of DiscreteAction's action.
* exact_gaussian_propagator: closed-form Gaussian integral for quadratic eta
  and Gaussian-times-polynomial initial data; no sampling error.
* oscillatory_check: the same kernel with weight exp(i A_eta) on the contour
  e^{i pi/4} psi, by Gauss-Hermite quadrature (quadratic eta, Gaussian f0).

The last three take one point or a (k, dim_q) batch of probes; a batch shares
one set of paths, one Gauss-Hermite pass or one factorization.

anomaly_experiment samples paths, evaluates the two summands of the weighted
measure's logarithmic derivative (action variation and Jacobian trace) for
several Lagrangians, and checks the determinant-trace duality plus the
pushforward non-invariance of the weighted measure via the density ODE.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import splu

from .action import DiscreteAction, Lagrangian, WLogDerivativeMode
from .fields import TransformationFamily, _as_batch
from .flows import (
    _cumulative_trace_integral,
    _flow_nodes,
    _rk4_growth,
    family_generator,
    family_velocity,
    jacobian_log_det,
)
from .lattice import TimeLattice, cm_gram
from .measures import (
    Estimate,
    GaussianMeasure,
    QuadratureKind,
    QuadratureSpec,
    _field_log_derivative_rows,
    _integrate_columns,
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
        if self.dim_q == 1:
            return self.axis.reshape(-1, 1)
        xx, yy = np.meshgrid(self.axis, self.axis, indexing="ij")
        return np.stack([xx.reshape(-1), yy.reshape(-1)], axis=1)


@dataclass(frozen=True)
class PropagatorResult:
    """Grid solution carrying its method tag and the boundary-mass diagnostic."""

    values: Array
    method: PropagatorMethod
    error_estimate: float
    wall_time: float
    seed: int = 0


def _second_difference(n_interior: int, h: float) -> sp.spmatrix:
    main = np.full(n_interior, -2.0)
    off = np.ones(n_interior - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2


def _first_difference(n_interior: int, h: float) -> sp.spmatrix:
    off = np.ones(n_interior - 1)
    return sp.diags([-off, off], [-1, 1], format="csr") / (2.0 * h)


def _spatial_operator(
    p: SchrodingerProblem, grid: SpaceGrid, mode: WLogDerivativeMode
) -> tuple[sp.spmatrix, Array]:
    """Generator of the semigroup on interior points, plus the interior mesh."""
    c_matrix = np.linalg.inv(p.kinetic_matrix)
    n_int = grid.n_points - 2
    interior_axis = grid.axis[1:-1]
    d2 = _second_difference(n_int, grid.spacing)
    if p.dim_q == 1:
        lap = 0.5 * c_matrix[0, 0] * d2
        points = interior_axis.reshape(-1, 1)
    else:
        d1 = _first_difference(n_int, grid.spacing)
        eye = sp.identity(n_int, format="csr")
        lap = 0.5 * (
            c_matrix[0, 0] * sp.kron(d2, eye)
            + c_matrix[1, 1] * sp.kron(eye, d2)
            + 2.0 * c_matrix[0, 1] * sp.kron(d1, d1)
        )
        xx, yy = np.meshgrid(interior_axis, interior_axis, indexing="ij")
        points = np.stack([xx.reshape(-1), yy.reshape(-1)], axis=1)
    eta_diag = sp.diags(p.eta_values(points))
    if mode is WLogDerivativeMode.EUCLIDEAN:
        op = lap - eta_diag
    else:
        op = 1j * (lap + eta_diag)
    return op.tocsc(), points


def _boundary_mass_fraction(values: Array, dim_q: int) -> float:
    mag = np.abs(values)
    total = float(mag.sum())
    if total == 0.0:
        return 0.0
    if dim_q == 1:
        ring = float(mag[1] + mag[-2])
    else:
        inner = mag[1:-1, 1:-1]
        ring = float(inner[0, :].sum() + inner[-1, :].sum() + inner[1:-1, 0].sum() + inner[1:-1, -1].sum())
    return ring / total


def pde_solve(
    p: SchrodingerProblem, grid: SpaceGrid, lattice: TimeLattice, mode: WLogDerivativeMode
) -> PropagatorResult:
    """Implicit-midpoint finite-difference reference solution on the grid.

    Zero boundary values at the box edge; the returned error_estimate is the
    fraction of |u| mass sitting on the interior ring next to the boundary at
    the final time, and a warning fires when it exceeds 1e-6 (grid too small).
    Oscillatory mode supports dim_q = 1 only.
    """
    start = time.perf_counter()
    if grid.dim_q != p.dim_q or lattice.dim_q != p.dim_q:
        raise ValueError("problem, grid, and lattice disagree on spatial dimension")
    if not np.isclose(lattice.t_final, p.t_final):
        raise ValueError("lattice horizon does not match the problem's t_final")
    if mode is WLogDerivativeMode.REAL_TIME and p.dim_q != 1:
        raise ValueError("oscillatory-mode PDE solves support dim_q = 1 only")
    if p.lagrangian.velocity_coupled:
        raise ValueError("velocity-coupled eta has no PDE form here")

    op, points = _spatial_operator(p, grid, mode)
    u = np.asarray(p.f0.evaluator(points))
    if mode is WLogDerivativeMode.REAL_TIME:
        u = u.astype(complex)
    else:
        u = u.astype(float)
    eye = sp.identity(op.shape[0], format="csc")
    half = 0.5 * lattice.dt
    forward = (eye + half * op).tocsr()
    backward = splu((eye - half * op).tocsc())
    for _ in range(lattice.n_steps):
        u = backward.solve(forward @ u)

    n = grid.n_points
    if p.dim_q == 1:
        full = np.zeros(n, dtype=u.dtype)
        full[1:-1] = u
    else:
        full = np.zeros((n, n), dtype=u.dtype)
        full[1:-1, 1:-1] = u.reshape(n - 2, n - 2)
    fraction = _boundary_mass_fraction(full, p.dim_q)
    if fraction > 1e-6:
        warnings.warn(
            f"boundary mass fraction {fraction:.3e} exceeds 1e-6; grid extent likely too small",
            stacklevel=2,
        )
    return PropagatorResult(
        values=full,
        method=PropagatorMethod.PDE,
        error_estimate=fraction,
        wall_time=time.perf_counter() - start,
        seed=0,
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
    if lattice.dim_q != p.dim_q:
        raise ValueError("lattice and problem disagree on spatial dimension")
    if not np.isclose(lattice.t_final, p.t_final):
        raise ValueError("lattice horizon does not match the problem's t_final")
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


def exact_gaussian_propagator(p: SchrodingerProblem, q_point, lattice: TimeLattice) -> complex | Array:
    """Closed-form damped-regime value for quadratic eta and Gaussian f0.

    The weight exp(-A(psi)) times the Gaussian path density is itself an
    unnormalized Gaussian in the stacked path vector, so the integral reduces
    to one Cholesky factorization (its diagonal gives the log-determinant;
    the path measure's is closed form) and one linear solve; a
    quadratic polynomial factor on f0 is folded in through the first two
    moments of the completed-square Gaussian.  No sampling error.  q_point is
    one point (returns a complex) or a (k, dim_q) batch (returns a complex
    array); the matrix does not depend on the probe and is factored once.
    """
    qe = p.lagrangian.quadratic_eta
    if qe is None:
        raise ValueError("exact_gaussian_propagator requires a certified quadratic eta")
    data = p.f0.gaussian_data
    if data is None:
        raise ValueError("exact_gaussian_propagator requires Gaussian-polynomial initial data")
    if lattice.dim_q != p.dim_q:
        raise ValueError("lattice and problem disagree on spatial dimension")
    if not np.isclose(lattice.t_final, p.t_final):
        raise ValueError("lattice horizon does not match the problem's t_final")
    points, single = _as_batch(q_point, p.dim_q)

    n, d, dt = lattice.n_steps, lattice.dim_q, lattice.dt
    big = cm_gram(lattice, p.kinetic_matrix).matrix.copy()
    m_mat, g_vec, c_val = qe.matrix, qe.linear, qe.constant
    for j in range(n - 1):
        sl = slice(j * d, (j + 1) * d)
        big[sl, sl] += dt * m_mat
    last = slice((n - 1) * d, n * d)
    big[last, last] += data.quad

    # det Dtilde = 1, so log det gram = n log det B - n d log dt (see cm_gram)
    log_det_gram = n * (np.linalg.slogdet(p.kinetic_matrix)[1] - d * np.log(dt))
    factor = cho_factor(big, lower=True)
    log_det_ratio = log_det_gram - 2.0 * np.sum(np.log(np.diag(factor[0])))
    poly2_cov = 0.0
    if np.any(data.poly2):
        cols = np.zeros((n * d, d))
        cols[last, :] = np.eye(d)
        poly2_cov = float(np.sum(data.poly2 * cho_solve(factor, cols)[last, :]))

    values = np.empty(len(points), dtype=complex)
    for i, q in enumerate(points):
        rhs = np.concatenate([np.tile(-dt * (m_mat @ q + g_vec), n - 1), data.lin - data.quad @ q])
        const = (
            -n * dt * (0.5 * q @ m_mat @ q + g_vec @ q + c_val)
            - 0.5 * q @ data.quad @ q
            + data.lin @ q
            + data.const
        )
        mu = cho_solve(factor, rhs)
        mean_last = mu[last] + q
        poly_expect = data.poly0 + data.poly1 @ mean_last + mean_last @ data.poly2 @ mean_last
        values[i] = np.exp(0.5 * log_det_ratio + const + 0.5 * rhs @ mu) * (poly_expect + poly2_cov)
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
    along the first path, one shared trajectory for every Lagrangian.

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
        x = paths_flat[idx]
        for k, alpha in enumerate(alphas, start=1):
            log_det = jacobian_log_det(family, float(alpha), x)
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
