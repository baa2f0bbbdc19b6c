"""Uniform time lattices, discretized paths, and Cameron-Martin geometry.

A path on a lattice with ``n_steps`` steps stores the samples psi(tau_j) for
tau_j = (j + 1) * dt, j = 0 .. n_steps - 1, in an (n_steps, dim_q) array.
The starting value psi(0) = 0 is implicit and never stored.  Flattened
coordinates are row-major with the time index outermost, so component c of
time slot j sits at flat index j * dim_q + c.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LatticeMismatchError


@dataclass(frozen=True)
class TimeLattice:
    """Uniform grid on [0, t_final] with n_steps steps of width dt."""

    n_steps: int
    t_final: float
    dim_q: int

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    @property
    def dim(self) -> int:
        """Dimension of the flattened path coordinate space."""
        return self.n_steps * self.dim_q

    @property
    def times(self) -> np.ndarray:
        """Stored node times tau_j = (j + 1) * dt."""
        return self.dt * np.arange(1, self.n_steps + 1)


def make_lattice(n_steps: int, t_final: float, dim_q: int) -> TimeLattice:
    """Build a TimeLattice, rejecting non-positive arguments.

    Parameters
    ----------
    n_steps : int
        Number of time steps (stored path values).
    t_final : float
        Final time; dt = t_final / n_steps.
    dim_q : int
        Dimension of the configuration space at each time.
    """
    if int(n_steps) != n_steps or n_steps <= 0:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    if not (t_final > 0.0):
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    if int(dim_q) != dim_q or dim_q <= 0:
        raise ValueError(f"dim_q must be a positive integer, got {dim_q!r}")
    return TimeLattice(int(n_steps), float(t_final), int(dim_q))


@dataclass(frozen=True)
class Path:
    """Discretized path: values[j] = psi(tau_{j}), psi(0) = 0 implicit."""

    lattice: TimeLattice
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.lattice.n_steps, self.lattice.dim_q):
            raise ValueError(
                f"path values must have shape {(self.lattice.n_steps, self.lattice.dim_q)},"
                f" got {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def flat(self) -> np.ndarray:
        """Row-major (time-major) flattened coordinates."""
        return self.values.reshape(-1)

    def __add__(self, other: "Path") -> "Path":
        _check_same_lattice(self, other)
        return Path(self.lattice, self.values + other.values)

    def __sub__(self, other: "Path") -> "Path":
        _check_same_lattice(self, other)
        return Path(self.lattice, self.values - other.values)

    def __rmul__(self, scalar: float) -> "Path":
        return Path(self.lattice, float(scalar) * self.values)


def path_from_flat(lattice: TimeLattice, flat: np.ndarray) -> Path:
    """Reassemble a Path from row-major flattened coordinates."""
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (lattice.dim,):
        raise ValueError(f"expected flat shape {(lattice.dim,)}, got {flat.shape}")
    return Path(lattice, flat.reshape(lattice.n_steps, lattice.dim_q))


def _check_same_lattice(f: Path, g: Path) -> None:
    if f.lattice != g.lattice:
        raise LatticeMismatchError(
            f"paths live on different lattices: {f.lattice} vs {g.lattice}"
        )


def discrete_derivative(path: Path) -> np.ndarray:
    """Forward-difference derivative, entry j = (psi(tau_j) - psi(tau_{j-1})) / dt.

    The j = 0 entry uses the implicit starting value psi(0) = 0.  Returns an
    (n_steps, dim_q) array.
    """
    return np.diff(path.values, axis=0, prepend=0.0) / path.lattice.dt


def difference_matrix(lattice: TimeLattice) -> np.ndarray:
    """Matrix D with (D @ path.flat) equal to the flattened discrete derivative.

    Lower bidiagonal in the time index (hence invertible), acting as the
    identity on the component index.
    """
    n = lattice.n_steps
    d1 = (np.eye(n) - np.eye(n, k=-1)) / lattice.dt
    return np.kron(d1, np.eye(lattice.dim_q))


@dataclass(frozen=True)
class CameronMartinGram:
    """SPD Gram matrix of the discretized derivative inner product.

    With an optional kinetic weighting B, the quadratic form is
    sum_j (dpsi_j/dt)^T B (dpsi_j/dt) * dt, so the matrix doubles as the
    precision of the discretized (kinetically weighted) Wiener measure.
    """

    lattice: TimeLattice
    matrix: np.ndarray
    kinetic_matrix: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (self.lattice.dim, self.lattice.dim):
            raise ValueError("gram matrix has wrong shape")
        if not np.allclose(mat, mat.T, rtol=0, atol=1e-12 * max(1.0, np.abs(mat).max())):
            raise ValueError("gram matrix is not symmetric")
        np.linalg.cholesky(mat)  # raises LinAlgError if not SPD
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def cm_gram(lattice: TimeLattice, kinetic_matrix: np.ndarray | None = None) -> CameronMartinGram:
    """Gram matrix (1/dt) * (Dtilde^T Dtilde kron B) of the lattice.

    Dtilde is the unscaled forward-difference matrix (entries +-1); B defaults
    to the identity.  Equal to dt * D^T (I kron B) D for the scaled D returned
    by :func:`difference_matrix`.
    """
    n, d = lattice.n_steps, lattice.dim_q
    dtilde = np.eye(n) - np.eye(n, k=-1)
    tmat = (dtilde.T @ dtilde) / lattice.dt
    if kinetic_matrix is None:
        kinetic_matrix = np.eye(d)
    kinetic_matrix = np.asarray(kinetic_matrix, dtype=float)
    if kinetic_matrix.shape != (d, d):
        raise ValueError(f"kinetic matrix must be {(d, d)}, got {kinetic_matrix.shape}")
    return CameronMartinGram(lattice, np.kron(tmat, kinetic_matrix), kinetic_matrix)


def cm_inner(f: Path, g: Path) -> float:
    """Discretized Cameron-Martin inner product sum_j <df_j/dt, dg_j/dt> dt."""
    _check_same_lattice(f, g)
    df = discrete_derivative(f)
    dg = discrete_derivative(g)
    return float(np.sum(df * dg) * f.lattice.dt)
