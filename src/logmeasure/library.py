"""Named building blocks: Lagrangians, transformation families, test batteries.

Everything here is plain construction; the registries at the bottom give the
CLI stable names.  eta implementations use analytic (conjugation-free)
operations so they continue to complex arguments, which the oscillatory
quadrature relies on.
"""

from __future__ import annotations

import inspect
import math
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import block_diag

from .action import Lagrangian, QuadraticEta
from .fields import TestFunction, TransformationFamily, VectorField
from .lattice import TimeLattice


def _kinetic(dim_q: int, kinetic_scale: float) -> np.ndarray:
    if kinetic_scale <= 0:
        raise ValueError("kinetic_scale must be positive")
    return kinetic_scale * np.eye(dim_q)


def free_lagrangian(dim_q: int, kinetic_scale: float = 1.0) -> Lagrangian:
    """eta = 0; pure kinetic energy."""

    def eta(q: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.zeros(np.atleast_2d(q).shape[0])

    def eta_d1(q: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.atleast_2d(q))

    return Lagrangian(
        dim_q=dim_q,
        eta=eta,
        eta_d1=eta_d1,
        kinetic_matrix=_kinetic(dim_q, kinetic_scale),
        label="free",
        quadratic_eta=QuadraticEta(np.zeros((dim_q, dim_q)), np.zeros(dim_q)),
    )


def harmonic_lagrangian(dim_q: int, omega: float = 1.0, kinetic_scale: float = 1.0) -> Lagrangian:
    """eta(q) = (1/2) omega^2 |q|^2, the damped-mode restoring potential."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    w2 = omega**2

    def eta(q: np.ndarray, v: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(q)
        return 0.5 * w2 * np.einsum("ij,ij->i", q, q)

    def eta_d1(q: np.ndarray, v: np.ndarray) -> np.ndarray:
        return w2 * np.atleast_2d(q)

    return Lagrangian(
        dim_q=dim_q,
        eta=eta,
        eta_d1=eta_d1,
        kinetic_matrix=_kinetic(dim_q, kinetic_scale),
        label=f"harmonic(omega={omega})",
        quadratic_eta=QuadraticEta(w2 * np.eye(dim_q), np.zeros(dim_q)),
    )


def quartic_lagrangian(dim_q: int, coupling: float = 1.0, kinetic_scale: float = 1.0) -> Lagrangian:
    """eta(q) = coupling * sum_i q_i^4; no closed Gaussian form."""

    def eta(q: np.ndarray, v: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(q)
        q2 = q * q
        return coupling * np.sum(q2 * q2, axis=1)

    def eta_d1(q: np.ndarray, v: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(q)
        return 4.0 * coupling * (q * q * q)

    return Lagrangian(
        dim_q=dim_q,
        eta=eta,
        eta_d1=eta_d1,
        kinetic_matrix=_kinetic(dim_q, kinetic_scale),
        label=f"quartic(coupling={coupling})",
    )


def _constant_field(dim: int, vector: np.ndarray, label: str) -> VectorField:
    vector = np.asarray(vector, dtype=float).reshape(dim)
    return VectorField(
        dim=dim,
        eval=lambda x: np.broadcast_to(vector, np.atleast_2d(x).shape).copy(),
        jacobian=lambda x: np.zeros((dim, dim)),
        divergence=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        label=label,
    )


def _linear_field(dim: int, matrix: np.ndarray, label: str) -> VectorField:
    matrix = np.asarray(matrix, dtype=float)
    trace = float(np.trace(matrix))
    return VectorField(
        dim=dim,
        eval=lambda x: np.atleast_2d(x) @ matrix.T,
        jacobian=lambda x: matrix.copy(),
        divergence=lambda x: np.full(np.atleast_2d(x).shape[0], trace),
        label=label,
    )


def translation_family(dim: int, direction: Optional[Sequence[float]] = None) -> TransformationFamily:
    """S(alpha) x = x - alpha k; generator is the constant field k."""
    if direction is None:
        k = np.ones(dim) / math.sqrt(dim)
    else:
        k = np.asarray(direction, dtype=float).reshape(dim)
    return TransformationFamily(
        dim=dim,
        eval=lambda alpha, x: np.atleast_2d(x) - alpha * k,
        alpha_jacobian=lambda alpha, x: np.eye(dim),
        generator_field=_constant_field(dim, k, "translation generator"),
        label="translation",
    )


def scaling_family(dim: int) -> TransformationFamily:
    """S(alpha) x = e^alpha x; generator -x, flow velocity +x (trace dim)."""
    return TransformationFamily(
        dim=dim,
        eval=lambda alpha, x: np.exp(alpha) * np.atleast_2d(x),
        alpha_jacobian=lambda alpha, x: np.exp(alpha) * np.eye(dim),
        generator_field=_linear_field(dim, -np.eye(dim), "scaling generator"),
        label="scaling",
    )


def rotation_family(dim: int, plane: tuple[int, int] = (0, 1)) -> TransformationFamily:
    """Rotation by alpha in one coordinate plane; volume preserving."""
    i, j = plane
    if dim < 2 or not (0 <= i < dim and 0 <= j < dim) or i == j:
        raise ValueError("rotation needs two distinct axes inside the dimension")
    omega = np.zeros((dim, dim))
    omega[j, i] = 1.0
    omega[i, j] = -1.0

    def rot_matrix(alpha: float) -> np.ndarray:
        r = np.eye(dim)
        c, s = math.cos(alpha), math.sin(alpha)
        r[i, i] = c
        r[j, j] = c
        r[i, j] = -s
        r[j, i] = s
        return r

    return TransformationFamily(
        dim=dim,
        eval=lambda alpha, x: np.atleast_2d(x) @ rot_matrix(alpha).T,
        alpha_jacobian=lambda alpha, x: rot_matrix(alpha),
        generator_field=_linear_field(dim, -omega, "rotation generator"),
        label="rotation",
    )


def shear_family(dim: int, strength: float = 1.0) -> TransformationFamily:
    """S(alpha) x = exp(alpha N) x, a finite sum as the superdiagonal N is nilpotent; det = 1."""
    if dim < 2:
        raise ValueError("shear needs dim >= 2")
    nil = strength * np.eye(dim, k=1)

    def shear_matrix(alpha: float) -> np.ndarray:
        term = out = np.eye(dim)
        for k in range(1, dim):
            term = term @ (alpha * nil) / k
            out = out + term
        return out

    return TransformationFamily(
        dim=dim,
        eval=lambda alpha, x: np.atleast_2d(x) @ shear_matrix(alpha).T,
        alpha_jacobian=lambda alpha, x: shear_matrix(alpha),
        generator_field=_linear_field(dim, -nil, "shear generator"),
        label="shear",
    )


def sine_flow_family(
    dim: int,
    amplitude: float = 0.1,
    wavenumber: float = 1.0,
    steps_per_unit: int = 256,
) -> TransformationFamily:
    """Flow of the separable velocity v_i(x) = amplitude * sin(wavenumber * x_i).

    S(alpha) integrates dy/ds = v(y) with classical RK4, so the family is a
    genuine flow up to O(h^4) substep error; steps_per_unit controls the
    refinement.  The spatial Jacobian integrates the variational equation
    dJ/ds = v'(y) J alongside the trajectory.
    """
    if steps_per_unit <= 0:
        raise ValueError("steps_per_unit must be positive")

    def vel(y: np.ndarray) -> np.ndarray:
        return amplitude * np.sin(wavenumber * y)

    def vel_diag(y: np.ndarray) -> np.ndarray:
        return amplitude * wavenumber * np.cos(wavenumber * y)

    def n_sub(alpha: float) -> int:
        return max(4, int(math.ceil(abs(alpha) * steps_per_unit)))

    def integrate(alpha: float, y: np.ndarray, jac: Optional[np.ndarray] = None) -> tuple:
        """RK4 for y, and for the diagonal jac of dS/dx from dJ/ds = v'(y) J when given."""
        steps = n_sub(alpha)
        h = alpha / steps
        for _ in range(steps):
            k1 = vel(y)
            y2 = y + 0.5 * h * k1
            k2 = vel(y2)
            y3 = y + 0.5 * h * k2
            k3 = vel(y3)
            y4 = y + h * k3
            k4 = vel(y4)
            if jac is not None:
                j1 = vel_diag(y) * jac
                j2 = vel_diag(y2) * (jac + 0.5 * h * j1)
                j3 = vel_diag(y3) * (jac + 0.5 * h * j2)
                j4 = vel_diag(y4) * (jac + h * j3)
                jac = jac + h / 6.0 * (j1 + 2.0 * j2 + 2.0 * j3 + j4)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y, jac

    def flow(alpha: float, x: np.ndarray) -> np.ndarray:
        return integrate(alpha, np.array(np.atleast_2d(x), dtype=float))[0]

    def alpha_jacobian(alpha: float, x: np.ndarray) -> np.ndarray:
        return np.diag(integrate(alpha, np.asarray(x, dtype=float), np.ones(dim))[1])

    generator = VectorField(
        dim=dim,
        eval=lambda x: -vel(np.atleast_2d(x)),
        jacobian=lambda x: -np.diag(vel_diag(np.asarray(x, dtype=float))),
        divergence=lambda x: -np.sum(vel_diag(np.atleast_2d(x)), axis=1),
        label="sine flow generator",
    )
    return TransformationFamily(
        dim=dim,
        eval=flow,
        alpha_jacobian=alpha_jacobian,
        generator_field=generator,
        label="sine_flow",
    )


def pointwise_family(base: TransformationFamily, lattice: TimeLattice) -> TransformationFamily:
    """Lift a dim_q family to stacked path coordinates, one copy per time node."""
    if base.dim != lattice.dim_q:
        raise ValueError("base family must act on single-node coordinates")
    n, d = lattice.n_steps, lattice.dim_q
    dim = lattice.dim

    def eval_paths(alpha: float, x: np.ndarray) -> np.ndarray:
        xb = np.atleast_2d(x)
        nodes = xb.reshape(-1, d)
        return np.asarray(base.eval(alpha, nodes)).reshape(xb.shape)

    def per_node_blocks(block, x: np.ndarray) -> np.ndarray:
        """Block-diagonal matrix of block(x_j) over the time nodes x_j of x."""
        x = np.asarray(x, dtype=float)
        return block_diag(*(block(x[j * d : (j + 1) * d]) for j in range(n)))

    alpha_jacobian = None
    if base.alpha_jacobian is not None:

        def alpha_jacobian(alpha: float, x: np.ndarray) -> np.ndarray:
            return per_node_blocks(lambda y: base.alpha_jacobian(alpha, y), x)

    generator = None
    if base.generator_field is not None:
        base_gen = base.generator_field

        def gen_eval(x: np.ndarray) -> np.ndarray:
            xb = np.atleast_2d(x)
            return np.asarray(base_gen.eval(xb.reshape(-1, d))).reshape(xb.shape)

        def gen_divergence(x: np.ndarray) -> np.ndarray:
            xb = np.atleast_2d(x)
            per_node = base_gen.divergence_batch(xb.reshape(-1, d))
            return per_node.reshape(-1, n).sum(axis=1)

        generator = VectorField(
            dim=dim,
            eval=gen_eval,
            jacobian=lambda x: per_node_blocks(base_gen.jacobian_at, x),
            divergence=gen_divergence,
            label=f"pointwise {base_gen.label}",
        )

    return TransformationFamily(
        dim=dim,
        eval=eval_paths,
        alpha_jacobian=alpha_jacobian,
        generator_field=generator,
        label=f"pointwise_{base.label}",
    )


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def polynomial_pairs(
    dim: int, count: int = 24, seed: int = 0
) -> list[tuple[TestFunction, VectorField]]:
    """Battery of (test function, vector field) pairs for the trace identity.

    phi(x) = c0 + g.x + (1/2) x.Q x + w3 (a3.x)^3 + w4 (a4.x)^4, degree <= 4,
    h(x) = u + A x + (w.x)^2 s, degree <= 2; both with analytic derivatives.
    Direction vectors are unit length and matrices are scaled by 1/sqrt(dim)
    so the moments stay tame in high dimension.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[TestFunction, VectorField]] = []
    for index in range(count):
        c0 = rng.uniform(-1.0, 1.0)
        g = rng.uniform(-1.0, 1.0, dim)
        raw = rng.uniform(-1.0, 1.0, (dim, dim))
        quad = (raw + raw.T) / (2.0 * math.sqrt(dim))
        a3 = _unit(rng, dim)
        a4 = _unit(rng, dim)
        w3 = rng.uniform(-0.5, 0.5)
        w4 = rng.uniform(-0.25, 0.25)

        # Integer powers are taken by multiplication (** on a float array goes
        # through libm pow), and the constant and rank-one terms of the vector
        # values enter through one (n, 3) @ (3, dim) product rather than one
        # (n, dim) temporary each.
        g_a3_a4 = np.stack([g, a3, a4])

        def phi_eval(x, c0=c0, g=g, quad=quad, a3=a3, a4=a4, w3=w3, w4=w4):
            x = np.atleast_2d(x)
            lin3 = x @ a3
            lin4 = x @ a4
            lin4_sq = lin4 * lin4
            return (
                c0
                + x @ g
                + 0.5 * np.einsum("ij,ij->i", x, x @ quad)
                + w3 * (lin3 * lin3 * lin3)
                + w4 * (lin4_sq * lin4_sq)
            )

        def phi_grad(x, quad=quad, a3=a3, a4=a4, w3=w3, w4=w4, g_a3_a4=g_a3_a4):
            x = np.atleast_2d(x)
            lin3 = x @ a3
            lin4 = x @ a4
            coef = np.stack(
                [np.ones_like(lin3), 3.0 * w3 * lin3 * lin3, 4.0 * w4 * lin4 * lin4 * lin4], axis=1
            )
            out = x @ quad
            out += coef @ g_a3_a4
            return out

        u = rng.uniform(-1.0, 1.0, dim)
        a_mat = rng.uniform(-1.0, 1.0, (dim, dim)) / math.sqrt(dim)
        w_dir = _unit(rng, dim)
        s_vec = rng.uniform(-0.5, 0.5, dim)
        trace_a = float(np.trace(a_mat))
        sw = float(s_vec @ w_dir)
        u_s = np.stack([u, s_vec])

        def h_eval(x, a_mat=a_mat, w_dir=w_dir, u_s=u_s):
            x = np.atleast_2d(x)
            lin = x @ w_dir
            out = x @ a_mat.T
            out += np.stack([np.ones_like(lin), lin * lin], axis=1) @ u_s
            return out

        def h_jac(x, a_mat=a_mat, w_dir=w_dir, s_vec=s_vec):
            x = np.asarray(x, dtype=float)
            return a_mat + 2.0 * float(x @ w_dir) * np.outer(s_vec, w_dir)

        def h_div(x, w_dir=w_dir, trace_a=trace_a, sw=sw):
            x = np.atleast_2d(x)
            return trace_a + 2.0 * (x @ w_dir) * sw

        pairs.append(
            (
                TestFunction(evaluator=phi_eval, gradient=phi_grad, label=f"poly_phi_{index}"),
                VectorField(
                    dim=dim, eval=h_eval, jacobian=h_jac, divergence=h_div, label=f"poly_h_{index}"
                ),
            )
        )
    return pairs


def make_lagrangian(name: str, dim_q: int, params: Optional[dict] = None) -> Lagrangian:
    params = dict(params or {})
    try:
        factory = _LAGRANGIAN_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown Lagrangian {name!r}; see list-builtins") from None
    return factory(dim_q, **params)


def make_family(name: str, dim: int, params: Optional[dict] = None) -> TransformationFamily:
    params = dict(params or {})
    try:
        factory = _FAMILY_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; see list-builtins") from None
    if "plane" in params:
        params["plane"] = tuple(params["plane"])
    return factory(dim, **params)


_LAGRANGIAN_FACTORIES = {
    "free": free_lagrangian,
    "harmonic": harmonic_lagrangian,
    "quartic": quartic_lagrangian,
}

_FAMILY_FACTORIES = {
    "translation": translation_family,
    "scaling": scaling_family,
    "rotation": rotation_family,
    "shear": shear_family,
    "sine_flow": sine_flow_family,
}


def list_builtins_data() -> dict:
    """Stable description of the named builtins, for the CLI.

    A builtin's parameters are its factory's keyword parameters: every one after
    the leading dimension.
    """

    def describe(factories: dict) -> list[dict]:
        return [
            {"name": name, "parameters": list(inspect.signature(factory).parameters)[1:]}
            for name, factory in factories.items()
        ]

    return {
        "lagrangians": describe(_LAGRANGIAN_FACTORIES),
        "families": describe(_FAMILY_FACTORIES),
        "test_function_libraries": describe({"polynomial": polynomial_pairs}),
    }
