"""Named building blocks: Lagrangians, transformation families, test batteries.

Everything here is plain construction; the registries at the bottom give the
CLI stable names.  eta implementations use analytic (conjugation-free)
operations so they continue to complex arguments, which the oscillatory
quadrature relies on.
"""

from __future__ import annotations

import inspect
import math
import numbers
from typing import Optional, Sequence

import numpy as np

from .action import Lagrangian, QuadraticEta
from .fields import TestFunction, TransformationFamily, VectorField
from .lattice import TimeLattice
from .measures import _CHUNK_ROWS


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
    integral = isinstance(i, numbers.Integral) and isinstance(j, numbers.Integral)
    if dim < 2 or not (integral and 0 <= i < dim and 0 <= j < dim) or i == j:
        raise ValueError("rotation needs two distinct integer axes inside the dimension")
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


def sine_flow_family(dim: int, amplitude: float = 0.1, wavenumber: float = 1.0) -> TransformationFamily:
    """Flow of the separable velocity v_i(x) = amplitude * sin(wavenumber * x_i), in closed form.

    With theta = wavenumber * x and c = amplitude * wavenumber * alpha the flow
    is tan(wavenumber S / 2) = tan(theta / 2) e^c, so
    S(alpha, x) = x + (2 / wavenumber) atan2(sin theta sinh(c/2), cosh(c/2) - cos theta sinh(c/2)),
    and dS/dx is diagonal, 1 / (sin^2(theta/2) e^c + cos^2(theta/2) e^-c).
    The atan2 arguments are taken times e^-|c|/2, so they neither overflow nor
    cancel at any c; the Jacobian is finite for |c| below about 709.
    """
    if wavenumber == 0:
        raise ValueError("wavenumber must be non-zero")

    def vel(y: np.ndarray) -> np.ndarray:
        return amplitude * np.sin(wavenumber * y)

    def vel_diag(y: np.ndarray) -> np.ndarray:
        return amplitude * wavenumber * np.cos(wavenumber * y)

    def sweep(alphas, x: np.ndarray, jacobian: bool = False):
        """S(alpha, x) for every alpha and row of x, and the Jacobians when asked.

        Each (alpha, row) pair is elementwise in its alpha's exponentials and
        its row's half-angle sine and cosine products, so it is bitwise what a
        call with that alpha alone gives.  The pairs run in blocks of at most
        _CHUNK_ROWS values.
        """
        c = amplitude * wavenumber * np.asarray(alphas, dtype=float).reshape(-1)
        xb = np.asarray(np.atleast_2d(x), dtype=float)
        k, n = len(c), len(xb)
        # in half angles, times e^-|c|/2: sin theta sinh(c/2) -> sin cos (sign(c) - sign(c) e^-|c|)
        # and cosh(c/2) - cos theta sinh(c/2) -> cos^2 e^-max(c, 0) + sin^2 e^min(c, 0)
        gain = np.sign(c) * -np.expm1(-np.abs(c))
        shrink, grow = np.exp(-np.maximum(c, 0.0)), np.exp(np.minimum(c, 0.0))
        if jacobian:
            up, down = np.exp(c), np.exp(-c)
        sin, cos = np.sin(0.5 * wavenumber * xb), np.cos(0.5 * wavenumber * xb)
        sin_cos, cos_sq, sin_sq = sin * cos, cos * cos, sin * sin
        points = np.empty((k * n, dim))
        jacs = np.zeros((k * n, dim, dim)) if jacobian else None
        per_block = max(1, _CHUNK_ROWS // dim)
        for start in range(0, k * n, per_block):
            stop = min(start + per_block, k * n)
            pairs = np.arange(start, stop)
            a, p = pairs[:, None] // n, pairs % n
            turn = np.arctan2(sin_cos[p] * gain[a], cos_sq[p] * shrink[a] + sin_sq[p] * grow[a])
            points[start:stop] = xb[p] + (2.0 / wavenumber) * turn
            if jacobian:
                diagonal = 1.0 / (sin_sq[p] * up[a] + cos_sq[p] * down[a])
                jacs.reshape(k * n, dim * dim)[start:stop, :: dim + 1] = diagonal
        points = points.reshape(k, n, dim)
        return (points, jacs.reshape(k, n, dim, dim)) if jacobian else points

    def flow(alpha: float, x: np.ndarray) -> np.ndarray:
        return sweep([alpha], x)[0]

    def alpha_jacobian(alpha: float, x: np.ndarray) -> np.ndarray:
        return sweep([alpha], x, jacobian=True)[1][0, 0]

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
        sweep=sweep,
    )


def pointwise_family(base: TransformationFamily, lattice: TimeLattice) -> TransformationFamily:
    """Lift a dim_q family to stacked path coordinates, one copy per time node.

    Its Jacobians are block diagonal: alpha_jacobian, the generator's jacobian
    and the sweep give the (n_steps, dim_q, dim_q) blocks, never the dense matrix.
    """
    if base.dim != lattice.dim_q:
        raise ValueError("base family must act on single-node coordinates")
    n, d = lattice.n_steps, lattice.dim_q
    dim = lattice.dim

    def eval_paths(alpha: float, x: np.ndarray) -> np.ndarray:
        xb = np.atleast_2d(x)
        nodes = xb.reshape(-1, d)
        return np.asarray(base.eval(alpha, nodes)).reshape(xb.shape)

    def per_node_blocks(block, x: np.ndarray) -> np.ndarray:
        """The (n, d, d) stack of block(x_j) over the time nodes x_j of x."""
        return np.stack([block(node) for node in np.asarray(x, dtype=float).reshape(n, d)])

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

    sweep = None
    if base.sweep is not None:

        def sweep(alphas, x: np.ndarray, jacobian: bool = False):
            xb = np.atleast_2d(x)
            swept = base.sweep(alphas, xb.reshape(-1, d), jacobian)
            points, blocks = swept if jacobian else (swept, None)
            points = points.reshape(len(points), *xb.shape)
            if blocks is None:
                return points
            return points, blocks.reshape(*points.shape[:2], n, d, d)

    alpha_jacobian = None
    if base.alpha_jacobian is not None:

        def alpha_jacobian(alpha: float, x: np.ndarray) -> np.ndarray:
            if sweep is not None:  # one base sweep over every node, not one per node
                return sweep([alpha], x, jacobian=True)[1][0, 0]
            return per_node_blocks(lambda y: base.alpha_jacobian(alpha, y), x)

    return TransformationFamily(
        dim=dim,
        eval=eval_paths,
        alpha_jacobian=alpha_jacobian,
        generator_field=generator,
        label=f"pointwise_{base.label}",
        sweep=sweep,
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


def _parameters(factory) -> list[str]:
    """A builtin's parameters: its factory's keyword parameters after the leading dimension."""
    return list(inspect.signature(factory).parameters)[1:]


def _parameter_fault(factory, params: dict) -> Optional[str]:
    """What is wrong with params for factory: an unknown key, or a non-number where it takes a number."""
    signature = inspect.signature(factory).parameters
    accepted = _parameters(factory)
    for key, value in params.items():
        if key not in accepted:
            return f"unknown parameter {key!r}"
        numeric = signature[key].annotation in ("float", "int")
        if numeric and (not isinstance(value, numbers.Real) or isinstance(value, bool)):
            return f"parameter {key!r} must be a number, not {value!r}"
    return None


def _make(kind: str, factories: dict, name: str, dim: int, params: Optional[dict]):
    """factories[name](dim, **params); ValueError naming the builtin's parameters if they do not fit
    or the factory rejects their values."""
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(f"unknown {kind} {name!r}; see list-builtins") from None
    params = dict(params or {})
    fault = _parameter_fault(factory, params)
    if fault is None:
        try:
            return factory(dim, **params)
        except (TypeError, ValueError) as exc:
            fault = str(exc)
    accepted = _parameters(factory)
    takes = f"parameters: {', '.join(accepted)}" if accepted else "no parameters"
    raise ValueError(f"{kind} {name!r} ({takes}): {fault}")


def make_lagrangian(name: str, dim_q: int, params: Optional[dict] = None) -> Lagrangian:
    return _make("Lagrangian", _LAGRANGIAN_FACTORIES, name, dim_q, params)


def make_family(name: str, dim: int, params: Optional[dict] = None) -> TransformationFamily:
    return _make("family", _FAMILY_FACTORIES, name, dim, params)


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
    """Stable description of the named builtins and their parameters, for the CLI."""

    def describe(factories: dict) -> list[dict]:
        return [
            {"name": name, "parameters": _parameters(factory)}
            for name, factory in factories.items()
        ]

    return {
        "lagrangians": describe(_LAGRANGIAN_FACTORIES),
        "families": describe(_FAMILY_FACTORIES),
        "test_function_libraries": describe({"polynomial": polynomial_pairs}),
    }
