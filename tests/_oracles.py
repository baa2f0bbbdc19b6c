"""Independent oracles used by the test suite.

Everything here is computed from first principles with scipy/numpy only, no
calls into the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.sparse import diags, identity
from scipy.sparse.linalg import eigsh, splu
from scipy.stats import multivariate_normal


def shift_log_derivative_fd(mean, cov, k, x, step=1e-6):
    """Central difference in t of log p_t(x), p_t the density of the image of
    N(mean, cov) under x -> x - t k (that image is N(mean - t k, cov))."""
    mean = np.asarray(mean, dtype=float)
    k = np.asarray(k, dtype=float)
    hi = multivariate_normal(mean - step * k, cov).logpdf(x)
    lo = multivariate_normal(mean + step * k, cov).logpdf(x)
    return (hi - lo) / (2.0 * step)


def translation_density_ratio(mean, cov, k, probe, alphas):
    """Pushforward of N(mean, cov) under x -> x - alpha k, relative density
    evaluated along the probe's trajectory y = probe - alpha k."""
    mean = np.asarray(mean, dtype=float)
    k = np.asarray(k, dtype=float)
    probe = np.asarray(probe, dtype=float)
    base = multivariate_normal(mean, cov)
    out = []
    for alpha in np.asarray(alphas, dtype=float):
        y = probe - alpha * k
        moved = multivariate_normal(mean - alpha * k, cov)
        out.append(np.exp(moved.logpdf(y) - base.logpdf(y)))
    return np.array(out)


def scaling_density_ratio(cov, probe, alphas):
    """Pushforward of N(0, cov) under x -> e^alpha x, relative density along
    y = e^alpha probe."""
    probe = np.asarray(probe, dtype=float)
    dim = probe.size
    base = multivariate_normal(np.zeros(dim), cov)
    out = []
    for alpha in np.asarray(alphas, dtype=float):
        y = np.exp(alpha) * probe
        moved = multivariate_normal(np.zeros(dim), np.exp(2.0 * alpha) * np.asarray(cov))
        out.append(np.exp(moved.logpdf(y) - base.logpdf(y)))
    return np.array(out)


def heat_evolved_gaussian(amplitude, center, sigma, diffusivity, t, q):
    """Convolution of a*exp(-(x-c)^2/(2 sigma^2)) with the N(0, diffusivity*t)
    heat kernel, evaluated at q."""
    spread = sigma**2 + diffusivity * t
    return amplitude * np.sqrt(sigma**2 / spread) * np.exp(-((q - center) ** 2) / (2.0 * spread))


def fresnel_evolved_gaussian(amplitude, center, sigma, mass, t, q):
    """Free oscillatory evolution of the same bump: complex variance i t / mass."""
    spread = sigma**2 + 1j * t / mass
    return amplitude * np.sqrt(sigma**2 / spread) * np.exp(-((q - center) ** 2) / (2.0 * spread))


def oscillator_kernel_value(q, t, f0, omega=1.0, cut=40.0):
    """Numerical integral of the damped oscillator kernel against f0.

    The kernel of exp(-t H), H = -(1/2) d^2/dx^2 + (1/2) omega^2 x^2, is
    sqrt(omega / (2 pi sinh(omega t))) *
    exp(-omega [(x^2+y^2) cosh(omega t) - 2 x y] / (2 sinh(omega t))).
    """
    s = np.sinh(omega * t)
    c = np.cosh(omega * t)
    norm = np.sqrt(omega / (2.0 * np.pi * s))

    def integrand(y):
        return norm * np.exp(-omega * ((q**2 + y**2) * c - 2.0 * q * y) / (2.0 * s)) * f0(y)

    value, _ = quad(integrand, -cut, cut, epsabs=1e-13, epsrel=1e-12, limit=400)
    return value


def crank_nicolson_reference(op, u0, dt, n_steps):
    """n_steps Crank-Nicolson steps of u' = op u, written out as two matrices:
    one COLAMD-ordered LU of I - (dt/2) op, and a product with I + (dt/2) op
    before each solve."""
    eye = identity(op.shape[0], format="csc")
    half = 0.5 * dt
    forward = (eye + half * op).tocsr()
    backward = splu((eye - half * op).tocsc())
    u = u0
    for _ in range(n_steps):
        u = backward.solve(forward @ u)
    return u


def fd_jacobian(map_fn, x, step=1e-6):
    """Dense Jacobian of a point map by central differences."""
    x = np.asarray(x, dtype=float)
    dim = x.size
    jac = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = step
        jac[:, j] = (map_fn(x + e) - map_fn(x - e)) / (2.0 * step)
    return jac


def discrete_ground_state(axis_interior, spacing, diffusivity, eta_values):
    """Lowest eigenpair of H = -(diffusivity/2) d^2/dx^2 + eta on the interior
    grid with zero boundary; returns (energy, unit-max eigenvector)."""
    n = axis_interior.size
    main = np.full(n, diffusivity / spacing**2) + eta_values
    off = np.full(n - 1, -0.5 * diffusivity / spacing**2)
    h_mat = diags([off, main, off], [-1, 0, 1], format="csc")
    vals, vecs = eigsh(h_mat, k=1, which="SA")
    vec = vecs[:, 0]
    vec = vec / vec[np.argmax(np.abs(vec))]
    return float(vals[0]), vec


def sine_flow_rk4(alpha, y, amplitude, wavenumber, steps_per_unit=256):
    """The sine flow at one alpha by a plain RK4 loop: (S(alpha, y), diagonal of dS/dx).

    max(4, ceil(|alpha| steps_per_unit)) steps of size alpha / steps for
    dy/ds = amplitude sin(wavenumber y), with the variational equation
    dJ/ds = amplitude wavenumber cos(wavenumber y) J alongside; y is one
    point or a batch of rows.
    """

    def vel(z):
        return amplitude * np.sin(wavenumber * z)

    def vel_diag(z):
        return amplitude * wavenumber * np.cos(wavenumber * z)

    y = np.array(y, dtype=float)
    jac = np.ones_like(y)
    steps = max(4, int(np.ceil(abs(alpha) * steps_per_unit)))
    h = alpha / steps
    for _ in range(steps):
        k1 = vel(y)
        y2 = y + 0.5 * h * k1
        k2 = vel(y2)
        y3 = y + 0.5 * h * k2
        k3 = vel(y3)
        y4 = y + h * k3
        k4 = vel(y4)
        j1 = vel_diag(y) * jac
        j2 = vel_diag(y2) * (jac + 0.5 * h * j1)
        j3 = vel_diag(y3) * (jac + 0.5 * h * j2)
        j4 = vel_diag(y4) * (jac + h * j3)
        jac = jac + h / 6.0 * (j1 + 2.0 * j2 + 2.0 * j3 + j4)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y, jac
