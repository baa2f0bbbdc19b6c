"""One initial-value problem, four independent solvers.

The damped evolution of a Gaussian bump under a harmonic potential is
computed on a grid (Crank-Nicolson style PDE stepping), by an exact
Gaussian reduction of the time-sliced path integral, and by Monte Carlo
over discretized paths.  All three land on the same numbers.  The
oscillatory real-time variant is then checked against the free-particle
closed form: after a 45-degree contour rotation the sliced real-time
integral is a Gaussian expectation, which a Gauss-Hermite rule evaluates.
"""

import numpy as np

from logmeasure import (
    QuadratureSpec,
    SchrodingerProblem,
    SpaceGrid,
    WLogDerivativeMode,
    exact_gaussian_propagator,
    feynman_mc,
    free_evolution_closed_form,
    free_lagrangian,
    gaussian_bump,
    harmonic_lagrangian,
    make_lattice,
    oscillatory_check,
    pde_solve,
)

EUCLID = WLogDerivativeMode.EUCLIDEAN
REAL = WLogDerivativeMode.REAL_TIME

problem = SchrodingerProblem(1, harmonic_lagrangian(1), gaussian_bump(1, sigma=1.0), 0.5)
lat = make_lattice(64, 0.5, 1)
grid = SpaceGrid(1, 8.0, 257)

# Way 1: march the PDE on the grid.
pde = pde_solve(problem, grid, lat, EUCLID)

# Way 2: the quadratic action makes the sliced path integral a Gaussian
# integral that linear algebra evaluates exactly.
# Way 3: Monte Carlo average of the weight over Brownian-bridge paths.
print("    q     pde          exact        monte carlo (3 SE)")
for q in (-1.0, 0.0, 1.0):
    on_grid = np.interp(q, grid.axis, np.real(pde.values))
    exact = exact_gaussian_propagator(problem, [q], lat)
    mc = feynman_mc(problem, [q], lat, QuadratureSpec("monte_carlo", 200_000, seed=8))
    print(f"  {q:+.1f}   {on_grid:.6f}    {np.real(exact):.6f}    "
          f"{np.real(mc.value):.6f} +- {3 * mc.std_error:.6f}")

# Way 4: oscillatory quadrature in real time, short lattice, free
# Lagrangian, against the dispersive closed form.
free_problem = SchrodingerProblem(1, free_lagrangian(1), gaussian_bump(1, sigma=1.0), 0.5)
for q in (0.0, 0.4):
    osc = oscillatory_check(free_problem, [q], make_lattice(2, 0.5, 1))
    ref = free_evolution_closed_form(1.0, 0.0, 1.0, 1.0, 0.5, q, REAL)
    print(f"oscillatory at q={q}: {osc:.8f}  closed form: {ref:.8f}")
