"""Dilation symmetry and the renormalized form of the equation.

If u solves the equation on the unit circle, lam^{-1/k} u(t/lam^2, x/lam)
solves it on the lam-times-larger circle, so solving then dilating must
agree with dilating then solving (to time lam^2 t).  The second half maps
a solution with a moving mean to the renormalized zero-mean-flux equation
and verifies the result by differencing the stored snapshots against the
claimed right-hand side.
"""

import numpy as np

from bosp import (PeriodicGrid, SolverConfig, SpectralField, dilate, norm,
                  pde_residual, renormalize_gbo, solve)

grid = PeriodicGrid(1.0, 128)
u0 = 0.1 * SpectralField.from_function(grid, np.cos)
lam, t, dt = 2.0, 0.25, 1e-3
steps = int(round(t / dt))

print("-- commutation of dilation and the flow (k = 2) --")
direct = solve(u0, SolverConfig("gbo", k=2, dt=dt, t_final=t, sample_stride=steps))[-1]
path_a = dilate(direct, lam, "gbo", k=2)
path_b = solve(
    dilate(u0, lam, "gbo", k=2),
    SolverConfig("gbo", k=2, dt=lam * lam * dt, t_final=lam * lam * t,
                 sample_stride=steps))[-1]
print(f"solve-then-dilate vs dilate-then-solve: "
      f"H1 discrepancy = {norm(path_a - path_b, 'hs', s=1.0):.3e}")

print("\n-- renormalization to the zero-mean-flux form --")
traj = solve(u0, SolverConfig("gbo", k=2, dt=5e-4, t_final=0.5, sample_stride=2))
renorm = renormalize_gbo(traj)
res = pde_residual(renorm)
print(f"renormalized trajectory satisfies v_t + H v_xx = 2 M(v^2) v_x:")
print(f"  max finite-difference residual = {res.l2:.3e}")
print(f"  amplitude factor applied: {renorm[0].coeffs[1].real / traj[0].coeffs[1].real:.6f}"
      f"  (2^(-1/2) = {2 ** -0.5:.6f})")
