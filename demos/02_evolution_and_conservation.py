"""Evolve the circle equations and watch their conserved quantities.

The solver treats the dispersive phase exactly (integrating factor) and
writes the nonlinearity in conservative form, so the mean is conserved to
round-off and the mass and energy drift only through time-discretization
error.  The higher invariant F separates the two sign conventions of the
equation: the functional conserved by u_t + H u_xx = u u_x drifts wildly
if you flip the sign of its cubic term.
"""

import numpy as np

from bosp import PeriodicGrid, SolverConfig, SpectralField, drift_report, invariant, solve

grid = PeriodicGrid(1.0, 256)
u0 = 0.2 * SpectralField.from_function(grid, np.cos)
cfg = SolverConfig("gbo", k=1, dt=5e-4, t_final=1.0, sample_stride=100)
print(f"evolving u_t + H u_xx = u u_x from 0.2 cos x, dt={cfg.dt}, T={cfg.t_final}")
traj = solve(u0, cfg)

rep = drift_report(traj)
print("\nrelative drifts over the run:")
for name, drift in rep.drifts.items():
    print(f"  {name:6s}  {drift:.3e}")

wrong = np.array([invariant(f, "F_bo", sign=-1.0) for f in traj])
drift_wrong = np.max(np.abs(wrong - wrong[0])) / abs(wrong[0])
print(f"\nmirror-convention F drift: {drift_wrong:.3e}  "
      f"(the sign calibration is separated by ~10 orders of magnitude)")

print("\ninvariant traces (t, M, F):")
for t, m, f in zip(rep.times[::2], rep.values["M"][::2], rep.values["F_bo"][::2]):
    print(f"  t={t:4.1f}  M={m:.15f}  F={f:.15f}")
