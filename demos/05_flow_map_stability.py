"""Lipschitz behaviour of the flow map on data with a fixed mean.

On the hyperplane of H^1 functions with a common mean value, nearby
initial data stay proportionally close under the flow: the ratio
sup_t ||u1 - u2||_{H^1} / ||phi1 - phi2||_{H^1} is bounded, and it barely
moves when the initial gap shrinks by two orders of magnitude.  The
companion measurement shows why: the gauge phase map phi -> e^{-iF} is
itself Lipschitz from L^2 into the uniform norm.
"""

import numpy as np

from bosp import (PeriodicGrid, SolverConfig, gauge_lipschitz_gap, norm,
                  random_field, solve)

rng = np.random.default_rng(1)
grid = PeriodicGrid(1.0, 128)
gamma = 0.5
cfg = SolverConfig("gbo", k=1, dt=2e-3, t_final=0.5, sample_stride=25)

print(f"pairs with mean pinned to gamma = {gamma}, T = {cfg.t_final}")
for scale in (1e-2, 1e-4):
    worst = 0.0
    for _ in range(5):
        phi1 = random_field(grid, rng, n_modes=16, amplitude=0.25,
                            normalize="h1", mean=gamma)
        delta = scale * random_field(grid, rng, n_modes=16, amplitude=1.0,
                                     normalize="h1")
        phi2 = phi1 + delta
        t1, t2 = solve(phi1, cfg), solve(phi2, cfg)
        dist = max(norm(a - b, "hs", s=1.0) for a, b in zip(t1, t2))
        worst = max(worst, dist / norm(delta, "hs", s=1.0))
    print(f"  initial gap {scale:.0e}:  max ratio = {worst:.4f}")

print("\ngauge-phase Lipschitz ratio across circle sizes:")
for lam in (1.0, 4.0, 16.0):
    g = PeriodicGrid(lam, 128)
    worst = max(
        gauge_lipschitz_gap(
            random_field(g, rng, n_modes=16, amplitude=0.25, normalize="l2"),
            random_field(g, rng, n_modes=16, amplitude=0.25, normalize="l2"),
        ).bound_ratio
        for _ in range(25)
    )
    print(f"  lam = {lam:4.0f}:  max gap / (sqrt(lam) ||dphi||_L2) = {worst:.4f}")
