"""Pseudospectral toolkit for Benjamin-Ono-type equations on the circle.

Layers:

* :mod:`bosp.spectral`    -- grids, fields, transforms, multiplier calculus
* :mod:`bosp.lingroup`    -- free propagators and the mixed L^4 norm
* :mod:`bosp.evolve`      -- integrating-factor / ETD time stepping
* :mod:`bosp.gauge`       -- gauge transform and its derived equations
* :mod:`bosp.invariants`  -- conserved quantities, space-time norms, dilation
* :mod:`bosp.ensembles`   -- reproducible random field ensembles
* :mod:`bosp.checkpoint`  -- binary snapshot/trajectory persistence
* :mod:`bosp.experiments` -- named, config-driven experiment runners
"""

from .spectral import (
    ZERO_MEAN_TOL,
    PeriodicGrid,
    SpectralField,
    Trajectory,
    analyze,
    synthesize,
    analyze_values_padded,
    hilbert,
    project,
    differentiate,
    antiderivative,
    mean_remove,
    norm,
    multiply,
    integrate,
    symmetry_defect,
)
from .lingroup import propagate, strichartz_norm, strichartz_norms, group_symbol
from .evolve import SolverConfig, solve, solve_batch, convergence_order, ConvergenceResult
from .gauge import (
    GaugeState,
    build_gauge,
    rhs_bo,
    rhs_gbo_terms,
    gauge_residual,
    gauge_residual_batch,
    reconstruct_u,
    gauge_lipschitz_gap,
    remove_mean_bo,
    renormalize_gbo,
    pde_residual,
)
from .invariants import (
    invariant,
    drift_report,
    InvariantReport,
    xnorm,
    xnorm_series,
    h1_apriori_check,
    dilate,
)
from .ensembles import random_field, random_fields
from .checkpoint import save_checkpoint, load_checkpoint
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    default_config,
    config_from_mapping,
    run_experiment,
    recompute_passed,
    save_report,
)
from .errors import BlowUpError, CheckpointError, ConfigError

__all__ = [
    "ZERO_MEAN_TOL",
    "PeriodicGrid",
    "SpectralField",
    "Trajectory",
    "analyze",
    "synthesize",
    "analyze_values_padded",
    "hilbert",
    "project",
    "differentiate",
    "antiderivative",
    "mean_remove",
    "norm",
    "multiply",
    "integrate",
    "symmetry_defect",
    "propagate",
    "strichartz_norm",
    "strichartz_norms",
    "group_symbol",
    "SolverConfig",
    "solve",
    "solve_batch",
    "convergence_order",
    "ConvergenceResult",
    "GaugeState",
    "build_gauge",
    "rhs_bo",
    "rhs_gbo_terms",
    "gauge_residual",
    "gauge_residual_batch",
    "reconstruct_u",
    "gauge_lipschitz_gap",
    "remove_mean_bo",
    "renormalize_gbo",
    "pde_residual",
    "invariant",
    "drift_report",
    "InvariantReport",
    "xnorm",
    "xnorm_series",
    "h1_apriori_check",
    "dilate",
    "random_field",
    "random_fields",
    "save_checkpoint",
    "load_checkpoint",
    "ExperimentConfig",
    "ExperimentReport",
    "default_config",
    "config_from_mapping",
    "run_experiment",
    "recompute_passed",
    "save_report",
    "BlowUpError",
    "CheckpointError",
    "ConfigError",
]

__version__ = "0.1.0"
