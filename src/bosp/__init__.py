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

from . import (spectral, lingroup, evolve, gauge, invariants, ensembles, checkpoint, experiments,
               errors)
from .spectral import *
from .lingroup import *
from .evolve import *
from .gauge import *
from .invariants import *
from .ensembles import *
from .checkpoint import *
from .experiments import *
from .errors import *

__all__ = [name for module in (spectral, lingroup, evolve, gauge, invariants, ensembles,
                               checkpoint, experiments, errors)
           for name in module.__all__]

__version__ = "0.1.0"
