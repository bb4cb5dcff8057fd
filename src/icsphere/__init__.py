"""Directional moments of standardized cross-sections.

Cross-sectional observations are centered and scaled onto the unit
sphere; this package provides the closed-form mean direction, resultant
length, and covariance of that direction under Gaussian models, the
induced moments and optimizers of forecast projections, seeded Monte
Carlo verification, and an empirical panel pipeline. The namespace is
the union of the library modules' __all__ lists.
"""

__version__ = "0.1.0"

from . import errors, moments, montecarlo, optimize, specfun, sphere
from .errors import *
from .moments import *
from .montecarlo import *
from .optimize import *
from .specfun import *
from .sphere import *

__all__ = ["__version__"] + [
    name for module in (errors, specfun, sphere, moments, optimize, montecarlo)
    for name in module.__all__
]
