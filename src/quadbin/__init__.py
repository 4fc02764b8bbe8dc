"""Coarse-grained homodyne quadrature analysis toolkit.

Simulates phase-diffused, lossy squeezed vacuum measurements, coarse-grains
them into bins, and certifies nonclassicality via the three-bin ratio test and
the normally-ordered-moment matrix, with parameter estimation, entanglement
potential and bootstrap significance on top.

The package API is each module's ``__all__``, re-exported here unchanged.
"""

from .binning import *
from .data import *
from .detect import *
from .errors import *
from .estimate import *
from .fock import *
from .model import *
from .stats import *

__all__ = [name for module in (binning, data, detect, errors, estimate, fock, model, stats) for name in module.__all__]

__version__ = "0.1.0"
