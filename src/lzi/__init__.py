"""Exact and numerical dynamics of multi-level Landau-Zener sweeps.

Model builders (one sloped level over flat levels, and two parallel sloped
levels over flat levels), their exact spectral data and closed-form
scattering solution, commuting-integral and flat-connection verification,
and an independent time-ordered propagator oracle.
"""

from .ado import *
from .demkov_osherov import *
from .errors import *
from .gaudin import *
from .propagator import *
from .spin import *

__version__ = "0.1.0"
