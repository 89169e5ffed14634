"""Two-dimensional Dirac oscillator: closed-form spectrum and eigenfunctions
with independent numerical verification (finite-difference eigensolver,
quadrature and residual checks)."""

from . import oracle, specfun, spectrum, units, wavefn
from .oracle import *
from .specfun import *
from .spectrum import *
from .units import *
from .wavefn import *

__version__ = "0.1.0"

__all__ = [
    *units.__all__,
    *specfun.__all__,
    *spectrum.__all__,
    *wavefn.__all__,
    *oracle.__all__,
]
