"""Walsh series, Rudin-Shapiro flat polynomials, and positive Riesz products.

The package exports each module's `__all__` and the five modules."""

__version__ = "1.0.0"

from .walsh import *
from .rudin_shapiro import *
from .martingale import *
from .riesz import *
from .trig import *

__all__ = [name for name in dir() if not name.startswith("_")]
