"""Simulation and identification toolkit for SIS demand dynamics whose user
share jumps at product-release times.

The package exports every name in its modules' __all__ lists; each public
name is declared once, in its own module."""

__version__ = "0.1.0"

# star-imported alphabetically, which sets the order the modules load in;
# __all__ lists them in pipeline order
from .estimate import *
from .experiments import *
from .ingest import *
from .model import *
from .simulate import *
from .model import __all__ as _model
from .simulate import __all__ as _simulate
from .estimate import __all__ as _estimate
from .ingest import __all__ as _ingest
from .experiments import __all__ as _experiments

__all__ = ["__version__", *_model, *_simulate, *_estimate, *_ingest, *_experiments]
