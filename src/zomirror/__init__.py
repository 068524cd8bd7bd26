"""Zeroth-order composite optimization in an entropy-like mirror geometry.

The package bundles a two-point Rademacher gradient estimator, an
elastic-net proximal step that solves ln(d*m + 1) + (gamma2/eta)*m = q
for each magnitude m by Halley steps in log space, adaptive and
recursive-momentum mirror-descent solvers, a Euclidean proximal-SGD
baseline, synthetic benchmark problems, and a reproducible experiment
CLI.  It republishes the public names of its modules, each listed in that
module's __all__.
"""

from . import core, mirror, problems, sampling, solvers
from .core import *
from .mirror import *
from .problems import *
from .sampling import *
from .solvers import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *mirror.__all__, *problems.__all__, *sampling.__all__, *solvers.__all__, "__version__"]
