"""netacorr: dependence statistics and Monte Carlo harnesses for network data.

What lives where:

- graph: edge-list IO, weight matrices, geodesics, random network generators
- deptest: Moran's I / Geary's c, randomization null moments, permutation test
- simulate: transmission, latent-field, degree-confound, and toy generators
- inference: naive mean CI, OLS, known-covariance GLS, one-component LMM
- experiments: the Monte Carlo studies (coverage, spurious regression,
  degree confounding, GLS correction, correlation distributions)
- errors: the exception hierarchy
- cli: the ``netacorr`` command-line entry point

Each module's ``__all__`` is the one list of its public names; the package
exports exactly those, plus ``__version__``.
"""

from . import deptest, errors, experiments, graph, inference, simulate
from ._version import __version__
from .deptest import *
from .errors import *
from .experiments import *
from .graph import *
from .inference import *
from .simulate import *

__all__ = ["__version__", *graph.__all__, *deptest.__all__, *simulate.__all__,
           *inference.__all__, *experiments.__all__, *errors.__all__]
