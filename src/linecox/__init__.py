"""Street-distance distributions on Poisson line Cox networks.

Points live on a random street system (a Poisson line process) and travel
along streets with a budget on how many corners they may turn. This package
evaluates the resulting shortest-distance distributions in closed or
quadrature form, estimates them exactly by simulation, and applies them to
link-budget and reachability questions.

The public names are listed once, in each module's ``__all__``; this
package re-exports those lists and adds ``__version__``.
"""

from . import analytic, applications, errors, experiments, model, oracle, sampler
from .analytic import *
from .applications import *
from .errors import *
from .experiments import *
from .model import *
from .oracle import *
from .sampler import *

__version__ = "0.1.0"

__all__ = ["__version__", *analytic.__all__, *applications.__all__, *errors.__all__,
           *experiments.__all__, *model.__all__, *oracle.__all__, *sampler.__all__]
